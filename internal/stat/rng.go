// Package stat provides the probability substrate for drdp: seeded RNG
// plumbing, univariate and multivariate distributions (Gaussian, Gamma,
// Beta, Dirichlet) and the KL divergence between Gaussians.
//
// All sampling flows through an explicit *rand.Rand so every experiment in
// the repository is reproducible from a seed.
package stat

import "math/rand"

// NewRNG returns a seeded *rand.Rand. Every randomized component in the
// library takes one of these rather than touching global state.
func NewRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}
