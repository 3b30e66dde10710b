package stat

import (
	"fmt"
	"math"

	"github.com/drdp/drdp/internal/mat"
)

// MVNormal is a multivariate Gaussian N(Mu, Sigma) with a cached Cholesky
// factor of Sigma. Construct with NewMVNormal; the zero value is not usable
// because the factorization must be computed once up front.
type MVNormal struct {
	Mu    mat.Vec
	Sigma *mat.Dense
	chol  *mat.Cholesky
	lognc float64 // log normalizing constant: -(d/2)log(2π) - (1/2)log|Σ|
}

// NewMVNormal builds the distribution, factoring Sigma (with a small
// jitter escalation when Sigma is numerically singular).
func NewMVNormal(mu mat.Vec, sigma *mat.Dense) (*MVNormal, error) {
	if sigma.Rows != len(mu) || sigma.Cols != len(mu) {
		return nil, fmt.Errorf("stat: NewMVNormal: mu has dim %d but sigma is %dx%d",
			len(mu), sigma.Rows, sigma.Cols)
	}
	ch, _, err := mat.NewCholeskyJitter(sigma, 1e-10, 8)
	if err != nil {
		return nil, fmt.Errorf("stat: NewMVNormal: %w", err)
	}
	d := float64(len(mu))
	return &MVNormal{
		Mu:    mat.CloneVec(mu),
		Sigma: sigma.Clone(),
		chol:  ch,
		lognc: -0.5*d*log2Pi - 0.5*ch.LogDet(),
	}, nil
}

// Dim returns the dimensionality.
func (m *MVNormal) Dim() int { return len(m.Mu) }

// LogPDF returns the log density at x.
func (m *MVNormal) LogPDF(x mat.Vec) float64 {
	var buf [stackDim]float64
	y := m.whiten(x, buf[:])
	return m.lognc - 0.5*mat.Dot(y, y)
}

// stackDim is the largest dimension whose whitening scratch lives on
// the caller's stack; larger ones allocate.
const stackDim = 64

// whiten returns L⁻¹(x − Mu), written into buf when it is long enough:
// the mean is subtracted and the forward substitution runs in place in
// one vector.
func (m *MVNormal) whiten(x, buf mat.Vec) mat.Vec {
	if len(x) != len(m.Mu) {
		panic(fmt.Sprintf("stat: MVNormal: point has dim %d, want %d", len(x), len(m.Mu)))
	}
	y := buf
	if len(y) < len(x) {
		y = make(mat.Vec, len(x))
	}
	y = y[:len(x)]
	for i, v := range x {
		y[i] = v - m.Mu[i]
	}
	m.chol.SolveLInPlace(y)
	return y
}

// Precision returns Σ⁻¹ as a fresh matrix.
func (m *MVNormal) Precision() *mat.Dense {
	return m.chol.Inverse()
}

// KLNormal returns KL(p || q) between two Gaussians of equal dimension.
func KLNormal(p, q *MVNormal) float64 {
	if p.Dim() != q.Dim() {
		panic(fmt.Sprintf("stat: KLNormal: dims %d != %d", p.Dim(), q.Dim()))
	}
	d := float64(p.Dim())
	qinv := q.Precision()
	trTerm := qinv.Mul(p.Sigma).Trace()
	diff := mat.SubVec(q.Mu, p.Mu)
	quad := qinv.QuadForm(diff)
	logDetP := p.chol.LogDet()
	logDetQ := q.chol.LogDet()
	return 0.5 * (trTerm + quad - d + logDetQ - logDetP)
}

// LogNormPDF evaluates a spherical Gaussian N(mu, sigma² I) log density at
// x without building an MVNormal, the hot path for isotropic base measures.
func LogNormPDF(x, mu mat.Vec, sigma float64) float64 {
	if len(x) != len(mu) {
		panic(fmt.Sprintf("stat: LogNormPDF: dims %d != %d", len(x), len(mu)))
	}
	d := float64(len(x))
	var ss float64
	for i, v := range x {
		z := v - mu[i]
		ss += z * z
	}
	return -0.5*d*log2Pi - d*math.Log(sigma) - ss/(2*sigma*sigma)
}
