// Package dpprior implements the Dirichlet-process machinery that carries
// cloud knowledge to edge devices in drdp: stick-breaking weight
// construction, Chinese-restaurant-process partitions, a truncated DP
// Gaussian-mixture fit over cloud task posteriors (collapsed Gibbs, the
// only prior builder), and the serializable Prior object that edges
// receive over the wire.
//
// The prior over edge parameters θ has the truncated stick-breaking form
//
//	p(θ) = Σ_k w_k N(θ; μ_k, Σ_k) + w_0 N(θ; 0, σ0² I)
//
// where the components summarize clusters of cloud tasks and the base
// term is the DP's "new cluster" escape hatch with mass governed by the
// concentration α.
package dpprior

import (
	"fmt"
	"math"
	"math/rand"
)

// StickBreaking draws truncated stick-breaking weights for a DP with
// concentration alpha: v_k ~ Beta(1, alpha), w_k = v_k Π_{j<k}(1-v_j),
// for k = 1..t, with the leftover stick returned as the final remainder.
// The returned weights slice has length t and sums to 1-remainder.
func StickBreaking(rng *rand.Rand, alpha float64, t int) (weights []float64, remainder float64) {
	if alpha <= 0 {
		panic(fmt.Sprintf("dpprior: StickBreaking: alpha must be positive, got %g", alpha))
	}
	if t <= 0 {
		panic(fmt.Sprintf("dpprior: StickBreaking: truncation must be positive, got %d", t))
	}
	weights = make([]float64, t)
	stick := 1.0
	for k := 0; k < t; k++ {
		v := betaSample(rng, 1, alpha)
		weights[k] = v * stick
		stick *= 1 - v
	}
	return weights, stick
}

// CRP samples a Chinese-restaurant-process partition of n items with
// concentration alpha, returning per-item table assignments (0-based,
// tables numbered in order of first occupancy).
func CRP(rng *rand.Rand, n int, alpha float64) []int {
	if alpha <= 0 {
		panic(fmt.Sprintf("dpprior: CRP: alpha must be positive, got %g", alpha))
	}
	assign := make([]int, n)
	var counts []float64
	for i := 0; i < n; i++ {
		total := float64(i) + alpha
		u := rng.Float64() * total
		var acc float64
		table := len(counts) // default: new table
		for t, c := range counts {
			acc += c
			if u < acc {
				table = t
				break
			}
		}
		if table == len(counts) {
			counts = append(counts, 0)
		}
		counts[table]++
		assign[i] = table
	}
	return assign
}

// betaSample draws Beta(a, b) via the Gamma ratio, inlined here to keep
// dpprior independent of package stat's sampling helpers in this hot path.
func betaSample(rng *rand.Rand, a, b float64) float64 {
	x := gammaSample(rng, a)
	y := gammaSample(rng, b)
	return x / (x + y)
}

// gammaSample draws Gamma(shape=a, rate=1) by Marsaglia–Tsang.
func gammaSample(rng *rand.Rand, a float64) float64 {
	boost := 1.0
	if a < 1 {
		boost = math.Pow(rng.Float64(), 1/a)
		a++
	}
	d := a - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		var x, v float64
		for {
			x = rng.NormFloat64()
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := rng.Float64()
		x2 := x * x
		if u < 1-0.0331*x2*x2 {
			return boost * d * v
		}
		if math.Log(u) < 0.5*x2+d*(1-v+math.Log(v)) {
			return boost * d * v
		}
	}
}
