package stat

import (
	"fmt"
	"math"
	"math/rand"
)

const log2Pi = 1.8378770664093453 // log(2π)

// Gamma is a Gamma distribution with shape Alpha and rate Beta
// (mean Alpha/Beta).
type Gamma struct {
	Alpha float64 // shape, > 0
	Beta  float64 // rate, > 0
}

// Sample draws one value using the Marsaglia–Tsang method, with the
// standard shape-boost for Alpha < 1.
func (g Gamma) Sample(rng *rand.Rand) float64 {
	if g.Alpha <= 0 || g.Beta <= 0 {
		panic(fmt.Sprintf("stat: Gamma.Sample: invalid parameters alpha=%g beta=%g", g.Alpha, g.Beta))
	}
	alpha := g.Alpha
	boost := 1.0
	if alpha < 1 {
		// X_a = X_{a+1} * U^{1/a}.
		boost = math.Pow(rng.Float64(), 1/alpha)
		alpha++
	}
	d := alpha - 1.0/3.0
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
			return boost * d * v / g.Beta
		}
		if math.Log(u) < 0.5*x2+d*(1-v+math.Log(v)) {
			return boost * d * v / g.Beta
		}
	}
}

// LogPDF returns the log density at x (x > 0).
func (g Gamma) LogPDF(x float64) float64 {
	if x <= 0 {
		return math.Inf(-1)
	}
	lg, _ := math.Lgamma(g.Alpha)
	return g.Alpha*math.Log(g.Beta) - lg + (g.Alpha-1)*math.Log(x) - g.Beta*x
}

// Dirichlet draws a probability vector from Dirichlet(alpha) via
// normalized Gamma variates.
func Dirichlet(rng *rand.Rand, alpha []float64) []float64 {
	out := make([]float64, len(alpha))
	var total float64
	for i, a := range alpha {
		out[i] = Gamma{Alpha: a, Beta: 1}.Sample(rng)
		total += out[i]
	}
	if total == 0 {
		// All shapes tiny; fall back to a one-hot draw to stay on the simplex.
		out[rng.Intn(len(out))] = 1
		return out
	}
	for i := range out {
		out[i] /= total
	}
	return out
}

// DirichletSym draws from a symmetric Dirichlet with concentration a over
// k categories.
func DirichletSym(rng *rand.Rand, a float64, k int) []float64 {
	alpha := make([]float64, k)
	for i := range alpha {
		alpha[i] = a
	}
	return Dirichlet(rng, alpha)
}
