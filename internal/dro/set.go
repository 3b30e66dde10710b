// Package dro implements the distributionally-robust-optimization layer of
// drdp: uncertainty sets centered at the empirical distribution of the
// edge device's local samples, and the dual reformulations that turn the
// inner sup over the set into a single-layer expression.
//
// Three ball geometries are supported:
//
//   - Wasserstein: for losses that are L(θ)-Lipschitz in the sample, strong
//     duality collapses the worst case to  mean loss + ρ·L(θ)  — a dual-norm
//     regularizer on the parameters (Mohajerin Esfahani & Kuhn 2018;
//     Shafieezadeh-Abadeh et al. 2015 for logistic regression).
//   - KL: exponential-tilting dual  min_{λ>0} λρ + λ log (1/n) Σ e^{ℓ_i/λ},
//     solved by safeguarded Newton on the tilt 1/λ in a few passes over the
//     losses, yielding tilted worst-case sample weights q_i ∝ e^{ℓ_i/λ*}.
//   - Chi-square: variance-penalized worst case with water-filling weights,
//     solved exactly by an active-set pass.
//
// The package works on per-sample loss values, so it is agnostic to the
// model; gradients of the robust objective follow from Danskin's theorem
// using the returned worst-case weights.
//
// All loss-vector sums run on the fixed chunk grid of package parallel
// and combine partials with its fixed-order tree reduction, so every
// solver here is bit-for-bit deterministic at any worker count; pass a
// pool to WorstCasePool to actually fan the passes out.
package dro

import (
	"fmt"
	"math"

	"github.com/drdp/drdp/internal/parallel"
)

// Kind selects the geometry of the uncertainty ball.
type Kind int

// Supported uncertainty-set geometries.
const (
	// None disables robustness: the set is the singleton {P̂_n}.
	None Kind = iota
	// Wasserstein is an order-1 Wasserstein ball; it enters the training
	// objective as a dual-norm penalty on the parameters.
	Wasserstein
	// KL is a Kullback-Leibler ball; it enters as exponential tilting of
	// the sample weights.
	KL
	// Chi2 is a chi-square ball; it enters as a variance penalty with
	// water-filling weights.
	Chi2
)

// String returns the canonical name of the kind.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Wasserstein:
		return "wasserstein"
	case KL:
		return "kl"
	case Chi2:
		return "chi2"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind maps a name (as printed by String) back to a Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "none":
		return None, nil
	case "wasserstein":
		return Wasserstein, nil
	case "kl":
		return KL, nil
	case "chi2":
		return Chi2, nil
	}
	return None, fmt.Errorf("dro: unknown uncertainty set %q", s)
}

// Set is an uncertainty ball of radius Rho around the empirical
// distribution. The zero value is the singleton set (no robustness).
type Set struct {
	Kind Kind
	Rho  float64 // ball radius, >= 0
}

// Validate reports a structurally invalid set.
func (s Set) Validate() error {
	if !(s.Rho >= 0) || math.IsInf(s.Rho, 1) {
		return fmt.Errorf("dro: radius %g must be finite and non-negative", s.Rho)
	}
	switch s.Kind {
	case None, Wasserstein, KL, Chi2:
		return nil
	}
	return fmt.Errorf("dro: unknown kind %d", int(s.Kind))
}

// WorstCase returns the worst-case expected loss over the ball and the
// worst-case sample weights (summing to 1). lipschitz is the loss's
// Lipschitz constant in the sample argument at the current parameters —
// only the Wasserstein geometry consumes it; pass 0 for the others.
//
// The weights are the gradient weights for the robust objective: by
// Danskin's theorem, ∇ worst-case = Σ_i q_i ∇ℓ_i (+ the parameter penalty
// term for Wasserstein, which the caller adds via ThetaPenalty).
func (s Set) WorstCase(losses []float64, lipschitz float64) (value float64, weights []float64) {
	return s.WorstCasePool(nil, losses, lipschitz)
}

// WorstCasePool is WorstCase with the O(n) passes over the loss vector
// (means, exponential-tilt sums, water-filling passes) fanned out on the
// pool. A nil pool runs inline through the identical chunk grid, so the
// result is bit-for-bit the same at any parallelism.
func (s Set) WorstCasePool(p *parallel.Pool, losses []float64, lipschitz float64) (value float64, weights []float64) {
	weights = make([]float64, len(losses))
	return s.WorstCaseInto(p, losses, lipschitz, weights), weights
}

// WorstCaseInto is WorstCasePool writing the worst-case weights into the
// caller's buffer, which must have one entry per loss, instead of
// allocating them. The value and weights are bit-for-bit those of
// WorstCasePool.
func (s Set) WorstCaseInto(p *parallel.Pool, losses []float64, lipschitz float64, weights []float64) float64 {
	if len(losses) == 0 {
		panic("dro: WorstCase: empty losses")
	}
	if len(weights) != len(losses) {
		panic(fmt.Sprintf("dro: WorstCase: %d weights for %d losses", len(weights), len(losses)))
	}
	switch s.Kind {
	case None:
		fillUniform(weights)
		return meanPool(p, losses)
	case Wasserstein:
		fillUniform(weights)
		return meanPool(p, losses) + s.Rho*lipschitz
	case KL:
		if s.Rho == 0 {
			fillUniform(weights)
			return meanPool(p, losses)
		}
		v, _, _ := klWorstCase(p, losses, s.Rho, weights)
		return v
	case Chi2:
		if s.Rho == 0 {
			fillUniform(weights)
			return meanPool(p, losses)
		}
		return chi2WorstCase(p, losses, s.Rho, weights)
	default:
		panic(fmt.Sprintf("dro: WorstCase: unknown kind %d", int(s.Kind)))
	}
}

// ThetaPenalty returns the coefficient of the dual-norm parameter penalty
// in the single-layer reformulation: ρ for the Wasserstein set (to be
// multiplied by ‖θ‖_* by the caller), 0 for all other geometries.
func (s Set) ThetaPenalty() float64 {
	if s.Kind == Wasserstein {
		return s.Rho
	}
	return 0
}

func meanPool(p *parallel.Pool, x []float64) float64 {
	return p.Sum(x) / float64(len(x))
}

// fillUniform writes the empirical distribution's weights 1/n into w.
func fillUniform(w []float64) {
	for i := range w {
		w[i] = 1 / float64(len(w))
	}
}

// scanLosses returns the extrema of losses plus a NaN flag, computed per
// chunk and combined with the (order-independent) max/min, so pooled and
// inline scans agree exactly.
func scanLosses(p *parallel.Pool, losses []float64) (minL, maxL float64, hasNaN bool) {
	chunks := parallel.Chunks(len(losses))
	if chunks == 1 {
		e := scanChunk(losses)
		return e.min, e.max, e.nan
	}
	parts := make([]extrema, chunks)
	p.ForEachChunk(len(losses), func(c, lo, hi int) {
		parts[c] = scanChunk(losses[lo:hi])
	})
	minL, maxL, hasNaN = parts[0].min, parts[0].max, parts[0].nan
	for _, e := range parts[1:] {
		hasNaN = hasNaN || e.nan
		if e.max > maxL || math.IsNaN(maxL) {
			maxL = e.max
		}
		if e.min < minL || math.IsNaN(minL) {
			minL = e.min
		}
	}
	return minL, maxL, hasNaN
}

// extrema is one chunk's scanLosses result.
type extrema struct {
	min, max float64
	nan      bool
}

func scanChunk(v []float64) extrema {
	e := extrema{min: v[0], max: v[0], nan: math.IsNaN(v[0])}
	for _, x := range v[1:] {
		if math.IsNaN(x) {
			e.nan = true
			continue
		}
		if x > e.max || math.IsNaN(e.max) {
			e.max = x
		}
		if x < e.min || math.IsNaN(e.min) {
			e.min = x
		}
	}
	return e
}

// klDegenerateRel is the relative spread below which KL tilting is
// meaningless: a spread at rounding-noise level cannot pin down λ* and
// would tilt to an arbitrary point mass, outside the ball if ρ < log n.
// Three decades above noise the true tilt is O(spread/ρ) from uniform.
const klDegenerateRel = 1e-12

const (
	klMaxTilt   = 1e6 // cap on the scaled tilt spread/λ: the floor λ ≥ spread·1e-6
	klMaxPasses = 12  // cap on the exp passes of one solve; Newton needs about six
)

// klWorstCase solves  sup_{Q: KL(Q||P̂)≤ρ} E_Q[ℓ]  by its dual
//
//	min_{λ>0} λρ + λ log (1/n) Σ_i exp(ℓ_i/λ)
//
// on the pool. It returns min(dual(λ*), maxL), λ* and the number of exp
// passes taken, and writes the tilted weights q_i ∝ e^{ℓ_i/λ*} into the
// caller's buffer. The dual is stationary where KL(q‖P̂) = ρ, which rises
// in the tilt s = spread/λ with slope s·Var_q(u) towards the point mass's
// L = log(n/#argmax). So ρ ≥ L takes the largest tilt; otherwise Newton
// on log(L − KL) — quadratic near s = 0, linear where KL saturates —
// starts at the small-ρ closed form s₀ = √(2ρ/Var(u)) inside the bracket
// [√(8ρ), klMaxTilt]. Each step is one pass over u_i = (ℓ_i − maxL)/spread
// that writes e^{s·u_i} into weights and returns Σ e, Σ e·u and Σ e·u².
//
// A spread below klDegenerateRel of the loss magnitude gives maxL with
// uniform weights and λ = +Inf; so does a non-finite loss, with the value
// ±Inf or NaN as the data dictates but no NaN in the weights.
func klWorstCase(p *parallel.Pool, losses []float64, rho float64, weights []float64) (value, lambda float64, passes int) {
	if rho <= 0 {
		panic(fmt.Sprintf("dro: KL worst case: rho %g must be positive", rho))
	}
	n := len(losses)
	minL, maxL, hasNaN := scanLosses(p, losses)
	if hasNaN {
		fillUniform(weights)
		return math.NaN(), math.Inf(1), 0
	}
	spread := maxL - minL
	if math.IsInf(maxL, 0) || math.IsInf(minL, 0) || spread <= klDegenerateRel*(1+math.Abs(maxL)) {
		fillUniform(weights)
		return maxL, math.Inf(1), 0
	}
	half := 1.0 // halves finite losses whose spread overflows
	if math.IsInf(spread, 1) {
		half, spread = 0.5, maxL*0.5-minL*0.5
	}
	top, inv := maxL*half, 1/spread

	// Argmax rows (u = 0, weight 1) stay out of the Σ e partial, so the
	// remainder L − KL below is computed without cancellation.
	nc := parallel.Chunks(n)
	sums, lins, sqs := make([]float64, nc), make([]float64, nc), make([]float64, nc)
	var s float64
	kernel := func(c, lo, hi int) {
		var s0, s1, s2 float64
		a, h, t, v := s, half, top, inv
		x, w := losses[lo:hi], weights[lo:hi]
		for i := range x {
			u := (x[i]*h - t) * v
			e := math.Exp(a * u)
			w[i] = e
			if u < 0 {
				s0 += e
			}
			s1 += e * u
			s2 += e * u * u
		}
		sums[c], lins[c], sqs[c] = s0, s1, s2
	}
	pass := func() (rest, lin, sq float64) {
		passes++
		p.ForEachChunk(n, kernel)
		return parallel.TreeReduce(sums), parallel.TreeReduce(lins), parallel.TreeReduce(sqs)
	}

	nf := float64(n)
	rest, lin, sq := pass() // s = 0: every weight is 1
	ties := nf - rest
	supKL := math.Log(nf / ties)
	if rho >= supKL {
		s = klMaxTilt // only the point mass reaches the ball's edge
		rest, _, _ = pass()
	} else {
		s = math.Min(math.Sqrt(2*rho/(sq/nf-lin*lin/(nf*nf))), klMaxTilt)
		target := math.Log(supKL - rho)
		lo, hi := math.Sqrt(8*rho), klMaxTilt // KL(s) ≤ s²/8 as Var_q(u) ≤ 1/4
		for {
			rest, lin, sq = pass()
			z := ties + rest
			m := lin / z
			d := math.Log1p(rest/ties) - s*m // L − KL(q_s‖P̂) ≥ 0
			if d > supKL-rho {
				lo = s
			} else {
				hi = s
			}
			// Newton on log d(s) = target, with d'(s) = −s·Var_q(u).
			next := s + (math.Log(d)-target)*d/(s*(sq/z-m*m))
			if !(next > lo && next < hi) && math.Abs(next-s) > 1e-12*s {
				next = math.Sqrt(lo * hi)
			}
			if passes == klMaxPasses || math.Abs(next-s) <= 1e-12*s {
				break
			}
			s = next
		}
	}

	// The sup over reweightings of the sample never exceeds the max loss;
	// clamp away the residual λρ overshoot of a λ not exactly optimal.
	z := ties + rest
	value = math.Min((top+spread*(rho+math.Log(z/nf))/s)/half, maxL)
	p.ForEachChunk(n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			weights[i] /= z
		}
	})
	return value, spread / s / half, passes
}

// chi2WorstCase solves  sup_Q E_Q[ℓ]  over the χ² ball
//
//	{ q ∈ Δ_n : (1/2n) Σ_i (n q_i − 1)² ≤ ρ }
//
// on the pool, writing the weights into the caller's buffer. It is
// exact, via an active-set pass: unconstrained the optimum is
// q = 1/n + δ with δ ∝ centered losses scaled to the ball boundary; any
// weights driven negative are clamped to zero and the remainder re-solved.
//
// Non-finite losses take the same uniform-weight fallback as klWorstCase.
func chi2WorstCase(p *parallel.Pool, losses []float64, rho float64, weights []float64) float64 {
	if rho <= 0 {
		panic(fmt.Sprintf("dro: χ² worst case: rho %g must be positive", rho))
	}
	n := len(losses)
	_, maxL, hasNaN := scanLosses(p, losses)
	if hasNaN {
		fillUniform(weights)
		return math.NaN()
	}
	if math.IsInf(maxL, 1) {
		fillUniform(weights)
		return maxL
	}
	// A coordinate clamped to zero is marked by a negative weight: the
	// pass that drives weights[i] below zero leaves it there, every later
	// pass skips it (free means !(weights[i] < 0)), and the final
	// projection zeroes it. Within a pass
	// the free set is fixed, so the closures below read the marks of the
	// previous pass. They are built once; the pass state they read lives
	// in mean, maxDev, scale and m.
	for i := range weights {
		weights[i] = 0
	}
	var (
		mean, maxDev, scale float64
		m                   int
	)
	freeLoss := p.NewSummer(n, func(i int) float64 {
		if weights[i] < 0 {
			return 0
		}
		return losses[i]
	})
	// Largest centered deviation, for an overflow-safe sum of squares:
	// Σ d² computed directly overflows once |d| exceeds ~1e154 and would
	// zero the tilt for exactly the losses that most deserve one.
	devs := make([]float64, parallel.Chunks(n))
	chunkDev := func(c, lo, hi int) {
		var mx float64
		for i := lo; i < hi; i++ {
			if !(weights[i] < 0) {
				if d := math.Abs(losses[i] - mean); d > mx {
					mx = d
				}
			}
		}
		devs[c] = mx
	}
	scaledSq := p.NewSummer(n, func(i int) float64 {
		if weights[i] < 0 {
			return 0
		}
		d := (losses[i] - mean) / maxDev
		return d * d
	})
	negatives := make([]bool, parallel.Chunks(n))
	chunkWeights := func(c, lo, hi int) {
		neg := false
		for i := lo; i < hi; i++ {
			if weights[i] < 0 {
				continue
			}
			weights[i] = 1/float64(m) + scale*(losses[i]-mean)
			if weights[i] < 0 {
				neg = true
			}
		}
		negatives[c] = neg
	}

	for pass := 0; pass < n; pass++ {
		// Solve on the free set.
		m = 0
		for _, w := range weights {
			if !(w < 0) {
				m++
			}
		}
		if m == 0 {
			break
		}
		mean = freeLoss.Sum() / float64(m)
		if math.IsInf(mean, 0) || math.IsNaN(mean) {
			// The free-set sum overflowed (losses near ±MaxFloat64):
			// centered deviations would be NaN. Give up on tilting.
			fillUniform(weights)
			return maxL
		}
		p.ForEachChunk(n, chunkDev)
		maxDev = 0
		for _, d := range devs {
			if d > maxDev {
				maxDev = d
			}
		}
		scale = 0
		if maxDev > 0 {
			norm := maxDev * math.Sqrt(scaledSq.Sum())
			// KKT solution on the free set: q_i = 1/m + β(ℓ_i − mean)
			// with β set by the active ball constraint. Each clamped
			// coordinate contributes a fixed (n·0 − 1)² = 1 to the χ²
			// sum and the 1/m-vs-1/n offset of the free coordinates
			// another (n−m)·n/m, so the budget left for the tilt is
			// 2nρ − (n−m)·n/m; ignoring that cost (as a prior version
			// did) returns weights outside the ball once clamping
			// starts.
			nf, mf := float64(n), float64(m)
			budget := 2*nf*rho - (nf-mf)*nf/mf
			if budget > 0 && !math.IsInf(norm, 1) {
				scale = math.Sqrt(budget) / (nf * norm)
			}
		}
		p.ForEachChunk(n, chunkWeights)
		negative := false
		for _, neg := range negatives {
			negative = negative || neg
		}
		if !negative {
			break
		}
	}
	// Project residual numerical error back to the simplex.
	z := p.SumChunked(n, func(i int) float64 {
		if weights[i] > 0 {
			return weights[i]
		}
		return 0
	})
	if z <= 0 || math.IsInf(z, 0) || math.IsNaN(z) {
		fillUniform(weights)
		return maxL
	}
	p.ForEachChunk(n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			if weights[i] < 0 {
				weights[i] = 0
			}
			weights[i] /= z
		}
	})
	return p.SumChunked(n, func(i int) float64 { return weights[i] * losses[i] })
}
