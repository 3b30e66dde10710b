package dro

import (
	"math"
	"math/rand"
	"testing"

	"github.com/drdp/drdp/internal/parallel"
)

// bruteKLDual minimizes the KL dual objective on a dense log grid of λ —
// a slow reference the Newton solve on the tilt must match.
func bruteKLDual(losses []float64, rho float64) float64 {
	maxL := losses[0]
	for _, v := range losses {
		if v > maxL {
			maxL = v
		}
	}
	dual := func(lam float64) float64 {
		var s float64
		for _, v := range losses {
			s += math.Exp((v - maxL) / lam)
		}
		return lam*rho + maxL + lam*math.Log(s/float64(len(losses)))
	}
	best := math.Inf(1)
	for e := -9.0; e <= 9.0; e += 0.01 {
		if v := dual(math.Pow(10, e)); v < best {
			best = v
		}
	}
	return best
}

func klDivFromUniform(q []float64) float64 {
	n := float64(len(q))
	var d float64
	for _, v := range q {
		if v > 0 {
			d += v * math.Log(v*n)
		}
	}
	return d
}

func checkSimplex(t *testing.T, w []float64) {
	t.Helper()
	var sum float64
	for i, v := range w {
		if math.IsNaN(v) || v < 0 {
			t.Fatalf("weight %d = %g is not a probability", i, v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("weights sum to %g, want 1", sum)
	}
}

func TestKLWorstCasePropertyVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(40)
		losses := make([]float64, n)
		scale := math.Pow(10, float64(rng.Intn(7)-3))
		for i := range losses {
			losses[i] = scale * rng.NormFloat64()
		}
		rho := math.Pow(10, -3+4*rng.Float64())
		v, w, lam := klWorst(losses, rho)

		if lam <= 0 {
			t.Fatalf("trial %d: lambda %g must be positive", trial, lam)
		}
		checkSimplex(t, w)
		// The returned weights must be inside (or on) the KL ball.
		if d := klDivFromUniform(w); d > rho*(1+1e-6)+1e-9 {
			t.Fatalf("trial %d: KL(q||uniform) = %g exceeds rho = %g", trial, d, rho)
		}
		// Dual optimality: not worse than a dense λ grid (up to grid
		// resolution), and between the mean and the max loss.
		brute := bruteKLDual(losses, rho)
		if v > brute+1e-6*(1+math.Abs(brute)) {
			t.Fatalf("trial %d: value %g beats brute-force dual %g the wrong way", trial, v, brute)
		}
		mean, maxL := 0.0, losses[0]
		for _, l := range losses {
			mean += l / float64(n)
			if l > maxL {
				maxL = l
			}
		}
		if v < mean-1e-9*(1+math.Abs(mean)) || v > maxL+1e-12 {
			t.Fatalf("trial %d: value %g outside [mean %g, max %g]", trial, v, mean, maxL)
		}
		// Primal consistency: the tilted weights attain ~the dual value
		// from below (weak duality up to solver tolerance).
		var attained float64
		for i, l := range losses {
			attained += w[i] * l
		}
		if attained > v+1e-6*(1+math.Abs(v)) {
			t.Fatalf("trial %d: attained %g exceeds dual value %g", trial, attained, v)
		}
	}
}

// klCorpus is the random corpus of TestKLWorstCasePropertyVsBruteForce
// followed by one draw at each n that straddles the 256-row chunk grid.
func klCorpus(visit func(trial int, losses []float64, rho float64)) {
	rng := rand.New(rand.NewSource(42))
	draw := func(n int) ([]float64, float64) {
		losses := make([]float64, n)
		scale := math.Pow(10, float64(rng.Intn(7)-3))
		for i := range losses {
			losses[i] = scale * rng.NormFloat64()
		}
		return losses, math.Pow(10, -3+4*rng.Float64())
	}
	trial := 0
	for ; trial < 50; trial++ {
		losses, rho := draw(2 + rng.Intn(40))
		visit(trial, losses, rho)
	}
	for _, n := range []int{255, 256, 257, 511, 512, 513, 1000, 1000, 1000} {
		losses, rho := draw(n)
		visit(trial, losses, rho)
		trial++
	}
}

// TestKLWorstCaseKKT pins the solve to the dual's optimality conditions
// rather than to a grid: inside the ball's reach the tilted weights sit on
// its edge, KL(q‖P̂) = ρ, and attain the dual value; beyond it (ρ ≥
// log(n/#argmax), where only the point mass on the argmax rows reaches
// the edge) the value is the max loss and the weight is on the argmax.
// Every solve takes at most klMaxPasses exp passes, as counted by the
// solver itself.
func TestKLWorstCaseKKT(t *testing.T) {
	klCorpus(func(trial int, losses []float64, rho float64) {
		n := len(losses)
		w := make([]float64, n)
		v, lam, passes := klWorstCase(nil, losses, rho, w)
		if passes > 12 {
			t.Errorf("trial %d (n=%d rho=%g): %d exp passes, want at most 12", trial, n, rho, passes)
		}
		minL, maxL, ties := losses[0], losses[0], 0
		for _, l := range losses {
			minL, maxL = math.Min(minL, l), math.Max(maxL, l)
		}
		var attained, onMax float64
		for i, l := range losses {
			attained += w[i] * l
			if l == maxL {
				ties++
				onMax += w[i]
			}
		}
		if gap := v - attained; gap > 1e-10*(1+math.Abs(v)) {
			t.Errorf("trial %d (n=%d rho=%g): duality gap %g at value %g", trial, n, rho, gap, v)
		}
		if rho >= math.Log(float64(n)/float64(ties)) {
			if v != maxL || onMax < 1-1e-12 {
				t.Errorf("trial %d (n=%d rho=%g): point-mass regime gave value %g (max %g), argmax weight %g",
					trial, n, rho, v, maxL, onMax)
			}
			return
		}
		if lam <= (maxL-minL)*1e-6*(1+1e-9) {
			return // the root lies beyond the λ floor; the floor's tilt is returned
		}
		if d := klDivFromUniform(w); math.Abs(d-rho) > 1e-9*rho {
			t.Errorf("trial %d (n=%d rho=%g): KL(q||uniform) = %.17g, want rho", trial, n, rho, d)
		}
	})
}

// TestKLWorstCaseNearDegenerateSpread locks the fix for the weight cliff
// just above the old absolute 1e-15 spread cutoff: rounding-noise spreads
// now resolve as degenerate (uniform weights), instead of a point mass
// that violates the ball whenever rho < log n.
func TestKLWorstCaseNearDegenerateSpread(t *testing.T) {
	n := 16
	rho := 0.1 // < log 16, so a point mass would be infeasible
	losses := make([]float64, n)
	for i := range losses {
		losses[i] = 1.0
	}
	losses[3] = 1.0 + 2e-15 // spread 2e-15: above 1e-15, below noise
	v, w, lam := klWorst(losses, rho)
	if !math.IsInf(lam, 1) {
		t.Fatalf("near-degenerate spread should resolve as degenerate, got lambda %g", lam)
	}
	checkSimplex(t, w)
	for i, q := range w {
		if math.Abs(q-1.0/float64(n)) > 1e-12 {
			t.Fatalf("weight %d = %g, want uniform 1/%d", i, q, n)
		}
	}
	if math.Abs(v-losses[3]) > 1e-12 {
		t.Fatalf("value %g, want max loss %g", v, losses[3])
	}
	// And the ball constraint holds where it previously broke.
	if d := klDivFromUniform(w); d > rho {
		t.Fatalf("KL(q||uniform) = %g exceeds rho = %g", d, rho)
	}
}

// TestKLWorstCaseHugeLosses is the bracket-overflow regression: losses
// near ±MaxFloat64 made the grid's upper endpoint overflow to +Inf and
// `lam *= 4` loop forever at lam = +Inf. The call must terminate and
// return finite, feasible output.
func TestKLWorstCaseHugeLosses(t *testing.T) {
	losses := []float64{1e308, -1e308, 5e307, 0}
	v, w, lam := klWorst(losses, 0.5)
	if math.IsNaN(v) || math.IsNaN(lam) {
		t.Fatalf("huge losses produced NaN: value %g lambda %g", v, lam)
	}
	if v > 1e308 {
		t.Fatalf("value %g exceeds max loss", v)
	}
	checkSimplex(t, w)
}

func TestKLWorstCaseNonFiniteLosses(t *testing.T) {
	v, w, lam := klWorst([]float64{1, math.Inf(1), 2}, 0.5)
	if !math.IsInf(v, 1) {
		t.Fatalf("worst case with a +Inf loss is +Inf, got %g", v)
	}
	if !math.IsInf(lam, 1) {
		t.Fatalf("non-finite fallback lambda = %g, want +Inf", lam)
	}
	checkSimplex(t, w) // crucially: no NaN poison in the gradient weights

	v, w, _ = klWorst([]float64{1, math.NaN(), 2}, 0.5)
	if !math.IsNaN(v) {
		t.Fatalf("worst case with a NaN loss is NaN, got %g", v)
	}
	checkSimplex(t, w)
}

func TestKLWorstCaseSingleSample(t *testing.T) {
	v, w, _ := klWorst([]float64{3.5}, 1.0)
	if v != 3.5 || len(w) != 1 || w[0] != 1 {
		t.Fatalf("n=1: got value %g weights %v", v, w)
	}
}

// bruteChi2Feasible draws random feasible weight vectors in the χ² ball;
// none may beat the active-set solver's value.
func TestChi2WorstCasePropertyVsRandomFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(30)
		losses := make([]float64, n)
		for i := range losses {
			losses[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(5)-2))
		}
		rho := math.Pow(10, -2+3*rng.Float64())
		v, w := chi2Worst(losses, rho)
		checkSimplex(t, w)
		// Returned weights inside the ball.
		if d := chi2Div(w); d > rho*(1+1e-6)+1e-9 {
			t.Fatalf("trial %d: chi2 divergence %g exceeds rho %g", trial, d, rho)
		}
		// Value is attained by the weights.
		var attained float64
		for i, l := range losses {
			attained += w[i] * l
		}
		if math.Abs(attained-v) > 1e-9*(1+math.Abs(v)) {
			t.Fatalf("trial %d: value %g but weights attain %g", trial, v, attained)
		}
		// Adversary: random feasible q must not beat the solver.
		for adv := 0; adv < 200; adv++ {
			q := randomChi2Feasible(rng, n, rho)
			var qv float64
			for i, l := range losses {
				qv += q[i] * l
			}
			if qv > v+1e-7*(1+math.Abs(v)) {
				t.Fatalf("trial %d: feasible adversary attains %g > solver value %g", trial, qv, v)
			}
		}
	}
}

func chi2Div(q []float64) float64 {
	n := float64(len(q))
	var s float64
	for _, v := range q {
		d := n*v - 1
		s += d * d
	}
	return s / (2 * n)
}

// randomChi2Feasible perturbs uniform weights by a random direction
// scaled to stay inside the χ² ball and on the simplex.
func randomChi2Feasible(rng *rand.Rand, n int, rho float64) []float64 {
	dir := make([]float64, n)
	var mean float64
	for i := range dir {
		dir[i] = rng.NormFloat64()
		mean += dir[i] / float64(n)
	}
	var ss float64
	for i := range dir {
		dir[i] -= mean // keep Σ q = 1
		ss += dir[i] * dir[i]
	}
	if ss == 0 {
		ss = 1
	}
	scale := rng.Float64() * math.Sqrt(2*rho/float64(n)) / math.Sqrt(ss)
	q := make([]float64, n)
	for i := range q {
		q[i] = 1/float64(n) + scale*dir[i]
		if q[i] < 0 { // clamped draws may leave the ball; skip by zeroing
			q[i] = 0
		}
	}
	var z float64
	for _, v := range q {
		z += v
	}
	for i := range q {
		q[i] /= z
	}
	if chi2Div(q) > rho {
		// Renormalization can push back outside; fall back to uniform.
		for i := range q {
			q[i] = 1 / float64(n)
		}
	}
	return q
}

// TestChi2WorstCaseHugeLosses is the sum-of-squares overflow regression:
// deviations beyond ~1e154 made Σd² overflow to +Inf, zeroing the tilt
// and silently returning uniform weights. The scaled two-pass norm keeps
// the tilt alive; at true overflow scale the solver degrades to a
// defined uniform fallback, never NaN.
func TestChi2WorstCaseHugeLosses(t *testing.T) {
	// Deviations ~1e200: old code overflowed, new code must still tilt.
	losses := []float64{1e200, -1e200, 0, 0}
	v, w := chi2Worst(losses, 0.5)
	if math.IsNaN(v) {
		t.Fatal("huge losses produced NaN value")
	}
	checkSimplex(t, w)
	if w[0] <= w[1] {
		t.Fatalf("tilt lost to overflow: weight on max loss %g <= weight on min loss %g", w[0], w[1])
	}
	if v <= 0 {
		t.Fatalf("worst case %g should exceed the mean 0", v)
	}

	// Mean-overflow scale: defined fallback, no NaN.
	v, w = chi2Worst([]float64{1.5e308, 1.5e308, -1.5e308}, 0.5)
	if math.IsNaN(v) {
		t.Fatal("mean overflow produced NaN value")
	}
	checkSimplex(t, w)
}

func TestChi2WorstCaseNonFiniteLosses(t *testing.T) {
	v, w := chi2Worst([]float64{1, math.Inf(1), 2}, 0.5)
	if !math.IsInf(v, 1) {
		t.Fatalf("worst case with a +Inf loss is +Inf, got %g", v)
	}
	checkSimplex(t, w)

	v, w = chi2Worst([]float64{1, math.NaN(), 2}, 0.5)
	if !math.IsNaN(v) {
		t.Fatalf("worst case with a NaN loss is NaN, got %g", v)
	}
	checkSimplex(t, w)
}

// TestWorstCasePoolBitIdentical asserts the tentpole invariant at the
// dro layer: pooled solves match the serial path bit for bit for every
// geometry, across chunk-boundary sizes.
func TestWorstCasePoolBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, kind := range []Kind{None, Wasserstein, KL, Chi2} {
		for _, n := range []int{10, 256, 257, 1000} {
			losses := make([]float64, n)
			for i := range losses {
				losses[i] = rng.NormFloat64()
			}
			s := Set{Kind: kind, Rho: 0.3}
			v0, w0 := s.WorstCase(losses, 1.0)
			for _, workers := range []int{2, 8} {
				v, w := s.WorstCasePool(parallel.New(workers), losses, 1.0)
				if math.Float64bits(v) != math.Float64bits(v0) {
					t.Fatalf("%v n=%d workers=%d: value bits differ", kind, n, workers)
				}
				for i := range w {
					if math.Float64bits(w[i]) != math.Float64bits(w0[i]) {
						t.Fatalf("%v n=%d workers=%d: weight %d bits differ", kind, n, workers, i)
					}
				}
			}
		}
	}
}
