package dro

import (
	"math"
	"math/rand"
	"testing"

	"github.com/drdp/drdp/internal/parallel"
)

// klWorst and chi2Worst run the KL and χ² worst cases serially into a
// fresh weight vector.
func klWorst(losses []float64, rho float64) (value float64, weights []float64, lambda float64) {
	weights = make([]float64, len(losses))
	value, lambda, _ = klWorstCase(nil, losses, rho, weights)
	return value, weights, lambda
}

func chi2Worst(losses []float64, rho float64) (value float64, weights []float64) {
	weights = make([]float64, len(losses))
	return chi2WorstCase(nil, losses, rho, weights), weights
}

func TestKindStringParse(t *testing.T) {
	for _, k := range []Kind{None, Wasserstein, KL, Chi2} {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("round trip of %v failed: %v, %v", k, got, err)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Error("ParseKind accepted bogus name")
	}
	if s := Kind(99).String(); s != "Kind(99)" {
		t.Errorf("unknown kind string = %q", s)
	}
}

func TestSetValidate(t *testing.T) {
	if err := (Set{Kind: KL, Rho: 0.1}).Validate(); err != nil {
		t.Errorf("valid set rejected: %v", err)
	}
	for _, rho := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, kind := range []Kind{Wasserstein, KL, Chi2} {
			if err := (Set{Kind: kind, Rho: rho}).Validate(); err == nil {
				t.Errorf("%v radius %v accepted", kind, rho)
			}
		}
	}
	if err := (Set{Kind: Kind(42)}).Validate(); err == nil {
		t.Error("unknown kind accepted")
	}
	if err := (Set{}).Validate(); err != nil {
		t.Errorf("zero value should be valid (singleton): %v", err)
	}
}

func TestWorstCaseNone(t *testing.T) {
	losses := []float64{1, 2, 3}
	v, w := Set{}.WorstCase(losses, 5)
	if math.Abs(v-2) > 1e-12 {
		t.Errorf("None worst case = %v, want mean 2", v)
	}
	for _, wi := range w {
		if math.Abs(wi-1.0/3) > 1e-12 {
			t.Errorf("None weights = %v, want uniform", w)
		}
	}
}

func TestWorstCaseWasserstein(t *testing.T) {
	losses := []float64{1, 2, 3}
	s := Set{Kind: Wasserstein, Rho: 0.5}
	v, w := s.WorstCase(losses, 2) // lipschitz 2
	if math.Abs(v-(2+0.5*2)) > 1e-12 {
		t.Errorf("Wasserstein worst case = %v, want 3", v)
	}
	for _, wi := range w {
		if math.Abs(wi-1.0/3) > 1e-12 {
			t.Errorf("Wasserstein weights should stay uniform: %v", w)
		}
	}
	if p := s.ThetaPenalty(); p != 0.5 {
		t.Errorf("ThetaPenalty = %v, want 0.5", p)
	}
	if p := (Set{Kind: KL, Rho: 0.5}).ThetaPenalty(); p != 0 {
		t.Errorf("KL ThetaPenalty = %v, want 0", p)
	}
}

func TestWorstCaseEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty losses did not panic")
		}
	}()
	Set{}.WorstCase(nil, 0)
}

func TestKLWorstCaseDegenerate(t *testing.T) {
	v, w, lam := klWorst([]float64{2, 2, 2}, 0.5)
	if v != 2 {
		t.Errorf("degenerate KL worst case = %v, want 2", v)
	}
	if !math.IsInf(lam, 1) {
		t.Errorf("degenerate lambda = %v, want +Inf", lam)
	}
	for _, wi := range w {
		if math.Abs(wi-1.0/3) > 1e-12 {
			t.Errorf("degenerate weights = %v", w)
		}
	}
}

func TestKLWorstCaseBounds(t *testing.T) {
	losses := []float64{0, 1, 2, 5}
	mean, max := 2.0, 5.0
	prev := mean
	for _, rho := range []float64{0.001, 0.01, 0.1, 0.5, 2, 10} {
		v, w, lam := klWorst(losses, rho)
		if v < mean-1e-9 || v > max+1e-9 {
			t.Errorf("rho=%v: value %v outside [mean, max]", rho, v)
		}
		if v < prev-1e-9 {
			t.Errorf("rho=%v: value %v decreased from %v (should be monotone)", rho, v, prev)
		}
		prev = v
		if lam <= 0 {
			t.Errorf("rho=%v: lambda %v", rho, lam)
		}
		var sum float64
		for _, wi := range w {
			if wi < 0 {
				t.Fatalf("negative weight %v", wi)
			}
			sum += wi
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("rho=%v: weights sum %v", rho, sum)
		}
	}
	// Small rho: close to mean. Large rho: close to max.
	v, _, _ := klWorst(losses, 1e-6)
	if math.Abs(v-mean) > 0.02 {
		t.Errorf("tiny rho: %v, want ≈ mean %v", v, mean)
	}
	v, _, _ = klWorst(losses, 50)
	if max-v > 0.2 {
		t.Errorf("huge rho: %v, want ≈ max %v", v, max)
	}
}

func TestKLWeightsMonotoneInLoss(t *testing.T) {
	losses := []float64{0, 1, 2, 3}
	_, w, _ := klWorst(losses, 0.3)
	for i := 1; i < len(w); i++ {
		if w[i] <= w[i-1] {
			t.Errorf("tilted weights not increasing with loss: %v", w)
		}
	}
}

// Property: the dual value upper-bounds E_Q[loss] for every Q in the ball.
func TestKLDualDominatesFeasibleProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	losses := make([]float64, 12)
	for i := range losses {
		losses[i] = rng.NormFloat64() * 2
	}
	rho := 0.25
	value, _, _ := klWorst(losses, rho)
	n := float64(len(losses))
	for trial := 0; trial < 500; trial++ {
		// Random distribution near uniform.
		q := make([]float64, len(losses))
		var z float64
		for i := range q {
			q[i] = math.Exp(0.8 * rng.NormFloat64())
			z += q[i]
		}
		var kl, eq float64
		for i := range q {
			q[i] /= z
			kl += q[i] * math.Log(q[i]*n)
			eq += q[i] * losses[i]
		}
		if kl <= rho && eq > value+1e-7 {
			t.Fatalf("feasible Q (KL=%v) beats dual value: %v > %v", kl, eq, value)
		}
	}
}

func TestChi2WorstCaseNoClamping(t *testing.T) {
	// Small rho: no weight clamps; closed form mean + sqrt(2ρ·σ²_pop).
	losses := []float64{1, 2, 3, 4}
	rho := 0.01
	mean := 2.5
	variance := 1.25 // population variance of {1,2,3,4}
	want := mean + math.Sqrt(2*rho*variance)
	got, w := chi2Worst(losses, rho)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("chi2 value = %v, want %v", got, want)
	}
	var sum float64
	for _, wi := range w {
		if wi < 0 {
			t.Fatalf("negative weight %v", wi)
		}
		sum += wi
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("weights sum %v", sum)
	}
}

func TestChi2WorstCaseLargeRhoConcentrates(t *testing.T) {
	losses := []float64{0, 1, 2, 10}
	v, w := chi2Worst(losses, 1e6)
	if math.Abs(v-10) > 1e-6 {
		t.Errorf("huge rho chi2 value = %v, want 10", v)
	}
	if w[3] < 0.999 {
		t.Errorf("weights should concentrate on max loss: %v", w)
	}
}

func TestChi2MonotoneInRho(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	losses := make([]float64, 15)
	for i := range losses {
		losses[i] = rng.Float64() * 5
	}
	prev := -math.Inf(1)
	for _, rho := range []float64{0.001, 0.01, 0.1, 1, 10, 100} {
		v, _ := chi2Worst(losses, rho)
		if v < prev-1e-9 {
			t.Errorf("chi2 value decreased at rho=%v: %v < %v", rho, v, prev)
		}
		prev = v
	}
}

func TestChi2DualDominatesFeasibleProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	losses := make([]float64, 10)
	for i := range losses {
		losses[i] = rng.NormFloat64()
	}
	rho := 0.3
	value, _ := chi2Worst(losses, rho)
	n := float64(len(losses))
	for trial := 0; trial < 500; trial++ {
		q := make([]float64, len(losses))
		var z float64
		for i := range q {
			q[i] = rng.Float64()
			z += q[i]
		}
		var chi2, eq float64
		for i := range q {
			q[i] /= z
			d := n*q[i] - 1
			chi2 += d * d
			eq += q[i] * losses[i]
		}
		chi2 /= 2 * n
		if chi2 <= rho && eq > value+1e-7 {
			t.Fatalf("feasible Q (chi2=%v) beats value: %v > %v", chi2, eq, value)
		}
	}
}

func TestWorstCaseDispatchKLChi2(t *testing.T) {
	losses := []float64{0, 1, 5}
	for _, s := range []Set{{Kind: KL, Rho: 0.2}, {Kind: Chi2, Rho: 0.2}} {
		v, w := s.WorstCase(losses, 0)
		if v <= 2 { // mean is 2; robust value must exceed it here
			t.Errorf("%v worst case %v should exceed mean", s.Kind, v)
		}
		if len(w) != 3 {
			t.Errorf("%v weights length %d", s.Kind, len(w))
		}
	}
	// Zero radius short-circuits to the mean.
	for _, k := range []Kind{KL, Chi2} {
		v, _ := (Set{Kind: k, Rho: 0}).WorstCase(losses, 0)
		if math.Abs(v-2) > 1e-12 {
			t.Errorf("%v with rho=0: %v, want mean", k, v)
		}
	}
}

func TestKLChi2PanicOnNonPositiveRho(t *testing.T) {
	for name, fn := range map[string]func(){
		"kl":   func() { klWorst([]float64{1, 2}, 0) },
		"chi2": func() { chi2Worst([]float64{1, 2}, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: non-positive rho did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestKLWorstCaseAllocBudget pins the KL solve's own allocations to a
// constant per call: its chunk partials and closures are built once, so a
// Newton pass allocates nothing beyond what the pool spends dispatching
// it (nothing inline). The radii take from two to eight passes on the
// same losses.
func TestKLWorstCaseAllocBudget(t *testing.T) {
	const n = 1000
	rng := rand.New(rand.NewSource(3))
	losses := make([]float64, n)
	for i := range losses {
		losses[i] = rng.NormFloat64()
	}
	weights := make([]float64, n)
	for _, p := range []*parallel.Pool{nil, parallel.New(2)} {
		dispatch := testing.AllocsPerRun(20, func() { p.ForEachChunk(n, func(_, _, _ int) {}) })
		counts := map[float64]bool{}
		for _, rho := range []float64{0.01, 0.1, 1, 5, 6.5, 10} {
			s := Set{Kind: KL, Rho: rho}
			allocs := testing.AllocsPerRun(20, func() { s.WorstCaseInto(p, losses, 0, weights) })
			_, _, passes := klWorstCase(p, losses, rho, weights)
			own := allocs - float64(passes)*dispatch
			t.Logf("workers=%d rho=%g: %d exp passes, %g allocations, %g per dispatch", p.Workers(), rho, passes, allocs, dispatch)
			counts[own] = true
		}
		if len(counts) != 1 {
			t.Errorf("workers=%d: the solve's own allocations vary with the pass count: %v", p.Workers(), counts)
		}
	}
}
