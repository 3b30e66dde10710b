package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/dro"
	"github.com/drdp/drdp/internal/mat"
	"github.com/drdp/drdp/internal/model"
	"github.com/drdp/drdp/internal/opt"
)

// determinismTask builds an n-sample fit with a 2-component prior; at
// n > 2·ChunkRows it spans many parallel chunks, so multi-start EM, the
// E-step fan-out and the chunked loss/gradient paths all engage.
func determinismTask(t *testing.T, n int) (*mat.Dense, []float64, *dpprior.Compiled) {
	t.Helper()
	rng := rand.New(rand.NewSource(77))
	wstar := mat.Vec{1.5, -2, 0.5, 1}
	x, y := linearTask(rng, n, 4, wstar, 0.05)
	sigma := mat.Eye(5)
	p := &dpprior.Prior{
		Alpha: 1,
		Components: []dpprior.Component{
			{Weight: 0.5, Mu: mat.Vec{1.4, -1.9, 0.4, 0.9, 0}, Sigma: sigma, Count: 5},
			{Weight: 0.3, Mu: mat.Vec{-1, 1, -1, 1, 0.2}, Sigma: sigma.Clone(), Count: 3},
		},
		BaseWeight: 0.2,
		BaseSigma:  5,
		Dim:        5,
	}
	c, err := dpprior.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	return x, y, c
}

func fitWith(t *testing.T, x *mat.Dense, y []float64, prior *dpprior.Compiled, set dro.Set, extra ...Option) *Result {
	t.Helper()
	opts := append([]Option{
		WithUncertaintySet(set),
		WithPrior(prior),
		WithEMIters(4, 1e-9),
	}, extra...)
	l, err := New(model.Logistic{Dim: 4}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := l.Fit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// assertBitIdentical compares every float of two results by bits — the
// tentpole's determinism invariant, far stricter than any tolerance.
func assertBitIdentical(t *testing.T, label string, a, b *Result) {
	t.Helper()
	bits := func(v float64) uint64 { return math.Float64bits(v) }
	if bits(a.Objective) != bits(b.Objective) {
		t.Fatalf("%s: objective bits differ: %x vs %x", label, bits(a.Objective), bits(b.Objective))
	}
	if len(a.Params) != len(b.Params) {
		t.Fatalf("%s: param lengths differ", label)
	}
	for i := range a.Params {
		if bits(a.Params[i]) != bits(b.Params[i]) {
			t.Fatalf("%s: param %d bits differ: %x vs %x", label, i, bits(a.Params[i]), bits(b.Params[i]))
		}
	}
	if len(a.Trace) != len(b.Trace) {
		t.Fatalf("%s: trace lengths differ: %d vs %d", label, len(a.Trace), len(b.Trace))
	}
	for i := range a.Trace {
		if bits(a.Trace[i]) != bits(b.Trace[i]) {
			t.Fatalf("%s: trace[%d] bits differ", label, i)
		}
	}
	if len(a.Responsibilities) != len(b.Responsibilities) {
		t.Fatalf("%s: responsibility lengths differ", label)
	}
	for i := range a.Responsibilities {
		if bits(a.Responsibilities[i]) != bits(b.Responsibilities[i]) {
			t.Fatalf("%s: responsibility %d bits differ", label, i)
		}
	}
	if bits(a.RobustLoss) != bits(b.RobustLoss) || bits(a.EmpiricalLoss) != bits(b.EmpiricalLoss) {
		t.Fatalf("%s: loss summaries differ", label)
	}
}

func TestFitBitIdenticalAcrossParallelism(t *testing.T) {
	cases := []struct {
		n    int
		sets []dro.Set
	}{
		{600, []dro.Set{
			{Kind: dro.Wasserstein, Rho: 0.05},
			{Kind: dro.KL, Rho: 0.1},
			{Kind: dro.Chi2, Rho: 0.1},
		}},
		// A gradient-dominated fit: tens of chunks per loss sweep.
		{4000, []dro.Set{{Kind: dro.Wasserstein, Rho: 0.05}}},
	}
	for _, c := range cases {
		x, y, prior := determinismTask(t, c.n)
		for _, set := range c.sets {
			label := fmt.Sprintf("%s n=%d", set.Kind, c.n)
			serial := fitWith(t, x, y, prior, set, WithParallelism(1))

			// Default (no option) must be the same inline reference path.
			def := fitWith(t, x, y, prior, set)
			assertBitIdentical(t, label+" default-vs-1", def, serial)

			for _, par := range []int{2, 4, 8} {
				got := fitWith(t, x, y, prior, set, WithParallelism(par))
				assertBitIdentical(t, fmt.Sprintf("%s parallel=%d", label, par), got, serial)
			}
		}
	}
}

func TestFitBitIdenticalAcrossGOMAXPROCS(t *testing.T) {
	x, y, prior := determinismTask(t, 600)
	set := dro.Set{Kind: dro.KL, Rho: 0.1}

	prev := runtime.GOMAXPROCS(1)
	ref := fitWith(t, x, y, prior, set, WithParallelism(4))
	runtime.GOMAXPROCS(4)
	got := fitWith(t, x, y, prior, set, WithParallelism(4))
	runtime.GOMAXPROCS(prev)

	assertBitIdentical(t, "gomaxprocs 1-vs-4", ref, got)
}

// TestSequentialFitsBitIdentical: every EM run starts with an empty
// L-BFGS curvature memory, so two fits in a row on one Learner return the
// same bits as each other and as a fresh Learner, and the starts run in
// sequence on one problem return what they return in parallel on clones.
func TestSequentialFitsBitIdentical(t *testing.T) {
	x, y, prior := determinismTask(t, 300)
	var serial *Result
	for _, par := range []int{1, 2} {
		newLearner := func() *Learner {
			l, err := New(model.Logistic{Dim: 4},
				WithUncertaintySet(dro.Set{Kind: dro.Wasserstein, Rho: 0.05}),
				WithPrior(prior),
				WithParallelism(par),
			)
			if err != nil {
				t.Fatal(err)
			}
			return l
		}
		fit := func(l *Learner) *Result {
			res, err := l.Fit(x, y)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		l := newLearner()
		first, second := fit(l), fit(l)
		label := fmt.Sprintf("parallelism %d", par)
		assertBitIdentical(t, label+" first-vs-second", first, second)
		assertBitIdentical(t, label+" second-vs-fresh", second, fit(newLearner()))
		if serial == nil {
			serial = first
		} else {
			assertBitIdentical(t, label+" vs parallelism 1", first, serial)
		}
	}
}

// TestLearnerConcurrentFit exercises the documented contract that one
// Learner may serve concurrent Fit/Certificate calls (run under -race in
// CI): all concurrent fits of the same data must agree bit-for-bit.
func TestLearnerConcurrentFit(t *testing.T) {
	x, y, prior := determinismTask(t, 600)
	l, err := New(model.Logistic{Dim: 4},
		WithUncertaintySet(dro.Set{Kind: dro.KL, Rho: 0.1}),
		WithPrior(prior),
		WithEMIters(3, 1e-9),
		WithParallelism(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 4
	results := make([]*Result, goroutines)
	certs := make([]float64, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			res, err := l.Fit(x, y)
			if err != nil {
				t.Error(err)
				return
			}
			results[g] = res
			certs[g] = certificate(l, res.Params, x, y)
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if results[g] == nil {
			t.Fatal("missing result")
		}
		assertBitIdentical(t, "concurrent fit", results[0], results[g])
		if math.Float64bits(certs[g]) != math.Float64bits(certs[0]) {
			t.Fatalf("concurrent certificates differ: %g vs %g", certs[g], certs[0])
		}
	}
}

// genericLogistic is model.Logistic behind a wrapper that exposes only
// Model and BlockNormer, hiding model.Sweeper: fits through it take the
// generic path, where the gradient sweep recomputes every margin.
type genericLogistic struct {
	model.Model
	model.BlockNormer
}

// TestFusedSweepMatchesGeneric fits the same data through the fused
// loss/gradient sweep (model.Logistic) and through the generic path,
// across every batch solver, uncertainty set, parallelism {1, 2} and
// n ∈ {40, 1000} (one chunk and four), and compares every float by bits.
func TestFusedSweepMatchesGeneric(t *testing.T) {
	fused := model.Logistic{Dim: 4}
	generic := genericLogistic{Model: fused, BlockNormer: fused}
	if _, ok := model.Model(fused).(model.Sweeper); !ok {
		t.Fatal("model.Logistic does not implement model.Sweeper")
	}
	if _, ok := model.Model(generic).(model.Sweeper); ok {
		t.Fatal("the wrapper leaks model.Sweeper")
	}
	for _, s := range batchSolvers {
		for _, set := range robustSets {
			for _, par := range []int{1, 2} {
				for _, n := range []int{40, 1000} {
					x, y, prior := goldenTask(n)
					fit := func(m model.Model) *Result {
						l, err := New(m, append([]Option{
							WithPrior(prior),
							WithUncertaintySet(set),
							WithEMIters(4, 1e-9),
							WithMStepOptions(opt.Options{MaxIter: 30, Tol: 1e-6}),
							WithParallelism(par),
						}, s.opts...)...)
						if err != nil {
							t.Fatal(err)
						}
						res, err := l.Fit(x, y)
						if err != nil {
							t.Fatal(err)
						}
						return res
					}
					label := fmt.Sprintf("%s/%s/p%d/n%d", s.name, set.Kind, par, n)
					assertBitIdentical(t, label, fit(fused), fit(generic))
				}
			}
		}
	}
}
