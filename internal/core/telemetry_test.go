package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/dro"
	"github.com/drdp/drdp/internal/mat"
	"github.com/drdp/drdp/internal/model"
	"github.com/drdp/drdp/internal/telemetry"
)

// telemetryFixture builds a small logistic problem plus a 2-component
// prior so Fit exercises the full multi-start EM path.
func telemetryFixture(t *testing.T) (*mat.Dense, []float64, *dpprior.Compiled) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	const n, dim = 40, 3
	x := mat.NewDense(n, dim)
	y := make([]float64, n)
	truth := mat.Vec{1.5, -1, 0.5}
	for i := 0; i < n; i++ {
		row := x.Row(i)
		var dot float64
		for j := range row {
			row[j] = rng.NormFloat64()
			dot += row[j] * truth[j]
		}
		if 1/(1+math.Exp(-dot)) > rng.Float64() {
			y[i] = 1
		}
	}
	// model.Logistic{Dim: 3} has 4 parameters (weights + bias).
	const nparams = dim + 1
	sigmaA, sigmaB := mat.Eye(nparams), mat.Eye(nparams)
	sigmaA.ScaleBy(0.5)
	sigmaB.ScaleBy(0.5)
	p := &dpprior.Prior{
		Alpha: 1,
		Components: []dpprior.Component{
			{Weight: 0.5, Mu: mat.Vec{1.4, -0.9, 0.4, 0}, Sigma: sigmaA, Count: 5},
			{Weight: 0.4, Mu: mat.Vec{-2, 2, -2, 0}, Sigma: sigmaB, Count: 5},
		},
		BaseWeight: 0.1,
		BaseSigma:  10,
		Dim:        nparams,
	}
	compiled, err := dpprior.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	return x, y, compiled
}

// TestFitPublishesTelemetry checks the drdp_core_* instruments against
// a fit: one EM iteration counted per iteration of every start, and the
// M-step work behind them.
func TestFitPublishesTelemetry(t *testing.T) {
	x, y, prior := telemetryFixture(t)
	set := WithUncertaintySet(dro.Set{Kind: dro.Wasserstein, Rho: 0.05})

	// One start (an explicit init): the counter must equal the run's
	// iterations exactly.
	single, err := New(model.Logistic{Dim: 3}, set, WithPrior(prior), WithEMIters(10, 1e-8),
		WithInit(prior.Prior.Components[0].Mu))
	if err != nil {
		t.Fatal(err)
	}
	base := telemetry.Snapshot()
	res, err := single.Fit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	now := telemetry.Snapshot()
	if got := now.CounterDelta(base, "drdp_core_em_iterations_total"); got != float64(res.EMIterations) {
		t.Fatalf("em iterations counter delta %v, want %d", got, res.EMIterations)
	}
	if got := now.CounterDelta(base, "drdp_core_fits_total"); got != 1 {
		t.Fatalf("fits counter delta %v, want 1", got)
	}
	if got := now.CounterDelta(base, "drdp_core_mstep_iterations_total"); got <= 0 {
		t.Fatalf("mstep counter delta %v, want > 0", got)
	}

	// Default multi-start: prior components + base start = 3 runs, each
	// of at least one iteration.
	multi, err := New(model.Logistic{Dim: 3}, set, WithPrior(prior), WithEMIters(10, 1e-8))
	if err != nil {
		t.Fatal(err)
	}
	base = telemetry.Snapshot()
	res, err = multi.Fit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	now = telemetry.Snapshot()
	if got := now.CounterDelta(base, "drdp_core_em_iterations_total"); got < float64(res.EMIterations+2) {
		t.Fatalf("em iterations counter delta %v, want >= %d", got, res.EMIterations+2)
	}
}

// TestFitNoPriorOneIteration checks that a fit without a prior, a single
// convex solve, counts as exactly one EM iteration.
func TestFitNoPriorOneIteration(t *testing.T) {
	x, y, _ := telemetryFixture(t)
	l, err := New(model.Logistic{Dim: 3},
		WithUncertaintySet(dro.Set{Kind: dro.Wasserstein, Rho: 0.05}),
	)
	if err != nil {
		t.Fatal(err)
	}
	base := telemetry.Snapshot()
	if _, err := l.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	now := telemetry.Snapshot()
	if got := now.CounterDelta(base, "drdp_core_em_iterations_total"); got != 1 {
		t.Fatalf("no-prior fit counted %v EM iterations, want 1", got)
	}
}
