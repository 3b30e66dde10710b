package core

import (
	"math/rand"
	"runtime"
	"testing"

	"github.com/drdp/drdp/internal/dro"
	"github.com/drdp/drdp/internal/mat"
	"github.com/drdp/drdp/internal/model"
)

// sweepRecorder is a logistic model that logs the parameters of every
// Losses call. With n ≤ 256 rows the data is one chunk, so each call is
// one full-data sweep.
type sweepRecorder struct {
	model.Logistic
	sweeps *[]mat.Vec
}

func (m sweepRecorder) Losses(params mat.Vec, x *mat.Dense, y []float64, out []float64) []float64 {
	*m.sweeps = append(*m.sweeps, mat.CloneVec(params))
	return m.Logistic.Losses(params, x, y, out)
}

// TestMStepScoresEachPointOnce checks that a fit never sweeps the data
// twice in a row at the same parameters: an accepted line-search trial,
// the M-step's result scored by the EM objective, and the next M-step's
// opening evaluation all reuse the sweep that first scored the point.
func TestMStepScoresEachPointOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	x, y := linearTask(rng, 200, 4, mat.Vec{1.5, -2, 0.5, 1}, 0.08)
	_, _, prior := goldenTask(40)
	for _, s := range batchSolvers {
		for _, set := range robustSets {
			var sweeps []mat.Vec
			m := sweepRecorder{Logistic: model.Logistic{Dim: 4}, sweeps: &sweeps}
			l, err := New(m, append([]Option{
				WithPrior(prior),
				WithUncertaintySet(set),
				WithEMIters(4, 1e-9),
			}, s.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := l.Fit(x, y); err != nil {
				t.Fatal(err)
			}
			if len(sweeps) < 10 {
				t.Fatalf("%s/%s: only %d sweeps recorded", s.name, set.Kind, len(sweeps))
			}
			for i := 1; i < len(sweeps); i++ {
				if sameBits(sweeps[i-1], sweeps[i]) {
					t.Errorf("%s/%s: sweeps %d and %d of %d are at the same θ", s.name, set.Kind, i-1, i, len(sweeps))
					break
				}
			}
		}
	}
}

// fitAllocBudget bounds the bytes one default-solver Wasserstein fit on
// benchTask(1000, 16) allocates (amd64). Building fresh uniform
// worst-case weights on every evaluation and a trial vector on every
// solver iteration cost 1.45 MB; with the problem's reused buffers the
// fit allocates 176 KB. The budget leaves 2× headroom over that and sits
// below a third of the old cost.
const fitAllocBudget = 384 << 10

// TestFitAllocBudget pins the per-fit allocation of the batch M-step:
// the worst-case weights live in the problem, not in each evaluation.
func TestFitAllocBudget(t *testing.T) {
	x, y, prior, _ := benchTask(1000, 16)
	l, err := New(model.Logistic{Dim: 16},
		WithUncertaintySet(dro.Set{Kind: dro.Wasserstein, Rho: 0.05}),
		WithPrior(prior))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Fit(x, y); err != nil { // warm-up
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := l.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("one fit allocated %d bytes (budget %d)", got, fitAllocBudget)
	if got > fitAllocBudget {
		t.Fatalf("one fit allocated %d bytes, budget %d", got, fitAllocBudget)
	}
}
