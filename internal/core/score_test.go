package core

import (
	"math/rand"
	"runtime"
	"testing"

	"github.com/drdp/drdp/internal/dro"
	"github.com/drdp/drdp/internal/mat"
	"github.com/drdp/drdp/internal/model"
	"github.com/drdp/drdp/internal/opt"
)

// sweepRecorder is a logistic model that logs the parameters of every
// Losses or LossesSweep call, and of every gradient sweep. With n ≤ 256
// rows the data is one chunk, so each call is one full-data sweep.
type sweepRecorder struct {
	model.Logistic
	sweeps, grads *[]mat.Vec
}

func (m sweepRecorder) Losses(params mat.Vec, x *mat.Dense, y []float64, out []float64) []float64 {
	*m.sweeps = append(*m.sweeps, mat.CloneVec(params))
	return m.Logistic.Losses(params, x, y, out)
}

func (m sweepRecorder) LossesSweep(params mat.Vec, x *mat.Dense, y []float64, out, memo []float64) []float64 {
	*m.sweeps = append(*m.sweeps, mat.CloneVec(params))
	return m.Logistic.LossesSweep(params, x, y, out, memo)
}

func (m sweepRecorder) WeightedGrad(params mat.Vec, x *mat.Dense, y []float64, w []float64, grad mat.Vec) mat.Vec {
	*m.grads = append(*m.grads, mat.CloneVec(params))
	return m.Logistic.WeightedGrad(params, x, y, w, grad)
}

func (m sweepRecorder) WeightedGradSweep(params mat.Vec, x *mat.Dense, y []float64, w, memo []float64, grad mat.Vec) mat.Vec {
	*m.grads = append(*m.grads, mat.CloneVec(params))
	return m.Logistic.WeightedGradSweep(params, x, y, w, memo, grad)
}

// TestMStepScoresEachPointOnce checks that a fit never sweeps the data
// twice in a row at the same parameters: an accepted line-search trial,
// the M-step's result scored by the EM objective, and the next M-step's
// opening evaluation all reuse the sweep that first scored the point.
// The same holds for gradient sweeps, whose weights depend only on the
// point and the set: the next M-step opens with the data gradient the
// last one ended on. The proximal M-step under Wasserstein is the
// exception: it scores its smooth part under None and the objective
// under Wasserstein, so each M-step's first point gets its weights, and
// its data gradient, anew.
func TestMStepScoresEachPointOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	x, y := linearTask(rng, 200, 4, mat.Vec{1.5, -2, 0.5, 1}, 0.08)
	_, _, prior := goldenTask(40)
	for _, s := range batchSolvers {
		for _, set := range robustSets {
			var sweeps, grads []mat.Vec
			m := sweepRecorder{Logistic: model.Logistic{Dim: 4}, sweeps: &sweeps, grads: &grads}
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
			if s.name == "proximal" && set.Kind == dro.Wasserstein {
				continue
			}
			for i := 1; i < len(grads); i++ {
				if sameBits(grads[i-1], grads[i]) {
					t.Errorf("%s/%s: gradient sweeps %d and %d of %d are at the same θ", s.name, set.Kind, i-1, i, len(grads))
					break
				}
			}
		}
	}
}

// fitAllocBudgets bound the bytes one fit on benchTask(1000, 16)
// allocates (amd64): a default Wasserstein fit, KL and χ² fits, and a
// default multi-start fit whose two EM starts run on cloned problems
// over a two-worker pool. The KL and χ² fits are capped at 4 EM and 30
// M-step iterations like the golden grid, which keeps them to a second
// each; what they allocate per iteration is what the cap leaves alone.
// Each budget is 2× what the fit measured with the L-BFGS M-step and its
// curvature ring, once a fit stopped publishing its objective trace as
// per-iteration gauges (which cost 250–400 B a fit); the subgradient-GD
// M-step it replaced allocated 64 KB, 376 KB, 632 KB and 162 KB on the
// same fits, and before the fused sweep and the reused solver scratch
// 173 KB, 5.66 MB, 1.61 MB and 258 KB.
var fitAllocBudgets = []struct {
	name   string
	budget uint64
	opts   []Option
}{
	{"wasserstein", 2 * 58_472, []Option{WithUncertaintySet(dro.Set{Kind: dro.Wasserstein, Rho: 0.05})}},
	{"kl", 2 * 123_456, []Option{WithUncertaintySet(dro.Set{Kind: dro.KL, Rho: 0.1}), cappedEM, cappedMStep}},
	{"chi2", 2 * 212_656, []Option{WithUncertaintySet(dro.Set{Kind: dro.Chi2, Rho: 0.1}), cappedEM, cappedMStep}},
	{"multistart/p2", 2 * 137_680, []Option{WithUncertaintySet(dro.Set{Kind: dro.Wasserstein, Rho: 0.05}), WithParallelism(2)}},
}

var (
	cappedEM    = WithEMIters(4, 1e-9)
	cappedMStep = WithMStepOptions(opt.Options{MaxIter: 30, Tol: 1e-6})
)

// TestFitAllocBudget pins the per-fit allocation of the batch M-step:
// losses, weights, sweep memo, gradient partials and prior-surrogate
// work space live in the problem, not in each evaluation.
func TestFitAllocBudget(t *testing.T) {
	x, y, prior, _ := benchTask(1000, 16)
	for _, c := range fitAllocBudgets {
		l, err := New(model.Logistic{Dim: 16}, append([]Option{WithPrior(prior)}, c.opts...)...)
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
		t.Logf("%s: one fit allocated %d bytes (budget %d)", c.name, got, c.budget)
		if got > c.budget {
			t.Errorf("%s: one fit allocated %d bytes, budget %d", c.name, got, c.budget)
		}
	}
}
