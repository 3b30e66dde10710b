package core

import (
	"fmt"
	"math"
	"testing"

	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/mat"
	"github.com/drdp/drdp/internal/model"
)

// twoExpLogistic is model.Logistic with the per-row math it had before
// the one-exp softplus kernel: log1p(exp(−m)) with ±35 cut-offs for the
// loss and a separate stable sigmoid for the slope. It hides
// model.Sweeper, so every sweep recomputes the margin.
type twoExpLogistic struct {
	model.Model
	model.BlockNormer
	l model.Logistic
}

func newTwoExpLogistic(dim int) twoExpLogistic {
	l := model.Logistic{Dim: dim}
	return twoExpLogistic{l, l, l}
}

func (o twoExpLogistic) Losses(params mat.Vec, x *mat.Dense, y []float64, out []float64) []float64 {
	if out == nil {
		out = make([]float64, x.Rows)
	}
	for i := range x.Rows {
		out[i] = twoExpLoss(o.l.Margin(params, x.Row(i), y[i]))
	}
	return out
}

func (o twoExpLogistic) WeightedGrad(params mat.Vec, x *mat.Dense, y []float64, w []float64, grad mat.Vec) mat.Vec {
	if grad == nil {
		grad = make(mat.Vec, o.l.NumParams())
	}
	for i := range x.Rows {
		if w[i] == 0 {
			continue
		}
		coeff := -w[i] * y[i] * twoExpSigmoid(-o.l.Margin(params, x.Row(i), y[i]))
		mat.Axpy(coeff, x.Row(i), grad[:o.l.Dim])
		grad[o.l.Dim] += coeff
	}
	return grad
}

func twoExpLoss(m float64) float64 {
	z := -m
	if z > 35 {
		return z
	}
	e := math.Exp(z)
	if z < -35 {
		return e
	}
	return math.Log1p(e)
}

func twoExpSigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// TestKernelMatchesTwoExpOracle: the one-exp kernel moves only the low
// bits of a fit. Over the golden grid and the quality grid (W/KL/χ²,
// n ∈ {40, 150, 1000}, every seed with its prior and the first without),
// each fit's objective is within 1e-12·(1+|obj|) of the same fit
// through the two-exp kernel and its parameters within 1e-9.
func TestKernelMatchesTwoExpOracle(t *testing.T) {
	if _, ok := model.Model(newTwoExpLogistic(4)).(model.Sweeper); ok {
		t.Fatal("the oracle leaks model.Sweeper")
	}
	var worstObj, worstParam float64
	check := func(label string, got, want *Result) {
		t.Helper()
		gap := math.Abs(got.Objective-want.Objective) / (1 + math.Abs(want.Objective))
		dist := mat.Dist2(got.Params, want.Params)
		if gap > 1e-12 || dist > 1e-9 {
			t.Errorf("%s: objective %.17g vs two-exp %.17g (relative gap %.3g), parameter distance %.3g",
				label, got.Objective, want.Objective, gap, dist)
		}
		worstObj, worstParam = max(worstObj, gap), max(worstParam, dist)
	}

	for _, c := range goldenCases() {
		x, y, prior := goldenTask(c.n)
		fit := func(m model.Model) *Result {
			l, err := New(m, append([]Option{WithPrior(prior)}, c.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			res, err := l.Fit(x, y)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		check("golden/"+c.name, fit(model.Logistic{Dim: 4}), fit(newTwoExpLogistic(4)))
	}

	for _, set := range qualitySets {
		for _, n := range qualityNs {
			for s := int64(0); s < qualitySeeds; s++ {
				x, y, prior := qualityTask(4700+100*s+int64(n), n)
				priors := []*dpprior.Compiled{prior}
				if s == 0 {
					priors = append(priors, nil)
				}
				for _, pr := range priors {
					label := fmt.Sprintf("quality/%s/n%d/seed%d/prior=%t", set.Kind, n, s, pr != nil)
					fit := func(m model.Model) *Result {
						opts := []Option{WithUncertaintySet(set), WithParallelism(2)}
						if pr != nil {
							opts = append(opts, WithPrior(pr))
						}
						l, err := New(m, opts...)
						if err != nil {
							t.Fatal(err)
						}
						res, err := l.Fit(x, y)
						if err != nil {
							t.Fatal(err)
						}
						return res
					}
					check(label, fit(model.Logistic{Dim: qualityDim}), fit(newTwoExpLogistic(qualityDim)))
				}
			}
		}
	}
	t.Logf("worst relative objective gap %.3g, worst parameter distance %.3g", worstObj, worstParam)
}
