package core

import (
	"math/rand"
	"testing"

	"github.com/drdp/drdp/internal/dro"
	"github.com/drdp/drdp/internal/em"
	"github.com/drdp/drdp/internal/mat"
	"github.com/drdp/drdp/internal/model"
)

// TestLBFGSMStepMatchesProximal: with a prior, the default L-BFGS
// M-step and the proximal M-step solve the same convex surrogates, so
// their fits agree and the default trace descends.
func TestLBFGSMStepMatchesProximal(t *testing.T) {
	rng := rand.New(rand.NewSource(220))
	wstar := mat.Vec{2, -1, 1}
	x, y := linearTask(rng, 100, 3, wstar, 0.08)
	set := dro.Set{Kind: dro.Wasserstein, Rho: 0.05}
	prior := priorAround(t, mat.Vec{2, -1, 1, 0}, 0.3, 0.8)

	fit := func(opts ...Option) *Result {
		t.Helper()
		l, err := New(model.Logistic{Dim: 3},
			append([]Option{WithUncertaintySet(set), WithPrior(prior),
				WithEMIters(10, 1e-8)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := l.Fit(x, y)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	lb := fit()
	prox := fit(WithProximalMStep())
	if diff := lb.Objective - prox.Objective; diff > 1e-3 {
		t.Errorf("lbfgs objective %v worse than proximal %v", lb.Objective, prox.Objective)
	}
	if mat.Dist2(lb.Params, prox.Params) > 0.15 {
		t.Errorf("solutions differ: %v vs %v", lb.Params, prox.Params)
	}
	if err := em.CheckMonotone(lb.Trace, 1e-6); err != nil {
		t.Errorf("lbfgs trace not monotone: %v", err)
	}
}

func TestLBFGSMStepKLSet(t *testing.T) {
	rng := rand.New(rand.NewSource(221))
	x, y := linearTask(rng, 80, 2, mat.Vec{1, 2}, 0.1)
	l, err := New(model.Logistic{Dim: 2},
		WithUncertaintySet(dro.Set{Kind: dro.KL, Rho: 0.1}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := l.Fit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	// 10 % of the labels are flipped and the KL worst case upweights the
	// hard samples, so ~0.82 train accuracy is the expected regime.
	if acc := model.Accuracy(l.model, res.Params, x, y); acc < 0.78 {
		t.Errorf("accuracy %v", acc)
	}
}
