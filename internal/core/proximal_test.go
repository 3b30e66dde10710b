package core

import (
	"math/rand"
	"testing"

	"github.com/drdp/drdp/internal/dro"
	"github.com/drdp/drdp/internal/mat"
	"github.com/drdp/drdp/internal/model"
)

// TestProximalMStepMatchesLBFGS: without a prior, the proximal M-step
// and the default L-BFGS M-step reach the same Wasserstein fit.
func TestProximalMStepMatchesLBFGS(t *testing.T) {
	rng := rand.New(rand.NewSource(180))
	wstar := mat.Vec{2, -1, 1}
	x, y := linearTask(rng, 120, 3, wstar, 0.08)
	set := dro.Set{Kind: dro.Wasserstein, Rho: 0.1}

	fit := func(opts ...Option) *Result {
		t.Helper()
		l, err := New(model.Logistic{Dim: 3},
			append([]Option{WithUncertaintySet(set)}, opts...)...)
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
	// Both solve the same convex problem; objectives must agree closely.
	if diff := prox.Objective - lb.Objective; diff > 1e-3 {
		t.Errorf("proximal objective %v worse than lbfgs %v", prox.Objective, lb.Objective)
	}
	if mat.Dist2(prox.Params, lb.Params) > 0.1 {
		t.Errorf("solutions differ: %v vs %v", prox.Params, lb.Params)
	}
}

func TestProximalMStepExactZeroAtLargeRho(t *testing.T) {
	// At a radius exceeding the data signal the prox must zero the weight
	// block exactly (the default L-BFGS M-step only shrinks toward zero).
	rng := rand.New(rand.NewSource(181))
	x, y := linearTask(rng, 60, 2, mat.Vec{1, 1}, 0.3)
	l, err := New(model.Logistic{Dim: 2},
		WithUncertaintySet(dro.Set{Kind: dro.Wasserstein, Rho: 5}),
		WithProximalMStep())
	if err != nil {
		t.Fatal(err)
	}
	res, err := l.Fit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if norm := mat.Norm2(res.Params[:2]); norm != 0 {
		t.Errorf("weight block %v, want exact zero at rho=5", norm)
	}
}

func TestProximalMStepWithPriorMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(182))
	wstar := mat.Vec{1, -2}
	x, y := linearTask(rng, 40, 2, wstar, 0.1)
	prior := priorAround(t, mat.Vec{1, -2, 0}, 0.3, 0.8)
	l, err := New(model.Logistic{Dim: 2},
		WithUncertaintySet(dro.Set{Kind: dro.Wasserstein, Rho: 0.05}),
		WithPrior(prior),
		WithProximalMStep(),
		WithEMIters(15, 1e-9))
	if err != nil {
		t.Fatal(err)
	}
	res, err := l.Fit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Trace); i++ {
		if res.Trace[i] > res.Trace[i-1]+1e-6 {
			t.Fatalf("trace not monotone at %d: %v", i, res.Trace)
		}
	}
	if acc := model.Accuracy(l.model, res.Params, x, y); acc < 0.85 {
		t.Errorf("train accuracy %v", acc)
	}
}

func TestProximalRequiresBlockNormer(t *testing.T) {
	// Softmax has a max-over-blocks constant: no exact prox; rejected.
	if _, err := New(model.Softmax{Dim: 3, Classes: 3}, WithProximalMStep()); err == nil {
		t.Fatal("softmax accepted for proximal M-step")
	}
	if _, err := New(model.MLP{Dim: 3, Hidden: 2, Classes: 2}, WithProximalMStep()); err == nil {
		t.Fatal("mlp accepted for proximal M-step")
	}
}
