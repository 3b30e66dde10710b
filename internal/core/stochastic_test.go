package core

import (
	"math/rand"
	"testing"

	"github.com/drdp/drdp/internal/dro"
	"github.com/drdp/drdp/internal/mat"
	"github.com/drdp/drdp/internal/model"
)

func TestStochasticMStepMatchesBatchOnLargeN(t *testing.T) {
	rng := rand.New(rand.NewSource(160))
	wstar := mat.Vec{2, -1, 1, 0.5}
	x, y := linearTask(rng, 2000, 4, wstar, 0.08)
	testX, testY := linearTask(rng, 2000, 4, wstar, 0)

	batchLearner, err := New(model.Logistic{Dim: 4},
		WithUncertaintySet(dro.Set{Kind: dro.Wasserstein, Rho: 0.02}))
	if err != nil {
		t.Fatal(err)
	}
	batchRes, err := batchLearner.Fit(x, y)
	if err != nil {
		t.Fatal(err)
	}

	sgdLearner, err := New(model.Logistic{Dim: 4},
		WithUncertaintySet(dro.Set{Kind: dro.Wasserstein, Rho: 0.02}),
		WithStochasticMStep(64, 8, 0.05, 7))
	if err != nil {
		t.Fatal(err)
	}
	sgdRes, err := sgdLearner.Fit(x, y)
	if err != nil {
		t.Fatal(err)
	}

	accBatch := model.Accuracy(batchLearner.model, batchRes.Params, testX, testY)
	accSGD := model.Accuracy(sgdLearner.model, sgdRes.Params, testX, testY)
	if accSGD < accBatch-0.02 {
		t.Errorf("stochastic M-step accuracy %v vs batch %v", accSGD, accBatch)
	}
}

func TestStochasticMStepWithPriorAndKL(t *testing.T) {
	rng := rand.New(rand.NewSource(161))
	wstar := mat.Vec{1, 2}
	x, y := linearTask(rng, 500, 2, wstar, 0.1)
	prior := priorAround(t, mat.Vec{1, 2, 0}, 0.3, 0.8)
	l, err := New(model.Logistic{Dim: 2},
		WithPrior(prior),
		WithUncertaintySet(dro.Set{Kind: dro.KL, Rho: 0.1}),
		WithStochasticMStep(50, 4, 0.05, 3),
		WithEMIters(8, 1e-7))
	if err != nil {
		t.Fatal(err)
	}
	res, err := l.Fit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if acc := model.Accuracy(l.model, res.Params, x, y); acc < 0.85 {
		t.Errorf("train accuracy %v", acc)
	}
	// Objective should have improved overall even if not monotone.
	if res.Trace[len(res.Trace)-1] >= res.Trace[0] {
		t.Errorf("objective did not improve: %v", res.Trace)
	}
}

func TestWithStochasticMStepValidation(t *testing.T) {
	m := model.Logistic{Dim: 2}
	cases := []struct {
		name          string
		batch, epochs int
		lr            float64
	}{
		{"zero batch", 0, 1, 0.1},
		{"zero epochs", 10, 0, 0.1},
		{"zero lr", 10, 1, 0},
	}
	for _, tc := range cases {
		if _, err := New(m, WithStochasticMStep(tc.batch, tc.epochs, tc.lr, 1)); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

func TestStochasticBatchLargerThanN(t *testing.T) {
	// Batch larger than the dataset degrades to full-batch Adam cleanly.
	rng := rand.New(rand.NewSource(162))
	x, y := linearTask(rng, 30, 2, mat.Vec{1, -1}, 0)
	l, err := New(model.Logistic{Dim: 2}, WithStochasticMStep(1000, 30, 0.1, 2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := l.Fit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if acc := model.Accuracy(l.model, res.Params, x, y); acc < 0.9 {
		t.Errorf("accuracy %v", acc)
	}
}
