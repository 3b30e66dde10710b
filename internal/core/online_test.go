package core

import (
	"math/rand"
	"testing"

	"github.com/drdp/drdp/internal/dro"
	"github.com/drdp/drdp/internal/mat"
	"github.com/drdp/drdp/internal/model"
)

func TestOnlineAccumulatesAndImproves(t *testing.T) {
	rng := rand.New(rand.NewSource(140))
	wstar := mat.Vec{2, -1, 1}
	testX, testY := linearTask(rng, 2000, 3, wstar, 0)

	l, err := New(model.Logistic{Dim: 3},
		WithUncertaintySet(dro.Set{Kind: dro.Wasserstein, Rho: 0.02}))
	if err != nil {
		t.Fatal(err)
	}
	online, err := NewOnline(l)
	if err != nil {
		t.Fatal(err)
	}
	var accs []float64
	for batchNum := 0; batchNum < 5; batchNum++ {
		bx, by := linearTask(rng, 20, 3, wstar, 0.1)
		res, err := online.Observe(bx, by)
		if err != nil {
			t.Fatal(err)
		}
		accs = append(accs, model.Accuracy(l.model, res.Params, testX, testY))
	}
	if len(online.rows) != 100 {
		t.Errorf("accumulated %d samples, want 100", len(online.rows))
	}
	// Later accuracy should clearly beat the first-batch accuracy.
	if accs[4] <= accs[0] {
		t.Errorf("stream did not improve: %v", accs)
	}
	if accs[4] < 0.9 {
		t.Errorf("final streaming accuracy %v", accs[4])
	}
}

func TestOnlineMatchesBatchRefit(t *testing.T) {
	// Online (warm-started) and from-scratch training on the same data
	// must land at (nearly) the same solution — the objective is convex
	// without a prior.
	rng := rand.New(rand.NewSource(141))
	wstar := mat.Vec{1, 2}
	l1, err := New(model.Logistic{Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	online, err := NewOnline(l1)
	if err != nil {
		t.Fatal(err)
	}
	var allX *mat.Dense
	var allY []float64
	var last *Result
	for batchNum := 0; batchNum < 3; batchNum++ {
		bx, by := linearTask(rng, 30, 2, wstar, 0.15)
		if allX == nil {
			allX = bx.Clone()
		} else {
			merged := mat.NewDense(allX.Rows+bx.Rows, 2)
			copy(merged.Data, allX.Data)
			copy(merged.Data[allX.Rows*2:], bx.Data)
			allX = merged
		}
		allY = append(allY, by...)
		var err error
		last, err = online.Observe(bx, by)
		if err != nil {
			t.Fatal(err)
		}
	}
	l2, err := New(model.Logistic{Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := l2.Fit(allX, allY)
	if err != nil {
		t.Fatal(err)
	}
	if d := mat.Dist2(last.Params, batch.Params); d > 0.05 {
		t.Errorf("online params %.3f from batch params", d)
	}
}

func TestOnlineWithPriorFadesIt(t *testing.T) {
	// τ=1/n semantics: with a slightly-off prior, the solution should
	// drift from the prior mean toward the data optimum as data arrives.
	rng := rand.New(rand.NewSource(142))
	wstar := mat.Vec{3, -2}
	target := append(mat.CloneVec(wstar), 0)
	offPrior := mat.Vec{1.5, -3.5, 0.5}
	prior := priorAround(t, offPrior, 0.05, 0.9)
	l, err := New(model.Logistic{Dim: 2}, WithPrior(prior))
	if err != nil {
		t.Fatal(err)
	}
	online, err := NewOnline(l)
	if err != nil {
		t.Fatal(err)
	}
	var distToPrior []float64
	for batchNum := 0; batchNum < 4; batchNum++ {
		bx, by := linearTask(rng, 50, 2, wstar, 0.05)
		res, err := online.Observe(bx, by)
		if err != nil {
			t.Fatal(err)
		}
		distToPrior = append(distToPrior, mat.Dist2(res.Params, offPrior))
	}
	if distToPrior[3] <= distToPrior[0] {
		t.Errorf("prior did not fade over the stream: %v", distToPrior)
	}
	_ = target
}

func TestOnlineWindowTrims(t *testing.T) {
	l, err := New(model.Logistic{Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	online, err := NewOnlineWindow(l, 25)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(145))
	for i := 0; i < 4; i++ {
		bx, by := linearTask(rng, 10, 2, mat.Vec{1, 1}, 0)
		if _, err := online.Observe(bx, by); err != nil {
			t.Fatal(err)
		}
	}
	if len(online.rows) != 25 {
		t.Errorf("window kept %d samples, want 25", len(online.rows))
	}
	if _, err := NewOnlineWindow(l, 0); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := NewOnlineWindow(nil, 5); err == nil {
		t.Error("nil learner accepted")
	}
}

func TestOnlineWindowForgetsOldConcept(t *testing.T) {
	// Feed one concept, then its exact opposite; a small window must
	// switch allegiance to the new concept.
	rng := rand.New(rand.NewSource(146))
	l, err := New(model.Logistic{Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	online, err := NewOnlineWindow(l, 40)
	if err != nil {
		t.Fatal(err)
	}
	oldX, oldY := linearTask(rng, 40, 2, mat.Vec{2, 1}, 0)
	if _, err := online.Observe(oldX, oldY); err != nil {
		t.Fatal(err)
	}
	newX, newY := linearTask(rng, 40, 2, mat.Vec{-2, -1}, 0)
	res, err := online.Observe(newX, newY)
	if err != nil {
		t.Fatal(err)
	}
	testX, testY := linearTask(rng, 500, 2, mat.Vec{-2, -1}, 0)
	if acc := model.Accuracy(l.model, res.Params, testX, testY); acc < 0.95 {
		t.Errorf("windowed learner stuck on the old concept: %v", acc)
	}
}

func TestOnlineValidation(t *testing.T) {
	if _, err := NewOnline(nil); err == nil {
		t.Error("nil learner accepted")
	}
	l, err := New(model.Logistic{Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	online, err := NewOnline(l)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := online.Observe(mat.NewDense(0, 2), nil); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := online.Observe(mat.NewDense(1, 3), []float64{1}); err == nil {
		t.Error("dim mismatch accepted")
	}
	if _, err := online.Observe(mat.NewDense(1, 2), []float64{1, 1}); err == nil {
		t.Error("label mismatch accepted")
	}
	if online.params != nil {
		t.Error("params should be nil before data")
	}
}
