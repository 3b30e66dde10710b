package metrics

import (
	"math"
	"math/rand"
	"testing"

	"github.com/drdp/drdp/internal/data"
	"github.com/drdp/drdp/internal/dro"
	"github.com/drdp/drdp/internal/mat"
	"github.com/drdp/drdp/internal/model"
)

func TestEvaluate(t *testing.T) {
	m := model.Logistic{Dim: 1}
	params := mat.Vec{10, 0} // confident sign classifier
	ds := &data.Dataset{
		X:          mat.FromRows([][]float64{{1}, {-1}, {2}}),
		Y:          []float64{1, -1, 1},
		NumClasses: 2,
	}
	r := Evaluate(m, params, ds, dro.Set{})
	if r.Accuracy != 1 || r.ErrorRate != 0 {
		t.Errorf("accuracy %v error %v", r.Accuracy, r.ErrorRate)
	}
	if r.NLL > 0.01 {
		t.Errorf("NLL %v for confident correct classifier", r.NLL)
	}
	// With robustness, the certificate exceeds the empirical loss.
	rRob := Evaluate(m, params, ds, dro.Set{Kind: dro.Wasserstein, Rho: 0.1})
	if rRob.RobustLoss <= r.NLL {
		t.Errorf("robust %v should exceed plain %v", rRob.RobustLoss, r.NLL)
	}
}

func TestECEPerfectCalibration(t *testing.T) {
	// A classifier that outputs its true accuracy as confidence has ECE 0.
	rng := rand.New(rand.NewSource(121))
	n := 4000
	x := mat.NewDense(n, 1)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		p := rng.Float64()
		x.Set(i, 0, p) // feature IS the probability
		if rng.Float64() < p {
			y[i] = 1
		} else {
			y[i] = -1
		}
	}
	ds := &data.Dataset{X: x, Y: y, NumClasses: 2}
	ece, err := ECE(func(xi mat.Vec) float64 { return xi[0] }, ds, 10)
	if err != nil {
		t.Fatal(err)
	}
	if ece > 0.05 {
		t.Errorf("well-calibrated ECE = %v", ece)
	}
	// An always-overconfident classifier has large ECE.
	over, err := ECE(func(xi mat.Vec) float64 {
		if xi[0] >= 0.5 {
			return 0.999
		}
		return 0.001
	}, ds, 10)
	if err != nil {
		t.Fatal(err)
	}
	if over < 0.15 {
		t.Errorf("overconfident ECE = %v, expected large", over)
	}
	reg := &data.Dataset{X: mat.NewDense(1, 1), Y: []float64{0.3}, NumClasses: 0}
	if _, err := ECE(func(mat.Vec) float64 { return 0.5 }, reg, 10); err == nil {
		t.Error("regression dataset accepted")
	}
}

func TestAUC(t *testing.T) {
	ds := &data.Dataset{
		X:          mat.FromRows([][]float64{{1}, {2}, {3}, {4}}),
		Y:          []float64{-1, -1, 1, 1},
		NumClasses: 2,
	}
	score := func(x mat.Vec) float64 { return x[0] }
	// Perfect separation: AUC 1.
	auc, err := AUC(score, ds)
	if err != nil {
		t.Fatal(err)
	}
	if auc != 1 {
		t.Errorf("perfect AUC = %v", auc)
	}
	// Inverted scorer: AUC 0.
	auc, err = AUC(func(x mat.Vec) float64 { return -x[0] }, ds)
	if err != nil {
		t.Fatal(err)
	}
	if auc != 0 {
		t.Errorf("inverted AUC = %v", auc)
	}
	// Constant scorer: ties → 0.5 by midranks.
	auc, err = AUC(func(mat.Vec) float64 { return 7 }, ds)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(auc-0.5) > 1e-12 {
		t.Errorf("tied AUC = %v", auc)
	}
	// Error cases.
	onlyPos := &data.Dataset{X: mat.NewDense(1, 1), Y: []float64{1}, NumClasses: 2}
	if _, err := AUC(score, onlyPos); err == nil {
		t.Error("single-class AUC accepted")
	}
	reg := &data.Dataset{X: mat.NewDense(1, 1), Y: []float64{0.3}, NumClasses: 0}
	if _, err := AUC(score, reg); err == nil {
		t.Error("regression AUC accepted")
	}
}

func TestAUCRandomScorerNearHalf(t *testing.T) {
	rng := rand.New(rand.NewSource(122))
	n := 4000
	x := mat.NewDense(n, 1)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x.Set(i, 0, rng.NormFloat64())
		if i%2 == 0 {
			y[i] = 1
		} else {
			y[i] = -1
		}
	}
	ds := &data.Dataset{X: x, Y: y, NumClasses: 2}
	auc, err := AUC(func(xi mat.Vec) float64 { return xi[0] }, ds)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(auc-0.5) > 0.03 {
		t.Errorf("random AUC = %v, want ≈ 0.5", auc)
	}
}

func TestMinorityRecall(t *testing.T) {
	m := model.Logistic{Dim: 1}
	params := mat.Vec{1, 0} // predicts sign(x)
	// Minority = +1 (1 of 4); it sits at x=2 → correctly predicted.
	ds := &data.Dataset{
		X:          mat.FromRows([][]float64{{2}, {-1}, {-2}, {-3}}),
		Y:          []float64{1, -1, -1, -1},
		NumClasses: 2,
	}
	rec, err := MinorityRecall(m, params, ds)
	if err != nil {
		t.Fatal(err)
	}
	if rec != 1 {
		t.Errorf("recall = %v, want 1", rec)
	}
	// Move the positive to x=-2: missed → recall 0.
	ds.X.Set(0, 0, -2)
	rec, err = MinorityRecall(m, params, ds)
	if err != nil {
		t.Fatal(err)
	}
	if rec != 0 {
		t.Errorf("recall = %v, want 0", rec)
	}
	reg := &data.Dataset{X: mat.NewDense(1, 1), Y: []float64{0.5}, NumClasses: 0}
	if _, err := MinorityRecall(m, params, reg); err == nil {
		t.Error("regression accepted")
	}
}
