package model

import (
	"math"
	"math/rand"
	"testing"

	"github.com/drdp/drdp/internal/mat"
)

// TestNamesAndBlocks covers the identity metadata of every model family.
func TestNamesAndBlocks(t *testing.T) {
	models := map[string]Model{
		"logistic":     Logistic{Dim: 2},
		"softmax":      Softmax{Dim: 2, Classes: 3},
		"leastsquares": LeastSquares{Dim: 2},
		"mlp":          MLP{Dim: 2, Hidden: 3, Classes: 2},
	}
	for want, m := range models {
		if got := m.Name(); got != want {
			t.Errorf("Name = %q, want %q", got, want)
		}
		if m.InputDim() != 2 {
			t.Errorf("%s InputDim = %d", want, m.InputDim())
		}
	}
	for _, bn := range []BlockNormer{Logistic{Dim: 4}, LeastSquares{Dim: 4}} {
		from, to := bn.WeightBlock()
		if from != 0 || to != 4 {
			t.Errorf("WeightBlock = [%d,%d), want [0,4)", from, to)
		}
	}
}

// TestLipschitzGradFiniteDifference validates every model's Lipschitz
// subgradient against central differences of Lipschitz at generic points.
func TestLipschitzGradFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(260))
	models := []Model{
		Logistic{Dim: 4},
		LeastSquares{Dim: 4},
		Softmax{Dim: 3, Classes: 3},
		MLP{Dim: 3, Hidden: 4, Classes: 3},
	}
	for _, m := range models {
		t.Run(m.Name(), func(t *testing.T) {
			params := randParams(rng, m.NumParams())
			grad := make(mat.Vec, m.NumParams())
			m.LipschitzGrad(params, 1, grad)
			const h = 1e-6
			for i := range params {
				p1 := mat.CloneVec(params)
				p2 := mat.CloneVec(params)
				p1[i] += h
				p2[i] -= h
				fd := (m.Lipschitz(p1) - m.Lipschitz(p2)) / (2 * h)
				if math.Abs(fd-grad[i]) > 1e-4*(1+math.Abs(fd)) {
					t.Errorf("coord %d: analytic %v fd %v", i, grad[i], fd)
				}
			}
		})
	}
}

// TestLipschitzGradZeroParams: at the origin the subgradient convention
// is zero (no direction is privileged) for every model.
func TestLipschitzGradZeroParams(t *testing.T) {
	models := []Model{
		Logistic{Dim: 3}, LeastSquares{Dim: 3},
		Softmax{Dim: 2, Classes: 3}, MLP{Dim: 2, Hidden: 2, Classes: 2},
	}
	for _, m := range models {
		grad := make(mat.Vec, m.NumParams())
		m.LipschitzGrad(make(mat.Vec, m.NumParams()), 1, grad)
		if mat.Norm2(grad) != 0 {
			t.Errorf("%s: nonzero subgradient at origin: %v", m.Name(), grad)
		}
	}
}

func TestLogisticMargin(t *testing.T) {
	l := Logistic{Dim: 2}
	params := mat.Vec{2, -1, 0.5}
	// margin = y (2·1 + (−1)·3 + 0.5) = y·(−0.5).
	if got := l.Margin(params, mat.Vec{1, 3}, 1); math.Abs(got+0.5) > 1e-12 {
		t.Errorf("Margin = %v, want -0.5", got)
	}
	if got := l.Margin(params, mat.Vec{1, 3}, -1); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Margin = %v, want 0.5", got)
	}
}

func TestSoftmaxPredictAndLipschitz(t *testing.T) {
	sm := Softmax{Dim: 2, Classes: 3}
	params := make(mat.Vec, sm.NumParams())
	// Class 2 weights (1, 1): wins for positive features.
	params[2*2] = 1
	params[2*2+1] = 1
	if got := sm.Predict(params, mat.Vec{1, 1}); got != 2 {
		t.Errorf("Predict = %v, want 2", got)
	}
	// Lipschitz = 2·max class-weight norm = 2·√2.
	if got := sm.Lipschitz(params); math.Abs(got-2*math.Sqrt2) > 1e-12 {
		t.Errorf("Lipschitz = %v", got)
	}
}

func TestMLPProbaSimplex(t *testing.T) {
	rng := rand.New(rand.NewSource(261))
	m := MLP{Dim: 3, Hidden: 4, Classes: 5}
	params := m.InitParams(rng)
	p := m.Proba(params, mat.Vec{0.5, -1, 2})
	var sum float64
	for _, v := range p {
		if v < 0 {
			t.Fatalf("negative probability %v", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("probabilities sum to %v", sum)
	}
}

func TestLeastSquaresLipschitzGradDirection(t *testing.T) {
	l := LeastSquares{Dim: 2}
	grad := make(mat.Vec, 3)
	l.LipschitzGrad(mat.Vec{3, 4, 7}, 2, grad)
	// 2·w/‖w‖ = 2·(0.6, 0.8); bias untouched.
	if math.Abs(grad[0]-1.2) > 1e-12 || math.Abs(grad[1]-1.6) > 1e-12 || grad[2] != 0 {
		t.Errorf("grad = %v", grad)
	}
}

func TestCheckDataWrongColumns(t *testing.T) {
	l := Logistic{Dim: 3}
	defer func() {
		if recover() == nil {
			t.Fatal("wrong column count did not panic")
		}
	}()
	l.Losses(make(mat.Vec, 4), mat.NewDense(1, 2), []float64{1}, nil)
}
