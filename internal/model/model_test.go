package model

import (
	"math"
	"math/rand"
	"testing"

	"github.com/drdp/drdp/internal/mat"
)

// randData generates a random design matrix and labels for the given model
// family; kind is "binary" (±1), "class" (0..classes-1) or "reg".
func randData(rng *rand.Rand, n, d int, kind string, classes int) (*mat.Dense, []float64) {
	x := mat.NewDense(n, d)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	y := make([]float64, n)
	for i := range y {
		switch kind {
		case "binary":
			if rng.Float64() < 0.5 {
				y[i] = 1
			} else {
				y[i] = -1
			}
		case "class":
			y[i] = float64(rng.Intn(classes))
		case "reg":
			y[i] = rng.NormFloat64()
		}
	}
	return x, y
}

func randWeights(rng *rand.Rand, n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = rng.Float64()
	}
	return w
}

func randParams(rng *rand.Rand, n int) mat.Vec {
	p := make(mat.Vec, n)
	for i := range p {
		p[i] = 0.5 * rng.NormFloat64()
	}
	return p
}

func TestLogisticLossValues(t *testing.T) {
	l := Logistic{Dim: 2}
	// w = (1, 0), b = 0; x = (0,0) → margin 0 → loss log 2.
	params := mat.Vec{1, 0, 0}
	x := mat.FromRows([][]float64{{0, 0}})
	losses := l.Losses(params, x, []float64{1}, nil)
	if math.Abs(losses[0]-math.Log(2)) > 1e-12 {
		t.Errorf("loss at margin 0 = %v, want log 2", losses[0])
	}
	// Large positive margin → loss ≈ 0; large negative → ≈ margin.
	x2 := mat.FromRows([][]float64{{100, 0}})
	if got := l.Losses(params, x2, []float64{1}, nil)[0]; got > 1e-10 {
		t.Errorf("loss at margin 100 = %v", got)
	}
	if got := l.Losses(params, x2, []float64{-1}, nil)[0]; math.Abs(got-100) > 1e-9 {
		t.Errorf("loss at margin -100 = %v, want 100", got)
	}
}

func TestLogisticPredictProba(t *testing.T) {
	l := Logistic{Dim: 1}
	params := mat.Vec{2, -1} // score = 2x - 1
	if got := l.Predict(params, mat.Vec{1}); got != 1 {
		t.Errorf("Predict(1) = %v, want +1", got)
	}
	if got := l.Predict(params, mat.Vec{0}); got != -1 {
		t.Errorf("Predict(0) = %v, want -1", got)
	}
	if got := l.Proba(params, mat.Vec{0.5}); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Proba at decision boundary = %v", got)
	}
}

func TestLogisticLipschitz(t *testing.T) {
	l := Logistic{Dim: 2}
	if got := l.Lipschitz(mat.Vec{3, 4, 100}); math.Abs(got-5) > 1e-12 {
		t.Errorf("Lipschitz = %v, want 5 (bias excluded)", got)
	}
}

func TestSoftmaxMatchesLogisticOnTwoClasses(t *testing.T) {
	// Softmax with 2 classes and logistic must give identical probabilities
	// when parameterized consistently: logistic(w,b) ≡ softmax with
	// W_1 = w, b_1 = b, W_0 = 0, b_0 = 0, where class 1 is "+1".
	rng := rand.New(rand.NewSource(40))
	d := 3
	w := randParams(rng, d)
	b := rng.NormFloat64()
	lg := Logistic{Dim: d}
	sm := Softmax{Dim: d, Classes: 2}
	lgParams := append(mat.CloneVec(w), b)
	smParams := make(mat.Vec, sm.NumParams())
	copy(smParams[d:2*d], w) // class 1 weights
	smParams[2*d+1] = b      // class 1 bias
	for trial := 0; trial < 20; trial++ {
		x := randParams(rng, d)
		pLogistic := lg.Proba(lgParams, x)
		pSoftmax := sm.Proba(smParams, x)[1]
		if math.Abs(pLogistic-pSoftmax) > 1e-10 {
			t.Fatalf("P(+1): logistic %v vs softmax %v", pLogistic, pSoftmax)
		}
	}
}

func TestSoftmaxLossIsNLL(t *testing.T) {
	sm := Softmax{Dim: 1, Classes: 3}
	params := make(mat.Vec, sm.NumParams()) // all zeros → uniform probs
	x := mat.FromRows([][]float64{{1}})
	for c := 0; c < 3; c++ {
		losses := sm.Losses(params, x, []float64{float64(c)}, nil)
		if math.Abs(losses[0]-math.Log(3)) > 1e-12 {
			t.Errorf("uniform softmax NLL = %v, want log 3", losses[0])
		}
	}
}

func TestGradChecks(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	tests := []struct {
		name string
		m    Model
		kind string
	}{
		{"logistic", Logistic{Dim: 4}, "binary"},
		{"softmax", Softmax{Dim: 4, Classes: 3}, "class"},
		{"leastsquares", LeastSquares{Dim: 4}, "reg"},
		{"mlp", MLP{Dim: 4, Hidden: 5, Classes: 3}, "class"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			classes := 3
			x, y := randData(rng, 12, 4, tt.kind, classes)
			w := randWeights(rng, 12)
			params := randParams(rng, tt.m.NumParams())
			if err := GradCheck(tt.m, params, x, y, w, 1e-6); err > 1e-6 {
				t.Errorf("gradient check relative error %g", err)
			}
		})
	}
}

func TestGradCheckUniformEqualsWeightedGradWithUniform(t *testing.T) {
	// WeightedGrad with weights 1/n must equal the mean gradient; sanity
	// check the scaling convention via two calls.
	rng := rand.New(rand.NewSource(42))
	m := Logistic{Dim: 3}
	x, y := randData(rng, 8, 3, "binary", 0)
	params := randParams(rng, m.NumParams())
	ones := make([]float64, 8)
	uni := make([]float64, 8)
	for i := range ones {
		ones[i] = 1
		uni[i] = 1.0 / 8
	}
	g1 := m.WeightedGrad(params, x, y, ones, nil)
	g2 := m.WeightedGrad(params, x, y, uni, nil)
	for i := range g1 {
		if math.Abs(g1[i]-8*g2[i]) > 1e-9 {
			t.Fatalf("weight scaling inconsistent at coord %d", i)
		}
	}
}

func TestMLPLearnsXOR(t *testing.T) {
	// End-to-end sanity: plain gradient descent on MLP solves XOR, which
	// no linear model can. This validates backprop beyond the grad check.
	m := MLP{Dim: 2, Hidden: 8, Classes: 2}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	x := mat.FromRows([][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}})
	y := []float64{0, 1, 1, 0}
	rng := rand.New(rand.NewSource(43))
	params := m.InitParams(rng)
	w := []float64{0.25, 0.25, 0.25, 0.25}
	grad := make(mat.Vec, m.NumParams())
	for iter := 0; iter < 3000; iter++ {
		mat.Fill(grad, 0)
		m.WeightedGrad(params, x, y, w, grad)
		mat.Axpy(-0.5, grad, params)
	}
	if acc := Accuracy(m, params, x, y); acc != 1 {
		t.Errorf("MLP failed to fit XOR: accuracy %v", acc)
	}
}

func TestMLPValidate(t *testing.T) {
	for _, m := range []MLP{{0, 3, 2}, {2, 0, 2}, {2, 3, 1}} {
		if err := m.Validate(); err == nil {
			t.Errorf("MLP%+v should be invalid", m)
		}
	}
}

func TestMLPLipschitzPositive(t *testing.T) {
	m := MLP{Dim: 3, Hidden: 4, Classes: 2}
	rng := rand.New(rand.NewSource(44))
	params := m.InitParams(rng)
	if l := m.Lipschitz(params); l <= 0 {
		t.Errorf("Lipschitz = %v", l)
	}
	// Zero params → zero Lipschitz.
	if l := m.Lipschitz(make(mat.Vec, m.NumParams())); l != 0 {
		t.Errorf("Lipschitz of zero params = %v", l)
	}
}

func TestLeastSquaresExactFit(t *testing.T) {
	// y = 2x + 1 fit exactly → zero loss, correct predictions.
	l := LeastSquares{Dim: 1}
	params := mat.Vec{2, 1}
	x := mat.FromRows([][]float64{{0}, {1}, {2}})
	y := []float64{1, 3, 5}
	losses := l.Losses(params, x, y, nil)
	for _, v := range losses {
		if v != 0 {
			t.Errorf("exact fit has loss %v", v)
		}
	}
	if got := l.Predict(params, mat.Vec{3}); got != 7 {
		t.Errorf("Predict(3) = %v, want 7", got)
	}
}

func TestAccuracy(t *testing.T) {
	l := Logistic{Dim: 1}
	params := mat.Vec{1, 0} // predicts sign(x)
	x := mat.FromRows([][]float64{{1}, {-1}, {2}, {-2}})
	y := []float64{1, -1, -1, -1} // 3 of 4 correct
	if got := Accuracy(l, params, x, y); got != 0.75 {
		t.Errorf("Accuracy = %v, want 0.75", got)
	}
	empty := mat.NewDense(0, 1)
	if got := Accuracy(l, params, empty, nil); got != 0 {
		t.Errorf("Accuracy on empty = %v", got)
	}
}

func TestShapePanics(t *testing.T) {
	l := Logistic{Dim: 2}
	x := mat.FromRows([][]float64{{1, 2}})
	cases := map[string]func(){
		"bad params":  func() { l.Losses(mat.Vec{1}, x, []float64{1}, nil) },
		"bad labels":  func() { l.Losses(mat.Vec{1, 2, 3}, x, []float64{1, 1}, nil) },
		"bad weights": func() { l.WeightedGrad(mat.Vec{1, 2, 3}, x, []float64{1}, []float64{1, 2}, nil) },
		"bad buffer":  func() { l.Losses(mat.Vec{1, 2, 3}, x, []float64{1}, make([]float64, 5)) },
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestSigmoidStability(t *testing.T) {
	if got := sigmoid(1000); got != 1 {
		t.Errorf("sigmoid(1000) = %v", got)
	}
	if got := sigmoid(-1000); got != 0 {
		t.Errorf("sigmoid(-1000) = %v", got)
	}
	if got := sigmoid(0); got != 0.5 {
		t.Errorf("sigmoid(0) = %v", got)
	}
}

// TestLogistic1pStability checks log(1 + exp(z)) — marginLoss at margin
// −z — at both overflow cut-offs and at 0.
func TestLogistic1pStability(t *testing.T) {
	logistic1p := func(z float64) float64 {
		loss, _ := marginLoss(-z)
		return loss
	}
	if got := logistic1p(100); got != 100 {
		t.Errorf("logistic1p(100) = %v", got)
	}
	if got := logistic1p(-100); got > 1e-40 || got == 0 {
		t.Errorf("logistic1p(-100) = %v", got)
	}
	if got := logistic1p(0); math.Abs(got-math.Log(2)) > 1e-12 {
		t.Errorf("logistic1p(0) = %v", got)
	}
}
