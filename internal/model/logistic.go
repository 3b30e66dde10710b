package model

import (
	"math"

	"github.com/drdp/drdp/internal/mat"
)

// Logistic is binary logistic regression with labels in {−1, +1}.
// Parameters are [w_0 … w_{d−1}, b]; the loss is the logloss
// ℓ(θ; x, y) = log(1 + exp(−y (wᵀx + b))), which is 1-Lipschitz in the
// margin and hence ‖w‖₂-Lipschitz in x — the exact constant the
// Wasserstein DRO reformulation regularizes.
type Logistic struct {
	Dim int // feature dimensionality
}

var _ Model = Logistic{}

// Name implements Model.
func (l Logistic) Name() string { return "logistic" }

// InputDim implements Model.
func (l Logistic) InputDim() int { return l.Dim }

// NumParams returns d weights plus one bias.
func (l Logistic) NumParams() int { return l.Dim + 1 }

// Margin returns y·(wᵀx + b).
func (l Logistic) Margin(params mat.Vec, x mat.Vec, y float64) float64 {
	checkParams(l, params)
	w := params[:l.Dim]
	return y * (mat.Dot(w, x) + params[l.Dim])
}

// Losses implements Model.
func (l Logistic) Losses(params mat.Vec, x *mat.Dense, y []float64, out []float64) []float64 {
	return l.LossesSweep(params, x, y, out, nil)
}

// LossesSweep implements Sweeper. A row's memo is its margin m and the
// e = exp(−m) marginLoss returned for it.
func (l Logistic) LossesSweep(params mat.Vec, x *mat.Dense, y []float64, out, memo []float64) []float64 {
	checkParams(l, params)
	checkData(l, x, y)
	checkMemo(memo, x.Rows)
	out = ensureOut(out, x.Rows)
	w := params[:l.Dim]
	b := params[l.Dim]
	for i := 0; i < x.Rows; i++ {
		m := y[i] * (mat.Dot(w, x.Row(i)) + b)
		var e float64
		out[i], e = marginLoss(m)
		if memo != nil {
			memo[SweepMemo*i], memo[SweepMemo*i+1] = m, e
		}
	}
	return out
}

// WeightedGrad implements Model: ∇ℓ_i = −y_i σ(−m_i) [x_i; 1].
func (l Logistic) WeightedGrad(params mat.Vec, x *mat.Dense, y []float64, w []float64, grad mat.Vec) mat.Vec {
	return l.WeightedGradSweep(params, x, y, w, nil, grad)
}

// WeightedGradSweep implements Sweeper: σ(−m_i) reuses the memo's margin
// and, for m_i > 0, its exp(−m_i) — the same math.Exp call sigmoid would
// make, so the bits match WeightedGrad's.
func (l Logistic) WeightedGradSweep(params mat.Vec, x *mat.Dense, y []float64, w, memo []float64, grad mat.Vec) mat.Vec {
	checkParams(l, params)
	checkData(l, x, y)
	checkMemo(memo, x.Rows)
	if len(w) != x.Rows {
		panic("model: logistic: weights length mismatch")
	}
	grad = ensureGrad(grad, l.NumParams())
	wv := params[:l.Dim]
	b := params[l.Dim]
	for i := 0; i < x.Rows; i++ {
		if w[i] == 0 {
			continue
		}
		xi := x.Row(i)
		var s float64
		if memo == nil {
			s = sigmoid(-y[i] * (mat.Dot(wv, xi) + b))
		} else {
			s = marginSlope(memo[SweepMemo*i], memo[SweepMemo*i+1])
		}
		coeff := -w[i] * y[i] * s
		mat.Axpy(coeff, xi, grad[:l.Dim])
		grad[l.Dim] += coeff
	}
	return grad
}

// Lipschitz implements Model: the logloss is 1-Lipschitz in the margin,
// so ‖w‖₂-Lipschitz in the features.
func (l Logistic) Lipschitz(params mat.Vec) float64 {
	checkParams(l, params)
	return mat.Norm2(params[:l.Dim])
}

// LipschitzGrad implements Model: ∂‖w‖₂/∂w = w/‖w‖₂ (zero subgradient at
// the origin), bias untouched.
func (l Logistic) LipschitzGrad(params mat.Vec, coef float64, grad mat.Vec) {
	checkParams(l, params)
	w := params[:l.Dim]
	norm := mat.Norm2(w)
	if norm == 0 {
		return
	}
	mat.Axpy(coef/norm, w, grad[:l.Dim])
}

// Predict implements Model, returning the sign of the score as ±1.
func (l Logistic) Predict(params mat.Vec, x mat.Vec) float64 {
	checkParams(l, params)
	if mat.Dot(params[:l.Dim], x)+params[l.Dim] >= 0 {
		return 1
	}
	return -1
}

// Proba returns P(y=+1 | x).
func (l Logistic) Proba(params mat.Vec, x mat.Vec) float64 {
	checkParams(l, params)
	return sigmoid(mat.Dot(params[:l.Dim], x) + params[l.Dim])
}

// sigmoid is the numerically stable logistic function.
func sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// marginLoss returns the logloss log(1 + exp(−m)) at margin m without
// overflow, and the e = math.Exp(−m) it evaluated on the way, which it
// does for every m ≥ −35 or NaN (e is 0 below). That covers every
// margin at which sigmoid(−m) takes its exp(−m) branch: m > 0 or NaN.
func marginLoss(m float64) (loss, e float64) {
	z := -m
	if z > 35 {
		return z, 0
	}
	e = math.Exp(z)
	if z < -35 {
		return e, e
	}
	return math.Log1p(e), e
}

// marginSlope returns sigmoid(−m) bit for bit, reusing marginLoss's e
// for the same m where sigmoid would compute it.
func marginSlope(m, e float64) float64 {
	if -m >= 0 {
		return sigmoid(-m)
	}
	return e / (1 + e)
}
