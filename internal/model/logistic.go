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
//
// A row costs one math.Exp: with t = exp(−|m|) at margin m, the loss is
// max(−m, 0) + log1pUnit(t) and its slope σ(−m) is t/(1+t) for m > 0,
// 1/(1+t) otherwise. Given t, the loss is within 1 ulp and the slope
// within 2; against the exact logloss both also carry math.Exp's own
// error (up to 1.6 ulp on amd64).
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
// t = exp(−|m|) its loss was computed from.
func (l Logistic) LossesSweep(params mat.Vec, x *mat.Dense, y []float64, out, memo []float64) []float64 {
	checkParams(l, params)
	checkData(l, x, y)
	checkMemo(memo, x.Rows)
	out = ensureOut(out, x.Rows)
	w, b := params[:l.Dim], params[l.Dim]
	for i, at := 0, 0; i < x.Rows; i, at = i+1, at+l.Dim {
		xi := x.Data[at:][:len(w)]
		var dot float64
		for j, v := range w {
			dot += v * xi[j]
		}
		m := y[i] * (dot + b)
		t := math.Exp(-math.Abs(m))
		out[i] = log1pUnit(t)
		if m < 0 {
			out[i] -= m
		}
		if memo != nil {
			memo[SweepMemo*i], memo[SweepMemo*i+1] = m, t
		}
	}
	return out
}

// WeightedGrad implements Model: ∇ℓ_i = −y_i σ(−m_i) [x_i; 1].
func (l Logistic) WeightedGrad(params mat.Vec, x *mat.Dense, y []float64, w []float64, grad mat.Vec) mat.Vec {
	return l.WeightedGradSweep(params, x, y, w, nil, grad)
}

// WeightedGradSweep implements Sweeper: σ(−m_i) reads the memo's margin
// and t, so with a memo the gradient evaluates no exponential.
func (l Logistic) WeightedGradSweep(params mat.Vec, x *mat.Dense, y []float64, w, memo []float64, grad mat.Vec) mat.Vec {
	checkParams(l, params)
	checkData(l, x, y)
	checkMemo(memo, x.Rows)
	if len(w) != x.Rows {
		panic("model: logistic: weights length mismatch")
	}
	grad = ensureGrad(grad, l.NumParams())
	wv, b := params[:l.Dim], params[l.Dim]
	g := grad[:l.Dim]
	for i, at := 0, 0; i < x.Rows; i, at = i+1, at+l.Dim {
		if w[i] == 0 {
			continue
		}
		xi := x.Data[at:][:len(g)]
		var m, t float64
		if memo == nil {
			var dot float64
			for j, v := range wv {
				dot += v * xi[j]
			}
			m = y[i] * (dot + b)
			t = math.Exp(-math.Abs(m))
		} else {
			m, t = memo[SweepMemo*i], memo[SweepMemo*i+1]
		}
		coeff := -w[i] * y[i] * slope(m, t)
		for j, v := range xi {
			g[j] += coeff * v
		}
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

// Proba returns P(y=+1 | x) = σ(z), which is slope at the margin −z.
func (l Logistic) Proba(params mat.Vec, x mat.Vec) float64 {
	checkParams(l, params)
	m := -(mat.Dot(params[:l.Dim], x) + params[l.Dim])
	return slope(m, math.Exp(-math.Abs(m)))
}

// slope returns σ(−m) = 1/(1 + exp(m)) from m and t = exp(−|m|): the
// logloss's derivative in −m, with no exponential of its own.
func slope(m, t float64) float64 {
	if m > 0 {
		return t / (1 + t)
	}
	return 1 / (1 + t)
}

// log1pUnit returns log(1 + t) for t in [0, 1] (NaN gives NaN), to
// within 1 ulp: fdlibm's log1p with its range reduction written for the
// unit interval. Up to √2−1, k = 0 and f = t. Above it 1 + t lies in
// (√2, 2], so k = 1 and f = (1+t)/2 − 1 = (t−1)/2. t − 1 rounds only
// for t < ½; its error, t − (d+1) exactly by Sterbenz's lemma, enters
// as the correction c. Then log(1+t) = k·ln2 + log(1+f), with
// log(1+f) = f − ½f² + s·(½f² + R(s²)), s = f/(2+f), by fdlibm's
// minimax polynomial R.
func log1pUnit(t float64) float64 {
	const (
		sqrt2M1 = 4.142135623730950488017e-01 // 0x3fda827999fcef34
		ln2Hi   = 6.93147180369123816490e-01  // 0x3fe62e42fee00000
		ln2Lo   = 1.90821492927058770002e-10  // 0x3dea39ef35793c76
		lg1     = 6.666666666666735130e-01    // 0x3fe5555555555593
		lg2     = 3.999999999940941908e-01    // 0x3fd999999997fa04
		lg3     = 2.857142874366239149e-01    // 0x3fd2492494229359
		lg4     = 2.222219843214978396e-01    // 0x3fcc71c51d8e78af
		lg5     = 1.818357216161805012e-01    // 0x3fc7466496cb03de
		lg6     = 1.531383769920937332e-01    // 0x3fc39a09d078c69f
		lg7     = 1.479819860511658591e-01    // 0x3fc2f112df3e5244
	)
	f, k, c := t, 0.0, 0.0
	if !(t <= sqrt2M1) {
		d := t - 1
		f, k, c = 0.5*d, 1, (t-(d+1))/(1+t)
	}
	hfsq := 0.5 * f * f
	s := f / (2 + f)
	z := s * s
	w := z * z
	r := w*(lg2+w*(lg4+w*lg6)) + z*(lg1+w*(lg3+w*(lg5+w*lg7)))
	return k*ln2Hi - ((hfsq - (s*(hfsq+r) + (k*ln2Lo + c))) - f)
}
