package model

import (
	"math"
	"math/rand"

	"github.com/drdp/drdp/internal/mat"
)

// MLP is a one-hidden-layer perceptron with tanh activation and a softmax
// output head, trained with hand-written backpropagation. Parameter
// layout, in order:
//
//	W1 (Hidden × Dim, row-major) | b1 (Hidden) | W2 (Classes × Hidden) | b2 (Classes)
//
// The tanh activation is 1-Lipschitz, so the loss's feature-Lipschitz
// constant is bounded by ‖W1‖_F · 2·max_c ‖W2_c‖₂, which Lipschitz
// returns; the Wasserstein penalty is therefore an upper bound (safe,
// conservative) rather than tight for this model.
type MLP struct {
	Dim     int // input dimensionality
	Hidden  int // hidden units, ≥ 1
	Classes int // output classes, ≥ 2
}

var _ Model = MLP{}

// Name implements Model.
func (m MLP) Name() string { return "mlp" }

// InputDim implements Model.
func (m MLP) InputDim() int { return m.Dim }

// NumParams implements Model.
func (m MLP) NumParams() int {
	return m.Hidden*m.Dim + m.Hidden + m.Classes*m.Hidden + m.Classes
}

// slices decomposes the flat parameter vector into the four blocks.
func (m MLP) slices(params mat.Vec) (w1, b1, w2, b2 mat.Vec) {
	checkParams(m, params)
	o := 0
	w1 = params[o : o+m.Hidden*m.Dim]
	o += m.Hidden * m.Dim
	b1 = params[o : o+m.Hidden]
	o += m.Hidden
	w2 = params[o : o+m.Classes*m.Hidden]
	o += m.Classes * m.Hidden
	b2 = params[o : o+m.Classes]
	return
}

// InitParams returns Xavier-initialized parameters drawn from rng.
func (m MLP) InitParams(rng *rand.Rand) mat.Vec {
	params := make(mat.Vec, m.NumParams())
	w1, _, w2, _ := m.slices(params)
	s1 := math.Sqrt(2.0 / float64(m.Dim+m.Hidden))
	for i := range w1 {
		w1[i] = s1 * rng.NormFloat64()
	}
	s2 := math.Sqrt(2.0 / float64(m.Hidden+m.Classes))
	for i := range w2 {
		w2[i] = s2 * rng.NormFloat64()
	}
	return params
}

// forward computes hidden activations h (tanh) and logits for x.
func (m MLP) forward(params mat.Vec, x mat.Vec, h, logits mat.Vec) {
	w1, b1, w2, b2 := m.slices(params)
	for j := 0; j < m.Hidden; j++ {
		h[j] = math.Tanh(mat.Dot(w1[j*m.Dim:(j+1)*m.Dim], x) + b1[j])
	}
	for c := 0; c < m.Classes; c++ {
		logits[c] = mat.Dot(w2[c*m.Hidden:(c+1)*m.Hidden], h) + b2[c]
	}
}

// Losses implements Model.
func (m MLP) Losses(params mat.Vec, x *mat.Dense, y []float64, out []float64) []float64 {
	checkData(m, x, y)
	out = ensureOut(out, x.Rows)
	h := make(mat.Vec, m.Hidden)
	logits := make(mat.Vec, m.Classes)
	for i := 0; i < x.Rows; i++ {
		m.forward(params, x.Row(i), h, logits)
		out[i] = mat.LogSumExp(logits) - logits[int(y[i])]
	}
	return out
}

// WeightedGrad implements Model via backpropagation.
func (m MLP) WeightedGrad(params mat.Vec, x *mat.Dense, y []float64, w []float64, grad mat.Vec) mat.Vec {
	checkData(m, x, y)
	if len(w) != x.Rows {
		panic("model: mlp: weights length mismatch")
	}
	grad = ensureGrad(grad, m.NumParams())
	_, _, w2, _ := m.slices(params)
	gw1, gb1, gw2, gb2 := m.slices(grad)

	h := make(mat.Vec, m.Hidden)
	logits := make(mat.Vec, m.Classes)
	probs := make(mat.Vec, m.Classes)
	dh := make(mat.Vec, m.Hidden)
	for i := 0; i < x.Rows; i++ {
		if w[i] == 0 {
			continue
		}
		xi := x.Row(i)
		m.forward(params, xi, h, logits)
		mat.Softmax(logits, probs)
		yi := int(y[i])

		// Output layer: δ_c = w_i (p_c − 1{c=y}).
		mat.Fill(dh, 0)
		for c := 0; c < m.Classes; c++ {
			delta := w[i] * probs[c]
			if c == yi {
				delta -= w[i]
			}
			if delta == 0 {
				continue
			}
			mat.Axpy(delta, h, gw2[c*m.Hidden:(c+1)*m.Hidden])
			gb2[c] += delta
			mat.Axpy(delta, w2[c*m.Hidden:(c+1)*m.Hidden], dh)
		}
		// Hidden layer: δ_j = dh_j (1 − h_j²).
		for j := 0; j < m.Hidden; j++ {
			deltaH := dh[j] * (1 - h[j]*h[j])
			if deltaH == 0 {
				continue
			}
			mat.Axpy(deltaH, xi, gw1[j*m.Dim:(j+1)*m.Dim])
			gb1[j] += deltaH
		}
	}
	return grad
}

// Lipschitz implements Model with the layer-norm product upper bound.
func (m MLP) Lipschitz(params mat.Vec) float64 {
	w1, _, w2, _ := m.slices(params)
	var frob1 float64
	for _, v := range w1 {
		frob1 += v * v
	}
	frob1 = math.Sqrt(frob1)
	var maxW2 float64
	for c := 0; c < m.Classes; c++ {
		if n := mat.Norm2(w2[c*m.Hidden : (c+1)*m.Hidden]); n > maxW2 {
			maxW2 = n
		}
	}
	return frob1 * 2 * maxW2
}

// LipschitzGrad implements Model for the bound F1·2·M2 with
// F1 = ‖W1‖_F and M2 = max_c ‖W2_c‖₂, via the product rule.
func (m MLP) LipschitzGrad(params mat.Vec, coef float64, grad mat.Vec) {
	w1, _, w2, _ := m.slices(params)
	gw1, _, gw2, _ := m.slices(grad)
	var frob1 float64
	for _, v := range w1 {
		frob1 += v * v
	}
	frob1 = math.Sqrt(frob1)
	best, maxW2 := -1, 0.0
	for c := 0; c < m.Classes; c++ {
		if n := mat.Norm2(w2[c*m.Hidden : (c+1)*m.Hidden]); n > maxW2 {
			best, maxW2 = c, n
		}
	}
	if frob1 > 0 && maxW2 > 0 {
		mat.Axpy(coef*2*maxW2/frob1, w1, gw1)
		mat.Axpy(coef*2*frob1/maxW2, w2[best*m.Hidden:(best+1)*m.Hidden],
			gw2[best*m.Hidden:(best+1)*m.Hidden])
	}
}

// Predict implements Model, returning the argmax class index.
func (m MLP) Predict(params mat.Vec, x mat.Vec) float64 {
	h := make(mat.Vec, m.Hidden)
	logits := make(mat.Vec, m.Classes)
	m.forward(params, x, h, logits)
	return float64(mat.ArgMax(logits))
}
