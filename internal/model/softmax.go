package model

import (
	"github.com/drdp/drdp/internal/mat"
)

// Softmax is multiclass logistic (softmax) regression with labels given as
// class indices 0..C−1. Parameters are laid out class-major:
// [W_0 (d floats), …, W_{C−1} (d floats), b_0 … b_{C−1}].
// The loss is the cross entropy −log p_y(x).
type Softmax struct {
	Dim     int // feature dimensionality
	Classes int // number of classes, ≥ 2
}

var _ Model = Softmax{}

// Name implements Model.
func (s Softmax) Name() string { return "softmax" }

// InputDim implements Model.
func (s Softmax) InputDim() int { return s.Dim }

// NumParams returns C·d weights plus C biases.
func (s Softmax) NumParams() int { return s.Classes * (s.Dim + 1) }

// weight returns the weight row of class c as a sub-slice of params.
func (s Softmax) weight(params mat.Vec, c int) mat.Vec {
	return params[c*s.Dim : (c+1)*s.Dim]
}

// bias returns the bias of class c.
func (s Softmax) bias(params mat.Vec, c int) float64 {
	return params[s.Classes*s.Dim+c]
}

// Logits fills dst with the class scores for feature vector x.
func (s Softmax) Logits(params mat.Vec, x mat.Vec, dst mat.Vec) mat.Vec {
	checkParams(s, params)
	if dst == nil {
		dst = make(mat.Vec, s.Classes)
	}
	for c := 0; c < s.Classes; c++ {
		dst[c] = mat.Dot(s.weight(params, c), x) + s.bias(params, c)
	}
	return dst
}

// Losses implements Model.
func (s Softmax) Losses(params mat.Vec, x *mat.Dense, y []float64, out []float64) []float64 {
	checkParams(s, params)
	checkData(s, x, y)
	out = ensureOut(out, x.Rows)
	logits := make(mat.Vec, s.Classes)
	for i := 0; i < x.Rows; i++ {
		s.Logits(params, x.Row(i), logits)
		lse := mat.LogSumExp(logits)
		out[i] = lse - logits[int(y[i])]
	}
	return out
}

// WeightedGrad implements Model: for sample i with probabilities p,
// ∇_{W_c} = (p_c − 1{c=y}) x_i and ∇_{b_c} = (p_c − 1{c=y}).
func (s Softmax) WeightedGrad(params mat.Vec, x *mat.Dense, y []float64, w []float64, grad mat.Vec) mat.Vec {
	checkParams(s, params)
	checkData(s, x, y)
	if len(w) != x.Rows {
		panic("model: softmax: weights length mismatch")
	}
	grad = ensureGrad(grad, s.NumParams())
	logits := make(mat.Vec, s.Classes)
	probs := make(mat.Vec, s.Classes)
	for i := 0; i < x.Rows; i++ {
		if w[i] == 0 {
			continue
		}
		xi := x.Row(i)
		s.Logits(params, xi, logits)
		mat.Softmax(logits, probs)
		yi := int(y[i])
		for c := 0; c < s.Classes; c++ {
			coeff := w[i] * probs[c]
			if c == yi {
				coeff -= w[i]
			}
			if coeff == 0 {
				continue
			}
			mat.Axpy(coeff, xi, grad[c*s.Dim:(c+1)*s.Dim])
			grad[s.Classes*s.Dim+c] += coeff
		}
	}
	return grad
}

// Lipschitz implements Model. The feature-gradient of the cross entropy is
// Σ_c p_c W_c − W_y, whose norm is at most 2·max_c ‖W_c‖₂.
func (s Softmax) Lipschitz(params mat.Vec) float64 {
	checkParams(s, params)
	var maxNorm float64
	for c := 0; c < s.Classes; c++ {
		if n := mat.Norm2(s.weight(params, c)); n > maxNorm {
			maxNorm = n
		}
	}
	return 2 * maxNorm
}

// LipschitzGrad implements Model: the max over class-weight norms is
// subdifferentiable; descend along the argmax block.
func (s Softmax) LipschitzGrad(params mat.Vec, coef float64, grad mat.Vec) {
	checkParams(s, params)
	best, bestNorm := -1, 0.0
	for c := 0; c < s.Classes; c++ {
		if n := mat.Norm2(s.weight(params, c)); n > bestNorm {
			best, bestNorm = c, n
		}
	}
	if best < 0 || bestNorm == 0 {
		return
	}
	mat.Axpy(2*coef/bestNorm, s.weight(params, best), grad[best*s.Dim:(best+1)*s.Dim])
}

// Predict implements Model, returning the argmax class index.
func (s Softmax) Predict(params mat.Vec, x mat.Vec) float64 {
	logits := s.Logits(params, x, nil)
	return float64(mat.ArgMax(logits))
}
