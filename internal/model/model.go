// Package model implements the supervised models drdp trains at the edge,
// with all gradients hand-written (the reproduction explicitly avoids any
// deep-learning framework): binary logistic regression, multiclass
// softmax regression, and a one-hidden-layer MLP with backpropagation.
//
// Every model exposes per-sample losses and a weighted-gradient kernel.
// That shape is what the DRO layer needs: by Danskin's theorem the
// gradient of the worst-case objective is the worst-case-weighted sum of
// per-sample gradients, and the Wasserstein reformulation additionally
// needs the loss's Lipschitz constant in the feature argument.
package model

import (
	"fmt"

	"github.com/drdp/drdp/internal/mat"
)

// Model is a parametric supervised model over flattened parameters.
//
// Labels are carried as float64: regression targets directly, binary
// labels as ±1, multiclass labels as the class index.
type Model interface {
	// NumParams returns the flattened parameter count.
	NumParams() int
	// InputDim returns the expected feature dimensionality.
	InputDim() int
	// Losses fills out[i] with the loss of sample i under params and
	// returns out (allocating when out is nil).
	Losses(params mat.Vec, x *mat.Dense, y []float64, out []float64) []float64
	// WeightedGrad accumulates Σ_i w_i ∇_θ ℓ_i into grad and returns it
	// (allocating when grad is nil). Weights need not be normalized.
	WeightedGrad(params mat.Vec, x *mat.Dense, y []float64, w []float64, grad mat.Vec) mat.Vec
	// Lipschitz returns (an upper bound on) the Lipschitz constant of
	// ξ ↦ ℓ(θ; ξ) under the Euclidean norm on features, at params. This
	// is the ‖θ‖_* factor of the Wasserstein single-layer reformulation.
	Lipschitz(params mat.Vec) float64
	// LipschitzGrad accumulates coef·∂Lipschitz(θ)/∂θ (a subgradient)
	// into grad, the term the M-step needs to descend the Wasserstein
	// penalty ρ·Lipschitz(θ).
	LipschitzGrad(params mat.Vec, coef float64, grad mat.Vec)
	// Predict returns the model output for one feature vector: the
	// regression value, or the predicted class index for classifiers.
	Predict(params mat.Vec, x mat.Vec) float64
	// Name identifies the model family.
	Name() string
}

// SweepMemo is the number of floats per row a Sweeper's memo holds.
const SweepMemo = 2

// Sweeper is implemented by models whose loss and gradient at a sample
// share work (logistic: the margin and its exponential). The batch
// M-step asks for the gradient at the point whose losses it just swept;
// a Sweeper lets that gradient read the shared values back instead of
// recomputing them. Models without it keep two independent sweeps.
type Sweeper interface {
	// LossesSweep is Losses that also records SweepMemo floats per row
	// into memo (nil records nothing).
	LossesSweep(params mat.Vec, x *mat.Dense, y []float64, out, memo []float64) []float64
	// WeightedGradSweep is WeightedGrad at the params memo was recorded
	// at, reading memo instead of recomputing it (nil recomputes). It
	// returns exactly WeightedGrad's bits.
	WeightedGradSweep(params mat.Vec, x *mat.Dense, y []float64, w, memo []float64, grad mat.Vec) mat.Vec
}

// checkData panics on structurally invalid training data, which is a
// programmer error at this layer (public APIs validate earlier).
func checkData(m Model, x *mat.Dense, y []float64) {
	if x.Rows != len(y) {
		panic(fmt.Sprintf("model: %s: %d rows but %d labels", m.Name(), x.Rows, len(y)))
	}
	if x.Cols != m.InputDim() {
		panic(fmt.Sprintf("model: %s: %d feature columns, want %d", m.Name(), x.Cols, m.InputDim()))
	}
}

func checkMemo(memo []float64, rows int) {
	if memo != nil && len(memo) != SweepMemo*rows {
		panic(fmt.Sprintf("model: sweep memo length %d, want %d", len(memo), SweepMemo*rows))
	}
}

func checkParams(m Model, params mat.Vec) {
	if len(params) != m.NumParams() {
		panic(fmt.Sprintf("model: %s: %d params, want %d", m.Name(), len(params), m.NumParams()))
	}
}

func ensureOut(out []float64, n int) []float64 {
	if out == nil {
		return make([]float64, n)
	}
	if len(out) != n {
		panic(fmt.Sprintf("model: output buffer length %d, want %d", len(out), n))
	}
	return out
}

func ensureGrad(grad mat.Vec, n int) mat.Vec {
	if grad == nil {
		return make(mat.Vec, n)
	}
	if len(grad) != n {
		panic(fmt.Sprintf("model: gradient buffer length %d, want %d", len(grad), n))
	}
	return grad
}

// BlockNormer is implemented by models whose feature-Lipschitz constant
// is exactly the l2 norm of one contiguous parameter block (logistic: the
// weights, excluding the bias). For these models the
// Wasserstein penalty ρ·Lipschitz(θ) admits an exact proximal operator,
// enabling the proximal M-step solver.
type BlockNormer interface {
	// WeightBlock returns the [from, to) range of the penalized block.
	WeightBlock() (from, to int)
}

// WeightBlock implements BlockNormer.
func (l Logistic) WeightBlock() (from, to int) { return 0, l.Dim }

// Accuracy returns the fraction of samples whose Predict output matches
// the label (after rounding, so it works for ±1 and index labels alike).
func Accuracy(m Model, params mat.Vec, x *mat.Dense, y []float64) float64 {
	if x.Rows == 0 {
		return 0
	}
	var correct int
	for i := 0; i < x.Rows; i++ {
		if m.Predict(params, x.Row(i)) == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(x.Rows)
}
