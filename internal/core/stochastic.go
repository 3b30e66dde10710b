package core

import (
	"fmt"
	"math/rand"

	"github.com/drdp/drdp/internal/mat"
	"github.com/drdp/drdp/internal/model"
	"github.com/drdp/drdp/internal/opt"
)

// WithStochasticMStep replaces the full-batch M-step solver with
// minibatch Adam: batch samples per step, the given number of epochs per
// M-step, learning rate lr. Intended for edge datasets large enough that
// a full-batch solve per EM iteration is wasteful (n in the
// thousands).
//
// For the KL and χ² uncertainty sets the worst-case weights are computed
// per minibatch (batch-level DRO) — a standard approximation; the
// Wasserstein reformulation is exact under minibatching since its weights
// stay uniform. The EM descent guarantee becomes approximate: the
// objective trace may wiggle within stochastic noise.
func WithStochasticMStep(batch, epochs int, lr float64, seed int64) Option {
	return func(l *Learner) error {
		if batch <= 0 {
			return fmt.Errorf("core: stochastic M-step batch %d must be positive", batch)
		}
		if epochs <= 0 {
			return fmt.Errorf("core: stochastic M-step epochs %d must be positive", epochs)
		}
		if lr <= 0 {
			return fmt.Errorf("core: stochastic M-step lr %g must be positive", lr)
		}
		l.sgd = &sgdConfig{batch: batch, epochs: epochs, lr: lr, seed: seed}
		return nil
	}
}

type sgdConfig struct {
	batch  int
	epochs int
	lr     float64
	seed   int64
}

// stochasticMStep minimizes the same surrogate objective as mStep with
// minibatch Adam. scaled are the τ-scaled responsibilities (nil without
// a prior).
func (p *drdpProblem) stochasticMStep(theta mat.Vec, scaled []float64) mat.Vec {
	l := p.learner
	mdl := l.model
	cfg := l.sgd
	n := p.x.Rows
	batch := cfg.batch
	if batch > n {
		batch = n
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	adam := &opt.Adam{LR: cfg.lr}
	out := mat.CloneVec(theta)
	grad := make(mat.Vec, len(out))
	weights := make([]float64, n)
	bLosses := make([]float64, batch)

	steps := 0
	for epoch := 0; epoch < cfg.epochs; epoch++ {
		perm := rng.Perm(n)
		for start := 0; start < n; start += batch {
			end := start + batch
			if end > n {
				end = n
			}
			idx := perm[start:end]
			// Batch-level worst case: losses on the batch only.
			bl := bLosses[:len(idx)]
			bx, by := p.batchView(idx)
			model.ParLosses(l.pool, mdl, out, bx, by, bl)
			_, w := l.set.WorstCasePool(l.pool, bl, l.lipschitz(out))
			// Scatter batch weights into the full-weight vector.
			for i := range weights {
				weights[i] = 0
			}
			for k, i := range idx {
				weights[i] = w[k]
			}
			mat.Fill(grad, 0)
			model.ParWeightedGrad(l.pool, mdl, out, p.x, p.y, weights, grad)
			if rho := l.set.ThetaPenalty(); rho > 0 {
				l.lipschitzGrad(out, rho, grad)
			}
			if scaled != nil {
				l.prior.SurrogateGrad(out, scaled, grad, p.priorWork)
			}
			adam.Step(out, grad)
			steps++
		}
	}
	p.lastMStepIters = steps
	return out
}

// batchView materializes the selected rows as a small matrix + labels.
func (p *drdpProblem) batchView(idx []int) (*mat.Dense, []float64) {
	bx := mat.NewDense(len(idx), p.x.Cols)
	by := make([]float64, len(idx))
	for k, i := range idx {
		copy(bx.Row(k), p.x.Row(i))
		by[k] = p.y[i]
	}
	return bx, by
}
