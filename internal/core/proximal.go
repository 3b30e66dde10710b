package core

import (
	"errors"

	"github.com/drdp/drdp/internal/dro"
	"github.com/drdp/drdp/internal/mat"
	"github.com/drdp/drdp/internal/model"
	"github.com/drdp/drdp/internal/opt"
)

// WithProximalMStep switches the inner solver to proximal gradient
// descent, handling the Wasserstein dual-norm penalty ρ·‖w‖₂ through its
// exact proximal operator (block soft threshold) instead of a
// subgradient. Requires a model implementing model.BlockNormer
// (logistic); validated at construction. With non-Wasserstein sets
// the prox is the identity and the solver reduces to plain proximal GD.
//
// The proximal form converges faster near sparse/shrunk optima and can
// set the weight block exactly to zero at large ρ, which the default
// L-BFGS M-step, differentiating through the penalty, never does.
func WithProximalMStep() Option {
	return func(l *Learner) error {
		if _, ok := l.model.(model.BlockNormer); !ok {
			return errors.New("core: WithProximalMStep requires a model with a single penalized weight block (model.BlockNormer)")
		}
		l.proximal = true
		return nil
	}
}

// proximalMStep minimizes the surrogate objective with opt.ProxGD: the
// smooth part is the worst-case-weighted loss plus the τ-scaled prior
// surrogate; the Wasserstein penalty enters via its prox.
func (p *drdpProblem) proximalMStep(theta mat.Vec, scaled []float64) opt.Result {
	l := p.learner
	from, to := l.model.(model.BlockNormer).WeightBlock() // validated in WithProximalMStep

	rho := l.set.ThetaPenalty()
	// The smooth part must exclude the penalty the prox handles; for
	// KL/χ² sets ThetaPenalty is 0 and WorstCase carries everything.
	smoothSet := l.set
	if smoothSet.Kind == dro.Wasserstein {
		smoothSet = dro.Set{Kind: dro.None}
	}
	penalty := func(th mat.Vec) float64 {
		if rho == 0 {
			return 0
		}
		return rho * mat.Norm2(th[from:to])
	}
	return opt.ProxGD(p.surrogate(smoothSet, scaled), opt.ProxL2Block(rho, from, to), penalty, theta, l.mstep)
}
