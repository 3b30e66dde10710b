// Package baseline implements the comparison methods the paper's
// evaluation measures DRDP against — the "standard learning approaches
// using local edge data only" of the abstract, plus the standard
// knowledge-transfer alternatives:
//
//   - ERM: local maximum-likelihood training, no prior, no robustness.
//   - Ridge: ERM with an l2 penalty (the strongest purely-local recipe).
//   - GaussMAP: MAP with a single Gaussian prior at the cloud mean — what
//     knowledge transfer looks like without the DP mixture.
//   - CloudOnly: ship the cloud's model, no local adaptation at all.
//   - FineTune: start from the cloud model, take a few local steps.
//   - DRO: distributionally robust training without any prior.
//
// All baselines implement Trainer so the experiment harness can sweep
// them uniformly.
package baseline

import (
	"errors"
	"fmt"

	"github.com/drdp/drdp/internal/core"
	"github.com/drdp/drdp/internal/dro"
	"github.com/drdp/drdp/internal/mat"
	"github.com/drdp/drdp/internal/model"
	"github.com/drdp/drdp/internal/opt"
)

// Trainer trains model parameters on a local sample.
type Trainer interface {
	// Name identifies the method in experiment tables.
	Name() string
	// Train returns fitted flattened parameters.
	Train(x *mat.Dense, y []float64) (mat.Vec, error)
}

// ERM is plain empirical risk minimization.
type ERM struct {
	Model model.Model
}

var _ Trainer = ERM{}

// Name implements Trainer.
func (e ERM) Name() string { return "local-erm" }

// Train implements Trainer.
func (e ERM) Train(x *mat.Dense, y []float64) (mat.Vec, error) {
	// The M-step runs to opt's defaults (up to 500 iterations), not the
	// learner's own 200-iteration cap.
	l, err := core.New(e.Model, core.WithMStepOptions(opt.Options{}))
	if err != nil {
		return nil, fmt.Errorf("baseline: erm: %w", err)
	}
	res, err := l.Fit(x, y)
	if err != nil {
		return nil, fmt.Errorf("baseline: erm: %w", err)
	}
	return res.Params, nil
}

// Ridge is l2-regularized ERM: mean loss + (Lambda/2)‖θ‖².
type Ridge struct {
	Model  model.Model
	Lambda float64
	Opts   opt.Options
}

var _ Trainer = Ridge{}

// Name implements Trainer.
func (r Ridge) Name() string { return "local-ridge" }

// Train implements Trainer.
func (r Ridge) Train(x *mat.Dense, y []float64) (mat.Vec, error) {
	if r.Lambda < 0 {
		return nil, fmt.Errorf("baseline: ridge: negative lambda %g", r.Lambda)
	}
	return fitPenalized(r.Model, x, y, r.Opts, func(theta, grad mat.Vec) float64 {
		v := 0.5 * r.Lambda * mat.Dot(theta, theta)
		if grad != nil {
			mat.Axpy(r.Lambda, theta, grad)
		}
		return v
	}, nil)
}

// GaussMAP is MAP estimation under a single Gaussian prior N(Mu, I/Lambda):
// mean loss + (Lambda/2)‖θ − Mu‖². This is standard cloud-to-edge transfer
// without the Dirichlet-process mixture.
type GaussMAP struct {
	Model  model.Model
	Mu     mat.Vec
	Lambda float64
}

var _ Trainer = GaussMAP{}

// Name implements Trainer.
func (g GaussMAP) Name() string { return "gauss-map" }

// Train implements Trainer.
func (g GaussMAP) Train(x *mat.Dense, y []float64) (mat.Vec, error) {
	if g.Lambda < 0 {
		return nil, fmt.Errorf("baseline: gauss-map: negative lambda %g", g.Lambda)
	}
	if len(g.Mu) != g.Model.NumParams() {
		return nil, fmt.Errorf("baseline: gauss-map: prior mean dim %d, want %d",
			len(g.Mu), g.Model.NumParams())
	}
	return fitPenalized(g.Model, x, y, opt.Options{}, func(theta, grad mat.Vec) float64 {
		diff := mat.SubVec(theta, g.Mu)
		v := 0.5 * g.Lambda * mat.Dot(diff, diff)
		if grad != nil {
			mat.Axpy(g.Lambda, diff, grad)
		}
		return v
	}, g.Mu)
}

// CloudOnly returns the cloud's parameters untouched: zero local learning.
type CloudOnly struct {
	Params mat.Vec
}

var _ Trainer = CloudOnly{}

// Name implements Trainer.
func (c CloudOnly) Name() string { return "cloud-only" }

// Train implements Trainer.
func (c CloudOnly) Train(x *mat.Dense, y []float64) (mat.Vec, error) {
	if len(c.Params) == 0 {
		return nil, errors.New("baseline: cloud-only: no cloud parameters")
	}
	return mat.CloneVec(c.Params), nil
}

// FineTune starts from the cloud parameters and runs a budgeted number of
// local gradient-descent iterations (early-stopping transfer).
type FineTune struct {
	Model model.Model
	Init  mat.Vec
	Steps int // default 10
}

var _ Trainer = FineTune{}

// Name implements Trainer.
func (f FineTune) Name() string { return "fine-tune" }

// Train implements Trainer.
func (f FineTune) Train(x *mat.Dense, y []float64) (mat.Vec, error) {
	if len(f.Init) != f.Model.NumParams() {
		return nil, fmt.Errorf("baseline: fine-tune: init dim %d, want %d",
			len(f.Init), f.Model.NumParams())
	}
	steps := f.Steps
	if steps <= 0 {
		steps = 10
	}
	// Gradient descent, not the learner's L-BFGS M-step: the step budget
	// is the early stopping that keeps the result near the cloud model.
	return fitPenalized(f.Model, x, y, opt.Options{MaxIter: steps, Tol: 1e-12},
		func(mat.Vec, mat.Vec) float64 { return 0 }, f.Init)
}

// DRO trains with an uncertainty set but no prior: robustness without
// knowledge transfer.
type DRO struct {
	Model model.Model
	Set   dro.Set
}

var _ Trainer = DRO{}

// Name implements Trainer.
func (d DRO) Name() string { return "dro-noprior" }

// Train implements Trainer.
func (d DRO) Train(x *mat.Dense, y []float64) (mat.Vec, error) {
	l, err := core.New(d.Model,
		core.WithUncertaintySet(d.Set),
		core.WithMStepOptions(opt.Options{})) // as ERM's M-step
	if err != nil {
		return nil, fmt.Errorf("baseline: dro: %w", err)
	}
	res, err := l.Fit(x, y)
	if err != nil {
		return nil, fmt.Errorf("baseline: dro: %w", err)
	}
	return res.Params, nil
}

// fitPenalized minimizes mean loss + penalty(θ) by gradient descent.
// init may be nil for a zero start.
func fitPenalized(m model.Model, x *mat.Dense, y []float64, opts opt.Options,
	penalty func(theta, grad mat.Vec) float64, init mat.Vec) (mat.Vec, error) {
	if x == nil || x.Rows == 0 {
		return nil, errors.New("baseline: empty training set")
	}
	if x.Rows != len(y) {
		return nil, fmt.Errorf("baseline: %d rows but %d labels", x.Rows, len(y))
	}
	n := x.Rows
	uniform := make([]float64, n)
	for i := range uniform {
		uniform[i] = 1 / float64(n)
	}
	losses := make([]float64, n)
	f := func(theta, grad mat.Vec) float64 {
		m.Losses(theta, x, y, losses)
		v := mat.Mean(losses)
		if grad != nil {
			mat.Fill(grad, 0)
			m.WeightedGrad(theta, x, y, uniform, grad)
		}
		return v + penalty(theta, grad)
	}
	theta0 := make(mat.Vec, m.NumParams())
	if init != nil {
		copy(theta0, init)
	}
	if opts.MaxIter == 0 {
		opts.MaxIter = 300
	}
	res := opt.GD(f, theta0, opts)
	return res.Theta, nil
}
