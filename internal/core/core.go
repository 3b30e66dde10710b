// Package core implements the paper's primary contribution: the
// distributionally robust edge learner with a Dirichlet-process prior
// (DRDP). An edge device with a small local sample solves
//
//	min_θ  sup_{Q ∈ B_ρ(P̂_n)} E_Q[ℓ(θ; ξ)]  +  τ · (−log p(θ))
//
// where B_ρ is the local uncertainty ball (Wasserstein, KL or χ²), p is
// the truncated DP mixture prior received from the cloud, and τ is the
// prior weight (default 1/n, so cloud knowledge dominates when local
// evidence is scarce and washes out as n grows).
//
// The inner sup is collapsed by duality (see package dro); the mixture
// prior's non-convex −log p is handled by the paper's EM-inspired convex
// relaxation: the E-step computes component responsibilities at the
// current iterate, the M-step minimizes the resulting convex quadratic
// surrogate plus the single-layer robust loss.
package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/dro"
	"github.com/drdp/drdp/internal/em"
	"github.com/drdp/drdp/internal/mat"
	"github.com/drdp/drdp/internal/model"
	"github.com/drdp/drdp/internal/opt"
	"github.com/drdp/drdp/internal/parallel"
	"github.com/drdp/drdp/internal/telemetry"
)

// Learner is a configured DRDP edge learner. Construct with New; the
// zero value is not usable.
//
// A Learner is immutable after New and safe for concurrent use: Fit,
// Predict and Certificate may be called from any number of goroutines at
// once. Each Fit call allocates its own scratch state (per-start when
// multi-start runs in parallel), so concurrent fits never share buffers;
// the only shared mutable state is the drdp_core_* telemetry, whose
// instruments are atomic.
type Learner struct {
	model       model.Model
	set         dro.Set
	prior       *dpprior.Compiled
	priorWeight float64 // τ; 0 means "use 1/n at fit time"
	emIters     int
	emTol       float64
	mstep       opt.Options
	init        mat.Vec
	sgd         *sgdConfig
	proximal    bool
	lbfgsMem    int            // > 0 selects the L-BFGS inner solver
	ground      dro.GroundNorm // transport cost of the Wasserstein ball
	pool        *parallel.Pool // nil = inline serial reference path
}

// Option configures a Learner.
type Option func(*Learner) error

// WithUncertaintySet selects the local uncertainty ball (default: none).
func WithUncertaintySet(s dro.Set) Option {
	return func(l *Learner) error {
		if err := s.Validate(); err != nil {
			return err
		}
		l.set = s
		return nil
	}
}

// WithParallelism fans the training hot paths — per-sample losses,
// worst-case weight solves, weighted gradients, E-step component
// densities and the multi-start EM runs — out over n worker goroutines;
// n <= 0 picks runtime.GOMAXPROCS(0). The default (no option) runs
// everything inline on the calling goroutine.
//
// Parallelism never changes the result: work is split on the fixed chunk
// grid of package parallel and partials combine by its fixed-order tree
// reduction, so a fit with any parallelism is bit-for-bit identical to
// the inline path.
func WithParallelism(n int) Option {
	return func(l *Learner) error {
		l.pool = parallel.New(n)
		return nil
	}
}

// WithPrior installs the cloud DP prior (compiled form).
func WithPrior(p *dpprior.Compiled) Option {
	return func(l *Learner) error {
		if p == nil {
			return errors.New("core: WithPrior: nil prior")
		}
		l.prior = p
		return nil
	}
}

// WithPriorWeight overrides the prior weight τ (default 1/n).
func WithPriorWeight(tau float64) Option {
	return func(l *Learner) error {
		if !(tau >= 0) || math.IsInf(tau, 1) {
			return fmt.Errorf("core: prior weight %g must be finite and non-negative", tau)
		}
		l.priorWeight = tau
		return nil
	}
}

// WithEMIters sets the maximum EM iterations (default 25) and the
// relative-objective convergence tolerance (default 1e-6; pass 0 to keep).
func WithEMIters(iters int, tol float64) Option {
	return func(l *Learner) error {
		if iters <= 0 {
			return fmt.Errorf("core: EM iterations %d must be positive", iters)
		}
		l.emIters = iters
		if tol > 0 {
			l.emTol = tol
		}
		return nil
	}
}

// WithMStepOptions overrides the inner convex solver's options.
func WithMStepOptions(o opt.Options) Option {
	return func(l *Learner) error {
		l.mstep = o
		return nil
	}
}

// WithInit sets the initial parameters, disabling the default multi-start
// strategy (default without this option: one EM run per prior component
// mean plus a zero start, best final objective wins; zeros without a
// prior).
func WithInit(theta mat.Vec) Option {
	return func(l *Learner) error {
		l.init = mat.CloneVec(theta)
		return nil
	}
}

// WithGroundMetric selects the Wasserstein ball's transport cost (the
// norm bounding sample perturbations); the training penalty becomes the
// corresponding dual norm of the weights: ℓ2→‖w‖₂ (default), ℓ1→‖w‖∞,
// ℓ∞→‖w‖₁ (the sign-attack geometry). Non-ℓ2 metrics require a model
// with a single penalized weight block (model.BlockNormer).
func WithGroundMetric(g dro.GroundNorm) Option {
	return func(l *Learner) error {
		if g != dro.GroundL2 {
			if _, ok := l.model.(model.BlockNormer); !ok {
				return fmt.Errorf("core: ground metric %v requires a model with a single weight block", g)
			}
		}
		l.ground = g
		return nil
	}
}

// lipschitz returns the loss's feature-Lipschitz constant under the
// configured ground metric.
func (l *Learner) lipschitz(params mat.Vec) float64 {
	if l.ground == dro.GroundL2 {
		return l.model.Lipschitz(params)
	}
	bn := l.model.(model.BlockNormer) // validated in WithGroundMetric
	from, to := bn.WeightBlock()
	return l.ground.Dual(params[from:to])
}

// lipschitzGrad accumulates coef·∂lipschitz/∂θ into grad.
func (l *Learner) lipschitzGrad(params mat.Vec, coef float64, grad mat.Vec) {
	if l.ground == dro.GroundL2 {
		l.model.LipschitzGrad(params, coef, grad)
		return
	}
	bn := l.model.(model.BlockNormer)
	from, to := bn.WeightBlock()
	l.ground.DualGrad(params[from:to], coef, grad[from:to])
}

// New builds a learner for the given model.
func New(m model.Model, options ...Option) (*Learner, error) {
	if m == nil {
		return nil, errors.New("core: New: nil model")
	}
	l := &Learner{
		model:   m,
		emIters: 25,
		emTol:   1e-6,
		mstep:   opt.Options{MaxIter: 200, Tol: 1e-6},
	}
	for _, o := range options {
		if err := o(l); err != nil {
			return nil, err
		}
	}
	if l.prior != nil && l.prior.Dim() != m.NumParams() {
		return nil, fmt.Errorf("core: prior dimension %d does not match model parameter count %d",
			l.prior.Dim(), m.NumParams())
	}
	if l.init != nil && len(l.init) != m.NumParams() {
		return nil, fmt.Errorf("core: init length %d does not match model parameter count %d",
			len(l.init), m.NumParams())
	}
	if l.proximal && l.ground != dro.GroundL2 {
		return nil, fmt.Errorf("core: the proximal M-step implements the ℓ2 dual-norm prox only; ground metric %v is not supported", l.ground)
	}
	return l, nil
}

// Result reports a completed fit.
type Result struct {
	// Params are the learned flattened model parameters.
	Params mat.Vec
	// Objective is the final DRDP objective value.
	Objective float64
	// Trace records the objective after each EM iteration, starting with
	// the value at the initial point; it is non-increasing by the MM
	// descent property.
	Trace []float64
	// Responsibilities are the final E-step responsibilities over the
	// prior's components (last entry = base measure); nil without a prior.
	Responsibilities []float64
	// RobustLoss is the final worst-case training loss over the ball —
	// the robustness certificate.
	RobustLoss float64
	// EmpiricalLoss is the final plain average training loss.
	EmpiricalLoss float64
	// EMIterations is the number of EM iterations executed.
	EMIterations int
	// Converged reports whether the EM loop met its tolerance.
	Converged bool
}

// Fit trains on the local sample (x rows are feature vectors; y carries
// labels in the model's convention) and returns the result.
func (l *Learner) Fit(x *mat.Dense, y []float64) (*Result, error) {
	if x == nil || x.Rows == 0 {
		return nil, errors.New("core: Fit: empty training set")
	}
	if x.Rows != len(y) {
		return nil, fmt.Errorf("core: Fit: %d rows but %d labels", x.Rows, len(y))
	}
	if x.Cols != l.model.InputDim() {
		return nil, fmt.Errorf("core: Fit: %d feature columns, want %d", x.Cols, l.model.InputDim())
	}
	n := x.Rows
	tau := l.priorWeight
	if tau == 0 && l.prior != nil {
		tau = 1 / float64(n)
	}

	prob := newProblem(l, x, y, tau)

	fitStart := time.Now()
	telemetry.ParallelWorkers.Set(float64(l.pool.Workers()))
	var res em.Result
	if l.prior == nil {
		// No prior: a single convex M-step solves the whole problem.
		theta := prob.mStep(l.startingPoints()[0], nil)
		obj := prob.objective(theta)
		res = em.Result{Theta: theta, Objective: obj, Trace: []float64{obj},
			Iterations: 1, Converged: true}
		prob.recordIteration(obj, 0)
	} else {
		// The mixture prior makes the objective multi-basin; run EM from
		// each candidate start and keep the best final objective, so the
		// local data can veto a misleading cloud component.
		res = l.runStarts(prob)
	}

	final := mat.Vec(res.Theta)
	robust, _ := prob.score(final, l.set)
	out := &Result{
		Params:        final,
		Objective:     res.Objective,
		Trace:         res.Trace,
		RobustLoss:    robust,
		EmpiricalLoss: mat.Mean(prob.losses),
		EMIterations:  res.Iterations,
		Converged:     res.Converged,
	}
	if l.prior != nil {
		out.Responsibilities = l.prior.ResponsibilitiesPool(l.pool, final)
	}

	// Publish the winning run: final objective/delta gauges and the
	// per-iteration objective trace from the start that won the
	// multi-start selection.
	telemetry.CoreFits.Inc()
	telemetry.CoreFitSeconds.Observe(time.Since(fitStart).Seconds())
	telemetry.CoreObjective.Set(res.Objective)
	if k := len(res.Trace); k >= 2 {
		telemetry.CoreObjectiveDelta.Set(res.Trace[k-1] - res.Trace[k-2])
	}
	telemetry.SetEMTrace(res.Trace)
	return out, nil
}

// runStarts executes one EM run per starting point and returns the run
// with the best final objective (first-best on ties, in start order —
// the same selection the sequential loop makes). With a multi-worker
// pool the starts run concurrently on their own goroutines, each on a
// private clone of the problem (own loss scratch and inner-solver
// stats); each run's computation is unchanged, so the winner is
// bit-identical to the sequential path.
func (l *Learner) runStarts(prob *drdpProblem) em.Result {
	starts := l.startingPoints()
	opts := func(p *drdpProblem) em.Options {
		return em.Options{MaxIters: l.emIters, Tol: l.emTol, OnIter: func(it em.Iteration) {
			p.recordIteration(it.Objective, it.Objective-it.Prev)
		}}
	}
	runs := make([]em.Result, len(starts))
	if l.pool.Workers() > 1 && len(starts) > 1 {
		telemetry.CoreParallelStarts.Add(float64(len(starts)))
		var (
			wg      sync.WaitGroup
			panicMu sync.Mutex
			panicV  any
		)
		wg.Add(len(starts))
		for i, start := range starts {
			go func(i int, start mat.Vec) {
				defer wg.Done()
				defer func() {
					if r := recover(); r != nil {
						panicMu.Lock()
						if panicV == nil {
							panicV = r
						}
						panicMu.Unlock()
					}
				}()
				p := prob.clone()
				runs[i] = em.Run[[]float64](p, start, opts(p))
			}(i, start)
		}
		wg.Wait()
		if panicV != nil {
			panic(panicV)
		}
	} else {
		for i, start := range starts {
			runs[i] = em.Run[[]float64](prob, start, opts(prob))
		}
	}
	best := runs[0]
	for _, run := range runs[1:] {
		if run.Objective < best.Objective {
			best = run
		}
	}
	return best
}

// Predict returns the model prediction for one feature vector under the
// fitted parameters.
func (l *Learner) Predict(params mat.Vec, x mat.Vec) float64 {
	return l.model.Predict(params, x)
}

// Certificate returns the worst-case expected loss of params over the
// configured uncertainty ball centered at the empirical distribution of
// (x, y) — an out-of-sample robustness certificate.
func (l *Learner) Certificate(params mat.Vec, x *mat.Dense, y []float64) float64 {
	losses := model.ParLosses(l.pool, l.model, params, x, y, nil)
	v, _ := l.set.WorstCasePool(l.pool, losses, l.lipschitz(params))
	return v
}

// Model returns the learner's model.
func (l *Learner) Model() model.Model { return l.model }

// Set returns the learner's uncertainty set.
func (l *Learner) Set() dro.Set { return l.set }

// startingPoints returns the EM starts: the explicit init when given;
// otherwise every prior component mean plus a zero (base-basin) start.
// Without a prior it is a single zero start.
func (l *Learner) startingPoints() []mat.Vec {
	if l.init != nil {
		return []mat.Vec{mat.CloneVec(l.init)}
	}
	p := l.model.NumParams()
	if l.prior == nil || l.prior.NumComponents() == 0 {
		return []mat.Vec{make(mat.Vec, p)}
	}
	starts := make([]mat.Vec, 0, l.prior.NumComponents()+1)
	for _, c := range l.prior.Prior.Components {
		starts = append(starts, mat.CloneVec(c.Mu))
	}
	starts = append(starts, make(mat.Vec, p))
	return starts
}

// drdpProblem adapts the DRDP objective to the em.Problem interface.
// The E-step aux value is the responsibility vector γ.
type drdpProblem struct {
	learner *Learner
	x       *mat.Dense
	y       []float64
	tau     float64
	batch   *model.Batch // x, y on the chunk grid; holds the sweep memo

	// Per-iteration scratch: the τ-scaled responsibilities and the prior
	// surrogate's work space (nil without a prior).
	scaled    []float64
	priorWork mat.Vec

	// Memo of the last point score evaluated: the point, its per-sample
	// losses, and the worst-case value and weights under set. worstAt is
	// false until value and weights belong to (theta, set).
	theta   mat.Vec   // nil before the first score
	losses  []float64 // length n
	weights []float64 // length n
	value   float64
	set     dro.Set
	worstAt bool

	// Inner-solver stats from the most recent mStep call, read by
	// recordIteration right after each EM iteration (the EM loop is
	// sequential, so no synchronization is needed).
	lastMStepIters int
	lastGradNorm   float64
}

var _ em.Problem[[]float64] = (*drdpProblem)(nil)

func newProblem(l *Learner, x *mat.Dense, y []float64, tau float64) *drdpProblem {
	p := &drdpProblem{
		learner: l,
		x:       x,
		y:       y,
		tau:     tau,
		batch:   model.NewBatch(l.model, x, y),
		losses:  make([]float64, x.Rows),
		weights: make([]float64, x.Rows),
	}
	if l.prior != nil {
		p.scaled = make([]float64, l.prior.NumComponents()+1)
		p.priorWork = make(mat.Vec, l.prior.SurrogateScratch())
	}
	return p
}

// clone returns a problem sharing the learner and data but with private
// scratch and memo, so parallel multi-start runs never race on the loss
// and weight buffers or the inner-solver stats.
func (p *drdpProblem) clone() *drdpProblem {
	return newProblem(p.learner, p.x, p.y, p.tau)
}

// recordIteration publishes one EM iteration, with the stats of the
// M-step that produced it, to the drdp_core_* telemetry. Every
// instrument is atomic, so parallel starts and concurrent fits publish
// without a lock.
func (p *drdpProblem) recordIteration(objective, delta float64) {
	telemetry.CoreEMIterations.Inc()
	telemetry.CoreMStepIters.Add(float64(p.lastMStepIters))
	telemetry.CoreObjective.Set(objective)
	telemetry.CoreObjectiveDelta.Set(delta)
	telemetry.CoreGradNorm.Set(p.lastGradNorm)
}

// EStep computes prior responsibilities at the current iterate.
func (p *drdpProblem) EStep(theta []float64) []float64 {
	return p.learner.prior.ResponsibilitiesPool(p.learner.pool, theta)
}

// MStep minimizes the convex surrogate
//
//	F(θ; γ) = worst-case loss (via duality) + τ·S(θ; γ)
//
// starting from the current iterate, so the MM descent property holds.
func (p *drdpProblem) MStep(theta []float64, gamma []float64) []float64 {
	return p.mStep(mat.Vec(theta), gamma)
}

func (p *drdpProblem) mStep(theta mat.Vec, gamma []float64) mat.Vec {
	l := p.learner
	// The surrogate is linear in the responsibilities, so folding the
	// prior weight τ into them keeps value and gradient consistent.
	var scaled []float64
	if gamma != nil {
		scaled = p.scaled
		for i, g := range gamma {
			scaled[i] = p.tau * g
		}
	}
	var res opt.Result
	switch {
	case l.sgd != nil:
		return p.stochasticMStep(theta, scaled)
	case l.proximal:
		res = p.proximalMStep(theta, scaled)
	case l.lbfgsMem > 0:
		res = opt.LBFGS(p.surrogate(l.set, scaled), theta, opt.LBFGSOptions{Options: l.mstep, Memory: l.lbfgsMem})
	default:
		res = opt.GD(p.surrogate(l.set, scaled), theta, l.mstep)
	}
	p.lastMStepIters, p.lastGradNorm = res.Iterations, res.GradNorm
	return res.Theta
}

// surrogate returns the batch M-step objective: the worst-case loss over
// set plus the τ-scaled prior surrogate (scaled is nil without a prior),
// with its gradient.
func (p *drdpProblem) surrogate(set dro.Set, scaled []float64) opt.Func {
	l := p.learner
	return func(th mat.Vec, grad mat.Vec) float64 {
		value, weights := p.score(th, set)
		if scaled != nil {
			value += l.prior.SurrogateValue(th, scaled, p.priorWork)
		}
		if grad != nil {
			mat.Fill(grad, 0)
			// Danskin: gradient through the worst-case weights; normalize
			// by n is built into weights (they sum to 1). score just swept
			// th, so the batch's memo is th's.
			p.batch.WeightedGrad(l.pool, th, weights, grad)
			if rho := set.ThetaPenalty(); rho > 0 {
				l.lipschitzGrad(th, rho, grad)
			}
			if scaled != nil {
				l.prior.SurrogateGrad(th, scaled, grad, p.priorWork)
			}
		}
		return value
	}
}

// Objective evaluates the true DRDP objective (robust loss + τ·(−log p)).
func (p *drdpProblem) objective(theta mat.Vec) float64 {
	l := p.learner
	v, _ := p.score(theta, l.set)
	if l.prior != nil {
		v += p.tau * -l.prior.LogDensity(theta)
	}
	return v
}

// score returns the worst-case loss of theta over set and the worst-case
// weights, for the batch M-step solvers, the EM objective and the final
// certificate. It remembers the last point, so asking again for it — an
// accepted line-search trial re-evaluated with its gradient, the M-step's
// result scored by the objective, the next M-step's opening call — costs
// no data sweep or dual solve.
//
// The memo is keyed by θ's bit pattern (math.Float64bits, not ==, so −0
// and +0 stay distinct points) and by the set: the losses depend on θ
// alone and survive a change of set, the worst case is recomputed from
// them. A hit returns exactly the bits the miss computed, so the memo
// cannot change a result. The weights and p.losses stay valid until the
// next score call.
func (p *drdpProblem) score(theta mat.Vec, set dro.Set) (float64, []float64) {
	l := p.learner
	if !sameBits(p.theta, theta) {
		p.batch.Losses(l.pool, theta, p.losses)
		p.theta = append(p.theta[:0], theta...)
		p.worstAt = false
	}
	if !p.worstAt || p.set != set {
		p.value = set.WorstCaseInto(l.pool, p.losses, l.lipschitz(theta), p.weights)
		p.set, p.worstAt = set, true
	}
	return p.value, p.weights
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b mat.Vec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// Objective implements em.Problem.
func (p *drdpProblem) Objective(theta []float64) float64 {
	return p.objective(mat.Vec(theta))
}
