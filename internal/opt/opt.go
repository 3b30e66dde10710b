// Package opt provides the optimizers used by drdp's M-step and
// baselines: limited-memory BFGS (the default M-step solver), full-batch
// gradient descent with Armijo backtracking (the baselines' solver),
// proximal gradient descent for composite objectives (smooth loss plus a
// dual-norm penalty), stochastic steppers (SGD with momentum, Adam) and
// the block soft-threshold proximal operator of the l2 norm.
package opt

import (
	"fmt"
	"math"

	"github.com/drdp/drdp/internal/mat"
)

// Func evaluates an objective at theta and, when grad is non-nil, writes
// ∇f(theta) into grad (overwriting it). It returns f(theta).
type Func func(theta mat.Vec, grad mat.Vec) float64

// Options configures the batch minimizers. The zero value picks sensible
// defaults.
type Options struct {
	MaxIter  int     // default 500
	Tol      float64 // first-order tolerance; default 1e-6
	InitStep float64 // initial line-search step; default 1.0

	// Forcing, when positive, makes LBFGS an inexact solve: it also stops
	// once ‖∇‖ ≤ Forcing·‖∇₀‖, ∇₀ being the gradient at its start. GD and
	// ProxGD ignore it.
	Forcing float64
}

func (o Options) withDefaults() Options {
	if o.MaxIter <= 0 {
		o.MaxIter = 500
	}
	if o.Tol <= 0 {
		o.Tol = 1e-6
	}
	if o.InitStep <= 0 {
		o.InitStep = 1.0
	}
	return o
}

// Result reports the outcome of a minimization.
type Result struct {
	Theta      mat.Vec
	Value      float64
	Iterations int
	Converged  bool
}

// GD minimizes f by gradient descent with Armijo backtracking line search,
// starting from theta0 (which is not modified).
func GD(f Func, theta0 mat.Vec, opts Options) Result {
	o := opts.withDefaults()
	theta := mat.CloneVec(theta0)
	grad := make(mat.Vec, len(theta))
	trial := make(mat.Vec, len(theta))
	value := f(theta, grad)
	step := o.InitStep

	var iter int
	for iter = 0; iter < o.MaxIter; iter++ {
		gnorm := mat.Norm2(grad)
		if gnorm <= o.Tol {
			return Result{Theta: theta, Value: value, Iterations: iter, Converged: true}
		}
		// Backtracking: find t with f(θ − t g) ≤ f(θ) − c t ‖g‖².
		const c, shrink = 1e-4, 0.5
		t := step
		var trialVal float64
		accepted := false
		for ls := 0; ls < 50; ls++ {
			copy(trial, theta)
			mat.Axpy(-t, grad, trial)
			trialVal = f(trial, nil)
			if trialVal <= value-c*t*gnorm*gnorm {
				accepted = true
				break
			}
			t *= shrink
		}
		if !accepted {
			// No descent direction progress possible at machine precision.
			return Result{Theta: theta, Value: value, Iterations: iter, Converged: false}
		}
		copy(theta, trial)
		value = f(theta, grad)
		// Mild step growth so a too-small initial step recovers.
		step = math.Min(t*2, o.InitStep*64)
	}
	return Result{Theta: theta, Value: value, Iterations: iter, Converged: false}
}

// Prox is a proximal operator: it maps theta in place to
// argmin_u  g(u) + ‖u − theta‖²/(2 step)  for its penalty g.
type Prox func(theta mat.Vec, step float64)

// ProxGD minimizes the composite objective f(θ) + g(θ) where f is smooth
// (evaluated by fn) and g enters only through its proximal operator. It
// uses backtracking on the standard quadratic upper-bound criterion.
// penalty evaluates g for progress reporting; it may be nil when the
// caller does not need composite values in Result.Value.
func ProxGD(fn Func, prox Prox, penalty func(mat.Vec) float64, theta0 mat.Vec, opts Options) Result {
	o := opts.withDefaults()
	theta := mat.CloneVec(theta0)
	grad := make(mat.Vec, len(theta))
	trial := make(mat.Vec, len(theta))
	fval := fn(theta, grad)
	step := o.InitStep

	total := func(v float64, th mat.Vec) float64 {
		if penalty == nil {
			return v
		}
		return v + penalty(th)
	}

	var iter int
	for iter = 0; iter < o.MaxIter; iter++ {
		t := step
		var trialF float64
		accepted := false
		for ls := 0; ls < 50; ls++ {
			copy(trial, theta)
			mat.Axpy(-t, grad, trial)
			prox(trial, t)
			trialF = fn(trial, nil)
			// Quadratic upper bound: f(u) ≤ f(θ) + ∇f(θ)ᵀ(u−θ) + ‖u−θ‖²/(2t).
			diff := mat.SubVec(trial, theta)
			ub := fval + mat.Dot(grad, diff) + mat.Dot(diff, diff)/(2*t)
			if trialF <= ub+1e-12 {
				accepted = true
				break
			}
			t /= 2
		}
		if !accepted {
			return Result{Theta: theta, Value: total(fval, theta), Iterations: iter, Converged: false}
		}
		moved := mat.Dist2(trial, theta)
		copy(theta, trial)
		fval = fn(theta, grad)
		step = math.Min(t*2, o.InitStep*64)
		if moved/t <= o.Tol { // generalized gradient norm
			return Result{Theta: theta, Value: total(fval, theta), Iterations: iter + 1,
				Converged: true}
		}
	}
	return Result{Theta: theta, Value: total(fval, theta), Iterations: iter, Converged: false}
}

// ProxL2Block returns a Prox applying the block soft threshold of
// coef·‖θ[from:to]‖₂ to the sub-slice [from, to): the standard proximal
// operator of a group-lasso / dual-norm penalty that leaves the remaining
// coordinates (for example the bias) untouched.
func ProxL2Block(coef float64, from, to int) Prox {
	if coef < 0 {
		panic(fmt.Sprintf("opt: ProxL2Block: negative coefficient %g", coef))
	}
	return func(theta mat.Vec, step float64) {
		if coef == 0 {
			return
		}
		block := theta[from:to]
		norm := mat.Norm2(block)
		t := step * coef
		if norm <= t {
			mat.Fill(block, 0)
			return
		}
		mat.Scale(1-t/norm, block)
	}
}

// SGD is a plain stochastic gradient stepper. The zero value is
// invalid; set LR > 0.
type SGD struct {
	LR float64 // learning rate, > 0
}

// Step applies one update θ ← θ − LR·grad.
func (s *SGD) Step(theta, grad mat.Vec) {
	if s.LR <= 0 {
		panic("opt: SGD: learning rate must be positive")
	}
	for i, g := range grad {
		theta[i] -= s.LR * g
	}
}

// Adam is the Adam stochastic stepper. Zero-value fields pick the usual
// defaults (beta1=0.9, beta2=0.999, eps=1e-8); LR must be set.
type Adam struct {
	LR    float64
	Beta1 float64
	Beta2 float64
	Eps   float64

	m, v mat.Vec
	t    int
}

// Step applies one Adam update in place.
func (a *Adam) Step(theta, grad mat.Vec) {
	if a.LR <= 0 {
		panic("opt: Adam: learning rate must be positive")
	}
	if a.Beta1 == 0 {
		a.Beta1 = 0.9
	}
	if a.Beta2 == 0 {
		a.Beta2 = 0.999
	}
	if a.Eps == 0 {
		a.Eps = 1e-8
	}
	if a.m == nil {
		a.m = make(mat.Vec, len(theta))
		a.v = make(mat.Vec, len(theta))
	}
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for i, g := range grad {
		a.m[i] = a.Beta1*a.m[i] + (1-a.Beta1)*g
		a.v[i] = a.Beta2*a.v[i] + (1-a.Beta2)*g*g
		theta[i] -= a.LR * (a.m[i] / bc1) / (math.Sqrt(a.v[i]/bc2) + a.Eps)
	}
}
