// Package em provides the expectation-maximization machinery behind
// drdp's convex relaxation: a generic majorize-minimize loop with
// convergence monitoring, plus a classic Gaussian-mixture EM fitter used
// by the data pipeline and as an alternative cloud-side clusterer.
package em

import (
	"fmt"
	"math"
)

// Problem is one majorize-minimize (EM-style) problem. EStep builds the
// surrogate state at the current iterate; MStep minimizes the surrogate
// and returns the next iterate. Objective evaluates the true objective
// being descended (used for the convergence test and the monotonicity
// guarantee).
type Problem[T any] interface {
	EStep(theta []float64) T
	MStep(theta []float64, aux T) []float64
	Objective(theta []float64) float64
}

// Options configures Run. The zero value picks defaults.
type Options struct {
	MaxIters int     // default 50
	Tol      float64 // relative objective change tolerance; default 1e-6

	// OnIter, when non-nil, is invoked after every completed E/M
	// iteration. Long work inside the hook stalls the loop; it is meant
	// for counting iterations.
	OnIter func()
}

// Result reports an EM run.
type Result struct {
	Theta      []float64
	Objective  float64
	Trace      []float64 // objective after each iteration (including initial)
	Iterations int
	Converged  bool
}

// Run iterates E/M steps until the relative objective change drops below
// tol or MaxIters is reached. The trace always starts with the objective
// at theta0, so monotonicity checks can compare adjacent entries.
func Run[T any](p Problem[T], theta0 []float64, opts Options) Result {
	if opts.MaxIters <= 0 {
		opts.MaxIters = 50
	}
	if opts.Tol <= 0 {
		opts.Tol = 1e-6
	}
	theta := append([]float64(nil), theta0...)
	obj := p.Objective(theta)
	trace := []float64{obj}

	for iter := 1; iter <= opts.MaxIters; iter++ {
		aux := p.EStep(theta)
		theta = p.MStep(theta, aux)
		next := p.Objective(theta)
		trace = append(trace, next)
		if opts.OnIter != nil {
			opts.OnIter()
		}
		rel := math.Abs(obj-next) / (1 + math.Abs(obj))
		obj = next
		if rel < opts.Tol {
			return Result{Theta: theta, Objective: obj, Trace: trace, Iterations: iter, Converged: true}
		}
	}
	return Result{Theta: theta, Objective: obj, Trace: trace, Iterations: opts.MaxIters, Converged: false}
}

// CheckMonotone returns an error naming the first iteration at which the
// objective trace increased by more than tol — the diagnostic drdp's
// tests use to enforce the MM descent property.
func CheckMonotone(trace []float64, tol float64) error {
	for i := 1; i < len(trace); i++ {
		if trace[i] > trace[i-1]+tol {
			return fmt.Errorf("em: objective increased at iteration %d: %g -> %g",
				i, trace[i-1], trace[i])
		}
	}
	return nil
}
