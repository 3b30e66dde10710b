package opt

import (
	"math"
	"math/rand"
	"testing"

	"github.com/drdp/drdp/internal/mat"
)

func TestLBFGSQuadratic(t *testing.T) {
	c := mat.Vec{1, -2, 3, 0.5}
	f := quadratic(c, mat.Vec{1, 10, 100, 0.1}) // badly conditioned
	res := LBFGS(f, make(mat.Vec, 4), Options{Tol: 1e-9})
	if !res.Converged {
		t.Fatalf("LBFGS did not converge: %+v", res)
	}
	if mat.Dist2(res.Theta, c) > 1e-5 {
		t.Errorf("solution %v, want %v", res.Theta, c)
	}
}

func TestLBFGSRosenbrockFasterThanGD(t *testing.T) {
	rosen := func(theta, grad mat.Vec) float64 {
		x, y := theta[0], theta[1]
		v := (1-x)*(1-x) + 100*(y-x*x)*(y-x*x)
		if grad != nil {
			grad[0] = -2*(1-x) - 400*x*(y-x*x)
			grad[1] = 200 * (y - x*x)
		}
		return v
	}
	lb := LBFGS(rosen, mat.Vec{-1.2, 1}, Options{MaxIter: 500, Tol: 1e-8})
	if lb.Value > 1e-10 {
		t.Errorf("LBFGS Rosenbrock value %v after %d iters", lb.Value, lb.Iterations)
	}
	gd := GD(rosen, mat.Vec{-1.2, 1}, Options{MaxIter: 500, Tol: 1e-8})
	if lb.Iterations >= gd.Iterations && gd.Converged {
		t.Errorf("LBFGS (%d iters) not faster than GD (%d iters)", lb.Iterations, gd.Iterations)
	}
}

func TestLBFGSLogisticLikeObjective(t *testing.T) {
	// Smooth convex logistic-style objective with an l2 term; LBFGS and
	// GD must agree on the optimum.
	rng := rand.New(rand.NewSource(60))
	const n, d = 80, 6
	xs := make([]mat.Vec, n)
	ys := make([]float64, n)
	wstar := make(mat.Vec, d)
	for j := range wstar {
		wstar[j] = rng.NormFloat64()
	}
	for i := range xs {
		xs[i] = make(mat.Vec, d)
		for j := range xs[i] {
			xs[i][j] = rng.NormFloat64()
		}
		if mat.Dot(wstar, xs[i]) > 0 {
			ys[i] = 1
		} else {
			ys[i] = -1
		}
	}
	f := func(theta, grad mat.Vec) float64 {
		if grad != nil {
			mat.Fill(grad, 0)
		}
		var v float64
		for i := range xs {
			m := ys[i] * mat.Dot(theta, xs[i])
			// log(1+e^-m) with stable computation and gradient.
			var loss, sig float64
			if m > 30 {
				loss, sig = 0, 0
			} else if m < -30 {
				loss, sig = -m, 1
			} else {
				sig = 1 / (1 + math.Exp(m))
				loss = math.Log(1 + math.Exp(-m))
			}
			v += loss / n
			if grad != nil {
				mat.Axpy(-ys[i]*sig/n, xs[i], grad)
			}
		}
		v += 0.05 * mat.Dot(theta, theta)
		if grad != nil {
			mat.Axpy(0.1, theta, grad)
		}
		return v
	}
	lb := LBFGS(f, make(mat.Vec, d), Options{Tol: 1e-8})
	gd := GD(f, make(mat.Vec, d), Options{Tol: 1e-8, MaxIter: 5000})
	if mat.Dist2(lb.Theta, gd.Theta) > 1e-4 {
		t.Errorf("LBFGS %v vs GD %v", lb.Theta, gd.Theta)
	}
}

func TestLBFGSRespectsMaxIter(t *testing.T) {
	f := quadratic(mat.Vec{100}, mat.Vec{0.0001})
	res := LBFGS(f, mat.Vec{0}, Options{MaxIter: 2})
	if res.Iterations > 2 {
		t.Errorf("ran %d iterations", res.Iterations)
	}
}

// TestLBFGSAllocBudget: the curvature pairs live in a ring allocated
// with the rest of the solver's scratch, so a solve that wraps the ring
// many times allocates exactly what a short one does.
func TestLBFGSAllocBudget(t *testing.T) {
	// Extended Rosenbrock in 20 dimensions: far enough from converging
	// that both caps below are reached.
	const dim = 20
	rosen := func(theta, grad mat.Vec) float64 {
		var v float64
		if grad != nil {
			mat.Fill(grad, 0)
		}
		for i := 0; i+1 < dim; i += 2 {
			x, y := theta[i], theta[i+1]
			v += (1-x)*(1-x) + 100*(y-x*x)*(y-x*x)
			if grad != nil {
				grad[i] = -2*(1-x) - 400*x*(y-x*x)
				grad[i+1] = 200 * (y - x*x)
			}
		}
		return v
	}
	start := make(mat.Vec, dim)
	for i := range start {
		start[i] = -1.2
		if i%2 == 1 {
			start[i] = 1
		}
	}
	allocs := func(maxIter int) (float64, int) {
		var iters int
		a := testing.AllocsPerRun(5, func() {
			iters = LBFGS(rosen, start, Options{MaxIter: maxIter, Tol: 1e-12}).Iterations
		})
		return a, iters
	}
	short, shortIters := allocs(4)
	long, longIters := allocs(30)
	if shortIters != 4 || longIters != 30 {
		t.Fatalf("the solves stopped early: %d and %d iterations, want 4 and 30", shortIters, longIters)
	}
	t.Logf("%d iterations: %v allocations; %d iterations: %v", shortIters, short, longIters, long)
	if long != short {
		t.Errorf("allocations grow with iterations: %v at %d, %v at %d", short, shortIters, long, longIters)
	}
}
