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
	res := LBFGS(f, make(mat.Vec, 4), Options{Tol: 1e-9}, nil)
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
	lb := LBFGS(rosen, mat.Vec{-1.2, 1}, Options{MaxIter: 500, Tol: 1e-8}, nil)
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
	lb := LBFGS(f, make(mat.Vec, d), Options{Tol: 1e-8}, nil)
	gd := GD(f, make(mat.Vec, d), Options{Tol: 1e-8, MaxIter: 5000})
	if mat.Dist2(lb.Theta, gd.Theta) > 1e-4 {
		t.Errorf("LBFGS %v vs GD %v", lb.Theta, gd.Theta)
	}
}

func TestLBFGSRespectsMaxIter(t *testing.T) {
	f := quadratic(mat.Vec{100}, mat.Vec{0.0001})
	res := LBFGS(f, mat.Vec{0}, Options{MaxIter: 2}, nil)
	if res.Iterations > 2 {
		t.Errorf("ran %d iterations", res.Iterations)
	}
}

// extendedRosenbrock is the 20-dimensional Rosenbrock function and its
// usual start: far enough from converging that a solve runs to its cap.
func extendedRosenbrock() (Func, mat.Vec) {
	const dim = 20
	f := func(theta, grad mat.Vec) float64 {
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
	return f, start
}

// TestLBFGSAllocBudget: the curvature pairs live in a ring allocated
// with the rest of the solver's scratch, so a solve that wraps the ring
// many times allocates exactly what a short one does, and a solve on a
// Memory an earlier solve sized allocates only the Theta it returns.
func TestLBFGSAllocBudget(t *testing.T) {
	rosen, start := extendedRosenbrock()
	allocs := func(maxIter int, mem *Memory) (float64, int) {
		var iters int
		a := testing.AllocsPerRun(5, func() {
			iters = LBFGS(rosen, start, Options{MaxIter: maxIter, Tol: 1e-12}, mem).Iterations
		})
		return a, iters
	}
	short, shortIters := allocs(4, nil)
	long, longIters := allocs(30, nil)
	if shortIters != 4 || longIters != 30 {
		t.Fatalf("the solves stopped early: %d and %d iterations, want 4 and 30", shortIters, longIters)
	}
	t.Logf("%d iterations: %v allocations; %d iterations: %v", shortIters, short, longIters, long)
	if long != short {
		t.Errorf("allocations grow with iterations: %v at %d, %v at %d", short, shortIters, long, longIters)
	}

	mem := new(Memory)
	warmShort, _ := allocs(4, mem)
	warmLong, warmLongIters := allocs(30, mem)
	if warmLongIters != 30 {
		t.Fatalf("the warm solve stopped early: %d iterations, want 30", warmLongIters)
	}
	t.Logf("warm: %v allocations at 4 iterations, %v at 30", warmShort, warmLong)
	if warmShort != 1 || warmLong != 1 {
		t.Errorf("a warm solve allocated %v (4 iterations) and %v (30), want only its Theta (1)", warmShort, warmLong)
	}
}

// sameResult reports whether two results hold the same bits.
func sameResult(a, b Result) bool {
	if a.Iterations != b.Iterations || a.Converged != b.Converged ||
		math.Float64bits(a.Value) != math.Float64bits(b.Value) || len(a.Theta) != len(b.Theta) {
		return false
	}
	for i := range a.Theta {
		if math.Float64bits(a.Theta[i]) != math.Float64bits(b.Theta[i]) {
			return false
		}
	}
	return true
}

// TestLBFGSFreshMemoryMatchesNil: a solve on a fresh Memory, on a Memory
// sized for another dimension, or on a warm Memory after Reset is the
// same computation as a solve with no Memory, bit for bit.
func TestLBFGSFreshMemoryMatchesNil(t *testing.T) {
	rosen, start := extendedRosenbrock()
	opts := Options{MaxIter: 60, Tol: 1e-10}
	want := LBFGS(rosen, start, opts, nil)

	if got := LBFGS(rosen, start, opts, new(Memory)); !sameResult(got, want) {
		t.Errorf("fresh memory: %+v, want %+v", got, want)
	}

	resized := new(Memory)
	LBFGS(quadratic(mat.Vec{1, 2, 3}, mat.Vec{1, 10, 100}), make(mat.Vec, 3), Options{}, resized)
	if got := LBFGS(rosen, start, opts, resized); !sameResult(got, want) {
		t.Errorf("memory resized from dimension 3: %+v, want %+v", got, want)
	}

	reset := new(Memory)
	shifted := mat.CloneVec(start)
	shifted[0] = 0.5
	LBFGS(rosen, shifted, Options{MaxIter: 7}, reset)
	reset.Reset()
	if got := LBFGS(rosen, start, opts, reset); !sameResult(got, want) {
		t.Errorf("reset memory: %+v, want %+v", got, want)
	}
}

// TestLBFGSWarmMemorySavesIterations: re-solving an ill-conditioned
// quadratic from a nearby point with the memory of the first solve
// converges in fewer iterations than a cold solve from that point.
func TestLBFGSWarmMemorySavesIterations(t *testing.T) {
	const dim = 6 // within the memory, so the pairs span the space
	c, d := make(mat.Vec, dim), make(mat.Vec, dim)
	for i := range c {
		c[i] = float64(i%3) - 1
		d[i] = math.Pow(10, 2*float64(i)/(dim-1)) // curvatures 1 … 100
	}
	f := quadratic(c, d)
	opts := Options{Tol: 1e-8}
	mem := new(Memory)
	first := LBFGS(f, make(mat.Vec, dim), opts, mem)
	if !first.Converged {
		t.Fatalf("first solve did not converge: %+v", first)
	}
	near := mat.CloneVec(first.Theta)
	for i := range near {
		near[i] += 0.01 * float64(i%2*2-1)
	}
	cold := LBFGS(f, near, opts, nil)
	warm := LBFGS(f, near, opts, mem)
	if !cold.Converged || !warm.Converged {
		t.Fatalf("second solves did not converge: cold %+v, warm %+v", cold, warm)
	}
	t.Logf("first solve %d iterations; from the nearby point: cold %d, warm %d",
		first.Iterations, cold.Iterations, warm.Iterations)
	if warm.Iterations >= cold.Iterations {
		t.Errorf("warm solve took %d iterations, cold %d", warm.Iterations, cold.Iterations)
	}
	if mat.Dist2(warm.Theta, c) > 1e-6 {
		t.Errorf("warm solution %v, want %v", warm.Theta, c)
	}
}

// TestLBFGSForcingStopsEarly: with Forcing η the solve stops once the
// gradient norm falls to η times its opening norm, having descended.
func TestLBFGSForcingStopsEarly(t *testing.T) {
	rosen, start := extendedRosenbrock()
	g0 := make(mat.Vec, len(start))
	v0 := rosen(start, g0)
	const eta = 0.1
	inexact := LBFGS(rosen, start, Options{Tol: 1e-10, Forcing: eta}, nil)
	exact := LBFGS(rosen, start, Options{Tol: 1e-10}, nil)
	if !inexact.Converged || !exact.Converged {
		t.Fatalf("solves did not converge: inexact %+v, exact %+v", inexact, exact)
	}
	g := make(mat.Vec, len(start))
	rosen(inexact.Theta, g)
	if gn, limit := mat.Norm2(g), eta*mat.Norm2(g0); gn > limit {
		t.Errorf("stopped at ‖∇‖ = %g, above η‖∇₀‖ = %g", gn, limit)
	}
	if inexact.Value >= v0 {
		t.Errorf("inexact solve did not descend: %g from %g", inexact.Value, v0)
	}
	if inexact.Iterations >= exact.Iterations {
		t.Errorf("inexact solve took %d iterations, exact %d", inexact.Iterations, exact.Iterations)
	}
}
