package opt

import (
	"math"
	"math/rand"
	"testing"

	"github.com/drdp/drdp/internal/mat"
)

// quadratic returns f(x) = ½ (x−c)ᵀ diag(d) (x−c) and its gradient.
func quadratic(c mat.Vec, d mat.Vec) Func {
	return func(theta, grad mat.Vec) float64 {
		var v float64
		for i := range theta {
			diff := theta[i] - c[i]
			v += 0.5 * d[i] * diff * diff
			if grad != nil {
				grad[i] = d[i] * diff
			}
		}
		return v
	}
}

func TestGDQuadratic(t *testing.T) {
	c := mat.Vec{1, -2, 3}
	f := quadratic(c, mat.Vec{1, 4, 0.5})
	res := GD(f, mat.Vec{0, 0, 0}, Options{})
	if !res.Converged {
		t.Fatalf("GD did not converge: %+v", res)
	}
	if mat.Dist2(res.Theta, c) > 1e-4 {
		t.Errorf("GD solution %v, want %v", res.Theta, c)
	}
	if res.Value > 1e-8 {
		t.Errorf("GD final value %v", res.Value)
	}
}

func TestGDRosenbrock(t *testing.T) {
	// Harder nonconvex-valley objective; GD should still make good progress.
	f := func(theta, grad mat.Vec) float64 {
		x, y := theta[0], theta[1]
		v := (1-x)*(1-x) + 100*(y-x*x)*(y-x*x)
		if grad != nil {
			grad[0] = -2*(1-x) - 400*x*(y-x*x)
			grad[1] = 200 * (y - x*x)
		}
		return v
	}
	res := GD(f, mat.Vec{-1, 1}, Options{MaxIter: 20000, Tol: 1e-5})
	if res.Value > 1e-3 {
		t.Errorf("Rosenbrock value after GD = %v (theta %v)", res.Value, res.Theta)
	}
}

func TestGDRespectsMaxIter(t *testing.T) {
	// Low curvature: each unit step moves only 1% of the way, so three
	// iterations cannot reach the optimum.
	f := quadratic(mat.Vec{100}, mat.Vec{0.01})
	res := GD(f, mat.Vec{0}, Options{MaxIter: 3})
	if res.Iterations > 3 {
		t.Errorf("ran %d iterations with MaxIter=3", res.Iterations)
	}
	if res.Converged {
		t.Error("cannot have converged in 3 iterations from that far")
	}
}

func TestGDDoesNotMutateStart(t *testing.T) {
	start := mat.Vec{5, 5}
	GD(quadratic(mat.Vec{0, 0}, mat.Vec{1, 1}), start, Options{MaxIter: 10})
	if start[0] != 5 || start[1] != 5 {
		t.Error("GD mutated its starting point")
	}
}

func TestProxGDLasso(t *testing.T) {
	// minimize ½‖x − a‖² + coef·‖x‖₂ (block prox on the whole vector).
	// Solution: block soft threshold of a.
	a := mat.Vec{3, 4} // ‖a‖ = 5
	coef := 2.5
	f := func(theta, grad mat.Vec) float64 {
		var v float64
		for i := range theta {
			d := theta[i] - a[i]
			v += 0.5 * d * d
			if grad != nil {
				grad[i] = d
			}
		}
		return v
	}
	prox := ProxL2Block(coef, 0, 2)
	res := ProxGD(f, prox, func(th mat.Vec) float64 { return coef * mat.Norm2(th) },
		mat.Vec{0, 0}, Options{MaxIter: 2000, Tol: 1e-10})
	// Analytic solution: a scaled by (1 − coef/‖a‖) = 0.5.
	want := mat.Vec{1.5, 2}
	if mat.Dist2(res.Theta, want) > 1e-5 {
		t.Errorf("prox solution %v, want %v", res.Theta, want)
	}
}

func TestProxGDShrinksToZero(t *testing.T) {
	// Penalty dominates: solution is exactly zero.
	a := mat.Vec{0.5, 0.5}
	f := func(theta, grad mat.Vec) float64 {
		var v float64
		for i := range theta {
			d := theta[i] - a[i]
			v += 0.5 * d * d
			if grad != nil {
				grad[i] = d
			}
		}
		return v
	}
	res := ProxGD(f, ProxL2Block(10, 0, 2), nil, mat.Vec{1, 1}, Options{MaxIter: 500})
	if mat.Norm2(res.Theta) > 1e-8 {
		t.Errorf("expected exact zero, got %v", res.Theta)
	}
}

func TestProxL2BlockLeavesBiasAlone(t *testing.T) {
	theta := mat.Vec{3, 4, 7} // block = first two, bias = last
	ProxL2Block(2.5, 0, 2)(theta, 1)
	if theta[2] != 7 {
		t.Errorf("bias changed: %v", theta)
	}
	if math.Abs(theta[0]-1.5) > 1e-12 || math.Abs(theta[1]-2) > 1e-12 {
		t.Errorf("block shrink wrong: %v", theta)
	}
}

func TestProxL2BlockZeroCoefIsIdentity(t *testing.T) {
	theta := mat.Vec{1, 2, 3}
	ProxL2Block(0, 0, 3)(theta, 5)
	if theta[0] != 1 || theta[1] != 2 || theta[2] != 3 {
		t.Errorf("zero-coef prox changed theta: %v", theta)
	}
}

func TestProxL2BlockPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative coefficient did not panic")
		}
	}()
	ProxL2Block(-1, 0, 1)
}

func TestSGDConvergesOnQuadratic(t *testing.T) {
	theta := mat.Vec{10, -10}
	s := &SGD{LR: 0.1, Momentum: 0.5}
	grad := make(mat.Vec, 2)
	for i := 0; i < 500; i++ {
		grad[0], grad[1] = theta[0], theta[1]
		s.Step(theta, grad)
	}
	if mat.Norm2(theta) > 1e-6 {
		t.Errorf("SGD did not converge: %v", theta)
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	theta := mat.Vec{10, -10}
	a := &Adam{LR: 0.3}
	grad := make(mat.Vec, 2)
	for i := 0; i < 2000; i++ {
		grad[0], grad[1] = theta[0], 100*theta[1] // badly conditioned
		a.Step(theta, grad)
	}
	if mat.Norm2(theta) > 1e-3 {
		t.Errorf("Adam did not converge: %v", theta)
	}
}

func TestSteppersPanicWithoutLR(t *testing.T) {
	for name, fn := range map[string]func(){
		"sgd":  func() { (&SGD{}).Step(mat.Vec{1}, mat.Vec{1}) },
		"adam": func() { (&Adam{}).Step(mat.Vec{1}, mat.Vec{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s without LR did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestGDMatchesProxGDWithoutPenalty(t *testing.T) {
	// With a zero penalty the two algorithms should find the same optimum.
	rng := rand.New(rand.NewSource(50))
	c := mat.Vec{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	f := quadratic(c, mat.Vec{1, 2, 3})
	g := GD(f, mat.Vec{0, 0, 0}, Options{Tol: 1e-10})
	p := ProxGD(f, func(mat.Vec, float64) {}, nil, mat.Vec{0, 0, 0}, Options{Tol: 1e-10})
	if mat.Dist2(g.Theta, p.Theta) > 1e-6 {
		t.Errorf("GD %v vs ProxGD %v", g.Theta, p.Theta)
	}
}
