package em

import (
	"math"
	"testing"
)

// halvingProblem is a toy MM problem: objective (x-5)², M-step moves
// halfway to 5. Monotone and convergent.
type halvingProblem struct{}

func (halvingProblem) EStep(theta []float64) struct{} { return struct{}{} }
func (halvingProblem) MStep(theta []float64, _ struct{}) []float64 {
	return []float64{theta[0] + (5-theta[0])/2}
}
func (halvingProblem) Objective(theta []float64) float64 {
	d := theta[0] - 5
	return d * d
}

func TestRunConvergesAndTraces(t *testing.T) {
	res := Run[struct{}](halvingProblem{}, []float64{0}, Options{MaxIters: 100, Tol: 1e-10})
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res)
	}
	if math.Abs(res.Theta[0]-5) > 1e-3 {
		t.Errorf("theta = %v, want ≈ 5", res.Theta)
	}
	if len(res.Trace) != res.Iterations+1 {
		t.Errorf("trace length %d, iterations %d", len(res.Trace), res.Iterations)
	}
	if res.Trace[0] != 25 {
		t.Errorf("trace[0] = %v, want initial objective 25", res.Trace[0])
	}
	if err := CheckMonotone(res.Trace, 0); err != nil {
		t.Errorf("monotone check failed: %v", err)
	}
}

func TestRunRespectsMaxIters(t *testing.T) {
	res := Run[struct{}](halvingProblem{}, []float64{0}, Options{MaxIters: 3, Tol: 1e-300})
	if res.Iterations != 3 || res.Converged {
		t.Errorf("expected exactly 3 non-converged iterations: %+v", res)
	}
}

func TestRunDoesNotMutateStart(t *testing.T) {
	start := []float64{0}
	Run[struct{}](halvingProblem{}, start, Options{MaxIters: 5})
	if start[0] != 0 {
		t.Error("Run mutated theta0")
	}
}

func TestCheckMonotone(t *testing.T) {
	if err := CheckMonotone([]float64{3, 2, 2, 1}, 0); err != nil {
		t.Errorf("monotone trace rejected: %v", err)
	}
	if err := CheckMonotone([]float64{3, 2, 2.5}, 0); err == nil {
		t.Error("increasing trace accepted")
	}
	if err := CheckMonotone([]float64{3, 3.0000001}, 1e-3); err != nil {
		t.Errorf("tolerance not honored: %v", err)
	}
	if err := CheckMonotone(nil, 0); err != nil {
		t.Errorf("empty trace: %v", err)
	}
}
