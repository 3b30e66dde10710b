package dpprior

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"testing"

	"github.com/drdp/drdp/internal/mat"
	"github.com/drdp/drdp/internal/stat"
)

// twoComponentPrior builds a small well-formed prior for tests.
func twoComponentPrior() *Prior {
	return &Prior{
		Alpha: 1,
		Components: []Component{
			{Weight: 0.5, Mu: mat.Vec{2, 0}, Sigma: mat.Eye(2), Count: 3},
			{Weight: 0.3, Mu: mat.Vec{-2, 0}, Sigma: mat.Diag(mat.Vec{0.5, 0.5}), Count: 2},
		},
		BaseWeight: 0.2,
		BaseSigma:  5,
		Dim:        2,
	}
}

func TestPriorValidate(t *testing.T) {
	p := twoComponentPrior()
	if err := p.Validate(); err != nil {
		t.Fatalf("valid prior rejected: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Prior)
	}{
		{"zero dim", func(p *Prior) { p.Dim = 0 }},
		{"bad alpha", func(p *Prior) { p.Alpha = 0 }},
		{"bad base sigma", func(p *Prior) { p.BaseSigma = -1 }},
		{"negative base weight", func(p *Prior) { p.BaseWeight = -0.1 }},
		{"zero component weight", func(p *Prior) { p.Components[0].Weight = 0 }},
		{"weights off simplex", func(p *Prior) { p.BaseWeight = 0.5 }},
		{"wrong mean dim", func(p *Prior) { p.Components[0].Mu = mat.Vec{1} }},
		{"nil sigma", func(p *Prior) { p.Components[1].Sigma = nil }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			q := twoComponentPrior()
			tt.mutate(q)
			if err := q.Validate(); err == nil {
				t.Error("expected validation error")
			}
		})
	}
}

func TestPriorGobRoundTrip(t *testing.T) {
	p := twoComponentPrior()
	var buf bytes.Buffer
	if err := p.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	var q Prior
	if err := gob.NewDecoder(&buf).Decode(&q); err != nil {
		t.Fatal(err)
	}
	if q.Alpha != p.Alpha || q.Dim != p.Dim || q.BaseWeight != p.BaseWeight {
		t.Errorf("scalar fields changed: %+v vs %+v", q, p)
	}
	if len(q.Components) != len(p.Components) {
		t.Fatalf("component count %d, want %d", len(q.Components), len(p.Components))
	}
	for i := range q.Components {
		if !q.Components[i].Sigma.Equal(p.Components[i].Sigma, 0) {
			t.Errorf("component %d sigma changed", i)
		}
		if mat.Dist2(q.Components[i].Mu, p.Components[i].Mu) != 0 {
			t.Errorf("component %d mean changed", i)
		}
	}
}

func TestWireSize(t *testing.T) {
	p := twoComponentPrior()
	// 4 scalars + 2 components × (2 scalars + 2 mean + 4 cov) = 4+16 floats.
	want := 8 * (4 + 2*(2+2+4))
	if got := p.WireSize(); got != want {
		t.Errorf("WireSize = %d, want %d", got, want)
	}
	// The gob encoding should be within a small factor of the estimate.
	var buf bytes.Buffer
	if err := p.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() < want/2 {
		t.Errorf("gob size %d suspiciously small vs estimate %d", buf.Len(), want)
	}
}

func TestCompileRejectsBadPrior(t *testing.T) {
	p := twoComponentPrior()
	p.Dim = 0
	if _, err := Compile(p); err == nil {
		t.Fatal("Compile accepted invalid prior")
	}
}

func TestCompiledLogDensityMatchesManual(t *testing.T) {
	p := twoComponentPrior()
	c, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	theta := mat.Vec{1, 1}
	mv0, _ := stat.NewMVNormal(p.Components[0].Mu, p.Components[0].Sigma)
	mv1, _ := stat.NewMVNormal(p.Components[1].Mu, p.Components[1].Sigma)
	manual := math.Log(0.5*math.Exp(mv0.LogPDF(theta)) +
		0.3*math.Exp(mv1.LogPDF(theta)) +
		0.2*math.Exp(stat.LogNormPDF(theta, mat.Vec{0, 0}, 5)))
	if got := c.LogDensity(theta); math.Abs(got-manual) > 1e-10 {
		t.Errorf("LogDensity = %v, want %v", got, manual)
	}
}

func TestResponsibilitiesSimplexAndConcentration(t *testing.T) {
	c, err := Compile(twoComponentPrior())
	if err != nil {
		t.Fatal(err)
	}
	// At a point on top of component 0's mean, component 0 dominates.
	gamma := c.Responsibilities(mat.Vec{2, 0})
	if len(gamma) != 3 {
		t.Fatalf("got %d responsibilities, want 3 (2 comps + base)", len(gamma))
	}
	var sum float64
	for _, g := range gamma {
		if g < 0 {
			t.Fatalf("negative responsibility %v", g)
		}
		sum += g
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("responsibilities sum to %v", sum)
	}
	if gamma[0] < 0.9 {
		t.Errorf("component 0 responsibility at its mean = %v, want > 0.9", gamma[0])
	}
	// Far away from all components, the broad base measure wins.
	gammaFar := c.Responsibilities(mat.Vec{30, 30})
	if gammaFar[2] < 0.99 {
		t.Errorf("base responsibility far away = %v, want ≈ 1", gammaFar[2])
	}
}

func TestSurrogateValueAndGradConsistency(t *testing.T) {
	c, err := Compile(twoComponentPrior())
	if err != nil {
		t.Fatal(err)
	}
	theta := mat.Vec{0.7, -1.3}
	gamma := c.Responsibilities(theta)

	// Finite-difference check of SurrogateGrad against SurrogateValue,
	// whose bits SurrogateGrad's value must reproduce.
	grad := make(mat.Vec, len(theta))
	if v, want := c.SurrogateGrad(theta, gamma, grad, nil), c.SurrogateValue(theta, gamma, nil); math.Float64bits(v) != math.Float64bits(want) {
		t.Errorf("SurrogateGrad value = %v, SurrogateValue = %v", v, want)
	}
	const h = 1e-6
	for i := range theta {
		tp := mat.CloneVec(theta)
		tm := mat.CloneVec(theta)
		tp[i] += h
		tm[i] -= h
		fd := (c.SurrogateValue(tp, gamma, nil) - c.SurrogateValue(tm, gamma, nil)) / (2 * h)
		if math.Abs(fd-grad[i]) > 1e-5*(1+math.Abs(fd)) {
			t.Errorf("grad[%d] = %v, finite diff %v", i, grad[i], fd)
		}
	}
}

func TestSurrogateMajorizesNegLogDensity(t *testing.T) {
	// MM property: for the surrogate S built at θ0 with γ(θ0),
	// S(θ) - S(θ0) >= (-log p(θ)) - (-log p(θ0)) for all θ
	// (the surrogate majorizes the objective up to an additive constant).
	c, err := Compile(twoComponentPrior())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		theta0 := mat.Vec{rng.NormFloat64() * 3, rng.NormFloat64() * 3}
		gamma := c.Responsibilities(theta0)
		base := c.SurrogateValue(theta0, gamma, nil) - (-c.LogDensity(theta0))
		theta := mat.Vec{rng.NormFloat64() * 3, rng.NormFloat64() * 3}
		lhs := c.SurrogateValue(theta, gamma, nil) - (-c.LogDensity(theta))
		if lhs < base-1e-8 {
			t.Fatalf("majorization violated at θ0=%v θ=%v: gap %v < %v",
				theta0, theta, lhs, base)
		}
	}
}

func TestCompileEmptyPrior(t *testing.T) {
	p := &Prior{Alpha: 1, BaseWeight: 1, BaseSigma: 2, Dim: 3}
	c, err := Compile(p)
	if err != nil {
		t.Fatalf("base-only prior should compile: %v", err)
	}
	// Log density must match the base Gaussian exactly.
	theta := mat.Vec{1, 2, 3}
	want := stat.LogNormPDF(theta, mat.Vec{0, 0, 0}, 2)
	if got := c.LogDensity(theta); math.Abs(got-want) > 1e-10 {
		t.Errorf("base-only LogDensity = %v, want %v", got, want)
	}
}
