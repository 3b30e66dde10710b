package stat

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGammaSampleMoments(t *testing.T) {
	rng := NewRNG(43)
	for _, g := range []Gamma{{2, 1}, {0.5, 2}, {5, 0.5}} {
		const trials = 50000
		var sum float64
		for i := 0; i < trials; i++ {
			x := g.Sample(rng)
			if x <= 0 {
				t.Fatalf("Gamma%v sample %v <= 0", g, x)
			}
			sum += x
		}
		mean := sum / trials
		want := g.Alpha / g.Beta
		if math.Abs(mean-want) > 0.05*want+0.02 {
			t.Errorf("Gamma%v sample mean = %v, want %v", g, mean, want)
		}
	}
}

func TestGammaSamplePanicsOnBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for alpha <= 0")
		}
	}()
	Gamma{0, 1}.Sample(NewRNG(1))
}

// Property: Dirichlet draws always lie on the probability simplex.
func TestDirichletSimplexProperty(t *testing.T) {
	rng := NewRNG(46)
	f := func(rawAlpha []float64) bool {
		if len(rawAlpha) == 0 || len(rawAlpha) > 30 {
			return true
		}
		alpha := make([]float64, len(rawAlpha))
		for i, v := range rawAlpha {
			alpha[i] = math.Mod(math.Abs(v), 10) + 0.01
		}
		p := Dirichlet(rng, alpha)
		var sum float64
		for _, v := range p {
			if v < 0 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDirichletMean(t *testing.T) {
	rng := NewRNG(47)
	alpha := []float64{1, 2, 3}
	sums := make([]float64, 3)
	const trials = 20000
	for i := 0; i < trials; i++ {
		p := Dirichlet(rng, alpha)
		for j, v := range p {
			sums[j] += v
		}
	}
	for j, a := range alpha {
		got := sums[j] / trials
		want := a / 6
		if math.Abs(got-want) > 0.01 {
			t.Errorf("Dirichlet mean[%d] = %v, want %v", j, got, want)
		}
	}
}

func TestDirichletSym(t *testing.T) {
	rng := NewRNG(48)
	p := DirichletSym(rng, 1.0, 5)
	if len(p) != 5 {
		t.Fatalf("DirichletSym length %d, want 5", len(p))
	}
	var sum float64
	for _, v := range p {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("DirichletSym sums to %v", sum)
	}
}

func TestDirichletDegenerateShapes(t *testing.T) {
	rng := NewRNG(300)
	// Extremely tiny shapes can underflow all gammas to zero; the
	// fallback must still return a simplex point.
	p := Dirichlet(rng, []float64{1e-300, 1e-300})
	var s float64
	for _, v := range p {
		s += v
	}
	if math.Abs(s-1) > 1e-9 {
		t.Errorf("degenerate Dirichlet sums to %v", s)
	}
}
