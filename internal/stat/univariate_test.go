package stat

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNormalLogPDF(t *testing.T) {
	tests := []struct {
		name string
		n    Normal
		x    float64
		want float64
	}{
		{"std at 0", Normal{0, 1}, 0, -0.5 * log2Pi},
		{"std at 1", Normal{0, 1}, 1, -0.5 - 0.5*log2Pi},
		{"shifted", Normal{3, 2}, 3, -0.5*log2Pi - math.Log(2)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.n.LogPDF(tt.x); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("LogPDF = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestNormalCDF(t *testing.T) {
	n := Normal{0, 1}
	if got := n.CDF(0); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("CDF(0) = %v, want 0.5", got)
	}
	if got := n.CDF(1.96); math.Abs(got-0.975) > 1e-3 {
		t.Errorf("CDF(1.96) = %v, want ~0.975", got)
	}
}

func TestNormalSampleMoments(t *testing.T) {
	rng := NewRNG(42)
	n := Normal{Mu: 2, Sigma: 3}
	const trials = 50000
	var sum, sumsq float64
	for i := 0; i < trials; i++ {
		x := n.Sample(rng)
		sum += x
		sumsq += x * x
	}
	mean := sum / trials
	variance := sumsq/trials - mean*mean
	if math.Abs(mean-2) > 0.05 {
		t.Errorf("sample mean = %v, want 2", mean)
	}
	if math.Abs(variance-9) > 0.3 {
		t.Errorf("sample variance = %v, want 9", variance)
	}
}

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

func TestGammaLogPDF(t *testing.T) {
	// Gamma(1, b) is Exponential(b): logpdf = log b - b x.
	g := Gamma{1, 2}
	for _, x := range []float64{0.1, 1, 3} {
		want := math.Log(2) - 2*x
		if got := g.LogPDF(x); math.Abs(got-want) > 1e-12 {
			t.Errorf("Gamma(1,2).LogPDF(%v) = %v, want %v", x, got, want)
		}
	}
	if !math.IsInf(g.LogPDF(-1), -1) {
		t.Error("LogPDF of negative x should be -Inf")
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

func TestBetaMoments(t *testing.T) {
	rng := NewRNG(44)
	b := Beta{2, 5}
	const trials = 50000
	var sum float64
	for i := 0; i < trials; i++ {
		x := b.Sample(rng)
		if x < 0 || x > 1 {
			t.Fatalf("Beta sample %v outside [0,1]", x)
		}
		sum += x
	}
	if mean := sum / trials; math.Abs(mean-b.Mean()) > 0.01 {
		t.Errorf("Beta sample mean = %v, want %v", mean, b.Mean())
	}
}

func TestBetaLogPDFIntegratesToOne(t *testing.T) {
	// Riemann check on a grid.
	b := Beta{2.5, 1.5}
	const n = 20000
	var integral float64
	for i := 1; i < n; i++ {
		x := float64(i) / n
		integral += math.Exp(b.LogPDF(x)) / n
	}
	if math.Abs(integral-1) > 1e-3 {
		t.Errorf("Beta pdf integrates to %v, want 1", integral)
	}
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

func TestBetaLogPDFBoundaries(t *testing.T) {
	b := Beta{2, 3}
	if !math.IsInf(b.LogPDF(0), -1) || !math.IsInf(b.LogPDF(1), -1) {
		t.Error("boundary density should be -Inf")
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
