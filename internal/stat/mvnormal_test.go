package stat

import (
	"math"
	"testing"

	"github.com/drdp/drdp/internal/mat"
)

func TestMVNormalMatchesUnivariate(t *testing.T) {
	mv, err := NewMVNormal(mat.Vec{1.5}, mat.Diag(mat.Vec{4}))
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{-1, 0, 1.5, 3} {
		got := mv.LogPDF(mat.Vec{x})
		z := (x - 1.5) / 2
		want := -0.5*(z*z+log2Pi) - math.Log(2)
		if math.Abs(got-want) > 1e-10 {
			t.Errorf("LogPDF(%v): mv=%v uni=%v", x, got, want)
		}
	}
}

func TestMVNormalLogPDFStandard(t *testing.T) {
	d := 3
	mv, err := NewMVNormal(make(mat.Vec, d), mat.Eye(d))
	if err != nil {
		t.Fatal(err)
	}
	// At the mean: -(d/2) log 2π.
	want := -0.5 * float64(d) * log2Pi
	if got := mv.LogPDF(make(mat.Vec, d)); math.Abs(got-want) > 1e-12 {
		t.Errorf("LogPDF at mean = %v, want %v", got, want)
	}
}

func TestMVNormalDimMismatch(t *testing.T) {
	if _, err := NewMVNormal(mat.Vec{0, 0}, mat.Eye(3)); err == nil {
		t.Fatal("expected error for dim mismatch")
	}
}

func TestMVNormalSampleMoments(t *testing.T) {
	rng := NewRNG(100)
	sigma := mat.FromRows([][]float64{{2, 0.5}, {0.5, 1}})
	mu := mat.Vec{1, -1}
	mv, err := NewMVNormal(mu, sigma)
	if err != nil {
		t.Fatal(err)
	}
	const trials = 40000
	mean := make(mat.Vec, 2)
	cov := mat.NewDense(2, 2)
	samples := make([]mat.Vec, trials)
	for i := 0; i < trials; i++ {
		x := mv.Sample(rng)
		samples[i] = x
		mat.Axpy(1, x, mean)
	}
	mat.Scale(1.0/trials, mean)
	for _, x := range samples {
		d := mat.SubVec(x, mean)
		cov.OuterAdd(1.0/trials, d, d)
	}
	for i := range mu {
		if math.Abs(mean[i]-mu[i]) > 0.03 {
			t.Errorf("sample mean[%d] = %v, want %v", i, mean[i], mu[i])
		}
	}
	if !cov.Equal(sigma, 0.05) {
		t.Errorf("sample covariance %+v, want %+v", cov, sigma)
	}
}

func TestMahalanobis(t *testing.T) {
	mv, err := NewMVNormal(mat.Vec{0, 0}, mat.Diag(mat.Vec{4, 9}))
	if err != nil {
		t.Fatal(err)
	}
	// Point (2, 3): sqrt((2/2)² + (3/3)²) = sqrt(2).
	if got := mv.Mahalanobis(mat.Vec{2, 3}); math.Abs(got-math.Sqrt2) > 1e-10 {
		t.Errorf("Mahalanobis = %v, want sqrt(2)", got)
	}
}

func TestKLNormalSelfIsZero(t *testing.T) {
	rng := NewRNG(101)
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(5)
		b := mat.NewDense(n, n)
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		sigma := b.T().Mul(b)
		for i := 0; i < n; i++ {
			sigma.Data[i*n+i] += 1
		}
		sigma.Symmetrize()
		mu := make(mat.Vec, n)
		for i := range mu {
			mu[i] = rng.NormFloat64()
		}
		p, err := NewMVNormal(mu, sigma)
		if err != nil {
			t.Fatal(err)
		}
		if kl := KLNormal(p, p); math.Abs(kl) > 1e-8 {
			t.Errorf("KL(p||p) = %v, want 0", kl)
		}
	}
}

func TestKLNormalKnownValue(t *testing.T) {
	// KL(N(0,1) || N(1,1)) = 1/2 in 1-D.
	p, _ := NewMVNormal(mat.Vec{0}, mat.Eye(1))
	q, _ := NewMVNormal(mat.Vec{1}, mat.Eye(1))
	if kl := KLNormal(p, q); math.Abs(kl-0.5) > 1e-10 {
		t.Errorf("KL = %v, want 0.5", kl)
	}
}

func TestKLNormalNonNegativeProperty(t *testing.T) {
	rng := NewRNG(102)
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(4)
		mk := func() *MVNormal {
			b := mat.NewDense(n, n)
			for i := range b.Data {
				b.Data[i] = rng.NormFloat64()
			}
			s := b.T().Mul(b)
			for i := 0; i < n; i++ {
				s.Data[i*n+i] += 0.5
			}
			s.Symmetrize()
			mu := make(mat.Vec, n)
			for i := range mu {
				mu[i] = rng.NormFloat64()
			}
			mv, err := NewMVNormal(mu, s)
			if err != nil {
				t.Fatal(err)
			}
			return mv
		}
		p, q := mk(), mk()
		if kl := KLNormal(p, q); kl < -1e-9 {
			t.Fatalf("KL(p||q) = %v < 0", kl)
		}
	}
}

func TestLogNormPDFMatchesMVNormal(t *testing.T) {
	mu := mat.Vec{1, 2, 3}
	sigma := 1.7
	cov := mat.Eye(3)
	cov.ScaleBy(sigma * sigma)
	mv, err := NewMVNormal(mu, cov)
	if err != nil {
		t.Fatal(err)
	}
	x := mat.Vec{0.5, 2.5, 2}
	got := LogNormPDF(x, mu, sigma)
	want := mv.LogPDF(x)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("LogNormPDF = %v, MVNormal = %v", got, want)
	}
}

func TestMVNormalRankDeficientSigma(t *testing.T) {
	// A rank-deficient covariance (vvᵀ) must be repaired by the jitter
	// escalation inside NewMVNormal and yield a finite, usable density —
	// previously a tiny positive roundoff pivot could slip through the
	// factorization and poison LogPDF with garbage.
	v := mat.Vec{1, 2, 3}
	sigma := mat.NewDense(3, 3)
	sigma.OuterAdd(1, v, v)
	mv, err := NewMVNormal(mat.Vec{0, 0, 0}, sigma)
	if err != nil {
		t.Fatalf("rank-deficient sigma rejected despite jitter: %v", err)
	}
	lp := mv.LogPDF(mat.Vec{0.5, -0.5, 1})
	if math.IsNaN(lp) || math.IsInf(lp, 0) {
		t.Fatalf("LogPDF on jitter-repaired sigma = %g, want finite", lp)
	}
}

// randomMVNormal draws an SPD covariance BᵀB + I and a random mean.
func randomMVNormal(t *testing.T, seed int64, d int) *MVNormal {
	t.Helper()
	rng := NewRNG(seed)
	b := mat.NewDense(d, d)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	sigma := b.T().Mul(b)
	for i := 0; i < d; i++ {
		sigma.Data[i*d+i] += 1
	}
	sigma.Symmetrize()
	mu := make(mat.Vec, d)
	for i := range mu {
		mu[i] = rng.NormFloat64()
	}
	mv, err := NewMVNormal(mu, sigma)
	if err != nil {
		t.Fatal(err)
	}
	return mv
}

// TestLogPDFMatchesAllocatingSolve: the whitening scratch, on the stack
// path and above it, gives the bits of SubVec followed by a solve in a
// fresh vector.
func TestLogPDFMatchesAllocatingSolve(t *testing.T) {
	for _, d := range []int{1, 5, 49, stackDim, stackDim + 3} {
		mv := randomMVNormal(t, int64(d), d)
		rng := NewRNG(int64(100 + d))
		for trial := 0; trial < 5; trial++ {
			x := make(mat.Vec, d)
			for i := range x {
				x[i] = 3 * rng.NormFloat64()
			}
			y := mat.SubVec(x, mv.Mu)
			mv.chol.SolveLInPlace(y)
			wantLP := mv.lognc - 0.5*mat.Dot(y, y)
			wantM := mat.Norm2(y)
			if got := mv.LogPDF(x); math.Float64bits(got) != math.Float64bits(wantLP) {
				t.Fatalf("d=%d: LogPDF %v, want %v", d, got, wantLP)
			}
			if got := mv.Mahalanobis(x); math.Float64bits(got) != math.Float64bits(wantM) {
				t.Fatalf("d=%d: Mahalanobis %v, want %v", d, got, wantM)
			}
		}
	}
}

// TestLogPDFAllocBudget: density evaluation at d = 49 allocates nothing.
func TestLogPDFAllocBudget(t *testing.T) {
	mv := randomMVNormal(t, 7, 49)
	x := make(mat.Vec, 49)
	var sink float64
	logPDF := testing.AllocsPerRun(100, func() { sink += mv.LogPDF(x) })
	mahal := testing.AllocsPerRun(100, func() { sink += mv.Mahalanobis(x) })
	t.Logf("d=49: LogPDF %.0f allocs, Mahalanobis %.0f allocs", logPDF, mahal)
	if logPDF != 0 || mahal != 0 {
		t.Fatalf("d=49: LogPDF %.0f allocs, Mahalanobis %.0f allocs, want 0", logPDF, mahal)
	}
}
