package mat

import (
	"math"
	"math/rand"
	"testing"
)

func randMat(rng *rand.Rand, r, c int) *Dense {
	m := NewDense(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// randPSD returns a random symmetric positive-definite matrix A = BᵀB + εI.
func randPSD(rng *rand.Rand, n int) *Dense {
	b := randMat(rng, n, n)
	a := b.T().Mul(b)
	for i := 0; i < n; i++ {
		a.Data[i*n+i] += 0.5
	}
	a.Symmetrize()
	return a
}

func TestDenseAtSet(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Errorf("At(1,2) = %v, want 7", m.At(1, 2))
	}
	if m.At(0, 0) != 0 {
		t.Error("fresh matrix entries must be zero")
	}
}

func TestDenseAtPanics(t *testing.T) {
	m := NewDense(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("At out of range did not panic")
		}
	}()
	m.At(2, 0)
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Errorf("FromRows wrong layout: %+v", m)
	}
	empty := FromRows(nil)
	if empty.Rows != 0 || empty.Cols != 0 {
		t.Error("FromRows(nil) should be 0x0")
	}
}

func TestFromRowsRagged(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged FromRows did not panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestEyeDiag(t *testing.T) {
	e := Eye(3)
	if e.Trace() != 3 {
		t.Errorf("Eye(3) trace = %v", e.Trace())
	}
	d := Diag(Vec{1, 2, 3})
	if d.At(1, 1) != 2 || d.At(0, 1) != 0 {
		t.Errorf("Diag wrong: %+v", d)
	}
}

func TestMulVecIdentity(t *testing.T) {
	x := Vec{1, 2, 3}
	y := Eye(3).MulVec(x)
	for i := range x {
		if y[i] != x[i] {
			t.Fatalf("I*x = %v", y)
		}
	}
}

func TestMulVsMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randMat(rng, 4, 3)
	b := randMat(rng, 3, 5)
	ab := a.Mul(b)
	// Column j of A*B equals A * (column j of B).
	for j := 0; j < 5; j++ {
		want := a.MulVec(b.Col(j))
		got := ab.Col(j)
		for i := range want {
			if !almostEq(got[i], want[i], 1e-12) {
				t.Fatalf("Mul col %d mismatch: %v vs %v", j, got, want)
			}
		}
	}
}

func TestMulVecT(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randMat(rng, 4, 3)
	x := Vec{1, -2, 0.5, 3}
	got := a.MulVecT(x)
	want := a.T().MulVec(x)
	for i := range want {
		if !almostEq(got[i], want[i], 1e-12) {
			t.Fatalf("MulVecT = %v, want %v", got, want)
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randMat(rng, 3, 7)
	if !a.T().T().Equal(a, 0) {
		t.Error("(Aᵀ)ᵀ != A")
	}
}

func TestMulAssociativityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 25; trial++ {
		p, q, r, s := 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5)
		a, b, c := randMat(rng, p, q), randMat(rng, q, r), randMat(rng, r, s)
		left := a.Mul(b).Mul(c)
		right := a.Mul(b.Mul(c))
		if !left.Equal(right, 1e-9) {
			t.Fatalf("associativity violated at trial %d", trial)
		}
	}
}

func TestAddSubScale(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	s := a.Add(b)
	if s.At(1, 1) != 12 {
		t.Errorf("Add = %v", s)
	}
	d := b.Sub(a)
	if d.At(0, 0) != 4 {
		t.Errorf("Sub = %v", d)
	}
	c := a.Clone()
	c.ScaleBy(2)
	if c.At(1, 0) != 6 || a.At(1, 0) != 3 {
		t.Error("ScaleBy wrong or Clone aliased")
	}
	c.AddScaled(-2, a)
	if c.MaxAbs() != 0 {
		t.Errorf("AddScaled should zero out: %v", c)
	}
}

func TestOuterAdd(t *testing.T) {
	m := NewDense(2, 3)
	m.OuterAdd(2, Vec{1, 2}, Vec{3, 4, 5})
	if m.At(0, 0) != 6 || m.At(1, 2) != 20 {
		t.Errorf("OuterAdd = %+v", m)
	}
}

func TestQuadForm(t *testing.T) {
	a := FromRows([][]float64{{2, 0}, {0, 3}})
	if got := a.QuadForm(Vec{1, 2}); got != 14 {
		t.Errorf("QuadForm = %v, want 14", got)
	}
}

func TestSymmetrize(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {4, 1}})
	a.Symmetrize()
	if a.At(0, 1) != 3 || a.At(1, 0) != 3 {
		t.Errorf("Symmetrize = %+v", a)
	}
}

func TestCholeskyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{1, 2, 3, 5, 10, 25} {
		a := randPSD(rng, n)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// L Lᵀ must reconstruct A.
		recon := ch.L.Mul(ch.L.T())
		if !recon.Equal(a, 1e-8) {
			t.Fatalf("n=%d: LLᵀ does not reconstruct A (max err %g)",
				n, recon.Sub(a).MaxAbs())
		}
	}
}

func TestCholeskySolve(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(12)
		a := randPSD(rng, n)
		x := make(Vec, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		b := a.MulVec(x)
		ch, err := NewCholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		got := ch.SolveVec(b)
		for i := range x {
			if !almostEq(got[i], x[i], 1e-7) {
				t.Fatalf("solve mismatch: got %v want %v", got, x)
			}
		}
	}
}

func TestCholeskyInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randPSD(rng, 6)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	inv := ch.Inverse()
	if !a.Mul(inv).Equal(Eye(6), 1e-8) {
		t.Error("A * A⁻¹ != I")
	}
}

func TestCholeskyLogDet(t *testing.T) {
	// det(diag(2,3,4)) = 24.
	a := Diag(Vec{2, 3, 4})
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if got := ch.LogDet(); !almostEq(got, math.Log(24), 1e-12) {
		t.Errorf("LogDet = %v, want log 24 = %v", got, math.Log(24))
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := NewCholesky(a); err == nil {
		t.Fatal("expected ErrNotPSD for indefinite matrix")
	}
}

func TestCholeskyJitterRecovers(t *testing.T) {
	// Singular PSD matrix: rank 1.
	a := NewDense(3, 3)
	a.OuterAdd(1, Vec{1, 1, 1}, Vec{1, 1, 1})
	ch, jitter, err := NewCholeskyJitter(a, 1e-10, 12)
	if err != nil {
		t.Fatalf("jittered cholesky failed: %v", err)
	}
	if jitter <= 0 {
		t.Errorf("expected positive jitter, got %g", jitter)
	}
	if ch == nil || ch.L.Rows != 3 {
		t.Error("bad factor")
	}
}

func TestCholeskySolveL(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randPSD(rng, 5)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make(Vec, 5)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	// ||L⁻¹ b||² must equal bᵀ A⁻¹ b.
	y := CloneVec(b)
	ch.SolveLInPlace(y)
	lhs := Dot(y, y)
	rhs := Dot(b, ch.SolveVec(b))
	if !almostEq(lhs, rhs, 1e-9) {
		t.Errorf("Mahalanobis identity: %v vs %v", lhs, rhs)
	}
}

// TestCholeskySolveLInPlaceBits: the in-place forward substitution gives
// the bits of an out-of-place one (b read, y written separately).
func TestCholeskySolveLInPlaceBits(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 3, 17, 49} {
		ch, err := NewCholesky(randPSD(rng, n))
		if err != nil {
			t.Fatal(err)
		}
		b := make(Vec, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		want := make(Vec, n)
		for i := 0; i < n; i++ {
			s := b[i]
			for k := 0; k < i; k++ {
				s -= ch.L.Data[i*n+k] * want[k]
			}
			want[i] = s / ch.L.Data[i*n+i]
		}
		got := CloneVec(b)
		ch.SolveLInPlace(got)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d: entry %d is %v, want %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestCholeskyMulVecL(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := randPSD(rng, 4)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	z := Vec{1, -1, 2, 0.5}
	got := ch.MulVecL(z)
	want := ch.L.MulVec(z)
	for i := range want {
		if !almostEq(got[i], want[i], 1e-12) {
			t.Fatalf("MulVecL = %v, want %v", got, want)
		}
	}
}
