package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestDot(t *testing.T) {
	tests := []struct {
		name string
		x, y Vec
		want float64
	}{
		{"empty", Vec{}, Vec{}, 0},
		{"single", Vec{2}, Vec{3}, 6},
		{"orthogonal", Vec{1, 0}, Vec{0, 1}, 0},
		{"general", Vec{1, 2, 3}, Vec{4, 5, 6}, 32},
		{"negative", Vec{-1, 2}, Vec{3, -4}, -11},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Dot(tt.x, tt.y); got != tt.want {
				t.Errorf("Dot(%v,%v) = %v, want %v", tt.x, tt.y, got, tt.want)
			}
		})
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot with mismatched lengths did not panic")
		}
	}()
	Dot(Vec{1}, Vec{1, 2})
}

func TestAxpy(t *testing.T) {
	y := Vec{1, 1, 1}
	Axpy(2, Vec{1, 2, 3}, y)
	want := Vec{3, 5, 7}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("Axpy result %v, want %v", y, want)
		}
	}
}

func TestNorms(t *testing.T) {
	x := Vec{3, -4}
	if got := Norm2(x); !almostEq(got, 5, 1e-12) {
		t.Errorf("Norm2 = %v, want 5", got)
	}
	if got := Norm2(nil); got != 0 {
		t.Errorf("Norm2(nil) = %v, want 0", got)
	}
}

func TestNorm2Overflow(t *testing.T) {
	// Naive sum-of-squares would overflow here; scaled form must not.
	x := Vec{1e200, 1e200}
	want := 1e200 * math.Sqrt2
	if got := Norm2(x); !almostEq(got, want, 1e-12) {
		t.Errorf("Norm2 overflow-guard: got %v, want %v", got, want)
	}
}

func TestDist2(t *testing.T) {
	if got := Dist2(Vec{0, 0}, Vec{3, 4}); !almostEq(got, 5, 1e-12) {
		t.Errorf("Dist2 = %v, want 5", got)
	}
}

func TestSumMeanFill(t *testing.T) {
	x := Vec{1, 2, 3, 4}
	if Sum(x) != 10 {
		t.Errorf("Sum = %v, want 10", Sum(x))
	}
	if Mean(x) != 2.5 {
		t.Errorf("Mean = %v, want 2.5", Mean(x))
	}
	if Mean(nil) != 0 {
		t.Errorf("Mean(nil) = %v, want 0", Mean(nil))
	}
	Fill(x, 7)
	for _, v := range x {
		if v != 7 {
			t.Fatalf("Fill failed: %v", x)
		}
	}
}

func TestArgMax(t *testing.T) {
	tests := []struct {
		x    Vec
		want int
	}{
		{nil, -1},
		{Vec{5}, 0},
		{Vec{1, 3, 2}, 1},
		{Vec{2, 2, 2}, 0}, // tie goes to lowest index
		{Vec{-5, -1, -9}, 1},
	}
	for _, tt := range tests {
		if got := ArgMax(tt.x); got != tt.want {
			t.Errorf("ArgMax(%v) = %d, want %d", tt.x, got, tt.want)
		}
	}
}

func TestLogSumExp(t *testing.T) {
	tests := []struct {
		name string
		x    Vec
		want float64
	}{
		{"pair", Vec{0, 0}, math.Log(2)},
		{"single", Vec{3}, 3},
		{"huge", Vec{1000, 1000}, 1000 + math.Log(2)},
		{"tiny", Vec{-1000, -1000}, -1000 + math.Log(2)},
		{"neginf", Vec{math.Inf(-1), 0}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := LogSumExp(tt.x); !almostEq(got, tt.want, 1e-12) {
				t.Errorf("LogSumExp(%v) = %v, want %v", tt.x, got, tt.want)
			}
		})
	}
	if got := LogSumExp(nil); !math.IsInf(got, -1) {
		t.Errorf("LogSumExp(nil) = %v, want -Inf", got)
	}
}

func TestSoftmax(t *testing.T) {
	p := Softmax(Vec{1, 1, 1}, nil)
	for _, v := range p {
		if !almostEq(v, 1.0/3, 1e-12) {
			t.Fatalf("uniform softmax = %v", p)
		}
	}
	// Extreme logits must not produce NaN.
	p = Softmax(Vec{1e4, 0}, nil)
	if math.IsNaN(p[0]) || !almostEq(p[0], 1, 1e-12) {
		t.Errorf("extreme softmax = %v", p)
	}
}

// Property: softmax output is always a probability vector.
func TestSoftmaxSimplexProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		x := make(Vec, len(raw))
		for i, v := range raw {
			// Clamp quick's wild values into a finite range.
			x[i] = math.Mod(v, 50)
			if math.IsNaN(x[i]) {
				x[i] = 0
			}
		}
		p := Softmax(x, nil)
		var s float64
		for _, v := range p {
			if v < 0 || math.IsNaN(v) {
				return false
			}
			s += v
		}
		return almostEq(s, 1, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Cauchy-Schwarz |<x,y>| <= ||x|| ||y||.
func TestCauchySchwarzProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(20)
		x, y := make(Vec, n), make(Vec, n)
		for i := 0; i < n; i++ {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		if math.Abs(Dot(x, y)) > Norm2(x)*Norm2(y)*(1+1e-12)+1e-12 {
			t.Fatalf("Cauchy-Schwarz violated: x=%v y=%v", x, y)
		}
	}
}

func TestAddSubVec(t *testing.T) {
	x, y := Vec{1, 2}, Vec{3, 5}
	d := SubVec(y, x)
	if d[0] != 2 || d[1] != 3 {
		t.Errorf("SubVec = %v", d)
	}
	// Inputs must be untouched.
	if x[0] != 1 || y[0] != 3 {
		t.Error("SubVec mutated inputs")
	}
}

func TestCloneVecIndependence(t *testing.T) {
	x := Vec{1, 2, 3}
	y := CloneVec(x)
	y[0] = 99
	if x[0] != 1 {
		t.Error("CloneVec shares storage with original")
	}
}

func TestScale(t *testing.T) {
	x := Vec{1, -2, 3}
	Scale(-2, x)
	want := Vec{-2, 4, -6}
	for i := range want {
		if x[i] != want[i] {
			t.Fatalf("Scale = %v, want %v", x, want)
		}
	}
}
