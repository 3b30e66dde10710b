package dpprior

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// expectedStickWeights returns the mean of the truncated stick-breaking
// weights, E[w_k] = (1/(1+α)) (α/(1+α))^k, plus the expected remainder:
// the closed form StickBreaking's draws are checked against.
func expectedStickWeights(alpha float64, t int) (weights []float64, remainder float64) {
	weights = make([]float64, t)
	stick := 1.0
	frac := 1 / (1 + alpha)
	for k := 0; k < t; k++ {
		weights[k] = frac * stick
		stick *= 1 - frac
	}
	return weights, stick
}

// expectedTables returns the expected number of occupied CRP tables for n
// customers at concentration alpha: Σ_{i=0}^{n-1} α/(α+i) ≈ α log(1+n/α),
// the closed form CRP's draws are checked against.
func expectedTables(alpha float64, n int) float64 {
	var s float64
	for i := 0; i < n; i++ {
		s += alpha / (alpha + float64(i))
	}
	return s
}

func TestStickBreakingSimplexProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(rawAlpha float64, rawT uint8) bool {
		alpha := math.Mod(math.Abs(rawAlpha), 20) + 0.01
		tr := int(rawT%30) + 1
		w, rem := StickBreaking(rng, alpha, tr)
		if len(w) != tr || rem < 0 || rem > 1 {
			return false
		}
		total := rem
		for _, v := range w {
			if v < 0 || v > 1 {
				return false
			}
			total += v
		}
		return math.Abs(total-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestStickBreakingSmallAlphaConcentrates(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// With tiny alpha the first stick takes nearly everything.
	var first float64
	const trials = 2000
	for i := 0; i < trials; i++ {
		w, _ := StickBreaking(rng, 0.05, 10)
		first += w[0]
	}
	if first/trials < 0.9 {
		t.Errorf("E[w_0] at alpha=0.05 is %v, expected > 0.9", first/trials)
	}
}

func TestStickBreakingLargeAlphaSpreads(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var first, rem float64
	const trials = 2000
	for i := 0; i < trials; i++ {
		w, r := StickBreaking(rng, 50, 10)
		first += w[0]
		rem += r
	}
	if first/trials > 0.1 {
		t.Errorf("E[w_0] at alpha=50 is %v, expected < 0.1", first/trials)
	}
	if rem/trials < 0.5 {
		t.Errorf("E[remainder] at alpha=50, T=10 is %v, expected large", rem/trials)
	}
}

func TestStickBreakingPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, tc := range []struct {
		alpha float64
		t     int
	}{{0, 5}, {-1, 5}, {1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("StickBreaking(%v, %v) did not panic", tc.alpha, tc.t)
				}
			}()
			StickBreaking(rng, tc.alpha, tc.t)
		}()
	}
}

func TestExpectedStickWeights(t *testing.T) {
	w, rem := expectedStickWeights(1, 3)
	// E[w_k] = (1/2)^(k+1): 1/2, 1/4, 1/8, remainder 1/8.
	want := []float64{0.5, 0.25, 0.125}
	for i, v := range want {
		if math.Abs(w[i]-v) > 1e-12 {
			t.Errorf("w[%d] = %v, want %v", i, w[i], v)
		}
	}
	if math.Abs(rem-0.125) > 1e-12 {
		t.Errorf("remainder = %v, want 0.125", rem)
	}
}

func TestExpectedStickMatchesMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	alpha, tr := 2.0, 5
	want, _ := expectedStickWeights(alpha, tr)
	got := make([]float64, tr)
	const trials = 20000
	for i := 0; i < trials; i++ {
		w, _ := StickBreaking(rng, alpha, tr)
		for j, v := range w {
			got[j] += v
		}
	}
	for j := range got {
		got[j] /= trials
		if math.Abs(got[j]-want[j]) > 0.01 {
			t.Errorf("E[w_%d]: MC %v vs analytic %v", j, got[j], want[j])
		}
	}
}

func TestCRPBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	assign := CRP(rng, 100, 1)
	if len(assign) != 100 {
		t.Fatalf("CRP returned %d assignments", len(assign))
	}
	if assign[0] != 0 {
		t.Error("first customer must sit at table 0")
	}
	// Tables must be numbered contiguously in order of first occupancy.
	maxSeen := -1
	for _, a := range assign {
		if a < 0 {
			t.Fatalf("negative table %d", a)
		}
		if a > maxSeen+1 {
			t.Fatalf("table numbering skipped: saw %d after max %d", a, maxSeen)
		}
		if a > maxSeen {
			maxSeen = a
		}
	}
}

func TestCRPTableGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	countTables := func(alpha float64) float64 {
		const trials = 300
		var total float64
		for i := 0; i < trials; i++ {
			assign := CRP(rng, 200, alpha)
			max := 0
			for _, a := range assign {
				if a > max {
					max = a
				}
			}
			total += float64(max + 1)
		}
		return total / trials
	}
	small := countTables(0.5)
	large := countTables(10)
	if small >= large {
		t.Errorf("tables(alpha=0.5)=%v should be < tables(alpha=10)=%v", small, large)
	}
	// Compare against the exact expectation.
	want := expectedTables(10, 200)
	if math.Abs(large-want) > 0.15*want {
		t.Errorf("tables at alpha=10: MC %v vs analytic %v", large, want)
	}
}

func TestExpectedTables(t *testing.T) {
	// n=1: exactly 1 table regardless of alpha.
	if got := expectedTables(3, 1); math.Abs(got-1) > 1e-12 {
		t.Errorf("expectedTables(3,1) = %v, want 1", got)
	}
	// n=2, alpha=1: 1 + 1/2.
	if got := expectedTables(1, 2); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("expectedTables(1,2) = %v, want 1.5", got)
	}
}
