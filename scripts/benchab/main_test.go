package main

import "testing"

func TestSummary(t *testing.T) {
	med, q1, q3 := summary([]float64{4, 1, 3, 2, 5})
	if med != 3 || q1 != 2 || q3 != 4 {
		t.Fatalf("summary = %g [%g, %g], want 3 [2, 4]", med, q1, q3)
	}
	if med, q1, q3 = summary([]float64{1, 2}); med != 1.5 || q1 != 1.25 || q3 != 1.75 {
		t.Fatalf("summary of two = %g [%g, %g], want 1.5 [1.25, 1.75]", med, q1, q3)
	}
}

func TestJudge(t *testing.T) {
	higher := metric{Name: "ops_per_s", Better: "higher", Bound: 0.2}
	lower := metric{Name: "op_p50_ms", Better: "lower", Bound: 0.25}
	base := []float64{10, 10.2, 9.9, 10.1, 10, 9.8, 10.3, 10, 9.9, 10.1}
	shift := func(x []float64, by float64) []float64 {
		out := make([]float64, len(x))
		for i, v := range x {
			out[i] = v * by
		}
		return out
	}
	for _, c := range []struct {
		name string
		m    metric
		a, b []float64
		want string
		wins int
	}{
		{"faster wins every pair", higher, base, shift(base, 1.1), "better", 10},
		{"A/A", higher, base, base, "within bound", 0},
		{"slower beyond the bound", higher, base, shift(base, 0.7), "worse", 0},
		{"lower is better", lower, base, shift(base, 0.9), "better", 10},
		{"latency beyond the bound", lower, base, shift(base, 1.3), "worse", 0},
		{"too noisy to tell", higher, []float64{5, 15, 5, 15}, []float64{6, 14, 6, 14}, "unresolved", 2},
	} {
		v := judge(c.m, c.a, c.b)
		if v.verdict != c.want || v.wins != c.wins {
			t.Errorf("%s: verdict %q with %d wins, want %q with %d", c.name, v.verdict, v.wins, c.want, c.wins)
		}
	}
}
