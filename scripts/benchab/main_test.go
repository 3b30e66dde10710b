package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

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

// fakeRuns answers each run with ops_per_s 100 on A and 110 on B, except
// the runs fail names (by "side/pair"), which fail.
func fakeRuns(fail map[string]bool) func(side, pair, seed int) (result, string, string, error) {
	return func(side, pair, seed int) (result, string, string, error) {
		if fail[fmt.Sprintf("%c/%d", 'A'+side, pair)] {
			return result{}, "", "exit status 1 (output in x.log)\n  bench: check failed", nil
		}
		var res result
		line := fmt.Sprintf(`{"correct":true,"attempted":100,"failed":0,"metrics":{"ops_per_s":{"value":%d}}}`, 100+10*side+pair%3)
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			return result{}, "", "", err
		}
		return res, line, "", nil
	}
}

func TestCompareSurvivesFailedRuns(t *testing.T) {
	sp := spec{EndToEnd: []metric{{Name: "ops_per_s", Better: "higher", Bound: 0.2}}}
	for _, c := range []struct {
		name      string
		pairs     int
		fail      map[string]bool
		wantWorse bool
		want      []string
	}{
		{"B fails once", 10, map[string]bool{"B/3": true}, true, []string{
			"w: side B, pair 3, seed 12 failed: exit status 1",
			"\n  bench: check failed",
			"failed runs A 0, B 1",
			"worse: B has more failed runs than A",
			" 9/9 ",
		}},
		{"A fails once", 10, map[string]bool{"A/4": true}, false, []string{
			"w: side A, pair 4, seed 11 failed",
			"failed runs A 1, B 0",
			" 9/9 ",
		}},
		{"both fail once", 10, map[string]bool{"A/0": true, "B/1": true}, false, []string{
			"failed runs A 1, B 1",
			" 8/8 ",
		}},
		{"B fails every run", 2, map[string]bool{"B/0": true, "B/1": true}, true, []string{
			"failed runs A 0, B 2",
			"no complete pair to compare",
		}},
	} {
		var ledger, out bytes.Buffer
		worse, err := compare(sp, "w", c.pairs, fakeRuns(c.fail), &ledger, &out)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if worse != c.wantWorse {
			t.Errorf("%s: worse = %v, want %v\n%s", c.name, worse, c.wantWorse, out.String())
		}
		for _, w := range c.want {
			if !strings.Contains(out.String(), w) {
				t.Errorf("%s: output lacks %q:\n%s", c.name, w, out.String())
			}
		}
		// A failed run leaves its pair: the other side's run is either
		// logged before it or never started.
		if got, want := strings.Count(ledger.String(), "\n"), ledgerLines(c.pairs, c.fail); got != want {
			t.Errorf("%s: %d ledger lines, want %d", c.name, got, want)
		}
	}
}

func TestRunOnceReportsFailures(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "run.log")
	for _, c := range []struct {
		name, script, failure string
	}{
		{"exit 1", "echo 'bench: generator 0: first failure: boom' >&2; exit 1", "exit status 1"},
		{"correct false", `echo '{"correct":false}'; echo 'bench: check x failed' >&2`, "correctness checks failed"},
		{"no result", "echo hello", "last line is not a result"},
		{"good", `echo '{"correct":true,"attempted":3,"failed":0}'`, ""},
	} {
		sp := spec{Command: []string{"sh", "-c", c.script, "fake"}, RunSeconds: 1}
		res, line, failure, err := runOnce(sp, dir, "w", 11, logPath)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if c.failure == "" {
			if failure != "" || res.Attempted != 3 || line == "" {
				t.Errorf("%s: failure %q, attempted %d, line %q", c.name, failure, res.Attempted, line)
			}
			continue
		}
		if !strings.HasPrefix(failure, c.failure) || !strings.Contains(failure, logPath) {
			t.Errorf("%s: failure %q, want prefix %q naming %s", c.name, failure, c.failure, logPath)
		}
		if strings.Contains(c.script, "bench:") && !strings.Contains(failure, "\n  bench: ") {
			t.Errorf("%s: failure %q lacks the run's bench: line", c.name, failure)
		}
	}
}

// ledgerLines is how many result lines compare logs for pairs with the
// given failed runs: a pair runs A,B when even and B,A when odd, and
// stops at its first failure.
func ledgerLines(pairs int, fail map[string]bool) int {
	n := 0
	for i := 0; i < pairs; i++ {
		order := "AB"
		if i%2 == 1 {
			order = "BA"
		}
		for _, side := range order {
			if fail[fmt.Sprintf("%c/%d", side, i)] {
				break
			}
			n++
		}
	}
	return n
}
