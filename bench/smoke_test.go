package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/drdp/drdp"
)

// toyRun runs one workload at smoke-test size. Runs share the process's
// telemetry registry, so callers must not run in parallel.
func toyRun(t *testing.T, workload string, seed int64, trace bool) *result {
	t.Helper()
	res, err := run(config{
		workload: workload, seed: seed, dur: 150 * time.Millisecond, trace: trace,
		gens: 2, toy: true, workDir: t.TempDir(), outDir: t.TempDir(),
	})
	if err != nil {
		t.Fatalf("%s trace=%t: %v", workload, trace, err)
	}
	return res
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// Every workload, traced and untraced, must pass its checks and emit
// exactly the catalogue's metrics: each once, finite, with its unit.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, w := range workloadNames() {
		for _, trace := range []bool{false, true} {
			res := toyRun(t, w, 7, trace)
			if len(res.failures) > 0 {
				t.Errorf("%s trace=%t: checks failed: %v", w, trace, res.failures)
				continue
			}
			var out bytes.Buffer
			if err := emit(&out, res); err != nil {
				t.Fatalf("%s trace=%t: emit: %v", w, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var line resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("%s trace=%t: last line is not the result object: %v", w, trace, err)
			}
			if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d", w, trace, line.Correct, line.Attempted, line.Failed)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(line.Metrics) != len(defs) {
				t.Errorf("%s trace=%t: %d metrics emitted, catalogue has %d", w, trace, len(line.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := line.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%t: metric %s missing", w, trace, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s trace=%t: %s has unit %q, want %q", w, trace, d.Name, m.Unit, d.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%t: %s = %v is not finite", w, trace, d.Name, m.Value)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w, d.Name, m.Value)
				}
				if n := strings.Count(out.String(), "\n"+d.Name+" "); n != 1 {
					t.Errorf("%s trace=%t: %s printed %d times in the table", w, trace, d.Name, n)
				}
			}
			if trace {
				if _, err := os.Stat(res.tracePath); err != nil {
					t.Errorf("%s: trace file: %v", w, err)
				}
			}
		}
	}
}

// benchmarkJSON mirrors the driver's contract for BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

// BENCHMARK.json must state exactly the catalogue in metrics.go, within
// the contract's limits.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := top[k]; !ok {
			t.Errorf("BENCHMARK.json lacks key %q", k)
		}
	}
	if len(top) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want exactly 6", len(top))
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the catalogue", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		name(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: %+v, catalogue has %+v", i, w, workloads[i])
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the catalogue", len(b.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range b.EndToEnd {
		name(m.Name)
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d: %+v, catalogue has %s %s %s %g", i, m, d.Name, d.Unit, d.Better, d.Bound)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s [s, lower]")
	}
	if len(b.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the catalogue (limit 128)", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		name(m.Name)
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: %+v, catalogue has %s %s %s", i, m, d.Name, d.Unit, d.Better)
		}
		if d.Source == "" || d.Moves == "" {
			t.Errorf("%s: per-layer metric without a source or a predicted effect", d.Name)
		}
		for _, w := range d.On {
			if !seen[w] {
				t.Errorf("%s: applies to unknown workload %q", d.Name, w)
			}
		}
	}
}

// The same seed gives the same inputs, another seed gives others.
func TestInputsFollowTheSeed(t *testing.T) {
	digest := func(w string, seed int64) string {
		wl, err := newWorkload(config{workload: w, seed: seed, gens: 2, toy: true, workDir: t.TempDir()}, nil)
		if err != nil {
			t.Fatal(err)
		}
		ih := newInputHash()
		if err := wl.prepare(ih); err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		return ih.sum()
	}
	for _, w := range workloadNames() {
		a, b, c := digest(w, 3), digest(w, 3), digest(w, 4)
		if a != b {
			t.Errorf("%s: seed 3 gave inputs %s then %s", w, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 3 and 4 gave the same inputs %s", w, a)
		}
	}
}

// healthy is evidence every check accepts; each case below breaks one
// input and names the check that must notice.
func healthy() evidence {
	return evidence{
		obs: &observations{
			dim: 17, codecs: map[string]int{"binary": 2}, setupComponents: 4,
			accuracy: 0.9, ermAccuracy: 0.8, accuracyModels: 64,
			reopenChecked: true, wantLen: 100, gotLen: 100, wantVersion: 100, gotVersion: 100, poisonStored: 10, poisonCaught: 9,
			fanoutChecked: true, deltaChecked: 5,
			tieredChecked: true, replicated: true, followersLevel: true,
			regionStats: drdp.RegionSyncStats{RawBytes: 1000, UpBytes: 100},
		},
		respFull: 30, respDelta: 30, respNotModified: 40,
	}
}

func TestEveryCheckFires(t *testing.T) {
	if fails := verify(healthy()); len(fails) != 0 {
		t.Fatalf("healthy evidence failed: %v", fails)
	}
	cases := []struct {
		name   string
		break_ func(*evidence)
		want   string
	}{
		{"prior weights or dim", func(e *evidence) { e.badPriors = 1 }, "fetched priors"},
		{"gob connection", func(e *evidence) { e.obs.codecs["gob"] = 1 }, "want binary"},
		{"no codec reported", func(e *evidence) { e.obs.codecs = nil }, "no connection reported"},
		{"gob traffic", func(e *evidence) { e.gobMsgs = 3 }, "gob messages"},
		{"redial", func(e *evidence) { e.timedDials = 1 }, "edge.dials"},
		{"single-component prior", func(e *evidence) { e.obs.setupComponents = 1 }, "components after set-up"},
		{"accuracy below ERM", func(e *evidence) { e.obs.accuracy = 0.7 }, "below local-only ERM"},
		{"accuracy NaN-safe", func(e *evidence) { e.obs.ermAccuracy = math.Inf(1) }, "below local-only ERM"},
		{"no model sampled", func(e *evidence) { e.obs.accuracyModels = 0 }, "no model was sampled"},
		{"lost upload", func(e *evidence) { e.obs.gotLen = 99 }, "reopened store holds"},
		{"version moved", func(e *evidence) { e.obs.gotVersion = 101 }, "reopened store is at version"},
		{"poison admitted", func(e *evidence) { e.obs.poisonCaught = 4 }, "adversarial uploads quarantined"},
		{"honest upload rejected", func(e *evidence) { e.failedOps = 1 }, "uploads were rejected"},
		{"delta differs from full", func(e *evidence) { e.obs.deltaMismatched = 1 }, "differ from a full fetch"},
		{"no delta compared", func(e *evidence) { e.obs.deltaChecked = 0 }, "no delta-refreshed prior"},
		{"response kind starved", func(e *evidence) { e.respDelta = 1 }, `response kind "delta"`},
		{"not replicated", func(e *evidence) { e.obs.replicated = false }, "WaitReplicated"},
		{"follower behind", func(e *evidence) { e.obs.followersLevel = false }, "follower's store version"},
		{"no upward saving", func(e *evidence) { e.obs.regionStats.UpBytes = 900 }, "up_bytes_ratio"},
	}
	for _, c := range cases {
		ev := healthy()
		c.break_(&ev)
		fails := verify(ev)
		if len(fails) != 1 || !strings.Contains(fails[0], c.want) {
			t.Errorf("%s: failures %q, want exactly one mentioning %q", c.name, fails, c.want)
		}
	}
}

// A run whose checks failed must print nothing and return an error
// (main turns that into a non-zero exit).
func TestFailedRunPrintsNoMetrics(t *testing.T) {
	res := toyRun(t, "prior_fanout", 5, false)
	res.failures = []string{"a deliberately corrupted input"}
	var out bytes.Buffer
	if err := emit(&out, res); err == nil || !strings.Contains(err.Error(), "corrupted") {
		t.Errorf("emit returned %v, want the failure", err)
	}
	if out.Len() != 0 {
		t.Errorf("emit printed %q for a failed run", out.String())
	}
}

func TestStaleness(t *testing.T) {
	ms := time.Millisecond
	g := &gen{
		acks:    []ack{{at: 10 * ms, version: 5}, {at: 30 * ms, version: 6}, {at: 20 * ms, version: 7}},
		fetches: []fetchObs{{at: 40 * ms, built: 7}, {at: 40 * ms, built: 5}, {at: 15 * ms, built: 4}, {at: 5 * ms, built: 4}},
	}
	got := staleness([]*gen{g})
	want := []float64{0, 0.020, 0.005, 0} // covered; oldest uncovered ack is v7 at 20ms; v5 at 10ms; nothing acked yet
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("fetch %d: staleness %g s, want %g", i, got[i], want[i])
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	q1, q2, q3 := quartiles([]float64{5, 1, 4, 2, 3})
	if q1 != 1.5 || q2 != 3 || q3 != 4.5 {
		t.Errorf("quartiles = %g %g %g", q1, q2, q3)
	}
	// statistics.quantiles([10, 20, 40, 80], n=4) == [12.5, 30.0, 70.0]
	q1, q2, q3 = quartiles([]float64{10, 20, 40, 80})
	if q1 != 12.5 || q2 != 30 || q3 != 70 {
		t.Errorf("quartiles = %g %g %g", q1, q2, q3)
	}
}

func TestCompare(t *testing.T) {
	write := func(name string, scale map[string]float64, failed int) string {
		lg := ledger{Seconds: 1}
		for _, w := range workloadNames() {
			for i := 0; i < 5; i++ {
				r := ledgerRun{Workload: w, Seed: int64(i % 2), resultLine: resultLine{Correct: true, Attempted: 100, Failed: failed, Metrics: map[string]metricOut{}}}
				for _, d := range endToEnd {
					f := scale[w+"/"+d.Name]
					if f == 0 {
						f = 1
					}
					jitter := 1 + 0.001*float64(i)
					if s, ok := scale["spread/"+d.Name]; ok {
						jitter = 1 + s*float64(i)
					}
					r.Metrics[d.Name] = metricOut{Value: 100 * f * jitter, Unit: d.Unit}
				}
				lg.Runs = append(lg.Runs, r)
			}
		}
		b, err := json.Marshal(lg)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", nil, 0)
	var out bytes.Buffer
	if err := compareLedgers(base, write("same.json", nil, 0), &out); err != nil {
		t.Errorf("identical ledgers: %v", err)
	}
	if n := strings.Count(out.String(), "\n"); n != 1+len(workloads)*(len(endToEnd)+1) {
		t.Errorf("compare printed %d lines:\n%s", n, out.String())
	}
	out.Reset()
	err := compareLedgers(base, write("slow.json", map[string]float64{"ingest_burst/op_p50_ms": 1.5}, 0), &out)
	if err == nil || !strings.Contains(err.Error(), "ingest_burst/op_p50_ms") || strings.Count(out.String(), "REGRESSION") != 1 {
		t.Errorf("slower op_p50_ms: err %v\n%s", err, out.String())
	}
	// Higher is better for ops_per_s: more is fine, less is a regression.
	if err := compareLedgers(base, write("fast.json", map[string]float64{"fit_heavy/ops_per_s": 1.5}, 0), &out); err != nil {
		t.Errorf("faster ops_per_s: %v", err)
	}
	if err := compareLedgers(base, write("less.json", map[string]float64{"fit_heavy/ops_per_s": 0.5}, 0), &out); err == nil {
		t.Error("halved ops_per_s passed")
	}
	if err := compareLedgers(base, write("failing.json", nil, 1), &out); err == nil || !strings.Contains(err.Error(), "failed_share") {
		t.Errorf("higher failed share: %v", err)
	}
	// A parent whose own runs spread wider than the bound cannot show
	// "unchanged".
	out.Reset()
	noisy := write("noisy.json", map[string]float64{"spread/op_p50_ms": 0.2}, 0)
	if err := compareLedgers(noisy, noisy, &out); err != nil {
		t.Errorf("noisy parent against itself: %v", err)
	}
	if n := strings.Count(out.String(), "unresolved"); n != len(workloads) {
		t.Errorf("%d pairs unresolved, want %d:\n%s", n, len(workloads), out.String())
	}
}
