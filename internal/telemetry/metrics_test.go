package telemetry

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t_total")
	c.Inc()
	c.Add(2.5)
	c.Add(-3) // ignored: counters only go up
	c.Add(math.NaN())
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
	if r.Counter("t_total") != c {
		t.Fatal("same name+labels should return the same handle")
	}
	if r.Counter("t_total", L("a", "b")) == c {
		t.Fatal("different labels should be a different series")
	}

	g := r.Gauge("t_gauge")
	g.Set(10)
	g.Add(-4)
	if got := g.Value(); got != 6 {
		t.Fatalf("gauge = %v, want 6", got)
	}
}

func TestKindClashPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("registering x as gauge after counter should panic")
		}
	}()
	r.Gauge("x")
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("conc_total")
	g := r.Gauge("conc_gauge")
	h := r.Histogram("conc_seconds", []float64{1, 2, 4, 8})

	const workers = 16
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(rng.Float64() * 10)
				// Concurrent readers must also be race-free.
				if i%500 == 0 {
					_ = c.Value()
					_ = r.Snapshot()
				}
			}
		}(int64(w))
	}
	wg.Wait()

	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %v, want %d", got, workers*perWorker)
	}
	if got := g.Value(); got != workers*perWorker {
		t.Fatalf("gauge = %v, want %d", got, workers*perWorker)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
	// All observations are in [0,10); bucket counts must sum to the total.
	_, cum, inf := h.buckets()
	if inf != h.Count() {
		t.Fatalf("+Inf cumulative %d != count %d", inf, h.Count())
	}
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			t.Fatalf("cumulative bucket counts not monotone: %v", cum)
		}
	}
}

// TestQuantileAccuracy checks the interpolated quantile estimate
// against the exact empirical quantile of the same sample. With bucket
// width w the interpolation error is bounded by w, so assert within one
// bucket width.
func TestQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	bounds := make([]float64, 100) // uniform width 0.01 over [0,1]
	for i := range bounds {
		bounds[i] = float64(i+1) / 100
	}
	r := NewRegistry()
	h := r.Histogram("q_seconds", bounds)

	const n = 50000
	sample := make([]float64, n)
	for i := range sample {
		v := rng.Float64()
		sample[i] = v
		h.Observe(v)
	}
	sort.Float64s(sample)

	hv := snapshotHistogram(t, r, "q_seconds")
	for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		exact := sample[int(q*float64(n-1))]
		est := hv.Quantile(q)
		if math.Abs(est-exact) > 0.01+1e-9 {
			t.Errorf("q=%v: estimate %v vs exact %v (err > bucket width)", q, est, exact)
		}
	}
}

func snapshotHistogram(t *testing.T, r *Registry, name string) HistogramValue {
	t.Helper()
	hv, ok := r.Snapshot().Histogram(name)
	if !ok {
		t.Fatalf("histogram %s missing from snapshot", name)
	}
	return hv
}

func TestQuantileEdgeCases(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("e_seconds", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(100) // overflow bucket
	hv := snapshotHistogram(t, r, "e_seconds")
	if got := hv.Quantile(1); got != 2 {
		t.Fatalf("overflow quantile = %v, want last bound 2", got)
	}
	if !math.IsNaN(hv.Quantile(-0.1)) || !math.IsNaN(hv.Quantile(1.1)) {
		t.Fatal("out-of-range q should be NaN")
	}
}

func TestPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("drdp_test_ops_total", L("kind", "a")).Add(3)
	r.Counter("drdp_test_ops_total", L("kind", "b")).Inc()
	r.SetHelp("drdp_test_ops_total", "Test operations.")
	r.Gauge("drdp_test_state").Set(2)
	h := r.Histogram("drdp_test_seconds", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, want := range []string{
		"# HELP drdp_test_ops_total Test operations.\n",
		"# TYPE drdp_test_ops_total counter\n",
		`drdp_test_ops_total{kind="a"} 3` + "\n",
		`drdp_test_ops_total{kind="b"} 1` + "\n",
		"# TYPE drdp_test_state gauge\n",
		"drdp_test_state 2\n",
		"# TYPE drdp_test_seconds histogram\n",
		`drdp_test_seconds_bucket{le="0.1"} 1` + "\n",
		`drdp_test_seconds_bucket{le="1"} 2` + "\n",
		`drdp_test_seconds_bucket{le="+Inf"} 3` + "\n",
		"drdp_test_seconds_sum 5.55\n",
		"drdp_test_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\ngot:\n%s", want, out)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", L("path", `a"b\c`+"\n")).Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `esc_total{path="a\"b\\c\n"} 1`
	if !strings.Contains(b.String(), want) {
		t.Fatalf("escaped series %q missing from:\n%s", want, b.String())
	}
}

func TestSnapshotDelta(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("d_total")
	c.Add(5)
	base := r.Snapshot()
	c.Add(7)
	now := r.Snapshot()
	if got := now.CounterDelta(base, "d_total"); got != 7 {
		t.Fatalf("delta = %v, want 7", got)
	}
	if got := base.Counter("d_total"); got != 5 {
		t.Fatalf("base snapshot mutated: %v", got)
	}
	if got := now.Counter("absent_total"); got != 0 {
		t.Fatalf("absent counter should read 0, got %v", got)
	}
}
