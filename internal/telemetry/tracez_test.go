package telemetry

import (
	"encoding/json"
	"errors"
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/drdp/drdp/internal/trace"
)

// TestEmptyHistogramQuantileNaN pins the empty-histogram sentinel: a
// quantile with no observations is NaN, never 0.
func TestEmptyHistogramQuantileNaN(t *testing.T) {
	r := NewRegistry()
	r.Histogram("test_empty_seconds", nil)
	hv := snapshotHistogram(t, r, "test_empty_seconds")
	for _, q := range []float64{0.5, 0.99} {
		if got := hv.Quantile(q); !math.IsNaN(got) {
			t.Fatalf("empty snapshot quantile %v = %v, want NaN", q, got)
		}
	}
}

// TestJSONSnapshotOmitsEmptyQuantiles checks the expvar/JSON view: an
// empty histogram carries no p50/p99 keys at all — a dashboard must not
// see a bogus 0 or a "NaN" string it would coerce to zero — while a
// populated one does.
func TestJSONSnapshotOmitsEmptyQuantiles(t *testing.T) {
	r := NewRegistry()
	r.Histogram("test_cold_seconds", nil)
	warm := r.Histogram("test_warm_seconds", nil)
	warm.Observe(0.2)

	doc := jsonSafeSnapshot(r.Snapshot())
	if _, err := json.Marshal(doc); err != nil {
		t.Fatalf("snapshot not JSON-safe: %v", err)
	}
	hists := doc["histograms"].(map[string]any)
	cold := hists["test_cold_seconds"].(map[string]any)
	for _, k := range []string{"p50", "p99"} {
		if v, ok := cold[k]; ok {
			t.Errorf("empty histogram exposes %s=%v, want the key omitted", k, v)
		}
	}
	warmDoc := hists["test_warm_seconds"].(map[string]any)
	if _, ok := warmDoc["p99"]; !ok {
		t.Error("populated histogram lost its p99")
	}
}

// TestPrometheusNeverEmitsQuantileSeries guards the scrape surface: the
// exposition is buckets/sum/count only, so no scraper can ever read a
// fabricated quantile from an empty histogram.
func TestPrometheusNeverEmitsQuantileSeries(t *testing.T) {
	r := NewRegistry()
	r.Histogram("test_cold_seconds", nil)
	r.Histogram("test_warm_seconds", nil).Observe(0.3)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Contains(out, "quantile=") {
		t.Fatalf("exposition contains a quantile series:\n%s", out)
	}
	if strings.Contains(out, "NaN") {
		t.Fatalf("exposition contains NaN:\n%s", out)
	}
	if !strings.Contains(out, `test_cold_seconds_bucket{le="+Inf"} 0`) {
		t.Fatalf("empty histogram lost its +Inf bucket:\n%s", out)
	}
}

// TestTracezHandler drives the /tracez surface end to end: JSON
// snapshot, HTML index, per-trace tree, and the exemplar linkage.
func TestTracezHandler(t *testing.T) {
	tr := trace.New(5)
	tr.SetSampleRate(1)
	tr.SetSlowThreshold(-1)
	sp := tr.StartTrace("round", trace.Int("device", 3))
	child := sp.Child("rpc report-task")
	child.Event("retry", trace.Int("attempt", 2))
	child.EndErr(errors.New("boom"))
	sp.End()
	id := sp.TraceID().String()
	RecordExemplar("drdp_edge_client_roundtrip_seconds", id, 0.25)

	h := TracezHandler(tr)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/tracez?format=json", nil))
	var snap struct {
		Recent    []*trace.TraceDump `json:"recent"`
		Notable   []*trace.TraceDump `json:"notable"`
		Exemplars []Exemplar         `json:"exemplars"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("JSON snapshot: %v", err)
	}
	if len(snap.Recent) != 1 || snap.Recent[0].Trace != id {
		t.Fatalf("recent = %+v, want the one trace %s", snap.Recent, id)
	}
	if len(snap.Notable) != 1 {
		t.Fatalf("errored trace missing from the notable ring")
	}
	found := false
	for _, e := range snap.Exemplars {
		if e.Trace == id && e.Histogram == "drdp_edge_client_roundtrip_seconds" {
			found = true
		}
	}
	if !found {
		t.Fatalf("exemplar not exposed: %+v", snap.Exemplars)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/tracez", nil))
	htmlOut := rec.Body.String()
	if !strings.Contains(htmlOut, id) || !strings.Contains(htmlOut, "round") {
		t.Fatalf("HTML index does not list the trace:\n%s", htmlOut)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/tracez?trace="+id, nil))
	tree := rec.Body.String()
	if !strings.Contains(tree, "rpc report-task") || !strings.Contains(tree, "retry") {
		t.Fatalf("per-trace tree incomplete:\n%s", tree)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/tracez?trace=zzzz", nil))
	if rec.Code != 400 {
		t.Fatalf("bad trace id: code %d, want 400", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/tracez?trace=0000000000000001", nil))
	if rec.Code != 404 {
		t.Fatalf("unknown trace: code %d, want 404", rec.Code)
	}
}

// TestRecordExemplarKeepsSlowest pins the replacement policy: within the
// TTL the slowest observation wins.
func TestRecordExemplarKeepsSlowest(t *testing.T) {
	// The exemplar map is process-global: start from no test_hist entry,
	// so a slower one left by an earlier run (-count) cannot win.
	exemplarMu.Lock()
	delete(exemplars, "test_hist")
	exemplarMu.Unlock()
	RecordExemplar("test_hist", "aaa", 0.5)
	RecordExemplar("test_hist", "bbb", 0.1) // faster: must not displace
	RecordExemplar("test_hist", "", 9)      // untraced: ignored entirely
	for _, e := range Exemplars() {
		if e.Histogram == "test_hist" && e.Trace != "aaa" {
			t.Fatalf("faster exemplar displaced the slow one: %+v", e)
		}
	}
	RecordExemplar("test_hist", "ddd", 0.6) // slower: wins
	ok := false
	for _, e := range Exemplars() {
		if e.Histogram == "test_hist" && e.Trace == "ddd" && e.Seconds == 0.6 {
			ok = true
		}
	}
	if !ok {
		t.Fatal("slower exemplar did not win")
	}
}
