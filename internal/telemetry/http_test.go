package telemetry

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestHandlerServesPrometheusText(t *testing.T) {
	r := NewRegistry()
	r.Counter("h_total").Add(2)
	rec := httptest.NewRecorder()
	Handler(r).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "h_total 2") {
		t.Fatalf("body missing series:\n%s", rec.Body.String())
	}
}

func TestMuxEndpoints(t *testing.T) {
	srv := httptest.NewServer(NewMux(nil))
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d", code)
	}
	// The Default registry carries the full standard instrument set.
	for _, want := range []string{
		"# TYPE drdp_edge_client_roundtrip_seconds histogram",
		"drdp_edge_client_retries_total",
		"drdp_edge_breaker_transitions_total{to=\"open\"}",
		"drdp_edge_cache_hits_total",
		"drdp_edge_server_connections_active",
		"# TYPE drdp_store_appends_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	code, body = get("/debug/vars")
	if code != 200 {
		t.Fatalf("/debug/vars status %d", code)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	if _, ok := vars["drdp"]; !ok {
		t.Fatal("/debug/vars missing drdp snapshot")
	}

	if code, _ := get("/debug/pprof/"); code != 200 {
		t.Fatalf("/debug/pprof/ status %d", code)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("/debug/pprof/cmdline status %d", code)
	}

	code, body = get("/")
	if code != 200 || !strings.Contains(body, "/metrics") {
		t.Fatalf("index: status %d body %q", code, body)
	}
	if code, _ := get("/nope"); code != 404 {
		t.Fatalf("unknown path status %d, want 404", code)
	}
}

// TestExpvarSnapshotIsJSONSafe: JSON has no NaN or Inf, so a gauge set
// to one must still marshal.
func TestExpvarSnapshotIsJSONSafe(t *testing.T) {
	r := NewRegistry()
	r.Gauge("nan_gauge").Set(math.NaN())
	r.Gauge("inf_gauge").Set(math.Inf(1))
	b, err := json.Marshal(jsonSafeSnapshot(r.Snapshot()))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"nan_gauge":"NaN"`) || !strings.Contains(string(b), `"inf_gauge":"+Inf"`) {
		t.Errorf("non-finite gauges not rendered as strings: %s", b)
	}
}

func TestServeBindsEphemeral(t *testing.T) {
	srv, addr, err := Serve("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestLoggers(t *testing.T) {
	if Discard() == nil || DefaultLogger() == nil {
		t.Fatal("loggers must be non-nil")
	}
	Discard().Error("dropped") // must not panic or print
	if OrDefault(nil) != DefaultLogger() {
		t.Fatal("OrDefault(nil) should be DefaultLogger")
	}
	l := Discard()
	if OrDefault(l) != l {
		t.Fatal("OrDefault should pass through non-nil loggers")
	}
}
