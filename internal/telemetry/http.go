package telemetry

import (
	"encoding/json"
	"expvar"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
)

// Handler returns an http.Handler serving r in Prometheus text format.
// A nil r serves the Default registry.
func Handler(r *Registry) http.Handler {
	if r == nil {
		r = Default
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

var publishOnce sync.Once

// publishExpvar exposes the Default registry under the expvar key
// "drdp" so /debug/vars carries the same numbers as /metrics.
func publishExpvar() {
	publishOnce.Do(func() {
		expvar.Publish("drdp", expvar.Func(func() any {
			return jsonSafeSnapshot(Default.Snapshot())
		}))
	})
}

// jsonSafeSnapshot converts a Values into a json.Marshal-able view:
// JSON has no NaN/Inf, so non-finite floats (a gauge set to NaN) are
// rendered as strings.
func jsonSafeSnapshot(v Values) map[string]any {
	num := func(f float64) any {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return formatValue(f)
		}
		return f
	}
	counters := make(map[string]any, len(v.Counters))
	for k, f := range v.Counters {
		counters[k] = num(f)
	}
	gauges := make(map[string]any, len(v.Gauges))
	for k, f := range v.Gauges {
		gauges[k] = num(f)
	}
	hists := make(map[string]any, len(v.Histograms))
	for k, h := range v.Histograms {
		hv := map[string]any{
			"bounds": h.Bounds,
			"counts": h.Counts,
			"sum":    num(h.Sum),
			"count":  h.Count,
		}
		// Quantiles of an empty histogram are undefined (NaN sentinel);
		// omit the keys rather than shipping a bogus 0 or a "NaN" string
		// a dashboard would coerce to zero.
		if h.Count > 0 {
			hv["p50"] = num(h.Quantile(0.5))
			hv["p99"] = num(h.Quantile(0.99))
		}
		hists[k] = hv
	}
	return map[string]any{
		"counters":   counters,
		"gauges":     gauges,
		"histograms": hists,
	}
}

// NewMux returns a mux with the full observability surface mounted:
//
//	/metrics      Prometheus text exposition of r (nil = Default)
//	/tracez       flight-recorder traces (HTML, JSON, per-trace trees)
//	/healthz      readiness: 200 when every RegisterHealth check passes
//	/debug/vars   expvar JSON (includes a "drdp" snapshot of Default)
//	/debug/pprof  the standard pprof index, profiles and traces
//
// The mux is what Serve binds; embedders can also mount it themselves.
func NewMux(r *Registry) *http.ServeMux {
	publishExpvar()
	mux := http.NewServeMux()
	mux.Handle("/metrics", Handler(r))
	mux.Handle("/tracez", TracezHandler(nil))
	mux.HandleFunc("/healthz", healthHandler)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]string{
			"metrics": "/metrics",
			"tracez":  "/tracez",
			"healthz": "/healthz",
			"expvar":  "/debug/vars",
			"pprof":   "/debug/pprof/",
		})
	})
	return mux
}

// Serve starts the observability endpoint on addr (e.g. ":9090") in a
// background goroutine and returns the server plus the bound address
// (useful with ":0"). Callers own shutdown via srv.Close. A nil r
// serves the Default registry.
func Serve(addr string, r *Registry) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: NewMux(r)}
	go func() { _ = srv.Serve(ln) }()
	return srv, ln.Addr().String(), nil
}
