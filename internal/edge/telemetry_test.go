package edge

import (
	"errors"
	"math"
	"math/rand"
	"net"
	"testing"
	"time"

	"github.com/drdp/drdp/internal/data"
	"github.com/drdp/drdp/internal/dro"
	"github.com/drdp/drdp/internal/model"
	"github.com/drdp/drdp/internal/telemetry"
)

// The tests in this file assert deltas of the process-global Default
// registry, so none of them may run in parallel with anything that
// touches the edge-client counters. Top-level tests in a package run
// sequentially (parallel subtests elsewhere finish before their parents
// return), so plain sequential tests are isolation enough.

// TestTelemetryRetryMetricsDeterministic pins the exact metric deltas
// of one failed round trip against a dead cloud: with 3 attempts, a
// jitter-free 10ms base and 2x multiplier, the instrumentation must
// record exactly 3 dials, 3 failures, 2 retries, and 30ms of backoff.
func TestTelemetryRetryMetricsDeterministic(t *testing.T) {
	addr := deadAddr(t)
	rc := DialResilient(addr, ResilientOptions{
		Retry:       RetryPolicy{MaxAttempts: 3, Base: 10 * time.Millisecond, Multiplier: 2},
		DialTimeout: 200 * time.Millisecond,
		Seed:        1,
		Logger:      telemetry.Discard(),
	})
	defer rc.Close()
	rc.sleep = func(time.Duration) {} // fake clock: schedule is recorded, not slept

	before := telemetry.Snapshot()
	if _, _, err := rc.FetchPrior(4); err == nil {
		t.Fatal("fetch against a dead address succeeded")
	}
	after := telemetry.Snapshot()

	for _, tc := range []struct {
		name string
		want float64
	}{
		{"drdp_edge_client_dials_total", 3},
		{"drdp_edge_client_failures_total", 3},
		{"drdp_edge_client_retries_total", 2},
	} {
		if got := after.CounterDelta(before, tc.name); got != tc.want {
			t.Errorf("%s delta = %g, want %g", tc.name, got, tc.want)
		}
	}
	// Backoff seconds: 10ms + 20ms, recorded even though sleep is faked.
	backoff := after.CounterDelta(before, "drdp_edge_client_backoff_seconds_total")
	if math.Abs(backoff-0.030) > 1e-9 {
		t.Errorf("backoff delta = %g s, want 0.030 s", backoff)
	}
	// The metric deltas and TransportStats are two views of the same
	// machinery; they must agree.
	st := rc.TransportStats()
	if float64(st.Dials) != after.CounterDelta(before, "drdp_edge_client_dials_total") ||
		float64(st.Retries) != after.CounterDelta(before, "drdp_edge_client_retries_total") ||
		float64(st.Failures) != after.CounterDelta(before, "drdp_edge_client_failures_total") {
		t.Errorf("metric deltas disagree with TransportStats %+v", st)
	}
	// Nothing succeeded, so no round-trip latency may have been observed.
	hb, _ := after.Histogram("drdp_edge_client_roundtrip_seconds")
	ha, _ := before.Histogram("drdp_edge_client_roundtrip_seconds")
	if hb.Count != ha.Count {
		t.Errorf("roundtrip histogram count grew by %d on pure failures", hb.Count-ha.Count)
	}
}

// TestTelemetryBreakerTransitions drives the breaker open through the
// resilient client and checks the transition counter, the state gauge,
// and that the caller's own OnStateChange still fires after telemetry's.
func TestTelemetryBreakerTransitions(t *testing.T) {
	addr := deadAddr(t)
	var userSaw []BreakerState
	rc := DialResilient(addr, ResilientOptions{
		Retry: RetryPolicy{MaxAttempts: 1},
		Breaker: BreakerConfig{
			Threshold: 2,
			Cooldown:  time.Hour,
			OnStateChange: func(from, to BreakerState) {
				userSaw = append(userSaw, to)
			},
		},
		DialTimeout: 200 * time.Millisecond,
		Seed:        1,
		Logger:      telemetry.Discard(),
	})
	defer rc.Close()

	before := telemetry.Snapshot()
	for i := 0; i < 2; i++ {
		if _, _, err := rc.FetchPrior(4); err == nil {
			t.Fatal("fetch against a dead address succeeded")
		}
	}
	after := telemetry.Snapshot()

	if got := after.CounterDelta(before, "drdp_edge_breaker_transitions_total", telemetry.L("to", "open")); got != 1 {
		t.Errorf("transitions{to=open} delta = %g, want 1", got)
	}
	if got := after.Gauge("drdp_edge_breaker_state"); got != float64(BreakerOpen) {
		t.Errorf("breaker state gauge = %g, want %g (open)", got, float64(BreakerOpen))
	}
	if len(userSaw) != 1 || userSaw[0] != BreakerOpen {
		t.Errorf("user OnStateChange saw %v, want [open]", userSaw)
	}

	// Open breaker fails fast: no new dial, no new transition.
	if _, _, err := rc.FetchPrior(4); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("expected ErrCircuitOpen, got %v", err)
	}
	last := telemetry.Snapshot()
	if got := last.CounterDelta(after, "drdp_edge_client_dials_total"); got != 0 {
		t.Errorf("open breaker still dialed %g times", got)
	}
	if got := last.CounterDelta(after, "drdp_edge_breaker_transitions_total", telemetry.L("to", "open")); got != 0 {
		t.Errorf("fail-fast recorded %g spurious open transitions", got)
	}
}

// TestTelemetryCacheAndDegradationMetrics walks a device through the
// full degradation ladder — fresh fetch, NotModified revalidation,
// outage served from cache — and checks each rung's counters.
func TestTelemetryCacheAndDegradationMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	addr, srv := startServerCfg(t, seedTasks(rng, 4, 3), nil)

	cache, err := NewPriorCache("")
	if err != nil {
		t.Fatal(err)
	}
	dev := &Device{
		ID:      3,
		Model:   model.Logistic{Dim: 2},
		Set:     dro.Set{Kind: dro.Wasserstein, Rho: 0.05},
		EMIters: 3,
		Cache:   cache,
	}
	task := data.LinearTask{W: []float64{2, -1}, Flip: 0.05}
	rc := DialResilient(addr, ResilientOptions{
		Retry:            RetryPolicy{MaxAttempts: 1},
		DialTimeout:      time.Second,
		RoundTripTimeout: 2 * time.Second,
		Seed:             1,
		Logger:           telemetry.Discard(),
	})
	defer rc.Close()

	round := func(wantLevel Degradation) (Values, Values) {
		t.Helper()
		before := telemetry.Snapshot()
		train := task.Sample(rng, 30)
		_, st, err := dev.RunWithStatus(rc, train.X, train.Y, false)
		if err != nil {
			t.Fatalf("round failed: %v", err)
		}
		if st.Degradation != wantLevel {
			t.Fatalf("degradation = %v, want %v", st.Degradation, wantLevel)
		}
		return before, telemetry.Snapshot()
	}

	// Round 1: cold cache, fresh fetch -> one miss, a fresh-prior round.
	before, after := round(DegradedNone)
	if got := after.CounterDelta(before, "drdp_edge_cache_misses_total"); got != 1 {
		t.Errorf("fresh fetch: cache misses delta = %g, want 1", got)
	}
	if got := after.CounterDelta(before, "drdp_edge_device_rounds_total", telemetry.L("prior", "fresh-prior")); got != 1 {
		t.Errorf("fresh fetch: rounds{fresh-prior} delta = %g, want 1", got)
	}

	// Round 2: warm cache, unchanged cloud -> NotModified, one hit.
	before, after = round(DegradedNone)
	if got := after.CounterDelta(before, "drdp_edge_cache_hits_total"); got != 1 {
		t.Errorf("revalidation: cache hits delta = %g, want 1", got)
	}
	if got := after.CounterDelta(before, "drdp_edge_cache_misses_total"); got != 0 {
		t.Errorf("revalidation: cache misses delta = %g, want 0", got)
	}

	// Round 3: cloud down -> fetch error, stale cache serves the round.
	srv.Close()
	before, after = round(DegradedCached)
	if got := after.CounterDelta(before, "drdp_edge_device_fetch_errors_total"); got != 1 {
		t.Errorf("outage: fetch errors delta = %g, want 1", got)
	}
	if got := after.CounterDelta(before, "drdp_edge_cache_stale_total"); got != 1 {
		t.Errorf("outage: cache stale delta = %g, want 1", got)
	}
	if got := after.CounterDelta(before, "drdp_edge_device_rounds_total", telemetry.L("prior", "cached-prior")); got != 1 {
		t.Errorf("outage: rounds{cached-prior} delta = %g, want 1", got)
	}
}

// Values is re-exported here only to keep the round helper's signature
// readable.
type Values = telemetry.Values

// TestTelemetryChaosMatchesInjectedFaults runs the client over a link
// that hard-resets every connection after a fixed number of ops — a
// precise, probability-free fault schedule — and asserts that the
// metric deltas match, exactly, what the transport machinery itself
// counted: injected faults and exported metrics must agree, not merely
// both be nonzero.
func TestTelemetryChaosMatchesInjectedFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	addr, _ := startServerCfg(t, seedTasks(rng, 4, 3), nil)

	faults := FaultConfig{Seed: 3, FailAfterOps: 12}
	dial := faults.Dialer(func() (net.Conn, error) {
		return net.DialTimeout("tcp", addr, time.Second)
	})
	rc := NewResilientClient(dial, ResilientOptions{
		Retry:            RetryPolicy{MaxAttempts: 4, Base: time.Millisecond, Multiplier: 2, Jitter: 0.2},
		Breaker:          BreakerConfig{Threshold: 16, Cooldown: 50 * time.Millisecond},
		DialTimeout:      time.Second,
		RoundTripTimeout: 500 * time.Millisecond,
		Seed:             9,
		Logger:           telemetry.Discard(),
	})
	defer rc.Close()
	rc.sleep = func(time.Duration) {}

	before := telemetry.Snapshot()
	completed := 0 // round trips that reached the server and back
	for i := 0; i < 10; i++ {
		_, _, err := rc.FetchPrior(3)
		var se *ServerError
		if err == nil || errors.As(err, &se) {
			completed++
		}
	}
	after := telemetry.Snapshot()

	st := rc.TransportStats()
	if st.Failures == 0 {
		t.Fatal("fault injection produced no transport failures; chaos assertion is vacuous")
	}
	for _, tc := range []struct {
		name string
		want int
	}{
		{"drdp_edge_client_dials_total", st.Dials},
		{"drdp_edge_client_retries_total", st.Retries},
		{"drdp_edge_client_failures_total", st.Failures},
	} {
		if got := after.CounterDelta(before, tc.name); got != float64(tc.want) {
			t.Errorf("%s delta = %g, want %d (TransportStats)", tc.name, got, tc.want)
		}
	}
	// Latency is observed once per completed round trip, no more.
	hb, _ := after.Histogram("drdp_edge_client_roundtrip_seconds")
	ha, _ := before.Histogram("drdp_edge_client_roundtrip_seconds")
	if got := hb.Count - ha.Count; got != uint64(completed) {
		t.Errorf("roundtrip observations delta = %d, want %d completed round trips", got, completed)
	}
	// Bytes flowed in both directions over the counted connection.
	sent := after.CounterDelta(before, "drdp_edge_client_sent_bytes_total")
	recv := after.CounterDelta(before, "drdp_edge_client_received_bytes_total")
	t.Logf("sent=%g recv=%g completed=%d stats=%+v", sent, recv, completed, st)
	if sent <= 0 || recv <= 0 {
		t.Error("byte counters did not grow during chaos traffic")
	}
}
