package edge

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/telemetry"
)

func buildOpts() dpprior.BuildOptions { return dpprior.BuildOptions{Alpha: 1, Seed: 7} }

// TestRetryPolicyDelaySchedule pins the deterministic backoff schedule:
// exponential growth, cap, and jitter bounds under a seeded RNG.
func TestRetryPolicyDelaySchedule(t *testing.T) {
	p := RetryPolicy{
		MaxAttempts: 6,
		Base:        100 * time.Millisecond,
		Max:         800 * time.Millisecond,
		Multiplier:  2,
	}
	// No jitter, nil rng: pure exponential with a cap.
	want := []time.Duration{
		100 * time.Millisecond,
		200 * time.Millisecond,
		400 * time.Millisecond,
		800 * time.Millisecond,
		800 * time.Millisecond, // capped
	}
	for i, w := range want {
		if got := p.Delay(i, nil); got != w {
			t.Errorf("Delay(%d) = %v, want %v", i, got, w)
		}
	}

	// With jitter: bounded by [d(1-j), min(Max, d(1+j))], and the same
	// seed reproduces the same schedule exactly.
	p.Jitter = 0.25
	first := make([]time.Duration, 5)
	rng := rand.New(rand.NewSource(42))
	for i := range first {
		first[i] = p.Delay(i, rng)
		base := want[i]
		lo := time.Duration(float64(base) * 0.75)
		hi := time.Duration(float64(base) * 1.25)
		if hi > p.Max {
			hi = p.Max
		}
		if first[i] < lo || first[i] > hi {
			t.Errorf("jittered Delay(%d) = %v outside [%v, %v]", i, first[i], lo, hi)
		}
	}
	rng = rand.New(rand.NewSource(42))
	for i := range first {
		if got := p.Delay(i, rng); got != first[i] {
			t.Errorf("same seed, different schedule at %d: %v vs %v", i, got, first[i])
		}
	}
}

// TestRetryPolicyZeroValue: the zero policy is one attempt, no waiting.
func TestRetryPolicyZeroValue(t *testing.T) {
	var p RetryPolicy
	if p.attempts() != 1 {
		t.Errorf("zero policy attempts = %d", p.attempts())
	}
	if d := p.Delay(3, nil); d != 0 {
		t.Errorf("zero policy delay = %v", d)
	}
}

// TestBreakerTransitions drives the breaker through closed → open →
// half-open → closed and half-open → open with a fake clock.
func TestBreakerTransitions(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	b := newBreaker(BreakerConfig{Threshold: 3, Cooldown: time.Second}, clock)

	if b.State() != BreakerClosed {
		t.Fatalf("initial state %v", b.State())
	}
	// Failures below the threshold keep it closed.
	b.onFailure()
	b.onFailure()
	if b.State() != BreakerClosed || b.allow() != nil {
		t.Fatalf("tripped early: %v", b.State())
	}
	// A success resets the consecutive count.
	b.onSuccess()
	b.onFailure()
	b.onFailure()
	if b.State() != BreakerClosed {
		t.Fatalf("consecutive count not reset")
	}
	// Third consecutive failure trips it.
	b.onFailure()
	if b.State() != BreakerOpen {
		t.Fatalf("not open after threshold: %v", b.State())
	}
	if err := b.allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open breaker allowed a request: %v", err)
	}
	// Cooldown elapses → half-open probe allowed.
	now = now.Add(1500 * time.Millisecond)
	if err := b.allow(); err != nil {
		t.Fatalf("half-open probe refused: %v", err)
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state after cooldown: %v", b.State())
	}
	// Probe fails → straight back to open.
	b.onFailure()
	if b.State() != BreakerOpen {
		t.Fatalf("failed probe did not re-open: %v", b.State())
	}
	if err := b.allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatal("re-opened breaker allowed a request")
	}
	// Another cooldown, successful probe → closed.
	now = now.Add(1500 * time.Millisecond)
	if err := b.allow(); err != nil {
		t.Fatalf("second probe refused: %v", err)
	}
	b.onSuccess()
	if b.State() != BreakerClosed {
		t.Fatalf("successful probe did not close: %v", b.State())
	}
}

// TestBreakerDisabled: the zero config never opens.
func TestBreakerDisabled(t *testing.T) {
	b := newBreaker(BreakerConfig{}, nil)
	for i := 0; i < 100; i++ {
		b.onFailure()
	}
	if err := b.allow(); err != nil {
		t.Fatalf("disabled breaker refused: %v", err)
	}
}

// TestResilientRedialAfterBrokenStream kills the client's connection
// mid-session; the next round trip must transparently redial.
func TestResilientRedialAfterBrokenStream(t *testing.T) {
	rng := rand.New(rand.NewSource(200))
	addr, _ := startServerCfg(t, seedTasks(rng, 3, 3), nil)

	var conns []net.Conn
	dial := func() (net.Conn, error) {
		c, err := net.Dial("tcp", addr)
		if err == nil {
			conns = append(conns, c)
		}
		return c, err
	}
	rc := NewResilientClient(dial, ResilientOptions{
		Retry:            RetryPolicy{MaxAttempts: 3, Base: time.Millisecond},
		RoundTripTimeout: time.Second,
		Seed:             1,
	})
	rc.sleep = func(time.Duration) {}
	defer rc.Close()

	if _, _, err := rc.FetchPrior(3); err != nil {
		t.Fatal(err)
	}
	// Brick the live connection behind the client's back.
	conns[len(conns)-1].Close()
	if _, _, err := rc.FetchPrior(3); err != nil {
		t.Fatalf("round trip after broken stream: %v", err)
	}
	st := rc.TransportStats()
	if st.Dials < 2 {
		t.Errorf("expected a redial, stats %+v", st)
	}
}

// TestResilientServerErrorNotRetried: application-level rejections pass
// straight through without burning retries or tripping the breaker.
func TestResilientServerErrorNotRetried(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	addr, _ := startServerCfg(t, seedTasks(rng, 3, 3), nil)
	rc := DialResilient(addr, ResilientOptions{
		Retry:            RetryPolicy{MaxAttempts: 5, Base: time.Millisecond},
		Breaker:          BreakerConfig{Threshold: 2, Cooldown: time.Minute},
		RoundTripTimeout: time.Second,
		Seed:             1,
	})
	rc.sleep = func(time.Duration) {}
	defer rc.Close()

	// Dim mismatch: a ServerError, not a transport fault.
	_, _, err := rc.FetchPrior(99)
	var se *ServerError
	if !errors.As(err, &se) {
		t.Fatalf("want ServerError, got %v", err)
	}
	st := rc.TransportStats()
	if st.Retries != 0 || st.Failures != 0 {
		t.Errorf("server error consumed transport budget: %+v", st)
	}
	if st.Breaker != BreakerClosed {
		t.Errorf("server error tripped breaker: %v", st.Breaker)
	}
	// The session survives: a valid request still works on the same conn.
	if _, _, err := rc.FetchPrior(3); err != nil {
		t.Errorf("session unusable after server error: %v", err)
	}
}

// TestResilientColdStartSurfacesErrNoPrior: an empty cloud is reported
// as ErrNoPrior immediately (no retries — it's not a fault).
func TestResilientColdStartSurfacesErrNoPrior(t *testing.T) {
	addr, _ := startServerCfg(t, nil, nil)
	rc := DialResilient(addr, ResilientOptions{
		Retry:            RetryPolicy{MaxAttempts: 4, Base: time.Millisecond},
		RoundTripTimeout: time.Second,
		Seed:             1,
	})
	rc.sleep = func(time.Duration) {}
	defer rc.Close()
	_, _, err := rc.FetchPrior(3)
	if !errors.Is(err, ErrNoPrior) {
		t.Fatalf("want ErrNoPrior, got %v", err)
	}
	if st := rc.TransportStats(); st.Retries != 0 {
		t.Errorf("cold start was retried: %+v", st)
	}
}

// TestResilientRetriesExhausted: a dead address fails after exactly
// MaxAttempts dials with the last transport error wrapped.
func TestResilientRetriesExhausted(t *testing.T) {
	// Reserve a port and close it so dials are refused fast.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	var slept []time.Duration
	rc := DialResilient(addr, ResilientOptions{
		Retry:       RetryPolicy{MaxAttempts: 3, Base: 10 * time.Millisecond, Multiplier: 2},
		DialTimeout: 200 * time.Millisecond,
		Seed:        1,
	})
	rc.sleep = func(d time.Duration) { slept = append(slept, d) }
	defer rc.Close()

	_, _, err = rc.FetchPrior(3)
	if err == nil {
		t.Fatal("fetch against dead address succeeded")
	}
	st := rc.TransportStats()
	if st.Dials != 3 || st.Failures != 3 || st.Retries != 2 {
		t.Errorf("stats %+v, want 3 dials / 3 failures / 2 retries", st)
	}
	if len(slept) != 2 || slept[0] != 10*time.Millisecond || slept[1] != 20*time.Millisecond {
		t.Errorf("backoff schedule %v", slept)
	}
}

// TestResilientBreakerFailsFast: once consecutive failures trip the
// breaker, further calls return ErrCircuitOpen without dialing.
func TestResilientBreakerFailsFast(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	rc := DialResilient(addr, ResilientOptions{
		Retry:       RetryPolicy{MaxAttempts: 2, Base: time.Millisecond},
		Breaker:     BreakerConfig{Threshold: 2, Cooldown: time.Hour},
		DialTimeout: 200 * time.Millisecond,
		Seed:        1,
	})
	rc.sleep = func(time.Duration) {}
	defer rc.Close()

	if _, _, err := rc.FetchPrior(3); err == nil {
		t.Fatal("first call succeeded against dead address")
	}
	dialsBefore := rc.TransportStats().Dials
	_, _, err = rc.FetchPrior(3)
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("want ErrCircuitOpen, got %v", err)
	}
	if after := rc.TransportStats().Dials; after != dialsBefore {
		t.Errorf("open breaker still dialed: %d -> %d", dialsBefore, after)
	}
	if st := rc.TransportStats(); st.Breaker != BreakerOpen {
		t.Errorf("breaker state %v", st.Breaker)
	}
}

// TestResilientRecoversWhenServerReturns: breaker half-opens after the
// cooldown and the client heals once the cloud is back.
func TestResilientRecoversWhenServerReturns(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	// Reserve an address, then shut it down to simulate an outage.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	rc := DialResilient(addr, ResilientOptions{
		Retry:       RetryPolicy{MaxAttempts: 2, Base: time.Millisecond},
		Breaker:     BreakerConfig{Threshold: 2, Cooldown: 10 * time.Millisecond},
		DialTimeout: 200 * time.Millisecond,
		Seed:        1,
	})
	rc.sleep = func(time.Duration) {}
	defer rc.Close()

	if _, _, err := rc.FetchPrior(3); err == nil {
		t.Fatal("fetch during outage succeeded")
	}
	if rc.TransportStats().Breaker != BreakerOpen {
		t.Fatalf("breaker not open after outage")
	}

	// Cloud comes back on the same address.
	srv, err := NewCloudServer(seedTasks(rng, 3, 3), buildOpts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	serve(t, srv, ln2)

	time.Sleep(20 * time.Millisecond) // let the cooldown elapse
	if _, _, err := rc.FetchPrior(3); err != nil {
		t.Fatalf("fetch after recovery: %v", err)
	}
	if st := rc.TransportStats(); st.Breaker != BreakerClosed {
		t.Errorf("breaker did not close after recovery: %v", st.Breaker)
	}
}

// TestResilientConcurrentCallers: one ResilientClient shared by many
// goroutines over a lossy link. Every call returns, each redial follows
// a failure that dropped the session (so concurrent callers share one
// redial instead of racing their own), and a Close issued while calls
// are in flight returns and leaves the client usable.
func TestResilientConcurrentCallers(t *testing.T) {
	rng := rand.New(rand.NewSource(203))
	addr, _ := startServerCfg(t, seedTasks(rng, 4, 3), nil)
	const callers, calls = 8, 50
	uploads := seedTasks(rng, callers*calls, 3)

	faults := &FaultConfig{Seed: 5, Reset: 0.05, DropWrite: 0.05}
	rc := NewResilientClient(faults.Dialer(func() (net.Conn, error) {
		return dialTCP(addr, time.Second)
	}), ResilientOptions{
		Retry:            DefaultRetryPolicy,
		RoundTripTimeout: 500 * time.Millisecond,
		DialTimeout:      time.Second,
		Seed:             1,
		Logger:           telemetry.Discard(),
	})
	rc.sleep = func(time.Duration) {}
	defer rc.Close()

	// run starts callers goroutines issuing n calls each, a mix of
	// fetches, uploads and stats reads, and returns a channel closed
	// when all of them have returned.
	run := func(n int, started chan<- struct{}) <-chan struct{} {
		var wg sync.WaitGroup
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < n; i++ {
					if i == 1 && started != nil {
						started <- struct{}{}
					}
					switch i % 3 {
					case 0:
						rc.FetchPrior(3)
					case 1:
						rc.ReportTask(uploads[g*calls+i])
					default:
						rc.Stats()
					}
				}
			}(g)
		}
		done := make(chan struct{})
		go func() {
			wg.Wait()
			close(done)
		}()
		return done
	}
	wait := func(done <-chan struct{}, what string) {
		t.Helper()
		select {
		case <-done:
		case <-time.After(time.Minute):
			t.Fatalf("%s: calls still blocked after a minute", what)
		}
	}

	wait(run(calls, nil), "shared client")
	st := rc.TransportStats()
	if st.Failures == 0 {
		t.Fatalf("the fault schedule injected nothing; the test is vacuous: %+v", st)
	}
	if st.Dials-1 > st.Failures {
		t.Errorf("%d dials after %d failures: callers redialed a live session", st.Dials, st.Failures)
	}

	started := make(chan struct{}, callers)
	done := run(calls/5, started)
	<-started
	closed := make(chan struct{})
	go func() {
		rc.Close()
		close(closed)
	}()
	wait(closed, "Close")
	wait(done, "calls racing Close")
	if _, _, err := rc.FetchPrior(3); err != nil {
		// One fault-free attempt is likely, not certain; a transport
		// error here is the schedule, a panic or hang would be the bug.
		t.Logf("fetch after Close: %v", err)
	}
}
