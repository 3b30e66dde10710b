package edge

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/drdp/drdp/internal/telemetry"
)

// TestMaxConnsShedsWithOverloadedCode: connections over the cap get one
// retryable CodeOverloaded answer instead of queueing or a bare reset,
// and capacity frees up once holders leave.
func TestMaxConnsShedsWithOverloadedCode(t *testing.T) {
	rng := rand.New(rand.NewSource(800))
	addr, _ := startServerCfg(t, seedTasks(rng, 4, 3), func(s *CloudServer) {
		s.MaxConns = 2
	})

	// Two holders occupy the server (a completed round trip guarantees
	// each connection is registered before the next dial).
	var holders []*MuxClient
	for i := 0; i < 2; i++ {
		c, err := Dial(addr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.SetRoundTripTimeout(2 * time.Second)
		if _, err := c.Stats(); err != nil {
			t.Fatal(err)
		}
		holders = append(holders, c)
	}

	// The third connection is over the cap: its request must be answered
	// with the retryable overload rejection.
	over, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer over.Close()
	over.SetRoundTripTimeout(2 * time.Second)
	_, _, err = over.FetchPrior(3)
	if err == nil {
		t.Fatal("over-cap request served")
	}
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-cap error %v, want ErrOverloaded", err)
	}

	// Once the holders leave, a resilient client retries through the
	// shedding window and succeeds.
	for _, h := range holders {
		h.Close()
	}
	rc := DialResilient(addr, ResilientOptions{
		Retry:            RetryPolicy{MaxAttempts: 10, Base: 20 * time.Millisecond, Multiplier: 1.5},
		RoundTripTimeout: 2 * time.Second,
		Seed:             1,
		Logger:           telemetry.Discard(),
	})
	defer rc.Close()
	if _, _, err := rc.FetchPrior(3); err != nil {
		t.Fatalf("resilient client never recovered after shedding: %v", err)
	}
}

// TestOverloadFloodNoHangNoLeak: a concurrent flood far above MaxConns
// sheds cleanly — every request either succeeds or fails classifiably,
// nothing hangs, and the connection gauge drains back to its baseline
// (no leaked handler goroutines).
func TestOverloadFloodNoHangNoLeak(t *testing.T) {
	rng := rand.New(rand.NewSource(801))
	addr, _ := startServerCfg(t, seedTasks(rng, 4, 3), func(s *CloudServer) {
		s.MaxConns = 3
	})
	baseline := telemetry.ServerConnsActive.Value()

	const flood = 24
	var wg sync.WaitGroup
	errs := make([]error, flood)
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(addr, 2*time.Second)
			if err != nil {
				errs[i] = err
				return
			}
			defer c.Close()
			c.SetRoundTripTimeout(2 * time.Second)
			_, _, errs[i] = c.FetchPrior(3)
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("flood round trips hung")
	}

	var ok, shed int
	for _, err := range errs {
		switch {
		case err == nil:
			ok++
		case errors.Is(err, ErrOverloaded):
			shed++
		default:
			// Transport-level casualties of the flood (resets on close)
			// are acceptable; unclassifiable application errors are not.
			var se *ServerError
			if errors.As(err, &se) {
				t.Errorf("unexpected server rejection: %v", err)
			}
		}
	}
	if ok == 0 {
		t.Error("no request survived the flood")
	}
	if shed == 0 {
		t.Error("no request was shed despite 8x over the connection cap")
	}

	// All shed and served connections must drain: the active-connection
	// gauge returns to its pre-flood value.
	deadline := time.Now().Add(5 * time.Second)
	for telemetry.ServerConnsActive.Value() != baseline {
		if time.Now().After(deadline) {
			t.Fatalf("connections leaked: gauge %.0f, baseline %.0f",
				telemetry.ServerConnsActive.Value(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestHandlerTimeoutShedsButNeverDropsAcceptedTask: a dispatch past the
// handler deadline answers CodeOverloaded, yet the ReportTask it
// abandoned still commits in the background — shedding never loses an
// accepted task.
func TestHandlerTimeoutShedsButNeverDropsAcceptedTask(t *testing.T) {
	rng := rand.New(rand.NewSource(802))
	release := make(chan struct{})
	addr, srv := startServerCfg(t, seedTasks(rng, 3, 3), func(s *CloudServer) {
		s.HandlerTimeout = 50 * time.Millisecond
		s.panicHook = func(req *Request) {
			if req.Kind == ReportTask {
				<-release
			}
		}
	})
	srv.WaitCaughtUp()

	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetRoundTripTimeout(5 * time.Second)
	_, err = c.ReportTask(seedTasks(rng, 1, 3)[0])
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("slow dispatch error %v, want ErrOverloaded", err)
	}
	if srv.Store().Len() != 3 {
		t.Fatalf("task committed before the dispatch was released")
	}
	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for srv.Store().Len() != 4 {
		if time.Now().After(deadline) {
			t.Fatal("abandoned dispatch never committed the accepted task")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Fast requests still answer normally under the same deadline.
	if _, _, err := c.FetchPrior(3); err != nil {
		t.Errorf("fast request failed under handler deadline: %v", err)
	}
}

// TestRebuildWatchdogFlagsStall: a wedged rebuild worker is flagged
// within the rebuild timeout — telemetry gauge up, /healthz check
// failing — and cleared once the worker moves again.
func TestRebuildWatchdogFlagsStall(t *testing.T) {
	rng := rand.New(rand.NewSource(803))
	_, srv := startServerCfg(t, seedTasks(rng, 3, 3), nil)
	srv.WaitCaughtUp()
	srv.SetRebuildTimeout(40 * time.Millisecond)

	release := make(chan struct{})
	srv.priorMu.Lock()
	srv.buildHook = func(uint64) { <-release }
	srv.priorMu.Unlock()
	if _, err := srv.AddTask(seedTasks(rng, 1, 3)[0]); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for !srv.stalled.Load() {
		if time.Now().After(deadline) {
			t.Fatal("watchdog never flagged the stalled rebuild")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if telemetry.ServerRebuildStalled.Value() != 1 {
		t.Error("stall gauge not raised")
	}
	if errs := telemetry.HealthErrors(); errs["cloud-rebuild"] == nil {
		t.Errorf("healthz does not report the stalled rebuild: %v", errs)
	}

	close(release)
	deadline = time.Now().Add(5 * time.Second)
	for srv.stalled.Load() {
		if time.Now().After(deadline) {
			t.Fatal("watchdog never cleared after the worker recovered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if telemetry.ServerRebuildStalled.Value() != 0 {
		t.Error("stall gauge not cleared")
	}
	srv.WaitCaughtUp()
}
