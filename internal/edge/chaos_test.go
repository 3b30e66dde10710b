package edge

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/drdp/drdp/internal/data"
	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/dro"
	"github.com/drdp/drdp/internal/model"
	"github.com/drdp/drdp/internal/telemetry"
	"github.com/drdp/drdp/internal/wire"
)

// chaosCases enumerates one fault class per entry, each aggressive
// enough to break a bare MuxClient but survivable by a ResilientClient
// with retries, a cache, and local fallback.
func chaosCases() map[string]FaultConfig {
	return map[string]FaultConfig{
		"drops":   {Seed: 1, DropWrite: 0.3},
		"resets":  {Seed: 2, Reset: 0.15},
		"corrupt": {Seed: 3, CorruptWrite: 0.2, CorruptRead: 0.1},
		"partial": {Seed: 4, PartialWrite: 0.25},
		"stalls":  {Seed: 5, DelayProb: 0.4, Delay: 120 * time.Millisecond},
		"everything": {
			Seed: 6, DropWrite: 0.1, Reset: 0.05, CorruptWrite: 0.05,
			CorruptRead: 0.05, PartialWrite: 0.1, DelayProb: 0.2,
			Delay: 60 * time.Millisecond,
		},
	}
}

// TestChaosDeviceLoop drives the full fetch→train→report loop through
// every fault class. The acceptance bar: every round completes (fresh,
// cached, or local as availability dictates), nothing hangs past its
// deadline budget, the server never dies, and the degradation level is
// reported truthfully.
func TestChaosDeviceLoop(t *testing.T) {
	for name, faults := range chaosCases() {
		faults := faults
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(500))
			addr, srv := startServerCfg(t, seedTasks(rng, 4, 3), nil)

			task := data.LinearTask{W: []float64{2, -1}, Flip: 0.05}
			cache, err := NewPriorCache("")
			if err != nil {
				t.Fatal(err)
			}
			dev := &Device{
				ID:            7,
				Model:         model.Logistic{Dim: 2},
				Set:           dro.Set{Kind: dro.Wasserstein, Rho: 0.05},
				EMIters:       5,
				Cache:         cache,
				FallbackLocal: true,
			}

			dial := faults.Dialer(func() (net.Conn, error) {
				return net.DialTimeout("tcp", addr, time.Second)
			})
			rc := NewResilientClient(dial, ResilientOptions{
				Retry:            RetryPolicy{MaxAttempts: 4, Base: 5 * time.Millisecond, Multiplier: 2, Jitter: 0.2},
				Breaker:          BreakerConfig{Threshold: 8, Cooldown: 50 * time.Millisecond},
				DialTimeout:      time.Second,
				RoundTripTimeout: 400 * time.Millisecond,
				Seed:             int64(len(name)),
			})
			defer rc.Close()

			const rounds = 6
			// Budget: rounds × attempts × (round trip + backoff) plus
			// training slack. Far looser than reality; a hang blows it.
			budget := time.Duration(rounds) * 8 * time.Second
			done := make(chan error, 1)
			levels := make([]Degradation, 0, rounds)
			go func() {
				for round := 0; round < rounds; round++ {
					train := task.Sample(rng, 30)
					res, st, err := dev.RunWithStatus(rc, train.X, train.Y, true)
					if err != nil {
						done <- fmt.Errorf("round %d failed: %w", round, err)
						return
					}
					if res == nil {
						done <- fmt.Errorf("round %d: nil result without error", round)
						return
					}
					// Truthfulness: a degraded round must carry its cause;
					// a fresh round must carry a version.
					switch st.Degradation {
					case DegradedNone:
						if st.PriorVersion == 0 {
							done <- fmt.Errorf("round %d: fresh but version 0", round)
							return
						}
					case DegradedCached:
						if st.FetchErr == nil || st.PriorVersion == 0 {
							done <- fmt.Errorf("round %d: cached without cause/version: %+v", round, st)
							return
						}
					case DegradedLocal:
						if !st.ColdStart && st.FetchErr == nil {
							done <- fmt.Errorf("round %d: local-only without cause: %+v", round, st)
							return
						}
					}
					levels = append(levels, st.Degradation)
				}
				done <- nil
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(budget):
				t.Fatalf("chaos loop hung past its %v budget", budget)
			}

			// The server must still be healthy for a clean client.
			c, err := Dial(addr, time.Second)
			if err != nil {
				t.Fatalf("server unreachable after chaos: %v", err)
			}
			defer c.Close()
			c.SetRoundTripTimeout(2 * time.Second)
			if _, err := c.Stats(); err != nil {
				t.Errorf("server unhealthy after chaos: %v", err)
			}
			t.Logf("degradation per round: %v, transport stats %+v", levels, rc.TransportStats())
			_ = srv
		})
	}
}

// TestChaosThrottledAndFaulty composes a lossy fault schedule with a
// link-profile throttle — the "slow AND flaky 3G uplink" case — and
// checks the loop still completes.
func TestChaosThrottledAndFaulty(t *testing.T) {
	rng := rand.New(rand.NewSource(501))
	addr, _ := startServerCfg(t, seedTasks(rng, 3, 3), nil)
	profile := LinkProfile{Name: "flaky", Latency: 5 * time.Millisecond, Bandwidth: 1e6}
	faults := &FaultConfig{Seed: 9, DropWrite: 0.2, Reset: 0.1}

	dial := func() (net.Conn, error) {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			return nil, err
		}
		return profile.Throttle(faults.Wrap(conn)), nil
	}
	rc := NewResilientClient(dial, ResilientOptions{
		Retry:            RetryPolicy{MaxAttempts: 5, Base: 5 * time.Millisecond},
		RoundTripTimeout: 500 * time.Millisecond,
		Seed:             11,
	})
	defer rc.Close()

	ok := 0
	for i := 0; i < 5; i++ {
		if _, _, err := rc.FetchPrior(3); err == nil {
			ok++
		} else if errors.Is(err, ErrCircuitOpen) {
			t.Fatalf("breaker misconfigured for this test: %v", err)
		}
	}
	if ok == 0 {
		t.Errorf("no fetch succeeded over the flaky throttled link; stats %+v", rc.TransportStats())
	}
}

// TestFaultyConnDeterministic: two connections wrapped from configs
// with the same seed draw identical fault verdicts for the same traffic.
func TestFaultyConnDeterministic(t *testing.T) {
	mk := func() *FaultyConn {
		cfg := &FaultConfig{Seed: 77, DropWrite: 0.5, Reset: 0.1}
		a, _ := net.Pipe()
		return cfg.Wrap(a).(*FaultyConn)
	}
	c1, c2 := mk(), mk()
	for i := 0; i < 100; i++ {
		v1 := c1.decide(true)
		v2 := c2.decide(true)
		if v1 != v2 {
			t.Fatalf("schedules diverge at op %d: %+v vs %+v", i, v1, v2)
		}
	}
}

// TestFaultScheduleReproducible runs the same sequential ResilientClient
// traffic twice, each time against a fresh server and a fresh copy of
// one seeded fault schedule, and requires the same transport stats, the
// same outcome sequence and the same number of fault draws on every
// connection. That holds only because a session reads strictly after
// its request is on the wire: a reader that read ahead would race the
// next request's write for the connection's single fault RNG.
func TestFaultScheduleReproducible(t *testing.T) {
	type outcome struct {
		stats TransportStats
		calls []string // per call: outcome class and, on success, version
		draws []int    // per connection: fault verdicts drawn
	}
	run := func() outcome {
		rng := rand.New(rand.NewSource(502))
		addr, srv := startServerCfg(t, seedTasks(rng, 4, 3), nil)
		uploads := seedTasks(rng, 6, 3)
		srv.WaitCaughtUp()

		faults := &FaultConfig{Seed: 21, DropWrite: 0.1, CorruptRead: 0.1, Reset: 0.05}
		var conns []*FaultyConn
		dial := func() (net.Conn, error) {
			conn, err := net.DialTimeout("tcp", addr, time.Second)
			if err != nil {
				return nil, err
			}
			fc := faults.Wrap(conn).(*FaultyConn)
			conns = append(conns, fc)
			return fc, nil
		}
		rc := NewResilientClient(dial, ResilientOptions{
			Retry:            RetryPolicy{MaxAttempts: 3, Base: time.Millisecond},
			DialTimeout:      200 * time.Millisecond,
			RoundTripTimeout: 200 * time.Millisecond,
			Seed:             5,
			Logger:           telemetry.Discard(),
		})
		rc.sleep = func(time.Duration) {}

		var out outcome
		record := func(v uint64, err error) {
			// Settle the server between calls so every answer, and so
			// every frame size, is a function of the call sequence alone.
			srv.WaitCaughtUp()
			if err != nil {
				out.calls = append(out.calls, faultClass(err))
				return
			}
			out.calls = append(out.calls, fmt.Sprintf("ok v%d", v))
		}
		var held *dpprior.Prior
		var heldV uint64
		for _, task := range uploads {
			p, v, err := rc.FetchPrior(3)
			if err == nil {
				held, heldV = p, v
			}
			record(v, err)
			v, err = rc.ReportTask(task)
			record(v, err)
			if held != nil {
				p, v, err = rc.FetchPriorDelta(3, heldV, held)
				if err == nil && p != nil {
					held, heldV = p, v
				}
				record(v, err)
			}
		}
		rc.Close()
		out.stats = rc.TransportStats()
		for _, fc := range conns {
			fc.mu.Lock()
			out.draws = append(out.draws, fc.ops)
			fc.mu.Unlock()
		}
		return out
	}

	first, second := run(), run()
	if first.stats.Failures == 0 {
		t.Fatalf("the schedule injected no failures; the test is vacuous: %+v", first.stats)
	}
	if first.stats != second.stats {
		t.Errorf("transport stats differ: %+v vs %+v", first.stats, second.stats)
	}
	if !slices.Equal(first.calls, second.calls) {
		t.Errorf("call outcomes differ:\n%v\n%v", first.calls, second.calls)
	}
	if !slices.Equal(first.draws, second.draws) {
		t.Errorf("per-connection fault draws differ: %v vs %v", first.draws, second.draws)
	}

	// The rule itself, checked on every Read rather than through its
	// effect on a fault schedule: a sequential caller's connection is
	// read only while a written request still awaits its response.
	rng := rand.New(rand.NewSource(503))
	addr, _ := startServerCfg(t, seedTasks(rng, 4, 3), nil)
	conn, err := dialTCP(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.ClientHandshake(conn, time.Second); err != nil {
		t.Fatal(err)
	}
	oc := &orderConn{Conn: conn}
	c := NewMuxClient(oc)
	for _, task := range seedTasks(rng, 5, 3) {
		p, v, err := c.FetchPrior(3)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.ReportTask(task); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.FetchPriorDelta(3, v, p); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	oc.mu.Lock()
	defer oc.mu.Unlock()
	if oc.written != 15 {
		t.Fatalf("wrote %d request frames, want 15", oc.written)
	}
	if oc.early != 0 {
		t.Errorf("%d Reads started with no request awaiting its response", oc.early)
	}
}

// orderConn counts the Reads that start while every request frame
// written has already been answered in full. The encoder writes one
// frame per Write; a response frame is [u32 payload len][u32 CRC][payload].
type orderConn struct {
	net.Conn
	mu      sync.Mutex
	written int    // request frames written
	read    []byte // response bytes read so far
	early   int    // Reads started with no response outstanding
}

func (c *orderConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.mu.Lock()
	c.written++
	c.mu.Unlock()
	return n, err
}

func (c *orderConn) Read(b []byte) (int, error) {
	c.mu.Lock()
	answered := 0
	for rest := c.read; len(rest) >= 8; answered++ {
		n := 8 + int(binary.LittleEndian.Uint32(rest))
		if len(rest) < n {
			break
		}
		rest = rest[n:]
	}
	if answered >= c.written {
		c.early++
	}
	c.mu.Unlock()
	n, err := c.Conn.Read(b)
	c.mu.Lock()
	c.read = append(c.read, b[:n]...)
	c.mu.Unlock()
	return n, err
}

// faultClass names what ended a failed call, without the addresses and
// ports that differ from run to run.
func faultClass(err error) string {
	var se *ServerError
	switch {
	case errors.As(err, &se):
		return fmt.Sprintf("server %d", se.Code)
	case errors.Is(err, ErrInjectedReset):
		return "reset"
	case errors.Is(err, os.ErrDeadlineExceeded):
		return "timeout"
	default:
		return "transport"
	}
}

// TestFaultyConnFailAfterOps pins the deterministic hard-failure
// schedule: exactly FailAfterOps operations succeed.
func TestFaultyConnFailAfterOps(t *testing.T) {
	cfg := &FaultConfig{FailAfterOps: 3}
	a, b := net.Pipe()
	defer b.Close()
	fc := cfg.Wrap(a)
	go func() {
		buf := make([]byte, 64)
		for {
			if _, err := b.Read(buf); err != nil {
				return
			}
		}
	}()
	for i := 0; i < 3; i++ {
		if _, err := fc.Write([]byte("ok")); err != nil {
			t.Fatalf("op %d failed early: %v", i, err)
		}
	}
	if _, err := fc.Write([]byte("boom")); !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("op 4 = %v, want injected reset", err)
	}
}
