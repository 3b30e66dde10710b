package edge

import (
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/drdp/drdp/internal/telemetry"
	"github.com/drdp/drdp/internal/trace"
	"github.com/drdp/drdp/internal/wire"
)

// DefaultRoundTripTimeout is the round-trip bound for a long-lived
// session to a cloud: generous next to the cloud's semi-sync ack bound
// (DefaultAckTimeout), yet a silent peer cannot park a caller forever.
const DefaultRoundTripTimeout = 10 * time.Second

// ResilientOptions configures a ResilientClient.
type ResilientOptions struct {
	// Retry paces and bounds re-attempts of failed round trips.
	// The zero value means a single attempt; see DefaultRetryPolicy.
	Retry RetryPolicy
	// Breaker trips fail-fast behavior after consecutive transport
	// failures. The zero value disables it; see DefaultBreakerConfig.
	Breaker BreakerConfig
	// DialTimeout bounds each (re)dial (0 = no bound).
	DialTimeout time.Duration
	// RoundTripTimeout bounds each request/response exchange
	// (0 = no bound). Strongly recommended over lossy links: a dropped
	// reply otherwise hangs the round trip forever.
	RoundTripTimeout time.Duration
	// Seed drives the backoff jitter; the same seed yields the same
	// retry schedule. 0 seeds from the clock.
	Seed int64
	// Logger receives structured retry/redial/breaker notices. nil picks
	// the default handler (stderr, WARN level) so real transport trouble
	// is visible out of the box; pass telemetry.Discard() to silence.
	Logger *slog.Logger
	// WireCodec was the dial-time codec preference.
	//
	// Deprecated: every connection is binary; nothing reads it.
	WireCodec wire.Preference
}

// TransportStats counts what the resilience machinery actually did —
// exposed so experiments and operators can see the cost of a lossy link.
type TransportStats struct {
	Dials    int // connection (re)establishments attempted
	Retries  int // round trips re-attempted after a transport failure
	Failures int // transport failures observed (dial + round trip)
	Breaker  BreakerState
}

// ResilientClient is a self-healing cloud connection. Where a MuxClient
// is poisoned by the first transport fault (a broken frame stream
// cannot be resynchronized), ResilientClient runs its calls over a
// MuxClient session that it redials when broken, retries failed round
// trips with exponential backoff and seeded jitter, and fails fast
// through a circuit breaker once the cloud looks down. See calls for
// which requests are safe to resend.
//
// Application-level rejections (*ServerError: dim mismatch, cold cloud,
// malformed task) are returned immediately — the transport worked, so
// resending the identical request cannot help. Only transport faults
// (dial errors, timeouts, resets, corrupt streams) are retried.
//
// A ResilientClient is safe for concurrent use, like the MuxClient it
// wraps: concurrent calls pipeline over one session. A fault fails
// every call in flight on that session, each of which then retries on
// its own; the first to retry redials and the rest share the new
// session. Close may race calls: it ends the session they are using,
// and a later call redials.
type ResilientClient struct {
	calls

	dial   func() (net.Conn, error)
	opts   ResilientOptions
	br     *breaker
	logger *slog.Logger

	// sleep is injectable so tests can run the retry schedule against a
	// fake clock.
	sleep func(time.Duration)

	parent atomic.Pointer[trace.Span] // trace parent for subsequent calls

	// mu guards the session. It is held across a dial, so callers that
	// find the session gone share one redial and Close waits out a dial
	// in progress, but never across a round trip. The dial function must
	// not call back into the client.
	mu sync.Mutex
	c  *MuxClient // current session; nil when disconnected

	// statsMu guards the counters and the jitter source.
	statsMu sync.Mutex
	stats   TransportStats
	rng     *rand.Rand
}

// SetTraceParent sets the span under which subsequent calls record their
// retry/redial/breaker activity: each do() becomes a "call <kind>" child
// span with "dial" and "rpc" grandchildren and retry/shed/fault events.
// nil (the default) keeps the client untraced at zero cost.
func (r *ResilientClient) SetTraceParent(s *trace.Span) { r.parent.Store(s) }

// DialResilient returns a resilient client for the cloud at addr.
// Dialing is lazy: no connection is made until the first round trip, so
// a cloud that is down at construction time only degrades, never blocks,
// the device.
func DialResilient(addr string, opts ResilientOptions) *ResilientClient {
	return NewResilientClient(func() (net.Conn, error) { return dialTCP(addr, opts.DialTimeout) }, opts)
}

// NewResilientClient wraps an arbitrary dial function — compose with
// FaultConfig.Wrap for a lossy link:
//
//	dial := func() (net.Conn, error) { c, err := net.Dial("tcp", addr); ... return faults.Wrap(c), nil }
func NewResilientClient(dial func() (net.Conn, error), opts ResilientOptions) *ResilientClient {
	seed := opts.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	logger := telemetry.OrDefault(opts.Logger)
	// Chain the breaker's transition callback: telemetry gauge +
	// transition counter + log first, then the caller's own
	// callback, so user code always sees transitions the metrics saw.
	userCB := opts.Breaker.OnStateChange
	brCfg := opts.Breaker
	brCfg.OnStateChange = func(from, to BreakerState) {
		telemetry.BreakerState.Set(float64(to))
		telemetry.BreakerTransitionCounter(to.String()).Inc()
		if to == BreakerOpen {
			logger.Warn("edge: circuit breaker opened", "from", from.String())
		} else {
			logger.Info("edge: circuit breaker state change",
				"from", from.String(), "to", to.String())
		}
		if userCB != nil {
			userCB(from, to)
		}
	}
	r := &ResilientClient{
		dial:   dial,
		opts:   opts,
		rng:    rand.New(rand.NewSource(seed)),
		br:     newBreaker(brCfg, nil),
		logger: logger,
		sleep:  time.Sleep,
	}
	r.calls = calls{rt: r.do}
	return r
}

// Close tears down the current session, if any, failing the calls in
// flight on it. A dial in progress is waited out and its session closed
// too, so a call that was dialing fails as well. The client remains
// usable: the next round trip redials.
func (r *ResilientClient) Close() error {
	r.mu.Lock()
	c := r.c
	r.c = nil
	r.mu.Unlock()
	if c == nil {
		return nil
	}
	return c.Close()
}

// TransportStats reports transport-level counters accumulated so far.
func (r *ResilientClient) TransportStats() TransportStats {
	r.statsMu.Lock()
	st := r.stats
	r.statsMu.Unlock()
	st.Breaker = r.br.State()
	return st
}

// session returns the live session, dialing and running the wire
// handshake if there is none. A failed handshake is a failed attempt
// like any other: the connection is dropped and the retry loop dials
// afresh.
func (r *ResilientClient) session(call *trace.Span) (*MuxClient, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.c != nil {
		return r.c, nil
	}
	r.statsMu.Lock()
	r.stats.Dials++
	r.statsMu.Unlock()
	telemetry.EdgeClientDials.Inc()
	sp := call.Child("dial")
	conn, err := r.dial()
	if err != nil {
		sp.EndErr(err)
		return nil, err
	}
	if err := wire.ClientHandshake(conn, r.opts.DialTimeout); err != nil {
		conn.Close()
		err = fmt.Errorf("edge: %w", err)
		sp.EndErr(err)
		return nil, err
	}
	sp.SetAttr(trace.Str("peer", conn.RemoteAddr().String()))
	sp.End()
	r.c = NewMuxClient(countConn{Conn: conn, sent: telemetry.EdgeClientSent, recv: telemetry.EdgeClientReceived})
	r.c.SetRoundTripTimeout(r.opts.RoundTripTimeout)
	return r.c, nil
}

// drop discards session c after it failed or was shed. Only the caller
// that unhooks c closes it: when Close or another caller already did, c
// is left alone, so a session is closed once however many calls fail
// on it.
func (r *ResilientClient) drop(c *MuxClient) {
	r.mu.Lock()
	mine := r.c == c
	if mine {
		r.c = nil
	}
	r.mu.Unlock()
	if mine {
		c.Close()
	}
}

// failed counts one transport failure (dial or round trip).
func (r *ResilientClient) failed() {
	r.statsMu.Lock()
	r.stats.Failures++
	r.statsMu.Unlock()
	telemetry.EdgeClientFailures.Inc()
	r.br.onFailure()
}

// do runs one request through the retry/redial/breaker machinery,
// wrapped in a "call <kind>" span when a trace parent is set.
func (r *ResilientClient) do(req *Request) (*Response, error) {
	parent := r.parent.Load()
	if parent == nil {
		return r.doAttempts(req, nil)
	}
	call := parent.Child("call " + req.Kind.String())
	resp, err := r.doAttempts(req, call)
	call.EndErr(err)
	return resp, err
}

func (r *ResilientClient) doAttempts(req *Request, call *trace.Span) (*Response, error) {
	attempts := r.opts.Retry.attempts()
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			r.statsMu.Lock()
			r.stats.Retries++
			delay := r.opts.Retry.Delay(attempt-1, r.rng)
			r.statsMu.Unlock()
			telemetry.EdgeClientRetries.Inc()
			telemetry.EdgeClientBackoff.Add(delay.Seconds())
			if call != nil {
				call.Event("retry", trace.Int("attempt", int64(attempt+1)), trace.Dur("backoff", delay))
			}
			r.sleep(delay)
		}
		if err := r.br.allow(); err != nil {
			// Fail fast: the breaker is open, don't burn the retry budget
			// (or the device's time) dialing a cloud that is down.
			call.Event("breaker-open")
			if lastErr != nil {
				return nil, fmt.Errorf("%w (last transport error: %v)", err, lastErr)
			}
			return nil, err
		}
		c, err := r.session(call)
		if err != nil {
			r.failed()
			lastErr = err
			r.logger.Warn("edge: resilient dial failed",
				"attempt", attempt+1, "attempts", attempts, "err", err)
			continue
		}
		rtStart := time.Now()
		resp, err := c.roundTrip(req, call)
		if err == nil {
			rt := time.Since(rtStart).Seconds()
			telemetry.EdgeClientRoundtrip.Observe(rt)
			if call != nil {
				telemetry.RecordExemplar("drdp_edge_client_roundtrip_seconds", call.TraceID().String(), rt)
			}
			r.br.onSuccess()
			return resp, nil
		}
		var se *ServerError
		if errors.As(err, &se) {
			telemetry.EdgeClientRoundtrip.Observe(time.Since(rtStart).Seconds())
			// The transport round-tripped fine, so this is never a breaker
			// failure — the server is alive and answering.
			r.br.onSuccess()
			if se.Code == CodeOverloaded {
				// Load shedding is the one retryable rejection: the server
				// asked us to come back later. It also closed the connection
				// after answering, so drop the session and redial after
				// backoff.
				call.Event("overloaded")
				r.drop(c)
				lastErr = err
				r.logger.Warn("edge: server overloaded; backing off",
					"kind", req.Kind.String(), "attempt", attempt+1, "attempts", attempts)
				continue
			}
			// Any other rejection is final: resending the identical request
			// cannot succeed.
			return nil, err
		}
		// Transport fault: the frame stream is now in an unknown state, so
		// the session is unusable — drop it and redial on the next try.
		call.Event("transport-fault", trace.Err(err))
		r.drop(c)
		r.failed()
		lastErr = err
		r.logger.Warn("edge: resilient round trip failed",
			"kind", req.Kind.String(), "attempt", attempt+1, "attempts", attempts, "err", err)
	}
	return nil, fmt.Errorf("edge: resilient: %s failed after %d attempts: %w", req.Kind, attempts, lastErr)
}
