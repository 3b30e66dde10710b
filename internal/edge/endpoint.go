package edge

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/drdp/drdp/internal/telemetry"
	"github.com/drdp/drdp/internal/trace"
	"github.com/drdp/drdp/internal/wire"
)

// Server-hardening defaults.
const (
	// DefaultMaxFrameBytes bounds one decoded request frame; a hostile
	// or corrupt length prefix cannot balloon server memory past it.
	DefaultMaxFrameBytes = 16 << 20
	// DefaultIdleTimeout is how long a connection may sit idle between
	// requests before the server reclaims its handler goroutine.
	DefaultIdleTimeout = 2 * time.Minute
	// shedDeadline bounds a shed connection: long enough to read one
	// request and write the CodeOverloaded answer, short enough that a
	// flood cannot pin goroutines.
	shedDeadline = 2 * time.Second
)

// Endpoint is the connection layer every server tier shares: it accepts
// connections, runs the server half of the wire handshake, reads framed
// requests and writes back what its owner's dispatch function answers.
// It carries the server hardening — frame limit, idle deadline,
// connection cap, handler deadline, per-connection panic recovery — and
// its Close sweeps live connections. CloudServer embeds one; the cluster
// coordinator serves its shard map through another.
type Endpoint struct {
	// MaxFrameBytes caps the size of one request frame (default
	// DefaultMaxFrameBytes; set before Serve, negative = unlimited).
	MaxFrameBytes int64
	// IdleTimeout bounds the gap between requests on a connection
	// (default DefaultIdleTimeout; set before Serve, negative = none).
	IdleTimeout time.Duration
	// MaxConns caps concurrently served connections (set before Serve;
	// 0 = unlimited). A connection over the cap is answered with one
	// CodeOverloaded response and closed — clients back off and retry
	// instead of queueing behind a saturated server.
	MaxConns int
	// HandlerTimeout bounds one request dispatch (set before Serve;
	// 0 = none). A dispatch that exceeds it is abandoned to finish in the
	// background (an accepted task is never dropped) and the client gets
	// CodeOverloaded.
	HandlerTimeout time.Duration

	logger *slog.Logger
	// dispatch answers one request; sp is the request's server span (nil
	// when the request carries no trace).
	dispatch func(req *Request, sp *trace.Span) *Response

	lnMu   sync.Mutex
	ln     net.Listener
	closed bool // set by Close; Serve must not register conns after this
	// conns holds every live connection for Close's sweep; the value marks
	// a connection accepted over MaxConns, which handle sheds.
	conns map[net.Conn]bool
	wg    sync.WaitGroup

	// nodeName labels this endpoint's spans so an in-process cluster's
	// shared flight recorder can tell replicas apart (e.g. "s0r1").
	nodeName atomic.Pointer[string]
	// tracer receives this endpoint's span fragments; nil uses
	// trace.Default. Only requests carrying a TraceID allocate spans.
	tracer *trace.Tracer

	// panicHook, when set, runs before dispatch — test seam for the
	// per-connection panic recovery.
	panicHook func(*Request)
}

// NewEndpoint returns an endpoint that answers every request with
// dispatch, at the default frame limit and idle deadline. A nil logger
// picks the default handler.
func NewEndpoint(dispatch func(req *Request, sp *trace.Span) *Response, logger *slog.Logger) *Endpoint {
	return &Endpoint{
		MaxFrameBytes: DefaultMaxFrameBytes,
		IdleTimeout:   DefaultIdleTimeout,
		logger:        telemetry.OrDefault(logger),
		dispatch:      dispatch,
	}
}

// SetNodeName labels this endpoint's trace spans (safe on a live
// server). Cluster nodes use it so a shared in-process flight recorder
// can tell replicas apart.
func (e *Endpoint) SetNodeName(name string) { e.nodeName.Store(&name) }

// NodeName returns the span label set by SetNodeName ("" by default).
func (e *Endpoint) NodeName() string {
	if p := e.nodeName.Load(); p != nil {
		return *p
	}
	return ""
}

// SetTracer points the endpoint at a specific trace recorder (tests); nil
// (the default) records into trace.Default.
func (e *Endpoint) SetTracer(t *trace.Tracer) { e.tracer = t }

func (e *Endpoint) traceRecorder() *trace.Tracer {
	if e.tracer != nil {
		return e.tracer
	}
	return trace.Default
}

// Serve accepts connections on ln until Close is called. It blocks; run
// it in a goroutine. Each connection is handled concurrently.
func (e *Endpoint) Serve(ln net.Listener) error {
	e.lnMu.Lock()
	if e.ln != nil {
		e.lnMu.Unlock()
		return errors.New("edge: Serve: already serving")
	}
	if e.closed {
		e.lnMu.Unlock()
		ln.Close()
		return errors.New("edge: Serve: server already closed")
	}
	e.ln = ln
	e.lnMu.Unlock()

	for {
		conn, err := ln.Accept()
		if err != nil {
			// Closed listener means orderly shutdown.
			if errors.Is(err, net.ErrClosed) {
				e.wg.Wait()
				return nil
			}
			return fmt.Errorf("edge: accept: %w", err)
		}
		e.lnMu.Lock()
		if e.closed {
			// Close already swept e.conns; a connection registered now
			// would never be closed. Drop it instead.
			e.lnMu.Unlock()
			conn.Close()
			continue
		}
		if e.conns == nil {
			e.conns = make(map[net.Conn]bool)
		}
		// Over the cap the connection is still registered (Close must be
		// able to sweep it), marked for shedding.
		e.conns[conn] = e.MaxConns > 0 && len(e.conns) >= e.MaxConns
		e.wg.Add(1)
		e.lnMu.Unlock()
		telemetry.ServerConnsTotal.Inc()
		telemetry.ServerConnsActive.Add(1)
		go func() {
			defer e.wg.Done()
			defer telemetry.ServerConnsActive.Add(-1)
			defer func() {
				e.lnMu.Lock()
				delete(e.conns, conn)
				e.lnMu.Unlock()
			}()
			e.handle(conn)
		}()
	}
}

// ListenAndServe listens on addr (e.g. "127.0.0.1:0") and serves.
// The chosen address is reported through addrCh before serving begins,
// when addrCh is non-nil.
func (e *Endpoint) ListenAndServe(addr string, addrCh chan<- string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("edge: listen %s: %w", addr, err)
	}
	if addrCh != nil {
		addrCh <- ln.Addr().String()
	}
	return e.Serve(ln)
}

// Close stops accepting, closes active connections (clients see a clean
// connection error on their next round trip) and waits for in-flight
// handlers.
func (e *Endpoint) Close() error {
	e.lnMu.Lock()
	e.closed = true
	ln := e.ln
	for conn := range e.conns {
		conn.Close()
	}
	e.lnMu.Unlock()
	if ln == nil {
		return nil
	}
	err := ln.Close()
	e.wg.Wait()
	return err
}

// accept runs the server half of the wire handshake on a fresh
// connection and returns its framed decoder and encoder, both counting
// bytes into the server's traffic counters. A peer that does not open
// with a valid hello gets no answer and an error; the caller closes the
// connection. The frame limit is enforced by the decoder before it
// allocates.
func (e *Endpoint) accept(conn net.Conn) (*wire.Decoder, *wire.Encoder, error) {
	cc := countConn{Conn: conn, sent: telemetry.ServerSent, recv: telemetry.ServerReceived}
	br := bufio.NewReader(cc)
	if err := wire.ServerHandshake(br, cc); err != nil {
		return nil, nil, err
	}
	return wire.NewDecoder(br, e.MaxFrameBytes), wire.NewEncoder(cc), nil
}

// handle serves one connection until the peer leaves or a read fails. A
// connection Serve marked over the cap is shed instead: it reads one
// request and answers CodeOverloaded, all under shedDeadline. Reading
// the request before answering (instead of slamming the connection shut
// at accept) gives the client a classifiable, retryable rejection rather
// than a bare reset.
func (e *Endpoint) handle(conn net.Conn) {
	defer conn.Close()
	// A panicking handler must cost one connection, not the fleet's cloud.
	defer func() {
		if r := recover(); r != nil {
			telemetry.ServerPanics.Inc()
			e.logger.Error("edge: panic in connection handler",
				"remote", conn.RemoteAddr().String(), "panic", r)
		}
	}()
	e.lnMu.Lock()
	shed := e.conns[conn]
	e.lnMu.Unlock()
	idle := e.IdleTimeout
	if shed {
		telemetry.ServerShedMaxConns.Inc()
		e.logger.Warn("edge: connection limit reached; shedding",
			"remote", conn.RemoteAddr().String(), "max-conns", e.MaxConns)
		if err := conn.SetDeadline(time.Now().Add(shedDeadline)); err != nil {
			return
		}
		idle = 0 // the shed deadline already bounds every read
	}
	// The hello is this connection's first read; arm the idle deadline
	// first so a silent peer cannot pin the goroutine in it.
	if idle > 0 {
		if err := conn.SetReadDeadline(time.Now().Add(idle)); err != nil {
			return
		}
	}
	dec, enc, err := e.accept(conn)
	if err != nil {
		// Not a drdp peer (or a garbled one): close without answering.
		if !errors.Is(err, io.EOF) {
			telemetry.ServerDecodeErrors.Inc()
			e.logger.Warn("edge: handshake failed",
				"remote", conn.RemoteAddr().String(), "err", err)
		}
		return
	}
	defer dec.Release()
	defer enc.Release()
	for {
		if idle > 0 {
			// A peer that goes silent must not pin this goroutine forever.
			if err := conn.SetReadDeadline(time.Now().Add(idle)); err != nil {
				return
			}
		}
		var req Request
		if err := dec.DecodeRequest(&req); err != nil {
			if !errors.Is(err, io.EOF) {
				telemetry.ServerDecodeErrors.Inc()
				e.logger.Warn("edge: decode request failed",
					"remote", conn.RemoteAddr().String(), "err", err)
			}
			return
		}
		if shed {
			_ = enc.EncodeResponse(&Response{
				Err:  "server overloaded: connection limit reached",
				Code: CodeOverloaded,
			})
			return
		}
		start := time.Now()
		// Join the caller's trace only when the request carries one: the
		// untraced path (TraceID 0) allocates no spans.
		var sp *trace.Span
		if req.TraceID != 0 {
			sp = e.traceRecorder().Join(req.TraceID, req.ParentSpan,
				"serve "+req.Kind.String(), trace.Str("node", e.NodeName()))
		}
		resp := e.serveRequest(&req, sp)
		sp.EndErr(errOf(resp))
		telemetry.ServerReqCounter(req.Kind.String()).Inc()
		served := time.Since(start).Seconds()
		telemetry.ServerRequestSeconds.Observe(served)
		if sp != nil {
			telemetry.RecordExemplar("drdp_edge_server_request_seconds", sp.TraceID().String(), served)
		}
		if err := enc.EncodeResponse(resp); err != nil {
			e.logger.Warn("edge: encode response failed",
				"remote", conn.RemoteAddr().String(), "err", err)
			return
		}
	}
}

// serveRequest runs one dispatch under the handler deadline. Without a
// deadline it dispatches inline (a panic propagates to handle's
// per-connection recovery, costing the connection). With one, the
// dispatch runs in its own goroutine: on timeout the client gets
// CodeOverloaded immediately while the dispatch finishes in the
// background — an AddTask that was going to commit still commits, so
// shedding never drops an already-accepted task.
func (e *Endpoint) serveRequest(req *Request, sp *trace.Span) *Response {
	if e.HandlerTimeout <= 0 {
		if e.panicHook != nil {
			e.panicHook(req)
		}
		telemetry.ServerInflight.Add(1)
		defer telemetry.ServerInflight.Add(-1)
		return e.dispatch(req, sp)
	}
	done := make(chan *Response, 1)
	go func() {
		telemetry.ServerInflight.Add(1)
		defer telemetry.ServerInflight.Add(-1)
		defer func() {
			if r := recover(); r != nil {
				telemetry.ServerPanics.Inc()
				e.logger.Error("edge: panic in request dispatch", "panic", r)
				done <- &Response{Err: "internal error", Code: CodeInternal}
			}
		}()
		if e.panicHook != nil {
			e.panicHook(req)
		}
		done <- e.dispatch(req, sp)
	}()
	timer := time.NewTimer(e.HandlerTimeout)
	defer timer.Stop()
	select {
	case resp := <-done:
		return resp
	case <-timer.C:
		telemetry.ServerShedTimeout.Inc()
		sp.Event("shed", trace.Str("reason", "handler-timeout"))
		e.logger.Warn("edge: request exceeded handler deadline; shedding",
			"kind", req.Kind.String(), "deadline", e.HandlerTimeout)
		return &Response{
			Err:  "server overloaded: handler deadline exceeded",
			Code: CodeOverloaded,
		}
	}
}
