package edge

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/drdp/drdp/internal/trace"
	"github.com/drdp/drdp/internal/wire"
)

// muxMaxInflight caps requests awaiting responses on one multiplexed
// connection; excess callers fail fast instead of queueing unboundedly.
const muxMaxInflight = 1024

// MuxClient is an edge device's connection to a cloud server, safe for
// concurrent use. It pipelines requests: the server handles a
// connection's requests strictly in order, so responses come back in
// request order and matching them to callers needs only a FIFO queue —
// no request IDs on the wire, and a single caller sees exactly the
// sequential protocol. A fleet of device goroutines can share a handful
// of connections instead of holding one each; combined with
// BatchReportTasks this is the high-fan-in upload path.
//
// A transport fault — including an expired round-trip timeout — poisons
// the whole connection (request/response pairing is per-connection):
// every in-flight and later call fails with the first error. There is
// no internal redial or retry: ResilientClient is the owner that
// redials a session and retries its calls.
//
// The response reader reads only while a request is on the wire: a
// caller's waiter is queued after its request is written, and the reader
// blocks on the queue before reading. A single sequential caller
// therefore drives the connection in strict write→read order, which
// keeps seeded fault schedules (FaultConfig) reproducible.
type MuxClient struct {
	calls

	conn    net.Conn
	timeout atomic.Int64 // per-round-trip bound in ns; 0 = none

	// wmu serializes request write + waiter enqueue, so queue order
	// always matches wire order.
	wmu     sync.Mutex
	enc     *wire.Encoder
	pending chan muxWaiter

	// deadMu guards dead, the first error that poisoned the connection;
	// done closes when it is set.
	deadMu sync.Mutex
	dead   error
	done   chan struct{}

	dec        *wire.Decoder
	readerDone sync.WaitGroup
}

// muxWaiter is one request on the wire awaiting its response.
type muxWaiter struct {
	ch       chan muxResult
	deadline int64 // round-trip bound in Unix ns; 0 = none
}

// deadlineAt is a waiter deadline in net.Conn form (zero = none).
func deadlineAt(ns int64) time.Time {
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

type muxResult struct {
	resp *Response
	err  error
}

// NewMuxClient wraps a connection whose handshake is already done
// (wire.ClientHandshake) and starts the response reader.
func NewMuxClient(conn net.Conn) *MuxClient {
	m := &MuxClient{
		conn:    conn,
		enc:     wire.NewEncoder(conn),
		dec:     wire.NewDecoder(conn, DefaultMaxFrameBytes),
		pending: make(chan muxWaiter, muxMaxInflight),
		done:    make(chan struct{}),
	}
	m.calls = calls{rt: m.send}
	m.readerDone.Add(1)
	go m.readLoop()
	return m
}

// SetRoundTripTimeout bounds each subsequent request/response exchange;
// zero removes the bound. The request's write and the wait for its
// response each get the deadline; when it expires the connection is
// poisoned, failing every call in flight. Protects device loops from a
// hung cloud.
func (m *MuxClient) SetRoundTripTimeout(d time.Duration) { m.timeout.Store(int64(d)) }

// Codec reports the connection's codec.
//
// Deprecated: every connection is binary; Codec always reports
// wire.CodecBinary.
func (m *MuxClient) Codec() wire.Codec { return wire.CodecBinary }

// errMuxClosed marks a connection its owner closed deliberately, as
// opposed to one a transport fault poisoned first.
var errMuxClosed = errors.New("edge: mux: client closed")

// Close poisons the connection: every in-flight call fails with a
// closed-connection error and the reader exits. It returns the
// transport error that had already poisoned the connection, if any —
// first error wins, so the owner of a mux whose calls were failing
// learns why — and nil when Close itself ended a healthy connection.
// Close is idempotent: every call returns the same value.
func (m *MuxClient) Close() error {
	dead := m.fail(errMuxClosed)
	m.readerDone.Wait()
	m.wmu.Lock()
	m.dec.Release()
	m.enc.Release()
	m.wmu.Unlock()
	if errors.Is(dead, errMuxClosed) {
		return nil
	}
	return dead
}

// fail records err as the connection's poison (first error wins), closes
// the connection — unblocking a reader or writer stuck in I/O — fails
// every queued waiter, and returns the winning error.
func (m *MuxClient) fail(err error) error {
	m.deadMu.Lock()
	if m.dead == nil {
		m.dead = err
		close(m.done)
		m.conn.Close()
	}
	dead := m.dead
	m.deadMu.Unlock()
	// Waiters are queued under wmu only while dead is unset, so once this
	// drain holds wmu no waiter can be queued after it.
	m.wmu.Lock()
	defer m.wmu.Unlock()
	for {
		select {
		case w := <-m.pending:
			w.ch <- muxResult{err: dead}
		default:
			return dead
		}
	}
}

// deadErr returns the poisoning error, nil while the connection is live.
func (m *MuxClient) deadErr() error {
	m.deadMu.Lock()
	defer m.deadMu.Unlock()
	return m.dead
}

func (m *MuxClient) readLoop() {
	defer m.readerDone.Done()
	for {
		var w muxWaiter
		select {
		case w = <-m.pending:
		case <-m.done:
			return
		}
		m.conn.SetReadDeadline(deadlineAt(w.deadline))
		// A fresh Response per message: callers retain the payloads, so
		// decode must not reuse buffers across messages.
		resp := new(Response)
		if err := m.dec.DecodeResponse(resp); err != nil {
			w.ch <- muxResult{err: m.fail(fmt.Errorf("edge: receive response: %w", err))}
			return
		}
		w.ch <- muxResult{resp: resp}
	}
}

// roundTrip is send recorded as an "rpc <kind>" child of parent, whose
// context also travels on the wire. A nil parent is the untraced path at
// zero cost.
func (m *MuxClient) roundTrip(req *Request, parent *trace.Span) (*Response, error) {
	if parent == nil {
		return m.send(req)
	}
	sp := parent.Child("rpc "+req.Kind.String(),
		trace.Str("peer", m.conn.RemoteAddr().String()))
	req.TraceID, req.ParentSpan = sp.WireContext()
	resp, err := m.send(req)
	if err != nil {
		sp.EndErr(err)
		return nil, err
	}
	sp.SetAttr(trace.Int("version", int64(resp.Version)))
	sp.End()
	return resp, nil
}

// send writes req, queues its waiter and blocks for the paired response.
func (m *MuxClient) send(req *Request) (*Response, error) {
	w := muxWaiter{ch: make(chan muxResult, 1)}
	m.wmu.Lock()
	if err := m.deadErr(); err != nil {
		m.wmu.Unlock()
		return nil, err
	}
	if len(m.pending) == cap(m.pending) {
		m.wmu.Unlock()
		return nil, fmt.Errorf("edge: mux: more than %d requests in flight", muxMaxInflight)
	}
	if d := time.Duration(m.timeout.Load()); d > 0 {
		w.deadline = time.Now().Add(d).UnixNano()
	}
	m.conn.SetWriteDeadline(deadlineAt(w.deadline))
	if err := m.enc.EncodeRequest(req); err != nil {
		m.wmu.Unlock()
		return nil, m.fail(fmt.Errorf("edge: send %s: %w", req.Kind, err))
	}
	// Only the reader dequeues and only writers holding wmu enqueue, so
	// the capacity check above guarantees this send does not block.
	m.pending <- w
	m.wmu.Unlock()
	res := <-w.ch
	if res.err != nil {
		return nil, res.err
	}
	if err := errOf(res.resp); err != nil {
		return nil, err
	}
	return res.resp, nil
}
