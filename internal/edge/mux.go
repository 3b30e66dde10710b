package edge

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/wire"
)

// muxMaxInflight caps requests awaiting responses on one multiplexed
// connection; excess callers fail fast instead of queueing unboundedly.
const muxMaxInflight = 1024

// MuxClient multiplexes concurrent callers over one connection by
// pipelining requests. The server handles a connection's requests
// strictly in order, so responses come back in request order and
// matching them to callers needs only a FIFO queue — no request IDs on
// the wire, and the protocol stays identical to the sequential one.
//
// Unlike Client, a MuxClient is safe for concurrent use: a fleet of
// device goroutines can share a handful of connections instead of
// holding one each, and a caller's request goes on the wire immediately
// even while earlier callers still await their responses. Combined with
// BatchReportTasks this is the high-fan-in upload path: one frame per
// round per device, many devices per connection.
//
// A transport fault poisons the whole connection (request/response
// pairing is per-connection): every in-flight and later call fails,
// and the owner redials. There is no internal retry — wrap calls at the
// fleet layer or use ResilientClient where per-call retry matters.
type MuxClient struct {
	conn net.Conn

	// wmu serializes request write + waiter enqueue, so queue order
	// always matches wire order.
	wmu  sync.Mutex
	enc  *wire.Encoder
	dead error // set once the connection is poisoned

	pending chan chan muxResult

	dec *wire.Decoder

	readerDone sync.WaitGroup
}

type muxResult struct {
	resp *Response
	err  error
}

// DialMux connects to addr, runs the wire handshake, and returns a
// multiplexed client ready for concurrent callers.
func DialMux(addr string, timeout time.Duration) (*MuxClient, error) {
	return DialMuxFunc(func() (net.Conn, error) { return dialTCP(addr, timeout) }, timeout)
}

// DialMuxFunc is DialMux over a caller-supplied dial function, for
// uplinks that are not plain TCP dials: fault-injected links in chaos
// tests, or a regional aggregator's gated cloud connection.
func DialMuxFunc(dial func() (net.Conn, error), timeout time.Duration) (*MuxClient, error) {
	conn, err := dial()
	if err != nil {
		return nil, err
	}
	if err := wire.ClientHandshake(conn, timeout); err != nil {
		conn.Close()
		return nil, fmt.Errorf("edge: mux: %w", err)
	}
	return NewMuxClient(conn), nil
}

// NewMuxClient wraps a connection whose handshake is already done and
// starts the response reader.
func NewMuxClient(conn net.Conn) *MuxClient {
	m := &MuxClient{
		conn:    conn,
		enc:     wire.NewEncoder(conn),
		dec:     wire.NewDecoder(conn, DefaultMaxFrameBytes),
		pending: make(chan chan muxResult, muxMaxInflight),
	}
	m.readerDone.Add(1)
	go m.readLoop()
	return m
}

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
	if errors.Is(dead, errMuxClosed) {
		return nil
	}
	return dead
}

// fail marks the client dead (first error wins), closes the connection,
// drains every queued waiter with the error, and returns the winning
// dead error.
func (m *MuxClient) fail(err error) error {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	if m.dead == nil {
		m.dead = err
		m.conn.Close() // unblocks the reader
	}
	for {
		select {
		case ch := <-m.pending:
			ch <- muxResult{err: m.dead}
		default:
			return m.dead
		}
	}
}

func (m *MuxClient) readLoop() {
	defer m.readerDone.Done()
	for {
		// A fresh Response per iteration: callers retain the payloads, so
		// decode must not reuse buffers across messages.
		resp := new(Response)
		if err := m.dec.DecodeResponse(resp); err != nil {
			m.fail(fmt.Errorf("edge: mux: receive: %w", err))
			return
		}
		select {
		case ch := <-m.pending:
			ch <- muxResult{resp: resp}
		default:
			// A response nobody asked for: the streams are desynchronized
			// and no later pairing can be trusted.
			m.fail(errors.New("edge: mux: response without a pending request"))
			return
		}
	}
}

func (m *MuxClient) roundTrip(req *Request) (*Response, error) {
	ch := make(chan muxResult, 1)
	m.wmu.Lock()
	if m.dead != nil {
		err := m.dead
		m.wmu.Unlock()
		return nil, err
	}
	select {
	case m.pending <- ch:
	default:
		m.wmu.Unlock()
		return nil, fmt.Errorf("edge: mux: more than %d requests in flight", muxMaxInflight)
	}
	err := m.enc.EncodeRequest(req)
	m.wmu.Unlock()
	if err != nil {
		// The waiter is already queued; poisoning the connection fails it
		// (and everyone behind it) through the reader's drain.
		m.fail(fmt.Errorf("edge: mux: send %s: %w", req.Kind, err))
	}
	res := <-ch
	if res.err != nil {
		return nil, res.err
	}
	if err := errOf(res.resp); err != nil {
		return nil, err
	}
	return res.resp, nil
}

// FetchPrior downloads and validates the current prior. See
// Client.FetchPrior.
func (m *MuxClient) FetchPrior(dim int) (*dpprior.Prior, uint64, error) {
	resp, err := m.roundTrip(&Request{Kind: GetPrior, Dim: dim})
	if err != nil {
		return nil, 0, err
	}
	return priorOf(resp, false)
}

// FetchPriorIfNewer is the conditional fetch. See Client.FetchPriorIfNewer.
func (m *MuxClient) FetchPriorIfNewer(dim int, knownVersion uint64) (*dpprior.Prior, uint64, error) {
	resp, err := m.roundTrip(&Request{Kind: GetPrior, Dim: dim, KnownVersion: knownVersion})
	if err != nil {
		return nil, 0, err
	}
	return priorOf(resp, true)
}

// FetchPriorDelta is the delta refresh. See Client.FetchPriorDelta.
func (m *MuxClient) FetchPriorDelta(dim int, knownVersion uint64, old *dpprior.Prior) (*dpprior.Prior, uint64, error) {
	resp, err := m.roundTrip(&Request{Kind: GetPriorDelta, Dim: dim, KnownVersion: knownVersion})
	if err != nil {
		return nil, 0, err
	}
	return deltaPriorOf(resp, old)
}

// ReportTask uploads one task posterior. See Client.ReportTask.
func (m *MuxClient) ReportTask(t dpprior.TaskPosterior) (uint64, error) {
	resp, err := m.roundTrip(&Request{Kind: ReportTask, Task: &t})
	if err != nil {
		return 0, err
	}
	return resp.Version, nil
}

// BatchReportTasks ships a round's posteriors in one framed write. See
// Client.BatchReportTasks.
func (m *MuxClient) BatchReportTasks(ts []dpprior.TaskPosterior) (uint64, int, error) {
	if len(ts) == 0 {
		return 0, 0, nil
	}
	resp, err := m.roundTrip(&Request{Kind: BatchAddTask, Tasks: ts})
	if err != nil {
		return 0, 0, err
	}
	return resp.Version, resp.BatchDone, nil
}

// Stats fetches cloud-side counters.
func (m *MuxClient) Stats() (Stats, error) {
	resp, err := m.roundTrip(&Request{Kind: GetStats})
	if err != nil {
		return Stats{}, err
	}
	return resp.Stats, nil
}
