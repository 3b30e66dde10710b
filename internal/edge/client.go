package edge

import (
	"errors"
	"fmt"
	"net"
	"time"

	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/telemetry"
	"github.com/drdp/drdp/internal/trace"
	"github.com/drdp/drdp/internal/wire"
)

// Client is an edge device's connection to the cloud prior server. It is
// not safe for concurrent use; give each goroutine its own Client (or
// share one MuxClient, which is).
type Client struct {
	conn    net.Conn
	enc     *wire.Encoder
	dec     *wire.Decoder
	timeout time.Duration // per-round-trip deadline; 0 = none
	parent  *trace.Span   // trace parent for subsequent round trips
}

// SetTraceParent sets the span under which subsequent round trips record
// themselves and whose context they propagate on the wire. A nil span
// (or never calling this) keeps the client untraced at zero cost.
func (c *Client) SetTraceParent(s *trace.Span) { c.parent = s }

// SetRoundTripTimeout bounds each subsequent request/response exchange;
// zero removes the bound. Protects device loops from a hung cloud.
func (c *Client) SetRoundTripTimeout(d time.Duration) { c.timeout = d }

// Dial connects to the cloud server at addr and runs the wire handshake,
// both bounded by timeout (zero means no dial timeout and the default
// handshake timeout). A peer that does not answer the hello with a
// valid ack fails the dial.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	conn, err := dialTCP(addr, timeout)
	if err != nil {
		return nil, err
	}
	if err := wire.ClientHandshake(conn, timeout); err != nil {
		conn.Close()
		return nil, fmt.Errorf("edge: dial %s: %w", addr, err)
	}
	return NewClient(conn), nil
}

func dialTCP(addr string, timeout time.Duration) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("edge: dial %s: %w", addr, err)
	}
	return conn, nil
}

// NewClient wraps a connection whose handshake is already done
// (wire.ClientHandshake) — useful with simulated links.
func NewClient(conn net.Conn) *Client {
	return &Client{
		conn: conn,
		enc:  wire.NewEncoder(conn),
		dec:  wire.NewDecoder(conn, DefaultMaxFrameBytes),
	}
}

// Close closes the underlying connection and releases pooled codec
// buffers.
func (c *Client) Close() error {
	c.enc.Release()
	c.dec.Release()
	return c.conn.Close()
}

func (c *Client) roundTrip(req *Request) (*Response, error) {
	// The nil-parent branch is the common untraced path; keeping span
	// construction behind it means zero allocations when tracing is off.
	if c.parent == nil {
		return c.roundTripUntraced(req)
	}
	sp := c.parent.Child("rpc "+req.Kind.String(),
		trace.Str("peer", c.conn.RemoteAddr().String()))
	req.TraceID, req.ParentSpan = sp.WireContext()
	resp, err := c.roundTripUntraced(req)
	if err != nil {
		sp.EndErr(err)
		return nil, err
	}
	sp.SetAttr(trace.Int("version", int64(resp.Version)))
	sp.End()
	return resp, nil
}

func (c *Client) roundTripUntraced(req *Request) (*Response, error) {
	if c.timeout > 0 {
		if err := c.conn.SetDeadline(time.Now().Add(c.timeout)); err != nil {
			return nil, fmt.Errorf("edge: set deadline: %w", err)
		}
		defer c.conn.SetDeadline(time.Time{})
	}
	if err := c.enc.EncodeRequest(req); err != nil {
		return nil, fmt.Errorf("edge: send %s: %w", req.Kind, err)
	}
	var resp Response
	if err := c.dec.DecodeResponse(&resp); err != nil {
		return nil, fmt.Errorf("edge: receive %s response: %w", req.Kind, err)
	}
	if err := errOf(&resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// priorOf interprets a GetPrior response: validates the payload and,
// when conditional fetch is in play, passes NotModified through as a nil
// prior with the unchanged version. Shared by Client and ResilientClient
// so both enforce the same invariants on what comes off the wire.
func priorOf(resp *Response, conditional bool) (*dpprior.Prior, uint64, error) {
	if conditional && resp.NotModified {
		return nil, resp.Version, nil
	}
	if resp.Prior == nil {
		return nil, 0, fmt.Errorf("edge: server returned empty prior")
	}
	if err := resp.Prior.Validate(); err != nil {
		return nil, 0, fmt.Errorf("edge: received invalid prior: %w", err)
	}
	return resp.Prior, resp.Version, nil
}

// errDeltaApply marks a delta that did not patch cleanly onto the base
// prior the client holds (diverged cache, corrupt delta). The caller
// recovers by fetching the full prior; test with errors.Is.
var errDeltaApply = errors.New("edge: prior delta did not apply")

// deltaPriorOf interprets a GetPriorDelta response. The server answers
// one of three ways and all are normal: NotModified (nil prior,
// unchanged version), a component delta (patched onto old here), or a
// full prior (the server's fallback when the client's version left its
// history or the delta wouldn't save bytes). A delta that fails to
// apply is reported as errDeltaApply so callers can refetch in full.
func deltaPriorOf(resp *Response, old *dpprior.Prior) (*dpprior.Prior, uint64, error) {
	if resp.NotModified {
		return nil, resp.Version, nil
	}
	if resp.Delta != nil {
		p, err := resp.Delta.Apply(old)
		if err != nil {
			return nil, 0, fmt.Errorf("%w: %v", errDeltaApply, err)
		}
		telemetry.EdgeClientDeltasApplied.Inc()
		return p, resp.Version, nil
	}
	p, v, err := priorOf(resp, false)
	if err == nil {
		telemetry.EdgeClientFullPriors.Inc()
	}
	return p, v, err
}

// FetchPrior downloads the current prior for the given parameter
// dimensionality (pass 0 to skip the dimension check) and validates it.
func (c *Client) FetchPrior(dim int) (*dpprior.Prior, uint64, error) {
	resp, err := c.roundTrip(&Request{Kind: GetPrior, Dim: dim})
	if err != nil {
		return nil, 0, err
	}
	return priorOf(resp, false)
}

// FetchPriorIfNewer is the conditional fetch: when the cloud's prior
// version still equals knownVersion, no payload crosses the wire and a
// nil prior is returned with the (unchanged) version. Use in periodic
// refresh loops so an idle cloud costs only a handshake.
func (c *Client) FetchPriorIfNewer(dim int, knownVersion uint64) (*dpprior.Prior, uint64, error) {
	resp, err := c.roundTrip(&Request{Kind: GetPrior, Dim: dim, KnownVersion: knownVersion})
	if err != nil {
		return nil, 0, err
	}
	return priorOf(resp, true)
}

// FetchPriorDelta refreshes a prior the client already holds: it sends
// the held version and patches the returned component delta onto old,
// so an incremental cloud update costs a delta instead of the full
// prior (covariances dominate the wire; unchanged components don't
// ship). Returns (nil, version, nil) when the held version is current,
// and transparently accepts a full prior when the server decided a
// delta wasn't worthwhile. old must be the prior at knownVersion.
func (c *Client) FetchPriorDelta(dim int, knownVersion uint64, old *dpprior.Prior) (*dpprior.Prior, uint64, error) {
	resp, err := c.roundTrip(&Request{Kind: GetPriorDelta, Dim: dim, KnownVersion: knownVersion})
	if err != nil {
		return nil, 0, err
	}
	return deltaPriorOf(resp, old)
}

// ReportTask uploads a solved task posterior; the cloud folds it into
// future priors. Returns the new prior version.
func (c *Client) ReportTask(t dpprior.TaskPosterior) (uint64, error) {
	resp, err := c.roundTrip(&Request{Kind: ReportTask, Task: &t})
	if err != nil {
		return 0, err
	}
	return resp.Version, nil
}

// BatchReportTasks uploads a whole round's task posteriors in one framed
// write. The server appends them in order and acknowledges once, so a
// K-task round costs one round trip instead of K. Returns the prior
// version after the batch and the number of tasks applied (short of
// len(ts) only when the server rejected one mid-batch, in which case the
// error names the rejection).
func (c *Client) BatchReportTasks(ts []dpprior.TaskPosterior) (uint64, int, error) {
	if len(ts) == 0 {
		return 0, 0, nil
	}
	resp, err := c.roundTrip(&Request{Kind: BatchAddTask, Tasks: ts})
	if err != nil {
		return 0, 0, err
	}
	return resp.Version, resp.BatchDone, nil
}

// Stats fetches cloud-side counters.
func (c *Client) Stats() (Stats, error) {
	resp, err := c.roundTrip(&Request{Kind: GetStats})
	if err != nil {
		return Stats{}, err
	}
	return resp.Stats, nil
}
