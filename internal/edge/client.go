package edge

import (
	"errors"
	"fmt"
	"net"
	"time"

	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/wire"
)

// Dial connects to the cloud server at addr and runs the wire handshake,
// both bounded by timeout (zero means no dial timeout and the default
// handshake timeout). A peer that does not answer the hello with a
// valid ack fails the dial. The returned connection is safe for
// concurrent use.
func Dial(addr string, timeout time.Duration) (*MuxClient, error) {
	conn, err := dialTCP(addr, timeout)
	if err != nil {
		return nil, err
	}
	if err := wire.ClientHandshake(conn, timeout); err != nil {
		conn.Close()
		return nil, fmt.Errorf("edge: dial %s: %w", addr, err)
	}
	return NewMuxClient(conn), nil
}

func dialTCP(addr string, timeout time.Duration) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("edge: dial %s: %w", addr, err)
	}
	return conn, nil
}

// calls builds every request of the edge protocol and interprets its
// response, over one round trip. MuxClient and ResilientClient embed it,
// so both expose the same request methods and each request is written
// down once.
//
// When a resend is safe: reads (prior, delta, stats, shard map) and
// PullLog (afterSeq makes it idempotent) always are. An upload that
// failed ambiguously may already have landed; resending it is safe
// against a server that dedupes uploads by fingerprint — cluster nodes
// do (CloudServer.EnableDedupe) — and the landed tasks ack without a
// second append. Any other server appends the task again, which biases
// but never corrupts the DP prior (stick-breaking renormalizes).
type calls struct {
	rt func(*Request) (*Response, error)
}

// FetchPrior downloads the current prior for the given parameter
// dimensionality (pass 0 to skip the dimension check) and validates it.
func (c calls) FetchPrior(dim int) (*dpprior.Prior, uint64, error) {
	resp, err := c.rt(&Request{Kind: GetPrior, Dim: dim})
	if err != nil {
		return nil, 0, err
	}
	return priorOf(resp)
}

// FetchPriorDelta refreshes a prior the client already holds: it sends
// the held version and patches the returned component delta onto old,
// so an incremental cloud update costs a delta instead of the full
// prior (covariances dominate the wire; unchanged components don't
// ship). Returns (nil, version, nil) when the held version is current,
// and transparently accepts a full prior when the server decided a
// delta wasn't worthwhile. old must be the prior at knownVersion. A
// delta that fails to apply is returned as errDeltaApply (never retried:
// the transport worked, and a full fetch is the recovery).
func (c calls) FetchPriorDelta(dim int, knownVersion uint64, old *dpprior.Prior) (*dpprior.Prior, uint64, error) {
	return c.FetchPriorDeltaMin(dim, knownVersion, 0, old)
}

// FetchPriorDeltaMin is FetchPriorDelta with a read-your-writes floor:
// minVersion names the highest version the edge has already applied or
// been acked for an upload. A leader whose store holds that version
// waits for the rebuild covering it; a follower whose built prior trails
// it, or a leader that never stored it, answers CodeLagging (surfaced as
// a *ServerError) instead of a stale prior. The cluster client falls
// through to the shard leader on that answer.
func (c calls) FetchPriorDeltaMin(dim int, knownVersion, minVersion uint64, old *dpprior.Prior) (*dpprior.Prior, uint64, error) {
	resp, err := c.rt(&Request{Kind: GetPriorDelta, Dim: dim, KnownVersion: knownVersion, MinVersion: minVersion})
	if err != nil {
		return nil, 0, err
	}
	return deltaPriorOf(resp, old)
}

// ReportTask uploads a solved task posterior; the cloud folds it into
// future priors. Returns the new prior version.
func (c calls) ReportTask(t dpprior.TaskPosterior) (uint64, error) {
	resp, err := c.rt(&Request{Kind: ReportTask, Task: &t})
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
func (c calls) BatchReportTasks(ts []dpprior.TaskPosterior) (uint64, int, error) {
	if len(ts) == 0 {
		return 0, 0, nil
	}
	resp, err := c.rt(&Request{Kind: BatchAddTask, Tasks: ts})
	if err != nil {
		return 0, 0, err
	}
	return resp.Version, resp.BatchDone, nil
}

// Stats fetches cloud-side counters.
func (c calls) Stats() (Stats, error) {
	resp, err := c.rt(&Request{Kind: GetStats})
	if err != nil {
		return Stats{}, err
	}
	return resp.Stats, nil
}

// PullLog requests the leader's log frames after afterSeq (the
// follower's durable version, doubling as its acknowledgement) plus the
// verdict sidecar. maxFrames caps the batch (0 = server default).
func (c calls) PullLog(followerID int, afterSeq uint64, maxFrames int) (*LogBatch, error) {
	resp, err := c.rt(&Request{Kind: PullLog, FollowerID: followerID, AfterSeq: afterSeq, MaxFrames: maxFrames})
	if err != nil {
		return nil, err
	}
	return &LogBatch{Frames: resp.Frames, Verdicts: resp.VerdictMap, UpTo: resp.UpTo}, nil
}

// FetchShardMap fetches the coordinator's shard map, conditionally:
// when the map version still equals knownVersion the answer is
// (nil, version, nil) and no payload crosses the wire.
func (c calls) FetchShardMap(knownVersion uint64) (*ShardMap, uint64, error) {
	resp, err := c.rt(&Request{Kind: GetShardMap, KnownVersion: knownVersion})
	if err != nil {
		return nil, 0, err
	}
	if resp.NotModified {
		return nil, resp.Version, nil
	}
	if resp.Map == nil {
		return nil, 0, errors.New("edge: server returned empty shard map")
	}
	if err := resp.Map.Validate(); err != nil {
		return nil, 0, err
	}
	return resp.Map, resp.Version, nil
}

// priorOf interprets a full-prior response and validates its payload.
func priorOf(resp *Response) (*dpprior.Prior, uint64, error) {
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
		return p, resp.Version, nil
	}
	return priorOf(resp)
}
