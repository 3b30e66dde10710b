package cluster

import (
	"errors"
	"time"

	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/edge"
	"github.com/drdp/drdp/internal/telemetry"
	"github.com/drdp/drdp/internal/trace"
)

// Hedged reads: a gray replica — alive but slow — stalls every read
// routed to it for a full round-trip timeout, long before the
// coordinator's EWMA demotes it. The client covers that window itself:
// if the first replica has not answered within a fixed delay — or
// settles indecisively before the delay elapses — the same fetch is
// fired at a second replica and the first valid answer wins. Validity
// is version-gated by the same read-your-writes floor as sequential
// reads (MinVersion), so a hedge can never win with a prior the client
// has already moved past — CodeLagging answers are indecisive and the
// hedge keeps waiting.

// SetHedge enables hedged shard-prior reads: the second request fires
// once the first has not answered within delay (a non-positive delay
// leaves hedging off). Requires at least two replicas per shard to do
// anything; with fewer the read path is the ordinary sequential scan.
// Call before issuing reads (the client is single-goroutine by
// contract).
func (c *ShardedClient) SetHedge(delay time.Duration) { c.hedgeDelay = delay }

// takeConn removes addr's connection from the pool (dialing if absent)
// and hands ownership to the caller. A ResilientClient is not safe for
// concurrent use, so a connection lent to a hedge leg must not be
// reachable through the pool until the leg is done with it.
func (c *ShardedClient) takeConn(addr string) *edge.ResilientClient {
	rc, ok := c.conns[addr]
	if ok {
		delete(c.conns, addr)
	} else {
		rc = edge.DialResilient(addr, c.ropts)
	}
	rc.SetTraceParent(c.op)
	return rc
}

// hedgeResult is one leg's answer, carrying the borrowed connection
// back to whoever receives it.
type hedgeResult struct {
	addr      string
	rc        *edge.ResilientClient
	p         *dpprior.Prior
	v         uint64
	err       error
	secondary bool
}

// decisive reports whether a leg's answer settles the read: a success
// does, and so does CodeNoTasks (a cold shard answers the same
// everywhere). CodeLagging — the replica trails our floor — and
// transport failures are indecisive: the other leg may still do better.
func (r *hedgeResult) decisive() bool {
	if r.err == nil {
		return true
	}
	var se *edge.ServerError
	return errors.As(r.err, &se) && se.Code == edge.CodeNoTasks
}

// hedgedFetch races a shard-prior fetch between the first two replicas
// in read order: the primary fires immediately, the secondary after the
// hedge delay, first decisive answer wins. Returns nil when neither leg
// was decisive (the caller falls through to the remaining replicas);
// lastErr then carries the newest leg error.
func (c *ShardedClient) hedgedFetch(shard, dim int, addrs []string, floor uint64) (*hedgeResult, error) {
	delay := c.hedgeDelay
	// Both connections leave the pool up front: the loser may still be
	// mid-round-trip when the winner returns, and nothing else may touch
	// it until it surfaces.
	primary := c.takeConn(addrs[0])
	secondary := c.takeConn(addrs[1])
	cached := c.priors[shard] // read-only under Delta.Apply; safe to share across legs
	results := make(chan hedgeResult, 2)
	fetch := func(addr string, rc *edge.ResilientClient, sec bool) {
		p, v, err := rc.FetchPriorDeltaMin(dim, floor, floor, cached)
		results <- hedgeResult{addr: addr, rc: rc, p: p, v: v, err: err, secondary: sec}
	}
	go fetch(addrs[0], primary, false)
	timer := time.NewTimer(delay)
	defer timer.Stop()
	fired := false
	outstanding := 1
	var winner *hedgeResult
	var lastErr error
	settle := func(r hedgeResult) {
		outstanding--
		if winner == nil && r.decisive() {
			winner = &r
			return
		}
		if r.err != nil {
			lastErr = r.err
		}
		// An indecisive (or post-win) leg that already finished its round
		// trip goes straight back into the pool.
		c.conns[r.addr] = r.rc
	}
	fire := func(reason string) {
		fired = true
		outstanding++
		telemetry.ClusterHedgeFired.Inc()
		if c.op != nil {
			c.op.Event("hedge-fired", trace.Str("replica", addrs[1]),
				trace.Str("reason", reason),
				trace.Int("delay-us", int64(delay/time.Microsecond)))
		}
		go fetch(addrs[1], secondary, true)
	}
	for outstanding > 0 && winner == nil {
		if fired {
			settle(<-results)
			continue
		}
		select {
		case r := <-results:
			settle(r)
			if winner == nil {
				// The primary settled indecisively (lagging follower, fast
				// connection refusal) before the timer: waiting out the rest
				// of the delay buys nothing, and returning without ever
				// trying the secondary would skip a replica the fallback
				// scan no longer covers. Fire the hedge now.
				fire("primary-indecisive")
			}
		case <-timer.C:
			fire("delay")
		}
	}
	if !fired {
		// The secondary connection was borrowed but never used.
		c.conns[addrs[1]] = secondary
	}
	if winner == nil {
		return nil, lastErr
	}
	c.conns[winner.addr] = winner.rc
	if winner.secondary {
		telemetry.ClusterHedgeWon.Inc()
		if c.op != nil {
			c.op.Event("hedge-won", trace.Str("replica", winner.addr))
		}
	}
	if outstanding > 0 {
		// The losing leg is still in flight. Ownership of its connection
		// passes to a reaper: when the straggler finally surfaces, the
		// connection is closed rather than pooled — its next caller would
		// otherwise block behind the stale round trip.
		telemetry.ClusterHedgeCancelled.Inc()
		go func() {
			r := <-results
			r.rc.Close()
		}()
	}
	return winner, nil
}
