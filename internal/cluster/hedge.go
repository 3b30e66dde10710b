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

// hedgeResult is one leg's answer.
type hedgeResult struct {
	addr      string
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
	cached := c.priors[shard] // read-only under Delta.Apply; safe to share across legs
	results := make(chan hedgeResult, 2)
	fetch := func(addr string, rc *edge.ResilientClient, sec bool) {
		p, v, err := rc.FetchPriorDeltaMin(dim, floor, floor, cached)
		results <- hedgeResult{addr: addr, p: p, v: v, err: err, secondary: sec}
	}
	go fetch(addrs[0], c.conn(addrs[0]), false)
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
		go fetch(addrs[1], c.conn(addrs[1]), true)
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
	if winner == nil {
		return nil, lastErr
	}
	if winner.secondary {
		telemetry.ClusterHedgeWon.Inc()
		if c.op != nil {
			c.op.Event("hedge-won", trace.Str("replica", winner.addr))
		}
	}
	if outstanding > 0 {
		// The losing leg is still in flight. Its connection leaves the
		// pool and passes to a reaper, which closes it when the straggler
		// surfaces: the next read of that replica dials a fresh session
		// instead of queueing behind the stale round trip.
		loser := addrs[0]
		if !winner.secondary {
			loser = addrs[1]
		}
		rc := c.conns[loser]
		delete(c.conns, loser)
		go func() {
			<-results
			rc.Close()
		}()
	}
	return winner, nil
}
