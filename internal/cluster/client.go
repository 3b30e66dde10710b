package cluster

import (
	"errors"
	"fmt"
	"log/slog"
	"time"

	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/edge"
	"github.com/drdp/drdp/internal/telemetry"
	"github.com/drdp/drdp/internal/trace"
)

// ShardedClient is an edge's view of the replicated shard tier: it
// caches the coordinator's shard map (conditional fetch, like the
// prior), routes each task upload to its shard by fingerprint, and
// assembles the global DP prior by fetching every shard's prior and
// merging the component sets client-side (dpprior.MergePriors).
//
// Reads honor read-your-writes: every prior fetch carries the highest
// version this client has already applied for that shard, and a replica
// that trails it answers CodeLagging — the client then falls through
// leader-ward. Writes follow redirects: a CodeNotLeader answer (or a
// dead leader) triggers a forced map refresh and a retry against the
// new leader.
//
// Not safe for concurrent use; give each device its own.
type ShardedClient struct {
	coord  *edge.ResilientClient
	ropts  edge.ResilientOptions
	logger *slog.Logger

	m       *edge.ShardMap
	conns   map[string]*edge.ResilientClient
	applied []uint64         // per shard: highest built version applied
	priors  []*dpprior.Prior // per shard: cached prior at applied[i]

	hedgeDelay time.Duration // hedged shard reads fire after this (0 = sequential only)

	parent *trace.Span // round span set by the caller (nil = untraced)
	op     *trace.Span // current operation span, nested under parent
}

// SetTraceParent attaches subsequent operations to sp as child spans
// (nil detaches). The device sets its round span here, so every upload,
// shard fetch, redirect, and underlying RPC lands in the round's trace.
func (c *ShardedClient) SetTraceParent(sp *trace.Span) { c.parent = sp }

// noopEnd keeps untraced beginOp calls allocation-free.
var noopEnd = func(error) {}

// beginOp opens an operation span under the current op — so a ShardPrior
// issued by FetchMergedPrior nests under its "merged-fetch" span — or
// under the round parent, and points the coordinator connection at it.
// The returned func ends the span and restores the previous op.
func (c *ShardedClient) beginOp(name string) func(error) {
	anchor := c.op
	if anchor == nil {
		anchor = c.parent
	}
	if anchor == nil {
		return noopEnd
	}
	sp := anchor.Child(name)
	prev := c.op
	c.op = sp
	c.coord.SetTraceParent(sp)
	return func(err error) {
		sp.EndErr(err)
		c.op = prev
		c.coord.SetTraceParent(prev)
	}
}

// DialSharded connects a sharded client to the coordinator at coordAddr.
// ropts configures every underlying connection (coordinator and nodes).
func DialSharded(coordAddr string, ropts edge.ResilientOptions) *ShardedClient {
	return &ShardedClient{
		coord:  edge.DialResilient(coordAddr, ropts),
		ropts:  ropts,
		logger: telemetry.OrDefault(ropts.Logger),
		conns:  make(map[string]*edge.ResilientClient),
	}
}

// refreshMap ensures a current shard map. force drops the conditional
// check (used after a redirect or a dead node). A version bump resizes
// the per-shard caches only when the shard count changed.
func (c *ShardedClient) refreshMap(force bool) error {
	known := uint64(0)
	if !force && c.m != nil {
		known = c.m.Version
	}
	m, version, err := c.coord.FetchShardMap(known)
	if err != nil {
		if c.m != nil {
			// Degrade: keep routing with the cached map; a stale leader
			// answer redirects us back here with force.
			return nil
		}
		return fmt.Errorf("cluster: fetch shard map: %w", err)
	}
	if m == nil { // not modified
		return nil
	}
	if c.m != nil && version != c.m.Version {
		telemetry.ClusterRedirects.Inc()
		if c.op != nil {
			c.op.Event("redirect", trace.Int("map-version", int64(version)))
		}
	}
	c.m = m
	if len(c.applied) != len(m.Shards) {
		c.applied = make([]uint64, len(m.Shards))
		c.priors = make([]*dpprior.Prior, len(m.Shards))
	}
	return nil
}

// conn returns (dialing lazily) the resilient connection to addr,
// pointed at the current operation span so its calls trace correctly.
func (c *ShardedClient) conn(addr string) *edge.ResilientClient {
	rc, ok := c.conns[addr]
	if !ok {
		rc = edge.DialResilient(addr, c.ropts)
		c.conns[addr] = rc
	}
	rc.SetTraceParent(c.op)
	return rc
}

// Map returns the cached shard map (fetching it on first use).
func (c *ShardedClient) Map() (*edge.ShardMap, error) {
	if err := c.refreshMap(false); err != nil {
		return nil, err
	}
	return c.m, nil
}

// ReportTask routes one task posterior to its shard's leader, following
// at most two redirects (forced map refreshes) when the leader moved.
// The shard is chosen by content fingerprint, so retries and redirects
// always land the task on the same shard.
func (c *ShardedClient) ReportTask(t dpprior.TaskPosterior) (uint64, error) {
	end := c.beginOp("upload")
	v, err := c.reportTask(t)
	end(err)
	return v, err
}

func (c *ShardedClient) reportTask(t dpprior.TaskPosterior) (uint64, error) {
	if err := c.refreshMap(false); err != nil {
		return 0, err
	}
	fp := t.Fingerprint()
	route := func() int { return c.m.ShardOf(fp) }
	if c.op != nil {
		c.op.SetAttr(trace.Int("shard", int64(route())))
	}
	var v uint64
	err := c.toLeader("report", route, func(rc *edge.ResilientClient) (err error) {
		v, err = rc.ReportTask(t)
		return err
	})
	return v, err
}

// toLeader sends one write to a shard's leader, following redirects: a
// CodeNotLeader answer or a transport failure means the topology likely
// moved, so it gives the coordinator a beat to notice, forces a map
// refresh and retries against the new leader — three attempts in all.
// Any other rejection (validation, overload budget exhausted) returns at
// once: redirecting cannot help. route picks the shard under the current
// map and is asked again after each refresh.
func (c *ShardedClient) toLeader(what string, route func() int, send func(*edge.ResilientClient) error) error {
	shard := route()
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 {
			if err := c.refreshMap(true); err != nil {
				return err
			}
			shard = route()
		}
		err := send(c.conn(c.m.Shards[shard].Leader))
		if err == nil {
			return nil
		}
		lastErr = err
		var se *edge.ServerError
		if errors.As(err, &se) && se.Code != edge.CodeNotLeader {
			return err
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("cluster: %s to shard %d failed after redirects: %w", what, shard, lastErr)
}

// BatchReportTasks ships a round's task posteriors in one framed write
// per shard: the tasks are grouped by fingerprint-routed shard
// (preserving upload order within each group, so per-shard append order
// matches the sequential path exactly) and each group goes up as one
// BatchAddTask. Returns the number of tasks applied. A shard whose
// leader moved gets the same redirect handling as single uploads.
func (c *ShardedClient) BatchReportTasks(ts []dpprior.TaskPosterior) (int, error) {
	end := c.beginOp("batch-upload")
	n, err := c.batchReportTasks(ts)
	end(err)
	return n, err
}

func (c *ShardedClient) batchReportTasks(ts []dpprior.TaskPosterior) (int, error) {
	if len(ts) == 0 {
		return 0, nil
	}
	if err := c.refreshMap(false); err != nil {
		return 0, err
	}
	groups := make(map[int][]dpprior.TaskPosterior)
	for _, t := range ts {
		shard := c.m.ShardOf(t.Fingerprint())
		groups[shard] = append(groups[shard], t)
	}
	done := 0
	for shard := 0; shard < len(c.m.Shards); shard++ {
		batch, ok := groups[shard]
		if !ok {
			continue
		}
		// The retry is safe: cluster nodes dedupe uploads by fingerprint,
		// so tasks that landed before an ambiguous failure ack without a
		// second append.
		err := c.toLeader("batch", func() int { return shard }, func(rc *edge.ResilientClient) error {
			_, n, err := rc.BatchReportTasks(batch)
			if err == nil {
				done += n
			}
			return err
		})
		if err != nil {
			return done, err
		}
	}
	return done, nil
}

// Codecs reports the wire codec of every client connection (coordinator
// and shard nodes) as codec-name → connection count.
//
// Deprecated: every connection is binary; Codecs always reports
// {"binary": connections}.
func (c *ShardedClient) Codecs() map[string]int {
	return map[string]int{"binary": 1 + len(c.conns)}
}

// ShardPrior fetches one shard's current prior, trying followers first
// (read scaling) and the leader last, with the read-your-writes floor.
// A NotModified answer returns the cached prior.
func (c *ShardedClient) ShardPrior(shard, dim int) (*dpprior.Prior, uint64, error) {
	end := c.beginOp("shard-prior")
	if c.op != nil {
		c.op.SetAttr(trace.Int("shard", int64(shard)))
	}
	p, v, err := c.shardPrior(shard, dim)
	if errors.Is(err, edge.ErrNoPrior) {
		// A cold shard is a normal early-round answer, not a failure;
		// erroring the span would pin every warm-up trace as notable.
		c.op.Event("cold")
		end(nil)
	} else {
		end(err)
	}
	return p, v, err
}

func (c *ShardedClient) shardPrior(shard, dim int) (*dpprior.Prior, uint64, error) {
	if err := c.refreshMap(false); err != nil {
		return nil, 0, err
	}
	if shard < 0 || shard >= len(c.m.Shards) {
		return nil, 0, fmt.Errorf("cluster: shard %d out of range", shard)
	}
	sr := c.m.Shards[shard]
	order := append(append([]string(nil), sr.Followers...), sr.Leader)
	floor := c.applied[shard]
	var lastErr error
	if c.hedgeDelay > 0 && len(order) >= 2 {
		// Race the first two replicas; a decisive answer settles the read.
		// Both legs indecisive (lagging, unreachable) falls through to a
		// sequential scan of the remaining replicas.
		r, herr := c.hedgedFetch(shard, dim, order[:2], floor)
		if r != nil {
			if r.err != nil {
				return nil, 0, r.err // cold shard: same answer everywhere
			}
			if r.p == nil { // not modified: cache is current
				return c.priors[shard], floor, nil
			}
			c.priors[shard] = r.p
			c.applied[shard] = r.v
			return r.p, r.v, nil
		}
		lastErr = herr
		order = order[2:]
		if len(order) == 0 {
			return nil, 0, fmt.Errorf("cluster: shard %d unreachable: %w", shard, lastErr)
		}
	}
	for _, addr := range order {
		p, v, err := c.conn(addr).FetchPriorDeltaMin(dim, floor, floor, c.priors[shard])
		if err != nil {
			lastErr = err
			var se *edge.ServerError
			switch {
			case errors.As(err, &se) && se.Code == edge.CodeLagging:
				if c.op != nil {
					c.op.Event("lagging", trace.Str("replica", addr))
				}
				continue // this replica trails us; try the next one
			case errors.As(err, &se) && se.Code == edge.CodeNoTasks:
				return nil, 0, err // cold shard: same answer everywhere
			case errors.As(err, &se):
				continue
			default:
				if c.op != nil {
					c.op.Event("fall-through", trace.Str("replica", addr))
				}
				continue // transport failure: next replica
			}
		}
		if p == nil { // not modified: cache is current
			return c.priors[shard], floor, nil
		}
		c.priors[shard] = p
		c.applied[shard] = v
		return p, v, nil
	}
	return nil, 0, fmt.Errorf("cluster: shard %d unreachable: %w", shard, lastErr)
}

// FetchMergedPrior assembles the global prior: every shard's prior is
// fetched (cold shards contribute nothing) and the component sets are
// merged into one DP prior. At least one shard must be warm.
func (c *ShardedClient) FetchMergedPrior(dim int) (*dpprior.Prior, error) {
	end := c.beginOp("merged-fetch")
	p, err := c.fetchMergedPrior(dim)
	if errors.Is(err, edge.ErrNoPrior) {
		end(nil) // every shard cold: a warm-up answer, not a failure
	} else {
		end(err)
	}
	return p, err
}

func (c *ShardedClient) fetchMergedPrior(dim int) (*dpprior.Prior, error) {
	if err := c.refreshMap(false); err != nil {
		return nil, err
	}
	shards := make([]*dpprior.Prior, len(c.m.Shards))
	for i := range c.m.Shards {
		p, _, err := c.ShardPrior(i, dim)
		if err != nil {
			if errors.Is(err, edge.ErrNoPrior) {
				continue // cold shard
			}
			return nil, err
		}
		shards[i] = p
	}
	merged, err := dpprior.MergePriors(shards)
	if err != nil {
		if errors.Is(err, dpprior.ErrNoShardPriors) {
			return nil, edge.ErrNoPrior
		}
		return nil, err
	}
	return merged, nil
}

// Applied returns the per-shard read-your-writes floors (highest prior
// versions this client has applied).
func (c *ShardedClient) Applied() []uint64 {
	return append([]uint64(nil), c.applied...)
}

// Close closes every underlying connection.
func (c *ShardedClient) Close() error {
	err := c.coord.Close()
	for _, rc := range c.conns {
		if cerr := rc.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
