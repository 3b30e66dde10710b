package cluster

import (
	"cmp"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"slices"
	"sync"
	"time"

	"github.com/drdp/drdp/internal/edge"
	"github.com/drdp/drdp/internal/telemetry"
	"github.com/drdp/drdp/internal/trace"
)

const (
	// DefaultProbeInterval paces leader liveness probes.
	DefaultProbeInterval = 50 * time.Millisecond
	// DefaultFailThreshold is how many consecutive failed probes declare
	// a leader dead.
	DefaultFailThreshold = 3
	// DefaultProbeTimeout bounds one probe round trip.
	DefaultProbeTimeout = 500 * time.Millisecond
	// DefaultGrayCooldown is how long a demoted-for-slowness node is
	// passed over as a promotion candidate. A gray node usually has the
	// longest log — it was the leader until moments ago — so without a
	// cooldown the next trip promotes it right back and leadership
	// ping-pongs between the slow node and everyone else.
	DefaultGrayCooldown = 30 * time.Second
)

// Coordinator owns the shard map: it serves GetShardMap to edges
// (conditionally, like the prior) through the same edge.Endpoint as
// every cloud server, probes every shard leader, and on leader loss
// promotes the follower with the longest acked log — highest durable
// store version, ties broken by the lowest replica index, so every
// coordinator decision is deterministic given the same observations. Each promotion bumps the map version; edges discover it
// through their next conditional fetch or a CodeNotLeader redirect.
type Coordinator struct {
	probeInterval time.Duration
	failThreshold int
	probeTimeout  time.Duration
	logger        *slog.Logger

	mu sync.Mutex
	m  edge.ShardMap
	// nodes is the replica table, [shard][replica]; nil entries are dead
	// nodes. The coordinator is its only owner: everyone else reads and
	// removes through the methods below, under mu.
	nodes    [][]*Node
	failures []int
	addr     string

	// Gray-failure policy (SetGrayPolicy): a leader whose EWMA of
	// successful probe latency stays above grayLatency for grayAfter
	// consecutive probes is demoted — alive, but too slow to lead.
	grayLatency  time.Duration
	grayAfter    int
	grayCooldown time.Duration
	ewma         []float64            // per-shard probe-latency EWMA, seconds; 0 = no sample yet
	grayCount    []int                // consecutive over-threshold probes per shard
	demotedAt    map[string]time.Time // addr → when it was demoted for slowness
	// recovering holds the demoted nodes whose health score has not read
	// 1 since: the loop probes them beside the leaders, so a demoted
	// node's gauge follows its recovery instead of freezing at its last
	// reading as a leader.
	recovering map[string]*demoted

	ep     *edge.Endpoint // the shard-map endpoint; answer is its dispatch
	stopCh chan struct{}
	wg     sync.WaitGroup // the endpoint's Serve and the probe loop
	closed bool
}

// NewCoordinator builds a coordinator over the given replica sets
// (nodes[shard][replica]; replica 0 must be the current leader). Probe
// cadence parameters at zero take the defaults.
func NewCoordinator(nodes [][]*Node, probeInterval time.Duration, failThreshold int, logger *slog.Logger) (*Coordinator, error) {
	if len(nodes) == 0 {
		return nil, errors.New("cluster: coordinator needs at least one shard")
	}
	if probeInterval <= 0 {
		probeInterval = DefaultProbeInterval
	}
	if failThreshold <= 0 {
		failThreshold = DefaultFailThreshold
	}
	co := &Coordinator{
		probeInterval: probeInterval,
		failThreshold: failThreshold,
		probeTimeout:  DefaultProbeTimeout,
		logger:        telemetry.OrDefault(logger),
		nodes:         nodes,
		failures:      make([]int, len(nodes)),
		grayCooldown:  DefaultGrayCooldown,
		ewma:          make([]float64, len(nodes)),
		grayCount:     make([]int, len(nodes)),
		demotedAt:     make(map[string]time.Time),
		recovering:    make(map[string]*demoted),
		stopCh:        make(chan struct{}),
	}
	m := edge.ShardMap{Version: 1}
	for i, reps := range nodes {
		if len(reps) == 0 || reps[0] == nil {
			return nil, fmt.Errorf("cluster: shard %d has no leader", i)
		}
		sr := edge.ShardReplicas{Leader: reps[0].Addr()}
		for _, f := range reps[1:] {
			if f != nil {
				sr.Followers = append(sr.Followers, f.Addr())
			}
		}
		m.Shards = append(m.Shards, sr)
	}
	co.m = m
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("cluster: coordinator listen: %w", err)
	}
	co.addr = ln.Addr().String()
	co.ep = edge.NewEndpoint(co.answer, co.logger)
	co.ep.SetNodeName("coordinator")
	co.wg.Add(2)
	go func() {
		defer co.wg.Done()
		if err := co.ep.Serve(ln); err != nil {
			co.logger.Error("cluster: coordinator stopped serving", "err", err)
		}
	}()
	go co.probeLoop()
	return co, nil
}

// Addr is the coordinator's shard-map endpoint.
func (co *Coordinator) Addr() string { return co.addr }

// Map returns a copy of the current shard map.
func (co *Coordinator) Map() edge.ShardMap {
	co.mu.Lock()
	defer co.mu.Unlock()
	m := co.m
	m.Shards = append([]edge.ShardReplicas(nil), co.m.Shards...)
	return m
}

// answer is the shard-map endpoint's dispatch: one request kind,
// conditional on KnownVersion, everything else rejected.
func (co *Coordinator) answer(req *edge.Request, sp *trace.Span) *edge.Response {
	if req.Kind != edge.GetShardMap {
		return &edge.Response{Err: "coordinator serves get-shard-map only", Code: edge.CodeBadRequest}
	}
	m := co.Map()
	if req.KnownVersion != 0 && req.KnownVersion == m.Version {
		return &edge.Response{Version: m.Version, NotModified: true}
	}
	sp.Event("map", trace.Int("version", int64(m.Version)))
	return &edge.Response{Map: &m, Version: m.Version}
}

// probeLoop watches every shard leader and triggers failover after
// failThreshold consecutive missed probes; each demoted node still
// recovering (none, unless a gray leader was demoted) is probed beside
// them. Each tick starts a probe of every watched address that has none
// in flight, all at once, so a slow node (a probe's dial and round trip
// are each bounded by the probe timeout) holds back only its own next
// probe, never another shard's verdict; that next probe starts as soon
// as the slow one lands.
// Results are folded on this goroutine as they land, leaders in shard
// order first, so failover and demotion stay serial.
func (co *Coordinator) probeLoop() {
	defer co.wg.Done()
	// One ticker for the life of the loop: a per-iteration time.After
	// allocates (and leaks until expiry) a timer every probe interval,
	// which at a 10ms cadence is real garbage on a long-lived coordinator.
	ticker := time.NewTicker(co.probeInterval)
	defer ticker.Stop()
	var probes sync.WaitGroup
	defer probes.Wait()
	results := make(chan probeResult)
	inflight := make(map[string]bool) // addresses with a probe out
	launch := func(r probeResult) {
		inflight[r.addr] = true
		probes.Add(1)
		go func() {
			defer probes.Done()
			r.start = time.Now()
			r.ok = co.probe(r.addr)
			r.rtt = time.Since(r.start)
			select {
			case results <- r:
			case <-co.stopCh:
			}
		}()
	}
	for {
		select {
		case <-co.stopCh:
			return
		case r := <-results:
			// Fold every result that has landed, leaders in shard order.
			batch := []probeResult{r}
		drain:
			for {
				select {
				case r := <-results:
					batch = append(batch, r)
				default:
					break drain
				}
			}
			slices.SortFunc(batch, probeResult.compare)
			var overdue []string
			for _, r := range batch {
				delete(inflight, r.addr)
				co.fold(r)
				if r.rtt >= co.probeInterval {
					overdue = append(overdue, r.addr)
				}
			}
			// A probe that outlasted the interval missed its next tick:
			// probe that address again now, in its role after the fold.
			if len(overdue) > 0 {
				for _, t := range co.probeTargets() {
					if slices.Contains(overdue, t.addr) && !inflight[t.addr] {
						launch(t)
					}
				}
			}
		case <-ticker.C:
			for _, t := range co.probeTargets() {
				if !inflight[t.addr] {
					launch(t)
				}
			}
		}
	}
}

// probeResult is one probe: of a shard's leader, or (shard −1) of the
// demoted node addr; when it started, how long it took and whether the
// node answered.
type probeResult struct {
	shard int
	addr  string
	start time.Time
	rtt   time.Duration
	ok    bool
}

// compare orders leaders by shard, then demoted nodes by address.
func (r probeResult) compare(o probeResult) int {
	if (r.shard < 0) != (o.shard < 0) {
		return cmp.Compare(o.shard, r.shard)
	}
	return cmp.Or(cmp.Compare(r.shard, o.shard), cmp.Compare(r.addr, o.addr))
}

// probeTargets returns this tick's probes: every shard's leader, then
// the demoted nodes still recovering.
func (co *Coordinator) probeTargets() []probeResult {
	co.mu.Lock()
	targets := make([]probeResult, len(co.m.Shards))
	for i, s := range co.m.Shards {
		targets[i] = probeResult{shard: i, addr: s.Leader}
	}
	co.mu.Unlock()
	for _, addr := range co.recoveringAddrs() {
		targets = append(targets, probeResult{shard: -1, addr: addr})
	}
	return targets
}

// fold applies one probe's result. A leader probe that lands after its
// shard changed leader says nothing about the new one and is dropped.
func (co *Coordinator) fold(r probeResult) {
	if r.shard < 0 {
		co.observeDemoted(r.addr, r.ok, r.rtt)
		return
	}
	co.mu.Lock()
	current := co.m.Shards[r.shard].Leader == r.addr
	co.mu.Unlock()
	switch {
	case !current:
		return
	case r.ok:
		co.observeHealthy(r.shard, r.addr, r.rtt)
		return
	}
	// Only FAILED probes are retro-recorded: healthy probes at the
	// probe cadence would flood the flight recorder's recent ring.
	trace.Default.Record("probe", r.start, r.rtt, errProbeFailed,
		trace.Int("shard", int64(r.shard)), trace.Str("leader", r.addr))
	co.mu.Lock()
	name := co.nodeNameLocked(r.shard, r.addr)
	co.failures[r.shard]++
	trip := co.failures[r.shard] >= co.failThreshold
	co.mu.Unlock()
	telemetry.ReplicaHealthGauge(name).Set(0)
	if trip {
		co.failover(r.shard)
	}
}

// demoted is the probe state of a demoted node: its shard and its own
// probe-latency EWMA, which starts at the leader EWMA that demoted it.
type demoted struct {
	shard int
	ewma  float64
}

// recoveringAddrs returns the demoted nodes still to probe, first
// dropping those that lead again (their leader probes score them) or
// left the replica table.
func (co *Coordinator) recoveringAddrs() []string {
	co.mu.Lock()
	defer co.mu.Unlock()
	if len(co.recovering) == 0 {
		return nil
	}
	addrs := make([]string, 0, len(co.recovering))
	for addr, d := range co.recovering {
		if addr == co.m.Shards[d.shard].Leader || !co.trackedLocked(d.shard, addr) {
			delete(co.recovering, addr)
			continue
		}
		addrs = append(addrs, addr)
	}
	return addrs
}

// trackedLocked reports whether a live node of shard has addr. Caller
// holds co.mu.
func (co *Coordinator) trackedLocked(shard int, addr string) bool {
	for _, n := range co.nodes[shard] {
		if n != nil && n.Addr() == addr {
			return true
		}
	}
	return false
}

// observeDemoted folds one probe of a demoted node into its latency
// EWMA and publishes its health score (0 for a failed probe). A score
// of 1 ends its recovery. A node promoted since the probe started is
// scored by its leader probes from then on, so its result is dropped.
func (co *Coordinator) observeDemoted(addr string, ok bool, rtt time.Duration) {
	co.mu.Lock()
	d := co.recovering[addr]
	if d == nil || addr == co.m.Shards[d.shard].Leader {
		co.mu.Unlock()
		return
	}
	name := co.nodeNameLocked(d.shard, addr)
	score := 0.0
	if ok {
		d.ewma = grayAlpha*rtt.Seconds() + (1-grayAlpha)*d.ewma
		if score = healthScore(co.grayLatency.Seconds(), d.ewma); score == 1 {
			delete(co.recovering, addr)
		}
	}
	co.mu.Unlock()
	telemetry.ReplicaHealthGauge(name).Set(score)
}

// errProbeFailed marks a failed liveness probe in the flight recorder.
var errProbeFailed = errors.New("cluster: leader probe failed")

// SetGrayPolicy arms gray-failure detection (safe on a live
// coordinator): when the EWMA of a leader's successful probe latency
// stays above latency for after consecutive probes (0 = the fail
// threshold), the leader is demoted — the best follower is promoted and
// the slow leader stays in the replica set as a follower. latency must
// stay well under the probe timeout, or a slow leader reads as dead and
// ordinary failover wins the race. Zero latency disarms.
func (co *Coordinator) SetGrayPolicy(latency time.Duration, after int) {
	co.mu.Lock()
	co.grayLatency = latency
	co.grayAfter = after
	if co.grayAfter <= 0 {
		co.grayAfter = co.failThreshold
	}
	co.mu.Unlock()
}

// grayAlpha weights the newest sample in the probe-latency EWMA: high
// enough that a few slow probes move the average, low enough that one
// scheduler hiccup does not demote a healthy leader.
const grayAlpha = 0.3

// observeHealthy folds one successful probe into the shard's latency
// EWMA, publishes the replica health score, and demotes the leader when
// the gray policy trips.
func (co *Coordinator) observeHealthy(shard int, addr string, rtt time.Duration) {
	co.mu.Lock()
	name := co.nodeNameLocked(shard, addr)
	co.failures[shard] = 0
	if co.ewma[shard] == 0 {
		co.ewma[shard] = rtt.Seconds()
	} else {
		co.ewma[shard] = grayAlpha*rtt.Seconds() + (1-grayAlpha)*co.ewma[shard]
	}
	avg := co.ewma[shard]
	gray := co.grayLatency.Seconds()
	trip := false
	if co.grayLatency > 0 && avg > gray {
		co.grayCount[shard]++
		trip = co.grayCount[shard] >= co.grayAfter
		co.logger.Debug("cluster: probe over gray threshold",
			"shard", shard, "leader", name, "rtt", rtt,
			"ewma-ms", avg*1e3, "count", co.grayCount[shard])
	} else {
		co.grayCount[shard] = 0
	}
	co.mu.Unlock()
	telemetry.ReplicaHealthGauge(name).Set(healthScore(gray, avg))
	if trip {
		co.demote(shard)
	}
}

// healthScore is a live replica's score in [0,1] given the gray
// threshold and its probe-latency EWMA, both in seconds: 1 at or under
// the threshold, decaying toward 0 as the EWMA overshoots it. Without a
// policy every live replica scores 1 — the gauge still distinguishes
// alive from dead.
func healthScore(gray, avg float64) float64 {
	if gray > 0 && avg > gray {
		return gray / avg
	}
	return 1
}

// nodeNameLocked resolves a replica address to its metric label,
// falling back to the address for nodes the coordinator no longer
// tracks. Caller holds co.mu.
func (co *Coordinator) nodeNameLocked(shard int, addr string) string {
	for _, n := range co.nodes[shard] {
		if n != nil && n.Addr() == addr {
			return n.Name()
		}
	}
	return addr
}

// node returns the node at (shard, replica); nil once it was removed.
func (co *Coordinator) node(shard, replica int) *Node {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.nodes[shard][replica]
}

// leader returns the live node the shard map names as shard's leader
// (nil if none).
func (co *Coordinator) leader(shard int) *Node {
	co.mu.Lock()
	defer co.mu.Unlock()
	addr := co.m.Shards[shard].Leader
	for _, n := range co.nodes[shard] {
		if n != nil && n.Addr() == addr {
			return n
		}
	}
	return nil
}

// remove drops a dead node from the replica table.
func (co *Coordinator) remove(dead *Node) {
	co.mu.Lock()
	defer co.mu.Unlock()
	for _, reps := range co.nodes {
		for i, n := range reps {
			if n == dead {
				reps[i] = nil
			}
		}
	}
}

// replicas returns a copy of the replica table.
func (co *Coordinator) replicas() [][]*Node {
	co.mu.Lock()
	defer co.mu.Unlock()
	out := make([][]*Node, len(co.nodes))
	for s, reps := range co.nodes {
		out[s] = append([]*Node(nil), reps...)
	}
	return out
}

// bestFollowerLocked picks the promotion target among reps, excluding
// the current leader at excludeAddr: the longest durable log (highest
// store version), ties broken by the lowest replica index (the scan
// order is ascending and > is strict), so every coordinator decision
// is deterministic given the same observations. Nodes demoted for
// slowness within the gray cooldown are passed over — a gray node
// usually holds the longest log, and promoting it right back
// ping-pongs leadership — unless no other candidate exists: slow beats
// unavailable. Caller holds co.mu.
func (co *Coordinator) bestFollowerLocked(reps []*Node, excludeAddr string) (int, uint64) {
	best, cooling := -1, -1
	var bestVer, coolingVer uint64
	now := time.Now()
	for i, n := range reps {
		if n == nil || n.Addr() == excludeAddr {
			continue
		}
		v := n.Server().Store().Version()
		if at, ok := co.demotedAt[n.Addr()]; ok && now.Sub(at) < co.grayCooldown {
			if cooling == -1 || v > coolingVer {
				cooling, coolingVer = i, v
			}
			continue
		}
		if best == -1 || v > bestVer {
			best, bestVer = i, v
		}
	}
	if best == -1 {
		return cooling, coolingVer
	}
	return best, bestVer
}

// probe round-trips one GetStats against a leader. A live listener that
// answers anything classifiable counts as alive; only transport-level
// failure (refused, reset, timeout) counts against the leader.
func (co *Coordinator) probe(addr string) bool {
	c, err := edge.Dial(addr, co.probeTimeout)
	if err != nil {
		return false
	}
	defer c.Close()
	c.SetRoundTripTimeout(co.probeTimeout)
	_, err = c.Stats()
	var se *edge.ServerError
	return err == nil || errors.As(err, &se)
}

// failover promotes the best surviving follower of a shard: the one
// with the longest durable log (highest store version), ties broken by
// the lowest replica index. The dead leader is dropped from the replica
// set, remaining followers are repointed at the new leader, and the map
// version bump redirects edges.
func (co *Coordinator) failover(shard int) {
	// The failover gets its own trace, pinned so a later burst of healthy
	// round traces can never evict the one record of what was promoted
	// and why. Subject to head sampling like every locally rooted trace.
	sp := trace.Default.StartTrace("failover", trace.Int("shard", int64(shard)))
	sp.Pin()
	defer sp.End()
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.closed {
		return
	}
	reps := co.nodes[shard]
	deadAddr := co.m.Shards[shard].Leader
	sp.SetAttr(trace.Str("dead", deadAddr))
	best, bestVer := co.bestFollowerLocked(reps, deadAddr)
	if best == -1 {
		sp.Event("no-survivor")
		co.logger.Error("cluster: shard has no surviving replica to promote", "shard", shard)
		co.failures[shard] = 0
		return
	}
	// Drop the dead leader from the tracked set.
	for i, n := range reps {
		if n != nil && n.Addr() == deadAddr {
			reps[i] = nil
		}
	}
	promoted := reps[best]
	co.promoteLocked(shard, promoted, bestVer, sp)
	telemetry.ClusterPromotions.Inc()
	co.logger.Warn("cluster: leader failover",
		"shard", shard, "dead", deadAddr, "promoted", promoted.Name(),
		"log-version", bestVer, "map-version", co.m.Version)
}

// demote handles a gray leader — alive but persistently slow. The best
// follower is promoted exactly as in failover, but the old leader is
// kept in the replica set: demoted in place (writes refused from the
// next request on) and repointed at the new leader as an ordinary
// pulling follower. Its log is intact and up to date, so it keeps
// serving version-gated reads, and after the gray cooldown it is a
// promotion candidate again.
func (co *Coordinator) demote(shard int) {
	sp := trace.Default.StartTrace("demotion", trace.Int("shard", int64(shard)))
	sp.Pin()
	defer sp.End()
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.closed {
		return
	}
	reps := co.nodes[shard]
	slowAddr := co.m.Shards[shard].Leader
	sp.SetAttr(trace.Str("slow", slowAddr))
	var old *Node
	for _, n := range reps {
		if n != nil && n.Addr() == slowAddr {
			old = n
		}
	}
	best, bestVer := co.bestFollowerLocked(reps, slowAddr)
	if best == -1 || old == nil {
		// Single-replica shard (or the slow leader is already untracked):
		// nothing to demote to. Slow beats unavailable.
		sp.Event("no-follower")
		co.grayCount[shard] = 0
		return
	}
	// Demote before promoting so there is never a moment with two
	// writable leaders; writes racing the switch get CodeNotLeader and
	// re-resolve through the bumped map.
	old.Server().SetFollower(true)
	co.recovering[old.Addr()] = &demoted{shard: shard, ewma: co.ewma[shard]}
	promoted := reps[best]
	co.promoteLocked(shard, promoted, bestVer, sp)
	co.demotedAt[old.Addr()] = time.Now()
	telemetry.ClusterDemotions.Inc()
	co.logger.Warn("cluster: gray leader demoted",
		"shard", shard, "slow", old.Name(), "promoted", promoted.Name(),
		"log-version", bestVer, "map-version", co.m.Version)
}

// promoteLocked makes promoted the leader of shard, the step failover
// and demote share: it promotes the node with every other tracked
// replica as its follower quorum, repoints those replicas at it, swaps
// the map entry in and bumps the map version, and resets the shard's
// probe state — the new leader starts with a fresh latency history.
// logVersion is the promoted log's length, for the span. Caller holds
// co.mu.
func (co *Coordinator) promoteLocked(shard int, promoted *Node, logVersion uint64, sp *trace.Span) {
	reps := co.nodes[shard]
	surviving := 0
	for _, n := range reps {
		if n != nil && n != promoted {
			surviving++
		}
	}
	promoted.Promote(surviving)
	sp.Event("promoted", trace.Str("node", promoted.Name()),
		trace.Int("log-version", int64(logVersion)), trace.Int("followers", int64(surviving)))
	sr := edge.ShardReplicas{Leader: promoted.Addr()}
	for _, n := range reps {
		if n != nil && n != promoted {
			sr.Followers = append(sr.Followers, n.Addr())
			n.Follow(promoted.Addr())
			sp.Event("repoint", trace.Str("node", n.Name()))
		}
	}
	co.m.Shards[shard] = sr
	co.m.Version++
	sp.SetAttr(trace.Int("map-version", int64(co.m.Version)))
	co.failures[shard] = 0
	co.grayCount[shard] = 0
	co.ewma[shard] = 0
}

// Close closes the map endpoint, live edge connections included, then
// stops probing. The nodes are not closed — the cluster harness owns
// them.
func (co *Coordinator) Close() error {
	co.mu.Lock()
	if co.closed {
		co.mu.Unlock()
		return nil
	}
	co.closed = true
	co.mu.Unlock()
	err := co.ep.Close()
	close(co.stopCh)
	co.wg.Wait()
	return err
}
