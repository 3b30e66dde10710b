package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"time"

	"github.com/drdp/drdp/internal/edge"
	"github.com/drdp/drdp/internal/telemetry"
	"github.com/drdp/drdp/internal/trace"
	"github.com/drdp/drdp/internal/wire"
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
// (conditionally, like the prior), probes every shard leader, and on
// leader loss promotes the follower with the longest acked log —
// highest durable store version, ties broken by the lowest replica
// index, so every coordinator decision is deterministic given the same
// observations. Each promotion bumps the map version; edges discover it
// through their next conditional fetch or a CodeNotLeader redirect.
type Coordinator struct {
	probeInterval time.Duration
	failThreshold int
	probeTimeout  time.Duration
	logger        *slog.Logger

	mu       sync.Mutex
	m        edge.ShardMap
	nodes    [][]*Node // [shard][replica]; nil entries are dead nodes
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

	stopCh chan struct{}
	wg     sync.WaitGroup
	ln     net.Listener
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
	co.ln = ln
	co.addr = ln.Addr().String()
	co.wg.Add(2)
	go co.serve(ln)
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

// serve answers GetShardMap over the edge protocol, opening every
// connection with the same handshake as a cloud server: a peer that
// does not send a valid hello is closed without an answer. The endpoint
// is deliberately tiny: one request kind, conditional on KnownVersion,
// everything else rejected.
func (co *Coordinator) serve(ln net.Listener) {
	defer co.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		co.wg.Add(1)
		go func() {
			defer co.wg.Done()
			defer conn.Close()
			br := bufio.NewReader(conn)
			if err := wire.ServerHandshake(br, conn); err != nil {
				if !errors.Is(err, io.EOF) {
					telemetry.ServerDecodeErrors.Inc()
				}
				return
			}
			dec := wire.NewDecoder(br, edge.DefaultMaxFrameBytes)
			enc := wire.NewEncoder(conn)
			defer dec.Release()
			defer enc.Release()
			for {
				var req edge.Request
				if err := dec.DecodeRequest(&req); err != nil {
					return
				}
				telemetry.ServerReqCounter(req.Kind.String()).Inc()
				var sp *trace.Span
				if req.TraceID != 0 {
					sp = trace.Default.Join(req.TraceID, req.ParentSpan,
						"serve "+req.Kind.String(), trace.Str("node", "coordinator"))
				}
				var resp edge.Response
				if req.Kind != edge.GetShardMap {
					resp = edge.Response{Err: "coordinator serves get-shard-map only", Code: edge.CodeBadRequest}
				} else {
					m := co.Map()
					if req.KnownVersion != 0 && req.KnownVersion == m.Version {
						resp = edge.Response{Version: m.Version, NotModified: true}
					} else {
						sp.Event("map", trace.Int("version", int64(m.Version)))
						resp = edge.Response{Map: &m, Version: m.Version}
					}
				}
				if resp.Err != "" {
					sp.EndErr(errors.New(resp.Err))
				} else {
					sp.End()
				}
				if err := enc.EncodeResponse(&resp); err != nil {
					return
				}
			}
		}()
	}
}

// probeLoop watches every shard leader and triggers failover after
// failThreshold consecutive missed probes.
func (co *Coordinator) probeLoop() {
	defer co.wg.Done()
	// One ticker for the life of the loop: a per-iteration time.After
	// allocates (and leaks until expiry) a timer every probe interval,
	// which at a 10ms cadence is real garbage on a long-lived coordinator.
	ticker := time.NewTicker(co.probeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-co.stopCh:
			return
		case <-ticker.C:
		}
		co.mu.Lock()
		leaders := make([]string, len(co.m.Shards))
		for i, s := range co.m.Shards {
			leaders[i] = s.Leader
		}
		co.mu.Unlock()
		for shard, addr := range leaders {
			start := time.Now()
			if co.probe(addr) {
				co.observeHealthy(shard, addr, time.Since(start))
				continue
			}
			// Only FAILED probes are retro-recorded: healthy probes at the
			// probe cadence would flood the flight recorder's recent ring.
			trace.Default.Record("probe", start, time.Since(start), errProbeFailed,
				trace.Int("shard", int64(shard)), trace.Str("leader", addr))
			co.mu.Lock()
			name := co.nodeNameLocked(shard, addr)
			co.failures[shard]++
			trip := co.failures[shard] >= co.failThreshold
			co.mu.Unlock()
			telemetry.ReplicaHealthGauge(name).Set(0)
			if trip {
				co.failover(shard)
			}
		}
	}
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
	// Health score in [0,1]: 1 at or under the gray threshold, decaying
	// toward 0 as the EWMA overshoots it. Without a policy every live
	// leader scores 1 — the gauge still distinguishes alive from dead.
	score := 1.0
	if gray > 0 && avg > gray {
		score = gray / avg
	}
	telemetry.ReplicaHealthGauge(name).Set(score)
	if trip {
		co.demote(shard)
	}
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
	promoted := reps[best]
	// Drop the dead leader from the tracked set.
	for i, n := range reps {
		if n != nil && n.Addr() == deadAddr {
			reps[i] = nil
		}
	}
	surviving := 0
	for _, n := range reps {
		if n != nil && n != promoted {
			surviving++
		}
	}
	promoted.Promote(surviving)
	sp.Event("promoted", trace.Str("node", promoted.Name()),
		trace.Int("log-version", int64(bestVer)), trace.Int("followers", int64(surviving)))
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
	co.ewma[shard] = 0 // the new leader starts with a fresh latency history
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
	promoted := reps[best]
	surviving := 0
	for _, n := range reps {
		if n != nil && n != promoted {
			surviving++
		}
	}
	promoted.Promote(surviving)
	sp.Event("promoted", trace.Str("node", promoted.Name()),
		trace.Int("log-version", int64(bestVer)), trace.Int("followers", int64(surviving)))
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
	co.ewma[shard] = 0 // the new leader starts with a fresh latency history
	co.demotedAt[old.Addr()] = time.Now()
	telemetry.ClusterDemotions.Inc()
	telemetry.Events.RecordKV("cluster", "demoted", "node", old.Name())
	co.logger.Warn("cluster: gray leader demoted",
		"shard", shard, "slow", old.Name(), "promoted", promoted.Name(),
		"log-version", bestVer, "map-version", co.m.Version)
}

// Close stops probing and the map endpoint. The nodes are not closed —
// the cluster harness owns them.
func (co *Coordinator) Close() error {
	co.mu.Lock()
	if co.closed {
		co.mu.Unlock()
		return nil
	}
	co.closed = true
	co.mu.Unlock()
	close(co.stopCh)
	err := co.ln.Close()
	co.wg.Wait()
	return err
}
