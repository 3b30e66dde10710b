// Package cluster is the replicated shard tier on top of the edge
// protocol: N shards, each a leader plus followers streaming the
// leader's append-only log, a coordinator that probes leaders and
// promotes the longest-acked follower on leader loss, and a sharded
// client that routes task uploads by fingerprint and merges per-shard
// priors into one DP prior.
//
// # Roles and invariants
//
// Every node is a full edge.CloudServer over its own store. A leader
// accepts ReportTask and serves the replication stream (PullLog); a
// follower pulls frames (verbatim log bytes), fsyncs them, and serves
// reads from the prior it builds locally — the seeded builder makes a
// follower's prior at version v byte-identical to the leader's. The
// follower's durable version doubles as its acknowledgement: with
// SyncReplicas set, a leader acks an upload only after a quorum of
// followers hold it, so a leader crash cannot lose an acked task.
//
// Promotion picks the follower with the longest acked log (highest
// durable store version), breaking ties on the lowest replica index, and
// reaches edges as a shard-map version bump. Reads are safe from any
// replica because every fetch carries the edge's read-your-writes floor
// (Request.MinVersion): a lagging replica refuses rather than serving a
// prior the edge has already moved past.
package cluster

import (
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"sync"
	"time"

	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/edge"
	"github.com/drdp/drdp/internal/store"
	"github.com/drdp/drdp/internal/telemetry"
	"github.com/drdp/drdp/internal/trace"
)

const (
	// DefaultPullInterval paces a caught-up follower's polling.
	DefaultPullInterval = 20 * time.Millisecond
	// DefaultCatchupJitter bounds the seeded random delay before a
	// (re)started follower's first pull, so a fleet of restarting
	// followers does not stampede the leader in lockstep.
	DefaultCatchupJitter = 50 * time.Millisecond
	// DefaultMaxHealthyLag is the replication lag (in sequence numbers)
	// beyond which a follower's /healthz check reports unhealthy.
	DefaultMaxHealthyLag = 256
)

// NodeConfig configures one replica.
type NodeConfig struct {
	Shard   int // shard index (labels, routing)
	Replica int // replica index within the shard; 0 starts as leader
	// Dir is the node's store directory ("" = memory-only).
	Dir string
	// FS, when set, backs the node's store files — the disk-fault chaos
	// hook (nil = the real filesystem).
	FS store.FS
	// ScrubEvery, when positive, runs a background integrity scrub of the
	// node's store at that cadence. A follower repairs quarantined ranges
	// from its current leader; a leader scrubs detect-only.
	ScrubEvery time.Duration
	// Build seeds the node's prior builder; every replica of a shard must
	// share it for byte-identical priors.
	Build dpprior.BuildOptions
	// LeaderAddr is the address to pull from when starting as a follower.
	LeaderAddr string
	// SyncReplicas/AckTimeout configure semi-synchronous appends when
	// this node leads (see edge.CloudServer).
	SyncReplicas int
	AckTimeout   time.Duration
	// PullInterval paces the caught-up follower poll
	// (0 = DefaultPullInterval).
	PullInterval time.Duration
	// CatchupJitter bounds the seeded pre-pull delay on (re)start
	// (0 = DefaultCatchupJitter; negative = none).
	CatchupJitter time.Duration
	// Seed drives the catch-up jitter and the pull client's backoff.
	Seed   int64
	Logger *slog.Logger
}

// Node is one running replica: a CloudServer, its listener, and (as a
// follower) the pull loop replicating the leader's log.
type Node struct {
	cfg    NodeConfig
	srv    *edge.CloudServer
	logger *slog.Logger
	addr   string

	mu         sync.Mutex
	leaderAddr string
	pullStop   chan struct{}
	pullWg     sync.WaitGroup
	lag        uint64
	healthStop func()
	scrubber   *store.Scrubber
	closed     bool
}

// Name labels the node in metrics and logs ("s0r1").
func (n *Node) Name() string { return fmt.Sprintf("s%dr%d", n.cfg.Shard, n.cfg.Replica) }

// Addr is the node's listen address.
func (n *Node) Addr() string { return n.addr }

// Server exposes the underlying CloudServer (promotion, stats, store).
func (n *Node) Server() *edge.CloudServer { return n.srv }

// StartNode opens the node's store, starts its server on a loopback
// port, and — when cfg.LeaderAddr is set — begins following that leader.
func StartNode(cfg NodeConfig) (*Node, error) {
	logger := telemetry.OrDefault(cfg.Logger)
	st, err := store.Open(store.Options{Dir: cfg.Dir, FS: cfg.FS, Logger: logger, Validate: validateTask})
	if err != nil {
		return nil, fmt.Errorf("cluster: node %d/%d store: %w", cfg.Shard, cfg.Replica, err)
	}
	srv, err := edge.NewCloudServerWithStore(st, nil, cfg.Build, logger)
	if err != nil {
		st.Close()
		return nil, fmt.Errorf("cluster: node %d/%d: %w", cfg.Shard, cfg.Replica, err)
	}
	srv.SetSemiSync(cfg.SyncReplicas, cfg.AckTimeout)
	srv.EnableDedupe()
	n := &Node{cfg: cfg, srv: srv, logger: logger}
	srv.SetNodeName(n.Name())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("cluster: node %d/%d listen: %w", cfg.Shard, cfg.Replica, err)
	}
	n.addr = ln.Addr().String()
	go srv.Serve(ln)
	n.healthStop = telemetry.RegisterHealth("repl-lag-"+n.Name(), n.lagHealth)
	if cfg.LeaderAddr != "" {
		srv.SetFollower(true)
		n.Follow(cfg.LeaderAddr)
	}
	if cfg.ScrubEvery > 0 {
		n.scrubber = st.StartScrubber(cfg.ScrubEvery, n.repairSource, n.onScrub)
	}
	return n, nil
}

// repairSource resolves where this pass's scrub may repair from: the
// node's current leader when it is a follower, detect-only otherwise.
// Resolved fresh each pass so a post-failover scrub pulls from the new
// leader; the scrubber closes the returned source after the pass.
func (n *Node) repairSource() store.RepairSource {
	n.mu.Lock()
	addr := n.leaderAddr
	n.mu.Unlock()
	if addr == "" || !n.srv.IsFollower() {
		return nil
	}
	return NewPullRepairSource(addr, DefaultScrubTimeout)
}

// onScrub logs any pass that found or fixed something; clean passes at
// scrub cadence would only be noise.
func (n *Node) onScrub(rep store.ScrubReport, err error) {
	if err == nil && rep.Clean() {
		return
	}
	n.logger.Warn("cluster: scrub pass", "node", n.Name(),
		"frames", rep.FramesChecked, "corrupt", rep.CorruptFrames,
		"repaired", rep.RepairedFrames, "verdicts-rewritten", rep.VerdictsRewritten,
		"snapshot-repaired", rep.SnapshotRepaired, "poison-cleared", rep.PoisonCleared,
		"err", err)
}

// validateTask is the store's recovery-time semantic check (dimension 0
// = accept any consistent shape).
func validateTask(t dpprior.TaskPosterior) error { return t.Validate(0) }

// lagHealth is the node's /healthz readiness check: a follower whose
// replication lag exceeds the threshold is not ready to serve reads.
func (n *Node) lagHealth() error {
	n.mu.Lock()
	lag := n.lag
	n.mu.Unlock()
	if n.srv.IsFollower() && lag > DefaultMaxHealthyLag {
		return fmt.Errorf("replication lag %d exceeds %d", lag, DefaultMaxHealthyLag)
	}
	return nil
}

// Follow (re)points the node's pull loop at a leader address, stopping
// any previous loop first. Used at start and after a promotion repoints
// surviving followers.
func (n *Node) Follow(leaderAddr string) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	if n.pullStop != nil {
		close(n.pullStop)
	}
	stop := make(chan struct{})
	n.pullStop = stop
	n.leaderAddr = leaderAddr
	n.mu.Unlock()
	n.pullWg.Add(1)
	go n.pullLoop(leaderAddr, stop)
}

// Promote makes the node a leader: the pull loop stops and writes are
// accepted from here on. The store already holds everything this node
// ever acked, so no log repair is needed. followers is the surviving
// follower count — the semi-sync quorum shrinks to what can still ack,
// so a depleted shard degrades to async appends instead of stalling
// every upload into the ack timeout.
func (n *Node) Promote(followers int) {
	n.mu.Lock()
	if n.pullStop != nil {
		close(n.pullStop)
		n.pullStop = nil
	}
	n.lag = 0
	n.mu.Unlock()
	n.pullWg.Wait()
	quorum := n.cfg.SyncReplicas
	if followers < quorum {
		quorum = followers
	}
	n.srv.SetSemiSync(quorum, n.cfg.AckTimeout)
	n.srv.SetFollower(false)
	telemetry.ReplLagGauge(n.Name()).Set(0)
	n.logger.Info("cluster: follower promoted to leader", "node", n.Name())
}

// pullLoop replicates the leader's log until stopped, tracking lag on
// the node and its gauge.
func (n *Node) pullLoop(leaderAddr string, stop chan struct{}) {
	defer n.pullWg.Done()
	gauge := telemetry.ReplLagGauge(n.Name())
	Replicate(n.srv, leaderAddr, ReplicateOptions{
		FollowerID:    n.cfg.Replica + 1,
		Interval:      n.cfg.PullInterval,
		CatchupJitter: n.cfg.CatchupJitter,
		Seed:          n.cfg.Seed + int64(1000*n.cfg.Shard+n.cfg.Replica),
		Logger:        n.logger,
		OnLag: func(lag uint64) {
			n.mu.Lock()
			n.lag = lag
			n.mu.Unlock()
			gauge.Set(float64(lag))
		},
	}, stop)
}

// ReplicateOptions tunes one Replicate loop.
type ReplicateOptions struct {
	// FollowerID identifies this replica in pull requests (> 0; the
	// leader records the pull's AfterSeq as this follower's durable
	// acknowledgement).
	FollowerID int
	// Interval paces a caught-up follower's polling (0 = DefaultPullInterval).
	Interval time.Duration
	// CatchupJitter bounds the seeded pre-pull delay
	// (0 = DefaultCatchupJitter; negative = none).
	CatchupJitter time.Duration
	// Seed drives the catch-up jitter and the pull client's backoff.
	Seed int64
	// OnLag, when set, observes the replication lag after every
	// successful pull.
	OnLag  func(lag uint64)
	Logger *slog.Logger
}

// Replicate streams a leader's log into srv until stop closes: pull
// frames after the local durable version, apply them (fsync-gated), and
// immediately pull again while behind — the immediate re-pull is also
// what carries the acknowledgement of the batch just applied. All
// reconnect/backoff behavior comes from ResilientClient; there is no
// bespoke retry here. This is the loop behind a cluster Node's follower
// role, exported so a standalone drdp-cloud process can follow a leader
// too.
func Replicate(srv *edge.CloudServer, leaderAddr string, o ReplicateOptions, stop <-chan struct{}) {
	logger := telemetry.OrDefault(o.Logger)
	rng := rand.New(rand.NewSource(o.Seed))
	// One timer serves the jitter sleep and every pause below. The loop
	// pauses on most iterations of a long-lived follower, and a fresh
	// time.After per pause allocates a timer each lap.
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	// pause sleeps for d on the shared timer; false means stop closed.
	pause := func(d time.Duration) bool {
		timer.Reset(d)
		select {
		case <-timer.C:
			return true
		case <-stop:
			if !timer.Stop() {
				<-timer.C
			}
			return false
		}
	}
	// Seeded catch-up jitter: desynchronize a herd of (re)starting
	// followers before the first pull.
	jitterMax := o.CatchupJitter
	if jitterMax == 0 {
		jitterMax = DefaultCatchupJitter
	}
	if jitterMax > 0 {
		if !pause(time.Duration(rng.Int63n(int64(jitterMax)))) {
			return
		}
	}
	interval := o.Interval
	if interval <= 0 {
		interval = DefaultPullInterval
	}
	client := edge.DialResilient(leaderAddr, edge.ResilientOptions{
		Retry:            edge.RetryPolicy{MaxAttempts: 3, Base: 10 * time.Millisecond, Max: 200 * time.Millisecond, Multiplier: 2, Jitter: 0.2},
		Breaker:          edge.BreakerConfig{Threshold: 6, Cooldown: 250 * time.Millisecond},
		DialTimeout:      time.Second,
		RoundTripTimeout: 2 * time.Second,
		Seed:             o.Seed + 1,
		Logger:           telemetry.Discard(),
	})
	defer client.Close()
	for {
		select {
		case <-stop:
			return
		default:
		}
		pullStart := time.Now()
		batch, err := client.PullLog(o.FollowerID, srv.Store().Version(), 0)
		if err != nil {
			// Transport retries are exhausted or the leader refused (e.g. it
			// was demoted); pause and try again — the coordinator will
			// repoint us if the topology changed. Failed pulls are
			// retro-recorded (idle successful polls are not — at the pull
			// cadence they would flood the flight recorder).
			trace.Default.Record("repl-pull", pullStart, time.Since(pullStart), err,
				trace.Str("node", srv.NodeName()), trace.Str("leader", leaderAddr))
			pause(interval)
			continue
		}
		if len(batch.Frames) > 0 {
			// A pull that actually shipped frames is worth a trace; only
			// after the fact do we know it was not an idle poll.
			trace.Default.Record("repl-pull", pullStart, time.Since(pullStart), nil,
				trace.Str("node", srv.NodeName()), trace.Str("leader", leaderAddr),
				trace.Int("frames", int64(len(batch.Frames))), trace.Int("up-to", int64(batch.UpTo)))
		}
		v, err := srv.ApplyReplicated(batch.Frames, batch.Verdicts)
		if err != nil {
			logger.Error("cluster: applying replicated frames failed", "err", err)
			pause(interval)
			continue
		}
		lag := uint64(0)
		if batch.UpTo > v {
			lag = batch.UpTo - v
		}
		if o.OnLag != nil {
			o.OnLag(lag)
		}
		if len(batch.Frames) > 0 || lag > 0 {
			// Still behind (or just applied a batch whose ack the next pull
			// must deliver): pull again immediately.
			continue
		}
		if !pause(interval) {
			return
		}
	}
}

// Close stops the pull loop and the server. The store is synced and
// closed by the server.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	if n.pullStop != nil {
		close(n.pullStop)
		n.pullStop = nil
	}
	n.mu.Unlock()
	n.pullWg.Wait()
	if n.scrubber != nil {
		n.scrubber.Close()
	}
	if n.healthStop != nil {
		n.healthStop()
	}
	return n.srv.Close()
}
