package cluster

import (
	"fmt"
	"log/slog"
	"path/filepath"
	"time"

	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/store"
)

// Config sizes a local cluster (the sim/test harness: every node in
// this process, each on its own loopback listener and store).
type Config struct {
	// Shards is the number of shards (≥ 1).
	Shards int
	// Replicas is the replica count per shard including the leader (≥ 1).
	Replicas int
	// Dir is the base directory for node stores ("" = memory-only).
	// Node s's replica r stores under Dir/s<shard>/r<replica>.
	Dir string
	// Build seeds every node's prior builder (shared — required for
	// byte-identical replica priors).
	Build dpprior.BuildOptions
	// SyncReplicas makes leader appends semi-synchronous (0 = async).
	SyncReplicas int
	// AckTimeout bounds the semi-sync wait (0 = edge.DefaultAckTimeout).
	AckTimeout time.Duration
	// PullInterval / ProbeInterval / FailThreshold tune replication and
	// failover cadence (0 = package defaults).
	PullInterval  time.Duration
	ProbeInterval time.Duration
	FailThreshold int
	// GrayLatency arms gray-failure detection: a leader whose probe
	// latency EWMA stays above it for GrayAfter consecutive probes is
	// demoted, not failed over (0 = disabled). Keep it well under the
	// probe timeout or ordinary failover fires first.
	GrayLatency time.Duration
	GrayAfter   int
	// ScrubEvery runs each node's background integrity scrub at that
	// cadence (0 = no scrubbing). Followers repair from their leader.
	ScrubEvery time.Duration
	// NodeFS, when set, supplies the filesystem backing each node's
	// store — the disk-fault chaos hook (nil result = real filesystem).
	NodeFS func(shard, replica int) store.FS
	// Seed drives every node's jitter deterministically.
	Seed   int64
	Logger *slog.Logger
}

// Cluster is a running shard tier: nodes plus coordinator.
type Cluster struct {
	cfg   Config
	coord *Coordinator // sole owner of the replica table
}

// Start launches Shards×Replicas nodes and the coordinator.
func Start(cfg Config) (*Cluster, error) {
	if cfg.Shards < 1 || cfg.Replicas < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 shard and 1 replica, got %d×%d", cfg.Shards, cfg.Replicas)
	}
	var nodes [][]*Node
	fail := func(err error) (*Cluster, error) {
		closeNodes(nodes)
		return nil, err
	}
	for s := 0; s < cfg.Shards; s++ {
		var reps []*Node
		for r := 0; r < cfg.Replicas; r++ {
			ncfg := NodeConfig{
				Shard:        s,
				Replica:      r,
				Build:        cfg.Build,
				SyncReplicas: cfg.SyncReplicas,
				AckTimeout:   cfg.AckTimeout,
				PullInterval: cfg.PullInterval,
				ScrubEvery:   cfg.ScrubEvery,
				Seed:         cfg.Seed,
				Logger:       cfg.Logger,
			}
			if cfg.NodeFS != nil {
				ncfg.FS = cfg.NodeFS(s, r)
			}
			if cfg.Dir != "" {
				ncfg.Dir = filepath.Join(cfg.Dir, fmt.Sprintf("s%d", s), fmt.Sprintf("r%d", r))
			}
			if r > 0 {
				ncfg.LeaderAddr = reps[0].Addr()
			}
			n, err := StartNode(ncfg)
			if err != nil {
				nodes = append(nodes, reps)
				return fail(err)
			}
			reps = append(reps, n)
		}
		nodes = append(nodes, reps)
	}
	co, err := NewCoordinator(nodes, cfg.ProbeInterval, cfg.FailThreshold, cfg.Logger)
	if err != nil {
		return fail(err)
	}
	if cfg.GrayLatency > 0 {
		co.SetGrayPolicy(cfg.GrayLatency, cfg.GrayAfter)
	}
	return &Cluster{cfg: cfg, coord: co}, nil
}

// CoordinatorAddr is the shard-map endpoint edges dial.
func (c *Cluster) CoordinatorAddr() string { return c.coord.Addr() }

// Coordinator exposes the coordinator (map inspection in tests).
func (c *Cluster) Coordinator() *Coordinator { return c.coord }

// Node returns the node at (shard, replica) as started; nil after it
// was killed.
func (c *Cluster) Node(shard, replica int) *Node { return c.coord.node(shard, replica) }

// LeaderOf resolves the node currently leading a shard (nil if none).
func (c *Cluster) LeaderOf(shard int) *Node { return c.coord.leader(shard) }

// KillLeader abruptly stops a shard's current leader (fault injection:
// the listener closes mid-round, in-flight connections die) and returns
// the killed node's name. The coordinator notices via failed probes and
// promotes a follower.
func (c *Cluster) KillLeader(shard int) (string, error) {
	n := c.LeaderOf(shard)
	if n == nil {
		return "", fmt.Errorf("cluster: shard %d has no live leader", shard)
	}
	c.coord.remove(n)
	return n.Name(), n.Close()
}

// WaitFailover blocks until the shard's leader differs from oldAddr or
// the timeout expires, returning whether failover happened.
func (c *Cluster) WaitFailover(shard int, oldAddr string, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if c.coord.Map().Shards[shard].Leader != oldAddr {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return false
}

// WaitReplicated blocks until every live follower of every shard has
// caught up to its leader's store version (and the leaders' built
// priors cover their stores), or the timeout expires.
func (c *Cluster) WaitReplicated(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if c.replicated() {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return false
}

func (c *Cluster) replicated() bool {
	for s, reps := range c.coord.replicas() {
		leader := c.LeaderOf(s)
		if leader == nil {
			return false
		}
		target := leader.Server().Store().Version()
		for _, n := range reps {
			if n == nil || n == leader {
				continue
			}
			if n.Server().Store().Version() < target {
				return false
			}
		}
	}
	return true
}

// Quiesce waits for full replication and then for every live node's
// served prior to cover its store — after it returns true, every
// replica of a shard serves the same prior bytes.
func (c *Cluster) Quiesce(timeout time.Duration) bool {
	if !c.WaitReplicated(timeout) {
		return false
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, reps := range c.coord.replicas() {
			for _, n := range reps {
				if n != nil {
					n.Server().WaitCaughtUp()
				}
			}
		}
	}()
	select {
	case <-done:
		return true
	case <-time.After(timeout):
		return false
	}
}

// Close stops the coordinator and every live node.
func (c *Cluster) Close() error {
	nodes := c.coord.replicas()
	err := c.coord.Close()
	if cerr := closeNodes(nodes); err == nil {
		err = cerr
	}
	return err
}

// closeNodes closes every non-nil node, returning the first error.
func closeNodes(nodes [][]*Node) error {
	var err error
	for _, reps := range nodes {
		for _, n := range reps {
			if n != nil {
				if cerr := n.Close(); err == nil {
					err = cerr
				}
			}
		}
	}
	return err
}
