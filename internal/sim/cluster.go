package sim

import (
	"bytes"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"time"

	"github.com/drdp/drdp/internal/cluster"
	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/edge"
	"github.com/drdp/drdp/internal/mat"
	"github.com/drdp/drdp/internal/telemetry"
	"github.com/drdp/drdp/internal/trace"
)

// ClusterConfig sizes a replicated-shard-tier scenario. Unlike the
// discrete-event simulator in this package, the cluster scenario runs
// the REAL tier — cluster.Start launches every node in-process with
// real listeners, real log streaming, and a real coordinator — and the
// fault injector kills an actual leader mid-round. Only the workload is
// synthetic.
type ClusterConfig struct {
	// Shards × Replicas sizes the tier (defaults 3 × 2).
	Shards   int
	Replicas int
	// Rounds of TasksPerRound uploads each (defaults 6 × 4); every round
	// ends with a merged-prior fetch, the read edges do after training.
	Rounds        int
	TasksPerRound int
	// Dim is the task posterior dimension (default 4).
	Dim int
	// KillShard/KillRound inject the fault: before round KillRound the
	// current leader of KillShard is killed abruptly. KillShard < 0
	// disables injection (the control run).
	KillShard int
	KillRound int
	// Alpha is the DP concentration shared by every shard.
	Alpha float64
	// SyncReplicas gates leader acks on follower durability (default 1
	// when Replicas > 1).
	SyncReplicas int
	// Dir is the base store directory ("" = memory-only).
	Dir string
	// Audit enables round-audit tracing: head sampling on trace.Default
	// is forced to 1 for the run (restored after), every round's uploads
	// and merged fetch run under one "cluster-round" root span, and the
	// flight-recorder snapshot is captured into the result — including
	// the coordinator's pinned "failover" trace when a kill is injected.
	Audit bool
	// Seed drives the synthetic workload and all cluster jitter.
	Seed   int64
	Logger *slog.Logger
}

func (c ClusterConfig) withDefaults() ClusterConfig {
	if c.Shards <= 0 {
		c.Shards = 3
	}
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.Rounds <= 0 {
		c.Rounds = 6
	}
	if c.TasksPerRound <= 0 {
		c.TasksPerRound = 4
	}
	if c.Dim <= 0 {
		c.Dim = 4
	}
	if c.Alpha <= 0 {
		c.Alpha = 1
	}
	if c.SyncReplicas == 0 && c.Replicas > 1 {
		c.SyncReplicas = 1
	}
	return c
}

// ClusterResult reports one cluster scenario run.
type ClusterResult struct {
	Shards   int
	Replicas int
	Tasks    int // uploads delivered (all of them — acked uploads survive the kill)
	Rounds   int

	Elapsed      time.Duration
	RoundsPerSec float64

	Killed       string        // name of the killed leader ("" = control run)
	FailoverTime time.Duration // kill → new leader in the shard map
	RecoveryTime time.Duration // kill → merged prior served again on the read path

	MapVersion       uint64   // final shard-map version (bumps count promotions)
	FinalVersions    []uint64 // per-shard leader store versions at the end
	MergedComponents int
	PriorBytes       []byte // Prior.Encode of the final merged prior (byte-identity checks)

	// Traces is the flight-recorder snapshot at the end of an Audit run
	// (nil otherwise).
	Traces *trace.Snapshot
}

// RunCluster executes one replicated-shard-tier scenario: feed Rounds
// rounds of deterministic task posteriors through a sharded client,
// optionally kill a leader mid-round, quiesce, and fetch the merged
// prior with a FRESH client (cold map, cold caches — a rebooted edge).
// Two runs with the same config and seed, one with the kill and one
// without, must return byte-identical PriorBytes: that is the tier's
// recovery acceptance criterion.
func RunCluster(cfg ClusterConfig) (*ClusterResult, error) {
	cfg = cfg.withDefaults()
	if cfg.KillShard >= cfg.Shards {
		return nil, fmt.Errorf("sim: kill shard %d out of range (%d shards)", cfg.KillShard, cfg.Shards)
	}
	if cfg.KillShard >= 0 && cfg.Replicas < 2 {
		return nil, errors.New("sim: killing a leader needs at least 2 replicas")
	}
	logger := telemetry.OrDefault(cfg.Logger)
	if cfg.Audit {
		prevRate := trace.Default.SampleRate()
		trace.Default.SetSampleRate(1)
		defer trace.Default.SetSampleRate(prevRate)
	}
	cl, err := cluster.Start(cluster.Config{
		Shards:        cfg.Shards,
		Replicas:      cfg.Replicas,
		Dir:           cfg.Dir,
		Build:         dpprior.BuildOptions{Alpha: cfg.Alpha, Seed: cfg.Seed + 1},
		SyncReplicas:  cfg.SyncReplicas,
		AckTimeout:    500 * time.Millisecond,
		PullInterval:  2 * time.Millisecond,
		ProbeInterval: 10 * time.Millisecond,
		FailThreshold: 2,
		Seed:          cfg.Seed,
		Logger:        cfg.Logger,
	})
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	// The workload: Rounds×TasksPerRound posteriors, deterministic in the
	// seed so the control and kill runs feed identical bytes.
	rng := rand.New(rand.NewSource(cfg.Seed + 2))
	total := cfg.Rounds * cfg.TasksPerRound
	tasks := make([]dpprior.TaskPosterior, total)
	for i := range tasks {
		mu := make(mat.Vec, cfg.Dim)
		for j := range mu {
			mu[j] = rng.NormFloat64()
		}
		sigma := mat.Eye(cfg.Dim)
		sigma.ScaleBy(0.1)
		tasks[i] = dpprior.TaskPosterior{Mu: mu, Sigma: sigma, N: 100}
	}

	sc := cluster.DialSharded(cl.CoordinatorAddr(), edge.ResilientOptions{
		Seed: cfg.Seed + 3, Logger: telemetry.Discard(),
	})
	defer sc.Close()

	out := &ClusterResult{Shards: cfg.Shards, Replicas: cfg.Replicas, Rounds: cfg.Rounds}
	start := time.Now()
	for round := 0; round < cfg.Rounds; round++ {
		if cfg.KillShard >= 0 && round == cfg.KillRound {
			old := cl.Coordinator().Map().Shards[cfg.KillShard].Leader
			killedAt := time.Now()
			name, err := cl.KillLeader(cfg.KillShard)
			if err != nil {
				return nil, fmt.Errorf("sim: fault injection: %w", err)
			}
			out.Killed = name
			logger.Info("sim: killed shard leader mid-round", "shard", cfg.KillShard, "node", name, "round", round)
			if !cl.WaitFailover(cfg.KillShard, old, 10*time.Second) {
				return nil, fmt.Errorf("sim: shard %d never failed over", cfg.KillShard)
			}
			out.FailoverTime = time.Since(killedAt)
			// Recovery on the read path: a cold client can assemble the
			// merged prior again (warm shards only — the killed shard may
			// still be cold this early).
			probe := cluster.DialSharded(cl.CoordinatorAddr(), edge.ResilientOptions{
				Seed: cfg.Seed + 4, Logger: telemetry.Discard(),
			})
			for {
				if _, err := probe.FetchMergedPrior(cfg.Dim); err == nil || errors.Is(err, edge.ErrNoPrior) {
					break
				}
				if time.Since(killedAt) > 10*time.Second {
					probe.Close()
					return nil, errors.New("sim: merged prior unreachable after failover")
				}
				time.Sleep(2 * time.Millisecond)
			}
			probe.Close()
			out.RecoveryTime = time.Since(killedAt)
		}
		// In an Audit run, the whole round — every upload and the merged
		// fetch — hangs off one root span, so /tracez shows per-round trees.
		rspan := trace.Default.StartTrace("cluster-round", trace.Int("round", int64(round)))
		sc.SetTraceParent(rspan)
		roundErr := func() error {
			// One batched upload per round: the sharded client groups the
			// tasks by shard (preserving order, so the leaders' append order
			// — and hence PriorBytes — matches the sequential path) and
			// ships each group as a single BatchAddTask frame.
			batch := tasks[round*cfg.TasksPerRound : (round+1)*cfg.TasksPerRound]
			n, err := sc.BatchReportTasks(batch)
			if err != nil {
				return fmt.Errorf("sim: round %d batch upload: %w", round, err)
			}
			out.Tasks += n
			// The round's read: every edge refreshes its merged prior.
			if _, err := sc.FetchMergedPrior(cfg.Dim); err != nil && !errors.Is(err, edge.ErrNoPrior) {
				return fmt.Errorf("sim: round %d merged fetch: %w", round, err)
			}
			return nil
		}()
		sc.SetTraceParent(nil)
		rspan.EndErr(roundErr)
		if roundErr != nil {
			return nil, roundErr
		}
	}
	out.Elapsed = time.Since(start)
	if s := out.Elapsed.Seconds(); s > 0 {
		out.RoundsPerSec = float64(cfg.Rounds) / s
	}

	if !cl.Quiesce(15 * time.Second) {
		return nil, errors.New("sim: cluster did not quiesce")
	}
	fresh := cluster.DialSharded(cl.CoordinatorAddr(), edge.ResilientOptions{
		Seed: cfg.Seed + 5, Logger: telemetry.Discard(),
	})
	defer fresh.Close()
	merged, err := fresh.FetchMergedPrior(cfg.Dim)
	if err != nil {
		return nil, fmt.Errorf("sim: final merged prior: %w", err)
	}
	if err := merged.Validate(); err != nil {
		return nil, fmt.Errorf("sim: final merged prior invalid: %w", err)
	}
	out.MergedComponents = len(merged.Components)
	var buf bytes.Buffer
	if err := merged.Encode(&buf); err != nil {
		return nil, err
	}
	out.PriorBytes = buf.Bytes()
	out.MapVersion = cl.Coordinator().Map().Version
	if cfg.Audit {
		snap := trace.Default.Snapshot()
		out.Traces = &snap
	}
	for s := 0; s < cfg.Shards; s++ {
		if n := cl.LeaderOf(s); n != nil {
			out.FinalVersions = append(out.FinalVersions, n.Server().Store().Version())
		} else {
			out.FinalVersions = append(out.FinalVersions, 0)
		}
	}
	return out, nil
}
