package sim

import (
	"bytes"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/drdp/drdp/internal/cluster"
	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/edge"
	"github.com/drdp/drdp/internal/mat"
	"github.com/drdp/drdp/internal/store"
	"github.com/drdp/drdp/internal/telemetry"
	"github.com/drdp/drdp/internal/trace"
)

// FaultKind is what a scheduled fault does to its shard.
type FaultKind int

// Fault kinds.
const (
	// KillLeader stops the shard's current leader abruptly; the
	// coordinator's missed probes fail it over to a follower.
	KillLeader FaultKind = iota
	// SlowLeader turns the shard's leader gray: alive, but slowLeaderDelay
	// late on every request, until the coordinator's latency policy
	// demotes it to a follower.
	SlowLeader
	// RotFollower flips a byte of every write the shard's last replica
	// makes during the fault's round. Its scrubber must repair the log
	// over the wire, byte-identical to its leader's.
	RotFollower
)

func (k FaultKind) String() string {
	switch k {
	case KillLeader:
		return "kill-leader"
	case SlowLeader:
		return "slow-leader"
	case RotFollower:
		return "rot-follower"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// Fault is one schedule entry: Kind hits Shard before round Round.
type Fault struct {
	Round int
	Shard int
	Kind  FaultKind
}

// The shard tier's fixed setup. Every schedule runs on one cadence:
// pulls every 10ms, probes every 25ms, failover after 3 missed probes,
// and demotion once a leader's probe-latency EWMA stays above
// grayLatency for grayAfter probes. The gray threshold is deliberately
// generous: the whole cluster shares one process (and often one core,
// under the race detector), so a healthy-but-loaded replica's probe RTT
// is scheduler noise well above anything a production deployment sees.
const (
	pullInterval  = 10 * time.Millisecond
	probeInterval = 25 * time.Millisecond
	failThreshold = 3
	grayLatency   = 150 * time.Millisecond
	grayAfter     = 5
	scrubEvery    = 50 * time.Millisecond
	// slowLeaderDelay is the serve delay a SlowLeader fault injects:
	// under the coordinator's 500ms probe timeout, or ordinary failover
	// wins the race, and far above grayLatency, so only the injected
	// fault trips the policy.
	slowLeaderDelay = 300 * time.Millisecond
	// faultTimeout bounds every wait for the tier to absorb a fault.
	faultTimeout = 15 * time.Second
)

// ClusterConfig sizes a replicated-shard-tier scenario. Unlike the
// discrete-event simulator in this package, the cluster scenario runs
// the REAL tier — cluster.Start launches every node in-process with
// real listeners, real log streaming, and a real coordinator — and the
// faults hit actual nodes mid-run. Only the workload is synthetic.
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
	// Faults is the fault schedule (nil = the control run). Faults of
	// one round land in schedule order before the round's uploads.
	Faults []Fault
	// Dir is the base store directory ("" = memory-only). A Dir run ends
	// by checking every live follower's log byte-identical to its
	// leader's; a RotFollower fault needs one.
	Dir string
	// HedgeDelay arms the client's hedged reads (0 = off).
	HedgeDelay time.Duration
	// Audit enables round-audit tracing: head sampling on trace.Default
	// is forced to 1 for the run (restored after), every round's uploads
	// and merged fetch run under one "cluster-round" root span, and the
	// flight-recorder snapshot is captured into the result — including
	// the coordinator's pinned "failover" trace when a kill is injected.
	Audit bool
	// Seed drives the synthetic workload, all cluster jitter and the
	// bit-rot plan.
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
	return c
}

// validate refuses a schedule the tier could not carry out, so no fault
// is silently dropped or left to hang the run.
func (c ClusterConfig) validate() error {
	for _, f := range c.Faults {
		switch {
		case f.Round < 0 || f.Round >= c.Rounds:
			return fmt.Errorf("sim: %v fault at round %d outside [0, %d)", f.Kind, f.Round, c.Rounds)
		case f.Shard < 0 || f.Shard >= c.Shards:
			return fmt.Errorf("sim: %v fault on shard %d out of range (%d shards)", f.Kind, f.Shard, c.Shards)
		case f.Kind == KillLeader || f.Kind == SlowLeader:
			if c.Replicas < 2 {
				return fmt.Errorf("sim: %v needs a follower to promote (%d replica)", f.Kind, c.Replicas)
			}
		case f.Kind == RotFollower:
			// ≥ 3 replicas, so a rotted follower and a demoted leader
			// still leave a healthy replica; a Dir, because the repair is
			// checked on disk.
			if c.Replicas < 3 || c.Dir == "" {
				return fmt.Errorf("sim: %v needs at least 3 replicas and a store directory", f.Kind)
			}
		default:
			return fmt.Errorf("sim: unknown fault kind %v", f.Kind)
		}
	}
	return nil
}

// FaultOutcome reports one injected fault.
type FaultOutcome struct {
	Fault
	Node string // the node the fault hit
	// FailoverTime is fault → new leader in the shard map (kills and
	// slow leaders).
	FailoverTime time.Duration
	// RecoveryTime is kill → merged prior served again on the read path.
	RecoveryTime time.Duration
}

// ClusterResult reports one cluster scenario run.
type ClusterResult struct {
	Shards   int
	Replicas int
	Tasks    int // uploads delivered (all of them — acked uploads survive every fault)
	Rounds   int

	Elapsed      time.Duration
	RoundsPerSec float64
	// ReadP99 is the p99 of the per-round merged-prior fetches, the
	// latency hedging protects; RoundP99 covers the whole round (upload
	// and read), the injections excluded.
	ReadP99  time.Duration
	RoundP99 time.Duration

	// Faults holds one outcome per schedule entry, in firing order.
	Faults []FaultOutcome
	// RotFlips counts the bytes the RotFollower faults corrupted.
	RotFlips int
	// LogsIdentical reports that every live follower's log ended
	// byte-identical to its leader's (Dir runs only).
	LogsIdentical bool

	// Counter deltas over the run: a faulted run must show them moving,
	// the control run must not.
	ScrubRepairedFrames float64
	FaultsInjected      float64
	Promotions          float64
	Demotions           float64
	HedgeFired          float64
	HedgeWon            float64

	MapVersion       uint64   // final shard-map version (bumps count promotions and demotions)
	FinalVersions    []uint64 // per-shard leader store versions at the end
	MergedComponents int
	PriorBytes       []byte // Prior.Encode of the final merged prior (byte-identity checks)

	// Traces is the flight-recorder snapshot at the end of an Audit run
	// (nil otherwise).
	Traces *trace.Snapshot
}

// rotReplica is the replica index carrying a rotted shard's FaultFS.
// Not replica 1: on a version tie a demotion promotes the lowest-index
// follower, and the promoted node scrubs detect-only — rotting it would
// leave nobody to repair from.
func rotReplica(replicas int) int { return replicas - 1 }

// RunCluster executes one replicated-shard-tier scenario: feed Rounds
// rounds of deterministic task posteriors through a sharded client,
// inject the scheduled faults, quiesce, and fetch the merged prior with
// a FRESH client (cold map, cold caches — a rebooted edge). Two runs
// with the same config and seed, one with faults and one without, must
// return byte-identical PriorBytes: that is the tier's recovery
// acceptance criterion.
func RunCluster(cfg ClusterConfig) (*ClusterResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	logger := telemetry.OrDefault(cfg.Logger)
	if cfg.Audit {
		prevRate := trace.Default.SampleRate()
		trace.Default.SetSampleRate(1)
		defer trace.Default.SetSampleRate(prevRate)
	}
	base := struct{ scrub, faults, promote, demote, fired, won float64 }{
		scrub:   telemetry.StoreScrubRepaired.Value(),
		faults:  telemetry.StoreFaultInjected("bit-flip").Value(),
		promote: telemetry.ClusterPromotions.Value(),
		demote:  telemetry.ClusterDemotions.Value(),
		fired:   telemetry.ClusterHedgeFired.Value(),
		won:     telemetry.ClusterHedgeWon.Value(),
	}

	// A rotted shard's disk: a seeded FaultFS flipping a byte of every
	// acknowledged write while armed. Disarmed until its fault's round,
	// so setup replicates clean.
	rotFS := make(map[int]*store.FaultFS)
	for _, f := range cfg.Faults {
		if f.Kind == RotFollower && rotFS[f.Shard] == nil {
			fs := store.NewFaultFS(nil, store.FaultPlan{Seed: cfg.Seed + 9 + int64(f.Shard), BitFlipRate: 1})
			fs.Disarm()
			rotFS[f.Shard] = fs
		}
	}
	ccfg := cluster.Config{
		Shards:        cfg.Shards,
		Replicas:      cfg.Replicas,
		Dir:           cfg.Dir,
		Build:         dpprior.BuildOptions{Alpha: alpha, Seed: cfg.Seed + 1},
		AckTimeout:    500 * time.Millisecond,
		PullInterval:  pullInterval,
		ProbeInterval: probeInterval,
		FailThreshold: failThreshold,
		GrayLatency:   grayLatency,
		GrayAfter:     grayAfter,
		ScrubEvery:    scrubEvery,
		Seed:          cfg.Seed,
		Logger:        cfg.Logger,
	}
	if cfg.Replicas > 1 {
		ccfg.SyncReplicas = 1
	}
	if len(rotFS) > 0 {
		ccfg.NodeFS = func(shard, replica int) store.FS {
			if fs := rotFS[shard]; fs != nil && replica == rotReplica(cfg.Replicas) {
				return fs
			}
			return nil
		}
	}
	cl, err := cluster.Start(ccfg)
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	// The workload is deterministic in the seed, so control and faulted
	// runs feed identical bytes.
	tasks := syntheticTasks(cfg.Seed+2, cfg.Rounds*cfg.TasksPerRound, cfg.Dim)
	sc := cluster.DialSharded(cl.CoordinatorAddr(), edge.ResilientOptions{
		Seed: cfg.Seed + 3, Logger: telemetry.Discard(),
	})
	defer sc.Close()
	sc.SetHedge(cfg.HedgeDelay)

	out := &ClusterResult{Shards: cfg.Shards, Replicas: cfg.Replicas, Rounds: cfg.Rounds}
	reads := make([]time.Duration, 0, cfg.Rounds)
	rounds := make([]time.Duration, 0, cfg.Rounds)
	start := time.Now()
	for round := 0; round < cfg.Rounds; round++ {
		var rotting []*store.FaultFS
		for _, f := range cfg.Faults {
			if f.Round != round {
				continue
			}
			o, err := inject(cl, sc, cfg, f, rotFS[f.Shard])
			if err != nil {
				return nil, err
			}
			logger.Info("sim: fault injected", "kind", f.Kind, "shard", f.Shard, "node", o.Node, "round", round)
			out.Faults = append(out.Faults, o)
			if f.Kind == RotFollower {
				rotting = append(rotting, rotFS[f.Shard])
			}
		}
		// In an Audit run, the whole round — every upload and the merged
		// fetch — hangs off one root span, so /tracez shows per-round trees.
		roundStart := time.Now()
		rspan := trace.Default.StartTrace("cluster-round", trace.Int("round", int64(round)))
		sc.SetTraceParent(rspan)
		read, roundErr := func() (time.Duration, error) {
			// One batched upload per round: the sharded client groups the
			// tasks by shard (preserving order, so the leaders' append order
			// — and hence PriorBytes — matches the sequential path) and
			// ships each group as a single BatchAddTask frame.
			n, err := sc.BatchReportTasks(tasks[round*cfg.TasksPerRound : (round+1)*cfg.TasksPerRound])
			if err != nil {
				return 0, fmt.Errorf("sim: round %d batch upload: %w", round, err)
			}
			out.Tasks += n
			// The round's read: every edge refreshes its merged prior.
			readStart := time.Now()
			if _, err := sc.FetchMergedPrior(cfg.Dim); err != nil && !errors.Is(err, edge.ErrNoPrior) {
				return 0, fmt.Errorf("sim: round %d merged fetch: %w", round, err)
			}
			return time.Since(readStart), nil
		}()
		sc.SetTraceParent(nil)
		rspan.EndErr(roundErr)
		if roundErr != nil {
			return nil, roundErr
		}
		reads = append(reads, read)
		rounds = append(rounds, time.Since(roundStart))
		logger.Debug("sim: round done", "round", round, "took", rounds[round], "read", read)
		if len(rotting) > 0 {
			// Real bit rot is an event, not a permanent property of the
			// medium: the armed window covers one round of replicated
			// writes, then the scrubber's repairs are allowed to stick.
			// Leaving the FaultFS armed would re-flip every repair splice,
			// saturating the rotted store's lock with scrub passes and
			// degrading the whole shard — a different (and less
			// interesting) failure than the one under test. The window
			// closes only once every replica, the rotted one included, has
			// written the round: when a follower pulls is scheduling, and a
			// window that closed first would rot nothing.
			if !cl.WaitReplicated(faultTimeout) {
				return nil, fmt.Errorf("sim: round %d never reached every replica", round)
			}
			for _, fs := range rotting {
				fs.Disarm()
			}
		}
	}
	out.Elapsed = time.Since(start)
	out.RoundsPerSec = float64(cfg.Rounds) / out.Elapsed.Seconds()
	out.ReadP99 = p99(reads)
	out.RoundP99 = p99(rounds)
	for _, fs := range rotFS {
		out.RotFlips += fs.Injected("bit-flip")
	}

	if !cl.Quiesce(faultTimeout) {
		return nil, errors.New("sim: cluster did not quiesce")
	}
	if cfg.Dir != "" {
		if err := waitLogsIdentical(cl, cfg); err != nil {
			return nil, err
		}
		out.LogsIdentical = true
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
	for s := 0; s < cfg.Shards; s++ {
		var v uint64
		if n := cl.LeaderOf(s); n != nil {
			v = n.Server().Store().Version()
		}
		out.FinalVersions = append(out.FinalVersions, v)
	}
	if cfg.Audit {
		snap := trace.Default.Snapshot()
		out.Traces = &snap
	}
	out.ScrubRepairedFrames = telemetry.StoreScrubRepaired.Value() - base.scrub
	out.FaultsInjected = telemetry.StoreFaultInjected("bit-flip").Value() - base.faults
	out.Promotions = telemetry.ClusterPromotions.Value() - base.promote
	out.Demotions = telemetry.ClusterDemotions.Value() - base.demote
	out.HedgeFired = telemetry.ClusterHedgeFired.Value() - base.fired
	out.HedgeWon = telemetry.ClusterHedgeWon.Value() - base.won
	return out, nil
}

// inject lands one fault. A kill or a slow leader is then waited out
// until the shard map names a new leader; rotFS is the shard's FaultFS
// (nil unless the shard has a RotFollower fault).
func inject(cl *cluster.Cluster, sc *cluster.ShardedClient, cfg ClusterConfig, f Fault, rotFS *store.FaultFS) (FaultOutcome, error) {
	out := FaultOutcome{Fault: f}
	if f.Kind == RotFollower {
		n := cl.Node(f.Shard, rotReplica(cfg.Replicas))
		if n == nil {
			return out, fmt.Errorf("sim: shard %d replica to rot is gone", f.Shard)
		}
		rotFS.Arm()
		out.Node = n.Name()
		return out, nil
	}
	leader := cl.LeaderOf(f.Shard)
	if leader == nil {
		return out, fmt.Errorf("sim: %v: shard %d has no live leader", f.Kind, f.Shard)
	}
	out.Node = leader.Name()
	oldAddr := leader.Addr()
	injectedAt := time.Now()
	if f.Kind == KillLeader {
		if _, err := cl.KillLeader(f.Shard); err != nil {
			return out, fmt.Errorf("sim: fault injection: %w", err)
		}
	} else {
		leader.Server().SetServeDelay(slowLeaderDelay)
	}
	if !cl.WaitFailover(f.Shard, oldAddr, faultTimeout) {
		return out, fmt.Errorf("sim: %v: shard %d never got a new leader", f.Kind, f.Shard)
	}
	out.FailoverTime = time.Since(injectedAt)

	if f.Kind == SlowLeader {
		if !leader.Server().IsFollower() {
			return out, errors.New("sim: demoted leader is not a follower")
		}
		// A production client polls the shard map on a timer; here the
		// conditional poll stands in for it, so the rounds after measure
		// hedged-read protection against the slow replica, not the
		// one-time stale-map redirect.
		if _, err := sc.Map(); err != nil {
			return out, fmt.Errorf("sim: refreshing shard map: %w", err)
		}
		return out, nil
	}
	// Recovery on the read path: a cold client can assemble the merged
	// prior again (warm shards only — the killed shard may still be cold
	// this early). The round client keeps its stale map, so the next
	// round's uploads trace the redirect.
	probe := cluster.DialSharded(cl.CoordinatorAddr(), edge.ResilientOptions{
		Seed: cfg.Seed + 4, Logger: telemetry.Discard(),
	})
	defer probe.Close()
	for {
		if _, err := probe.FetchMergedPrior(cfg.Dim); err == nil || errors.Is(err, edge.ErrNoPrior) {
			break
		}
		if time.Since(injectedAt) > faultTimeout {
			return out, errors.New("sim: merged prior unreachable after failover")
		}
		time.Sleep(2 * time.Millisecond)
	}
	out.RecoveryTime = time.Since(injectedAt)
	return out, nil
}

// waitLogsIdentical waits until every live follower's tasks.log is
// byte-identical to its leader's. Replication ships verbatim frames, so
// a quiesced tier converges; a rotted log does only once its scrubber
// has re-pulled the damaged range, spliced at the quarantine boundary.
func waitLogsIdentical(cl *cluster.Cluster, cfg ClusterConfig) error {
	logPath := func(shard, replica int) string {
		return filepath.Join(cfg.Dir, fmt.Sprintf("s%d", shard), fmt.Sprintf("r%d", replica), "tasks.log")
	}
	deadline := time.Now().Add(faultTimeout)
	for s := 0; s < cfg.Shards; s++ {
		leader := cl.LeaderOf(s)
		if leader == nil {
			return fmt.Errorf("sim: shard %d has no live leader after the run", s)
		}
		var want []byte
		for r := 0; r < cfg.Replicas; r++ {
			if cl.Node(s, r) == leader {
				var err error
				if want, err = os.ReadFile(logPath(s, r)); err != nil {
					return fmt.Errorf("sim: reading leader log: %w", err)
				}
			}
		}
		for r := 0; r < cfg.Replicas; r++ {
			if n := cl.Node(s, r); n == nil || n == leader {
				continue
			}
			for {
				got, err := os.ReadFile(logPath(s, r))
				if err == nil && bytes.Equal(got, want) {
					break
				}
				if time.Now().After(deadline) {
					return fmt.Errorf("sim: shard %d replica %d log never converged to its leader's bytes (%d vs %d bytes)",
						s, r, len(got), len(want))
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
	}
	return nil
}

// p99 is the 99th percentile of ds (sorted in place).
func p99(ds []time.Duration) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[(len(ds)*99+99)/100-1]
}

// syntheticTasks draws n task posteriors from seed: N(0, 1) means,
// 0.1·I covariances, N = 100. Every real-tier scenario draws its
// workload here, so control and faulted runs feed identical bytes.
func syntheticTasks(seed int64, n, dim int) []dpprior.TaskPosterior {
	rng := rand.New(rand.NewSource(seed))
	tasks := make([]dpprior.TaskPosterior, n)
	for i := range tasks {
		mu := make(mat.Vec, dim)
		for j := range mu {
			mu[j] = rng.NormFloat64()
		}
		sigma := mat.Eye(dim)
		sigma.ScaleBy(0.1)
		tasks[i] = dpprior.TaskPosterior{Mu: mu, Sigma: sigma, N: 100}
	}
	return tasks
}
