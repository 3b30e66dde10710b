package sim

import (
	"bytes"
	"encoding/gob"
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
)

// DiskChaosConfig sizes the disk-fault chaos scenario: one shard,
// Replicas replicas, with two concurrent gray failures injected
// mid-run — bit rot on one follower's disk (a FaultFS corrupting
// acknowledged writes behind the store's back) and a slow-but-alive
// leader. The run exercises all three defenses at once: the rotted
// node's background scrubber quarantines and re-pulls the damaged
// range from its leader, the coordinator's latency EWMA demotes the
// slow leader without killing it, and the client's hedged reads keep
// the read path fast while the demoted node still answers slowly.
type DiskChaosConfig struct {
	// Replicas is the replica count of the single shard (default 3;
	// chaos needs ≥ 3 so a rotted follower and a demoted leader still
	// leave a healthy replica).
	Replicas int
	// Rounds of TasksPerRound uploads, each ending in a merged-prior
	// fetch (defaults 12 × 4 — keeps the log under the snapshot
	// threshold so byte-identity is checked against the full log).
	Rounds        int
	TasksPerRound int
	// Dim is the task posterior dimension (default 4).
	Dim int
	// Alpha is the DP concentration (default 1).
	Alpha float64
	// Dir is the base store directory. Required: byte-identity of the
	// repaired log is checked on disk.
	Dir string
	// Chaos injects the faults; false is the control run.
	Chaos bool
	// ChaosRound is the round before which both faults land
	// (default Rounds/2).
	ChaosRound int
	// SlowLeader is the serve delay injected on the leader — alive, but
	// slow (default 300ms; must stay under the coordinator's 500ms probe
	// timeout or ordinary failover wins the race, and far above
	// GrayLatency so only the injected fault trips the policy).
	SlowLeader time.Duration
	// GrayLatency/GrayAfter arm the coordinator's demotion policy
	// (defaults 150ms / 5). The threshold is deliberately generous: the
	// whole cluster shares one process (and often one core, under the
	// race detector), so a healthy-but-loaded replica's probe RTT is
	// scheduler noise well above anything a production deployment sees.
	GrayLatency time.Duration
	GrayAfter   int
	// HedgeDelay is the client's fixed hedge delay (default 20ms).
	HedgeDelay time.Duration
	// ScrubEvery is every node's scrub cadence (default 50ms).
	ScrubEvery time.Duration
	// Seed drives the workload, cluster jitter, and the fault plan.
	Seed   int64
	Logger *slog.Logger
}

func (c DiskChaosConfig) withDefaults() DiskChaosConfig {
	if c.Replicas <= 0 {
		c.Replicas = 3
	}
	if c.Rounds <= 0 {
		c.Rounds = 12
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
	if c.ChaosRound <= 0 {
		c.ChaosRound = c.Rounds / 2
	}
	if c.SlowLeader <= 0 {
		c.SlowLeader = 300 * time.Millisecond
	}
	if c.GrayLatency <= 0 {
		c.GrayLatency = 150 * time.Millisecond
	}
	if c.GrayAfter <= 0 {
		c.GrayAfter = 5
	}
	if c.HedgeDelay <= 0 {
		c.HedgeDelay = 20 * time.Millisecond
	}
	if c.ScrubEvery <= 0 {
		c.ScrubEvery = 50 * time.Millisecond
	}
	return c
}

// DiskChaosResult reports one disk-chaos scenario run.
type DiskChaosResult struct {
	Replicas int
	Rounds   int
	Tasks    int
	Elapsed  time.Duration

	// ReadP99/ReadMax summarize the per-round merged-prior fetch
	// latencies — the numbers hedging is supposed to protect.
	ReadP99 time.Duration
	ReadMax time.Duration
	// RoundP99/RoundMax cover the whole round (upload + read), excluding
	// the injection itself — the acceptance bound is round p99 within 2×
	// of the fault-free run.
	RoundP99 time.Duration
	RoundMax time.Duration

	Rot          string        // rotted node name ("" = control run)
	RotFlips     int           // bytes the FaultFS corrupted on its disk
	Demoted      string        // demoted gray leader ("" = control run)
	DemotionTime time.Duration // slow-down → new leader in the map
	Repaired     bool          // rotted log ended byte-identical to the leader's
	RepairTime   time.Duration // end of rounds → byte-identity observed

	// Counter deltas over the run (satellite telemetry: the chaos run
	// must show them moving, the control run must not).
	ScrubRepairedFrames float64
	FaultsInjected      float64
	Demotions           float64
	HedgeFired          float64
	HedgeWon            float64
	HedgeCancelled      float64

	FinalVersion     uint64
	MergedComponents int
	PriorBytes       []byte // gob of the final merged prior (byte-identity vs control)
}

// rotReplica is the replica index carrying the FaultFS. Not replica 1:
// on a version tie the demotion promotes the lowest-index follower, and
// the promoted node scrubs detect-only — rotting it would leave nobody
// to repair from. Rotting the highest-index replica keeps the promotion
// target (replica 1) clean.
func rotReplica(replicas int) int { return replicas - 1 }

// RunDiskChaos executes one disk-fault chaos scenario. Chaos and
// control runs over the same seed must converge to byte-identical
// PriorBytes, and the chaos run's rotted log must end byte-identical to
// its leader's — repaired over the wire, not rebuilt locally.
func RunDiskChaos(cfg DiskChaosConfig) (*DiskChaosResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, errors.New("sim: disk chaos needs a store directory (byte-identity is checked on disk)")
	}
	if cfg.Chaos && cfg.Replicas < 3 {
		return nil, errors.New("sim: disk chaos needs at least 3 replicas")
	}
	logger := telemetry.OrDefault(cfg.Logger)

	base := struct{ scrub, faults, demote, fired, won, cancelled float64 }{
		scrub:     telemetry.StoreScrubRepaired.Value(),
		faults:    telemetry.StoreFaultInjected("bit-flip").Value(),
		demote:    telemetry.ClusterDemotions.Value(),
		fired:     telemetry.ClusterHedgeFired.Value(),
		won:       telemetry.ClusterHedgeWon.Value(),
		cancelled: telemetry.ClusterHedgeCancelled.Value(),
	}

	// The rotted replica's disk: a seeded FaultFS flipping a byte of
	// every acknowledged write while armed. Disarmed until the chaos
	// round — setup replicates clean.
	rot := rotReplica(cfg.Replicas)
	faultFS := store.NewFaultFS(nil, store.FaultPlan{Seed: cfg.Seed + 9, BitFlipRate: 1})
	faultFS.Disarm()

	ccfg := cluster.Config{
		Shards:        1,
		Replicas:      cfg.Replicas,
		Dir:           cfg.Dir,
		Build:         dpprior.BuildOptions{Alpha: cfg.Alpha, Seed: cfg.Seed + 1},
		SyncReplicas:  1,
		AckTimeout:    500 * time.Millisecond,
		PullInterval:  10 * time.Millisecond,
		ProbeInterval: 25 * time.Millisecond,
		FailThreshold: 3,
		GrayLatency:   cfg.GrayLatency,
		GrayAfter:     cfg.GrayAfter,
		ScrubEvery:    cfg.ScrubEvery,
		Seed:          cfg.Seed,
		Logger:        cfg.Logger,
	}
	if cfg.Chaos {
		ccfg.NodeFS = func(shard, replica int) store.FS {
			if replica == rot {
				return faultFS
			}
			return nil
		}
	}
	cl, err := cluster.Start(ccfg)
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	// Deterministic workload: control and chaos runs feed identical bytes.
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
	// Hedging is armed in BOTH runs — the control run shows it stays
	// quiet on a healthy cluster (HedgeFired ≈ 0), the chaos run shows
	// it covering the slow demoted replica.
	sc.SetHedge(cfg.HedgeDelay)

	out := &DiskChaosResult{Replicas: cfg.Replicas, Rounds: cfg.Rounds}
	reads := make([]time.Duration, 0, cfg.Rounds)
	rounds := make([]time.Duration, 0, cfg.Rounds)
	start := time.Now()
	for round := 0; round < cfg.Rounds; round++ {
		if cfg.Chaos && round == cfg.ChaosRound {
			// Fault 1: the rotted replica's disk starts flipping bytes.
			faultFS.Arm()
			out.Rot = cl.Node(0, rot).Name()
			// Fault 2: the leader turns gray — alive, slow on every request.
			slow := cl.LeaderOf(0)
			oldAddr := slow.Addr()
			slow.Server().SetServeDelay(cfg.SlowLeader)
			slowedAt := time.Now()
			logger.Info("sim: disk chaos injected",
				"rot", out.Rot, "slow-leader", slow.Name(), "round", round)
			if !cl.WaitFailover(0, oldAddr, 15*time.Second) {
				return nil, errors.New("sim: gray leader was never demoted")
			}
			out.Demoted = slow.Name()
			out.DemotionTime = time.Since(slowedAt)
			if !slow.Server().IsFollower() {
				return nil, errors.New("sim: demoted leader is not a follower")
			}
			// A production client polls the shard map on a timer; here the
			// conditional poll stands in for it, so the rounds below
			// measure hedged-read protection against the slow replica, not
			// the one-time stale-map redirect.
			if _, err := sc.Map(); err != nil {
				return nil, fmt.Errorf("sim: refreshing shard map: %w", err)
			}
		}
		roundStart := time.Now()
		batch := tasks[round*cfg.TasksPerRound : (round+1)*cfg.TasksPerRound]
		n, err := sc.BatchReportTasks(batch)
		if err != nil {
			return nil, fmt.Errorf("sim: round %d batch upload: %w", round, err)
		}
		out.Tasks += n
		readStart := time.Now()
		if _, err := sc.FetchMergedPrior(cfg.Dim); err != nil && !errors.Is(err, edge.ErrNoPrior) {
			return nil, fmt.Errorf("sim: round %d merged fetch: %w", round, err)
		}
		reads = append(reads, time.Since(readStart))
		rounds = append(rounds, time.Since(roundStart))
		logger.Debug("sim: round done", "round", round,
			"took", rounds[len(rounds)-1], "read", reads[len(reads)-1])
		if cfg.Chaos && round == cfg.ChaosRound {
			// Real bit rot is an event, not a permanent property of the
			// medium: the armed window covers one round of replicated
			// writes, then the scrubber's repairs are allowed to stick.
			// Leaving the FaultFS armed would re-flip every repair splice,
			// saturating the rotted store's lock with scrub passes and
			// degrading the whole shard — a different (and less
			// interesting) failure than the one under test.
			faultFS.Disarm()
		}
	}
	faultFS.Disarm()
	out.RotFlips = faultFS.Injected("bit-flip")
	out.Elapsed = time.Since(start)

	sort.Slice(reads, func(i, j int) bool { return reads[i] < reads[j] })
	out.ReadMax = reads[len(reads)-1]
	out.ReadP99 = reads[(len(reads)*99+99)/100-1]
	sort.Slice(rounds, func(i, j int) bool { return rounds[i] < rounds[j] })
	out.RoundMax = rounds[len(rounds)-1]
	out.RoundP99 = rounds[(len(rounds)*99+99)/100-1]

	if !cl.Quiesce(15 * time.Second) {
		return nil, errors.New("sim: cluster did not quiesce")
	}

	// Byte-identity of the repaired log: the rotted replica's tasks.log
	// must converge to exactly its leader's bytes — verbatim frames
	// re-pulled over the wire, spliced at the quarantine boundary.
	leaderIdx := -1
	leaderAddr := cl.Coordinator().Map().Shards[0].Leader
	for r := 0; r < cfg.Replicas; r++ {
		if n := cl.Node(0, r); n != nil && n.Addr() == leaderAddr {
			leaderIdx = r
		}
	}
	if leaderIdx < 0 {
		return nil, errors.New("sim: no live leader after the run")
	}
	leaderLog := filepath.Join(cfg.Dir, "s0", fmt.Sprintf("r%d", leaderIdx), "tasks.log")
	rotLog := filepath.Join(cfg.Dir, "s0", fmt.Sprintf("r%d", rot), "tasks.log")
	want, err := os.ReadFile(leaderLog)
	if err != nil {
		return nil, fmt.Errorf("sim: reading leader log: %w", err)
	}
	repairStart := time.Now()
	deadline := repairStart.Add(15 * time.Second)
	for {
		got, err := os.ReadFile(rotLog)
		if err == nil && bytes.Equal(got, want) {
			out.Repaired = true
			out.RepairTime = time.Since(repairStart)
			break
		}
		if time.Now().After(deadline) {
			if cfg.Chaos {
				return nil, fmt.Errorf("sim: rotted log never converged to the leader's bytes (%d vs %d bytes)", len(got), len(want))
			}
			return nil, errors.New("sim: control-run follower log differs from leader")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The read path a rebooted edge sees: fresh client, cold caches.
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
	if err := gob.NewEncoder(&buf).Encode(merged); err != nil {
		return nil, err
	}
	out.PriorBytes = buf.Bytes()
	out.FinalVersion = cl.LeaderOf(0).Server().Store().Version()

	out.ScrubRepairedFrames = telemetry.StoreScrubRepaired.Value() - base.scrub
	out.FaultsInjected = telemetry.StoreFaultInjected("bit-flip").Value() - base.faults
	out.Demotions = telemetry.ClusterDemotions.Value() - base.demote
	out.HedgeFired = telemetry.ClusterHedgeFired.Value() - base.fired
	out.HedgeWon = telemetry.ClusterHedgeWon.Value() - base.won
	out.HedgeCancelled = telemetry.ClusterHedgeCancelled.Value() - base.cancelled
	return out, nil
}
