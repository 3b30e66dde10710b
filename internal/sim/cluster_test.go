package sim

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"github.com/drdp/drdp/internal/telemetry"
)

// TestRunClusterByteIdenticalVsControl is the tier's acceptance
// scenario end to end: 1 and 3 shards × 2 replicas, the leader of shard
// 0 killed before round 2, and the recovered cluster's merged prior must
// be byte-identical to an unfailed control run over the same workload.
func TestRunClusterByteIdenticalVsControl(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			base := ClusterConfig{
				Shards: shards, Replicas: 2,
				Rounds: 4, TasksPerRound: 4, Dim: 4,
				Seed:   501,
				Logger: telemetry.Discard(),
			}
			control, err := RunCluster(base)
			if err != nil {
				t.Fatalf("control run: %v", err)
			}
			if len(control.Faults) != 0 {
				t.Fatalf("control run reported a kill: %+v", control)
			}
			if control.Tasks != base.Rounds*base.TasksPerRound {
				t.Fatalf("control delivered %d tasks, want %d", control.Tasks, base.Rounds*base.TasksPerRound)
			}
			if control.RoundsPerSec <= 0 {
				t.Fatalf("control RoundsPerSec = %v", control.RoundsPerSec)
			}

			killed := base
			killed.Faults = []Fault{{Round: 2, Shard: 0, Kind: KillLeader}}
			chaos, err := RunCluster(killed)
			if err != nil {
				t.Fatalf("kill run: %v", err)
			}
			if len(chaos.Faults) != 1 || chaos.Faults[0].Node == "" {
				t.Fatal("kill run killed nothing")
			}
			kill := chaos.Faults[0]
			if kill.FailoverTime <= 0 || kill.RecoveryTime < kill.FailoverTime {
				t.Fatalf("implausible failover/recovery times: %v / %v", kill.FailoverTime, kill.RecoveryTime)
			}
			if chaos.MapVersion <= control.MapVersion {
				t.Fatalf("map version %d did not bump past control's %d", chaos.MapVersion, control.MapVersion)
			}
			if chaos.Tasks != control.Tasks {
				t.Fatalf("kill run delivered %d tasks, control %d", chaos.Tasks, control.Tasks)
			}
			if !bytes.Equal(control.PriorBytes, chaos.PriorBytes) {
				t.Fatalf("merged prior after failover differs from control (%d vs %d bytes)",
					len(chaos.PriorBytes), len(control.PriorBytes))
			}
		})
	}
}

// TestRunClusterSingleShard: the tier degenerates cleanly to one shard,
// one replica — no replication, no coordinator failover, still a valid
// merged prior.
func TestRunClusterSingleShard(t *testing.T) {
	res, err := RunCluster(ClusterConfig{
		Shards: 1, Replicas: 1,
		Rounds: 2, TasksPerRound: 3, Dim: 3,
		Seed:   502,
		Logger: telemetry.Discard(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tasks != 6 || res.MergedComponents == 0 {
		t.Fatalf("unexpected result: %+v", res)
	}
	if len(res.FinalVersions) != 1 || res.FinalVersions[0] != 6 {
		t.Fatalf("single shard should hold all 6 tasks: %v", res.FinalVersions)
	}
}

// TestRunClusterRejectsBadFaultConfig: a fault the tier cannot carry
// out — outside the run, on a missing shard, with no follower to
// promote, or a rot with nothing to repair from or check on disk — is a
// configuration error, not a hang and not a silently dropped fault.
func TestRunClusterRejectsBadFaultConfig(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		cfg  ClusterConfig
	}{
		{"kill with a single replica", ClusterConfig{Shards: 1, Replicas: 1,
			Faults: []Fault{{Shard: 0, Kind: KillLeader}}}},
		{"slow leader with a single replica", ClusterConfig{Shards: 1, Replicas: 1,
			Faults: []Fault{{Shard: 0, Kind: SlowLeader}}}},
		{"kill shard out of range", ClusterConfig{Shards: 2, Replicas: 2,
			Faults: []Fault{{Shard: 5, Kind: KillLeader}}}},
		{"negative shard", ClusterConfig{Shards: 2, Replicas: 2,
			Faults: []Fault{{Shard: -1, Kind: KillLeader}}}},
		{"kill past the last round", ClusterConfig{Shards: 2, Replicas: 2, Rounds: 6,
			Faults: []Fault{{Round: 9, Shard: 0, Kind: KillLeader}}}},
		{"negative round", ClusterConfig{Shards: 2, Replicas: 2,
			Faults: []Fault{{Round: -1, Shard: 0, Kind: KillLeader}}}},
		{"rot with 2 replicas", ClusterConfig{Shards: 1, Replicas: 2, Dir: dir,
			Faults: []Fault{{Shard: 0, Kind: RotFollower}}}},
		{"rot without a directory", ClusterConfig{Shards: 1, Replicas: 3,
			Faults: []Fault{{Shard: 0, Kind: RotFollower}}}},
		{"unknown kind", ClusterConfig{Shards: 1, Replicas: 3,
			Faults: []Fault{{Shard: 0, Kind: FaultKind(9)}}}},
	} {
		tc.cfg.Seed = 503
		tc.cfg.Logger = telemetry.Discard()
		if _, err := RunCluster(tc.cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestRunDiskChaos is the acceptance test for disk-fault chaos: with
// bit rot on one replica's disk and a slow (not dead) leader, the
// scrubber must repair the rotted log byte-identical to the leader's,
// the coordinator must demote (not kill) the gray leader, and hedged
// reads must keep the round read latency in the fault-free neighborhood
// — all of it visible in the telemetry counters, and the final merged
// prior byte-identical to the fault-free control run.
func TestRunDiskChaos(t *testing.T) {
	const slowLeader = slowLeaderDelay
	cfg := ClusterConfig{
		Shards: 1, Replicas: 3, Rounds: 12,
		Dir:        t.TempDir(),
		HedgeDelay: 20 * time.Millisecond,
		Seed:       61,
		Logger:     telemetry.Discard(),
	}
	control, err := RunCluster(cfg)
	if err != nil {
		t.Fatalf("control run: %v", err)
	}
	cfg.Dir = t.TempDir()
	cfg.Faults = []Fault{{Round: 6, Kind: RotFollower}, {Round: 6, Kind: SlowLeader}}
	chaos, err := RunCluster(cfg)
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}

	// The tentpole invariant: every defense fired, and the data is
	// exactly — not approximately — what the fault-free run produced.
	if !bytes.Equal(control.PriorBytes, chaos.PriorBytes) {
		t.Fatalf("chaos merged prior differs from control (%d vs %d bytes)",
			len(chaos.PriorBytes), len(control.PriorBytes))
	}
	if !chaos.LogsIdentical {
		t.Fatal("rotted log was not repaired byte-identical")
	}
	if chaos.RotFlips == 0 {
		t.Fatal("fault injector never flipped a byte — the chaos run tested nothing")
	}
	if len(chaos.Faults) != 2 || chaos.Faults[1].Node == "" || chaos.Demotions < 1 {
		t.Fatalf("gray leader was not demoted (faults=%+v, demotions=%v)", chaos.Faults, chaos.Demotions)
	}
	if chaos.Tasks != control.Tasks {
		t.Fatalf("chaos run delivered %d tasks, control %d", chaos.Tasks, control.Tasks)
	}

	// Hedged reads: the slow demoted replica sits first in read order, so
	// without hedging every post-demotion read — and with it every round
	// — would cost the full serve delay. The direct hedging claim is the
	// read p99 staying far under that delay. The round-p99 bound vs the
	// fault-free run carries a slowLeader/2 allowance on top of the 2×:
	// the whole cluster shares one process (in CI, one core, under the
	// race detector), so the control p99 itself jitters by more than the
	// hedge overhead the bound is trying to expose; the allowance keeps
	// the gate meaningful — an unhedged run pays the full slowLeader
	// every round and still fails it — without gating on scheduler noise.
	if chaos.ReadP99 >= slowLeader/2 {
		t.Fatalf("chaos read p99 %v is not clearly under the slow replica's %v delay",
			chaos.ReadP99, slowLeader)
	}
	limit := 2*control.RoundP99 + slowLeader/2
	if chaos.RoundP99 > limit {
		t.Fatalf("chaos round p99 %v exceeds 2×control (%v) + %v = %v",
			chaos.RoundP99, control.RoundP99, slowLeader/2, limit)
	}

	// Satellite telemetry: the chaos run moves the counters...
	if chaos.ScrubRepairedFrames < 1 {
		t.Fatalf("drdp_store_scrub_repaired_total moved by %v, want ≥ 1", chaos.ScrubRepairedFrames)
	}
	if chaos.FaultsInjected < 1 {
		t.Fatalf("drdp_store_fault_injected_total moved by %v, want ≥ 1", chaos.FaultsInjected)
	}
	if chaos.HedgeFired < 1 || chaos.HedgeWon < 1 {
		t.Fatalf("hedge counters did not move (fired=%v won=%v)", chaos.HedgeFired, chaos.HedgeWon)
	}
	// ...and the control run does not: a healthy cluster neither repairs
	// nor demotes, and its hedges stay quiet.
	if control.Demotions != 0 || control.FaultsInjected != 0 {
		t.Fatalf("control run moved fault counters (demotions=%v faults=%v)",
			control.Demotions, control.FaultsInjected)
	}
}

// TestRunClusterComposedFaults composes every fault kind in one
// schedule: bit rot and a gray leader on shard 0, then a leader kill on
// shard 1, over 2 shards × 3 replicas on disk. The merged prior must be
// byte-identical to a fault-free control run, the rotted log must end
// byte-identical to its leader's, and the coordinator must both demote
// and promote.
func TestRunClusterComposedFaults(t *testing.T) {
	cfg := ClusterConfig{
		Shards: 2, Replicas: 3, Rounds: 8,
		Dir:        t.TempDir(),
		HedgeDelay: 20 * time.Millisecond,
		Seed:       71,
		Logger:     telemetry.Discard(),
	}
	control, err := RunCluster(cfg)
	if err != nil {
		t.Fatalf("control run: %v", err)
	}
	cfg.Dir = t.TempDir()
	cfg.Faults = []Fault{
		{Round: 3, Shard: 0, Kind: RotFollower},
		{Round: 3, Shard: 0, Kind: SlowLeader},
		{Round: 5, Shard: 1, Kind: KillLeader},
	}
	chaos, err := RunCluster(cfg)
	if err != nil {
		t.Fatalf("composed run: %v", err)
	}
	for _, o := range chaos.Faults {
		t.Logf("%v on shard %d before round %d: %s, failover %v", o.Kind, o.Shard, o.Round, o.Node, o.FailoverTime)
	}

	if !bytes.Equal(control.PriorBytes, chaos.PriorBytes) {
		t.Fatalf("composed merged prior differs from control (%d vs %d bytes)",
			len(chaos.PriorBytes), len(control.PriorBytes))
	}
	if len(chaos.Faults) != len(cfg.Faults) {
		t.Fatalf("%d of %d faults fired", len(chaos.Faults), len(cfg.Faults))
	}
	if chaos.RotFlips == 0 {
		t.Fatal("fault injector never flipped a byte")
	}
	if !chaos.LogsIdentical {
		t.Fatal("rotted log was not repaired byte-identical")
	}
	if chaos.Demotions < 1 || chaos.Promotions < 1 {
		t.Fatalf("want a demotion and a promotion, got %v and %v", chaos.Demotions, chaos.Promotions)
	}
	// The demoted slow node is still probed while shard 1's leader dies;
	// its 300ms probes must not hold back shard 1's three missed probes.
	for _, o := range chaos.Faults {
		if o.Kind == KillLeader && o.FailoverTime > 300*time.Millisecond {
			t.Errorf("kill on shard %d failed over after %v, want ≤ 300ms", o.Shard, o.FailoverTime)
		}
	}
	if chaos.Tasks != control.Tasks {
		t.Fatalf("composed run delivered %d tasks, control %d", chaos.Tasks, control.Tasks)
	}
	if control.Demotions != 0 || control.Promotions != 0 || control.FaultsInjected != 0 {
		t.Fatalf("control run moved fault counters (demotions=%v promotions=%v faults=%v)",
			control.Demotions, control.Promotions, control.FaultsInjected)
	}
}
