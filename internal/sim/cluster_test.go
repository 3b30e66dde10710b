package sim

import (
	"bytes"
	"fmt"
	"testing"

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
				KillShard: -1,
				Seed:      501,
				Logger:    telemetry.Discard(),
			}
			control, err := RunCluster(base)
			if err != nil {
				t.Fatalf("control run: %v", err)
			}
			if control.Killed != "" || control.FailoverTime != 0 {
				t.Fatalf("control run reported a kill: %+v", control)
			}
			if control.Tasks != base.Rounds*base.TasksPerRound {
				t.Fatalf("control delivered %d tasks, want %d", control.Tasks, base.Rounds*base.TasksPerRound)
			}
			if control.RoundsPerSec <= 0 {
				t.Fatalf("control RoundsPerSec = %v", control.RoundsPerSec)
			}

			killed := base
			killed.KillShard = 0
			killed.KillRound = 2
			chaos, err := RunCluster(killed)
			if err != nil {
				t.Fatalf("kill run: %v", err)
			}
			if chaos.Killed == "" {
				t.Fatal("kill run killed nothing")
			}
			if chaos.FailoverTime <= 0 || chaos.RecoveryTime < chaos.FailoverTime {
				t.Fatalf("implausible failover/recovery times: %v / %v", chaos.FailoverTime, chaos.RecoveryTime)
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
		KillShard: -1,
		Seed:      502,
		Logger:    telemetry.Discard(),
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

// TestRunClusterRejectsBadFaultConfig: killing a leader without a
// follower to promote is a configuration error, not a hang.
func TestRunClusterRejectsBadFaultConfig(t *testing.T) {
	if _, err := RunCluster(ClusterConfig{Shards: 1, Replicas: 1, KillShard: 0, Seed: 503, Logger: telemetry.Discard()}); err == nil {
		t.Fatal("kill with a single replica was accepted")
	}
	if _, err := RunCluster(ClusterConfig{Shards: 2, Replicas: 2, KillShard: 5, Seed: 504, Logger: telemetry.Discard()}); err == nil {
		t.Fatal("out-of-range kill shard was accepted")
	}
}
