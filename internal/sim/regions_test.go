package sim

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/drdp/drdp/internal/telemetry"
)

// TestRunRegionsPartitionChaos is the hierarchical tier's acceptance
// test: one control run and one partition run (same config, same
// seed), asserting
//
//  1. the partition walks region 1's devices down the full degradation
//     ladder in order — fresh → regional → cached → local-only,
//  2. after the partition heals, the final round is fresh again,
//  3. the final cloud prior is byte-identical across the pair (a
//     healed partition is invisible to the cloud), and
//  4. summarized upward sync cut cloud upload bytes at least 2×.
func TestRunRegionsPartitionChaos(t *testing.T) {
	cfg := RegionsConfig{Seed: 31, Logger: telemetry.Discard()}

	control, err := runRegions(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Partition = true
	cfg.Gossip = true
	faulted, err := runRegions(cfg)
	if err != nil {
		t.Fatal(err)
	}

	wantLadder := []string{"fresh-prior", "regional-prior", "cached-prior", "local-only"}
	if !reflect.DeepEqual(faulted.LadderOrder, wantLadder) {
		t.Errorf("partition ladder = %v, want %v (counts %v)",
			faulted.LadderOrder, wantLadder, faulted.LadderCounts)
	}
	if got := control.LadderOrder; len(got) != 1 || got[0] != "fresh-prior" {
		t.Errorf("control run degraded: ladder %v, counts %v", got, control.LadderCounts)
	}
	if !faulted.Recovered {
		t.Errorf("region-1 devices not back on fresh priors after heal (counts %v)", faulted.LadderCounts)
	}

	if len(control.PriorBytes) == 0 {
		t.Fatal("control run produced no cloud prior")
	}
	if !bytes.Equal(control.PriorBytes, faulted.PriorBytes) {
		t.Errorf("cloud prior DIVERGED across the partition: control %d bytes, faulted %d bytes",
			len(control.PriorBytes), len(faulted.PriorBytes))
	}

	for name, r := range map[string]*RegionsResult{"control": control, "faulted": faulted} {
		if r.Reduction < 2 {
			t.Errorf("%s run upload reduction %.2fx (raw %d, up %d), want >= 2x",
				name, r.Reduction, r.RawBytes, r.UpBytes)
		}
	}
	if faulted.GossipInjected == 0 {
		t.Error("gossip absorbed nothing during the partition")
	}
	if faulted.Accuracy < 0.5 || control.Accuracy < 0.5 {
		t.Errorf("accuracy collapsed: control %.3f, faulted %.3f", control.Accuracy, faulted.Accuracy)
	}
}

// TestRunRegionsDeterministic: the scenario is a pure function of its
// config — two identical partition runs agree on everything the
// acceptance checks read.
func TestRunRegionsDeterministic(t *testing.T) {
	cfg := RegionsConfig{Seed: 33, Partition: true, Logger: telemetry.Discard()}
	a, err := runRegions(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runRegions(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.PriorBytes, b.PriorBytes) {
		t.Error("cloud prior differs across identical runs")
	}
	if !reflect.DeepEqual(a.LadderCounts, b.LadderCounts) {
		t.Errorf("ladder counts differ: %v vs %v", a.LadderCounts, b.LadderCounts)
	}
	if a.RawBytes != b.RawBytes || a.UpBytes != b.UpBytes {
		t.Errorf("byte accounting differs: %d/%d vs %d/%d", a.RawBytes, a.UpBytes, b.RawBytes, b.UpBytes)
	}
}

// TestRunRegionsRejectsBadSchedule: phase rounds must be ascending and
// inside the run.
func TestRunRegionsRejectsBadSchedule(t *testing.T) {
	cfg := RegionsConfig{Seed: 1, Rounds: 4, PartitionStart: 3, RegionCutStart: 2, PartitionEnd: 5}
	if _, err := runRegions(cfg); err == nil {
		t.Error("out-of-order phase schedule accepted")
	}
}
