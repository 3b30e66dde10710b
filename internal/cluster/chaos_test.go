package cluster

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/drdp/drdp/internal/edge"
	"github.com/drdp/drdp/internal/telemetry"
)

// TestGrayLeaderDemoted arms the gray policy, slows (but does not kill)
// a shard leader, and checks the coordinator demotes it: a follower is
// promoted, the slow node stays in the replica set as a follower, and
// writes keep landing through the new leader.
func TestGrayLeaderDemoted(t *testing.T) {
	cfg := fastConfig(1, 3)
	cfg.GrayLatency = 20 * time.Millisecond
	cfg.GrayAfter = 3
	cl, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const dim = 3
	sc := dialTest(cl.CoordinatorAddr())
	defer sc.Close()
	for i, task := range makeTasks(402, 8, dim) {
		if _, err := sc.ReportTask(task); err != nil {
			t.Fatalf("report task %d: %v", i, err)
		}
	}
	if !cl.Quiesce(5 * time.Second) {
		t.Fatal("cluster did not quiesce")
	}

	demotions := telemetry.ClusterDemotions.Value()
	slow := cl.LeaderOf(0)
	oldAddr := slow.Addr()
	// Slow, not dead: well over the gray threshold, well under the probe
	// timeout, so liveness probes keep succeeding.
	slow.Server().SetServeDelay(80 * time.Millisecond)
	if !cl.WaitFailover(0, oldAddr, 10*time.Second) {
		t.Fatal("gray leader was not demoted")
	}
	if got := telemetry.ClusterDemotions.Value(); got != demotions+1 {
		t.Fatalf("drdp_cluster_demotions_total = %v, want %v", got, demotions+1)
	}
	if !slow.Server().IsFollower() {
		t.Fatal("demoted leader should be a follower, not dead")
	}
	m := cl.Coordinator().Map()
	found := false
	for _, f := range m.Shards[0].Followers {
		if f == oldAddr {
			found = true
		}
	}
	if !found {
		t.Fatalf("demoted leader %s missing from follower set %v", oldAddr, m.Shards[0].Followers)
	}
	// The demoted node still answers probes slowly; restore it so the
	// post-demotion writes below are not throttled through it.
	slow.Server().SetServeDelay(0)
	for i, task := range makeTasks(403, 4, dim) {
		if _, err := sc.ReportTask(task); err != nil {
			t.Fatalf("post-demotion report %d: %v", i, err)
		}
	}
	if !cl.Quiesce(5 * time.Second) {
		t.Fatal("cluster did not quiesce after demotion")
	}
	if got := cl.LeaderOf(0).Server().Store().Len(); got != 12 {
		t.Fatalf("new leader holds %d tasks, want 12", got)
	}
}

// TestScrubRepairsFollowerOverNetwork flips a byte in a follower's
// on-disk log while the cluster runs and checks the node's background
// scrubber pulls the quarantined range back from the leader over the
// wire, ending byte-identical.
func TestScrubRepairsFollowerOverNetwork(t *testing.T) {
	dir := t.TempDir()
	cfg := fastConfig(1, 2)
	cfg.Dir = dir
	cfg.ScrubEvery = 10 * time.Millisecond
	cl, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const dim = 3
	sc := dialTest(cl.CoordinatorAddr())
	defer sc.Close()
	for i, task := range makeTasks(404, 20, dim) {
		if _, err := sc.ReportTask(task); err != nil {
			t.Fatalf("report task %d: %v", i, err)
		}
	}
	if !cl.Quiesce(5 * time.Second) {
		t.Fatal("cluster did not quiesce")
	}

	leaderLog := filepath.Join(dir, "s0", "r0", "tasks.log")
	followerLog := filepath.Join(dir, "s0", "r1", "tasks.log")
	want, err := os.ReadFile(leaderLog)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(followerLog)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("follower log differs from leader before corruption")
	}

	// Bit rot in the middle of the follower's log, behind the store's back.
	f, err := os.OpenFile(followerLog, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := []byte{got[len(got)/2] ^ 0xff}
	if _, err := f.WriteAt(buf, int64(len(got)/2)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		cur, err := os.ReadFile(followerLog)
		if err == nil && bytes.Equal(cur, want) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("scrubber did not repair the follower log byte-identical in time")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The repaired node survives a cold restart: close it and reopen the
	// store path implicitly by checking the bytes stayed equal.
	if cur, _ := os.ReadFile(followerLog); !bytes.Equal(cur, want) {
		t.Fatal("repaired log regressed")
	}
}

// TestHedgedReadsCoverSlowReplica makes the first replica in read order
// slow and checks a hedged client still answers fast: the hedge fires,
// the second replica wins, and the prior matches a sequential client's.
func TestHedgedReadsCoverSlowReplica(t *testing.T) {
	cl, err := Start(fastConfig(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const dim = 3
	up := dialTest(cl.CoordinatorAddr())
	defer up.Close()
	for i, task := range makeTasks(405, 10, dim) {
		if _, err := up.ReportTask(task); err != nil {
			t.Fatalf("report task %d: %v", i, err)
		}
	}
	if !cl.Quiesce(5 * time.Second) {
		t.Fatal("cluster did not quiesce")
	}

	// Reads try followers first: replica 1 is order[0]. Make it slow.
	cl.Node(0, 1).Server().SetServeDelay(200 * time.Millisecond)

	control := dialTest(cl.CoordinatorAddr())
	defer control.Close()
	wantPrior, err := control.FetchMergedPrior(dim)
	if err != nil {
		t.Fatal(err)
	}

	fired := telemetry.ClusterHedgeFired.Value()
	won := telemetry.ClusterHedgeWon.Value()
	hedged := dialTest(cl.CoordinatorAddr())
	defer hedged.Close()
	hedged.SetHedge(20 * time.Millisecond)
	start := time.Now()
	gotPrior, err := hedged.FetchMergedPrior(dim)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if telemetry.ClusterHedgeFired.Value() <= fired {
		t.Fatal("hedge never fired against the slow replica")
	}
	if telemetry.ClusterHedgeWon.Value() <= won {
		t.Fatal("secondary leg never won against the slow replica")
	}
	if elapsed >= 200*time.Millisecond {
		t.Fatalf("hedged read took %v, not faster than the slow replica's 200ms", elapsed)
	}
	if !bytes.Equal(gobBytes(t, wantPrior), gobBytes(t, gotPrior)) {
		t.Fatal("hedged prior differs from sequential prior")
	}
	// Later reads on the same client must keep working (connection
	// ownership returned correctly after the hedge).
	if _, err := hedged.FetchMergedPrior(dim); err != nil {
		t.Fatalf("second hedged fetch: %v", err)
	}
}

// TestHedgeFiresOnIndecisivePrimary: on a 2-replica shard whose
// follower (first in read order) is dead, the primary hedge leg
// settles indecisively — an immediate connection-refused — long before
// the hedge delay. The secondary must fire right then rather than
// never: with only two replicas there is no sequential fallback after
// the hedge, so skipping the leg would fail the read "shard
// unreachable" even though the leader is healthy.
func TestHedgeFiresOnIndecisivePrimary(t *testing.T) {
	cl, err := Start(fastConfig(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const dim = 3
	up := dialTest(cl.CoordinatorAddr())
	defer up.Close()
	for i, task := range makeTasks(406, 6, dim) {
		if _, err := up.ReportTask(task); err != nil {
			t.Fatalf("report task %d: %v", i, err)
		}
	}
	if !cl.Quiesce(5 * time.Second) {
		t.Fatal("cluster did not quiesce")
	}
	control := dialTest(cl.CoordinatorAddr())
	defer control.Close()
	wantPrior, err := control.FetchMergedPrior(dim)
	if err != nil {
		t.Fatal(err)
	}

	// Kill the follower. The coordinator only probes leaders, so the dead
	// node stays first in the read order.
	follower := cl.Node(0, 1)
	if follower == cl.LeaderOf(0) {
		follower = cl.Node(0, 0)
	}
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}

	fired := telemetry.ClusterHedgeFired.Value()
	hedged := DialSharded(cl.CoordinatorAddr(), edge.ResilientOptions{
		// One attempt per leg: the dead-follower leg settles (refused)
		// in microseconds, far inside the hedge delay.
		Retry:  edge.RetryPolicy{MaxAttempts: 1},
		Seed:   1,
		Logger: telemetry.Discard(),
	})
	defer hedged.Close()
	hedged.SetHedge(2 * time.Second)
	start := time.Now()
	gotPrior, err := hedged.FetchMergedPrior(dim)
	if err != nil {
		t.Fatalf("hedged read with dead follower: %v", err)
	}
	if elapsed := time.Since(start); elapsed >= time.Second {
		t.Fatalf("read took %v: the hedge waited out the delay instead of firing on the indecisive primary", elapsed)
	}
	if telemetry.ClusterHedgeFired.Value() <= fired {
		t.Fatal("hedge never fired for the dead primary")
	}
	if !bytes.Equal(gobBytes(t, wantPrior), gobBytes(t, gotPrior)) {
		t.Fatal("hedged prior differs from control prior")
	}
}
