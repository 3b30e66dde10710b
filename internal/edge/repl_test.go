package edge

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/telemetry"
)

func gobBytesT(t *testing.T, v interface{}) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestPullLogAndFollowerApply(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	tasks := seedTasks(rng, 5, 4)
	addr, leader := startServerCfg(t, tasks, nil)

	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// A follower replica over its own (empty) store.
	follower, err := NewCloudServer(nil, dpprior.BuildOptions{Alpha: 1, Seed: 7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	follower.SetFollower(true)

	for follower.Store().Version() < leader.Store().Version() {
		batch, err := c.PullLog(1, follower.Store().Version(), 2)
		if err != nil {
			t.Fatalf("PullLog: %v", err)
		}
		if batch.UpTo != leader.Store().Version() {
			t.Fatalf("UpTo %d, want %d", batch.UpTo, leader.Store().Version())
		}
		if _, err := follower.ApplyReplicated(batch.Frames, batch.Verdicts); err != nil {
			t.Fatalf("ApplyReplicated: %v", err)
		}
	}
	// The leader recorded the follower's acknowledgements as it pulled.
	leader.ackMu.Lock()
	ack := leader.acks[1]
	leader.ackMu.Unlock()
	if v := leader.Store().Version(); ack != v-1 && ack != v {
		t.Fatalf("follower ack %d not tracked (leader at %d)", ack, v)
	}
	// The follower serves the same prior bytes at the same version.
	follower.WaitCaughtUp()
	lp, lv, err := leader.Prior()
	if err != nil {
		t.Fatal(err)
	}
	fp, fv, err := follower.Prior()
	if err != nil {
		t.Fatal(err)
	}
	if lv != fv {
		t.Fatalf("leader prior version %d, follower %d", lv, fv)
	}
	if string(gobBytesT(t, lp)) != string(gobBytesT(t, fp)) {
		t.Fatalf("follower prior differs from leader's at version %d", lv)
	}
}

func TestFollowerRefusesWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	addr, srv := startServerCfg(t, seedTasks(rng, 4, 3), nil)
	srv.SetFollower(true)
	refused := telemetry.ServerNotLeader.Value()
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.ReportTask(seedTasks(rng, 1, 3)[0])
	var se *ServerError
	if !errors.As(err, &se) || se.Code != CodeNotLeader {
		t.Fatalf("follower accepted a write: %v", err)
	}
	if _, err := c.PullLog(1, 0, 0); !errors.As(err, &se) || se.Code != CodeNotLeader {
		t.Fatalf("follower served the replication stream: %v", err)
	}
	if got := telemetry.ServerNotLeader.Value() - refused; got < 1 {
		t.Errorf("drdp_edge_server_not_leader_total moved by %v, want ≥ 1", got)
	}
	// Reads still work.
	if _, _, err := c.FetchPrior(3); err != nil {
		t.Fatalf("follower refused a read: %v", err)
	}
	srv.SetFollower(false)
	if _, err := c.ReportTask(seedTasks(rng, 1, 3)[0]); err != nil {
		t.Fatalf("promoted server refused a write: %v", err)
	}
}

func TestMinVersionGate(t *testing.T) {
	rng := rand.New(rand.NewSource(203))
	addr, srv := startServerCfg(t, seedTasks(rng, 4, 3), nil)
	srv.WaitCaughtUp()
	_, built, err := srv.Prior()
	if err != nil {
		t.Fatal(err)
	}
	r := DialResilient(addr, ResilientOptions{Seed: 1})
	defer r.Close()
	// A floor the replica can serve passes.
	if _, _, err := r.FetchPriorDeltaMin(3, 0, built, nil); err != nil {
		t.Fatalf("satisfiable floor refused: %v", err)
	}
	// A floor beyond the store answers CodeLagging.
	lagging := telemetry.ServerLagging.Value()
	_, _, err = r.FetchPriorDeltaMin(3, 0, built+100, nil)
	var se *ServerError
	if !errors.As(err, &se) || se.Code != CodeLagging {
		t.Fatalf("lagging replica served a stale prior: %v", err)
	}
	if got := telemetry.ServerLagging.Value() - lagging; got < 1 {
		t.Errorf("drdp_edge_server_lagging_total moved by %v, want ≥ 1", got)
	}
	// A floor the leader stored waits for the rebuild covering it, but
	// not past a stalled one: the watchdog's verdict ends the wait.
	srv.SetRebuildTimeout(40 * time.Millisecond)
	release := make(chan struct{})
	srv.priorMu.Lock()
	srv.buildHook = func(uint64) { <-release }
	srv.priorMu.Unlock()
	stored, err := srv.AddTask(seedTasks(rng, 1, 3)[0])
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = r.FetchPriorDeltaMin(3, 0, stored, nil)
	if !errors.As(err, &se) || se.Code != CodeLagging {
		t.Errorf("read behind a stalled rebuild: %v, want CodeLagging", err)
	}
	close(release)
	srv.WaitCaughtUp()
	// Leave the process-global stall gauge cleared for later tests.
	deadline := time.Now().Add(5 * time.Second)
	for srv.stalled.Load() {
		if time.Now().After(deadline) {
			t.Fatal("watchdog never cleared after the rebuild resumed")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestDedupeUploads(t *testing.T) {
	rng := rand.New(rand.NewSource(204))
	addr, srv := startServerCfg(t, nil, nil)
	srv.EnableDedupe()
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	task := seedTasks(rng, 1, 3)[0]
	v1, err := c.ReportTask(task)
	if err != nil {
		t.Fatal(err)
	}
	// An ambiguous retry of the same content is acked without appending.
	deduped := telemetry.ServerDeduped.Value()
	v2, err := c.ReportTask(task)
	if err != nil {
		t.Fatal(err)
	}
	if v2 != v1 || srv.Store().Len() != 1 {
		t.Fatalf("duplicate upload appended: versions %d/%d, %d tasks", v1, v2, srv.Store().Len())
	}
	if got := telemetry.ServerDeduped.Value() - deduped; got < 1 {
		t.Errorf("drdp_edge_server_deduped_uploads_total moved by %v, want ≥ 1", got)
	}
	// Different content still appends.
	if _, err := c.ReportTask(seedTasks(rng, 1, 3)[0]); err != nil {
		t.Fatal(err)
	}
	if srv.Store().Len() != 2 {
		t.Fatalf("distinct upload deduped: %d tasks", srv.Store().Len())
	}
}

// TestDedupeAfterRestartLastBitAsymmetry: an upload whose Σ is
// asymmetric in its last bit (within Validate's tolerance) is stored
// packed, with its upper triangle mirrored. After a restart the dedupe
// set is rebuilt from the stored tasks, and a retry of that upload must
// still be recognized rather than appended a second time.
func TestDedupeAfterRestartLastBitAsymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(206))
	dir := t.TempDir()
	task := clusterTask(rng, 4, 1)
	task.Sigma.Set(0, 1, 0.02)
	task.Sigma.Set(1, 0, math.Nextafter(0.02, 1))

	report := func(addr string) uint64 {
		t.Helper()
		c, err := Dial(addr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		v, err := c.ReportTask(task)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	addr, srv := startDurableServer(t, dir, nil)
	v1 := report(addr)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	addr2, srv2 := startDurableServer(t, dir, nil)
	srv2.EnableDedupe()
	if v2 := report(addr2); v2 != v1 || srv2.Store().Len() != 1 {
		t.Fatalf("retry after restart appended: versions %d/%d, %d tasks", v1, v2, srv2.Store().Len())
	}
}

func TestSemiSyncAckTimeout(t *testing.T) {
	rng := rand.New(rand.NewSource(205))
	_, srv := startServerCfg(t, nil, nil)
	srv.SetSemiSync(1, 50*time.Millisecond)
	start := time.Now()
	if _, err := srv.AddTask(seedTasks(rng, 1, 3)[0]); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < 40*time.Millisecond {
		t.Fatalf("semi-sync append acked in %v without any follower", elapsed)
	}
	// A recorded ack releases the wait promptly.
	go func() {
		time.Sleep(5 * time.Millisecond)
		srv.recordAck(1, 2)
	}()
	start = time.Now()
	if _, err := srv.AddTask(seedTasks(rng, 1, 3)[0]); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 45*time.Millisecond {
		t.Fatalf("acked append still waited %v", elapsed)
	}
}
