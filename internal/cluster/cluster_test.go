package cluster

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/edge"
	"github.com/drdp/drdp/internal/mat"
	"github.com/drdp/drdp/internal/store"
	"github.com/drdp/drdp/internal/telemetry"
)

// fastConfig is the chaos-test cadence: sub-second failure detection
// so a failover completes well inside a test timeout.
func fastConfig(shards, replicas int) Config {
	return Config{
		Shards:        shards,
		Replicas:      replicas,
		Build:         dpprior.BuildOptions{Alpha: 1, Seed: 7},
		SyncReplicas:  1,
		AckTimeout:    300 * time.Millisecond,
		ProbeInterval: 10 * time.Millisecond,
		FailThreshold: 2,
		Seed:          11,
		Logger:        telemetry.Discard(),
	}
}

func makeTasks(seed int64, k, dim int) []dpprior.TaskPosterior {
	rng := rand.New(rand.NewSource(seed))
	tasks := make([]dpprior.TaskPosterior, k)
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

func outlierTask(dim int) dpprior.TaskPosterior {
	mu := make(mat.Vec, dim)
	for j := range mu {
		mu[j] = -40 - float64(j)
	}
	sigma := mat.Eye(dim)
	sigma.ScaleBy(1e-4)
	return dpprior.TaskPosterior{Mu: mu, Sigma: sigma, N: 100000}
}

func gobBytes(t *testing.T, v interface{}) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func dialTest(coordAddr string) *ShardedClient {
	return DialSharded(coordAddr, edge.ResilientOptions{Seed: 1, Logger: telemetry.Discard()})
}

// runScenario feeds the same deterministic task list into a fresh 3×2
// cluster, optionally killing shard 0's leader halfway through, and
// returns the merged prior as fetched by a brand-new client after the
// cluster quiesces. The cluster is torn down before returning so two
// scenarios never coexist.
func runScenario(t *testing.T, kill bool) []byte {
	t.Helper()
	cl, err := Start(fastConfig(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const dim = 4
	tasks := makeTasks(301, 24, dim)
	sc := dialTest(cl.CoordinatorAddr())
	defer sc.Close()
	for i, task := range tasks {
		if kill && i == len(tasks)/2 {
			old := cl.Coordinator().Map().Shards[0].Leader
			if _, err := cl.KillLeader(0); err != nil {
				t.Fatalf("kill leader: %v", err)
			}
			if !cl.WaitFailover(0, old, 5*time.Second) {
				t.Fatal("failover did not complete")
			}
		}
		if _, err := sc.ReportTask(task); err != nil {
			t.Fatalf("report task %d: %v", i, err)
		}
	}
	if !cl.Quiesce(10 * time.Second) {
		t.Fatal("cluster did not quiesce")
	}
	// A fresh client (no cached map, no cached priors) sees the final
	// state cold — exactly what a rebooted edge would fetch.
	fresh := dialTest(cl.CoordinatorAddr())
	defer fresh.Close()
	p, err := fresh.FetchMergedPrior(dim)
	if err != nil {
		t.Fatalf("merged prior: %v", err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("merged prior invalid: %v", err)
	}
	return gobBytes(t, p)
}

// TestClusterFailoverByteIdenticalPriors is the acceptance test: a
// 3-shard × 2-replica cluster with the leader of shard 0 killed
// mid-round must converge to a merged prior byte-identical to an
// unfailed control run over the same task sequence.
func TestClusterFailoverByteIdenticalPriors(t *testing.T) {
	control := runScenario(t, false)
	failed := runScenario(t, true)
	if !bytes.Equal(control, failed) {
		t.Fatalf("merged prior after failover differs from control run (%d vs %d bytes)",
			len(control), len(failed))
	}
	if telemetry.ClusterPromotions.Value() == 0 {
		t.Error("no promotion was recorded")
	}
}

// TestClusterVerdictsSurviveFailover: the admission judge's quarantine
// verdicts replicate with the task log, so a poisoned task stays
// rejected — and the served prior stays byte-identical — after the
// leader that judged it dies.
func TestClusterVerdictsSurviveFailover(t *testing.T) {
	cl, err := Start(fastConfig(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// MinScored pinned to the full population: one deterministic
	// judgment round (see the edge admission tests). Leaders judge;
	// followers inherit verdicts through the replicated sidecar.
	for r := 0; r < 2; r++ {
		cl.Node(0, r).Server().SetAdmission(edge.AdmissionConfig{Quarantine: true, TrimFrac: 0.4, MinScored: 9})
	}

	const dim = 3
	sc := dialTest(cl.CoordinatorAddr())
	defer sc.Close()
	poison := outlierTask(dim)
	for _, task := range makeTasks(302, 8, dim) {
		if _, err := sc.ReportTask(task); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sc.ReportTask(poison); err != nil {
		t.Fatal(err)
	}
	leader := cl.LeaderOf(0)
	deadline := time.Now().Add(5 * time.Second)
	for leader.Server().Stats().Quarantined != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("leader never quarantined the outlier (got %d)", leader.Server().Stats().Quarantined)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !cl.Quiesce(10 * time.Second) {
		t.Fatal("cluster did not quiesce")
	}
	// The verdict sidecar reached the follower before the leader dies.
	follower := cl.Node(0, 1)
	quarantined := 0
	for _, q := range follower.Server().Store().Verdicts() {
		if q {
			quarantined++
		}
	}
	if quarantined != 1 {
		t.Fatalf("follower replicated %d quarantine verdicts, want 1", quarantined)
	}
	before, bv, err := leader.Server().Prior()
	if err != nil {
		t.Fatal(err)
	}
	beforeBytes := gobBytes(t, before)

	old := cl.Coordinator().Map().Shards[0].Leader
	if _, err := cl.KillLeader(0); err != nil {
		t.Fatal(err)
	}
	if !cl.WaitFailover(0, old, 5*time.Second) {
		t.Fatal("failover did not complete")
	}
	promoted := cl.LeaderOf(0)
	if promoted == nil {
		t.Fatal("no leader after failover")
	}
	promoted.Server().WaitCaughtUp()
	if got := promoted.Server().Stats().Quarantined; got != 1 {
		t.Fatalf("promoted leader Quarantined = %d, want 1", got)
	}
	after, av, err := promoted.Server().Prior()
	if err != nil {
		t.Fatal(err)
	}
	if av != bv {
		t.Fatalf("promoted prior version %d, want %d", av, bv)
	}
	if !bytes.Equal(beforeBytes, gobBytes(t, after)) {
		t.Fatal("promoted leader serves different prior bytes than the dead leader did")
	}
	// Regression: re-uploading the poisoned content is absorbed by the
	// dedupe set — no new append, no re-judgment, still rejected.
	n := promoted.Server().Store().Len()
	if _, err := sc.ReportTask(poison); err != nil {
		t.Fatalf("deduped resend refused: %v", err)
	}
	if promoted.Server().Store().Len() != n {
		t.Fatal("poisoned resend appended a second copy after failover")
	}
	if got := promoted.Server().Stats().Quarantined; got != 1 {
		t.Fatalf("post-resend Quarantined = %d, want 1", got)
	}
}

// TestFollowerTornTailRestartCatchup: a follower that crashed
// mid-stream (torn frame at the log tail) truncates the bad tail on
// restart and re-requests from its last good sequence, converging to a
// log byte-identical to the leader's.
func TestFollowerTornTailRestartCatchup(t *testing.T) {
	base := t.TempDir()
	build := dpprior.BuildOptions{Alpha: 1, Seed: 7}
	leader, err := StartNode(NodeConfig{
		Shard: 0, Replica: 0, Dir: filepath.Join(base, "r0"),
		Build: build, Seed: 21, Logger: telemetry.Discard(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	followerCfg := NodeConfig{
		Shard: 0, Replica: 1, Dir: filepath.Join(base, "r1"),
		Build: build, LeaderAddr: leader.Addr(),
		Seed: 21, Logger: telemetry.Discard(),
	}
	follower, err := StartNode(followerCfg)
	if err != nil {
		t.Fatal(err)
	}

	const dim = 3
	c, err := edge.Dial(leader.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Fewer tasks than the snapshot threshold: the whole history stays
	// in tasks.log on both sides, so the files are directly comparable.
	for _, task := range makeTasks(303, 10, dim) {
		if _, err := c.ReportTask(task); err != nil {
			t.Fatal(err)
		}
	}
	waitVersion := func(n *Node, want uint64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for n.Server().Store().Version() < want {
			if time.Now().After(deadline) {
				t.Fatalf("node %s stuck at version %d, want %d", n.Name(), n.Server().Store().Version(), want)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	target := leader.Server().Store().Version()
	waitVersion(follower, target)
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the follower's log tail mid-frame.
	logPath := filepath.Join(base, "r1", "tasks.log")
	fi, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(logPath, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	follower, err = StartNode(followerCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	rec := follower.Server().Store().Recovery()
	if !rec.Truncated || rec.TruncatedBytes == 0 {
		t.Fatalf("restart did not report the torn tail: %+v", rec)
	}
	waitVersion(follower, target)

	leaderLog, err := os.ReadFile(filepath.Join(base, "r0", "tasks.log"))
	if err != nil {
		t.Fatal(err)
	}
	followerLog, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(leaderLog, followerLog) {
		t.Fatalf("follower log (%d bytes) differs from leader log (%d bytes) after catch-up",
			len(followerLog), len(leaderLog))
	}
	lag := telemetry.ReplLagGauge(follower.Name())
	for deadline := time.Now().Add(5 * time.Second); lag.Value() != 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("caught-up follower reports lag %v", lag.Value())
		}
	}
}

// TestFollowerLagGaugeTracksCatchup: a follower that starts more than
// one pull batch behind its leader shows the gap on drdp_repl_lag_seq,
// and the gauge returns to 0 once it has caught up. The leader is slowed
// so the window between pulls is wide enough to observe.
func TestFollowerLagGaugeTracksCatchup(t *testing.T) {
	base := t.TempDir()
	build := dpprior.BuildOptions{Alpha: 1, Seed: 7}
	leader, err := StartNode(NodeConfig{
		Shard: 0, Replica: 0, Dir: filepath.Join(base, "r0"),
		Build: build, Seed: 31, Logger: telemetry.Discard(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	const behind = store.DefaultMaxPullFrames + 16
	for _, task := range makeTasks(311, behind, 3) {
		if _, err := leader.Server().AddTask(task); err != nil {
			t.Fatal(err)
		}
	}
	leader.Server().SetServeDelay(50 * time.Millisecond)

	follower, err := StartNode(NodeConfig{
		Shard: 0, Replica: 1, Dir: filepath.Join(base, "r1"),
		Build: build, LeaderAddr: leader.Addr(),
		Seed: 31, Logger: telemetry.Discard(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	gauge := telemetry.ReplLagGauge(follower.Name())
	var peak float64
	deadline := time.Now().Add(10 * time.Second)
	for follower.Server().Store().Version() < behind {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at version %d, want %d", follower.Server().Store().Version(), behind)
		}
		peak = max(peak, gauge.Value())
		time.Sleep(time.Millisecond)
	}
	if peak < 1 {
		t.Errorf("drdp_repl_lag_seq never rose while the follower trailed by %d frames", behind)
	}
	for gauge.Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("drdp_repl_lag_seq = %v after catch-up, want 0", gauge.Value())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShardedClientDedupeRouting: fingerprint routing is stable, so a
// full re-upload of a fleet's tasks lands every task on the shard that
// already holds it and the dedupe set absorbs all of them.
func TestShardedClientDedupeRouting(t *testing.T) {
	cfg := fastConfig(3, 1)
	cfg.SyncReplicas = 0 // single replica per shard: nothing to ack
	cl, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const dim = 4
	tasks := makeTasks(304, 9, dim)
	sc := dialTest(cl.CoordinatorAddr())
	defer sc.Close()
	for _, task := range tasks {
		if _, err := sc.ReportTask(task); err != nil {
			t.Fatal(err)
		}
	}
	total := func() int {
		n := 0
		for s := 0; s < cfg.Shards; s++ {
			n += cl.LeaderOf(s).Server().Store().Len()
		}
		return n
	}
	if got := total(); got != len(tasks) {
		t.Fatalf("cluster holds %d tasks, want %d", got, len(tasks))
	}
	// Re-report the whole fleet (an ambiguous-retry storm): routing by
	// fingerprint sends each copy to the shard that already has it.
	for _, task := range tasks {
		if _, err := sc.ReportTask(task); err != nil {
			t.Fatal(err)
		}
	}
	if got := total(); got != len(tasks) {
		t.Fatalf("re-upload grew the cluster to %d tasks, want %d", got, len(tasks))
	}
	if !cl.Quiesce(10 * time.Second) {
		t.Fatal("cluster did not quiesce")
	}
	p, err := sc.FetchMergedPrior(dim)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("merged prior invalid: %v", err)
	}
}

// TestCoordinatorClosesNonHelloPeer: the shard-map endpoint opens every
// connection with the same handshake as a cloud server. A gob-speaking
// client of an earlier release is closed without a byte of answer and
// counted as a decode error; a drdp client still gets the map.
func TestCoordinatorClosesNonHelloPeer(t *testing.T) {
	cl, err := Start(fastConfig(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	before := telemetry.ServerDecodeErrors.Value()
	conn, err := net.Dial("tcp", cl.CoordinatorAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var opening bytes.Buffer
	if err := gob.NewEncoder(&opening).Encode(&edge.Request{Kind: edge.GetShardMap}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(opening.Bytes()); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := conn.Read(make([]byte, 64))
	if n != 0 || err == nil {
		t.Fatalf("coordinator answered %d bytes (err %v), want a close without answer", n, err)
	}
	if ne := net.Error(nil); errors.As(err, &ne) && ne.Timeout() {
		t.Fatal("coordinator left the connection open")
	}
	if got := telemetry.ServerDecodeErrors.Value() - before; got < 1 {
		t.Errorf("decode errors moved by %g, want the refused handshake counted", got)
	}

	rc := edge.DialResilient(cl.CoordinatorAddr(), edge.ResilientOptions{Logger: telemetry.Discard()})
	defer rc.Close()
	if m, _, err := rc.FetchShardMap(0); err != nil || len(m.Shards) != 1 {
		t.Fatalf("shard map after the refused peer: %+v, %v", m, err)
	}
}

// TestClusterCloseWithOpenClient: closing a cluster while an edge still
// holds a coordinator connection returns promptly. The coordinator's
// Close sweeps live connections, so no handler stays blocked reading a
// connection nobody closes, and the nodes close after it.
func TestClusterCloseWithOpenClient(t *testing.T) {
	cl, err := Start(fastConfig(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	sc := dialTest(cl.CoordinatorAddr())
	if _, err := sc.Map(); err != nil {
		sc.Close()
		cl.Close()
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() { closed <- cl.Close() }()
	select {
	case <-closed:
		sc.Close()
		return
	case <-time.After(5 * time.Second):
	}
	t.Error("Cluster.Close hung with a client connection open")
	// Once the client hangs up the hung Close can finish, and the
	// goroutine-leak check stays clean.
	sc.Close()
	<-closed
}

// TestFollowerDeltaFromLeaderVersion: the ShardedClient reads followers
// first, so an edge that last fetched its prior from the leader at
// version v asks a follower for the delta from v. The follower answers
// from its own ring of published priors, and the patched prior must be
// the follower's full prior byte for byte.
func TestFollowerDeltaFromLeaderVersion(t *testing.T) {
	cl, err := Start(fastConfig(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const dim = 4
	rng := rand.New(rand.NewSource(5))
	// Tasks tight around well-separated centers: the clusters a new
	// center leaves alone survive a rebuild, so the answer is a delta.
	report := func(sc *ShardedClient, centers ...float64) {
		t.Helper()
		for _, c := range centers {
			mu := make(mat.Vec, dim)
			for j := range mu {
				mu[j] = c + 0.05*rng.NormFloat64()
			}
			sigma := mat.Eye(dim)
			sigma.ScaleBy(0.1)
			if _, err := sc.ReportTask(dpprior.TaskPosterior{Mu: mu, Sigma: sigma, N: 50}); err != nil {
				t.Fatal(err)
			}
		}
		if !cl.Quiesce(10 * time.Second) {
			t.Fatal("cluster did not quiesce")
		}
	}
	sc := dialTest(cl.CoordinatorAddr())
	defer sc.Close()
	report(sc, -20, -20, 20, 20)

	shard := cl.Coordinator().Map().Shards[0]
	if len(shard.Followers) == 0 {
		t.Fatal("shard 0 has no follower")
	}
	leader, err := edge.Dial(shard.Leader, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	follower, err := edge.Dial(shard.Followers[0], 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	held, v, err := leader.FetchPrior(dim)
	if err != nil {
		t.Fatal(err)
	}
	if _, sv, err := sc.ShardPrior(0, dim); err != nil || sv != v {
		t.Fatalf("sharded client read version %d (%v), leader served %d", sv, err, v)
	}

	report(sc, 60)
	deltasBefore := telemetry.ServerPriorDelta.Value()
	patched, pv, err := follower.FetchPriorDelta(dim, v, held)
	if err != nil {
		t.Fatal(err)
	}
	if telemetry.ServerPriorDelta.Value() != deltasBefore+1 {
		t.Error("follower did not answer with a delta")
	}
	want, wv, err := follower.FetchPrior(dim)
	if err != nil {
		t.Fatal(err)
	}
	if patched == nil || pv != wv || pv <= v {
		t.Fatalf("follower delta from %d answered version %d (prior %v), its full prior is at %d", v, pv, patched != nil, wv)
	}
	if !bytes.Equal(gobBytes(t, patched), gobBytes(t, want)) {
		t.Error("prior patched by the follower's delta differs from the follower's full prior")
	}
	// The same refresh through the sharded client, which asks the
	// follower first.
	sp, sv, err := sc.ShardPrior(0, dim)
	if err != nil {
		t.Fatal(err)
	}
	if sv != wv || !bytes.Equal(gobBytes(t, sp), gobBytes(t, want)) {
		t.Errorf("sharded client refreshed to version %d, want the follower's %d byte for byte", sv, wv)
	}
}
