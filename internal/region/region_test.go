package region

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math/rand"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/edge"
	"github.com/drdp/drdp/internal/mat"
	"github.com/drdp/drdp/internal/telemetry"
)

func synthTasks(rng *rand.Rand, k, dim int) []dpprior.TaskPosterior {
	out := make([]dpprior.TaskPosterior, k)
	for i := range out {
		mu := make(mat.Vec, dim)
		for j := range mu {
			mu[j] = rng.NormFloat64()
		}
		sigma := mat.Eye(dim)
		sigma.ScaleBy(0.1)
		out[i] = dpprior.TaskPosterior{Mu: mu, Sigma: sigma, N: 100}
	}
	return out
}

// startCloud launches an in-process cloud server on a real listener.
func startCloud(t *testing.T, seed []dpprior.TaskPosterior) (string, *edge.CloudServer) {
	t.Helper()
	srv, err := edge.NewCloudServer(seed, dpprior.BuildOptions{Alpha: 1, Seed: 7}, telemetry.Discard())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	addrCh := make(chan string, 1)
	go srv.ListenAndServe("127.0.0.1:0", addrCh)
	return <-addrCh, srv
}

func startRegion(t *testing.T, cfg Config) *Region {
	t.Helper()
	r, err := Start(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// TestFlushSummarizesWindow: a window larger than the component budget
// reaches the cloud as at most budget summaries, the byte counters
// show the saving, and a second flush with nothing new is a no-op.
func TestFlushSummarizesWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	addr, cloud := startCloud(t, nil)
	r := startRegion(t, Config{
		Name:      "r0",
		CloudAddr: addr,
		Build:     dpprior.BuildOptions{Alpha: 1, MaxComponents: 3, Seed: 11},
		Seed:      42,
		Logger:    telemetry.Discard(),
	})
	for _, task := range synthTasks(rng, 12, 4) {
		if _, err := r.Server().AddTask(task); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.Pending(); got != 12 {
		t.Fatalf("Pending = %d, want 12", got)
	}
	n, err := r.FlushUp()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || n > 3 {
		t.Fatalf("flush shipped %d summaries, want 1..3", n)
	}
	cloud.WaitCaughtUp()
	if got := cloud.Stats().Tasks; got != n {
		t.Errorf("cloud has %d tasks, want the %d summaries", got, n)
	}
	st := r.Stats()
	if st.RawTasks != 12 || st.Summaries != n || st.Flushes != 1 {
		t.Errorf("stats %+v", st)
	}
	if st.UpBytes >= st.RawBytes {
		t.Errorf("summarization saved nothing: raw %d, up %d", st.RawBytes, st.UpBytes)
	}
	if got := r.Pending(); got != 0 {
		t.Errorf("Pending after flush = %d, want 0", got)
	}
	if n2, err := r.FlushUp(); err != nil || n2 != 0 {
		t.Errorf("empty flush = %d, %v", n2, err)
	}
}

// TestFlushDeferredThenRetried: with the cloud unreachable the flush
// defers (nothing advances); once the link heals the same window ships
// and lands byte-identical to a region that never deferred.
func TestFlushDeferredThenRetried(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tasks := synthTasks(rng, 10, 4)

	run := func(defer1 bool) []byte {
		addr, cloud := startCloud(t, nil)
		var cut atomic.Bool
		r := startRegion(t, Config{
			Name: "r0",
			Dial: func() (net.Conn, error) {
				if cut.Load() {
					return nil, errors.New("test: partitioned")
				}
				return net.DialTimeout("tcp", addr, time.Second)
			},
			Build:  dpprior.BuildOptions{Alpha: 1, MaxComponents: 3, Seed: 11},
			Seed:   42,
			Logger: telemetry.Discard(),
		})
		for _, task := range tasks {
			if _, err := r.Server().AddTask(task); err != nil {
				t.Fatal(err)
			}
		}
		if defer1 {
			cut.Store(true)
			if _, err := r.FlushUp(); err == nil {
				t.Fatal("flush over a dead link succeeded")
			}
			if r.Stats().Deferred != 1 {
				t.Fatalf("deferred not counted: %+v", r.Stats())
			}
			cut.Store(false)
		}
		if _, err := r.FlushUp(); err != nil {
			t.Fatal(err)
		}
		cloud.WaitCaughtUp()
		p, _, err := cloud.Prior()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(p); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	direct := run(false)
	deferred := run(true)
	if !bytes.Equal(direct, deferred) {
		t.Error("cloud prior differs between a direct flush and a deferred+retried one")
	}
}

// TestSyncDownAbsorbsCloudComponents: a down-sync captures the cloud
// prior and injects its components locally as pseudo-tasks that are
// excluded from the next upward flush — cloud knowledge never echoes
// back up.
func TestSyncDownAbsorbsCloudComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	addr, cloud := startCloud(t, synthTasks(rng, 6, 4))
	r := startRegion(t, Config{
		Name:      "r0",
		CloudAddr: addr,
		Build:     dpprior.BuildOptions{Alpha: 1, MaxComponents: 3, Seed: 11},
		Seed:      42,
		Logger:    telemetry.Discard(),
	})
	if err := r.SyncDown(); err != nil {
		t.Fatal(err)
	}
	if r.Stats().DownSyncs != 1 {
		t.Fatalf("down-sync not counted: %+v", r.Stats())
	}
	// The pseudo-tasks are in the local store (so the served prior
	// reflects cloud knowledge) but none of them is flushable.
	r.Server().WaitCaughtUp()
	if tasks, _, _ := r.Server().Store().ViewRecords(); len(tasks) == 0 {
		t.Fatal("down-sync absorbed nothing")
	}
	if got := r.Pending(); got != 0 {
		t.Fatalf("pseudo-tasks are flushable: Pending = %d", got)
	}
	before := cloud.Stats().Tasks
	if n, err := r.FlushUp(); err != nil || n != 0 {
		t.Fatalf("flush after pure down-sync = %d, %v; want 0", n, err)
	}
	if got := cloud.Stats().Tasks; got != before {
		t.Errorf("down-synced knowledge echoed back: cloud tasks %d → %d", before, got)
	}
	// A second sync with an unchanged cloud is a version handshake.
	if err := r.SyncDown(); err != nil {
		t.Fatal(err)
	}
}

// TestGossipAbsorbsPeerComponents: a region cut off from the cloud
// absorbs a peer region's components, serves a prior that reflects
// them, and still never flushes them upward.
func TestGossipAbsorbsPeerComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cloudAddr, cloud := startCloud(t, nil)

	// Peer region with local knowledge and a listener.
	peer := startRegion(t, Config{
		Name:      "peer",
		CloudAddr: cloudAddr,
		Build:     dpprior.BuildOptions{Alpha: 1, MaxComponents: 3, Seed: 11},
		Seed:      43,
		Logger:    telemetry.Discard(),
	})
	for _, task := range synthTasks(rng, 8, 4) {
		if _, err := peer.Server().AddTask(task); err != nil {
			t.Fatal(err)
		}
	}
	peer.Server().WaitCaughtUp()
	addrCh := make(chan string, 1)
	go peer.ListenAndServe("127.0.0.1:0", addrCh)
	peerAddr := <-addrCh

	r := startRegion(t, Config{
		Name:      "r1",
		CloudAddr: cloudAddr,
		Peers:     []string{peerAddr},
		Build:     dpprior.BuildOptions{Alpha: 1, MaxComponents: 3, Seed: 11},
		Seed:      44,
		Logger:    telemetry.Discard(),
	})
	n, err := r.GossipOnce()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("gossip absorbed nothing from a warm peer")
	}
	// Absorbed components serve locally...
	r.Server().WaitCaughtUp()
	if _, _, err := r.MergedPrior(); err != nil {
		t.Fatalf("no merged prior after gossip: %v", err)
	}
	// ...but never go upward.
	if got := r.Pending(); got != 0 {
		t.Fatalf("gossiped components are flushable: Pending = %d", got)
	}
	if _, err := r.FlushUp(); err != nil {
		t.Fatal(err)
	}
	cloud.WaitCaughtUp()
	if got := cloud.Stats().Tasks; got != 0 {
		t.Errorf("gossiped knowledge reached the cloud: %d tasks", got)
	}
	// Re-gossip is idempotent: same components, nothing new absorbed.
	if n2, err := r.GossipOnce(); err != nil || n2 != 0 {
		t.Errorf("second gossip absorbed %d (err %v), want 0", n2, err)
	}
}

// TestRegionServesDevicesOverWire: a region is a real CloudServer —
// an edge client dials it, uploads, and fetches
// the regional prior back.
func TestRegionServesDevicesOverWire(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	r := startRegion(t, Config{
		Name:   "r0",
		Build:  dpprior.BuildOptions{Alpha: 1, MaxComponents: 3, Seed: 11},
		Seed:   42,
		Logger: telemetry.Discard(),
	})
	addrCh := make(chan string, 1)
	go r.ListenAndServe("127.0.0.1:0", addrCh)
	addr := <-addrCh

	c, err := edge.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.BatchReportTasks(synthTasks(rng, 4, 3)); err != nil {
		t.Fatal(err)
	}
	r.Server().WaitCaughtUp()
	p, version, err := c.FetchPrior(3)
	if err != nil {
		t.Fatal(err)
	}
	if version == 0 || p.Dim != 3 {
		t.Fatalf("regional prior version=%d dim=%d", version, p.Dim)
	}
}
