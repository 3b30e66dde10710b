package edge

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/mat"
	"github.com/drdp/drdp/internal/store"
	"github.com/drdp/drdp/internal/telemetry"
	"github.com/drdp/drdp/internal/wire"
)

// clusterTask builds a task posterior tightly centered at center, so a
// set of tasks at well-separated centers yields stable, well-separated
// mixture components that survive rebuilds bit-identically.
func clusterTask(rng *rand.Rand, dim int, center float64) dpprior.TaskPosterior {
	mu := make(mat.Vec, dim)
	for i := range mu {
		mu[i] = center + 0.05*rng.NormFloat64()
	}
	sig := mat.NewDense(dim, dim)
	for i := 0; i < dim; i++ {
		sig.Set(i, i, 0.1)
	}
	return dpprior.TaskPosterior{Mu: mu, Sigma: sig, N: 50}
}

func clusterTasks(rng *rand.Rand, dim int, centers []float64, perCenter int) []dpprior.TaskPosterior {
	var tasks []dpprior.TaskPosterior
	for _, c := range centers {
		for i := 0; i < perCenter; i++ {
			tasks = append(tasks, clusterTask(rng, dim, c))
		}
	}
	return tasks
}

func priorBytes(t *testing.T, p *dpprior.Prior) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// startDurableServer runs a cloud server on a store directory.
func startDurableServer(t *testing.T, dir string, seed []dpprior.TaskPosterior) (string, *CloudServer) {
	t.Helper()
	st, err := store.Open(store.Options{Dir: dir, NoSync: true, Logger: telemetry.Discard()})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewCloudServerWithStore(st, seed, dpprior.BuildOptions{Alpha: 1, Seed: 7}, telemetry.Discard())
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serve(t, srv, ln)
	return ln.Addr().String(), srv
}

// TestRestartRecoversPriorExactly is the durability acceptance test: a
// cloud restarted on the same data directory must recover the exact
// task set and prior version, and — because the builder is seeded — the
// byte-identical prior.
func TestRestartRecoversPriorExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	dir := t.TempDir()
	addr, srv := startDurableServer(t, dir, clusterTasks(rng, 4, []float64{-20, 20}, 3))

	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := c.ReportTask(clusterTask(rng, 4, 60)); err != nil {
			t.Fatalf("report %d: %v", i, err)
		}
	}
	srv.WaitCaughtUp()
	p1, v1, err := c.FetchPrior(4)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != 8 {
		t.Errorf("pre-restart version %d, want 8 (6 seed + 2 reported)", v1)
	}
	c.Close()
	if err := srv.Close(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// Restart on the same directory. The seed must not re-apply: the
	// recovered store already holds those tasks.
	addr2, srv2 := startDurableServer(t, dir, clusterTasks(rng, 4, []float64{-20, 20}, 3))
	if got := srv2.Store().Len(); got != 8 {
		t.Fatalf("recovered %d tasks, want 8", got)
	}
	srv2.WaitCaughtUp()
	c2, err := Dial(addr2, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	p2, v2, err := c2.FetchPrior(4)
	if err != nil {
		t.Fatal(err)
	}
	if v2 != v1 {
		t.Errorf("recovered prior version %d, want %d", v2, v1)
	}
	if !bytes.Equal(priorBytes(t, p1), priorBytes(t, p2)) {
		t.Error("recovered prior is not byte-identical to the pre-restart prior")
	}
}

// TestDeltaSyncSavesWireBytes is the delta acceptance test: after a
// one-cluster change, refreshing by delta must move measurably fewer
// bytes than the full-prior fetch did, and the patched prior must be
// byte-identical to what a full fetch would return.
func TestDeltaSyncSavesWireBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	dim := 8
	addr, srv := startServerCfg(t, clusterTasks(rng, dim, []float64{-30, 0, 30}, 3), nil)
	srv.WaitCaughtUp()

	// Count the bytes this connection receives: a round trip only returns
	// after the reader took in the whole response, so the counter brackets
	// one response exactly. (The server's sent counter does not: it moves
	// after the server's Write returns, which can be after the client
	// already has the response.)
	reg := telemetry.NewRegistry()
	recv := reg.Counter("delta_test_client_received_bytes")
	conn, err := dialTCP(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.ClientHandshake(conn, time.Second); err != nil {
		conn.Close()
		t.Fatal(err)
	}
	c := NewMuxClient(countConn{Conn: conn, sent: reg.Counter("delta_test_client_sent_bytes"), recv: recv})
	defer c.Close()

	before := recv.Value()
	p1, v1, err := c.FetchPrior(dim)
	if err != nil {
		t.Fatal(err)
	}
	fullBytes := recv.Value() - before

	// One new far-away cluster: the three existing components survive the
	// rebuild, so the delta ships three keeps and one add.
	if _, err := c.ReportTask(clusterTask(rng, dim, 60)); err != nil {
		t.Fatal(err)
	}
	srv.WaitCaughtUp()

	deltasBefore := telemetry.ServerPriorDelta.Value()
	savedBefore := telemetry.ServerDeltaSavedBytes.Value()
	serverBefore := telemetry.ServerSent.Value()
	before = recv.Value()
	p2, v2, err := c.FetchPriorDelta(dim, v1, p1)
	if err != nil {
		t.Fatal(err)
	}
	deltaBytes := recv.Value() - before

	if p2 == nil || v2 <= v1 {
		t.Fatalf("delta refresh returned prior=%v version %d (had %d)", p2 != nil, v2, v1)
	}
	if telemetry.ServerPriorDelta.Value() != deltasBefore+1 {
		t.Error("server did not answer with a delta")
	}
	if telemetry.ServerDeltaSavedBytes.Value() <= savedBefore {
		t.Error("delta saved-bytes counter did not advance")
	}
	if deltaBytes >= fullBytes {
		t.Errorf("delta refresh moved %v bytes, full fetch moved %v", deltaBytes, fullBytes)
	}
	want, wantV, err := srv.Prior()
	if err != nil {
		t.Fatal(err)
	}
	if v2 != wantV || !bytes.Equal(priorBytes(t, p2), priorBytes(t, want)) {
		t.Error("patched prior differs from the server's current prior")
	}

	// Already current: the refresh costs a handshake, no payload.
	p3, v3, err := c.FetchPriorDelta(dim, v2, p2)
	if err != nil || p3 != nil || v3 != v2 {
		t.Errorf("not-modified delta refresh: prior=%v version=%d err=%v", p3 != nil, v3, err)
	}
	// The server serves a connection's requests in order, so once this
	// refresh is answered the delta's write has returned and the server's
	// sent counter holds it. (Other tests' servers may add to it too.)
	if got := telemetry.ServerSent.Value() - serverBefore; got < deltaBytes {
		t.Errorf("server sent counter advanced %v bytes over the delta refresh, client received %v", got, deltaBytes)
	}
}

// TestPriorServedDuringRebuild is the latency acceptance test: while a
// background rebuild is in flight, GetPrior answers from the last built
// prior instead of waiting for the build.
func TestPriorServedDuringRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	_, srv := startServerCfg(t, clusterTasks(rng, 4, []float64{-20, 20}, 2), nil)
	srv.WaitCaughtUp()
	_, v1, err := srv.Prior()
	if err != nil {
		t.Fatal(err)
	}

	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	srv.priorMu.Lock()
	srv.buildHook = func(uint64) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
	}
	srv.priorMu.Unlock()

	if _, err := srv.AddTask(clusterTask(rng, 4, 60)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("rebuild worker never started")
	}

	// The rebuild is now stalled; Prior must still answer, promptly and
	// with the previously built version.
	done := make(chan struct{})
	var pv uint64
	go func() {
		defer close(done)
		_, pv, err = srv.Prior()
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Prior() blocked behind an in-flight rebuild")
	}
	if err != nil || pv != v1 {
		t.Fatalf("prior during rebuild: version %d err %v, want version %d", pv, err, v1)
	}

	close(release)
	srv.WaitCaughtUp()
	if _, v2, err := srv.Prior(); err != nil || v2 != v1+1 {
		t.Errorf("after release: version %d err %v, want %d", v2, err, v1+1)
	}
}

// TestColdStartRunsOneBuild: reads that find no prior yet wait for the
// worker's first build instead of running their own, so a herd of cold
// reads costs one Gibbs build, and every read gets that build's version.
func TestColdStartRunsOneBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	srv, err := NewCloudServer(nil, dpprior.BuildOptions{Alpha: 1, Seed: 7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan uint64, 1)
	release := make(chan struct{})
	srv.priorMu.Lock()
	srv.buildHook = func(v uint64) {
		select {
		case entered <- v:
		default:
		}
		<-release
	}
	srv.priorMu.Unlock()
	if _, _, err := srv.addTasks(clusterTasks(rng, 4, []float64{-20, 20}, 3), nil); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-entered:
		if v != 6 {
			t.Fatalf("worker building version %d, want 6", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("rebuild worker never started")
	}
	rebuilds := telemetry.ServerRebuilds.Value()

	const reads = 8
	var released atomic.Bool
	type read struct {
		version uint64
		err     error
		early   bool
	}
	results := make(chan read, reads)
	for i := 0; i < reads; i++ {
		go func() {
			_, v, err := srv.Prior()
			results <- read{v, err, !released.Load()}
		}()
	}
	// Time for a read that builds on its own to return before the worker
	// is released.
	time.Sleep(100 * time.Millisecond)
	released.Store(true)
	close(release)
	for i := 0; i < reads; i++ {
		r := <-results
		if r.early {
			t.Error("a cold read returned before the worker's build")
		}
		if r.err != nil || r.version != 6 {
			t.Errorf("cold read: version %d err %v, want version 6", r.version, r.err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if got := telemetry.ServerRebuilds.Value() - rebuilds; got != 1 {
		t.Errorf("%v builds for one cold version, want 1", got)
	}
}

// TestStatsPriorVersionIsBuilt: Stats reports the version of the prior
// it describes, not the store version a rebuild in flight will reach.
func TestStatsPriorVersionIsBuilt(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	_, srv := startServerCfg(t, clusterTasks(rng, 4, []float64{-20, 20}, 2), nil)
	srv.WaitCaughtUp()
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	srv.priorMu.Lock()
	srv.buildHook = func(uint64) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
	}
	srv.priorMu.Unlock()
	if _, err := srv.AddTask(clusterTask(rng, 4, 60)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("rebuild worker never started")
	}
	_, v, err := srv.Prior()
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.Stats().PriorVersion; got != v {
		t.Errorf("Stats().PriorVersion = %d during a rebuild, want the served %d", got, v)
	}
	close(release)
	srv.WaitCaughtUp()
}

// TestConcurrentReportAndDeltaFetch drives reports, full fetches, and
// delta refreshes concurrently — the store/rebuild/history machinery
// must stay consistent under the race detector.
func TestConcurrentReportAndDeltaFetch(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	dim := 4
	addr, srv := startServerCfg(t, clusterTasks(rng, dim, []float64{-20, 20}, 2), nil)
	srv.WaitCaughtUp()

	centers := []float64{-60, -20, 20, 60, 100, 140}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			c, err := Dial(addr, 5*time.Second)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer c.Close()
			for i := 0; i < 8; i++ {
				center := centers[rng.Intn(len(centers))]
				if _, err := c.ReportTask(clusterTask(rng, dim, center)); err != nil {
					t.Errorf("report: %v", err)
					return
				}
			}
		}(int64(100 + w))
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr, 5*time.Second)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer c.Close()
			prior, version, err := c.FetchPrior(dim)
			if err != nil {
				t.Errorf("initial fetch: %v", err)
				return
			}
			for i := 0; i < 12; i++ {
				p, v, err := c.FetchPriorDelta(dim, version, prior)
				if err != nil {
					t.Errorf("delta fetch: %v", err)
					return
				}
				if p != nil {
					if err := p.Validate(); err != nil {
						t.Errorf("refreshed prior invalid: %v", err)
						return
					}
					prior, version = p, v
				}
			}
		}()
	}
	wg.Wait()
	srv.WaitCaughtUp()
	if srv.Store().Len() != 4+16 {
		t.Errorf("store holds %d tasks, want 20", srv.Store().Len())
	}
}
