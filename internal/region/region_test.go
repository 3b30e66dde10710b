package region

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/edge"
	"github.com/drdp/drdp/internal/mat"
	"github.com/drdp/drdp/internal/telemetry"
	"github.com/drdp/drdp/internal/wire"
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
	return serve(t, srv), srv
}

// serve runs srv on a random loopback port and returns its address. The
// test's cleanup closes srv and waits for Serve to return, so the serve
// goroutine never outlives the test; an error other than the server's
// own shutdown fails the test from there.
func serve(t *testing.T, srv interface {
	Serve(net.Listener) error
	Close() error
}) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil && !errors.Is(err, net.ErrClosed) && !strings.Contains(err.Error(), "server already closed") {
			t.Errorf("serve: %v", err)
		}
	})
	return ln.Addr().String()
}

// pending counts the stored records the next upward flush would ship.
func pending(r *Region) int {
	r.srv.WaitCaughtUp()
	tasks, seqs, _ := r.srv.Store().ViewRecords()
	verdicts := r.srv.Store().Verdicts()
	r.mu.Lock()
	defer r.mu.Unlock()
	window, _ := r.window(tasks, seqs, verdicts)
	return len(window)
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
	if got := pending(r); got != 12 {
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
	if got := pending(r); got != 0 {
		t.Errorf("Pending after flush = %d, want 0", got)
	}
	if n2, err := r.FlushUp(); err != nil || n2 != 0 {
		t.Errorf("empty flush = %d, %v", n2, err)
	}
}

// TestFlushShipsOnlyAdmitted: with the admission judge on, an upward
// window holds only records the judge has accepted. Ten far-off
// suspects arrive after forty honest tasks; the judge quarantines some
// and defers the rest past its trim budget. Neither kind may be
// summarized upward, and Pending counts exactly the window.
func TestFlushShipsOnlyAdmitted(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	addr, _ := startCloud(t, nil)
	r := startRegion(t, Config{
		Name:      "r0",
		CloudAddr: addr,
		Build:     dpprior.BuildOptions{Alpha: 1, MaxComponents: 3, Seed: 11},
		Admission: &edge.AdmissionConfig{Quarantine: true, TrimFrac: 0.05},
		Seed:      42,
		Logger:    telemetry.Discard(),
	})
	add := func(tasks []dpprior.TaskPosterior) {
		for _, task := range tasks {
			if _, err := r.Server().AddTask(task); err != nil {
				t.Fatal(err)
			}
		}
		r.Server().WaitCaughtUp()
	}
	add(synthTasks(rng, 40, 4))
	suspects := synthTasks(rng, 10, 4)
	for _, task := range suspects {
		for j := range task.Mu {
			task.Mu[j] += 50
		}
	}
	add(suspects)
	verdicts := r.Server().Store().Verdicts()
	quarantined := 0
	for _, q := range verdicts {
		if q {
			quarantined++
		}
	}
	if st := r.Server().Stats(); st.Accepted != 40 || st.Quarantined != 10 || quarantined == 0 || len(verdicts) == 50 {
		t.Fatalf("scenario did not mix verdicts and deferrals: stats %+v, %d verdicts (%d quarantine)",
			st, len(verdicts), quarantined)
	}
	before := pending(r)
	if _, err := r.FlushUp(); err != nil {
		t.Fatal(err)
	}
	if got := r.Stats().RawTasks; got != 40 {
		t.Fatalf("flush summarized %d raw tasks, want the 40 accepted", got)
	}
	if before != 40 {
		t.Fatalf("Pending before the flush = %d, want the window's 40", before)
	}
	if got := pending(r); got != 0 {
		t.Fatalf("Pending after flush = %d, want 0", got)
	}

	// Later honest tasks ship in the next window; the suspects still
	// do not.
	add(synthTasks(rng, 20, 4))
	if got := pending(r); got != 20 {
		t.Fatalf("Pending = %d, want the 20 new tasks", got)
	}
	if _, err := r.FlushUp(); err != nil {
		t.Fatal(err)
	}
	if got := r.Stats().RawTasks; got != 60 {
		t.Fatalf("two flushes summarized %d raw tasks, want 60", got)
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
	if got := pending(r); got != 0 {
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
	peerAddr := serve(t, peer.Server())

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
	if _, _, err := r.Server().Prior(); err != nil {
		t.Fatalf("no prior after gossip: %v", err)
	}
	// ...but never go upward.
	if got := pending(r); got != 0 {
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

// startSilentPeer listens for edge connections that complete the wire
// handshake and are then never answered: every request is read and
// dropped. requested receives (without blocking) when a connection's
// first request bytes arrive.
func startSilentPeer(t *testing.T) (addr string, requested <-chan struct{}) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	req := make(chan struct{}, 1)
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		conns  []net.Conn
		closed bool
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			if closed {
				mu.Unlock()
				conn.Close()
				return
			}
			conns = append(conns, conn)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				if wire.ServerHandshake(conn, conn) != nil {
					return
				}
				if _, err := conn.Read(make([]byte, 1)); err != nil {
					return
				}
				select {
				case req <- struct{}{}:
				default:
				}
				io.Copy(io.Discard, conn)
			}()
		}
	}()
	t.Cleanup(func() {
		mu.Lock()
		closed = true
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		ln.Close()
		wg.Wait()
	})
	return ln.Addr().String(), req
}

// TestGossipSilentPeerBounded: a peer that completes the handshake and
// then never answers costs one gossip round its dial timeout, not
// forever.
func TestGossipSilentPeerBounded(t *testing.T) {
	peerAddr, _ := startSilentPeer(t)
	r := startRegion(t, Config{
		Name:        "r0",
		Peers:       []string{peerAddr},
		Build:       dpprior.BuildOptions{Alpha: 1, MaxComponents: 3, Seed: 11},
		DialTimeout: 200 * time.Millisecond,
		Logger:      telemetry.Discard(),
	})
	done := make(chan error, 1)
	go func() {
		_, err := r.GossipOnce()
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("gossip with a silent peer reported no error")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("gossip with a silent peer still blocked after 2s")
	}
}

// TestFlushUpSilentCloudCloseUnblocks: a flush parked on a cloud that
// handshakes and then never answers does not wedge the region: Close
// returns promptly, the flush fails, and its window is deferred, not
// lost.
func TestFlushUpSilentCloudCloseUnblocks(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	cloudAddr, requested := startSilentPeer(t)
	r := startRegion(t, Config{
		Name:      "r0",
		CloudAddr: cloudAddr,
		Build:     dpprior.BuildOptions{Alpha: 1, MaxComponents: 3, Seed: 11},
		Seed:      42,
		Logger:    telemetry.Discard(),
	})
	for _, task := range synthTasks(rng, 6, 4) {
		if _, err := r.Server().AddTask(task); err != nil {
			t.Fatal(err)
		}
	}
	flushed := make(chan error, 1)
	go func() {
		_, err := r.FlushUp()
		flushed <- err
	}()
	// The upload is on the wire and unanswered.
	select {
	case <-requested:
	case <-time.After(5 * time.Second):
		t.Fatal("the flush never reached the cloud")
	}
	time.Sleep(200 * time.Millisecond)

	closed := make(chan error, 1)
	go func() { closed <- r.Close() }()
	select {
	case <-closed:
	case <-time.After(3 * time.Second):
		t.Fatal("Close still blocked after 3s behind a flush to a silent cloud")
	}
	select {
	case err := <-flushed:
		if err == nil {
			t.Fatal("a flush to a silent cloud succeeded")
		}
	case <-time.After(3 * time.Second):
		t.Fatal("the flush did not return after Close")
	}
	if got := r.Stats().Deferred; got != 1 {
		t.Errorf("Deferred = %d, want 1", got)
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
	addr := serve(t, r.Server())

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
