package edge

import (
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/drdp/drdp/internal/data"
	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/dro"
	"github.com/drdp/drdp/internal/mat"
	"github.com/drdp/drdp/internal/model"
	"github.com/drdp/drdp/internal/wire"
)

// startServerCfg runs a cloud server on a random loopback port until the
// test ends and returns its address. configure, when non-nil, runs
// before the accept loop starts: overload knobs (MaxConns,
// HandlerTimeout, hooks) must not be mutated on a serving server.
func startServerCfg(t *testing.T, seed []dpprior.TaskPosterior, configure func(*CloudServer)) (string, *CloudServer) {
	t.Helper()
	srv, err := NewCloudServer(seed, buildOpts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if configure != nil {
		configure(srv)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serve(t, srv, ln)
	return ln.Addr().String(), srv
}

// serve runs srv on ln in a goroutine. The test's cleanup closes srv and
// waits for Serve to return, so the goroutine never outlives the test; an
// error other than the server's own shutdown fails the test from there.
func serve(t *testing.T, srv *CloudServer, ln net.Listener) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil && !isClosedErr(err) && !strings.Contains(err.Error(), "server already closed") {
			t.Errorf("serve: %v", err)
		}
	})
}

func seedTasks(rng *rand.Rand, k, dim int) []dpprior.TaskPosterior {
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

func TestFetchPriorOverTCP(t *testing.T) {
	rng := rand.New(rand.NewSource(110))
	addr, _ := startServerCfg(t, seedTasks(rng, 6, 4), nil)
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	prior, version, err := c.FetchPrior(4)
	if err != nil {
		t.Fatal(err)
	}
	if version == 0 {
		t.Error("version should be positive")
	}
	if prior.Dim != 4 {
		t.Errorf("prior dim %d", prior.Dim)
	}
	if err := prior.Validate(); err != nil {
		t.Errorf("fetched prior invalid: %v", err)
	}
	// Dim mismatch is rejected server-side.
	if _, _, err := c.FetchPrior(9); err == nil {
		t.Error("dim mismatch accepted")
	}
	// Dim 0 skips the check.
	if _, _, err := c.FetchPrior(0); err != nil {
		t.Errorf("dim 0 fetch failed: %v", err)
	}
}

func TestEmptyCloudRejectsGetPrior(t *testing.T) {
	addr, _ := startServerCfg(t, nil, nil)
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.FetchPrior(3); err == nil || !strings.Contains(err.Error(), "no tasks") {
		t.Errorf("expected no-tasks error, got %v", err)
	}
}

func TestReportTaskUpdatesPrior(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	addr, srv := startServerCfg(t, nil, nil)
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i, task := range seedTasks(rng, 3, 5) {
		v, err := c.ReportTask(task)
		if err != nil {
			t.Fatalf("report %d: %v", i, err)
		}
		if v != uint64(i+1) {
			t.Errorf("version after report %d = %d", i, v)
		}
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Tasks != 3 {
		t.Errorf("stats.Tasks = %d", stats.Tasks)
	}
	if stats.WireBytes == 0 || stats.Components == 0 {
		t.Errorf("stats incomplete: %+v", stats)
	}
	// In-process view agrees.
	if got := srv.Stats(); got.Tasks != 3 {
		t.Errorf("server stats %+v", got)
	}
	// Now the prior is fetchable.
	if _, _, err := c.FetchPrior(5); err != nil {
		t.Errorf("fetch after reports: %v", err)
	}
}

func TestConditionalFetch(t *testing.T) {
	rng := rand.New(rand.NewSource(116))
	addr, _ := startServerCfg(t, seedTasks(rng, 3, 4), nil)
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Initial fetch establishes the version.
	prior, version, err := c.FetchPrior(4)
	if err != nil {
		t.Fatal(err)
	}
	if prior == nil {
		t.Fatal("initial fetch returned no prior")
	}
	// Refresh with the current version: no payload.
	p2, v2, err := c.FetchPriorIfNewer(4, version)
	if err != nil {
		t.Fatal(err)
	}
	if p2 != nil {
		t.Error("unchanged prior was re-shipped")
	}
	if v2 != version {
		t.Errorf("version changed on idle refresh: %d -> %d", version, v2)
	}
	// A report bumps the version. A read whose floor is the acked version
	// waits at the leader for the rebuild that folds the report in, and
	// from then on the conditional fetch ships.
	acked, err := c.ReportTask(seedTasks(rng, 1, 4)[0])
	if err != nil {
		t.Fatal(err)
	}
	if pf, vf, err := c.FetchPriorDeltaMin(4, version, acked, prior); err != nil || pf == nil || vf < acked {
		t.Fatalf("read with floor %d right after the report: prior=%v version %d, %v", acked, pf != nil, vf, err)
	}
	p3, v3, err := c.FetchPriorIfNewer(4, version)
	if err != nil {
		t.Fatal(err)
	}
	if p3 == nil {
		t.Error("updated prior not shipped")
	}
	if v3 == version {
		t.Error("version did not advance after a report")
	}
	// KnownVersion 0 always ships.
	p4, _, err := c.FetchPriorIfNewer(4, 0)
	if err != nil || p4 == nil {
		t.Errorf("unconditional fetch failed: %v, %v", p4, err)
	}
}

func TestReportTaskValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(112))
	addr, _ := startServerCfg(t, seedTasks(rng, 2, 3), nil)
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Dim mismatch with existing tasks.
	bad := seedTasks(rng, 1, 7)[0]
	if _, err := c.ReportTask(bad); err == nil {
		t.Error("dim-mismatched task accepted")
	}
	// Incomplete task.
	if _, err := c.ReportTask(dpprior.TaskPosterior{}); err == nil {
		t.Error("empty task accepted")
	}
}

func TestConcurrentClients(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	addr, _ := startServerCfg(t, seedTasks(rng, 4, 3), nil)
	const clients = 16
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := Dial(addr, time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for rep := 0; rep < 5; rep++ {
				if _, _, err := c.FetchPrior(3); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestServerAddTaskErrors(t *testing.T) {
	srv, err := NewCloudServer(nil, dpprior.BuildOptions{Alpha: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := srv.AddTask(dpprior.TaskPosterior{Mu: mat.Vec{1}, Sigma: mat.NewDense(2, 2)}); err == nil {
		t.Error("shape mismatch accepted")
	}
	if _, err := NewCloudServer(nil, dpprior.BuildOptions{}, nil); err == nil {
		t.Error("alpha=0 accepted")
	}
}

func TestLinkProfiles(t *testing.T) {
	// 1 MB over WiFi ≈ 2ms + 0.16s; over 3G ≈ 0.12s + 4s. Orderings must hold.
	const mb = 1 << 20
	wifi := LinkWiFi.TransferTime(mb)
	lte := Link4G.TransferTime(mb)
	g3 := Link3G.TransferTime(mb)
	if !(wifi < lte && lte < g3) {
		t.Errorf("transfer times out of order: wifi=%v 4g=%v 3g=%v", wifi, lte, g3)
	}
	// Zero payload still pays latency.
	if got := Link3G.TransferTime(0); got != Link3G.Latency {
		t.Errorf("zero payload time %v", got)
	}
}

func TestThrottledConnZeroBandwidthPanics(t *testing.T) {
	// A zero-bandwidth profile must fail loudly, not sleep(+Inf).
	bad := LinkProfile{Name: "dead"}
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	conn := bad.Throttle(a)
	defer func() {
		if recover() == nil {
			t.Error("zero-bandwidth Write did not panic")
		}
	}()
	conn.Write([]byte("x"))
}

func TestThrottledConnDelays(t *testing.T) {
	// A profile with tiny bandwidth must make the write measurably slow.
	rng := rand.New(rand.NewSource(114))
	addr, _ := startServerCfg(t, seedTasks(rng, 2, 3), nil)
	raw, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	raw.Close()

	slow := LinkProfile{Name: "test", Latency: 30 * time.Millisecond, Bandwidth: 1e9}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.ClientHandshake(conn, time.Second); err != nil {
		t.Fatal(err)
	}
	c := NewMuxClient(slow.Throttle(conn))
	defer c.Close()
	start := time.Now()
	if _, _, err := c.FetchPrior(3); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Errorf("throttled fetch took only %v", elapsed)
	}
}

func TestDeviceRunLoop(t *testing.T) {
	// Full loop: cold cloud; device 0 trains locally and reports; device 1
	// then receives a prior built from device 0's task and trains with it.
	rng := rand.New(rand.NewSource(115))
	addr, srv := startServerCfg(t, nil, nil)
	task := data.LinearTask{W: mat.Vec{2, -1}, Flip: 0.05}
	m := model.Logistic{Dim: 2}

	dev0 := &Device{ID: 0, Model: m, Set: dro.Set{Kind: dro.Wasserstein, Rho: 0.05}}
	c0, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c0.Close()
	ds0 := task.Sample(rng, 200)
	if _, err := dev0.Run(c0, ds0.X, ds0.Y, true); err != nil {
		t.Fatal(err)
	}
	if srv.Stats().Tasks != 1 {
		t.Fatalf("cloud has %d tasks after report", srv.Stats().Tasks)
	}

	dev1 := &Device{ID: 1, Model: m, Set: dro.Set{Kind: dro.Wasserstein, Rho: 0.05}, Tau: 0.5, EMIters: 10}
	c1, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	ds1 := task.Sample(rng, 10) // scarce local data
	res, err := dev1.Run(c1, ds1.X, ds1.Y, false)
	if err != nil {
		t.Fatal(err)
	}
	// With the prior from a well-trained sibling, test accuracy on fresh
	// data should beat chance comfortably.
	test := task.Sample(rng, 500)
	if acc := model.Accuracy(m, res.Params, test.X, test.Y); acc < 0.8 {
		t.Errorf("prior-assisted accuracy %v", acc)
	}
}
