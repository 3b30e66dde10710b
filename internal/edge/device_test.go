package edge

import (
	"errors"
	"math/rand"
	"net"
	"testing"
	"time"

	"github.com/drdp/drdp/internal/data"
	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/dro"
	"github.com/drdp/drdp/internal/model"
)

// testDevice returns a small device plus matching train data.
func testDevice(t *testing.T, rng *rand.Rand) (*Device, *data.Dataset) {
	t.Helper()
	task := data.LinearTask{W: []float64{2, -1}, Flip: 0.05}
	dev := &Device{
		ID:    1,
		Model: model.Logistic{Dim: 2},
		Set:   dro.Set{Kind: dro.Wasserstein, Rho: 0.05},
	}
	return dev, task.Sample(rng, 40)
}

// deadAddr reserves then releases a port: dials to it fail fast.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func fastResilient(addr string) *ResilientClient {
	rc := DialResilient(addr, ResilientOptions{
		Retry:            RetryPolicy{MaxAttempts: 2, Base: time.Millisecond},
		DialTimeout:      200 * time.Millisecond,
		RoundTripTimeout: time.Second,
		Seed:             1,
	})
	rc.sleep = func(time.Duration) {}
	return rc
}

// TestDeviceColdStartStatus: an empty cloud is a clean local-only round,
// flagged as a cold start, with no fetch error.
func TestDeviceColdStartStatus(t *testing.T) {
	rng := rand.New(rand.NewSource(400))
	addr, _ := startServer(t, nil)
	dev, train := testDevice(t, rng)
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	res, st, err := dev.RunWithStatus(c, train.X, train.Y, false)
	if err != nil || res == nil {
		t.Fatalf("cold-start round failed: %v", err)
	}
	if st.Degradation != DegradedLocal || !st.ColdStart || st.FetchErr != nil {
		t.Errorf("cold-start status %+v", st)
	}
}

// TestDeviceTransportErrorSurfaced: without cache or fallback, a dead
// cloud fails the round instead of silently training prior-free —
// the old swallow-everything behavior is gone.
func TestDeviceTransportErrorSurfaced(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	dev, train := testDevice(t, rng)
	rc := fastResilient(deadAddr(t))
	defer rc.Close()

	res, st, err := dev.RunWithStatus(rc, train.X, train.Y, false)
	if err == nil {
		t.Fatal("dead cloud produced a result with no cache and no fallback")
	}
	if res != nil || st.Degradation != DegradedNone {
		t.Errorf("unexpected result/status: %v %+v", res, st)
	}
}

// TestDeviceFallbackLocal: with FallbackLocal the round completes
// prior-free and reports both the degradation and the cause.
func TestDeviceFallbackLocal(t *testing.T) {
	rng := rand.New(rand.NewSource(402))
	dev, train := testDevice(t, rng)
	dev.FallbackLocal = true
	rc := fastResilient(deadAddr(t))
	defer rc.Close()

	res, st, err := dev.RunWithStatus(rc, train.X, train.Y, false)
	if err != nil || res == nil {
		t.Fatalf("fallback round failed: %v", err)
	}
	if st.Degradation != DegradedLocal || st.ColdStart || st.FetchErr == nil {
		t.Errorf("fallback status %+v", st)
	}
}

// TestDeviceCacheFallback: a healthy fetch warms the cache; when the
// cloud then dies, the next round runs on the cached prior at
// DegradedCached with the cached version.
func TestDeviceCacheFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(403))
	addr, srv := startServer(t, seedTasks(rng, 4, 3)) // dim 3: logistic w + bias
	dev, train := testDevice(t, rng)
	cache, err := NewPriorCache("")
	if err != nil {
		t.Fatal(err)
	}
	dev.Cache = cache

	rc := fastResilient(addr)
	defer rc.Close()

	// Round 1: healthy. Fresh prior, cache warmed.
	_, st, err := dev.RunWithStatus(rc, train.X, train.Y, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.Degradation != DegradedNone || st.PriorVersion == 0 {
		t.Fatalf("healthy round status %+v", st)
	}
	if cache.Version() != st.PriorVersion {
		t.Fatalf("cache not warmed: %d vs %d", cache.Version(), st.PriorVersion)
	}

	// Round 2: still healthy — the conditional fetch hits NotModified and
	// the round still counts as fresh.
	_, st2, err := dev.RunWithStatus(rc, train.X, train.Y, false)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Degradation != DegradedNone || st2.PriorVersion != st.PriorVersion {
		t.Fatalf("not-modified round status %+v", st2)
	}

	// Cloud dies. Round 3 must degrade to the cached prior, not fail.
	srv.Close()
	res, st3, err := dev.RunWithStatus(rc, train.X, train.Y, false)
	if err != nil || res == nil {
		t.Fatalf("cached-fallback round failed: %v", err)
	}
	if st3.Degradation != DegradedCached || st3.FetchErr == nil {
		t.Errorf("cached-fallback status %+v", st3)
	}
	if st3.PriorVersion != st.PriorVersion {
		t.Errorf("cached version %d, want %d", st3.PriorVersion, st.PriorVersion)
	}
}

// TestDeviceReportFailureDegrades: when the upload fails mid-round under
// FallbackLocal, the model is still returned with ReportErr set.
func TestDeviceReportFailureDegrades(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	addr, srv := startServer(t, seedTasks(rng, 4, 3))
	dev, train := testDevice(t, rng)
	dev.FallbackLocal = true

	// Plain client (no retries): close the server after the fetch so the
	// report hits a dead connection.
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	reporter := &flakyReporter{Cloud: c, srv: srv}
	res, st, err := dev.RunWithStatus(reporter, train.X, train.Y, true)
	if err != nil || res == nil {
		t.Fatalf("round failed outright: %v", err)
	}
	if st.ReportErr == nil {
		t.Error("report failure not surfaced in status")
	}
}

// flakyReporter passes fetches through but kills the server before the
// report, so ReportTask hits a closed connection.
type flakyReporter struct {
	Cloud
	srv *CloudServer
}

func (f *flakyReporter) ReportTask(task dpprior.TaskPosterior) (uint64, error) {
	f.srv.Close()
	return f.Cloud.ReportTask(task)
}

// staticCloud serves one fixed prior; failingCloud fails everything
// with a transport-looking error. Together they drive the regional
// rung of the degradation ladder without sockets.
type staticCloud struct {
	prior   *dpprior.Prior
	version uint64
	reports []dpprior.TaskPosterior
}

func (s *staticCloud) FetchPrior(int) (*dpprior.Prior, uint64, error) {
	return s.prior, s.version, nil
}
func (s *staticCloud) FetchPriorIfNewer(int, uint64) (*dpprior.Prior, uint64, error) {
	return s.prior, s.version, nil
}
func (s *staticCloud) FetchPriorDelta(int, uint64, *dpprior.Prior) (*dpprior.Prior, uint64, error) {
	return s.prior, s.version, nil
}
func (s *staticCloud) ReportTask(t dpprior.TaskPosterior) (uint64, error) {
	s.reports = append(s.reports, t)
	return s.version, nil
}

type failingCloud struct{ reports int }

var errFakeLink = errors.New("edge_test: link down")

func (f *failingCloud) FetchPrior(int) (*dpprior.Prior, uint64, error) { return nil, 0, errFakeLink }
func (f *failingCloud) FetchPriorIfNewer(int, uint64) (*dpprior.Prior, uint64, error) {
	return nil, 0, errFakeLink
}
func (f *failingCloud) FetchPriorDelta(int, uint64, *dpprior.Prior) (*dpprior.Prior, uint64, error) {
	return nil, 0, errFakeLink
}
func (f *failingCloud) ReportTask(dpprior.TaskPosterior) (uint64, error) {
	f.reports++
	return 0, errFakeLink
}

// TestDeviceRegionalFallback: with the primary cloud dead and a
// regional aggregator configured, the round runs on the regional prior
// at DegradedRegional — above the cache on the ladder — and the report
// goes to the region.
func TestDeviceRegionalFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(420))
	dev, train := testDevice(t, rng)
	prior, err := dpprior.Build(seedTasks(rng, 4, 3), dpprior.BuildOptions{Alpha: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	regional := &staticCloud{prior: prior, version: 7}
	dev.Regional = regional

	res, st, err := dev.RunWithStatus(&failingCloud{}, train.X, train.Y, true)
	if err != nil || res == nil {
		t.Fatalf("regional round failed: %v", err)
	}
	if st.Degradation != DegradedRegional || st.PriorVersion != 7 || st.FetchErr == nil {
		t.Errorf("regional status %+v", st)
	}
	if len(regional.reports) != 1 {
		t.Errorf("region saw %d reports, want 1 (reports route to the region)", len(regional.reports))
	}
}

// TestDeviceLadderOrder walks one device down the full ladder:
// fresh → regional → cached → local-only, each rung forced by killing
// the next-better source.
func TestDeviceLadderOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(421))
	dev, train := testDevice(t, rng)
	prior, err := dpprior.Build(seedTasks(rng, 4, 3), dpprior.BuildOptions{Alpha: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cache, err := NewPriorCache("")
	if err != nil {
		t.Fatal(err)
	}
	dev.Cache = cache
	dev.FallbackLocal = true
	healthy := &staticCloud{prior: prior, version: 3}
	regional := &staticCloud{prior: prior, version: 9}

	var got []Degradation
	run := func(primary Cloud) {
		t.Helper()
		_, st, err := dev.RunWithStatus(primary, train.X, train.Y, false)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, st.Degradation)
	}

	run(healthy) // fresh, warms the cache
	dev.Regional = regional
	run(&failingCloud{}) // cloud dead → regional
	dev.Regional = &failingCloud{}
	run(&failingCloud{}) // region dead too → cached
	dev.Cache = nil
	run(&failingCloud{}) // cache gone → local-only

	want := []Degradation{DegradedNone, DegradedRegional, DegradedCached, DegradedLocal}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ladder = %v, want %v", got, want)
		}
	}
	if DegradedRegional.String() != "regional-prior" {
		t.Errorf("DegradedRegional.String() = %q", DegradedRegional.String())
	}
}
