package sim

import (
	"math/rand"
	"testing"
	"time"

	"github.com/drdp/drdp/internal/data"
	"github.com/drdp/drdp/internal/dro"
	"github.com/drdp/drdp/internal/edge"
	"github.com/drdp/drdp/internal/model"
	"github.com/drdp/drdp/internal/telemetry"
)

func simConfig(t *testing.T, seed int64) Config {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	family, err := data.NewTaskFamily(rng, 6, 2, 5, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Family: family,
		Model:  model.Logistic{Dim: 6},
		Set:    dro.Set{Kind: dro.Wasserstein, Rho: 0.05},
		Alpha:  1,
		Flip:   0.05,
		Seed:   seed,
	}
}

// fleet builds a pioneer/late-arrival fleet: early data-rich reporters,
// then data-poor consumers.
func fleet(pioneers, late int, link edge.LinkProfile) []DeviceSpec {
	var specs []DeviceSpec
	for i := 0; i < pioneers; i++ {
		specs = append(specs, DeviceSpec{
			ID: i, ArriveAt: time.Duration(i) * time.Second,
			Link: link, Samples: 200, Report: true, Cluster: i % 2,
		})
	}
	for i := 0; i < late; i++ {
		specs = append(specs, DeviceSpec{
			ID: pioneers + i, ArriveAt: time.Duration(100+i) * time.Second,
			Link: link, Samples: 12, Report: false, Cluster: i % 2,
		})
	}
	return specs
}

func TestSimPioneersBootstrapLateDevices(t *testing.T) {
	cfg := simConfig(t, 210)
	res, err := Run(cfg, fleet(4, 4, edge.LinkWiFi))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Devices) != 8 {
		t.Fatalf("got %d device results", len(res.Devices))
	}
	// The first pioneer sees a cold cloud; later pioneers may already see
	// earlier reports (they arrive seconds apart); late devices must see
	// a warm prior.
	var pioneerAcc, lateAcc float64
	for _, d := range res.Devices {
		if d.ID < 4 {
			if d.ID == 0 && d.FetchedVersion != 0 {
				t.Errorf("pioneer 0 fetched version %d, want 0 (cold cloud)", d.FetchedVersion)
			}
			pioneerAcc += d.Accuracy / 4
		} else {
			if d.FetchedVersion == 0 {
				t.Errorf("late device %d fetched a cold cloud", d.ID)
			}
			if d.PriorComponents == 0 {
				t.Errorf("late device %d got an empty prior", d.ID)
			}
			lateAcc += d.Accuracy / 4
		}
	}
	if lateAcc < 0.75 {
		t.Errorf("late devices (12 samples + prior) mean accuracy %v", lateAcc)
	}
	if res.FinalVersion != 4 || res.Rebuilds != 4 {
		t.Errorf("cloud version %d rebuilds %d, want 4/4", res.FinalVersion, res.Rebuilds)
	}
	if res.BytesUp == 0 || res.BytesDown == 0 {
		t.Errorf("traffic accounting empty: %+v", res)
	}
}

func TestSimBatchedRebuildPolicy(t *testing.T) {
	cfg := simConfig(t, 211)
	cfg.RebuildEvery = 4
	res, err := Run(cfg, fleet(4, 2, edge.LinkWiFi))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rebuilds != 1 {
		t.Errorf("batched policy rebuilt %d times, want 1", res.Rebuilds)
	}
}

func TestSimLinkAffectsTimeToModel(t *testing.T) {
	cfgA := simConfig(t, 212)
	wifi, err := Run(cfgA, fleet(2, 2, edge.LinkWiFi))
	if err != nil {
		t.Fatal(err)
	}
	cfgB := simConfig(t, 212)
	g3, err := Run(cfgB, fleet(2, 2, edge.Link3G))
	if err != nil {
		t.Fatal(err)
	}
	// Compare the late devices (they pay a real prior downlink).
	var wifiTTM, g3TTM time.Duration
	for i, d := range wifi.Devices {
		if d.ID >= 2 {
			wifiTTM += d.TimeToModel
			g3TTM += g3.Devices[i].TimeToModel
		}
	}
	if g3TTM <= wifiTTM {
		t.Errorf("3G time-to-model %v should exceed WiFi %v", g3TTM, wifiTTM)
	}
}

func TestSimOverlappingLifecycles(t *testing.T) {
	// A device that arrives while a pioneer is still training must see
	// the pre-report prior (version 0 here): event ordering correctness.
	cfg := simConfig(t, 213)
	cfg.ComputeRate = 1e3 // training takes a long simulated time
	specs := []DeviceSpec{
		{ID: 0, ArriveAt: 0, Link: edge.LinkWiFi, Samples: 100, Report: true},
		{ID: 1, ArriveAt: time.Second, Link: edge.LinkWiFi, Samples: 10},
	}
	res, err := Run(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Devices[1].FetchedVersion != 0 {
		t.Errorf("device 1 fetched version %d while pioneer still training", res.Devices[1].FetchedVersion)
	}
}

func TestSimValidation(t *testing.T) {
	cfg := simConfig(t, 214)
	if _, err := Run(Config{}, fleet(1, 0, edge.LinkWiFi)); err == nil {
		t.Error("missing family accepted")
	}
	if _, err := Run(cfg, nil); err == nil {
		t.Error("no devices accepted")
	}
	if _, err := Run(cfg, []DeviceSpec{{ID: 0, Samples: 0, Link: edge.LinkWiFi}}); err == nil {
		t.Error("zero samples accepted")
	}
}

func TestSimDeterministic(t *testing.T) {
	r1, err := Run(simConfig(t, 215), fleet(2, 2, edge.Link4G))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(simConfig(t, 215), fleet(2, 2, edge.Link4G))
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Devices {
		if r1.Devices[i].Accuracy != r2.Devices[i].Accuracy ||
			r1.Devices[i].TimeToModel != r2.Devices[i].TimeToModel {
			t.Fatalf("nondeterministic at device %d", i)
		}
	}
}

// lossyFleet marks every device's link with the given loss rate.
func lossyFleet(pioneers, late int, link edge.LinkProfile, loss float64) []DeviceSpec {
	specs := fleet(pioneers, late, link)
	for i := range specs {
		specs[i].LossRate = loss
	}
	return specs
}

func TestSimLossyLinkDegradesAndRetries(t *testing.T) {
	cfg := simConfig(t, 216)
	cfg.Retry = edge.RetryPolicy{MaxAttempts: 3, Base: 50 * time.Millisecond, Multiplier: 2}

	// Total loss: every fetch exhausts its retries, every device trains
	// prior-free, every report is lost.
	res, err := Run(cfg, lossyFleet(2, 2, edge.Link3G, 1.0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded != 4 || res.ReportsLost != 2 {
		t.Fatalf("total loss: degraded=%d reportsLost=%d", res.Degraded, res.ReportsLost)
	}
	if res.FinalVersion != 0 || res.BytesDown != 0 || res.BytesUp != 0 {
		t.Errorf("traffic crossed a fully lossy link: %+v", res)
	}
	for _, d := range res.Devices {
		if !d.Degraded || d.FetchedVersion != 0 {
			t.Errorf("device %d not degraded under total loss: %+v", d.ID, d)
		}
		if d.Retries == 0 {
			t.Errorf("device %d recorded no retries under total loss", d.ID)
		}
	}

	// Moderate loss: the run completes, retries appear, and waste makes
	// time-to-model no better than the lossless fleet's.
	lossless, err := Run(simConfig(t, 216), fleet(2, 2, edge.Link3G))
	if err != nil {
		t.Fatal(err)
	}
	lossy, err := Run(cfg, lossyFleet(2, 2, edge.Link3G, 0.4))
	if err != nil {
		t.Fatal(err)
	}
	var retries int
	for _, d := range lossy.Devices {
		retries += d.Retries
	}
	if retries == 0 {
		t.Error("40% loss produced zero retries across the fleet")
	}
	var ttmLossless, ttmLossy time.Duration
	for i := range lossless.Devices {
		ttmLossless += lossless.Devices[i].TimeToModel
		ttmLossy += lossy.Devices[i].TimeToModel
	}
	if ttmLossy < ttmLossless {
		t.Errorf("lossy fleet was faster: %v < %v", ttmLossy, ttmLossless)
	}
}

func TestSimLossyDeterministic(t *testing.T) {
	mk := func() (*Result, error) {
		cfg := simConfig(t, 217)
		cfg.Retry = edge.RetryPolicy{MaxAttempts: 3, Base: 20 * time.Millisecond, Jitter: 0.3}
		return Run(cfg, lossyFleet(2, 2, edge.Link4G, 0.3))
	}
	r1, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Devices {
		a, b := r1.Devices[i], r2.Devices[i]
		if a.Retries != b.Retries || a.Degraded != b.Degraded || a.TimeToModel != b.TimeToModel {
			t.Fatalf("lossy run nondeterministic at device %d: %+v vs %+v", i, a, b)
		}
	}
}

// TestSimDevicesFitThroughCore asserts that every simulated device
// trains through the real learner: one run over a lossy fleet adds one
// drdp_core_fits_total per device to the process-wide registry, the
// same count a live fleet's devices would add.
func TestSimDevicesFitThroughCore(t *testing.T) {
	cfg := simConfig(t, 216)
	cfg.Retry = edge.RetryPolicy{MaxAttempts: 3, Base: 50 * time.Millisecond, Multiplier: 2}

	before := telemetry.Snapshot()
	res, err := Run(cfg, lossyFleet(2, 2, edge.Link3G, 0.4))
	if err != nil {
		t.Fatal(err)
	}
	after := telemetry.Snapshot()
	if got := after.CounterDelta(before, "drdp_core_fits_total"); got != float64(len(res.Devices)) {
		t.Errorf("core fits delta = %g, want %d", got, len(res.Devices))
	}
}

// TestSimCloudRestart exercises the outage/recovery scenario: the cloud
// dies mid-run, refreshing devices fall back to their held priors,
// devices arriving during the outage train prior-free, and after the
// cloud recovers (durable state intact, delta history lost) the fleet
// resynchronizes — in full right after the restart, by delta once the
// history refills.
func TestSimCloudRestart(t *testing.T) {
	cfg := simConfig(t, 321)
	cfg.OutageStart = 60 * time.Second
	cfg.OutageEnd = 120 * time.Second

	var specs []DeviceSpec
	for i := 0; i < 4; i++ {
		specs = append(specs, DeviceSpec{
			ID: i, ArriveAt: time.Duration(i) * time.Second,
			Link: edge.LinkWiFi, Samples: 200, Report: true, Cluster: i % 2,
			RefreshEvery: 20 * time.Second, Refreshes: 8,
		})
	}
	// Arrives while the cloud is down: must degrade, then resync later.
	specs = append(specs, DeviceSpec{
		ID: 4, ArriveAt: 70 * time.Second,
		Link: edge.LinkWiFi, Samples: 12, Cluster: 0,
		RefreshEvery: 20 * time.Second, Refreshes: 5,
	})
	// Arrives after recovery: reports so the post-restart history refills
	// and later refreshes can go by delta again.
	specs = append(specs, DeviceSpec{
		ID: 5, ArriveAt: 130 * time.Second,
		Link: edge.LinkWiFi, Samples: 200, Report: true, Cluster: 1,
	})

	res, err := Run(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("totals: refreshes=%d delta=%d full=%d cached=%d saved=%dB finalVersion=%d degraded=%d",
		res.Refreshes, res.DeltaRefreshes, res.FullRefreshes, res.CachedFallbacks,
		res.DeltaBytesSaved, res.FinalVersion, res.Degraded)

	// During the outage every refresh must fall back to the held prior.
	if res.CachedFallbacks == 0 {
		t.Error("no cached fallbacks during a 60s outage")
	}
	// After recovery the delta history is gone, so resyncs go full first;
	// once post-restart reports refill it, at least one refresh must have
	// gone by delta and saved bytes.
	if res.FullRefreshes == 0 {
		t.Error("no full resyncs after the restart")
	}
	if res.DeltaRefreshes == 0 || res.DeltaBytesSaved <= 0 {
		t.Errorf("delta refreshes=%d saved=%dB; delta sync never engaged",
			res.DeltaRefreshes, res.DeltaBytesSaved)
	}
	for _, d := range res.Devices {
		switch {
		case d.ID <= 3:
			// Pioneers refresh through the outage: some rounds fell back,
			// and the final rounds resynchronized to the current prior.
			if d.Refreshes != 8 {
				t.Errorf("pioneer %d ran %d refreshes, want 8", d.ID, d.Refreshes)
			}
			if d.CachedFallbacks == 0 {
				t.Errorf("pioneer %d never fell back during the outage", d.ID)
			}
			if d.FinalVersion != res.FinalVersion {
				t.Errorf("pioneer %d ended at version %d, fleet is at %d",
					d.ID, d.FinalVersion, res.FinalVersion)
			}
		case d.ID == 4:
			// Arrived mid-outage: trained prior-free, resynced afterwards.
			if !d.Degraded || d.FetchedVersion != 0 {
				t.Errorf("mid-outage device: degraded=%v fetched=%d, want prior-free arrival",
					d.Degraded, d.FetchedVersion)
			}
			if d.FinalVersion != res.FinalVersion {
				t.Errorf("mid-outage device ended at version %d, fleet is at %d",
					d.FinalVersion, res.FinalVersion)
			}
		case d.ID == 5:
			// Arrived after recovery: a normal warm fetch off the durable
			// state, no degradation.
			if d.Degraded || d.FetchedVersion == 0 {
				t.Errorf("post-recovery device: degraded=%v fetched=%d, want warm fetch",
					d.Degraded, d.FetchedVersion)
			}
		}
	}
}
