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

// TestSimDevicesFitThroughCore asserts that every simulated device
// trains through the real learner: one run adds one
// drdp_core_fits_total per device to the process-wide registry, the
// same count a live fleet's devices would add.
func TestSimDevicesFitThroughCore(t *testing.T) {
	before := telemetry.Snapshot()
	res, err := Run(simConfig(t, 216), fleet(2, 2, edge.Link3G))
	if err != nil {
		t.Fatal(err)
	}
	after := telemetry.Snapshot()
	if got := after.CounterDelta(before, "drdp_core_fits_total"); got != float64(len(res.Devices)) {
		t.Errorf("core fits delta = %g, want %d", got, len(res.Devices))
	}
}
