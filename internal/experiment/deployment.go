package experiment

import (
	"fmt"
	"time"

	"github.com/drdp/drdp/internal/core"
	"github.com/drdp/drdp/internal/data"
	"github.com/drdp/drdp/internal/dro"
	"github.com/drdp/drdp/internal/edge"
	"github.com/drdp/drdp/internal/model"
	"github.com/drdp/drdp/internal/sim"
	"github.com/drdp/drdp/internal/stat"
)

// Table9Deployment runs the discrete-event fleet simulator across link
// profiles and cloud rebuild policies: 4 data-rich pioneers bootstrap the
// cloud, then 8 data-poor devices arrive. Reported per configuration:
// mean late-device accuracy, mean late-device time-to-model, cloud
// rebuild count and total traffic.
func Table9Deployment(cfg RunConfig) (*Table, error) {
	cfg = cfg.withDefaults()
	tab := &Table{
		Title: "Table 9: fleet deployment simulation (4 pioneers + 8 late devices)",
		Columns: []string{"link", "rebuild", "late acc", "late ttm",
			"rebuilds", "KB down", "KB up"},
	}
	links := []edge.LinkProfile{edge.LinkWiFi, edge.Link4G, edge.Link3G}
	if cfg.Fast {
		links = []edge.LinkProfile{edge.LinkWiFi, edge.Link3G}
	}
	for _, link := range links {
		for _, rebuildEvery := range []int{1, 4} {
			var accs, ttms, rebuilds, down, up []float64
			for _, seed := range Seeds(cfg.Seed, cfg.Reps) {
				rng := stat.NewRNG(seed)
				family, err := data.NewTaskFamily(rng, 8, 2, 5, 0.2)
				if err != nil {
					return nil, err
				}
				simCfg := sim.Config{
					Family:       family,
					Model:        model.Logistic{Dim: 8},
					Set:          dro.Set{Kind: dro.Wasserstein, Rho: 0.05},
					Alpha:        1,
					RebuildEvery: rebuildEvery,
					Flip:         0.05,
					Seed:         seed,
				}
				var specs []sim.DeviceSpec
				for i := 0; i < 4; i++ {
					specs = append(specs, sim.DeviceSpec{
						ID: i, ArriveAt: time.Duration(i) * 10 * time.Second,
						Link: link, Samples: 200, Report: true, Cluster: i % 2,
					})
				}
				for i := 0; i < 8; i++ {
					specs = append(specs, sim.DeviceSpec{
						ID: 4 + i, ArriveAt: time.Duration(60+i*5) * time.Second,
						Link: link, Samples: 12, Cluster: i % 2,
					})
				}
				res, err := sim.Run(simCfg, specs)
				if err != nil {
					return nil, fmt.Errorf("table9: %s rebuild=%d: %w", link.Name, rebuildEvery, err)
				}
				var acc, ttm float64
				for _, d := range res.Devices {
					if d.ID >= 4 {
						acc += d.Accuracy / 8
						ttm += d.TimeToModel.Seconds() / 8
					}
				}
				accs = append(accs, acc)
				ttms = append(ttms, ttm)
				rebuilds = append(rebuilds, float64(res.Rebuilds))
				down = append(down, float64(res.BytesDown)/1024)
				up = append(up, float64(res.BytesUp)/1024)
			}
			tab.AddRow(link.Name, fmt.Sprintf("every %d", rebuildEvery),
				Aggregate(accs).String(),
				fmt.Sprintf("%.2fs", Aggregate(ttms).Mean),
				fmt.Sprintf("%.0f", Aggregate(rebuilds).Mean),
				fmt.Sprintf("%.1f", Aggregate(down).Mean),
				fmt.Sprintf("%.1f", Aggregate(up).Mean))
		}
	}
	return tab, nil
}

// Figure11DriftTracking streams batches from a rotating (concept-drift)
// task and compares three streaming policies on accuracy against the
// CURRENT distribution: accumulate-everything online learning, sliding-
// window online learning, and a static model frozen after the first two
// batches.
func Figure11DriftTracking(cfg RunConfig) (*Series, error) {
	cfg = cfg.withDefaults()
	steps := 10
	if cfg.Fast {
		steps = 5
	}
	const batchSize = 40
	const dim = 8
	rng := stat.NewRNG(cfg.Seed + 7)
	task, err := data.NewDriftingTask(rng, dim, 4, 0.12, 0.05)
	if err != nil {
		return nil, err
	}
	m := model.Logistic{Dim: dim}
	set := dro.Set{Kind: dro.Wasserstein, Rho: 0.05}
	mk := func() (*core.Learner, error) {
		return core.New(m, core.WithUncertaintySet(set))
	}
	lAll, err := mk()
	if err != nil {
		return nil, err
	}
	onlineAll, err := core.NewOnline(lAll)
	if err != nil {
		return nil, err
	}
	lWin, err := mk()
	if err != nil {
		return nil, err
	}
	onlineWin, err := core.NewOnlineWindow(lWin, 2*batchSize)
	if err != nil {
		return nil, err
	}

	xs := make([]float64, steps)
	accAll := make([]float64, steps)
	accWin := make([]float64, steps)
	accStatic := make([]float64, steps)
	var static []float64
	for t := 0; t < steps; t++ {
		xs[t] = float64(t)
		batch := task.SampleAt(rng, t, batchSize)
		test := task.SampleAt(rng, t, testSamples)

		resAll, err := onlineAll.Observe(batch.X, batch.Y)
		if err != nil {
			return nil, err
		}
		accAll[t] = model.Accuracy(m, resAll.Params, test.X, test.Y)

		resWin, err := onlineWin.Observe(batch.X, batch.Y)
		if err != nil {
			return nil, err
		}
		accWin[t] = model.Accuracy(m, resWin.Params, test.X, test.Y)

		if t == 1 {
			static = append([]float64(nil), resAll.Params...)
		}
		if static != nil {
			accStatic[t] = model.Accuracy(m, static, test.X, test.Y)
		} else {
			accStatic[t] = accAll[t] // before freezing they coincide
		}
	}
	ser := &Series{
		Title:  "Figure 11: accuracy on the current distribution under concept drift",
		XLabel: "stream step",
		X:      xs,
	}
	ser.Add("online-all", accAll)
	ser.Add("online-window", accWin)
	ser.Add("static-after-2", accStatic)
	return ser, nil
}
