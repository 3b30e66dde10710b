package experiment

import (
	"fmt"
	"time"

	"github.com/drdp/drdp/internal/data"
	"github.com/drdp/drdp/internal/dro"
	"github.com/drdp/drdp/internal/edge"
	"github.com/drdp/drdp/internal/model"
	"github.com/drdp/drdp/internal/sim"
	"github.com/drdp/drdp/internal/stat"
)

// Table14PoisonedEdges sweeps the poisoned-edge fraction on the fleet
// simulator with the cloud's admission control on and off: 10 reporting
// pioneers (a fraction of them uploading adversarial posteriors crafted
// to drag the shared prior off the task distribution) followed by 8
// clean data-poor devices who depend on that prior. Reported per
// configuration: mean clean late-device accuracy, uploads rejected by
// validation, and the quarantine's precision/recall against ground-truth
// poisoners — what admission control buys the honest fleet, and whether
// it taxes honest reporters to get it.
func Table14PoisonedEdges(cfg RunConfig) (*Table, error) {
	cfg = cfg.withDefaults()
	tab := &Table{
		Title: "Table 14: poisoned edges — clean-fleet accuracy with admission control on/off",
		Columns: []string{"poisoned", "admission", "clean acc",
			"rejected", "quar prec", "quar recall"},
	}
	fracs := []float64{0, 0.15, 0.3, 0.5}
	if cfg.Fast {
		fracs = []float64{0, 0.3}
	}
	const pioneers = 10
	const late = 8
	for _, frac := range fracs {
		poisonCount := int(frac*pioneers + 0.5)
		for _, admission := range []bool{false, true} {
			var accs, rejected, precs, recalls []float64
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
					RebuildEvery: 1,
					Admission:    admission,
					TrimFrac:     0.6,
					Seed:         seed,
				}
				var specs []sim.DeviceSpec
				for i := 0; i < pioneers; i++ {
					spec := sim.DeviceSpec{
						ID: i, ArriveAt: time.Duration(i) * 10 * time.Second,
						Link: edge.LinkWiFi, Samples: 200, Report: true, Cluster: i % 2,
					}
					// Spread the poisoners evenly through the arrival order
					// so early rebuilds see them interleaved with honest
					// reports, not batched at one end.
					if ((i+1)*poisonCount)/pioneers > (i*poisonCount)/pioneers {
						spec.Poison = sim.PoisonAdversarial
					}
					specs = append(specs, spec)
				}
				for i := 0; i < late; i++ {
					specs = append(specs, sim.DeviceSpec{
						ID: pioneers + i, ArriveAt: time.Duration(120+i*5) * time.Second,
						Link: edge.LinkWiFi, Samples: 12, Cluster: i % 2,
					})
				}
				res, err := sim.Run(simCfg, specs)
				if err != nil {
					return nil, fmt.Errorf("table14: poisoned=%.0f%% admission=%v: %w",
						frac*100, admission, err)
				}
				var acc float64
				for _, d := range res.Devices {
					if d.ID >= pioneers {
						acc += d.Accuracy / late
					}
				}
				accs = append(accs, acc)
				rejected = append(rejected, float64(res.RejectedUploads))
				// Quarantine quality against ground truth: flagged = upload
				// rejected or quarantined; positive = device was a poisoner.
				var flagged, flaggedPoisoned, poisoned int
				for i, d := range res.Devices {
					isPoisoner := specs[i].Poison != sim.PoisonNone && specs[i].Report
					if isPoisoner {
						poisoned++
					}
					if d.Rejected || d.Quarantined {
						flagged++
						if isPoisoner {
							flaggedPoisoned++
						}
					}
				}
				prec, recall := 1.0, 1.0
				if flagged > 0 {
					prec = float64(flaggedPoisoned) / float64(flagged)
				}
				if poisoned > 0 {
					recall = float64(flaggedPoisoned) / float64(poisoned)
				}
				precs = append(precs, prec)
				recalls = append(recalls, recall)
			}
			mode := "off"
			if admission {
				mode = "on"
			}
			tab.AddRow(fmt.Sprintf("%.0f%%", frac*100), mode,
				Aggregate(accs).String(),
				fmt.Sprintf("%.1f", Aggregate(rejected).Mean),
				fmt.Sprintf("%.2f", Aggregate(precs).Mean),
				fmt.Sprintf("%.2f", Aggregate(recalls).Mean))
		}
	}
	return tab, nil
}
