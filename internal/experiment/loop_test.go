package experiment

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/drdp/drdp/internal/data"
	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/dro"
	"github.com/drdp/drdp/internal/model"
	"github.com/drdp/drdp/internal/stat"
)

// The closed loop's geometry: pioneers fit without a prior at n = 200
// build the first prior; then devices fit at n = 40 under the served
// prior and upload their Laplace posteriors, and the cloud rebuilds from
// the whole pool after every loopBatch uploads.
const (
	loopDim, loopClusters, loopPioneers            = 16, 8, 256
	loopPioneerN, loopDeviceN                      = 200, 40
	loopUploads, loopBatch, loopHeldOut, loopTestN = 384, 64, 64, 2000
)

var loopNs = []int{5, 20, 40}

// loopRow is one served prior's record: component count, mean served
// per-coordinate variance, mean KL of each component to its nearest
// pioneer component, and held-out accuracy per n in loopNs.
type loopRow struct {
	label    string
	comps    int
	variance float64
	kl       float64
	acc      []float64
}

// runClosedLoop runs the loop at seed and returns the local-only row,
// the pioneer prior's row and one row per rebuild.
func runClosedLoop(t *testing.T, seed int64) []loopRow {
	t.Helper()
	rng := stat.NewRNG(seed)
	family, err := data.NewTaskFamily(rng, loopDim, loopClusters, 4, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	family.Flip = 0.05
	m := model.Logistic{Dim: loopDim}
	set := dro.Set{Kind: dro.Wasserstein, Rho: 0.05}
	fit := func(prior *dpprior.Compiled, ds *data.Dataset) dpprior.TaskPosterior {
		params, err := DRDPTrainer{Model: m, Set: set, Prior: prior}.Train(ds.X, ds.Y)
		if err != nil {
			t.Fatal(err)
		}
		cov, err := model.LaplacePosterior(m, params, ds.X, ds.Y, 1e-3)
		if err != nil {
			t.Fatal(err)
		}
		return dpprior.TaskPosterior{Mu: params, Sigma: cov, N: ds.Len()}
	}
	// Held-out tasks and their data are drawn once, so rows differ only
	// by the prior they fit under.
	type heldOut struct{ train, test *data.Dataset }
	held := make([]heldOut, loopHeldOut)
	for i, task := range family.CloudTasks(rng, loopHeldOut) {
		held[i] = heldOut{task.Sample(rng, loopDeviceN), task.Sample(rng, loopTestN)}
	}
	accuracy := func(prior *dpprior.Compiled) []float64 {
		acc := make([]float64, len(loopNs))
		for k, n := range loopNs {
			for _, h := range held {
				idx := make([]int, n)
				for i := range idx {
					idx[i] = i
				}
				p := fit(prior, h.train.Subset(idx))
				acc[k] += model.Accuracy(m, p.Mu, h.test.X, h.test.Y) / loopHeldOut
			}
		}
		return acc
	}

	var pool []dpprior.TaskPosterior
	for _, task := range family.CloudTasks(rng, loopPioneers) {
		pool = append(pool, fit(nil, task.Sample(rng, loopPioneerN)))
	}
	var pioneers []*stat.MVNormal
	rows := []loopRow{{label: "none (local only)", acc: accuracy(nil)}}
	build := func(label string) *dpprior.Compiled {
		prior, err := dpprior.Build(pool, dpprior.BuildOptions{Alpha: 1, Seed: seed + 1})
		if err != nil {
			t.Fatal(err)
		}
		compiled, err := dpprior.Compile(prior)
		if err != nil {
			t.Fatal(err)
		}
		row := loopRow{label: label, comps: len(prior.Components)}
		var comps []*stat.MVNormal
		for _, c := range prior.Components {
			g, err := stat.NewMVNormal(c.Mu, c.Sigma)
			if err != nil {
				t.Fatal(err)
			}
			comps = append(comps, g)
			row.variance += c.Sigma.Trace() / float64(len(c.Mu)) / float64(row.comps)
		}
		if pioneers == nil {
			pioneers = comps
		}
		for _, g := range comps {
			nearest := math.Inf(1)
			for _, p := range pioneers {
				nearest = math.Min(nearest, stat.KLNormal(g, p))
			}
			row.kl += nearest / float64(row.comps)
		}
		row.acc = accuracy(compiled)
		rows = append(rows, row)
		return compiled
	}
	served := build("pioneers")
	devices := family.CloudTasks(rng, loopUploads)
	for i, task := range devices {
		pool = append(pool, fit(served, task.Sample(rng, loopDeviceN)))
		if (i+1)%loopBatch == 0 {
			served = build(fmt.Sprintf("after %d uploads", i+1))
		}
	}
	return rows
}

// TestClosedLoopErodesPrior records the closed loop: devices that fit
// under the served prior and upload their posteriors erode it, merging
// the pioneers' clusters and widening what is served. The loop keeps
// its prior when at least 6 of the 8 clusters survive every rebuild and
// n = 20 accuracy stays within 0.01 of the pioneer prior's. Today it does
// not; the prior model that stops the erosion must flip this test.
func TestClosedLoopErodesPrior(t *testing.T) {
	if testing.Short() {
		t.Skip("closed-loop probe; skip in -short")
	}
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rows := runClosedLoop(t, seed)
			var b strings.Builder
			fmt.Fprintf(&b, "seed %d\n| prior | comps | mean var | KL to pioneers | n = 5 | n = 20 | n = 40 |\n|---|---|---|---|---|---|---|\n", seed)
			for _, r := range rows {
				comps, variance, kl := "–", "–", "–"
				if r.comps > 0 {
					comps, variance, kl = fmt.Sprint(r.comps), fmt.Sprintf("%.3f", r.variance), fmt.Sprintf("%.2f", r.kl)
				}
				fmt.Fprintf(&b, "| %s | %s | %s | %s | %.3f | %.3f | %.3f |\n", r.label, comps, variance, kl, r.acc[0], r.acc[1], r.acc[2])
			}
			t.Log(b.String())
			keeps := true
			for _, r := range rows[1:] {
				keeps = keeps && r.comps >= 6
			}
			last := rows[len(rows)-1]
			keeps = keeps && last.acc[1] >= rows[1].acc[1]-0.01
			if keeps {
				t.Errorf("seed %d: the loop kept its prior; record the fix in EXPERIMENTS.md and flip this test", seed)
			}
		})
	}
}
