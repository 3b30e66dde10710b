package experiment

import (
	"fmt"
	"math/rand"

	"github.com/drdp/drdp/internal/baseline"
	"github.com/drdp/drdp/internal/core"
	"github.com/drdp/drdp/internal/data"
	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/dro"
	"github.com/drdp/drdp/internal/mat"
	"github.com/drdp/drdp/internal/model"
	"github.com/drdp/drdp/internal/opt"
	"github.com/drdp/drdp/internal/stat"
)

// Scenario describes the canonical cloud+edge workload of the evaluation:
// a family of related binary tasks, K of which the cloud has solved with
// plentiful data, and one fresh edge task with scarce local data. The
// zero value is not usable; call Defaults() or set fields explicitly.
type Scenario struct {
	Dim          int     // feature dimensionality
	Clusters     int     // task-family clusters
	CloudTasks   int     // tasks the cloud has solved
	CloudSamples int     // samples per cloud task
	Spread       float64 // cluster-center norm in weight space
	Within       float64 // within-cluster task spread (relatedness dial)
	Flip         float64 // label noise
	Alpha        float64 // DP concentration used to build the prior
	Truncation   int     // prior component truncation (0 = none)
	Seed         int64
}

// Defaults returns the parameters of the main-result workload
// (Table 1 of EXPERIMENTS.md): d=20, 4 clusters, K=8 cloud tasks.
func Defaults(seed int64) Scenario {
	return Scenario{
		Dim:          20,
		Clusters:     4,
		CloudTasks:   8,
		CloudSamples: 400,
		Spread:       4,
		Within:       0.3,
		Flip:         0.05,
		Alpha:        1,
		Seed:         seed,
	}
}

// Built is a realized scenario: the trained cloud, its DP prior, and the
// edge task with generators for train/test data.
type Built struct {
	Scenario Scenario
	Family   *data.TaskFamily
	// CloudParams holds the per-task parameters the cloud trained.
	CloudParams []mat.Vec
	// Posteriors are the cloud task summaries the prior was built from.
	Posteriors []dpprior.TaskPosterior
	// Prior is the wire-format DP prior; Compiled is its fast form.
	Prior    *dpprior.Prior
	Compiled *dpprior.Compiled
	// EdgeTask is the fresh task the edge device faces (drawn from the
	// same family, cluster 0).
	EdgeTask data.LinearTask
	// Model is the edge model family (logistic with Dim features).
	Model model.Logistic

	rng *rand.Rand
}

// Build trains the cloud tasks, summarizes them with Laplace posteriors,
// constructs the DP prior and draws the edge task.
func (s Scenario) Build() (*Built, error) {
	if s.Dim <= 0 || s.Clusters <= 0 || s.CloudTasks <= 0 || s.CloudSamples <= 0 {
		return nil, fmt.Errorf("experiment: invalid scenario %+v", s)
	}
	rng := stat.NewRNG(s.Seed)
	family, err := data.NewTaskFamily(rng, s.Dim, s.Clusters, s.Spread, s.Within)
	if err != nil {
		return nil, fmt.Errorf("experiment: build family: %w", err)
	}
	m := model.Logistic{Dim: s.Dim}
	tasks := family.CloudTasks(rng, s.CloudTasks)
	b := &Built{
		Scenario: s,
		Family:   family,
		Model:    m,
		rng:      rng,
	}
	for i, task := range tasks {
		ds := task.Sample(rng, s.CloudSamples)
		params, err := (baseline.Ridge{Model: m, Lambda: 1e-3,
			Opts: opt.Options{MaxIter: 300}}).Train(ds.X, ds.Y)
		if err != nil {
			return nil, fmt.Errorf("experiment: train cloud task %d: %w", i, err)
		}
		cov, err := model.LaplacePosterior(m, params, ds.X, ds.Y, 1e-3)
		if err != nil {
			return nil, fmt.Errorf("experiment: cloud task %d posterior: %w", i, err)
		}
		b.CloudParams = append(b.CloudParams, params)
		b.Posteriors = append(b.Posteriors, dpprior.TaskPosterior{
			Mu: params, Sigma: cov, N: s.CloudSamples,
		})
	}
	prior, err := dpprior.Build(b.Posteriors, dpprior.BuildOptions{
		Alpha:         s.Alpha,
		MaxComponents: s.Truncation,
		Seed:          s.Seed + 1,
	})
	if err != nil {
		return nil, fmt.Errorf("experiment: build prior: %w", err)
	}
	compiled, err := dpprior.Compile(prior)
	if err != nil {
		return nil, fmt.Errorf("experiment: compile prior: %w", err)
	}
	b.Prior = prior
	b.Compiled = compiled
	b.EdgeTask = family.SampleTask(rng, 0)
	b.EdgeTask.Flip = s.Flip
	return b, nil
}

// EdgeData draws an n-sample local training set and a test set of
// testN samples for the edge task.
func (b *Built) EdgeData(n, testN int) (train, test *data.Dataset) {
	return b.EdgeTask.Sample(b.rng, n), b.EdgeTask.Sample(b.rng, testN)
}

// RNG exposes the scenario's seeded stream for follow-on draws.
func (b *Built) RNG() *rand.Rand { return b.rng }

// CloudMean returns the heaviest prior component's mean: the cloud's
// single best guess, used by the cloud-only and Gaussian-MAP baselines.
func (b *Built) CloudMean() mat.Vec {
	best, bestW := 0, 0.0
	for i, c := range b.Prior.Components {
		if c.Weight > bestW {
			best, bestW = i, c.Weight
		}
	}
	return mat.CloneVec(b.Prior.Components[best].Mu)
}

// Methods returns the standard trainer lineup compared throughout the
// evaluation, sharing the scenario's cloud knowledge where applicable.
// rho is the Wasserstein radius used by the robust methods; tau the DRDP
// prior weight (0 = 1/n default).
func (b *Built) Methods(rho, tau float64) []baseline.Trainer {
	m := b.Model
	cloudMean := b.CloudMean()
	return []baseline.Trainer{
		baseline.ERM{Model: m},
		baseline.Ridge{Model: m, Lambda: 0.1},
		baseline.GaussMAP{Model: m, Mu: cloudMean, Lambda: 1},
		baseline.CloudOnly{Params: cloudMean},
		baseline.FineTune{Model: m, Init: cloudMean, Steps: 10},
		baseline.DRO{Model: m, Set: dro.Set{Kind: dro.Wasserstein, Rho: rho}},
		DRDPTrainer{
			Model: m,
			Set:   dro.Set{Kind: dro.Wasserstein, Rho: rho},
			Prior: b.Compiled,
			Tau:   tau,
		},
	}
}

// DRDPTrainer adapts the core learner to the baseline.Trainer interface
// so the harness can sweep it alongside the baselines.
type DRDPTrainer struct {
	Model   model.Model
	Set     dro.Set
	Prior   *dpprior.Compiled
	Tau     float64
	EMIters int
}

var _ baseline.Trainer = DRDPTrainer{}

// Name implements baseline.Trainer.
func (d DRDPTrainer) Name() string { return "drdp" }

// Train implements baseline.Trainer.
func (d DRDPTrainer) Train(x *mat.Dense, y []float64) (mat.Vec, error) {
	opts := []core.Option{core.WithUncertaintySet(d.Set)}
	if d.Prior != nil {
		opts = append(opts, core.WithPrior(d.Prior))
	}
	if d.Tau > 0 {
		opts = append(opts, core.WithPriorWeight(d.Tau))
	}
	if d.EMIters > 0 {
		opts = append(opts, core.WithEMIters(d.EMIters, 0))
	}
	l, err := core.New(d.Model, opts...)
	if err != nil {
		return nil, fmt.Errorf("experiment: drdp: %w", err)
	}
	res, err := l.Fit(x, y)
	if err != nil {
		return nil, fmt.Errorf("experiment: drdp: %w", err)
	}
	return res.Params, nil
}
