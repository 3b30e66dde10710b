package experiment

import (
	"fmt"
	"time"

	"github.com/drdp/drdp/internal/baseline"
	"github.com/drdp/drdp/internal/core"
	"github.com/drdp/drdp/internal/data"
	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/dro"
	"github.com/drdp/drdp/internal/fed"
	"github.com/drdp/drdp/internal/model"
	"github.com/drdp/drdp/internal/stat"
)

// Table5PriorFitAblation reports what the cloud's collapsed-Gibbs prior
// builder makes of the Table-1 task set: components recovered, build
// wall-clock, and downstream edge accuracy with the resulting prior.
func Table5PriorFitAblation(cfg RunConfig) (*Table, error) {
	cfg = cfg.withDefaults()
	tab := &Table{
		Title:   "Table 5: collapsed-Gibbs prior construction (mean over seeds)",
		Columns: []string{"fit", "components", "build ms", "edge acc (n=20)"},
	}
	var comps, ms, accs []float64
	for _, seed := range Seeds(cfg.Seed, cfg.Reps) {
		b, err := cfg.scenario(seed).Build()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		prior, err := dpprior.Build(b.Posteriors, dpprior.BuildOptions{Alpha: 1, Seed: seed})
		if err != nil {
			return nil, fmt.Errorf("table5: gibbs: %w", err)
		}
		ms = append(ms, float64(time.Since(start).Microseconds())/1000)
		comps = append(comps, float64(len(prior.Components)))
		compiled, err := dpprior.Compile(prior)
		if err != nil {
			return nil, err
		}
		train, test := b.EdgeData(20, testSamples)
		tr := DRDPTrainer{Model: b.Model,
			Set: dro.Set{Kind: dro.Wasserstein, Rho: 0.05}, Prior: compiled}
		params, err := tr.Train(train.X, train.Y)
		if err != nil {
			return nil, err
		}
		accs = append(accs, model.Accuracy(b.Model, params, test.X, test.Y))
	}
	tab.AddRow("gibbs",
		fmt.Sprintf("%.1f", Aggregate(comps).Mean),
		fmt.Sprintf("%.2f", Aggregate(ms).Mean),
		Aggregate(accs).String())
	return tab, nil
}

// Table6StochasticMStep compares the full-batch and minibatch M-step
// solvers as the edge dataset grows: accuracy and training wall-clock.
func Table6StochasticMStep(cfg RunConfig) (*Table, error) {
	cfg = cfg.withDefaults()
	sizes := []int{500, 2000, 5000}
	if cfg.Fast {
		sizes = []int{500, 2000}
	}
	tab := &Table{
		Title:   "Table 6: full-batch vs minibatch M-step (mean over seeds)",
		Columns: []string{"n", "batch acc", "batch ms", "sgd acc", "sgd ms"},
	}
	for _, n := range sizes {
		var bAcc, bMs, sAcc, sMs []float64
		for _, seed := range Seeds(cfg.Seed, cfg.Reps) {
			b, err := cfg.scenario(seed).Build()
			if err != nil {
				return nil, err
			}
			train, test := b.EdgeData(n, testSamples)

			run := func(opts ...core.Option) (float64, float64, error) {
				base := []core.Option{
					core.WithPrior(b.Compiled),
					core.WithUncertaintySet(dro.Set{Kind: dro.Wasserstein, Rho: 0.02}),
					core.WithEMIters(5, 1e-7),
				}
				l, err := core.New(b.Model, append(base, opts...)...)
				if err != nil {
					return 0, 0, err
				}
				start := time.Now()
				res, err := l.Fit(train.X, train.Y)
				if err != nil {
					return 0, 0, err
				}
				elapsed := float64(time.Since(start).Microseconds()) / 1000
				return model.Accuracy(b.Model, res.Params, test.X, test.Y), elapsed, nil
			}
			acc, msV, err := run()
			if err != nil {
				return nil, fmt.Errorf("table6 batch n=%d: %w", n, err)
			}
			bAcc, bMs = append(bAcc, acc), append(bMs, msV)
			acc, msV, err = run(core.WithStochasticMStep(64, 3, 0.05, seed))
			if err != nil {
				return nil, fmt.Errorf("table6 sgd n=%d: %w", n, err)
			}
			sAcc, sMs = append(sAcc, acc), append(sMs, msV)
		}
		tab.AddRow(fmt.Sprintf("%d", n),
			Aggregate(bAcc).String(), fmt.Sprintf("%.1f", Aggregate(bMs).Mean),
			Aggregate(sAcc).String(), fmt.Sprintf("%.1f", Aggregate(sMs).Mean))
	}
	return tab, nil
}

// Table8SolverAblation compares the three inner M-step solvers on the
// same robust problem: subgradient GD (default), proximal GD (exact prox
// of the Wasserstein penalty) and minibatch Adam. Reported at a moderate
// and an aggressive radius: final objective, wall-clock, and the weight-
// block norm (the proximal solver reaches exact zero at large ρ).
func Table8SolverAblation(cfg RunConfig) (*Table, error) {
	cfg = cfg.withDefaults()
	tab := &Table{
		Title:   "Table 8: inner-solver ablation (n=100, mean over seeds)",
		Columns: []string{"rho", "solver", "objective", "ms", "|w|"},
	}
	type spec struct {
		name string
		opts []core.Option
	}
	specs := []spec{
		{"subgradient-gd", nil},
		{"proximal-gd", []core.Option{core.WithProximalMStep()}},
		{"lbfgs", []core.Option{core.WithLBFGSMStep(8)}},
		{"minibatch-adam", []core.Option{core.WithStochasticMStep(32, 6, 0.05, 1)}},
	}
	for _, rho := range []float64{0.1, 2} {
		for _, sp := range specs {
			var objs, ms, norms []float64
			for _, seed := range Seeds(cfg.Seed, cfg.Reps) {
				b, err := cfg.scenario(seed).Build()
				if err != nil {
					return nil, err
				}
				train, _ := b.EdgeData(100, 2)
				base := []core.Option{
					core.WithUncertaintySet(dro.Set{Kind: dro.Wasserstein, Rho: rho}),
					core.WithPrior(b.Compiled),
					core.WithEMIters(8, 1e-8),
				}
				l, err := core.New(b.Model, append(base, sp.opts...)...)
				if err != nil {
					return nil, fmt.Errorf("table8: %s: %w", sp.name, err)
				}
				start := time.Now()
				res, err := l.Fit(train.X, train.Y)
				if err != nil {
					return nil, fmt.Errorf("table8: %s: %w", sp.name, err)
				}
				ms = append(ms, float64(time.Since(start).Microseconds())/1000)
				objs = append(objs, res.Objective)
				norms = append(norms, normOfWeights(res.Params, b.Model.Dim))
			}
			tab.AddRow(fmt.Sprintf("%g", rho), sp.name,
				fmt.Sprintf("%.4f", Aggregate(objs).Mean),
				fmt.Sprintf("%.1f", Aggregate(ms).Mean),
				fmt.Sprintf("%.4f", Aggregate(norms).Mean))
		}
	}
	return tab, nil
}

func normOfWeights(params []float64, dim int) float64 {
	var s float64
	for _, v := range params[:dim] {
		s += v * v
	}
	return sqrt(s)
}

// Figure7FedAvgComparison compares per-device accuracy of DRDP (one
// prior, local robust training) against a FedAvg global model and local
// ERM as the device tasks grow more heterogeneous.
func Figure7FedAvgComparison(cfg RunConfig) (*Series, error) {
	cfg = cfg.withDefaults()
	spreads := []float64{0.1, 0.5, 1, 2}
	if cfg.Fast {
		spreads = []float64{0.1, 1}
	}
	const devices = 8
	const perDevice = 30
	ser := &Series{
		Title:  "Figure 7: mean per-device accuracy vs task heterogeneity",
		XLabel: "within-cluster spread",
		X:      spreads,
	}
	fedAcc := make([]float64, len(spreads))
	drdpAcc := make([]float64, len(spreads))
	localAcc := make([]float64, len(spreads))
	for si, spread := range spreads {
		var fa, da, la []float64
		for _, seed := range Seeds(cfg.Seed, cfg.Reps) {
			s := cfg.scenario(seed)
			s.Within = spread
			b, err := s.Build()
			if err != nil {
				return nil, err
			}
			rng := b.RNG()

			// Each device draws its own task from cluster 0 of the family
			// (heterogeneity grows with the within-cluster spread).
			tasks := make([]data.LinearTask, devices)
			clients := make([]fed.ClientData, devices)
			trains := make([]*data.Dataset, devices)
			tests := make([]*data.Dataset, devices)
			for dvc := range tasks {
				tasks[dvc] = b.Family.SampleTask(rng, 0)
				tasks[dvc].Flip = s.Flip
				trains[dvc] = tasks[dvc].Sample(rng, perDevice)
				tests[dvc] = tasks[dvc].Sample(rng, 500)
				clients[dvc] = fed.ClientData{X: trains[dvc].X, Y: trains[dvc].Y}
			}

			fedRes, err := fed.Run(b.Model, clients, fed.Config{Rounds: 15, Seed: seed})
			if err != nil {
				return nil, fmt.Errorf("figure7: fedavg: %w", err)
			}
			var fSum, dSum, lSum float64
			for dvc := range tasks {
				fSum += model.Accuracy(b.Model, fedRes.Global, tests[dvc].X, tests[dvc].Y)

				tr := DRDPTrainer{Model: b.Model,
					Set: dro.Set{Kind: dro.Wasserstein, Rho: 0.05}, Prior: b.Compiled}
				params, err := tr.Train(trains[dvc].X, trains[dvc].Y)
				if err != nil {
					return nil, err
				}
				dSum += model.Accuracy(b.Model, params, tests[dvc].X, tests[dvc].Y)

				lp, err := (baseline.ERM{Model: b.Model}).Train(trains[dvc].X, trains[dvc].Y)
				if err != nil {
					return nil, err
				}
				lSum += model.Accuracy(b.Model, lp, tests[dvc].X, tests[dvc].Y)
			}
			fa = append(fa, fSum/devices)
			da = append(da, dSum/devices)
			la = append(la, lSum/devices)
		}
		fedAcc[si] = Aggregate(fa).Mean
		drdpAcc[si] = Aggregate(da).Mean
		localAcc[si] = Aggregate(la).Mean
	}
	ser.Add("fedavg-global", fedAcc)
	ser.Add("drdp", drdpAcc)
	ser.Add("local-erm", localAcc)
	return ser, nil
}

// Figure8OnlineLearning tracks a data stream at one device: accuracy of
// the warm-started online learner vs retraining from scratch at every
// batch, plus their cumulative training time (milliseconds).
func Figure8OnlineLearning(cfg RunConfig) (*Series, error) {
	cfg = cfg.withDefaults()
	batches := 8
	if cfg.Fast {
		batches = 4
	}
	const batchSize = 25
	s := cfg.scenario(cfg.Seed)
	b, err := s.Build()
	if err != nil {
		return nil, err
	}
	rng := stat.NewRNG(cfg.Seed + 99)
	task := b.Family.SampleTask(rng, 0)
	task.Flip = s.Flip
	test := task.Sample(rng, testSamples)

	mkLearner := func() (*core.Learner, error) {
		return core.New(b.Model,
			core.WithPrior(b.Compiled),
			core.WithUncertaintySet(dro.Set{Kind: dro.Wasserstein, Rho: 0.05}),
			core.WithEMIters(10, 1e-7))
	}
	l, err := mkLearner()
	if err != nil {
		return nil, err
	}
	online, err := core.NewOnline(l)
	if err != nil {
		return nil, err
	}

	xs := make([]float64, batches)
	accOnline := make([]float64, batches)
	accScratch := make([]float64, batches)
	cumOnline := make([]float64, batches)
	cumScratch := make([]float64, batches)
	var seenX *data.Dataset
	var onlineTotal, scratchTotal float64
	for i := 0; i < batches; i++ {
		xs[i] = float64((i + 1) * batchSize)
		batch := task.Sample(rng, batchSize)
		if seenX == nil {
			seenX = batch.Clone()
		} else {
			merged, err := seenX.Concat(batch)
			if err != nil {
				return nil, err
			}
			seenX = merged
		}

		start := time.Now()
		res, err := online.Observe(batch.X, batch.Y)
		if err != nil {
			return nil, err
		}
		onlineTotal += float64(time.Since(start).Microseconds()) / 1000
		accOnline[i] = model.Accuracy(b.Model, res.Params, test.X, test.Y)
		cumOnline[i] = onlineTotal

		scratch, err := mkLearner()
		if err != nil {
			return nil, err
		}
		start = time.Now()
		sres, err := scratch.Fit(seenX.X, seenX.Y)
		if err != nil {
			return nil, err
		}
		scratchTotal += float64(time.Since(start).Microseconds()) / 1000
		accScratch[i] = model.Accuracy(b.Model, sres.Params, test.X, test.Y)
		cumScratch[i] = scratchTotal
	}
	ser := &Series{
		Title:  "Figure 8: streaming edge data — warm-started online vs scratch retraining",
		XLabel: "samples seen",
		X:      xs,
	}
	ser.Add("acc-online", accOnline)
	ser.Add("acc-scratch", accScratch)
	ser.Add("cum-ms-online", cumOnline)
	ser.Add("cum-ms-scratch", cumScratch)
	return ser, nil
}
