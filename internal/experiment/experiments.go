package experiment

import (
	"fmt"
	"time"

	"github.com/drdp/drdp/internal/baseline"
	"github.com/drdp/drdp/internal/core"
	"github.com/drdp/drdp/internal/data"
	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/dro"
	"github.com/drdp/drdp/internal/edge"
	"github.com/drdp/drdp/internal/mat"
	"github.com/drdp/drdp/internal/metrics"
	"github.com/drdp/drdp/internal/model"
	"github.com/drdp/drdp/internal/opt"
	"github.com/drdp/drdp/internal/stat"
)

// RunConfig controls the cost/fidelity tradeoff of the experiment
// runners: Reps seeds are averaged; Fast shrinks dimensions and sweep
// grids so the full suite finishes in seconds (used by tests and the
// default bench run).
type RunConfig struct {
	Reps int
	Seed int64
	Fast bool
}

func (c RunConfig) withDefaults() RunConfig {
	if c.Reps <= 0 {
		c.Reps = 3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// scenario returns the workload scaled per the config.
func (c RunConfig) scenario(seed int64) Scenario {
	s := Defaults(seed)
	if c.Fast {
		s.Dim = 8
		s.CloudTasks = 6
		s.CloudSamples = 150
	}
	return s
}

const testSamples = 1500

// Table1SampleEfficiency regenerates the main result: test accuracy vs
// local sample size for DRDP and every baseline.
func Table1SampleEfficiency(cfg RunConfig) (*Table, error) {
	cfg = cfg.withDefaults()
	sizes := []int{10, 20, 50, 100, 200}
	if cfg.Fast {
		sizes = []int{10, 30, 100}
	}
	tab := &Table{
		Title:   "Table 1: test accuracy vs local sample size n (mean±std)",
		Columns: []string{"method"},
	}
	for _, n := range sizes {
		tab.Columns = append(tab.Columns, fmt.Sprintf("n=%d", n))
	}
	// methodNames fixes the row order.
	var methodNames []string
	cells := map[string][]string{}
	for _, n := range sizes {
		accByMethod := map[string][]float64{}
		for _, seed := range Seeds(cfg.Seed, cfg.Reps) {
			b, err := cfg.scenario(seed).Build()
			if err != nil {
				return nil, err
			}
			train, test := b.EdgeData(n, testSamples)
			for _, tr := range b.Methods(0.05, 0) {
				params, err := tr.Train(train.X, train.Y)
				if err != nil {
					return nil, fmt.Errorf("table1: %s at n=%d: %w", tr.Name(), n, err)
				}
				acc := model.Accuracy(b.Model, params, test.X, test.Y)
				accByMethod[tr.Name()] = append(accByMethod[tr.Name()], acc)
				if n == sizes[0] && seed == Seeds(cfg.Seed, cfg.Reps)[0] {
					methodNames = append(methodNames, tr.Name())
				}
			}
		}
		for name, accs := range accByMethod {
			cells[name] = append(cells[name], Aggregate(accs).String())
		}
	}
	for _, name := range methodNames {
		tab.AddRow(append([]string{name}, cells[name]...)...)
	}
	return tab, nil
}

// Table2ShiftRobustness regenerates the shift study: accuracy and robust
// certificates under covariate shift of growing magnitude, DRDP vs the
// non-robust transfer baseline and local ERM.
func Table2ShiftRobustness(cfg RunConfig) (*Table, error) {
	cfg = cfg.withDefaults()
	shifts := []float64{0, 0.2, 0.5, 1.0}
	n := 50
	tab := &Table{
		Title:   "Table 2: accuracy under covariate shift ε (n=50, mean±std)",
		Columns: []string{"method"},
	}
	for _, eps := range shifts {
		tab.Columns = append(tab.Columns, fmt.Sprintf("ε=%g", eps))
	}
	type methodSpec struct {
		name string
		mk   func(b *Built) baseline.Trainer
	}
	specs := []methodSpec{
		{"local-erm", func(b *Built) baseline.Trainer { return baseline.ERM{Model: b.Model} }},
		{"gauss-map", func(b *Built) baseline.Trainer {
			return baseline.GaussMAP{Model: b.Model, Mu: b.CloudMean(), Lambda: 1}
		}},
		{"dro-noprior", func(b *Built) baseline.Trainer {
			return baseline.DRO{Model: b.Model, Set: dro.Set{Kind: dro.Wasserstein, Rho: 0.2}}
		}},
		{"drdp", func(b *Built) baseline.Trainer {
			return DRDPTrainer{Model: b.Model, Set: dro.Set{Kind: dro.Wasserstein, Rho: 0.2}, Prior: b.Compiled}
		}},
	}
	rows := map[string][]string{}
	for _, eps := range shifts {
		accs := map[string][]float64{}
		for _, seed := range Seeds(cfg.Seed, cfg.Reps) {
			b, err := cfg.scenario(seed).Build()
			if err != nil {
				return nil, err
			}
			train, test := b.EdgeData(n, testSamples)
			shifted := data.UniformShift(test, eps)
			for _, spec := range specs {
				params, err := spec.mk(b).Train(train.X, train.Y)
				if err != nil {
					return nil, fmt.Errorf("table2: %s: %w", spec.name, err)
				}
				accs[spec.name] = append(accs[spec.name],
					model.Accuracy(b.Model, params, shifted.X, shifted.Y))
			}
		}
		for _, spec := range specs {
			rows[spec.name] = append(rows[spec.name], Aggregate(accs[spec.name]).String())
		}
	}
	for _, spec := range specs {
		tab.AddRow(append([]string{spec.name}, rows[spec.name]...)...)
	}
	return tab, nil
}

// Table3Digits regenerates the multiclass synthetic-digit study with a
// softmax head: DRDP vs local baselines at two per-class budgets.
func Table3Digits(cfg RunConfig) (*Table, error) {
	cfg = cfg.withDefaults()
	budgets := []int{5, 20}
	if cfg.Fast {
		budgets = []int{5}
	}
	tab := &Table{
		Title:   "Table 3: synthetic-digit accuracy (softmax head, mean±std)",
		Columns: []string{"method"},
	}
	for _, pc := range budgets {
		tab.Columns = append(tab.Columns, fmt.Sprintf("n/class=%d", pc))
	}
	m := model.Softmax{Dim: data.DigitDim, Classes: 10}
	rows := map[string][]string{}
	order := []string{"local-erm", "local-ridge", "drdp", "drdp-mlp"}
	for _, pc := range budgets {
		accs := map[string][]float64{}
		for _, seed := range Seeds(cfg.Seed, cfg.Reps) {
			rng := stat.NewRNG(seed)
			gen := data.DigitTask{Noise: 0.45, Jitter: true}
			// Cloud: tasks at lower noise (clean factory data).
			cloudGen := data.DigitTask{Noise: 0.25, Jitter: true}
			buildPrior := func(cloudTrain func(*data.Dataset) (mat.Vec, error), p int) (*dpprior.Compiled, error) {
				var posteriors []dpprior.TaskPosterior
				for k := 0; k < 3; k++ {
					ds := cloudGen.SamplePerClass(rng, 25)
					params, err := cloudTrain(ds)
					if err != nil {
						return nil, fmt.Errorf("table3: cloud task %d: %w", k, err)
					}
					// Full Laplace is O(p²) gradient evaluations at p≈650:
					// too slow here; use an isotropic posterior instead.
					sigma := mat.Eye(p)
					sigma.ScaleBy(0.05)
					posteriors = append(posteriors, dpprior.TaskPosterior{Mu: params, Sigma: sigma, N: ds.Len()})
				}
				prior, err := dpprior.Build(posteriors, dpprior.BuildOptions{Alpha: 1, Seed: seed})
				if err != nil {
					return nil, err
				}
				return dpprior.Compile(prior)
			}
			compiled, err := buildPrior(func(ds *data.Dataset) (mat.Vec, error) {
				return (baseline.Ridge{Model: m, Lambda: 1e-3}).Train(ds.X, ds.Y)
			}, m.NumParams())
			if err != nil {
				return nil, err
			}
			// MLP head with a small hidden layer; the cloud trains MLPs too.
			mlp := model.MLP{Dim: data.DigitDim, Hidden: 8, Classes: 10}
			mlpInit := mlp.InitParams(rng)
			mlpPrior, err := buildPrior(func(ds *data.Dataset) (mat.Vec, error) {
				l, err := core.New(mlp, core.WithInit(mlpInit),
					core.WithMStepOptions(opt.Options{MaxIter: 150}))
				if err != nil {
					return nil, err
				}
				res, err := l.Fit(ds.X, ds.Y)
				if err != nil {
					return nil, err
				}
				return res.Params, nil
			}, mlp.NumParams())
			if err != nil {
				return nil, err
			}

			train := gen.SamplePerClass(rng, pc)
			test := gen.SamplePerClass(rng, 40)
			trainers := []baseline.Trainer{
				baseline.ERM{Model: m},
				baseline.Ridge{Model: m, Lambda: 0.1},
				DRDPTrainer{Model: m, Set: dro.Set{Kind: dro.Wasserstein, Rho: 0.01},
					Prior: compiled, EMIters: 5},
			}
			for _, tr := range trainers {
				params, err := tr.Train(train.X, train.Y)
				if err != nil {
					return nil, fmt.Errorf("table3: %s: %w", tr.Name(), err)
				}
				accs[tr.Name()] = append(accs[tr.Name()],
					model.Accuracy(m, params, test.X, test.Y))
			}
			mlpTr := DRDPTrainer{Model: mlp, Set: dro.Set{Kind: dro.Wasserstein, Rho: 0.01},
				Prior: mlpPrior, EMIters: 5}
			mlpParams, err := mlpTr.Train(train.X, train.Y)
			if err != nil {
				return nil, fmt.Errorf("table3: drdp-mlp: %w", err)
			}
			accs["drdp-mlp"] = append(accs["drdp-mlp"],
				model.Accuracy(mlp, mlpParams, test.X, test.Y))
		}
		for _, name := range order {
			rows[name] = append(rows[name], Aggregate(accs[name]).String())
		}
	}
	for _, name := range order {
		tab.AddRow(append([]string{name}, rows[name]...)...)
	}
	return tab, nil
}

// Table4SystemsCost regenerates the systems-cost analysis: prior wire
// size and transfer time across link profiles and truncation levels,
// plus per-EM-iteration training wall-clock.
func Table4SystemsCost(cfg RunConfig) (*Table, error) {
	cfg = cfg.withDefaults()
	tab := &Table{
		Title: "Table 4: knowledge-transfer systems cost",
		Columns: []string{"dim", "trunc T", "components", "wire bytes",
			"t(wifi)", "t(4g)", "t(3g)", "edge ms/EM-iter"},
	}
	dims := []int{20, 100}
	if cfg.Fast {
		dims = []int{10}
	}
	for _, d := range dims {
		for _, trunc := range []int{5, 10, 20} {
			s := cfg.scenario(cfg.Seed)
			s.Dim = d
			s.Truncation = trunc
			s.CloudSamples = 200
			b, err := s.Build()
			if err != nil {
				return nil, err
			}
			wire := b.Prior.WireSize()
			// Edge training time per EM iteration.
			train, _ := b.EdgeData(50, 2)
			learner, err := core.New(b.Model,
				core.WithPrior(b.Compiled),
				core.WithUncertaintySet(dro.Set{Kind: dro.Wasserstein, Rho: 0.05}),
				core.WithEMIters(5, 1e-12))
			if err != nil {
				return nil, err
			}
			start := time.Now()
			res, err := learner.Fit(train.X, train.Y)
			if err != nil {
				return nil, err
			}
			perIter := time.Since(start).Seconds() * 1000 / float64(res.EMIterations)
			tab.AddRow(
				fmt.Sprintf("%d", d),
				fmt.Sprintf("%d", trunc),
				fmt.Sprintf("%d", len(b.Prior.Components)),
				fmt.Sprintf("%d", wire),
				edge.LinkWiFi.TransferTime(wire).String(),
				edge.Link4G.TransferTime(wire).String(),
				edge.Link3G.TransferTime(wire).String(),
				fmt.Sprintf("%.2f", perIter),
			)
		}
	}
	return tab, nil
}

// Figure1RadiusSweep regenerates the robustness–accuracy tradeoff:
// accuracy vs Wasserstein radius ρ on clean and shifted test sets.
func Figure1RadiusSweep(cfg RunConfig) (*Series, error) {
	cfg = cfg.withDefaults()
	rhos := []float64{0.0001, 0.001, 0.01, 0.05, 0.1, 0.3, 1}
	if cfg.Fast {
		rhos = []float64{0.001, 0.05, 0.3}
	}
	ser := &Series{
		Title:  "Figure 1: accuracy vs Wasserstein radius ρ (n=50)",
		XLabel: "rho",
		X:      rhos,
	}
	clean := make([]float64, len(rhos))
	shifted := make([]float64, len(rhos))
	cert := make([]float64, len(rhos))
	for i, rho := range rhos {
		var cAccs, sAccs, certs []float64
		for _, seed := range Seeds(cfg.Seed, cfg.Reps) {
			b, err := cfg.scenario(seed).Build()
			if err != nil {
				return nil, err
			}
			train, test := b.EdgeData(50, testSamples)
			shiftedTest := data.UniformShift(test, 0.6)
			tr := DRDPTrainer{Model: b.Model,
				Set: dro.Set{Kind: dro.Wasserstein, Rho: rho}, Prior: b.Compiled}
			params, err := tr.Train(train.X, train.Y)
			if err != nil {
				return nil, err
			}
			cAccs = append(cAccs, model.Accuracy(b.Model, params, test.X, test.Y))
			sAccs = append(sAccs, model.Accuracy(b.Model, params, shiftedTest.X, shiftedTest.Y))
			rep := metrics.Evaluate(b.Model, params, &data.Dataset{X: train.X, Y: train.Y, NumClasses: 2},
				dro.Set{Kind: dro.Wasserstein, Rho: rho})
			certs = append(certs, rep.RobustLoss)
		}
		clean[i] = Aggregate(cAccs).Mean
		shifted[i] = Aggregate(sAccs).Mean
		cert[i] = Aggregate(certs).Mean
	}
	ser.Add("acc-clean", clean)
	ser.Add("acc-shifted", shifted)
	ser.Add("certificate", cert)
	return ser, nil
}

// Figure2AlphaSweep regenerates the prior-trust dial: accuracy vs DP
// concentration α with a related cloud and with a misleading cloud.
func Figure2AlphaSweep(cfg RunConfig) (*Series, error) {
	cfg = cfg.withDefaults()
	alphas := []float64{0.01, 0.1, 1, 10, 100}
	if cfg.Fast {
		alphas = []float64{0.01, 1, 100}
	}
	ser := &Series{
		Title:  "Figure 2: accuracy vs DP concentration α (n=20)",
		XLabel: "alpha",
		X:      alphas,
	}
	related := make([]float64, len(alphas))
	unrelated := make([]float64, len(alphas))
	baseMass := make([]float64, len(alphas))
	components := make([]float64, len(alphas))
	for i, alpha := range alphas {
		var rel, unrel, bm, nc []float64
		for _, seed := range Seeds(cfg.Seed, cfg.Reps) {
			// Related cloud: standard scenario.
			s := cfg.scenario(seed)
			s.Alpha = alpha
			b, err := s.Build()
			if err != nil {
				return nil, err
			}
			bm = append(bm, b.Prior.BaseWeight)
			nc = append(nc, float64(len(b.Prior.Components)))
			train, test := b.EdgeData(20, testSamples)
			tr := DRDPTrainer{Model: b.Model, Set: dro.Set{Kind: dro.Wasserstein, Rho: 0.05},
				Prior: b.Compiled}
			params, err := tr.Train(train.X, train.Y)
			if err != nil {
				return nil, err
			}
			rel = append(rel, model.Accuracy(b.Model, params, test.X, test.Y))

			// Misleading cloud: negate the component means so the prior
			// points away from the edge task. The multi-start data veto
			// should contain the damage; its strength varies with α via
			// the mixture weights.
			bad := *b.Prior
			bad.Components = append([]dpprior.Component(nil), b.Prior.Components...)
			for j := range bad.Components {
				mu := mat.CloneVec(bad.Components[j].Mu)
				mat.Scale(-1, mu)
				bad.Components[j].Mu = mu
			}
			badCompiled, err := dpprior.Compile(&bad)
			if err != nil {
				return nil, err
			}
			trBad := DRDPTrainer{Model: b.Model, Set: dro.Set{Kind: dro.Wasserstein, Rho: 0.05},
				Prior: badCompiled}
			paramsBad, err := trBad.Train(train.X, train.Y)
			if err != nil {
				return nil, err
			}
			unrel = append(unrel, model.Accuracy(b.Model, paramsBad, test.X, test.Y))
		}
		related[i] = Aggregate(rel).Mean
		unrelated[i] = Aggregate(unrel).Mean
		baseMass[i] = Aggregate(bm).Mean
		components[i] = Aggregate(nc).Mean
	}
	ser.Add("related-cloud", related)
	ser.Add("misleading-cloud", unrelated)
	ser.Add("base-mass", baseMass)
	ser.Add("prior-components", components)
	return ser, nil
}

// Figure3Convergence regenerates the EM convergence study: objective
// trace of one representative fit, demonstrating monotone descent.
func Figure3Convergence(cfg RunConfig) (*Series, error) {
	cfg = cfg.withDefaults()
	b, err := cfg.scenario(cfg.Seed).Build()
	if err != nil {
		return nil, err
	}
	train, _ := b.EdgeData(50, 2)
	learner, err := core.New(b.Model,
		core.WithPrior(b.Compiled),
		core.WithUncertaintySet(dro.Set{Kind: dro.Wasserstein, Rho: 0.05}),
		core.WithEMIters(20, 1e-12),
		// Start far from the solution so the trace shows real descent.
		core.WithInit(make(mat.Vec, b.Model.NumParams())))
	if err != nil {
		return nil, err
	}
	res, err := learner.Fit(train.X, train.Y)
	if err != nil {
		return nil, err
	}
	xs := make([]float64, len(res.Trace))
	for i := range xs {
		xs[i] = float64(i)
	}
	ser := &Series{
		Title:  "Figure 3: DRDP objective vs EM iteration (n=50)",
		XLabel: "iteration",
		X:      xs,
	}
	ser.Add("objective", res.Trace)
	return ser, nil
}

// Figure4CloudTasks regenerates the knowledge-accumulation study:
// accuracy vs the number of cloud tasks K behind the prior.
func Figure4CloudTasks(cfg RunConfig) (*Series, error) {
	cfg = cfg.withDefaults()
	ks := []int{1, 2, 4, 8, 16, 32}
	if cfg.Fast {
		ks = []int{1, 4, 16}
	}
	ser := &Series{
		Title:  "Figure 4: accuracy vs number of cloud tasks K (n=20)",
		XLabel: "K",
		X:      make([]float64, len(ks)),
	}
	drdp := make([]float64, len(ks))
	localOnly := make([]float64, len(ks))
	for i, k := range ks {
		ser.X[i] = float64(k)
		var accs, locals []float64
		for _, seed := range Seeds(cfg.Seed, cfg.Reps) {
			s := cfg.scenario(seed)
			s.CloudTasks = k
			b, err := s.Build()
			if err != nil {
				return nil, err
			}
			train, test := b.EdgeData(20, testSamples)
			tr := DRDPTrainer{Model: b.Model, Set: dro.Set{Kind: dro.Wasserstein, Rho: 0.05},
				Prior: b.Compiled}
			params, err := tr.Train(train.X, train.Y)
			if err != nil {
				return nil, err
			}
			accs = append(accs, model.Accuracy(b.Model, params, test.X, test.Y))
			ermParams, err := (baseline.ERM{Model: b.Model}).Train(train.X, train.Y)
			if err != nil {
				return nil, err
			}
			locals = append(locals, model.Accuracy(b.Model, ermParams, test.X, test.Y))
		}
		drdp[i] = Aggregate(accs).Mean
		localOnly[i] = Aggregate(locals).Mean
	}
	ser.Add("drdp", drdp)
	ser.Add("local-erm", localOnly)
	return ser, nil
}

// Figure5SetAblation regenerates the uncertainty-set ablation: shifted-
// test accuracy for Wasserstein, KL, χ² and no robustness, all with the
// same prior.
func Figure5SetAblation(cfg RunConfig) (*Series, error) {
	cfg = cfg.withDefaults()
	shifts := []float64{0, 0.25, 0.5, 1.0}
	if cfg.Fast {
		shifts = []float64{0, 0.5}
	}
	ser := &Series{
		Title:  "Figure 5: shifted accuracy by uncertainty-set geometry (n=50)",
		XLabel: "shift",
		X:      shifts,
	}
	sets := []dro.Set{
		{Kind: dro.None},
		{Kind: dro.Wasserstein, Rho: 0.2},
		{Kind: dro.KL, Rho: 0.2},
		{Kind: dro.Chi2, Rho: 0.2},
	}
	results := make([][]float64, len(sets))
	for i := range results {
		results[i] = make([]float64, len(shifts))
	}
	for si, eps := range shifts {
		accs := make([][]float64, len(sets))
		for _, seed := range Seeds(cfg.Seed, cfg.Reps) {
			b, err := cfg.scenario(seed).Build()
			if err != nil {
				return nil, err
			}
			train, test := b.EdgeData(50, testSamples)
			shifted := data.UniformShift(test, eps)
			for mi, set := range sets {
				tr := DRDPTrainer{Model: b.Model, Set: set, Prior: b.Compiled}
				params, err := tr.Train(train.X, train.Y)
				if err != nil {
					return nil, err
				}
				accs[mi] = append(accs[mi], model.Accuracy(b.Model, params, shifted.X, shifted.Y))
			}
		}
		for mi := range sets {
			results[mi][si] = Aggregate(accs[mi]).Mean
		}
	}
	for mi, set := range sets {
		ser.Add(set.Kind.String(), results[mi])
	}
	return ser, nil
}

// Figure6MultiDevice regenerates the heterogeneous-fleet study: 20 edge
// devices with non-IID local data pull the same cloud prior; the figure
// reports the per-device accuracy gain of DRDP over local ERM as a
// histogram (series: sorted per-device gains).
func Figure6MultiDevice(cfg RunConfig) (*Series, error) {
	cfg = cfg.withDefaults()
	devices := 20
	if cfg.Fast {
		devices = 8
	}
	s := cfg.scenario(cfg.Seed)
	b, err := s.Build()
	if err != nil {
		return nil, err
	}
	rng := b.RNG()
	gains := make([]float64, 0, devices)
	for dev := 0; dev < devices; dev++ {
		// Each device gets its own related task and a small skewed sample.
		task := b.Family.SampleTask(rng, dev%s.Clusters)
		task.Flip = s.Flip
		pool := task.Sample(rng, 400)
		parts, err := data.DirichletPartition(pool, 10, 0.5, rng)
		if err != nil {
			return nil, err
		}
		local := parts[0] // a skewed shard
		if local.Len() < 4 {
			local = pool.Subset([]int{0, 1, 2, 3})
		}
		test := task.Sample(rng, testSamples)

		tr := DRDPTrainer{Model: b.Model, Set: dro.Set{Kind: dro.Wasserstein, Rho: 0.05},
			Prior: b.Compiled}
		params, err := tr.Train(local.X, local.Y)
		if err != nil {
			return nil, err
		}
		ermParams, err := (baseline.ERM{Model: b.Model}).Train(local.X, local.Y)
		if err != nil {
			return nil, err
		}
		gain := model.Accuracy(b.Model, params, test.X, test.Y) -
			model.Accuracy(b.Model, ermParams, test.X, test.Y)
		gains = append(gains, gain)
	}
	// Sorted gains make the "fraction of devices helped" readable.
	sortFloats(gains)
	xs := make([]float64, len(gains))
	for i := range xs {
		xs[i] = float64(i)
	}
	ser := &Series{
		Title:  "Figure 6: per-device accuracy gain of DRDP over local ERM (sorted)",
		XLabel: "device rank",
		X:      xs,
	}
	ser.Add("gain", gains)
	return ser, nil
}

func sortFloats(x []float64) {
	for i := 1; i < len(x); i++ {
		for j := i; j > 0 && x[j] < x[j-1]; j-- {
			x[j], x[j-1] = x[j-1], x[j]
		}
	}
}
