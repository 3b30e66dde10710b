package main

import (
	"fmt"
	"time"

	"github.com/drdp/drdp"
	"github.com/drdp/drdp/internal/store"
)

// base is what every workload carries.
type base struct {
	cfg   config
	dirs  dirs
	meter *meterFS // nil on untraced runs
}

// fs is the filesystem handed to stores: the meter on traced runs, nil
// (the real one, unwrapped) otherwise.
func (b *base) fs() store.FS {
	if b.meter == nil {
		return nil
	}
	return b.meter
}

// build is every cloud's prior-builder configuration. The Gibbs seed is
// configuration of the program, not an input of the run.
func (b *base) build() drdp.PriorBuildOptions {
	return drdp.PriorBuildOptions{Alpha: 1, Seed: geometrySeed}
}

func newWorkload(cfg config, meter *meterFS) (workload, error) {
	b := base{cfg: cfg, dirs: dirs{root: cfg.workDir}, meter: meter}
	switch cfg.workload {
	case "edge_round":
		return &edgeRound{base: b}, nil
	case "fit_heavy":
		return &fitHeavy{base: b}, nil
	case "ingest_burst":
		return &ingestBurst{base: b}, nil
	case "prior_fanout":
		return &priorFanout{base: b}, nil
	case "tiered_sync":
		return &tieredSync{base: b}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames())
}

// sampledModel is one model produced in the timed section, kept for the
// post-run accuracy score.
type sampledModel struct {
	data   int // index of the dataset it was trained on
	params drdp.Vec
}

// accuracySample is how many timed-section models are scored.
const accuracySample = 64

// scoreModels returns the mean held-out accuracy of the sampled models
// and of local-only ERM on the same training sets. Each task's 2000 test
// samples are drawn from a stream keyed by the dataset index, so the
// score is a pure function of the seed and the fitted parameters.
func scoreModels(seed int64, m drdp.Logistic, data []labelled, models []sampledModel) (acc, erm float64, err error) {
	ermAcc := map[int]float64{}
	tests := map[int]*drdp.Dataset{}
	for _, sm := range models {
		test, ok := tests[sm.data]
		if !ok {
			test = data[sm.data].task.Sample(subRNG(seed, fmt.Sprintf("test/%d", sm.data)), 2000)
			tests[sm.data] = test
			params, err := drdp.ERM{Model: m}.Train(data[sm.data].ds.X, data[sm.data].ds.Y)
			if err != nil {
				return 0, 0, fmt.Errorf("erm on dataset %d: %w", sm.data, err)
			}
			ermAcc[sm.data] = drdp.Accuracy(m, params, test.X, test.Y)
		}
		acc += drdp.Accuracy(m, sm.params, test.X, test.Y)
		erm += ermAcc[sm.data]
	}
	n := float64(len(models))
	return acc / n, erm / n, nil
}

// ---------------------------------------------------------------------
// edge_round: the paper's loop. G devices, each with its own connection
// and prior cache, run fetch → fit → Laplace → report against one
// durable cloud.

const (
	edgeDim      = 16
	edgeClusters = 8
	edgeSamples  = 40  // local samples per device round
	pioneerN     = 200 // samples behind each pioneer posterior
)

type edgeRound struct {
	base
	rig
	model  drdp.Logistic
	set    drdp.UncertaintySet
	data   []labelled
	round  []int // per generator: rounds run so far
	models [][]sampledModel

	setupComponents int
	lastTask        drdp.TaskPosterior // generator 0's latest upload (replay input)
}

func (w *edgeRound) generators() int { return w.cfg.gens }

func (w *edgeRound) prepare(ih *inputHash) error {
	w.model = drdp.Logistic{Dim: edgeDim}
	w.set = drdp.UncertaintySet{Kind: drdp.Wasserstein, Rho: 0.05}
	fam, err := newFamily(edgeDim, edgeClusters)
	if err != nil {
		return err
	}
	pioneers, err := fitPioneers(subRNG(geometrySeed, "pioneers"), ih, fam, w.model, w.cfg.pick(256, 48), pioneerN)
	if err != nil {
		return err
	}
	w.data = sampleDatasets(subRNG(w.cfg.seed, "devices"), ih, fam, w.cfg.pick(512, 64), edgeSamples)
	return w.populate(&w.base, pioneers)
}

func (w *edgeRound) setup() error {
	if err := w.up(&w.base); err != nil {
		return err
	}
	p, _, err := w.cloud.srv.Prior()
	if err != nil {
		return err
	}
	w.setupComponents = len(p.Components)
	w.round = make([]int, w.cfg.gens)
	w.models = make([][]sampledModel, w.cfg.gens)
	// Warm-up: 200 untimed rounds spread over the generators.
	warm := newGen(0, false)
	for r := 0; r < w.cfg.pick(200, 8); r++ {
		warm.id = r % w.cfg.gens
		w.oneRound(warm, false)
	}
	if warm.firstErr != nil {
		return fmt.Errorf("warm-up: %w", warm.firstErr)
	}
	for i := range w.round {
		w.round[i] = 0
	}
	w.cloud.srv.WaitCaughtUp()
	return nil
}

// cycle is one device round.
func (w *edgeRound) cycle(g *gen) { w.oneRound(g, true) }

// oneRound is one device round, each public call under its own span.
func (w *edgeRound) oneRound(g *gen, sample bool) {
	r := w.round[g.id]
	w.round[g.id]++
	idx := (g.id + r*w.cfg.gens) % len(w.data)
	ds := w.data[idx].ds
	dim := w.model.NumParams()
	start := time.Now()
	op := g.rec.begin(spOp)
	defer g.rec.end(op)

	sp := g.rec.begin(spFetch)
	prior, built, err := refresh(w.muxes[g.id], w.caches[g.id], dim)
	g.rec.end(sp)
	if err != nil {
		g.fail(1, fmt.Errorf("fetch: %w", err))
		return
	}
	g.fetched(built)
	g.checkPrior(prior, dim)

	sp = g.rec.begin(spCompile)
	compiled, err := drdp.CompilePrior(prior)
	g.rec.end(sp)
	if err != nil {
		g.fail(1, fmt.Errorf("compile: %w", err))
		return
	}

	sp = g.rec.begin(spFitWasserstein)
	learner, err := drdp.NewLearner(w.model, drdp.WithUncertaintySet(w.set), drdp.WithPrior(compiled))
	var res *drdp.Result
	if err == nil {
		res, err = learner.Fit(ds.X, ds.Y)
	}
	g.rec.end(sp)
	if err != nil {
		g.fail(1, fmt.Errorf("fit: %w", err))
		return
	}

	sp = g.rec.begin(spLaplace)
	cov, err := drdp.LaplacePosterior(w.model, res.Params, ds.X, ds.Y, 1e-3)
	g.rec.end(sp)
	if err != nil {
		g.fail(1, fmt.Errorf("laplace: %w", err))
		return
	}

	task := drdp.TaskPosterior{Mu: res.Params, Sigma: cov, N: ds.X.Rows}
	sp = g.rec.begin(spReport)
	version, err := w.muxes[g.id].ReportTask(task)
	g.rec.end(sp)
	if err != nil {
		g.fail(1, fmt.Errorf("report: %w", err))
		return
	}
	if g.id == 0 {
		w.lastTask = task
	}
	g.tasksAcked++
	g.acked(version)
	g.done(start)
	if sample && len(w.models[g.id]) < (accuracySample+w.cfg.gens-1)/w.cfg.gens {
		w.models[g.id] = append(w.models[g.id], sampledModel{data: idx, params: res.Params})
	}
}

func (w *edgeRound) observe(obs *observations, gens []*gen) error {
	obs.dim = w.model.NumParams()
	obs.setupComponents = w.setupComponents
	obs.codecs = w.codecs()
	var models []sampledModel
	for _, ms := range w.models {
		models = append(models, ms...)
	}
	var err error
	obs.accuracyModels = len(models)
	if obs.accuracy, obs.ermAccuracy, err = scoreModels(w.cfg.seed, w.model, w.data, models); err != nil {
		return err
	}
	if !w.cfg.trace {
		return nil
	}
	old, oldVersion, _ := w.caches[0].Get()
	if err := captureCloud(&obs.capture, w.cloud.srv, old, oldVersion, w.lastTask); err != nil {
		return err
	}
	_, _, obs.capture.openSeconds, err = w.closeAndReopen()
	return err
}

// ---------------------------------------------------------------------
// fit_heavy: one device, Parallelism = G, no cloud in the timed loop.
// One op is a pass of eight fits of fixed composition — Wasserstein:KL:χ²
// = 6:1:1 — drawn round-robin from per-class dataset pools:
//
//	1 × Wasserstein n=150   (inline path: one chunk)
//	5 × Wasserstein n=1000  (pooled path: crosses the 256-row chunk grid)
//	1 × χ²          n=1000  (pooled path)
//	1 × KL          n=150   (inline path)
//
// Fit time depends on the sample drawn (EM and dual iterations vary), so
// each class has a pool of datasets and a run walks the pools several
// times: the per-seed cost is an average over 128 datasets, not the luck
// of one. A KL fit at n=1000 costs ~1 s on two cores — a tenth of the
// run in one op, and 2.5× apart between seeds — so KL is priced at
// n=150. The op is the whole pass, not one fit: a fit's time jumps with
// its EM iteration count (two, three, five rounds), so the median single
// fit sits on the edge between two such modes and moved 14 % (IQR ÷
// median) between seeds, where the median pass moves 5 %.

const (
	fitSmallN     = 150
	fitLargeN     = 1000
	fitPoolLaps   = 16 // cycles until every pool has been walked once
	fitComponents = 3  // components the served prior is truncated to
)

// fitClass is one row of the table above.
type fitClass struct {
	kind     drdp.SetKind
	span     spanKind
	n        int // samples per dataset
	perCycle int
	pool     []labelled
	warm     labelled // the set-up's warm-up fit: the same for every seed
}

type fitHeavy struct {
	base
	model    drdp.Logistic
	pioneers []drdp.TaskPosterior
	classes  []*fitClass
	cycles   int

	prior    *drdp.Prior
	compiled *drdp.CompiledPrior
	learners map[drdp.SetKind]*drdp.Learner
	models   []sampledModel
	sampled  []labelled // datasets the sampled models were trained on
	codecs   map[string]int
}

func (w *fitHeavy) generators() int { return 1 }

func (w *fitHeavy) prepare(ih *inputHash) error {
	w.model = drdp.Logistic{Dim: edgeDim}
	fam, err := newFamily(edgeDim, edgeClusters)
	if err != nil {
		return err
	}
	if w.pioneers, err = fitPioneers(subRNG(geometrySeed, "pioneers"), ih, fam, w.model, w.cfg.pick(256, 48), pioneerN); err != nil {
		return err
	}
	small, large := w.cfg.pick(fitSmallN, 60), w.cfg.pick(fitLargeN, 300)
	w.classes = []*fitClass{
		{kind: drdp.Wasserstein, span: spFitWasserstein, n: small, perCycle: 1},
		{kind: drdp.Wasserstein, span: spFitWasserstein, n: large, perCycle: 5},
		{kind: drdp.Chi2, span: spFitChi2, n: large, perCycle: 1},
		{kind: drdp.KL, span: spFitKL, n: small, perCycle: 1},
	}
	rng, warm := subRNG(w.cfg.seed, "devices"), subRNG(geometrySeed, "warm-up")
	for _, c := range w.classes {
		c.pool = sampleDatasets(rng, ih, fam, c.perCycle*w.cfg.pick(fitPoolLaps, 2), c.n)
		c.warm = sampleDatasets(warm, ih, fam, 1, c.n)[0]
	}
	return nil
}

// setup fetches the prior once over the wire from an in-memory cloud
// seeded with the pioneers, then builds one learner per set kind.
func (w *fitHeavy) setup() error {
	// The learner runs one EM per prior component, so the component count
	// scales every fit of the run alike; truncating the mixture to its
	// heaviest fitComponents keeps that factor the same for every seed.
	build := w.build()
	build.MaxComponents = fitComponents
	srv, err := drdp.NewCloudServer(w.pioneers, build, drdp.DiscardLogger())
	if err != nil {
		return err
	}
	c, err := serve(srv, "")
	if err != nil {
		return err
	}
	defer c.stop()
	muxes, err := dialMuxes(c.addr, 1)
	if err != nil {
		return err
	}
	defer closeMuxes(muxes)
	w.codecs = muxCodecs(muxes)
	if w.prior, _, err = muxes[0].FetchPrior(w.model.NumParams()); err != nil {
		return err
	}
	if w.compiled, err = drdp.CompilePrior(w.prior); err != nil {
		return err
	}
	w.learners = map[drdp.SetKind]*drdp.Learner{}
	for _, k := range []drdp.SetKind{drdp.Wasserstein, drdp.KL, drdp.Chi2} {
		l, err := drdp.NewLearner(w.model,
			drdp.WithUncertaintySet(drdp.UncertaintySet{Kind: k, Rho: 0.05}),
			drdp.WithPrior(w.compiled), drdp.WithParallelism(w.cfg.gens))
		if err != nil {
			return err
		}
		w.learners[k] = l
	}
	w.models, w.sampled, w.cycles = nil, nil, 0
	// Warm-up: one fit of each class, on data that does not follow the
	// run seed, so set-up costs the same whatever the seed.
	for _, c := range w.classes {
		if _, err := w.learners[c.kind].Fit(c.warm.ds.X, c.warm.ds.Y); err != nil {
			return fmt.Errorf("warm-up fit: %w", err)
		}
	}
	return nil
}

func (w *fitHeavy) teardown() error { return nil }

// cycle is one op: the eight fits of the table above.
func (w *fitHeavy) cycle(g *gen) {
	start := time.Now()
	op := g.rec.begin(spOp)
	var failed error
	for _, c := range w.classes {
		for i := 0; i < c.perCycle; i++ {
			l := c.pool[(w.cycles*c.perCycle+i)%len(c.pool)]
			sp := g.rec.begin(c.span)
			res, err := w.learners[c.kind].Fit(l.ds.X, l.ds.Y)
			g.rec.end(sp)
			if err != nil {
				failed = fmt.Errorf("%v fit, n=%d: %w", c.kind, c.n, err)
				continue
			}
			if len(w.models) < accuracySample {
				w.models = append(w.models, sampledModel{data: len(w.sampled), params: res.Params})
				w.sampled = append(w.sampled, l)
			}
		}
	}
	g.rec.end(op)
	w.cycles++
	if failed != nil {
		g.fail(1, failed)
		return
	}
	g.done(start)
}

func (w *fitHeavy) observe(obs *observations, gens []*gen) error {
	obs.dim = w.model.NumParams()
	obs.setupComponents = len(w.prior.Components)
	obs.codecs = w.codecs
	if !priorWellFormed(w.prior, obs.dim) {
		gens[0].badPriors++
	}
	var err error
	obs.accuracyModels = len(w.models)
	if obs.accuracy, obs.ermAccuracy, err = scoreModels(w.cfg.seed, w.model, w.sampled, w.models); err != nil {
		return err
	}
	obs.capture.fitLarge = &w.classes[1].pool[0]
	obs.capture.compiled, obs.capture.model = w.compiled, &w.model
	return nil
}
