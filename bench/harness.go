package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"github.com/drdp/drdp"
	"github.com/drdp/drdp/internal/store"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	dur      time.Duration // length of the timed section
	trace    bool
	gens     int    // G: closed-loop generator goroutines / connections
	workDir  string // scratch for store directories (removed at exit)
	outDir   string // where trace_<workload>.json is written
	// toy shrinks every input so the smoke test can run a workload in
	// well under two seconds. Set by tests only; there is no flag for it.
	toy bool
}

// pick returns full, or toy on a smoke-test run.
func (c *config) pick(full, toy int) int {
	if c.toy {
		return toy
	}
	return full
}

// defaultGens is G = min(nproc, 4).
func defaultGens() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// setupReps is how many times a run sets the system up; setup_s is the
// median, so one cold first set-up does not decide it.
const setupReps = 5

// maxGenFailures stops a generator whose connection is evidently dead:
// a poisoned mux fails every later call instantly, and spinning on it
// would only inflate the attempt count.
const maxGenFailures = 64

// workload is one closed-loop traffic mix. The runner calls prepare
// once, setup/teardown setupReps times (keeping the last system up),
// drives cycle from each generator until the run's duration elapses,
// and finally observe, with the generators stopped and the system
// still up.
type workload interface {
	prepare(ih *inputHash) error
	setup() error
	teardown() error
	generators() int
	cycle(g *gen)
	observe(obs *observations, gens []*gen) error
}

// ack is one acknowledged upload; fetchObs one prior fetch. Both are
// timestamped against the timed section's start and feed the passive
// staleness metric.
type ack struct {
	at      time.Duration
	version uint64
}

type fetchObs struct {
	at    time.Duration
	built uint64
}

// gen is one generator goroutine's private state. Nothing in it is
// shared while the timed section runs.
type gen struct {
	id    int
	epoch time.Time
	rec   *recorder // nil on untraced runs

	lat      []float64 // latency of each single op, seconds
	ops      int       // ops attempted (a batch of 16 uploads is 16 ops)
	failed   int
	firstErr error

	acks       []ack
	fetches    []fetchObs
	syncs      []float64 // sync-cycle durations, seconds (tiered_sync)
	tasksAcked int       // uploaded tasks acknowledged, any tier

	badPriors int // fetched priors whose weights or dim were wrong

	// traceCost holds, for each pair of consecutive cycles of a traced
	// run, seconds-per-op of the traced cycle ÷ seconds-per-op of the
	// untraced one. Spans are recorded on one cycle of each pair (a
	// seeded coin picks which), so both costs come from the same moment
	// of the same evolving system.
	traceCost []float64
}

func newGen(id int, traced bool) *gen {
	g := &gen{id: id, lat: make([]float64, 0, 1<<16), acks: make([]ack, 0, 1<<14), fetches: make([]fetchObs, 0, 1<<14)}
	if traced {
		g.rec = newRecorder(time.Now())
	}
	return g
}

// fail records a failed operation of n ops.
func (g *gen) fail(n int, err error) {
	g.ops += n
	g.failed += n
	if g.firstErr == nil {
		g.firstErr = err
	}
}

// done records one completed single op and its latency.
func (g *gen) done(start time.Time) {
	g.ops++
	g.lat = append(g.lat, time.Since(start).Seconds())
}

// acked logs one acknowledged upload (or batch) at its store version.
func (g *gen) acked(version uint64) {
	g.acks = append(g.acks, ack{at: time.Since(g.epoch), version: version})
}

func (g *gen) fetched(built uint64) {
	g.fetches = append(g.fetches, fetchObs{at: time.Since(g.epoch), built: built})
}

// checkPrior is the per-fetch correctness check: weights sum to one and
// the dimension is the one asked for. It is O(components), cheap enough
// to run on every prior a generator receives.
func (g *gen) checkPrior(p *drdp.Prior, dim int) {
	if !priorWellFormed(p, dim) {
		g.badPriors++
	}
}

func priorWellFormed(p *drdp.Prior, dim int) bool {
	if p == nil || p.Dim != dim {
		return false
	}
	total := p.BaseWeight
	for i := range p.Components {
		total += p.Components[i].Weight
	}
	return math.Abs(total-1) <= 1e-9
}

// observations is everything a run learned outside the timed section
// that the correctness checks and the per-layer metrics read. Workloads
// fill the parts that apply to them.
type observations struct {
	dim    int            // parameter dimensionality every fetched prior must have
	codecs map[string]int // negotiated codec → connections the harness opened

	setupComponents int // components of the served prior after set-up (0 = not checked)

	// Fitting workloads: mean held-out accuracy of the sampled models
	// and of local-only ERM on the same training sets (NaN = no fitting).
	accuracy, ermAccuracy float64
	accuracyModels        int

	// ingest_burst: durability across a restart, and admission.
	reopenChecked              bool
	wantLen, gotLen            int
	wantVersion, gotVersion    uint64
	poisonStored, poisonCaught int

	// prior_fanout: delta-refreshed priors byte-compared with full ones.
	fanoutChecked                 bool
	deltaChecked, deltaMismatched int

	// tiered_sync.
	tieredChecked  bool
	replicated     bool // WaitReplicated returned true
	followersLevel bool // every follower's store version equals its leader's
	regionStats    drdp.RegionSyncStats

	capture capture // traced runs only
}

// capture holds inputs captured from a traced run for the replay phase:
// each layer's public functions are later fed exactly these.
type capture struct {
	task                   drdp.TaskPosterior // one uploaded posterior
	oldPrior, newPrior     *drdp.Prior        // a prior a device held, and the served prior one task later (nil = no cloud captured)
	oldVersion, newVersion uint64
	pool                   []drdp.TaskPosterior // the serving store's final task pool
	openSeconds            float64              // recovery time of that store's directory, once closed
	shardPriors            []*drdp.Prior        // per-shard priors (merge)

	// Fitting replay inputs (fit_heavy): an n=1000 dataset, the prior
	// the learners trained against, and the model.
	fitLarge *labelled
	compiled *drdp.CompiledPrior
	model    *drdp.Logistic
}

// reading is the process-wide state sampled just before and just after
// the timed section.
type reading struct {
	at    time.Time
	cpu   time.Duration
	alloc uint64
	tel   drdp.TelemetryValues
	meter meterReading
}

func takeReading(m *meterFS) (reading, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return reading{}, fmt.Errorf("getrusage: %w", err)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r := reading{
		at:    time.Now(),
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: ms.TotalAlloc,
		tel:   drdp.TelemetrySnapshot(),
	}
	if m != nil {
		r.meter = m.read()
	}
	return r, nil
}

func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // ru_maxrss is KiB on Linux
}

// result is a finished run.
type result struct {
	cfg       config
	inputsSHA string
	prepare   time.Duration
	attempted int
	failed    int
	opSamples int
	wall      time.Duration
	metrics   map[string]float64
	failures  []string // correctness checks that failed; non-empty = no metrics printed
	tracePath string
}

// run executes one workload once.
func run(cfg config) (*result, error) {
	if cfg.gens <= 0 {
		cfg.gens = defaultGens()
	}
	var meter *meterFS
	if cfg.trace {
		meter = newMeterFS()
	}
	w, err := newWorkload(cfg, meter)
	if err != nil {
		return nil, err
	}
	ih := newInputHash()
	prepStart := time.Now()
	if err := w.prepare(ih); err != nil {
		return nil, fmt.Errorf("%s: prepare: %w", cfg.workload, err)
	}
	res := &result{cfg: cfg, inputsSHA: ih.sum(), prepare: time.Since(prepStart), metrics: map[string]float64{}}

	var setups []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if err := w.setup(); err != nil {
			w.teardown()
			return nil, fmt.Errorf("%s: setup: %w", cfg.workload, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < setupReps-1 {
			if err := w.teardown(); err != nil {
				return nil, fmt.Errorf("%s: teardown: %w", cfg.workload, err)
			}
		}
	}
	defer w.teardown()

	gens := make([]*gen, w.generators())
	for i := range gens {
		gens[i] = newGen(i, cfg.trace)
	}

	runtime.GC()
	before, err := takeReading(meter)
	if err != nil {
		return nil, err
	}
	epoch := time.Now()
	var wg sync.WaitGroup
	for _, g := range gens {
		g.epoch = epoch
		wg.Add(1)
		go func(g *gen) {
			defer wg.Done()
			coin := subRNG(cfg.seed, fmt.Sprintf("trace-coin/%d", g.id))
			for time.Since(epoch) < cfg.dur && g.failed < maxGenFailures {
				if g.rec == nil {
					w.cycle(g)
					continue
				}
				var cost [2]float64 // [untraced, traced] seconds per op
				first := coin.Intn(2)
				for _, traced := range [2]int{first, 1 - first} {
					g.rec.on = traced == 1
					start, ops := time.Now(), g.ops
					w.cycle(g)
					if n := g.ops - ops; n > 0 {
						cost[traced] = time.Since(start).Seconds() / float64(n)
					}
				}
				if cost[0] > 0 && cost[1] > 0 {
					g.traceCost = append(g.traceCost, cost[1]/cost[0])
				}
			}
		}(g)
	}
	wg.Wait()
	after, err := takeReading(meter)
	if err != nil {
		return nil, err
	}
	res.wall = after.at.Sub(epoch)

	obs := &observations{accuracy: math.NaN(), ermAccuracy: math.NaN()}
	if err := w.observe(obs, gens); err != nil {
		return nil, fmt.Errorf("%s: observe: %w", cfg.workload, err)
	}
	// Any gob traffic at all, on any connection of the process, means a
	// negotiation fell back.
	total := drdp.TelemetrySnapshot()
	gobMsgs := total.Counter("drdp_wire_msgs_total", drdp.L("codec", "gob"), drdp.L("dir", "out")) +
		total.Counter("drdp_wire_msgs_total", drdp.L("codec", "gob"), drdp.L("dir", "in"))

	var lat []float64
	for _, g := range gens {
		res.attempted += g.ops
		res.failed += g.failed
		lat = append(lat, g.lat...)
	}
	res.opSamples = len(lat)
	if res.attempted == 0 || len(lat) == 0 {
		return nil, fmt.Errorf("%s: the timed section completed no operation", cfg.workload)
	}
	ev := evidence{obs: obs, failedOps: res.failed, gobMsgs: gobMsgs,
		timedDials: after.tel.CounterDelta(before.tel, "drdp_edge_client_dials_total")}
	ev.respFull, ev.respDelta, ev.respNotModified = respCounts(before, after)
	for _, g := range gens {
		ev.badPriors += g.badPriors
		if g.firstErr != nil {
			fmt.Fprintf(os.Stderr, "bench: generator %d: first failure: %v\n", g.id, g.firstErr)
		}
	}
	res.failures = verify(ev)

	completed := float64(res.attempted - res.failed)
	ops := float64(res.attempted)
	sort.Float64s(lat)
	m := res.metrics
	m["ops_per_s"] = completed / res.wall.Seconds()
	m["op_p50_ms"] = 1e3 * quantileSorted(lat, 0.50)
	m["op_p99_ms"] = 1e3 * quantileSorted(lat, 0.99)
	m["cpu_ms_per_op"] = 1e3 * (after.cpu - before.cpu).Seconds() / ops
	m["alloc_kb_per_op"] = float64(after.alloc-before.alloc) / 1024 / ops
	if m["peak_rss_mb"], err = peakRSSMB(); err != nil {
		return nil, err
	}
	m["setup_s"] = median(setups)

	if cfg.trace {
		recs := make([]*recorder, len(gens))
		for i, g := range gens {
			recs[i] = g.rec
		}
		if err := perLayerMetrics(res, obs, gens, collectSpans(recs), before, after, meter); err != nil {
			return nil, err
		}
		if res.tracePath, err = writeTrace(cfg.outDir, cfg.workload, cfg.seed, recs); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// quantileSorted is the nearest-rank quantile of an ascending slice.
func quantileSorted(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// quantile sorts a copy of xs and returns its nearest-rank quantile
// (0 for an empty sample: "not measured").
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// staleness computes, for every fetch, the age of the oldest upload
// that had been acknowledged before the fetch yet was not covered by
// the prior the fetch returned (0 when the prior covered everything
// acknowledged). It uses only the generators' own logs.
func staleness(gens []*gen) []float64 {
	var acks []ack
	for _, g := range gens {
		acks = append(acks, g.acks...)
	}
	if len(acks) == 0 {
		return nil
	}
	sort.Slice(acks, func(i, j int) bool { return acks[i].version < acks[j].version })
	// earliest[i] = earliest ack time among acks[i:].
	earliest := make([]time.Duration, len(acks))
	for i := len(acks) - 1; i >= 0; i-- {
		earliest[i] = acks[i].at
		if i+1 < len(acks) && earliest[i+1] < earliest[i] {
			earliest[i] = earliest[i+1]
		}
	}
	var out []float64
	for _, g := range gens {
		for _, f := range g.fetches {
			i := sort.Search(len(acks), func(i int) bool { return acks[i].version > f.built })
			age := 0.0
			if i < len(acks) && earliest[i] < f.at {
				age = (f.at - earliest[i]).Seconds()
			}
			out = append(out, age)
		}
	}
	return out
}

// dirs hands out fresh scratch directories under the run's work dir.
type dirs struct {
	root string
	n    int
}

func (d *dirs) fresh(name string) (string, error) {
	d.n++
	p := filepath.Join(d.root, fmt.Sprintf("%s-%d", name, d.n))
	if err := os.MkdirAll(p, 0o755); err != nil {
		return "", err
	}
	return p, nil
}

// copyDir copies the regular files of src into dst (store directories
// are flat).
func copyDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// populateStore writes tasks into a fresh store directory without
// fsync, compacting every snapshotEvery appends (0 = the store's own
// cadence, negative = never). With the default cadence it prepares the
// on-disk state a workload's set-up then opens the way a restarted cloud
// would: recovery from snapshot plus log.
func populateStore(dir string, tasks []drdp.TaskPosterior, snapshotEvery int) error {
	st, err := drdp.OpenStore(drdp.StoreOptions{Dir: dir, NoSync: true, SnapshotEvery: snapshotEvery, Logger: drdp.DiscardLogger()})
	if err != nil {
		return err
	}
	for i, t := range tasks {
		if _, err := st.Append(t); err != nil {
			st.Close()
			return fmt.Errorf("seed task %d: %w", i, err)
		}
	}
	return st.Close()
}

// cloud is one durable CloudServer serving on loopback.
type cloud struct {
	srv   *drdp.CloudServer
	addr  string
	dir   string
	done  chan error
	close sync.Once
	err   error
}

// startCloud opens the store in dir (fsync on, recovery re-validating
// every record), starts a server on it with the admission judge on, and
// waits until the served prior covers the recovered tasks. fs is nil on
// untraced runs.
func startCloud(dir string, fs store.FS, build drdp.PriorBuildOptions) (*cloud, error) {
	st, err := drdp.OpenStore(drdp.StoreOptions{Dir: dir, Validate: drdp.NewTaskValidator(), FS: fs, Logger: drdp.DiscardLogger()})
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	srv, err := drdp.NewCloudServerWithStore(st, nil, build, drdp.DiscardLogger())
	if err != nil {
		st.Close()
		return nil, err
	}
	srv.SetAdmission(drdp.AdmissionConfig{Quarantine: true})
	c, err := serve(srv, dir)
	if err != nil {
		return nil, err
	}
	srv.WaitCaughtUp()
	return c, nil
}

// serve starts srv on a loopback port; on failure srv is closed.
func serve(srv *drdp.CloudServer, dir string) (*cloud, error) {
	c := &cloud{srv: srv, dir: dir, done: make(chan error, 1)}
	addrCh := make(chan string, 1)
	go func() { c.done <- srv.ListenAndServe("127.0.0.1:0", addrCh) }()
	select {
	case c.addr = <-addrCh:
		return c, nil
	case err := <-c.done:
		srv.Close()
		return nil, err
	}
}

// stop closes the server (which syncs and closes its store) and waits
// for the accept loop to return. Idempotent.
func (c *cloud) stop() error {
	if c == nil {
		return nil
	}
	c.close.Do(func() {
		c.err = c.srv.Close()
		if serr := <-c.done; c.err == nil {
			c.err = serr
		}
	})
	return c.err
}

// rig is the system three workloads share: one durable cloud recovered
// from a copy of a template store directory, with one strict-binary
// connection and one prior cache per generator.
type rig struct {
	template string
	cloud    *cloud
	muxes    []*drdp.MuxClient
	caches   []*drdp.PriorCache
}

// populate writes the tasks the cloud will recover at every set-up.
func (r *rig) populate(b *base, tasks []drdp.TaskPosterior) error {
	var err error
	if r.template, err = b.dirs.fresh("template"); err != nil {
		return err
	}
	return populateStore(r.template, tasks, 0)
}

func (r *rig) up(b *base) error {
	dir, err := b.dirs.fresh("cloud")
	if err != nil {
		return err
	}
	if err := copyDir(r.template, dir); err != nil {
		return err
	}
	if r.cloud, err = startCloud(dir, b.fs(), b.build()); err != nil {
		return err
	}
	if r.muxes, err = dialMuxes(r.cloud.addr, b.cfg.gens); err != nil {
		return err
	}
	r.caches = make([]*drdp.PriorCache, b.cfg.gens)
	for i := range r.caches {
		if r.caches[i], err = drdp.NewPriorCache(""); err != nil {
			return err
		}
	}
	return nil
}

// teardown closes the connections and the cloud. Idempotent.
func (r *rig) teardown() error {
	err := closeMuxes(r.muxes)
	r.muxes = nil
	if serr := r.cloud.stop(); err == nil {
		err = serr
	}
	return err
}

func (r *rig) codecs() map[string]int { return muxCodecs(r.muxes) }

// closeAndReopen tears the rig down and recovers its store directory
// the way a restarted cloud would, timing the recovery.
func (r *rig) closeAndReopen() (length int, version uint64, seconds float64, err error) {
	if err := r.teardown(); err != nil {
		return 0, 0, 0, err
	}
	return reopen(r.cloud.dir)
}

// muxCodecs counts connections by negotiated codec.
func muxCodecs(ms []*drdp.MuxClient) map[string]int {
	out := map[string]int{}
	for _, m := range ms {
		out[m.Codec().String()]++
	}
	return out
}

// dialMuxes opens n strict-binary multiplexed connections to addr.
func dialMuxes(addr string, n int) ([]*drdp.MuxClient, error) {
	out := make([]*drdp.MuxClient, 0, n)
	for i := 0; i < n; i++ {
		m, err := drdp.DialMux(addr, 2*time.Second, drdp.WirePreferBinary)
		if err != nil {
			closeMuxes(out)
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

func closeMuxes(ms []*drdp.MuxClient) error {
	var errs []error
	for _, m := range ms {
		errs = append(errs, m.Close())
	}
	return errors.Join(errs...)
}

// refresh is a device's warm-cache prior refresh: a delta fetch against
// the cached version (a full fetch when cold). It returns the prior to
// train with and the built version the server reported.
func refresh(m *drdp.MuxClient, cache *drdp.PriorCache, dim int) (*drdp.Prior, uint64, error) {
	cached, known, ok := cache.Get()
	if !ok {
		p, v, err := m.FetchPrior(dim)
		if err != nil {
			return nil, 0, err
		}
		return p, v, cache.Put(p, v)
	}
	p, v, err := m.FetchPriorDelta(dim, known, cached)
	if err != nil {
		return nil, 0, err
	}
	if p == nil { // not modified: the cached copy is current
		return cached, v, nil
	}
	return p, v, cache.Put(p, v)
}
