package main

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/drdp/drdp"
)

// The synthetic-posterior workloads that share edge_round's model size
// (logistic dim 16 + bias) upload from four clusters.
const (
	synthParams   = edgeDim + 1
	synthClusters = 4
)

// captureCloud records the replay inputs a single cloud can give: one
// uploaded task, a served prior the device held (old) and the prior
// after one more task lands (new), and the final task pool.
func captureCloud(c *capture, srv *drdp.CloudServer, old *drdp.Prior, oldVersion uint64, task drdp.TaskPosterior) error {
	if old == nil { // the device never refreshed: diff against the prior being served now
		var err error
		if old, oldVersion, err = srv.Prior(); err != nil {
			return fmt.Errorf("capture: %w", err)
		}
	}
	if _, err := srv.AddTask(task); err != nil {
		return fmt.Errorf("capture: %w", err)
	}
	srv.WaitCaughtUp()
	p, v, err := srv.Prior()
	if err != nil {
		return fmt.Errorf("capture: %w", err)
	}
	c.task = task
	c.oldPrior, c.oldVersion, c.newPrior, c.newVersion = old, oldVersion, p, v
	c.pool, _ = srv.Store().View()
	return nil
}

// reopen opens a closed store directory the way a restarted cloud
// would, and reports what recovery found and how long it took.
func reopen(dir string) (length int, version uint64, seconds float64, err error) {
	start := time.Now()
	st, err := drdp.OpenStore(drdp.StoreOptions{Dir: dir, Validate: drdp.NewTaskValidator(), Logger: drdp.DiscardLogger()})
	if err != nil {
		return 0, 0, 0, fmt.Errorf("reopen %s: %w", dir, err)
	}
	seconds = time.Since(start).Seconds()
	length, version = st.Len(), st.Version()
	return length, version, seconds, st.Close()
}

// ---------------------------------------------------------------------
// ingest_burst: the write path. No fitting: pre-generated posteriors
// (1 % adversarial) are uploaded over G connections, even generators
// one ReportTask at a time, odd ones in BatchReportTasks(16); every 32
// uploads a generator samples staleness with one FetchPriorDelta.

const (
	ingestBatch       = 16  // tasks per BatchReportTasks
	ingestPerCycle    = 32  // uploads per cycle, followed by one staleness-sampling fetch
	ingestPoisonEvery = 100 // one upload in this many is adversarial
)

type ingestBurst struct {
	base
	rig
	seeds int
	pool  []drdp.TaskPosterior
	next  atomic.Int64 // next pool index to upload
	acked atomic.Int64 // uploads acknowledged since set-up (warm-up included)
}

func (w *ingestBurst) generators() int { return w.cfg.gens }

func (w *ingestBurst) prepare(ih *inputHash) error {
	w.seeds = w.cfg.pick(1024, 96)
	rng := subRNG(w.cfg.seed, "posteriors")
	all := newSynth(synthParams, synthClusters, familySpread).draw(rng, ih, w.seeds+w.cfg.pick(1<<16, 1<<11), 1)
	w.pool = all[w.seeds:]
	for i := range w.pool {
		if i%ingestPoisonEvery == ingestPoisonEvery-1 {
			w.pool[i] = poison(w.pool[i])
		}
	}
	return w.populate(&w.base, all[:w.seeds])
}

func (w *ingestBurst) setup() error {
	if err := w.up(&w.base); err != nil {
		return err
	}
	w.next.Store(0)
	w.acked.Store(0)
	// Warm-up: 200 untimed uploads, in the generators' own shapes.
	warm := newGen(0, false)
	for c := 0; warm.tasksAcked < w.cfg.pick(200, 32) && warm.firstErr == nil; c++ {
		warm.id = c % w.cfg.gens
		w.cycle(warm)
	}
	if warm.firstErr != nil {
		return fmt.Errorf("warm-up: %w", warm.firstErr)
	}
	w.cloud.srv.WaitCaughtUp()
	return nil
}

// take returns the next n pool entries (wrapping: a system fast enough
// to exhaust the pool re-uploads it, which a standalone cloud accepts).
func (w *ingestBurst) take(n int) []drdp.TaskPosterior {
	start := int(w.next.Add(int64(n))-int64(n)) % len(w.pool)
	if start+n <= len(w.pool) {
		return w.pool[start : start+n]
	}
	return append(append([]drdp.TaskPosterior(nil), w.pool[start:]...), w.pool[:start+n-len(w.pool)]...)
}

// cycle is 32 uploads — single ReportTasks on even generators, two
// BatchReportTasks(16) on odd ones — followed by one prior refresh.
// Every cycle of a generator has the same shape, which the paired
// tracing-overhead estimate relies on.
func (w *ingestBurst) cycle(g *gen) {
	m := w.muxes[g.id]
	if g.id%2 == 0 {
		for _, t := range w.take(ingestPerCycle) {
			start := time.Now()
			op := g.rec.begin(spOp)
			sp := g.rec.begin(spReport)
			v, err := m.ReportTask(t)
			g.rec.end(sp)
			g.rec.end(op)
			if err != nil {
				g.fail(1, fmt.Errorf("report: %w", err))
				continue
			}
			w.acked.Add(1)
			g.tasksAcked++
			g.acked(v)
			g.done(start)
		}
	} else {
		for b := 0; b < ingestPerCycle/ingestBatch; b++ {
			op := g.rec.begin(spOp)
			sp := g.rec.begin(spReportBatch)
			v, n, err := m.BatchReportTasks(w.take(ingestBatch))
			g.rec.end(sp)
			g.rec.end(op)
			w.acked.Add(int64(n))
			g.tasksAcked += n
			if err != nil {
				g.fail(ingestBatch, fmt.Errorf("batch report: %w", err))
				continue
			}
			g.ops += ingestBatch
			g.acked(v)
		}
	}
	sp := g.rec.begin(spFetch)
	p, built, err := refresh(m, w.caches[g.id], synthParams)
	g.rec.end(sp)
	if err != nil {
		g.fail(1, fmt.Errorf("fetch: %w", err))
		return
	}
	g.fetched(built)
	g.checkPrior(p, synthParams)
}

func (w *ingestBurst) observe(obs *observations, gens []*gen) error {
	obs.dim = synthParams
	obs.codecs = w.codecs()
	srv := w.cloud.srv
	srv.WaitCaughtUp()
	tasks, seqs, version := srv.Store().ViewRecords()
	verdicts := srv.Store().Verdicts()
	for i, t := range tasks {
		if t.N == poisonN {
			obs.poisonStored++
			if verdicts[seqs[i]] {
				obs.poisonCaught++
			}
		}
	}
	obs.wantLen, obs.wantVersion = w.seeds+int(w.acked.Load()), version
	if w.cfg.trace {
		old, oldVersion, _ := w.caches[0].Get()
		if err := captureCloud(&obs.capture, srv, old, oldVersion, w.pool[0]); err != nil {
			return err
		}
		obs.wantLen++
		obs.wantVersion++
	}
	// Durability: close, reopen, and the store must hold exactly the seed
	// plus every acknowledged upload at an unchanged version.
	var err error
	obs.reopenChecked = true
	obs.gotLen, obs.gotVersion, obs.capture.openSeconds, err = w.closeAndReopen()
	return err
}

// ---------------------------------------------------------------------
// prior_fanout: the read path of the same server. G readers walk a
// fixed cycle of fetch kinds against a large prior while one upload per
// eight fetches keeps versions rotating.

const (
	fanoutParams   = 49 // logistic dim 48 + bias
	fanoutClusters = 6
	fanoutHistory  = 16  // distinct built versions a reader remembers
	fanoutCheckOne = 64  // one delta-refreshed prior in this many is byte-compared
	fanoutBurst    = 256 // consecutive uploads drawn from one cluster
	// In 49 dimensions the diffuse base measure makes a new cluster so
	// expensive that centers at the family's usual norm of 4 merge into
	// one component; at 8 the six clusters stay apart.
	fanoutSpread = 8.0
)

// held is a prior a reader holds, with the built version it was served at.
type held struct {
	version uint64
	prior   *drdp.Prior
}

// reader is one generator's memory of recent priors, newest last.
type reader struct {
	hist      []held
	refreshes int    // non-trivial FetchPriorDelta results so far
	pending   *held  // a delta-refreshed prior awaiting its byte comparison
	pairs     []pair // (delta-refreshed, fully fetched) priors at one version
}

type pair struct{ patched, full *drdp.Prior }

// remember appends p if it is newer than everything held.
func (r *reader) remember(p *drdp.Prior, v uint64) {
	if n := len(r.hist); n > 0 && r.hist[n-1].version >= v {
		return
	}
	r.hist = append(r.hist, held{v, p})
	if len(r.hist) > fanoutHistory {
		r.hist = r.hist[1:]
	}
}

// back returns the entry k versions behind the newest (clamped to the
// oldest held).
func (r *reader) back(k int) held {
	i := len(r.hist) - 1 - k
	if i < 0 {
		i = 0
	}
	return r.hist[i]
}

type priorFanout struct {
	base
	rig
	seeds   int
	pool    []drdp.TaskPosterior
	next    atomic.Int64
	readers []*reader
}

func (w *priorFanout) generators() int { return w.cfg.gens }

func (w *priorFanout) prepare(ih *inputHash) error {
	w.seeds = w.cfg.pick(512, 96)
	rng := subRNG(w.cfg.seed, "posteriors")
	syn := newSynth(fanoutParams, fanoutClusters, fanoutSpread)
	seeds := syn.draw(rng, ih, w.seeds, 1)
	// Uploads arrive in bursts of one cluster: a rebuild that folds in a
	// few dozen of them changes one or two components, which is what
	// lets the server answer with a delta instead of the full prior.
	w.pool = syn.draw(rng, ih, w.cfg.pick(1<<14, 1<<10), fanoutBurst)
	return w.populate(&w.base, seeds)
}

func (w *priorFanout) setup() error {
	if err := w.up(&w.base); err != nil {
		return err
	}
	w.next.Store(0)
	w.readers = make([]*reader, w.cfg.gens)
	for i := range w.readers {
		w.readers[i] = &reader{}
	}
	// Warm-up: rotate enough built versions that every reader holds a
	// version the server's history ring has already dropped, then walk
	// the fetch cycle untimed.
	for v := 0; v < fanoutHistory; v++ {
		if _, err := w.muxes[0].ReportTask(w.upload()); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		w.cloud.srv.WaitCaughtUp()
		for i, m := range w.muxes {
			p, built, err := m.FetchPrior(fanoutParams)
			if err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
			w.readers[i].remember(p, built)
		}
	}
	warm := newGen(0, false)
	for n := 0; n < w.cfg.pick(200, 16); n += len(fanoutCycle) {
		warm.id = (n / len(fanoutCycle)) % w.cfg.gens
		w.cycle(warm)
	}
	if warm.firstErr != nil {
		return fmt.Errorf("warm-up: %w", warm.firstErr)
	}
	w.cloud.srv.WaitCaughtUp()
	return nil
}

func (w *priorFanout) upload() drdp.TaskPosterior {
	return w.pool[int(w.next.Add(1)-1)%len(w.pool)]
}

// fanoutCycle is the fixed order of fetch kinds one cycle walks: -1 is
// a full FetchPrior; k >= 0 is a FetchPriorDelta from the version k
// built versions behind the newest the reader holds. k = 0 is answered
// not-modified while no rebuild lands in between, 2..4 are within the
// server's history ring of 8 (delta), 12 is beyond it (history miss,
// full prior).
var fanoutCycle = [8]int{-1, 0, 2, 0, 3, 12, 4, 0}

func (w *priorFanout) cycle(g *gen) {
	m, r := w.muxes[g.id], w.readers[g.id]
	for _, k := range fanoutCycle {
		start := time.Now()
		op := g.rec.begin(spOp)
		sp := g.rec.begin(spFetch)
		var p *drdp.Prior
		var built uint64
		var err error
		if k < 0 {
			p, built, err = m.FetchPrior(fanoutParams)
		} else {
			from := r.back(k)
			p, built, err = m.FetchPriorDelta(fanoutParams, from.version, from.prior)
		}
		g.rec.end(sp)
		g.rec.end(op)
		if err != nil {
			g.fail(1, fmt.Errorf("fetch(%d): %w", k, err))
			continue
		}
		g.done(start)
		if p == nil {
			continue // not modified
		}
		g.checkPrior(p, fanoutParams)
		switch {
		case k < 0:
			if r.pending != nil && r.pending.version == built {
				r.pairs = append(r.pairs, pair{patched: r.pending.prior, full: p})
			}
			r.pending = nil
		case k > 0:
			// One refreshed prior in 64 is held for a byte comparison
			// with the next full fetch.
			if r.refreshes++; r.refreshes%w.cfg.pick(64, 1) == 0 {
				r.pending = &held{built, p}
			}
		}
		r.remember(p, built)
	}
	sp := g.rec.begin(spReport)
	_, err := m.ReportTask(w.upload())
	g.rec.end(sp)
	if err != nil {
		g.fail(1, fmt.Errorf("report: %w", err))
		return
	}
	g.tasksAcked++
}

func (w *priorFanout) observe(obs *observations, gens []*gen) error {
	obs.dim = fanoutParams
	obs.fanoutChecked = true
	obs.codecs = w.codecs()
	for _, r := range w.readers {
		for _, pr := range r.pairs {
			var a, b bytes.Buffer
			if err := pr.patched.Encode(&a); err != nil {
				return err
			}
			if err := pr.full.Encode(&b); err != nil {
				return err
			}
			obs.deltaChecked++
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				obs.deltaMismatched++
			}
		}
	}
	if !w.cfg.trace {
		return nil
	}
	newest := w.readers[0].back(0)
	if err := captureCloud(&obs.capture, w.cloud.srv, newest.prior, newest.version, w.upload()); err != nil {
		return err
	}
	var err error
	_, _, obs.capture.openSeconds, err = w.closeAndReopen()
	return err
}
