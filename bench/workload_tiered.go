package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/drdp/drdp"
	"github.com/drdp/drdp/internal/store"
)

// ---------------------------------------------------------------------
// tiered_sync: edge → region → replicated cloud. A 2-shard × 2-replica
// cluster (semi-sync, disk stores) with one region uplinked to shard
// 0's leader. Each generator alternates 32 device exchanges against the
// region with one full sync cycle through both tiers. One op is one
// exchange, an upload followed by a refresh: timing the two halves as
// separate ops would put the median on the boundary between them.

const (
	tieredExchanges = 32 // {ReportTask + FetchPriorDelta} pairs per cycle
	tieredBatch     = 8  // tasks per direct cluster upload in a sync cycle
	tieredSeeds     = 64 // tasks the region starts with
)

type tieredSync struct {
	base
	regionSeed []drdp.TaskPosterior
	devicePool []drdp.TaskPosterior // uploaded to the region
	directPool []drdp.TaskPosterior // uploaded straight to the cluster (distinct: nodes dedupe)
	nextDevice atomic.Int64
	nextDirect atomic.Int64

	cluster   *drdp.Cluster
	region    *drdp.Region
	regionDir string
	served    chan error
	muxes     []*drdp.MuxClient
	caches    []*drdp.PriorCache
	sharded   []*drdp.ShardedClient
}

func (w *tieredSync) generators() int { return w.cfg.gens }

func (w *tieredSync) prepare(ih *inputHash) error {
	device := w.cfg.pick(1<<15, 1<<10)
	direct := w.cfg.pick(1<<13, 1<<8)
	rng := subRNG(w.cfg.seed, "posteriors")
	all := newSynth(synthParams, synthClusters, familySpread).draw(rng, ih, tieredSeeds+device+direct, 1)
	w.regionSeed = all[:tieredSeeds]
	w.devicePool = all[tieredSeeds : tieredSeeds+device]
	w.directPool = all[tieredSeeds+device:]
	return nil
}

func (w *tieredSync) setup() error {
	clusterDir, err := w.dirs.fresh("cluster")
	if err != nil {
		return err
	}
	if w.regionDir, err = w.dirs.fresh("region"); err != nil {
		return err
	}
	w.cluster, err = drdp.StartCluster(drdp.ClusterConfig{
		Shards: 2, Replicas: 2, Dir: clusterDir, Build: w.build(), SyncReplicas: 1,
		NodeFS: func(int, int) store.FS { return w.fs() },
		Seed:   geometrySeed, Logger: drdp.DiscardLogger(),
	})
	if err != nil {
		return err
	}
	w.region, err = drdp.StartRegion(drdp.RegionConfig{
		Name: "bench", CloudAddr: w.cluster.LeaderOf(0).Addr(), Dir: w.regionDir, Build: w.build(),
		WireCodec: drdp.WirePreferBinary, Seed: geometrySeed, Logger: drdp.DiscardLogger(),
	}, w.regionSeed)
	if err != nil {
		return err
	}
	w.served = make(chan error, 1)
	addrCh := make(chan string, 1)
	go func() { w.served <- w.region.ListenAndServe("127.0.0.1:0", addrCh) }()
	var addr string
	select {
	case addr = <-addrCh:
	case err := <-w.served:
		w.served <- err
		return err
	}
	if w.muxes, err = dialMuxes(addr, w.cfg.gens); err != nil {
		return err
	}
	w.caches = make([]*drdp.PriorCache, w.cfg.gens)
	w.sharded = make([]*drdp.ShardedClient, w.cfg.gens)
	for i := range w.caches {
		if w.caches[i], err = drdp.NewPriorCache(""); err != nil {
			return err
		}
		w.sharded[i] = drdp.DialSharded(w.cluster.CoordinatorAddr(), drdp.ResilientOptions{
			DialTimeout: 2 * time.Second, RoundTripTimeout: 10 * time.Second,
			Seed: geometrySeed + int64(i), Logger: drdp.DiscardLogger(), WireCodec: drdp.WirePreferBinary,
		})
	}
	w.nextDevice.Store(0)
	w.nextDirect.Store(0)
	// Warm-up: one full cycle per generator — dials every lazy
	// connection, seeds both shards and gives the region a cloud prior.
	warm := newGen(0, false)
	for i := 0; i < w.cfg.gens; i++ {
		warm.id = i
		w.cycle(warm)
	}
	if warm.firstErr != nil {
		return fmt.Errorf("warm-up: %w", warm.firstErr)
	}
	w.region.Server().WaitCaughtUp()
	return nil
}

func (w *tieredSync) teardown() error {
	err := closeMuxes(w.muxes)
	w.muxes = nil
	for _, sc := range w.sharded {
		if cerr := sc.Close(); err == nil {
			err = cerr
		}
	}
	w.sharded = nil
	if w.region != nil {
		if cerr := w.region.Close(); err == nil {
			err = cerr
		}
		if serr := <-w.served; err == nil {
			err = serr
		}
		w.region = nil
	}
	if w.cluster != nil {
		if cerr := w.cluster.Close(); err == nil {
			err = cerr
		}
		w.cluster = nil
	}
	return err
}

func (w *tieredSync) cycle(g *gen) {
	m, cache := w.muxes[g.id], w.caches[g.id]
	for i := 0; i < tieredExchanges; i++ {
		t := w.devicePool[int(w.nextDevice.Add(1)-1)%len(w.devicePool)]
		start := time.Now()
		op := g.rec.begin(spOp)
		sp := g.rec.begin(spReport)
		v, err := m.ReportTask(t)
		g.rec.end(sp)
		if err != nil {
			g.rec.end(op)
			g.fail(1, fmt.Errorf("report: %w", err))
			continue
		}
		g.tasksAcked++
		g.acked(v)
		sp = g.rec.begin(spFetch)
		p, built, err := refresh(m, cache, synthParams)
		g.rec.end(sp)
		g.rec.end(op)
		if err != nil {
			g.fail(1, fmt.Errorf("fetch: %w", err))
			continue
		}
		g.fetched(built)
		g.checkPrior(p, synthParams)
		g.done(start)
	}
	w.syncCycle(g)
}

// syncCycle pushes the region's window up, uploads a batch straight to
// the cluster, reads the merged cluster prior and pulls it down into
// the region.
func (w *tieredSync) syncCycle(g *gen) {
	start := time.Now()
	cyc := g.rec.begin(spSyncCycle)
	defer func() {
		g.rec.end(cyc)
		g.syncs = append(g.syncs, time.Since(start).Seconds())
	}()

	sp := g.rec.begin(spRegionFlush)
	_, err := w.region.FlushUp()
	g.rec.end(sp)
	if err != nil {
		g.fail(1, fmt.Errorf("flush up: %w", err))
		return
	}

	first := int(w.nextDirect.Add(tieredBatch)-tieredBatch) % (len(w.directPool) - tieredBatch)
	sp = g.rec.begin(spClusterBatch)
	n, err := w.sharded[g.id].BatchReportTasks(w.directPool[first : first+tieredBatch])
	g.rec.end(sp)
	g.tasksAcked += n
	if err != nil {
		g.fail(1, fmt.Errorf("cluster batch: %w", err))
		return
	}

	sp = g.rec.begin(spClusterMerged)
	p, err := w.sharded[g.id].FetchMergedPrior(synthParams)
	g.rec.end(sp)
	if err != nil {
		g.fail(1, fmt.Errorf("merged fetch: %w", err))
		return
	}
	g.checkPrior(p, synthParams)

	sp = g.rec.begin(spRegionSyncDown)
	err = w.region.SyncDown()
	g.rec.end(sp)
	if err != nil {
		g.fail(1, fmt.Errorf("sync down: %w", err))
	}
}

func (w *tieredSync) observe(obs *observations, gens []*gen) error {
	obs.dim = synthParams
	obs.tieredChecked = true
	obs.codecs = muxCodecs(w.muxes)
	for _, sc := range w.sharded {
		for codec, n := range sc.Codecs() {
			obs.codecs[codec] += n
		}
	}
	obs.replicated = w.cluster.WaitReplicated(10 * time.Second)
	obs.followersLevel = true
	for s := 0; s < 2; s++ {
		leader := w.cluster.LeaderOf(s)
		for r := 0; r < 2; r++ {
			if n := w.cluster.Node(s, r); leader == nil || n.Server().Store().Version() != leader.Server().Store().Version() {
				obs.followersLevel = false
			}
		}
	}
	obs.regionStats = w.region.Stats()
	if !w.cfg.trace {
		return nil
	}
	for s := 0; s < 2; s++ {
		p, _, err := w.sharded[0].ShardPrior(s, synthParams)
		if err != nil {
			return fmt.Errorf("capture shard %d prior: %w", s, err)
		}
		obs.capture.shardPriors = append(obs.capture.shardPriors, p)
	}
	old, oldVersion, _ := w.caches[0].Get()
	if err := captureCloud(&obs.capture, w.region.Server(), old, oldVersion, w.devicePool[0]); err != nil {
		return err
	}
	dir := w.regionDir
	if err := w.teardown(); err != nil {
		return err
	}
	var err error
	_, _, obs.capture.openSeconds, err = reopen(dir)
	return err
}
