package main

import (
	"fmt"
	"math"
	"time"

	"github.com/drdp/drdp"
	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/wire"
)

// perLayerMetrics fills res.metrics with every per-layer metric of a
// traced run: span-derived timings, counter deltas over the timed
// section, and the replay of captured inputs. Metrics that do not apply
// to the workload are reported as 0.
func perLayerMetrics(res *result, obs *observations, gens []*gen, st *spanStats, before, after reading, meter *meterFS) error {
	m := res.metrics
	for i := range perLayer {
		if _, measured := m[perLayer[i].Name]; !measured { // op_p99_ms already is
			m[perLayer[i].Name] = 0
		}
	}
	ops := float64(res.attempted)
	var tasks float64
	var syncs []float64
	for _, g := range gens {
		tasks += float64(g.tasksAcked)
		syncs = append(syncs, g.syncs...)
	}

	// --- the end-to-end quantities that live here (see metrics.go) ----
	m["stale_p50_ms"] = 1e3 * median(staleness(gens))
	m["sync_cycle_p50_ms"] = 1e3 * median(syncs)
	if !math.IsNaN(obs.accuracy) {
		m["accuracy"] = obs.accuracy
	}
	m["failed_share"] = float64(res.failed) / ops

	// --- span -----------------------------------------------------------
	p := func(k spanKind, q, scale float64) float64 { return scale * quantile(st.dur[k], q) }
	m["edge.fetch_ms_p50"] = p(spFetch, 0.50, 1e3)
	m["edge.fetch_ms_p99"] = p(spFetch, 0.99, 1e3)
	m["edge.report_ms_p50"] = p(spReport, 0.50, 1e3)
	m["edge.report_ms_p99"] = p(spReport, 0.99, 1e3)
	m["edge.report_batch16_ms_p50"] = p(spReportBatch, 0.50, 1e3)
	m["dpprior.compile_us_p50"] = p(spCompile, 0.50, 1e6)
	fits := st.fitDurations()
	m["core.fit_ms_p50"] = 1e3 * quantile(fits, 0.50)
	m["core.fit_ms_p99"] = 1e3 * quantile(fits, 0.99)
	m["core.fit_ms_p50.wasserstein"] = p(spFitWasserstein, 0.50, 1e3)
	m["core.fit_ms_p50.kl"] = p(spFitKL, 0.50, 1e3)
	m["core.fit_ms_p50.chi2"] = p(spFitChi2, 0.50, 1e3)
	m["model.laplace_us_p50"] = p(spLaplace, 0.50, 1e6)
	m["region.flush_ms_p50"] = p(spRegionFlush, 0.50, 1e3)
	m["region.syncdown_ms_p50"] = p(spRegionSyncDown, 0.50, 1e3)
	m["cluster.batch_report_ms_p50"] = p(spClusterBatch, 0.50, 1e3)
	m["cluster.merged_fetch_ms_p50"] = p(spClusterMerged, 0.50, 1e3)

	// --- counter --------------------------------------------------------
	delta := func(name string, labels ...drdp.MetricLabel) float64 {
		return after.tel.CounterDelta(before.tel, name, labels...)
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	wireOut := func(name string) float64 {
		return delta(name, drdp.L("codec", "binary"), drdp.L("dir", "out")) + delta(name, drdp.L("codec", "gob"), drdp.L("dir", "out"))
	}
	m["wire_bytes_per_op"] = wireOut("drdp_wire_bytes_total") / ops
	m["wire.msgs_per_op"] = wireOut("drdp_wire_msgs_total") / ops
	fitsRun := delta("drdp_core_fits_total")
	m["core.em_iters_per_fit"] = ratio(delta("drdp_core_em_iterations_total"), fitsRun)
	m["core.mstep_iters_per_fit"] = ratio(delta("drdp_core_mstep_iterations_total"), fitsRun)
	rebuilds, appends := delta("drdp_edge_server_prior_rebuilds_total"), delta("drdp_store_appends_total")
	m["edge.rebuilds_per_kop"] = 1e3 * rebuilds / ops
	m["edge.tasks_per_rebuild"] = ratio(appends, rebuilds)
	full, dlt, notMod := respCounts(before, after)
	m["edge.resp_full_share"] = ratio(full, full+dlt+notMod)
	m["edge.resp_delta_share"] = ratio(dlt, full+dlt+notMod)
	m["edge.resp_not_modified_share"] = ratio(notMod, full+dlt+notMod)
	m["edge.delta_saved_bytes_per_op"] = delta("drdp_edge_server_delta_saved_bytes_total") / ops
	quarantined := delta("drdp_edge_server_admission_total", drdp.L("verdict", "quarantined"))
	m["edge.quarantined_share"] = ratio(quarantined, quarantined+delta("drdp_edge_server_admission_total", drdp.L("verdict", "accepted")))
	m["edge.dials"] = delta("drdp_edge_client_dials_total")
	m["edge.retries"] = delta("drdp_edge_client_retries_total")
	m["edge.client_failures"] = delta("drdp_edge_client_failures_total")
	m["store.snapshots_per_kop"] = 1e3 * delta("drdp_store_snapshots_total") / ops
	m["store.log_bytes_per_task"] = ratio(delta("drdp_store_log_bytes_total"), appends)
	m["cluster.repl_frames_per_pull"] = ratio(delta("drdp_repl_frames_total"), delta("drdp_repl_pulls_total"))
	m["cluster.repl_bytes_per_task"] = ratio(delta("drdp_repl_bytes_total"), delta("drdp_repl_frames_total"))
	m["cluster.ack_timeouts"] = delta("drdp_repl_ack_timeouts_total")
	m["cluster.redirects"] = delta("drdp_cluster_redirects_total")
	m["region.up_bytes_ratio"] = ratio(delta("drdp_region_sync_raw_bytes_total"), delta("drdp_region_sync_up_bytes_total"))
	m["region.summaries_per_flush"] = ratio(delta("drdp_region_sync_summaries_total"), delta("drdp_region_sync_flushes_total"))

	// --- the disk, as the meter saw it during the timed section ---------
	if meter != nil {
		mr := after.meter
		m["store.fsync_per_task"] = ratio(float64(mr.syncs-before.meter.syncs), tasks)
		m["store.write_bytes_per_task"] = ratio(float64(mr.writeBytes-before.meter.writeBytes), tasks)
		m["store.fs_busy_share"] = float64(mr.busyNs-before.meter.busyNs) / float64(res.wall)
		m["store.fsync_us_p50"] = 1e6 * median(meter.syncLatBetween(before.meter, mr))
	}

	// --- replay ----------------------------------------------------------
	rp := replayer{m: m, cfg: res.cfg, dirs: &dirs{root: res.cfg.workDir}}
	c := &obs.capture
	if c.newPrior != nil {
		rp.wire(c)
		if err := rp.prior(c); err != nil {
			return fmt.Errorf("replay dpprior: %w", err)
		}
		if err := rp.store(c); err != nil {
			return fmt.Errorf("replay store: %w", err)
		}
		m["store.open_ms"] = 1e3 * c.openSeconds
	}
	if c.fitLarge != nil {
		identical, err := rp.fit(c)
		if err != nil {
			return fmt.Errorf("replay fit: %w", err)
		}
		if !identical {
			res.failures = append(res.failures, "a fit at Parallelism=G is not byte-identical to the serial fit")
		}
	}

	// --- bookkeeping ------------------------------------------------------
	var covered float64 // self time of the layer spans nested under the roots
	for k := spanKind(0); k < numSpanKinds; k++ {
		if k != spOp && k != spSyncCycle {
			covered += st.self[k]
		}
	}
	m["trace.accounted_share"] = ratio(covered, st.rootWall)
	m["trace.fit_share"] = ratio(st.fitSelf(), st.rootWall)
	m["trace.edge_share"] = ratio(st.self[spFetch]+st.self[spReport]+st.self[spReportBatch], st.rootWall)
	// Tracing overhead: the median, over pairs of adjacent cycles, of
	// traced ÷ untraced cost. Pairing cancels the system's drift (a pool
	// that grows through the run) and the median ignores the pairs a
	// snapshot or a rebuild happened to land in. The run fails only when
	// the overhead exceeds its limit by more than the estimate's own
	// uncertainty (three standard errors of the median, from the MAD), and
	// only with enough pairs for that uncertainty to mean something.
	var logs []float64
	for _, g := range gens {
		for _, r := range g.traceCost {
			logs = append(logs, math.Log(r))
		}
	}
	if len(logs) > 0 {
		mid := median(logs)
		dev := make([]float64, len(logs))
		for i, v := range logs {
			dev[i] = math.Abs(v - mid)
		}
		stderr := 1.2533 * 1.4826 * median(dev) / math.Sqrt(float64(len(logs)))
		m["trace.overhead_share"] = 1 - math.Exp(-mid)
		if atLeast := 1 - math.Exp(-(mid - 3*stderr)); len(logs) >= minOverheadPairs && atLeast > maxTraceOverhead {
			res.failures = append(res.failures, fmt.Sprintf("trace.overhead_share = %.3f (at least %.3f), want <= %.2f",
				m["trace.overhead_share"], atLeast, maxTraceOverhead))
		}
	}
	if c.newPrior != nil {
		explained := (m["wire.encode_req_ns"]+m["wire.decode_req_ns"])/1e6 + (m["dpprior.validate_us"]+m["store.append_us_p50"])/1e3
		m["trace.server_residual_ms"] = m["edge.report_ms_p50"] - explained
	}
	return nil
}

// respCounts is how the server answered prior fetches between two
// readings: full priors, deltas, not-modified.
func respCounts(before, after reading) (full, delta, notModified float64) {
	const name = "drdp_edge_server_prior_responses_total"
	return after.tel.CounterDelta(before.tel, name, drdp.L("kind", "full")),
		after.tel.CounterDelta(before.tel, name, drdp.L("kind", "delta")),
		after.tel.CounterDelta(before.tel, name, drdp.L("kind", "not-modified"))
}

// replayer feeds captured inputs straight into each layer's public
// functions, single-threaded, and writes medians into m.
type replayer struct {
	m    map[string]float64
	cfg  config
	dirs *dirs
}

// replayCalls and replayBudget bound one replayed measurement: the
// median of replayCalls calls, or of as many (at least three) as fit in
// replayBudget when one call is slow (a build over 20k tasks, a
// snapshot).
const (
	replayCalls  = 200
	replayBudget = 400 * time.Millisecond
)

// timed returns the median duration of fn in seconds.
func (rp *replayer) timed(fn func()) float64 {
	sec, _ := rp.timedErr(func() error { fn(); return nil })
	return sec
}

// timedErr is timed for a call that can fail; the first error stops it.
func (rp *replayer) timedErr(fn func() error) (float64, error) {
	var d []float64
	start := time.Now()
	for i := 0; i < rp.cfg.pick(replayCalls, 5) && (i < 3 || time.Since(start) < replayBudget); i++ {
		t := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		d = append(d, time.Since(t).Seconds())
	}
	return median(d), nil
}

const frameHeader = 8 // [u32 len][u32 crc] in front of every payload

func (rp *replayer) wire(c *capture) {
	req := wire.Request{Kind: wire.ReportTask, Task: &c.task}
	fullResp := wire.Response{Prior: c.newPrior, Version: c.newVersion}
	deltaResp := wire.Response{Delta: dpprior.Diff(c.oldPrior, c.newPrior, c.oldVersion, c.newVersion), Version: c.newVersion}
	var buf []byte
	rp.m["wire.encode_req_ns"] = 1e9 * rp.timed(func() { buf = wire.AppendRequest(buf[:0], &req) })
	reqBytes := append([]byte(nil), buf...)
	var into wire.Request
	rp.m["wire.decode_req_ns"] = 1e9 * rp.timed(func() { _ = wire.DecodeRequest(reqBytes, &into, true) })
	rp.m["wire.encode_resp_ns"] = 1e9 * rp.timed(func() { buf = wire.AppendResponse(buf[:0], &fullResp) })
	respBytes := append([]byte(nil), buf...)
	// Decoded the way a client does: a fresh Response per message.
	rp.m["wire.decode_resp_ns"] = 1e9 * rp.timed(func() { _ = wire.DecodeResponse(respBytes, new(wire.Response), false) })
	rp.m["wire.req_bytes"] = float64(len(reqBytes) + frameHeader)
	rp.m["wire.resp_full_bytes"] = float64(len(respBytes) + frameHeader)
	rp.m["wire.resp_delta_bytes"] = float64(len(wire.AppendResponse(nil, &deltaResp)) + frameHeader)
}

func (rp *replayer) prior(c *capture) error {
	dim := len(c.task.Mu)
	rp.m["dpprior.validate_us"] = 1e6 * rp.timed(func() { _ = c.task.Validate(dim) })
	build := drdp.PriorBuildOptions{Alpha: 1, Seed: geometrySeed}
	sec, err := rp.timedErr(func() error { _, err := dpprior.Build(c.pool, build); return err })
	if err != nil {
		return err
	}
	rp.m["dpprior.build_ms"] = 1e3 * sec
	rp.m["dpprior.build_us_per_task"] = 1e6 * sec / float64(len(c.pool))

	compiled, err := dpprior.Compile(c.newPrior)
	if err != nil {
		return err
	}
	window := c.pool
	if len(window) > 64 {
		window = window[len(window)-64:]
	}
	accepted := c.pool[:len(c.pool)-len(window)]
	rp.m["dpprior.judge_ms"] = 1e3 * rp.timed(func() { dpprior.Judge(compiled, accepted, window, dpprior.AdmissionOptions{}) })
	rp.m["dpprior.responsibilities_us"] = 1e6 * rp.timed(func() { compiled.Responsibilities(c.task.Mu) })

	var delta *dpprior.PriorDelta
	rp.m["dpprior.diff_us"] = 1e6 * rp.timed(func() { delta = dpprior.Diff(c.oldPrior, c.newPrior, c.oldVersion, c.newVersion) })
	if sec, err = rp.timedErr(func() error { _, err := delta.Apply(c.oldPrior); return err }); err != nil {
		return err
	}
	rp.m["dpprior.apply_us"] = 1e6 * sec
	if len(c.shardPriors) == 0 {
		return nil
	}
	if sec, err = rp.timedErr(func() error { _, err := dpprior.MergePriors(c.shardPriors); return err }); err != nil {
		return err
	}
	rp.m["dpprior.merge_ms"] = 1e3 * sec
	if sec, err = rp.timedErr(func() error { _, err := dpprior.SummarizeTasks(window, build); return err }); err != nil {
		return err
	}
	rp.m["dpprior.summarize_ms"] = 1e3 * sec
	return nil
}

func (rp *replayer) store(c *capture) error {
	open := func(name string) (*drdp.TaskStore, error) {
		dir, err := rp.dirs.fresh(name)
		if err != nil {
			return nil, err
		}
		return drdp.OpenStore(drdp.StoreOptions{Dir: dir, SnapshotEvery: -1, Logger: drdp.DiscardLogger()})
	}
	// 2048 fsync'd appends into a fresh directory, snapshots off.
	n := rp.cfg.pick(2048, 128)
	leader, err := open("replay-append")
	if err != nil {
		return err
	}
	defer leader.Close()
	lat := make([]float64, n)
	for i := range lat {
		t := time.Now()
		if _, err := leader.Append(c.task); err != nil {
			return err
		}
		lat[i] = time.Since(t).Seconds()
	}
	rp.m["store.append_us_p50"] = 1e6 * quantile(lat, 0.50)
	rp.m["store.append_us_p99"] = 1e6 * quantile(lat, 0.99)

	// The same log as a replication source and a follower applying it.
	const batch = 64
	if len(c.shardPriors) > 0 {
		sec, err := rp.timedErr(func() error { _, _, err := leader.FramesSince(uint64(n-batch), batch); return err })
		if err != nil {
			return err
		}
		rp.m["store.frames_since_us"] = 1e6 * sec
		frames, _, err := leader.FramesSince(0, n)
		if err != nil {
			return err
		}
		follower, err := open("replay-follow")
		if err != nil {
			return err
		}
		defer follower.Close()
		var apply []float64
		for off := 0; off+batch <= len(frames); off += batch {
			t := time.Now()
			if _, err := follower.ApplyFrames(frames[off : off+batch]); err != nil {
				return err
			}
			apply = append(apply, time.Since(t).Seconds())
		}
		rp.m["store.apply_frames_us"] = 1e6 * median(apply)
	}

	// One fsync'd snapshot of the run's final pool.
	dir, err := rp.dirs.fresh("replay-snapshot")
	if err != nil {
		return err
	}
	if err := populateStore(dir, c.pool, -1); err != nil {
		return err
	}
	snap, err := drdp.OpenStore(drdp.StoreOptions{Dir: dir, SnapshotEvery: -1, Logger: drdp.DiscardLogger()})
	if err != nil {
		return err
	}
	defer snap.Close()
	sec, err := rp.timedErr(snap.Snapshot)
	rp.m["store.snapshot_ms"] = 1e3 * sec
	return err
}

// fit replays the learner's inner layers on the captured datasets and
// reports whether a parallel fit reproduced the serial one bit for bit.
func (rp *replayer) fit(c *capture) (identical bool, err error) {
	ds := c.fitLarge.ds
	losses := make([]float64, 1000)
	rng := subRNG(rp.cfg.seed, "replay-losses")
	for i := range losses {
		losses[i] = rng.ExpFloat64()
	}
	for kind, name := range map[drdp.SetKind]string{drdp.Wasserstein: "wasserstein", drdp.KL: "kl", drdp.Chi2: "chi2"} {
		set := drdp.UncertaintySet{Kind: kind, Rho: 0.05}
		rp.m["dro.worstcase_us."+name] = 1e6 * rp.timed(func() { set.WorstCase(losses, 1) })
	}
	params := make(drdp.Vec, c.model.NumParams())
	weights := make([]float64, ds.X.Rows)
	for i := range weights {
		weights[i] = 1 / float64(len(weights))
	}
	grad := make(drdp.Vec, len(params))
	rp.m["model.grad_us"] = 1e6 * rp.timed(func() { c.model.WeightedGrad(params, ds.X, ds.Y, weights, grad) })

	set := drdp.WithUncertaintySet(drdp.UncertaintySet{Kind: drdp.Wasserstein, Rho: 0.05})
	serial, err := drdp.NewLearner(*c.model, set, drdp.WithPrior(c.compiled))
	if err != nil {
		return false, err
	}
	pooled, err := drdp.NewLearner(*c.model, set, drdp.WithPrior(c.compiled), drdp.WithParallelism(rp.cfg.gens))
	if err != nil {
		return false, err
	}
	var a, b *drdp.Result
	fit := func(l *drdp.Learner, into **drdp.Result) func() error {
		return func() (err error) {
			*into, err = l.Fit(ds.X, ds.Y)
			return err
		}
	}
	serialSec, err := rp.timedErr(fit(serial, &a))
	if err != nil {
		return false, err
	}
	pooledSec, err := rp.timedErr(fit(pooled, &b))
	if err != nil {
		return false, err
	}
	rp.m["parallel.speedup_n1000"] = serialSec / pooledSec
	identical = math.Float64bits(a.Objective) == math.Float64bits(b.Objective)
	for i := range a.Params {
		if math.Float64bits(a.Params[i]) != math.Float64bits(b.Params[i]) {
			identical = false
		}
	}
	return identical, nil
}
