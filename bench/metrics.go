package main

// The benchmark's vocabulary: workloads, end-to-end metrics and
// per-layer metrics. BENCHMARK.json at the repository root states the
// same names, units, directions and bounds for the driver; the smoke
// test fails when the two disagree.

// workloadDef is one traffic mix and the reason it exists.
type workloadDef struct {
	Name, Why string
}

var workloads = []workloadDef{
	{"edge_round", "the paper's device round (fetch, fit, Laplace, report) against a durable cloud: every layer on the path, none dominant"},
	{"fit_heavy", "learner only: core/dro/model/parallel do the work and store/wire/edge none, so a transport or storage change must read flat"},
	{"ingest_burst", "write path with no fitting: append+fsync, snapshots, admission and rebuild coalescing while the pool grows"},
	{"prior_fanout", "read path of the same server: full, not-modified, delta and history-miss fetches of a large prior"},
	{"tiered_sync", "edge to region to replicated cluster: follower replication, summarize/merge and semi-sync acks instead of build/diff"},
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.Name
	}
	return out
}

// metricDef describes one metric. Bound is set on end-to-end metrics
// only; Source, Moves and the workload lists on per-layer metrics only.
type metricDef struct {
	Name, Unit, Better string
	Bound              float64
	Source             string   // span | replay | counter | run | bookkeeping
	Moves              string   // the end-to-end metrics this layer metric should move
	On                 []string // workloads it is measured on (nil = all); elsewhere it reads 0
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is measured with tracing off, on every workload.
var endToEnd = []metricDef{
	{Name: "ops_per_s", Unit: "op/s", Better: higher, Bound: 0.20},
	{Name: "op_p50_ms", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "alloc_kb_per_op", Unit: "KB", Better: lower, Bound: 0.20},
	{Name: "peak_rss_mb", Unit: "MB", Better: lower, Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
}

var (
	fitting   = []string{"edge_round", "fit_heavy"}
	served    = []string{"edge_round", "ingest_burst", "prior_fanout", "tiered_sync"}
	uploading = []string{"edge_round", "ingest_burst", "tiered_sync"}
	writeHot  = []string{"edge_round", "ingest_burst"}
	tiered    = []string{"tiered_sync"}
	fitOnly   = []string{"fit_heavy"}

	movesFit    = "ops_per_s, op_p50_ms, cpu_ms_per_op on fit_heavy; about a quarter of op_p50_ms on edge_round; flat elsewhere"
	movesStore  = "op_p50_ms, ops_per_s on ingest_burst; op_p99_ms on ingest_burst and edge_round; flat on fit_heavy"
	movesBuild  = "stale_p50_ms, cpu_ms_per_op, ops_per_s on ingest_burst and edge_round; flat on fit_heavy"
	movesRead   = "ops_per_s, op_p50_ms, wire_bytes_per_op on prior_fanout; wire_bytes_per_op on edge_round; flat on fit_heavy"
	movesTiered = "sync_cycle_p50_ms, ops_per_s, stale_p50_ms on tiered_sync only"
	movesSetup  = "setup_s wherever a store is reopened"
	movesNone   = "none: a health or bookkeeping reading"
)

// perLayer is measured on the traced run only, from outside the
// program: spans the harness records around its own calls, replay of
// captured inputs through each layer's public functions, and deltas of
// counters the program already exports.
var perLayer = []metricDef{
	// End-to-end quantities that do not exist on every workload (or are
	// zero on a healthy run) and so cannot carry a driver-enforced bound.
	{Name: "wire_bytes_per_op", Unit: "B", Better: lower, Source: "counter", Moves: "itself", On: served},
	{Name: "stale_p50_ms", Unit: "ms", Better: lower, Source: "run", Moves: "itself", On: uploading},
	{Name: "sync_cycle_p50_ms", Unit: "ms", Better: lower, Source: "span", Moves: "itself", On: tiered},
	{Name: "accuracy", Unit: "fraction", Better: higher, Source: "run", Moves: "itself", On: fitting},
	{Name: "failed_share", Unit: "fraction", Better: lower, Source: "run", Moves: "itself"},
	{Name: "op_p99_ms", Unit: "ms", Better: lower, Source: "run", Moves: "itself"},

	// span
	{Name: "edge.fetch_ms_p50", Unit: "ms", Better: lower, Source: "span", Moves: movesRead, On: served},
	{Name: "edge.fetch_ms_p99", Unit: "ms", Better: lower, Source: "span", Moves: movesRead, On: served},
	{Name: "edge.report_ms_p50", Unit: "ms", Better: lower, Source: "span", Moves: movesStore, On: served},
	{Name: "edge.report_ms_p99", Unit: "ms", Better: lower, Source: "span", Moves: movesStore, On: served},
	{Name: "edge.report_batch16_ms_p50", Unit: "ms", Better: lower, Source: "span", Moves: movesStore, On: []string{"ingest_burst"}},
	{Name: "dpprior.compile_us_p50", Unit: "us", Better: lower, Source: "span", Moves: movesFit, On: []string{"edge_round"}},
	{Name: "core.fit_ms_p50", Unit: "ms", Better: lower, Source: "span", Moves: movesFit, On: fitting},
	{Name: "core.fit_ms_p99", Unit: "ms", Better: lower, Source: "span", Moves: movesFit, On: fitting},
	{Name: "core.fit_ms_p50.wasserstein", Unit: "ms", Better: lower, Source: "span", Moves: movesFit, On: fitting},
	{Name: "core.fit_ms_p50.kl", Unit: "ms", Better: lower, Source: "span", Moves: movesFit, On: fitOnly},
	{Name: "core.fit_ms_p50.chi2", Unit: "ms", Better: lower, Source: "span", Moves: movesFit, On: fitOnly},
	{Name: "model.laplace_us_p50", Unit: "us", Better: lower, Source: "span", Moves: movesFit, On: []string{"edge_round"}},
	{Name: "region.flush_ms_p50", Unit: "ms", Better: lower, Source: "span", Moves: movesTiered, On: tiered},
	{Name: "region.syncdown_ms_p50", Unit: "ms", Better: lower, Source: "span", Moves: movesTiered, On: tiered},
	{Name: "cluster.batch_report_ms_p50", Unit: "ms", Better: lower, Source: "span", Moves: movesTiered, On: tiered},
	{Name: "cluster.merged_fetch_ms_p50", Unit: "ms", Better: lower, Source: "span", Moves: movesTiered, On: tiered},

	// replay
	{Name: "wire.encode_req_ns", Unit: "ns", Better: lower, Source: "replay", Moves: movesRead, On: served},
	{Name: "wire.decode_req_ns", Unit: "ns", Better: lower, Source: "replay", Moves: movesRead, On: served},
	{Name: "wire.encode_resp_ns", Unit: "ns", Better: lower, Source: "replay", Moves: movesRead, On: served},
	{Name: "wire.decode_resp_ns", Unit: "ns", Better: lower, Source: "replay", Moves: movesRead, On: served},
	{Name: "wire.req_bytes", Unit: "B", Better: lower, Source: "replay", Moves: movesRead, On: served},
	{Name: "wire.resp_full_bytes", Unit: "B", Better: lower, Source: "replay", Moves: movesRead, On: served},
	{Name: "wire.resp_delta_bytes", Unit: "B", Better: lower, Source: "replay", Moves: movesRead, On: served},
	{Name: "dpprior.validate_us", Unit: "us", Better: lower, Source: "replay", Moves: movesStore, On: served},
	{Name: "dpprior.judge_ms", Unit: "ms", Better: lower, Source: "replay", Moves: movesBuild, On: served},
	{Name: "dpprior.build_ms", Unit: "ms", Better: lower, Source: "replay", Moves: movesBuild, On: served},
	{Name: "dpprior.build_us_per_task", Unit: "us", Better: lower, Source: "replay", Moves: movesBuild, On: served},
	{Name: "dpprior.diff_us", Unit: "us", Better: lower, Source: "replay", Moves: movesRead, On: served},
	{Name: "dpprior.apply_us", Unit: "us", Better: lower, Source: "replay", Moves: movesRead, On: served},
	{Name: "dpprior.responsibilities_us", Unit: "us", Better: lower, Source: "replay", Moves: movesFit, On: served},
	{Name: "dpprior.merge_ms", Unit: "ms", Better: lower, Source: "replay", Moves: movesTiered, On: tiered},
	{Name: "dpprior.summarize_ms", Unit: "ms", Better: lower, Source: "replay", Moves: movesTiered, On: tiered},
	{Name: "store.append_us_p50", Unit: "us", Better: lower, Source: "replay", Moves: movesStore, On: served},
	{Name: "store.append_us_p99", Unit: "us", Better: lower, Source: "replay", Moves: movesStore, On: served},
	{Name: "store.snapshot_ms", Unit: "ms", Better: lower, Source: "replay", Moves: movesStore, On: served},
	{Name: "store.open_ms", Unit: "ms", Better: lower, Source: "replay", Moves: movesSetup, On: served},
	{Name: "store.frames_since_us", Unit: "us", Better: lower, Source: "replay", Moves: movesTiered, On: tiered},
	{Name: "store.apply_frames_us", Unit: "us", Better: lower, Source: "replay", Moves: movesTiered, On: tiered},
	{Name: "dro.worstcase_us.wasserstein", Unit: "us", Better: lower, Source: "replay", Moves: movesFit, On: fitOnly},
	{Name: "dro.worstcase_us.kl", Unit: "us", Better: lower, Source: "replay", Moves: movesFit, On: fitOnly},
	{Name: "dro.worstcase_us.chi2", Unit: "us", Better: lower, Source: "replay", Moves: movesFit, On: fitOnly},
	{Name: "model.grad_us", Unit: "us", Better: lower, Source: "replay", Moves: movesFit, On: fitOnly},
	{Name: "parallel.speedup_n1000", Unit: "ratio", Better: higher, Source: "replay", Moves: movesFit, On: fitOnly},
	{Name: "store.fsync_per_task", Unit: "count", Better: lower, Source: "replay", Moves: movesStore, On: served},
	{Name: "store.fsync_us_p50", Unit: "us", Better: lower, Source: "replay", Moves: movesStore, On: served},
	{Name: "store.write_bytes_per_task", Unit: "B", Better: lower, Source: "replay", Moves: movesStore, On: served},
	{Name: "store.fs_busy_share", Unit: "fraction", Better: lower, Source: "replay", Moves: movesStore, On: served},

	// counter
	{Name: "core.em_iters_per_fit", Unit: "count", Better: lower, Source: "counter", Moves: movesFit, On: fitting},
	{Name: "core.mstep_iters_per_fit", Unit: "count", Better: lower, Source: "counter", Moves: movesFit, On: fitting},
	{Name: "edge.rebuilds_per_kop", Unit: "count", Better: lower, Source: "counter", Moves: movesBuild, On: served},
	{Name: "edge.tasks_per_rebuild", Unit: "count", Better: higher, Source: "counter", Moves: movesBuild, On: served},
	{Name: "edge.resp_full_share", Unit: "fraction", Better: lower, Source: "counter", Moves: movesRead, On: served},
	{Name: "edge.resp_delta_share", Unit: "fraction", Better: higher, Source: "counter", Moves: movesRead, On: served},
	{Name: "edge.resp_not_modified_share", Unit: "fraction", Better: higher, Source: "counter", Moves: movesRead, On: served},
	{Name: "edge.delta_saved_bytes_per_op", Unit: "B", Better: higher, Source: "counter", Moves: movesRead, On: served},
	{Name: "edge.quarantined_share", Unit: "fraction", Better: lower, Source: "counter", Moves: movesBuild, On: writeHot},
	{Name: "edge.dials", Unit: "count", Better: lower, Source: "counter", Moves: movesNone},
	{Name: "edge.retries", Unit: "count", Better: lower, Source: "counter", Moves: movesNone},
	{Name: "edge.client_failures", Unit: "count", Better: lower, Source: "counter", Moves: movesNone},
	{Name: "store.snapshots_per_kop", Unit: "count", Better: lower, Source: "counter", Moves: movesStore, On: served},
	{Name: "store.log_bytes_per_task", Unit: "B", Better: lower, Source: "counter", Moves: movesStore, On: served},
	{Name: "wire.msgs_per_op", Unit: "count", Better: lower, Source: "counter", Moves: movesRead, On: served},
	{Name: "cluster.repl_frames_per_pull", Unit: "count", Better: higher, Source: "counter", Moves: movesTiered, On: tiered},
	{Name: "cluster.repl_bytes_per_task", Unit: "B", Better: lower, Source: "counter", Moves: movesTiered, On: tiered},
	{Name: "cluster.ack_timeouts", Unit: "count", Better: lower, Source: "counter", Moves: movesNone, On: tiered},
	{Name: "cluster.redirects", Unit: "count", Better: lower, Source: "counter", Moves: movesNone, On: tiered},
	{Name: "region.up_bytes_ratio", Unit: "ratio", Better: higher, Source: "counter", Moves: movesTiered, On: tiered},
	{Name: "region.summaries_per_flush", Unit: "count", Better: lower, Source: "counter", Moves: movesTiered, On: tiered},

	// bookkeeping
	{Name: "trace.accounted_share", Unit: "fraction", Better: higher, Source: "bookkeeping", Moves: movesNone},
	{Name: "trace.overhead_share", Unit: "fraction", Better: lower, Source: "bookkeeping", Moves: movesNone},
	{Name: "trace.server_residual_ms", Unit: "ms", Better: lower, Source: "bookkeeping", Moves: movesStore, On: served},
	{Name: "trace.fit_share", Unit: "fraction", Better: higher, Source: "bookkeeping", Moves: movesNone},
	{Name: "trace.edge_share", Unit: "fraction", Better: higher, Source: "bookkeeping", Moves: movesNone},
}

// appliesTo reports whether the metric is measured on workload w.
func (m *metricDef) appliesTo(w string) bool {
	if m.On == nil {
		return true
	}
	for _, name := range m.On {
		if name == w {
			return true
		}
	}
	return false
}
