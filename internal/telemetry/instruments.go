package telemetry

import (
	"math"
	"strconv"
	"sync"
)

// The standard drdp instrument set. Everything registers against
// Default at init so every process — cloud daemon, edge daemon, sim,
// bench — exposes the complete metric vocabulary (at zero) from its
// first scrape, rather than series popping into existence on first
// use. Names follow drdp_<layer>_<name>_<unit>.
//
// Handles are package-level vars so hot paths (Observe in the round-trip
// loop, Inc per retry) pay one atomic op, not a registry lookup.
var (
	// --- edge client (ResilientClient) -------------------------------
	EdgeClientDials     = Default.Counter("drdp_edge_client_dials_total")
	EdgeClientRetries   = Default.Counter("drdp_edge_client_retries_total")
	EdgeClientFailures  = Default.Counter("drdp_edge_client_failures_total")
	EdgeClientBackoff   = Default.Counter("drdp_edge_client_backoff_seconds_total")
	EdgeClientSent      = Default.Counter("drdp_edge_client_sent_bytes_total")
	EdgeClientReceived  = Default.Counter("drdp_edge_client_received_bytes_total")
	EdgeClientRoundtrip = Default.Histogram("drdp_edge_client_roundtrip_seconds", nil)

	// Requests that failed for good, by the FINAL attempt's cause — not
	// the first: a round that dialed fine, then died on a reset, then
	// exhausted its budget against an overloaded server is an
	// "overloaded" exhaustion, which is the cause an operator must act
	// on. See ResilientClient.do.
	EdgeClientExhaustedDial       = Default.Counter("drdp_edge_client_exhausted_total", L("cause", "dial"))
	EdgeClientExhaustedTransport  = Default.Counter("drdp_edge_client_exhausted_total", L("cause", "transport"))
	EdgeClientExhaustedOverloaded = Default.Counter("drdp_edge_client_exhausted_total", L("cause", "overloaded"))
	EdgeClientExhaustedBreaker    = Default.Counter("drdp_edge_client_exhausted_total", L("cause", "breaker-open"))

	// --- circuit breaker ---------------------------------------------
	BreakerState      = Default.Gauge("drdp_edge_breaker_state")
	BreakerToClosed   = Default.Counter("drdp_edge_breaker_transitions_total", L("to", "closed"))
	BreakerToOpen     = Default.Counter("drdp_edge_breaker_transitions_total", L("to", "open"))
	BreakerToHalfOpen = Default.Counter("drdp_edge_breaker_transitions_total", L("to", "half-open"))

	// --- prior cache --------------------------------------------------
	CacheHits   = Default.Counter("drdp_edge_cache_hits_total")
	CacheMisses = Default.Counter("drdp_edge_cache_misses_total")
	CacheStale  = Default.Counter("drdp_edge_cache_stale_total")

	// --- device degradation ladder -----------------------------------
	DeviceRoundsFresh       = Default.Counter("drdp_edge_device_rounds_total", L("prior", "fresh-prior"))
	DeviceRoundsRegional    = Default.Counter("drdp_edge_device_rounds_total", L("prior", "regional-prior"))
	DeviceRoundsCached      = Default.Counter("drdp_edge_device_rounds_total", L("prior", "cached-prior"))
	DeviceRoundsLocal       = Default.Counter("drdp_edge_device_rounds_total", L("prior", "local-only"))
	DeviceFetchErrors       = Default.Counter("drdp_edge_device_fetch_errors_total")
	DeviceReportErrors      = Default.Counter("drdp_edge_device_report_errors_total")
	DeviceRegionalFallbacks = Default.Counter("drdp_edge_device_regional_fallbacks_total")

	// --- edge server (CloudServer) -----------------------------------
	ServerConnsActive    = Default.Gauge("drdp_edge_server_connections_active")
	ServerConnsTotal     = Default.Counter("drdp_edge_server_connections_total")
	ServerReqGetPrior    = Default.Counter("drdp_edge_server_requests_total", L("kind", "get-prior"))
	ServerReqReportTask  = Default.Counter("drdp_edge_server_requests_total", L("kind", "report-task"))
	ServerReqGetStats    = Default.Counter("drdp_edge_server_requests_total", L("kind", "get-stats"))
	ServerReqOther       = Default.Counter("drdp_edge_server_requests_total", L("kind", "other"))
	ServerRequestSeconds = Default.Histogram("drdp_edge_server_request_seconds", nil)
	ServerPanics         = Default.Counter("drdp_edge_server_panics_total")
	ServerDecodeErrors   = Default.Counter("drdp_edge_server_decode_errors_total")
	ServerSent           = Default.Counter("drdp_edge_server_sent_bytes_total")
	ServerReceived       = Default.Counter("drdp_edge_server_received_bytes_total")
	ServerTasks          = Default.Gauge("drdp_edge_server_tasks")
	ServerPriorVersion   = Default.Gauge("drdp_edge_server_prior_version")
	ServerRebuilds       = Default.Counter("drdp_edge_server_prior_rebuilds_total")

	// --- admission control & overload protection ----------------------
	ServerAdmitAccepted    = Default.Counter("drdp_edge_server_admission_total", L("verdict", "accepted"))
	ServerAdmitRejected    = Default.Counter("drdp_edge_server_admission_total", L("verdict", "rejected"))
	ServerAdmitQuarantined = Default.Counter("drdp_edge_server_admission_total", L("verdict", "quarantined"))
	ServerAdmitDeferred    = Default.Counter("drdp_edge_server_admission_total", L("verdict", "deferred"))
	ServerShedMaxConns     = Default.Counter("drdp_edge_server_shed_total", L("reason", "max-conns"))
	ServerShedTimeout      = Default.Counter("drdp_edge_server_shed_total", L("reason", "handler-timeout"))
	ServerInflight         = Default.Gauge("drdp_edge_server_inflight")
	ServerRebuildStalled   = Default.Gauge("drdp_edge_server_rebuild_stalled")
	EdgeClientOverloaded   = Default.Counter("drdp_edge_client_overloaded_total")

	// --- training core ------------------------------------------------
	CoreFits           = Default.Counter("drdp_core_fits_total")
	CoreFitSeconds     = Default.Histogram("drdp_core_fit_seconds", []float64{.001, .005, .01, .05, .1, .5, 1, 5, 10, 30, 60})
	CoreEMIterations   = Default.Counter("drdp_core_em_iterations_total")
	CoreMStepIters     = Default.Counter("drdp_core_mstep_iterations_total")
	CoreObjective      = Default.Gauge("drdp_core_em_objective")
	CoreObjectiveDelta = Default.Gauge("drdp_core_em_objective_delta")
	CoreGradNorm       = Default.Gauge("drdp_core_em_grad_norm")

	// --- parallel evaluation layer -----------------------------------
	ParallelWorkers        = Default.Gauge("drdp_parallel_workers")
	ParallelBatches        = Default.Counter("drdp_parallel_batches_total")
	ParallelInline         = Default.Counter("drdp_parallel_inline_total")
	ParallelTasks          = Default.Counter("drdp_parallel_tasks_total")
	ParallelBusySeconds    = Default.Counter("drdp_parallel_busy_seconds_total")
	ParallelSectionSeconds = Default.Counter("drdp_parallel_section_seconds_total")
	CoreParallelStarts     = Default.Counter("drdp_core_parallel_starts_total")

	// --- durable task store -------------------------------------------
	StoreAppends        = Default.Counter("drdp_store_appends_total")
	StoreLogBytes       = Default.Counter("drdp_store_log_bytes_total")
	StoreSnapshots      = Default.Counter("drdp_store_snapshots_total")
	StoreRecoveries     = Default.Counter("drdp_store_recoveries_total")
	StoreTruncatedBytes = Default.Counter("drdp_store_truncated_bytes_total")
	StoreTasks          = Default.Gauge("drdp_store_tasks")
	StoreInvalidRecords = Default.Counter("drdp_store_invalid_records_total")

	// --- prior delta sync ---------------------------------------------
	ServerPriorFull         = Default.Counter("drdp_edge_server_prior_responses_total", L("kind", "full"))
	ServerPriorDelta        = Default.Counter("drdp_edge_server_prior_responses_total", L("kind", "delta"))
	ServerPriorNotModified  = Default.Counter("drdp_edge_server_prior_responses_total", L("kind", "not-modified"))
	ServerDeltaSavedBytes   = Default.Counter("drdp_edge_server_delta_saved_bytes_total")
	EdgeClientDeltasApplied = Default.Counter("drdp_edge_client_deltas_applied_total")
	EdgeClientFullPriors    = Default.Counter("drdp_edge_client_full_priors_total")

	// --- fleet simulator ----------------------------------------------
	SimDevices     = Default.Counter("drdp_sim_devices_total")
	SimDegraded    = Default.Counter("drdp_sim_degraded_total")
	SimReportsLost = Default.Counter("drdp_sim_reports_lost_total")
	SimRetries     = Default.Counter("drdp_sim_retries_total")
	SimRebuilds    = Default.Counter("drdp_sim_prior_rebuilds_total")
	SimBytesDown   = Default.Counter("drdp_sim_down_bytes_total")
	SimBytesUp     = Default.Counter("drdp_sim_up_bytes_total")

	// --- fleet simulator: refresh / restart scenario ------------------
	SimRefreshes       = Default.Counter("drdp_sim_refreshes_total")
	SimDeltaRefreshes  = Default.Counter("drdp_sim_delta_refreshes_total")
	SimFullRefreshes   = Default.Counter("drdp_sim_full_refreshes_total")
	SimCachedFallbacks = Default.Counter("drdp_sim_cached_fallbacks_total")
	SimDeltaSavedBytes = Default.Counter("drdp_sim_delta_saved_bytes_total")

	// --- fleet simulator: poisoned-edge scenario ----------------------
	SimRejected    = Default.Counter("drdp_sim_rejected_uploads_total")
	SimQuarantined = Default.Counter("drdp_sim_quarantined_total")

	// --- shard replication & failover ---------------------------------
	ServerReqPullLog     = Default.Counter("drdp_edge_server_requests_total", L("kind", "pull-log"))
	ServerReqGetShardMap = Default.Counter("drdp_edge_server_requests_total", L("kind", "get-shard-map"))
	ServerNotLeader      = Default.Counter("drdp_edge_server_not_leader_total")
	ServerLagging        = Default.Counter("drdp_edge_server_lagging_total")
	ServerDeduped        = Default.Counter("drdp_edge_server_deduped_uploads_total")
	ReplPulls            = Default.Counter("drdp_repl_pulls_total")
	ReplFrames           = Default.Counter("drdp_repl_frames_total")
	ReplBytes            = Default.Counter("drdp_repl_bytes_total")
	ReplAckTimeouts      = Default.Counter("drdp_repl_ack_timeouts_total")
	ClusterPromotions    = Default.Counter("drdp_cluster_promotions_total")
	ClusterRedirects     = Default.Counter("drdp_cluster_redirects_total")

	// --- wire codec & handshake ---------------------------------------
	ServerReqBatchAddTask = Default.Counter("drdp_edge_server_requests_total", L("kind", "batch-add-task"))

	// Completed handshakes per connection, by side.
	WireNegotiateServerBinary = Default.Counter("drdp_wire_negotiate_total", L("side", "server"), L("codec", "binary"))
	WireNegotiateClientBinary = Default.Counter("drdp_wire_negotiate_total", L("side", "client"), L("codec", "binary"))

	// Traffic, counted inside the wire framer.
	WireMsgsBinaryOut  = Default.Counter("drdp_wire_msgs_total", L("codec", "binary"), L("dir", "out"))
	WireMsgsBinaryIn   = Default.Counter("drdp_wire_msgs_total", L("codec", "binary"), L("dir", "in"))
	WireBytesBinaryOut = Default.Counter("drdp_wire_bytes_total", L("codec", "binary"), L("dir", "out"))
	WireBytesBinaryIn  = Default.Counter("drdp_wire_bytes_total", L("codec", "binary"), L("dir", "in"))

	// --- store replication frame cache --------------------------------
	StoreFrameCacheHits   = Default.Counter("drdp_store_frame_cache_hits_total")
	StoreFrameCacheMisses = Default.Counter("drdp_store_frame_cache_misses_total")

	// --- disk faults, scrubbing, gray failure -------------------------
	// Append-path write/sync failures latch the store read-only
	// (ErrPoisoned); compaction failures leave the old snapshot
	// authoritative and are retried.
	StorePoisoned         = Default.Counter("drdp_store_poisoned_total")
	StoreSnapshotFailures = Default.Counter("drdp_store_snapshot_failures_total")
	// Scrubber: frames CRC-walked, frames found corrupt (quarantined),
	// frames repaired from a replica's verbatim log stream.
	StoreScrubFrames   = Default.Counter("drdp_store_scrub_frames_total")
	StoreScrubCorrupt  = Default.Counter("drdp_store_scrub_corrupt_total")
	StoreScrubRepaired = Default.Counter("drdp_store_scrub_repaired_total")
	// Hedged reads: second requests fired after the hedge delay, hedges
	// whose answer won the race, and losers abandoned after a winner.
	ClusterHedgeFired     = Default.Counter("drdp_cluster_hedge_fired_total")
	ClusterHedgeWon       = Default.Counter("drdp_cluster_hedge_won_total")
	ClusterHedgeCancelled = Default.Counter("drdp_cluster_hedge_cancelled_total")
	// Gray-failure demotions: slow-but-alive leaders replaced by a
	// healthy follower (distinct from promotions after a leader death).
	ClusterDemotions = Default.Counter("drdp_cluster_demotions_total")

	// --- regional aggregator tier -------------------------------------
	// Upward sync: each flush summarizes the window of locally admitted
	// device posteriors into a component set and ships that instead, so
	// raw_bytes - up_bytes is what regional pre-aggregation saved the
	// cloud uplink.
	RegionSyncFlushes   = Default.Counter("drdp_region_sync_flushes_total")
	RegionSyncDeferred  = Default.Counter("drdp_region_sync_deferred_total")
	RegionSyncRawTasks  = Default.Counter("drdp_region_sync_raw_tasks_total")
	RegionSyncSummaries = Default.Counter("drdp_region_sync_summaries_total")
	RegionBytesRaw      = Default.Counter("drdp_region_sync_raw_bytes_total")
	RegionBytesUp       = Default.Counter("drdp_region_sync_up_bytes_total")
	RegionDownSyncs     = Default.Counter("drdp_region_down_syncs_total")
	RegionDownErrors    = Default.Counter("drdp_region_down_errors_total")
	// Region↔region gossip (cloud-outage operation).
	RegionGossipExchanges  = Default.Counter("drdp_region_gossip_exchanges_total")
	RegionGossipComponents = Default.Counter("drdp_region_gossip_components_total")
	RegionGossipErrors     = Default.Counter("drdp_region_gossip_errors_total")
)

// ReplLagGauge is the per-follower replication lag in sequence numbers
// (leader version minus the follower's durable version), labeled by node
// so one scrape shows the whole replica set.
func ReplLagGauge(node string) *Gauge {
	return Default.Gauge("drdp_repl_lag_seq", L("node", node))
}

// StoreFaultInjected counts injected disk faults by kind ("write",
// "short-write", "sync", "rename", "enospc", "bit-flip") — the FaultFS
// chaos suite's ground truth for what the store survived.
func StoreFaultInjected(kind string) *Counter {
	return Default.Counter("drdp_store_fault_injected_total", L("kind", kind))
}

// ReplicaHealthGauge is the coordinator's per-replica health score in
// [0,1]: 1 = probes answer inside the gray-latency budget, falling
// toward 0 as the probe-latency EWMA exceeds it, 0 = probes failing.
func ReplicaHealthGauge(node string) *Gauge {
	return Default.Gauge("drdp_cluster_replica_health_score", L("node", node))
}

// ServerReqCounter maps a protocol request-kind name (RequestKind
// .String()) to its counter; unknown kinds land in the "other" series.
func ServerReqCounter(kind string) *Counter {
	switch kind {
	case "get-prior":
		return ServerReqGetPrior
	case "report-task":
		return ServerReqReportTask
	case "get-stats":
		return ServerReqGetStats
	case "pull-log":
		return ServerReqPullLog
	case "get-shard-map":
		return ServerReqGetShardMap
	case "batch-add-task":
		return ServerReqBatchAddTask
	default:
		return ServerReqOther
	}
}

// DeviceRoundCounter maps a Degradation name (Degradation.String()) to
// its rounds counter; unknown levels count as local-only.
func DeviceRoundCounter(level string) *Counter {
	switch level {
	case "fresh-prior":
		return DeviceRoundsFresh
	case "regional-prior":
		return DeviceRoundsRegional
	case "cached-prior":
		return DeviceRoundsCached
	default:
		return DeviceRoundsLocal
	}
}

// EdgeClientExhaustedCounter maps a final-failure cause to its
// exhaustion counter; unknown causes count as transport.
func EdgeClientExhaustedCounter(cause string) *Counter {
	switch cause {
	case "dial":
		return EdgeClientExhaustedDial
	case "overloaded":
		return EdgeClientExhaustedOverloaded
	case "breaker-open":
		return EdgeClientExhaustedBreaker
	default:
		return EdgeClientExhaustedTransport
	}
}

// BreakerTransitionCounter maps a BreakerState name (BreakerState
// .String()) to the transitions-into-that-state counter.
func BreakerTransitionCounter(to string) *Counter {
	switch to {
	case "open":
		return BreakerToOpen
	case "half-open":
		return BreakerToHalfOpen
	default:
		return BreakerToClosed
	}
}

// emTrace guards the per-iteration objective-trace gauges
// (drdp_core_em_objective_iter{iter="i"}). Successive fits may have
// different lengths; stale entries from a longer previous fit are
// overwritten with NaN so a scrape never mixes two traces.
var emTrace struct {
	mu      sync.Mutex
	maxIter int
}

// SetEMTrace publishes the winning EM run's objective trace as one
// gauge per iteration, clearing any leftover iterations from a longer
// earlier trace.
func SetEMTrace(trace []float64) {
	emTrace.mu.Lock()
	defer emTrace.mu.Unlock()
	for i, v := range trace {
		Default.Gauge("drdp_core_em_objective_iter", L("iter", strconv.Itoa(i))).Set(v)
	}
	for i := len(trace); i < emTrace.maxIter; i++ {
		Default.Gauge("drdp_core_em_objective_iter", L("iter", strconv.Itoa(i))).Set(math.NaN())
	}
	if len(trace) > emTrace.maxIter {
		emTrace.maxIter = len(trace)
	}
}

func init() {
	// Pre-create iteration 0 so the family (and its TYPE line) exists
	// before any fit runs.
	Default.Gauge("drdp_core_em_objective_iter", L("iter", "0")).Set(math.NaN())

	for name, help := range map[string]string{
		"drdp_edge_client_dials_total":              "TCP dials attempted by ResilientClient (includes redials).",
		"drdp_edge_client_retries_total":            "Round trips re-attempted after a transport fault.",
		"drdp_edge_client_failures_total":           "Round-trip attempts that ended in a transport fault.",
		"drdp_edge_client_backoff_seconds_total":    "Total time slept in retry backoff.",
		"drdp_edge_client_sent_bytes_total":         "Bytes written to the cloud connection by the client.",
		"drdp_edge_client_received_bytes_total":     "Bytes read from the cloud connection by the client.",
		"drdp_edge_client_roundtrip_seconds":        "Latency of successful client round trips (dial excluded, retries included).",
		"drdp_edge_breaker_state":                   "Circuit breaker state: 0=closed, 1=open, 2=half-open.",
		"drdp_edge_breaker_transitions_total":       "Circuit breaker transitions into each state.",
		"drdp_edge_cache_hits_total":                "Prior fetches answered by the cache (server said not-modified).",
		"drdp_edge_cache_misses_total":              "Prior fetches that had to pull a full prior with a cold or outdated cache.",
		"drdp_edge_cache_stale_total":               "Rounds served a stale cached prior because the cloud was unreachable.",
		"drdp_edge_device_rounds_total":             "Device training rounds by prior degradation level.",
		"drdp_edge_device_fetch_errors_total":       "Device rounds whose prior fetch errored (before degradation).",
		"drdp_edge_device_report_errors_total":      "Device rounds whose posterior report failed.",
		"drdp_edge_server_connections_active":       "Currently open client connections.",
		"drdp_edge_server_connections_total":        "Client connections accepted since start.",
		"drdp_edge_server_requests_total":           "Requests handled, by protocol kind.",
		"drdp_edge_server_request_seconds":          "Server-side request handling latency.",
		"drdp_edge_server_panics_total":             "Handler panics recovered (connection dropped).",
		"drdp_edge_server_decode_errors_total":      "Malformed or oversized request frames, and connections refused for not opening with a valid hello.",
		"drdp_edge_server_sent_bytes_total":         "Bytes written to clients.",
		"drdp_edge_server_received_bytes_total":     "Bytes read from clients.",
		"drdp_edge_server_tasks":                    "Task posteriors currently incorporated in the prior pool.",
		"drdp_edge_server_prior_version":            "Version of the most recently built prior.",
		"drdp_edge_server_prior_rebuilds_total":     "DP prior rebuilds triggered by stale reads.",
		"drdp_core_fits_total":                      "Learner.Fit calls completed.",
		"drdp_core_fit_seconds":                     "Wall time of Learner.Fit.",
		"drdp_core_em_iterations_total":             "EM iterations across all fits (all starts).",
		"drdp_core_mstep_iterations_total":          "Inner M-step solver iterations across all fits.",
		"drdp_core_em_objective":                    "Final objective of the last completed fit.",
		"drdp_core_em_objective_delta":              "Objective change in the last EM iteration of the last fit.",
		"drdp_core_em_grad_norm":                    "Gradient norm reported by the last M-step solve.",
		"drdp_core_em_objective_iter":               "Objective per EM iteration of the last fit's winning start (NaN = beyond trace).",
		"drdp_parallel_workers":                     "Worker count of the most recently configured training pool.",
		"drdp_parallel_batches_total":               "Chunked batch evaluations dispatched to pool workers.",
		"drdp_parallel_inline_total":                "Chunked batch evaluations executed inline (nil pool, one worker, or one chunk).",
		"drdp_parallel_tasks_total":                 "Chunk tasks executed by pool workers.",
		"drdp_parallel_busy_seconds_total":          "Cumulative worker time spent executing chunk tasks.",
		"drdp_parallel_section_seconds_total":       "Cumulative wall time of parallel sections (utilization = busy / (workers × section)).",
		"drdp_core_parallel_starts_total":           "Multi-start EM runs executed concurrently.",
		"drdp_sim_devices_total":                    "Simulated device rounds completed.",
		"drdp_sim_degraded_total":                   "Simulated rounds that trained without a fresh prior.",
		"drdp_sim_reports_lost_total":               "Simulated posterior reports lost to the link.",
		"drdp_sim_retries_total":                    "Simulated transfer retries.",
		"drdp_sim_prior_rebuilds_total":             "Simulated cloud prior rebuilds.",
		"drdp_sim_down_bytes_total":                 "Simulated bytes shipped cloud-to-edge.",
		"drdp_sim_up_bytes_total":                   "Simulated bytes shipped edge-to-cloud.",
		"drdp_store_appends_total":                  "Task posteriors appended to the durable store.",
		"drdp_store_log_bytes_total":                "Bytes written to the append-only task log.",
		"drdp_store_snapshots_total":                "Snapshot compactions completed.",
		"drdp_store_recoveries_total":               "Store opens that truncated a torn or corrupt log tail.",
		"drdp_store_truncated_bytes_total":          "Corrupt log-tail bytes discarded during recovery.",
		"drdp_store_tasks":                          "Tasks currently held by the durable store.",
		"drdp_edge_server_prior_responses_total":    "Prior fetch responses by payload kind (full, delta, not-modified).",
		"drdp_edge_server_delta_saved_bytes_total":  "Wire bytes saved by shipping deltas instead of full priors.",
		"drdp_edge_client_deltas_applied_total":     "Prior deltas received and patched into the cached prior.",
		"drdp_edge_client_full_priors_total":        "Full prior payloads received by the client.",
		"drdp_sim_refreshes_total":                  "Simulated periodic prior refresh attempts.",
		"drdp_sim_delta_refreshes_total":            "Simulated refreshes served as deltas.",
		"drdp_sim_full_refreshes_total":             "Simulated refreshes that fell back to a full prior.",
		"drdp_sim_cached_fallbacks_total":           "Simulated refreshes that kept the cached prior (cloud down).",
		"drdp_sim_delta_saved_bytes_total":          "Simulated wire bytes saved by delta refreshes.",
		"drdp_edge_server_admission_total":          "Task-posterior admission decisions, by verdict.",
		"drdp_edge_server_shed_total":               "Requests shed under overload, by reason.",
		"drdp_edge_server_inflight":                 "Request dispatches currently executing.",
		"drdp_edge_server_rebuild_stalled":          "1 while the rebuild worker exceeds its watchdog timeout, else 0.",
		"drdp_edge_client_overloaded_total":         "Round trips shed by the server with CodeOverloaded (retried after backoff).",
		"drdp_store_invalid_records_total":          "CRC-valid but semantically invalid tasks dropped during recovery.",
		"drdp_sim_rejected_uploads_total":           "Simulated task uploads rejected by admission validation.",
		"drdp_sim_quarantined_total":                "Simulated tasks quarantined by the admission judge.",
		"drdp_edge_server_not_leader_total":         "Write requests refused because this replica is a follower.",
		"drdp_edge_server_lagging_total":            "Prior fetches refused because the replica trails the client's floor version.",
		"drdp_edge_server_deduped_uploads_total":    "Task uploads acknowledged without a second append (fingerprint already stored).",
		"drdp_repl_lag_seq":                         "Replication lag in sequence numbers, by follower node.",
		"drdp_repl_pulls_total":                     "Log-pull round trips completed by followers.",
		"drdp_repl_frames_total":                    "Log frames shipped leader to follower.",
		"drdp_repl_bytes_total":                     "Log bytes shipped leader to follower.",
		"drdp_repl_ack_timeouts_total":              "Semi-sync appends acknowledged after the follower-ack timeout expired.",
		"drdp_cluster_promotions_total":             "Follower promotions after a leader loss.",
		"drdp_cluster_redirects_total":              "Edge requests redirected by a shard-map version bump.",
		"drdp_edge_client_exhausted_total":          "Requests that failed for good, by the final attempt's error cause (retry budget exhausted or breaker open).",
		"drdp_wire_negotiate_total":                 "Completed hello/ack handshakes, by side.",
		"drdp_wire_msgs_total":                      "Protocol messages moved, by codec and direction.",
		"drdp_wire_bytes_total":                     "Protocol bytes moved, by codec and direction.",
		"drdp_store_frame_cache_hits_total":         "Replication pulls answered from the encoded-frame cache.",
		"drdp_store_frame_cache_misses_total":       "Replication frames re-encoded because they fell out of the cache.",
		"drdp_edge_device_regional_fallbacks_total": "Device rounds served by the regional aggregator after the primary cloud fetch failed.",
		"drdp_region_sync_flushes_total":            "Regional upward syncs that shipped a summarized window to the cloud.",
		"drdp_region_sync_deferred_total":           "Regional upward syncs deferred because the cloud was unreachable (window kept buffered).",
		"drdp_region_sync_raw_tasks_total":          "Device task posteriors covered by upward syncs (before summarization).",
		"drdp_region_sync_summaries_total":          "Summary pseudo-posteriors shipped upward in place of raw tasks.",
		"drdp_region_sync_raw_bytes_total":          "Wire bytes the raw window would have cost the cloud uplink.",
		"drdp_region_sync_up_bytes_total":           "Wire bytes the summarized window actually cost the cloud uplink.",
		"drdp_region_down_syncs_total":              "Downward merged-prior refreshes pulled from the cloud.",
		"drdp_region_down_errors_total":             "Downward refreshes that failed (cloud unreachable counts here).",
		"drdp_region_gossip_exchanges_total":        "Region-to-region gossip pulls completed.",
		"drdp_region_gossip_components_total":       "Peer prior components injected locally by gossip.",
		"drdp_region_gossip_errors_total":           "Gossip pulls that failed (peer unreachable or serving no prior).",
		"drdp_store_poisoned_total":                 "Stores latched read-only after an append-path write/sync failure (reopen recovers).",
		"drdp_store_snapshot_failures_total":        "Snapshot compactions that failed (old snapshot stays authoritative; retried).",
		"drdp_store_scrub_frames_total":             "Log and sidecar frames CRC-verified by the integrity scrubber.",
		"drdp_store_scrub_corrupt_total":            "Frames the scrubber found corrupt and quarantined.",
		"drdp_store_scrub_repaired_total":           "Quarantined frames repaired verbatim from a replica's log stream.",
		"drdp_store_fault_injected_total":           "Disk faults injected by the FaultFS chaos layer, by kind.",
		"drdp_cluster_hedge_fired_total":            "Hedged second read requests fired after the hedge delay.",
		"drdp_cluster_hedge_won_total":              "Hedged reads whose second request answered first.",
		"drdp_cluster_hedge_cancelled_total":        "Hedge losers abandoned after the winning answer arrived.",
		"drdp_cluster_demotions_total":              "Gray-failure demotions: slow-but-alive leaders replaced by a follower.",
		"drdp_cluster_replica_health_score":         "Coordinator probe health per replica: 1 healthy, toward 0 as latency EWMA exceeds the gray budget, 0 failing.",
	} {
		Default.SetHelp(name, help)
	}
}
