// Package drdp is the public facade of the distributionally robust edge
// learning library with a Dirichlet-process prior (DRDP), reproducing
// Zhang, Chen & Zhang, "Distributionally Robust Edge Learning with
// Dirichlet Process Prior", IEEE ICDCS 2020.
//
// The library solves the edge learning problem
//
//	min_θ  sup_{Q ∈ B_ρ(P̂_n)} E_Q[ℓ(θ; ξ)]  +  τ · (−log p(θ))
//
// where B_ρ is an uncertainty ball around the empirical distribution of
// the device's local samples (Wasserstein, KL or χ²) and p is a truncated
// Dirichlet-process mixture prior shipped from the cloud. The inner sup
// is collapsed by duality into a single-layer objective; the non-convex
// mixture log-prior is handled by an EM-inspired convex relaxation.
//
// # Quickstart
//
//	m := drdp.Logistic{Dim: 20}
//	learner, err := drdp.NewLearner(m,
//	    drdp.WithUncertaintySet(drdp.UncertaintySet{Kind: drdp.Wasserstein, Rho: 0.05}),
//	    drdp.WithPrior(compiledPrior), // from drdp.CompilePrior / the cloud server
//	)
//	res, err := learner.Fit(trainX, trainY)
//	pred := learner.Predict(res.Params, x)
//
// See examples/ for the full cloud→edge loop including the TCP prior
// server, and EXPERIMENTS.md for the benchmark suite that regenerates
// every table and figure of the evaluation.
package drdp

import (
	"github.com/drdp/drdp/internal/baseline"
	"github.com/drdp/drdp/internal/cluster"
	"github.com/drdp/drdp/internal/core"
	"github.com/drdp/drdp/internal/data"
	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/dro"
	"github.com/drdp/drdp/internal/edge"
	"github.com/drdp/drdp/internal/mat"
	"github.com/drdp/drdp/internal/model"
	"github.com/drdp/drdp/internal/region"
	"github.com/drdp/drdp/internal/stat"
	"github.com/drdp/drdp/internal/store"
	"github.com/drdp/drdp/internal/telemetry"
)

// Core learner.
type (
	// Learner is the DRDP edge learner; construct with NewLearner.
	Learner = core.Learner
	// LearnerOption configures NewLearner.
	LearnerOption = core.Option
	// Result reports a completed fit (parameters, objective trace,
	// responsibilities, robustness certificate).
	Result = core.Result
)

// NewLearner builds a DRDP learner for the given model.
var NewLearner = core.New

// Learner options.
var (
	// WithUncertaintySet selects the local uncertainty ball.
	WithUncertaintySet = core.WithUncertaintySet
	// WithPrior installs a compiled cloud DP prior.
	WithPrior = core.WithPrior
	// WithEMIters bounds the EM loop and sets its tolerance.
	WithEMIters = core.WithEMIters
	// WithParallelism fans the training hot paths over n workers with
	// bit-identical results (n <= 0 picks GOMAXPROCS).
	WithParallelism = core.WithParallelism
)

// Online is the streaming wrapper: Observe() appends samples and refits
// with a warm start.
type Online = core.Online

// NewOnline wraps a learner for streaming data (accumulate everything).
var NewOnline = core.NewOnline

// NewOnlineWindow wraps a learner with a sliding sample window — the
// right streaming mode under concept drift.
var NewOnlineWindow = core.NewOnlineWindow

// Models with hand-written gradients.
type (
	// Model is the interface all drdp models implement.
	Model = model.Model
	// Logistic is binary logistic regression (labels ±1).
	Logistic = model.Logistic
	// Softmax is multiclass softmax regression (labels are class indices).
	Softmax = model.Softmax
)

// Accuracy returns the fraction of correct predictions.
var Accuracy = model.Accuracy

// LaplacePosterior summarizes a trained model as a Gaussian posterior —
// the cloud-side step that feeds BuildPrior.
var LaplacePosterior = model.LaplacePosterior

// Uncertainty sets (package dro).
type (
	// UncertaintySet is a ball around the empirical distribution.
	UncertaintySet = dro.Set
	// SetKind selects the ball geometry.
	SetKind = dro.Kind
)

// Ball geometries.
const (
	// NoSet disables robustness.
	NoSet = dro.None
	// Wasserstein regularizes via the dual-norm penalty.
	Wasserstein = dro.Wasserstein
	// KL tilts sample weights exponentially.
	KL = dro.KL
	// Chi2 penalizes loss variance.
	Chi2 = dro.Chi2
)

// Dirichlet-process prior machinery.
type (
	// Prior is the serializable cloud→edge DP mixture prior.
	Prior = dpprior.Prior
	// PriorComponent is one Gaussian atom of the mixture.
	PriorComponent = dpprior.Component
	// CompiledPrior is the factorized form used during training.
	CompiledPrior = dpprior.Compiled
	// TaskPosterior is a cloud task summary feeding prior construction.
	TaskPosterior = dpprior.TaskPosterior
	// PriorBuildOptions configures BuildPrior.
	PriorBuildOptions = dpprior.BuildOptions
)

var (
	// BuildPrior fits the DP mixture over cloud task posteriors with
	// collapsed Gibbs clustering.
	BuildPrior = dpprior.Build[dpprior.TaskPosterior]
	// CompilePrior validates and factorizes a prior for training.
	CompilePrior = dpprior.Compile
)

// Data engine.
type (
	// Dataset is a supervised sample set.
	Dataset = data.Dataset
	// LinearTask generates binary linear tasks.
	LinearTask = data.LinearTask
	// TaskFamily generates clusters of related tasks.
	TaskFamily = data.TaskFamily
	// DigitTask generates synthetic stroke-digit images.
	DigitTask = data.DigitTask
	// DriftingTask generates a task whose weights rotate over time.
	DriftingTask = data.DriftingTask
)

// NewDriftingTask draws a random concept-drift task.
var NewDriftingTask = data.NewDriftingTask

var (
	// NewTaskFamily draws a family of related tasks.
	NewTaskFamily = data.NewTaskFamily
	// UniformShift applies a covariate mean shift of given magnitude.
	UniformShift = data.UniformShift
)

// Baseline trainers for comparisons.
type (
	// Trainer is the uniform training interface shared by baselines.
	Trainer = baseline.Trainer
	// ERM is local maximum-likelihood training.
	ERM = baseline.ERM
	// Ridge is l2-regularized ERM.
	Ridge = baseline.Ridge
	// GaussMAP is MAP under a single Gaussian prior.
	GaussMAP = baseline.GaussMAP
	// CloudOnly ships the cloud model unchanged.
	CloudOnly = baseline.CloudOnly
	// DRO is robust training without a prior.
	DRO = baseline.DRO
)

// Edge–cloud substrate.
type (
	// CloudServer serves DP priors over TCP and accumulates task reports.
	CloudServer = edge.CloudServer
	// EdgeDevice drives the fetch→train→report loop.
	EdgeDevice = edge.Device
	// EdgeCloud is the client-side interface a device runs against
	// (satisfied by both *MuxClient and *ResilientClient).
	EdgeCloud = edge.Cloud
	// LinkProfile models an edge uplink.
	LinkProfile = edge.LinkProfile
)

// Resilient transport: retry/backoff, circuit breaking, fault injection
// and graceful degradation for lossy edge links.
type (
	// ResilientClient is a self-healing cloud connection: redial, retries
	// with seeded jittered backoff, and a circuit breaker. Safe for
	// concurrent use.
	ResilientClient = edge.ResilientClient
	// ResilientOptions configures a ResilientClient.
	ResilientOptions = edge.ResilientOptions
	// RetryPolicy bounds and paces retries.
	RetryPolicy = edge.RetryPolicy
	// BreakerConfig tunes the circuit breaker.
	BreakerConfig = edge.BreakerConfig
	// TransportStats counts dials/retries/failures on a resilient client.
	TransportStats = edge.TransportStats
	// PriorCache keeps the last good prior for offline fallback.
	PriorCache = edge.PriorCache
	// RunStatus reports the degradation level a device round ran at.
	RunStatus = edge.RunStatus
	// MuxClient is a connection to a CloudServer: it pipelines concurrent
	// requests over one connection (FIFO multiplexing; safe for many
	// goroutines).
	MuxClient = edge.MuxClient
	// Degradation is the prior level a round actually used.
	Degradation = edge.Degradation
	// FaultConfig schedules deterministic faults on a connection
	// (chaos testing of edge deployments).
	FaultConfig = edge.FaultConfig
	// AdmissionConfig tunes the cloud's statistical quarantine of
	// reported task posteriors.
	AdmissionConfig = edge.AdmissionConfig
)

// Degradation levels.
const (
	// DegradedNone trained with a current cloud prior.
	DegradedNone = edge.DegradedNone
	// DegradedRegional trained with a regional aggregator's prior after
	// the primary cloud fetch failed.
	DegradedRegional = edge.DegradedRegional
	// DegradedCached trained with the last good cached prior.
	DegradedCached = edge.DegradedCached
	// DegradedLocal trained without a prior.
	DegradedLocal = edge.DegradedLocal
)

// Durable task store: crash-safe persistence for the cloud server's
// reported tasks (append-only log + snapshot compaction).
type (
	// TaskStore is the crash-safe task log backing a CloudServer.
	TaskStore = store.Store
	// StoreOptions configures OpenStore.
	StoreOptions = store.Options
	// StoreRecoveryInfo reports what OpenStore found (and repaired) on disk.
	StoreRecoveryInfo = store.RecoveryInfo
)

var (
	// OpenStore opens (or creates) a durable task store; an empty Dir
	// yields a volatile in-memory store.
	OpenStore = store.Open
	// ErrStoreClosed reports use of a closed task store.
	ErrStoreClosed = store.ErrClosed
)

// Replicated shard tier: task uploads routed across N shards by content
// fingerprint, each shard a leader plus followers streaming its
// append-only log (byte-identical replication, fsync-gated acks), a
// coordinator that promotes the longest-acked follower on leader loss,
// and a sharded client that merges per-shard component sets into one DP
// prior.
type (
	// ClusterConfig sizes an in-process cluster (StartCluster).
	ClusterConfig = cluster.Config
	// Cluster is a running shard tier: nodes plus coordinator.
	Cluster = cluster.Cluster
	// ClusterNode is one running replica.
	ClusterNode = cluster.Node
	// ClusterCoordinator owns the shard map and failover.
	ClusterCoordinator = cluster.Coordinator
	// ShardedClient routes uploads by fingerprint and merges shard priors.
	ShardedClient = cluster.ShardedClient
	// ShardMap is the coordinator's versioned shard→replicas routing table.
	ShardMap = edge.ShardMap
)

var (
	// StartCluster launches Shards×Replicas nodes plus a coordinator in
	// this process (the sim/test harness).
	StartCluster = cluster.Start
	// DialSharded connects a sharded client to a coordinator.
	DialSharded = cluster.DialSharded
)

// Regional aggregator tier: the middle hop of the hierarchical
// edge → region → cloud topology. A region runs the full store +
// admission + rebuild stack locally, serves the edge protocol to its
// devices, flushes summarized component sets upward to the cloud,
// refreshes merged priors downward, and optionally gossips component
// deltas with peer regions during cloud outages.
type (
	// Region is a running regional aggregator (StartRegion).
	Region = region.Region
	// RegionConfig configures one regional aggregator.
	RegionConfig = region.Config
	// RegionSyncStats counts a region's flush/sync/gossip activity.
	RegionSyncStats = region.SyncStats
)

// StartRegion opens a region's store and local server stack; the cloud
// uplink dials lazily on the first flush.
var StartRegion = region.Start

var (
	// NewCloudServer creates a prior server.
	NewCloudServer = edge.NewCloudServer
	// NewCloudServerWithStore creates a prior server on an existing task
	// store, recovering the task set and prior version it holds.
	NewCloudServerWithStore = edge.NewCloudServerWithStore
	// DialCloud connects an edge client (a *MuxClient).
	DialCloud = edge.Dial
	// DialResilient creates a lazy-dialing self-healing edge client.
	DialResilient = edge.DialResilient
	// NewResilientClient wraps a custom dial function (simulated links).
	NewResilientClient = edge.NewResilientClient
	// NewPriorCache creates an optionally file-backed prior cache.
	NewPriorCache = edge.NewPriorCache
	// DefaultRetryPolicy is the recommended edge retry schedule.
	DefaultRetryPolicy = edge.DefaultRetryPolicy
	// ErrCircuitOpen reports a tripped client circuit breaker.
	ErrCircuitOpen = edge.ErrCircuitOpen
	// ErrNoPrior reports a legitimately cold cloud (no tasks yet).
	ErrNoPrior = edge.ErrNoPrior
	// ErrOverloaded reports a cloud that shed a request under load; it is
	// retryable, and a ResilientClient retries it automatically.
	ErrOverloaded = edge.ErrOverloaded
	// NewTaskValidator returns a stateful task-posterior validator for
	// StoreOptions.Validate: store recovery re-checks every record
	// (finiteness, PSD covariance, dimension agreement) so a
	// corrupted-but-CRC-valid record cannot resurrect a poisoned prior.
	NewTaskValidator = dpprior.TaskValidator
)

// Standard uplink profiles.
var (
	// LinkWiFi is a good local wireless link.
	LinkWiFi = edge.LinkWiFi
	// Link4G is a healthy LTE uplink.
	Link4G = edge.Link4G
	// Link3G is a constrained cellular uplink.
	Link3G = edge.Link3G
)

// Numeric utilities.
type (
	// Vec is a dense vector ([]float64).
	Vec = mat.Vec
	// Dense is a row-major dense matrix.
	Dense = mat.Dense
)

var (
	// NewDense allocates a zeroed matrix.
	NewDense = mat.NewDense
	// NewRNG returns a seeded random stream.
	NewRNG = stat.NewRNG
)

// Observability: every layer reports into one process-wide metric
// registry (counters, gauges, latency histograms named
// drdp_<layer>_<name>_<unit>) that can be served over HTTP in the
// Prometheus text format or snapshotted in-process for assertions.
type (
	// TelemetryValues is a point-in-time copy of the metric registry.
	TelemetryValues = telemetry.Values
	// MetricLabel is one name/value label on a metric series.
	MetricLabel = telemetry.Label
	// BreakerState is the circuit-breaker state reported by
	// TransportStats and BreakerConfig.OnStateChange.
	BreakerState = edge.BreakerState
)

var (
	// TelemetrySnapshot copies the current state of every metric.
	TelemetrySnapshot = telemetry.Snapshot
	// DiscardLogger returns a logger that drops everything — pass it as
	// a component's Logger to opt out of the default stderr warnings.
	DiscardLogger = telemetry.Discard
	// L builds a MetricLabel, for reading labeled series out of a
	// TelemetryValues snapshot.
	L = telemetry.L
)
