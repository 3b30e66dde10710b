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
	"time"

	"github.com/drdp/drdp/internal/baseline"
	"github.com/drdp/drdp/internal/cluster"
	"github.com/drdp/drdp/internal/core"
	"github.com/drdp/drdp/internal/data"
	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/dro"
	"github.com/drdp/drdp/internal/edge"
	"github.com/drdp/drdp/internal/fed"
	"github.com/drdp/drdp/internal/mat"
	"github.com/drdp/drdp/internal/metrics"
	"github.com/drdp/drdp/internal/model"
	"github.com/drdp/drdp/internal/opt"
	"github.com/drdp/drdp/internal/region"
	"github.com/drdp/drdp/internal/stat"
	"github.com/drdp/drdp/internal/store"
	"github.com/drdp/drdp/internal/telemetry"
	"github.com/drdp/drdp/internal/wire"
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
	// WithPriorWeight overrides the prior weight τ (default 1/n).
	WithPriorWeight = core.WithPriorWeight
	// WithEMIters bounds the EM loop and sets its tolerance.
	WithEMIters = core.WithEMIters
	// WithMStepOptions tunes the inner convex solver.
	WithMStepOptions = core.WithMStepOptions
	// WithInit sets the starting parameters.
	WithInit = core.WithInit
	// WithSingleStart disables the default multi-start EM.
	WithSingleStart = core.WithSingleStart
	// WithStochasticMStep switches the inner solver to minibatch Adam.
	WithStochasticMStep = core.WithStochasticMStep
	// WithProximalMStep switches to proximal gradient descent (exact
	// prox of the Wasserstein penalty; logistic/least-squares only).
	WithProximalMStep = core.WithProximalMStep
	// WithLBFGSMStep switches to the limited-memory BFGS inner solver.
	WithLBFGSMStep = core.WithLBFGSMStep
	// WithGroundMetric selects the Wasserstein transport cost.
	WithGroundMetric = core.WithGroundMetric
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
	// Hinge is a linear soft-margin (SVM-style) classifier (labels ±1).
	Hinge = model.Hinge
	// MLP is a one-hidden-layer perceptron with a softmax head.
	MLP = model.MLP
	// LeastSquares is linear regression with squared loss.
	LeastSquares = model.LeastSquares
)

// Accuracy returns the fraction of correct predictions.
var Accuracy = model.Accuracy

// GradCheck validates a custom Model's analytic gradient.
var GradCheck = model.GradCheck

// LaplacePosterior summarizes a trained model as a Gaussian posterior —
// the cloud-side step that feeds BuildPrior.
var LaplacePosterior = model.LaplacePosterior

// Uncertainty sets (package dro).
type (
	// UncertaintySet is a ball around the empirical distribution.
	UncertaintySet = dro.Set
	// SetKind selects the ball geometry.
	SetKind = dro.Kind
	// GroundNorm selects the Wasserstein ball's transport cost.
	GroundNorm = dro.GroundNorm
)

// Wasserstein ground metrics.
const (
	// GroundL2 is the Euclidean transport cost (default).
	GroundL2 = dro.GroundL2
	// GroundL1 is the Manhattan transport cost (dual penalty ‖w‖∞).
	GroundL1 = dro.GroundL1
	// GroundLInf is the max-coordinate transport cost (dual penalty ‖w‖₁).
	GroundLInf = dro.GroundLInf
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
	// PriorDelta is a component-level patch between two prior versions,
	// the unit of incremental cloud→edge synchronization.
	PriorDelta = dpprior.PriorDelta
)

var (
	// BuildPrior fits the DP mixture over cloud task posteriors with
	// collapsed Gibbs clustering.
	BuildPrior = dpprior.Build
	// CompilePrior validates and factorizes a prior for training.
	CompilePrior = dpprior.Compile
	// DiffPriors computes the component-level delta that rewrites an old
	// prior into a new one (never fails; degenerates to a full payload).
	DiffPriors = dpprior.Diff
	// DecodePrior reads a prior from a stream.
	DecodePrior = dpprior.Decode
	// SelectAlpha chooses the DP concentration by empirical Bayes.
	SelectAlpha = dpprior.SelectAlpha
	// StickBreaking draws truncated stick-breaking weights.
	StickBreaking = dpprior.StickBreaking
	// CRP samples a Chinese-restaurant-process partition.
	CRP = dpprior.CRP
)

// Data engine.
type (
	// Dataset is a supervised sample set.
	Dataset = data.Dataset
	// LinearTask generates binary linear tasks.
	LinearTask = data.LinearTask
	// RegressionTask generates linear regression tasks.
	RegressionTask = data.RegressionTask
	// TaskFamily generates clusters of related tasks.
	TaskFamily = data.TaskFamily
	// BlobTask generates multiclass Gaussian blobs.
	BlobTask = data.BlobTask
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
	// DirichletPartition makes non-IID device shards.
	DirichletPartition = data.DirichletPartition
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
	// FineTune takes a few local steps from the cloud model.
	FineTune = baseline.FineTune
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

// WirePreferBinary is the only wire codec preference.
//
// Deprecated: every connection speaks the binary codec (see DESIGN.md
// S22); nothing reads a preference.
const WirePreferBinary = wire.PreferBinary

// DialMux connects a multiplexed pipelining client. The preference
// argument is ignored: every connection is binary.
func DialMux(addr string, timeout time.Duration, _ wire.Preference) (*MuxClient, error) {
	return edge.Dial(addr, timeout)
}

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
	// ClusterNodeConfig configures one replica (StartClusterNode).
	ClusterNodeConfig = cluster.NodeConfig
	// ClusterNode is one running replica.
	ClusterNode = cluster.Node
	// ClusterCoordinator owns the shard map and failover.
	ClusterCoordinator = cluster.Coordinator
	// ShardedClient routes uploads by fingerprint and merges shard priors.
	ShardedClient = cluster.ShardedClient
	// ShardMap is the coordinator's versioned shard→replicas routing table.
	ShardMap = edge.ShardMap
	// ReplicateOptions tunes a standalone Replicate loop.
	ReplicateOptions = cluster.ReplicateOptions
)

var (
	// StartCluster launches Shards×Replicas nodes plus a coordinator in
	// this process (the sim/test harness).
	StartCluster = cluster.Start
	// StartClusterNode starts one replica (leader, or follower of
	// NodeConfig.LeaderAddr).
	StartClusterNode = cluster.StartNode
	// DialSharded connects a sharded client to a coordinator.
	DialSharded = cluster.DialSharded
	// Replicate streams a leader's log into a follower CloudServer until
	// stop closes — the loop behind drdp-cloud's -role follower.
	Replicate = cluster.Replicate
	// MergePriors merges per-shard DP priors into one global prior
	// (deterministic in shard order).
	MergePriors = dpprior.MergePriors
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

var (
	// StartRegion opens a region's store and local server stack; the
	// cloud uplink dials lazily on the first flush.
	StartRegion = region.Start
	// SummarizeTasks compresses a flush window of task posteriors into
	// at most MaxComponents pseudo-tasks (what a region ships upward).
	SummarizeTasks = dpprior.SummarizeTasks
)

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
	// DefaultBreakerConfig is the recommended breaker tuning.
	DefaultBreakerConfig = edge.DefaultBreakerConfig
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

// Federated averaging, the system-level comparison baseline.
type (
	// FedClient is one FedAvg participant's local data.
	FedClient = fed.ClientData
	// FedConfig tunes a FedAvg run.
	FedConfig = fed.Config
	// FedResult reports a FedAvg run.
	FedResult = fed.Result
)

// FedAvg runs federated averaging over the clients.
var FedAvg = fed.Run

// Evaluation metrics.
type (
	// Report aggregates accuracy/NLL/robust-loss measurements.
	Report = metrics.Report
)

var (
	// Evaluate computes a Report for params on a dataset.
	Evaluate = metrics.Evaluate
	// ConfusionMatrix tabulates predictions by true class.
	ConfusionMatrix = metrics.ConfusionMatrix
	// ECE is the expected calibration error of a binary classifier.
	ECE = metrics.ECE
	// AUC is the ROC area under the curve for binary classifiers.
	AUC = metrics.AUC
	// MinorityRecall is the recall of the rarer binary class.
	MinorityRecall = metrics.MinorityRecall
	// RMSE is the root-mean-square regression error.
	RMSE = metrics.RMSE
)

// Numeric utilities.
type (
	// Vec is a dense vector ([]float64).
	Vec = mat.Vec
	// Dense is a row-major dense matrix.
	Dense = mat.Dense
	// SolverOptions configures the first-order solvers.
	SolverOptions = opt.Options
)

var (
	// NewDense allocates a zeroed matrix.
	NewDense = mat.NewDense
	// FromRows builds a matrix from row slices.
	FromRows = mat.FromRows
	// NewRNG returns a seeded random stream.
	NewRNG = stat.NewRNG
)

// Observability: every layer reports into one process-wide metric
// registry (counters, gauges, latency histograms named
// drdp_<layer>_<name>_<unit>) that can be served over HTTP in the
// Prometheus text format or snapshotted in-process for assertions.
type (
	// FitProgress reports one EM iteration of a running fit; subscribe
	// with WithProgress.
	FitProgress = core.Progress
	// TelemetryValues is a point-in-time copy of the metric registry.
	TelemetryValues = telemetry.Values
	// MetricLabel is one name/value label on a metric series.
	MetricLabel = telemetry.Label
	// BreakerState is the circuit-breaker state reported by
	// TransportStats and BreakerConfig.OnStateChange.
	BreakerState = edge.BreakerState
)

var (
	// WithProgress subscribes a per-EM-iteration callback on a learner.
	WithProgress = core.WithProgress
	// TelemetrySnapshot copies the current state of every metric.
	TelemetrySnapshot = telemetry.Snapshot
	// TelemetryHandler serves the registry as Prometheus text (0.0.4).
	TelemetryHandler = telemetry.Handler
	// ServeTelemetry starts the full observability endpoint (/metrics,
	// /debug/vars, /debug/pprof) on addr; pass nil for the default
	// registry.
	ServeTelemetry = telemetry.Serve
	// DiscardLogger returns a logger that drops everything — pass it as
	// a component's Logger to opt out of the default stderr warnings.
	DiscardLogger = telemetry.Discard
	// L builds a MetricLabel, for reading labeled series out of a
	// TelemetryValues snapshot.
	L = telemetry.L
)
