// Package sim is a discrete-event simulator of a drdp deployment: a
// fleet of edge devices arriving over time, fetching the DP prior from
// one cloud over heterogeneous links (WiFi/4G/3G), training locally, and
// reporting their solved tasks back. Training inside the simulation is
// real (the actual DRDP learner runs and real accuracies are measured);
// only the clock is modeled — transfer times from the link profiles and
// a calibrated compute-rate model for training time.
//
// The simulator answers the deployment questions the evaluation's
// systems analysis raises: how prior staleness (cloud rebuild policy),
// link quality and arrival order interact to shape fleet-wide
// time-to-model and accuracy (EXPERIMENTS.md Table 9).
package sim

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/drdp/drdp/internal/core"
	"github.com/drdp/drdp/internal/data"
	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/dro"
	"github.com/drdp/drdp/internal/edge"
	"github.com/drdp/drdp/internal/mat"
	"github.com/drdp/drdp/internal/model"
)

// DeviceSpec describes one simulated edge device.
type DeviceSpec struct {
	ID       int
	ArriveAt time.Duration
	Link     edge.LinkProfile
	Samples  int  // local training samples
	Report   bool // upload the solved task posterior
	Cluster  int  // task-family cluster the device's task comes from
	// LossRate is the probability that one transfer attempt (prior fetch
	// or report upload) fails on this device's link. Failed attempts cost
	// time (detection + backoff per Config.Retry); when every attempt
	// fails the device degrades: it trains prior-free, and a lost report
	// never reaches the cloud.
	LossRate float64
	// RefreshEvery, with Refreshes, runs a background prior-sync loop
	// after training: every RefreshEvery the device refreshes its held
	// prior — by version handshake when current, by component delta when
	// the cloud still retains the held version, by full prior otherwise,
	// and by falling back to the held copy when the cloud is down.
	RefreshEvery time.Duration
	// Refreshes is how many refresh rounds the device runs (0 = none).
	Refreshes int
	// Poison corrupts this device's uploaded posterior (training itself
	// stays honest, so the device's own accuracy is unaffected): the
	// poisoned-edge threat model where a compromised edge attacks the
	// fleet's shared prior.
	Poison PoisonKind
}

// PoisonKind enumerates the ways a hostile device corrupts its upload.
type PoisonKind int

// Poison kinds.
const (
	// PoisonNone uploads the honest posterior.
	PoisonNone PoisonKind = iota
	// PoisonNaN plants a NaN in the posterior mean — the "merely broken"
	// edge. Semantic validation catches it outright.
	PoisonNaN
	// PoisonAdversarial uploads a finite, well-formed but hostile
	// posterior: a far-off mean with a tiny covariance and a huge sample
	// count, crafted to drag the aggregated prior away from the true task
	// distribution. Only statistical quarantine catches it.
	PoisonAdversarial
)

// Config tunes a simulation run.
type Config struct {
	// Family generates device tasks; Model is the shared model family.
	Family *data.TaskFamily
	Model  model.Logistic
	// Set is the local uncertainty ball each device trains with.
	Set dro.Set
	// Alpha is the cloud's DP concentration.
	Alpha float64
	// RebuildEvery batches prior rebuilds: the cloud folds reports into
	// the served prior only after this many accumulate (1 = immediately).
	RebuildEvery int
	// ComputeRate calibrates simulated training time: parameter-gradient
	// evaluations per second (default 5e6).
	ComputeRate float64
	// TestSamples sizes the per-device accuracy measurement (default 1000).
	TestSamples int
	// Flip is the label noise on device tasks.
	Flip float64
	// Retry is the per-device transfer retry schedule used when a link
	// has a LossRate (zero value = one attempt, no retries). Mirrors the
	// live transport's ResilientClient policy so the simulator and the
	// real stack degrade the same way.
	Retry edge.RetryPolicy
	// Admission turns on the cloud's admission control: uploads are
	// semantically validated (rejects never enter the pool) and the
	// admission judge quarantines statistical outliers out of rebuilds —
	// mirroring the live CloudServer with SetAdmission.
	Admission bool
	// TrimFrac caps the fraction of the pool one judgment round may
	// quarantine (0 = dpprior default). Only meaningful with Admission.
	TrimFrac float64
	// OutageStart/OutageEnd model a cloud crash and recovery: in
	// [OutageStart, OutageEnd) every cloud interaction fails after the
	// retry budget, so arriving devices train prior-free and refreshing
	// devices fall back to their held prior. At OutageEnd the cloud comes
	// back with its durable state (tasks, served prior, version) intact
	// but its in-memory delta history empty — exactly what a drdp-cloud
	// restart on a -data-dir looks like: the first refresh after recovery
	// resyncs in full, later ones by delta again. Equal values = no outage.
	OutageStart time.Duration
	OutageEnd   time.Duration
	// Seed drives all randomness.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.RebuildEvery <= 0 {
		c.RebuildEvery = 1
	}
	if c.ComputeRate <= 0 {
		c.ComputeRate = 5e6
	}
	if c.TestSamples <= 0 {
		c.TestSamples = 1000
	}
	return c
}

// DeviceResult reports one device's simulated lifecycle.
type DeviceResult struct {
	ID              int
	ArriveAt        time.Duration
	FetchedVersion  uint64 // 0 = cold cloud, trained without a prior
	PriorComponents int
	Accuracy        float64
	DownlinkTime    time.Duration // prior transfer (including failed attempts)
	TrainTime       time.Duration // simulated compute time
	UplinkTime      time.Duration // report transfer (0 if not reporting)
	TimeToModel     time.Duration // arrive → model ready
	Retries         int           // failed transfer attempts that were retried
	Degraded        bool          // fetch attempts exhausted: trained prior-free
	ReportLost      bool          // upload attempts exhausted: cloud never saw the task
	Refreshes       int           // background prior-sync rounds run
	DeltaRefreshes  int           // refreshes answered with a component delta
	FullRefreshes   int           // refreshes that moved the full prior
	CachedFallbacks int           // refreshes that fell back to the held prior (cloud down/unreachable)
	FinalVersion    uint64        // prior version held when the run ended
	Rejected        bool          // upload refused by semantic validation
	Quarantined     bool          // upload admitted but held out of rebuilds by the judge
}

// Result aggregates the run.
type Result struct {
	Devices      []DeviceResult
	FinalVersion uint64
	Rebuilds     int
	BytesDown    int // total prior bytes shipped to devices (fetch + refresh)
	BytesUp      int // total posterior bytes reported
	Degraded     int // devices that trained without a prior due to link loss
	ReportsLost  int // reports that never reached the cloud

	Refreshes       int // background prior-sync rounds across the fleet
	DeltaRefreshes  int // refreshes served as component deltas
	FullRefreshes   int // refreshes that moved the full prior
	CachedFallbacks int // refreshes that fell back to the held prior
	DeltaBytesSaved int // full-prior bytes the delta refreshes avoided

	RejectedUploads    int // uploads refused by semantic validation
	QuarantinedUploads int // uploads held out of rebuilds by the admission judge
}

// event is one scheduled simulator transition.
type event struct {
	at   time.Duration
	seq  int // tie-breaker for determinism
	kind eventKind
	dev  int // index into devices
}

type eventKind int

const (
	evArrive eventKind = iota
	evFetched
	evTrained
	evReportArrived
	evRefresh
)

type eventQueue []event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() any     { old := *q; n := len(old); e := old[n-1]; *q = old[:n-1]; return e }

// simDeltaHistory mirrors the live server's delta retention: how many
// built priors the simulated cloud keeps for delta refreshes.
const simDeltaHistory = 8

// cloudState is the simulated cloud: accumulated tasks, the currently
// served prior (rebuilt per policy), and a ring of recent priors for
// delta refreshes — the same retention the live CloudServer has.
type cloudState struct {
	tasks        []dpprior.TaskPosterior
	taskDev      []int // device index that reported tasks[i]
	pendingSince int   // tasks not yet folded into the served prior
	served       *dpprior.Prior
	version      uint64
	rebuilds     int
	alpha        float64
	seed         int64
	admission    bool
	trimFrac     float64
	dim          int          // pinned by the first admitted task
	rejected     int          // uploads refused by validation
	decided      map[int]bool // task index → quarantined
	deferred     []int        // flagged but over budget last round: no verdict yet
	history      map[uint64]*dpprior.Prior
	histOrder    []uint64
}

// report handles one uploaded posterior; accepted is false when
// admission validation refused it (the upload never enters the pool).
func (c *cloudState) report(t dpprior.TaskPosterior, dev, rebuildEvery int) (accepted bool) {
	if c.admission {
		if err := t.Validate(c.dim); err != nil {
			c.rejected++
			return false
		}
		if c.dim == 0 {
			c.dim = len(t.Mu)
		}
	}
	c.tasks = append(c.tasks, t)
	c.taskDev = append(c.taskDev, dev)
	c.pendingSince++
	if c.pendingSince >= rebuildEvery {
		c.rebuild()
		c.pendingSince = 0
	}
	return true
}

// rebuild folds admitted tasks into a fresh served prior, mirroring the
// live server: a failed build keeps the previous prior serving.
func (c *cloudState) rebuild() {
	admitted := c.admit()
	if len(admitted) == 0 {
		return
	}
	p, err := dpprior.Build(admitted, dpprior.BuildOptions{Alpha: c.alpha, Seed: c.seed})
	if err != nil {
		return
	}
	c.served = p
	c.version++
	c.rebuilds++
	if c.history == nil {
		c.history = make(map[uint64]*dpprior.Prior, simDeltaHistory)
	}
	c.history[c.version] = p
	c.histOrder = append(c.histOrder, c.version)
	for len(c.histOrder) > simDeltaHistory {
		delete(c.history, c.histOrder[0])
		c.histOrder = c.histOrder[1:]
	}
}

// admit runs the same admission pass as the live server (dpprior.Admit):
// verdicts stick across rebuilds, and deferred tasks are held out of
// this rebuild and re-judged next round.
func (c *cloudState) admit() []dpprior.TaskPosterior {
	if !c.admission {
		return c.tasks
	}
	if c.decided == nil {
		c.decided = make(map[int]bool)
	}
	admitted, verdicts, deferred := dpprior.Admit(c.tasks, func(i int) (bool, bool) {
		q, ok := c.decided[i]
		return q, ok
	}, c.served, dpprior.AdmissionOptions{TrimFrac: c.trimFrac})
	for i, q := range verdicts {
		c.decided[i] = q
	}
	c.deferred = deferred
	return admitted
}

// restart models the recovery side of an outage: the durable store
// brings back tasks, served prior and version, but the in-memory delta
// history is gone — refreshes right after recovery go full.
func (c *cloudState) restart() {
	c.history = nil
	c.histOrder = nil
}

// transfer simulates one possibly-lossy transfer: each failed attempt
// costs a detection delay (two one-way latencies — the timed-out
// handshake) plus the policy's backoff, and ok reports whether any
// attempt within the retry budget succeeded. Deterministic per rng.
func transfer(rng *rand.Rand, loss float64, policy edge.RetryPolicy, link edge.LinkProfile) (retries int, waste time.Duration, ok bool) {
	attempts := policy.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	for i := 0; i < attempts; i++ {
		if loss <= 0 || rng.Float64() >= loss {
			return retries, waste, true
		}
		waste += 2 * link.Latency
		if i < attempts-1 {
			retries++
			waste += policy.Delay(i, rng)
		}
	}
	return retries, waste, false
}

// deviceState carries a device's in-flight data between events.
type deviceState struct {
	spec          DeviceSpec
	task          data.LinearTask
	train         *data.Dataset
	test          *data.Dataset
	prior         *dpprior.Prior
	version       uint64
	result        DeviceResult
	fit           *core.Result
	cov           *mat.Dense // Laplace posterior covariance, computed once
	refreshesLeft int
}

// Run executes the simulation and returns per-device results ordered by
// device arrival.
func Run(cfg Config, specs []DeviceSpec) (*Result, error) {
	if cfg.Family == nil {
		return nil, errors.New("sim: Config.Family is required")
	}
	if len(specs) == 0 {
		return nil, errors.New("sim: no devices")
	}
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	devices := make([]*deviceState, len(specs))
	for i, spec := range specs {
		if spec.Samples <= 0 {
			return nil, fmt.Errorf("sim: device %d has no samples", spec.ID)
		}
		task := cfg.Family.SampleTask(rng, spec.Cluster)
		task.Flip = cfg.Flip
		devices[i] = &deviceState{
			spec:  spec,
			task:  task,
			train: task.Sample(rng, spec.Samples),
			test:  task.Sample(rng, cfg.TestSamples),
			result: DeviceResult{
				ID:       spec.ID,
				ArriveAt: spec.ArriveAt,
			},
		}
	}

	cloud := &cloudState{
		alpha:     cfg.Alpha,
		seed:      cfg.Seed + 1,
		admission: cfg.Admission,
		trimFrac:  cfg.TrimFrac,
	}
	// Link faults draw from their own stream so enabling loss does not
	// perturb task sampling.
	linkRng := rand.New(rand.NewSource(cfg.Seed + 2))
	q := &eventQueue{}
	seq := 0
	push := func(at time.Duration, kind eventKind, dev int) {
		heap.Push(q, event{at: at, seq: seq, kind: kind, dev: dev})
		seq++
	}
	for i, d := range devices {
		push(d.spec.ArriveAt, evArrive, i)
	}

	out := &Result{}
	hasOutage := cfg.OutageEnd > cfg.OutageStart
	recovered := !hasOutage
	for q.Len() > 0 {
		e := heap.Pop(q).(event)
		d := devices[e.dev]
		// Outage window: every interaction starting inside it fails after
		// the retry budget, as if the cloud process were dead.
		down := hasOutage && e.at >= cfg.OutageStart && e.at < cfg.OutageEnd
		if !recovered && e.at >= cfg.OutageEnd {
			cloud.restart()
			recovered = true
		}
		lossFor := func(base float64) float64 {
			if down {
				return 1
			}
			return base
		}
		switch e.kind {
		case evArrive:
			// The lossy link may eat fetch attempts before (or instead of)
			// the prior coming through.
			retries, waste, ok := transfer(linkRng, lossFor(d.spec.LossRate), cfg.Retry, d.spec.Link)
			d.result.Retries += retries
			// Snapshot the served prior NOW; downlink delay follows.
			d.prior = cloud.served
			d.version = cloud.version
			var downlink time.Duration
			if !ok {
				// Every attempt lost: degrade to prior-free training, like
				// a live Device with FallbackLocal and a cold cache.
				d.prior = nil
				d.version = 0
				d.result.Degraded = true
				out.Degraded++
				downlink = waste
			} else if d.prior != nil {
				wire := d.prior.WireSize()
				downlink = waste + d.spec.Link.TransferTime(wire)
				out.BytesDown += wire
			} else {
				downlink = waste + d.spec.Link.Latency // empty "no prior yet" reply
			}
			d.result.DownlinkTime = downlink
			d.result.FetchedVersion = d.version
			if d.prior != nil {
				d.result.PriorComponents = len(d.prior.Components)
			}
			push(e.at+downlink, evFetched, e.dev)

		case evFetched:
			// Real training; simulated duration from the compute model.
			dev := &edge.Device{ID: d.spec.ID, Model: cfg.Model, Set: cfg.Set}
			res, err := dev.TrainWithPrior(d.prior, d.train.X, d.train.Y)
			if err != nil {
				return nil, fmt.Errorf("sim: device %d train: %w", d.spec.ID, err)
			}
			d.fit = res
			d.result.Accuracy = model.Accuracy(cfg.Model, res.Params, d.test.X, d.test.Y)
			// Cost model: EM iterations × M-step budget × n × params.
			ops := float64(res.EMIterations) * 200 * float64(d.train.Len()) * float64(cfg.Model.NumParams())
			d.result.TrainTime = time.Duration(ops / cfg.ComputeRate * float64(time.Second))
			push(e.at+d.result.TrainTime, evTrained, e.dev)

		case evTrained:
			d.result.TimeToModel = e.at - d.spec.ArriveAt
			if d.spec.Refreshes > 0 && d.spec.RefreshEvery > 0 {
				// Start the background prior-sync loop.
				d.refreshesLeft = d.spec.Refreshes
				push(e.at+d.spec.RefreshEvery, evRefresh, e.dev)
			}
			if !d.spec.Report {
				break
			}
			cov, err := model.LaplacePosterior(cfg.Model, d.fit.Params, d.train.X, d.train.Y, 1e-3)
			if err != nil {
				return nil, fmt.Errorf("sim: device %d posterior: %w", d.spec.ID, err)
			}
			d.cov = cov
			retries, waste, ok := transfer(linkRng, lossFor(d.spec.LossRate), cfg.Retry, d.spec.Link)
			d.result.Retries += retries
			if !ok {
				// The upload never made it: the device keeps its model but
				// the fleet's prior misses this task.
				d.result.ReportLost = true
				out.ReportsLost++
				d.result.UplinkTime = waste
				break
			}
			wire := 8 * (len(d.fit.Params) + len(cov.Data) + 1)
			d.result.UplinkTime = waste + d.spec.Link.TransferTime(wire)
			out.BytesUp += wire
			push(e.at+d.result.UplinkTime, evReportArrived, e.dev)

		case evReportArrived:
			task := dpprior.TaskPosterior{
				Mu:    d.fit.Params,
				Sigma: d.cov,
				N:     d.train.Len(),
			}
			if d.spec.Poison != PoisonNone {
				task = poisonTask(task, d.spec.Poison)
			}
			if !cloud.report(task, e.dev, cfg.RebuildEvery) {
				d.result.Rejected = true
				out.RejectedUploads++
			}

		case evRefresh:
			d.refreshesLeft--
			if d.refreshesLeft > 0 {
				push(e.at+d.spec.RefreshEvery, evRefresh, e.dev)
			}
			d.result.Refreshes++
			out.Refreshes++
			retries, _, ok := transfer(linkRng, lossFor(d.spec.LossRate), cfg.Retry, d.spec.Link)
			d.result.Retries += retries
			switch {
			case !ok:
				// Cloud down or link dead: the device keeps serving itself
				// from the prior it already holds — the PriorCache path.
				d.result.CachedFallbacks++
				out.CachedFallbacks++
			case cloud.served == nil || cloud.version == d.version:
				// Cold cloud or already current: a version handshake, no
				// payload.
			default:
				full := cloud.served.WireSize()
				wire := full
				delta := false
				if old := cloud.history[d.version]; old != nil && d.prior != nil {
					pd := dpprior.Diff(old, cloud.served, d.version, cloud.version)
					if pd.WireSize() < full {
						wire = pd.WireSize()
						delta = true
					}
				}
				if delta {
					d.result.DeltaRefreshes++
					out.DeltaRefreshes++
					out.DeltaBytesSaved += full - wire
				} else {
					d.result.FullRefreshes++
					out.FullRefreshes++
				}
				out.BytesDown += wire
				d.prior = cloud.served
				d.version = cloud.version
			}
		}
	}

	for idx, quarantined := range cloud.decided {
		if quarantined {
			devices[cloud.taskDev[idx]].result.Quarantined = true
			out.QuarantinedUploads++
		}
	}
	// A task still deferred when the run ends never got a verdict, but it
	// was held out of rebuilds by the judge all the same — report it.
	for _, idx := range cloud.deferred {
		devices[cloud.taskDev[idx]].result.Quarantined = true
		out.QuarantinedUploads++
	}
	for _, d := range devices {
		d.result.FinalVersion = d.version
		out.Devices = append(out.Devices, d.result)
	}
	out.FinalVersion = cloud.version
	out.Rebuilds = cloud.rebuilds
	return out, nil
}

// poisonTask corrupts an honest posterior per the device's poison kind.
// It never touches the honest task's backing arrays (clean uploads stay
// bit-identical across poisoned and clean runs).
func poisonTask(t dpprior.TaskPosterior, kind PoisonKind) dpprior.TaskPosterior {
	dim := len(t.Mu)
	mu := make([]float64, dim)
	switch kind {
	case PoisonNaN:
		copy(mu, t.Mu)
		mu[0] = math.NaN()
		return dpprior.TaskPosterior{Mu: mu, Sigma: t.Sigma, N: t.N}
	case PoisonAdversarial:
		// Finite and well-formed, but hostile: a small-norm anti-correlated
		// mean, overconfident (tiny covariance) and heavy (huge N). The
		// small norm keeps the basin cheap in data loss, so the component's
		// overconfident density spike can win the multi-start objective on
		// data-poor devices — a far-off mean would lose that race outright —
		// and the huge N hijacks any sample-weighted aggregation it reaches.
		for j, v := range t.Mu {
			mu[j] = -0.2 * v
		}
		sigma := mat.Eye(dim)
		sigma.ScaleBy(1e-4)
		return dpprior.TaskPosterior{Mu: mu, Sigma: sigma, N: 100000}
	default:
		return t
	}
}
