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
	// RebuildEvery batches prior rebuilds: the cloud folds reports into
	// the served prior only after this many accumulate (1 = immediately).
	RebuildEvery int
	// ComputeRate calibrates simulated training time: parameter-gradient
	// evaluations per second (default 5e6).
	ComputeRate float64
	// Admission turns on the cloud's admission control: uploads are
	// semantically validated (rejects never enter the pool) and the
	// admission judge quarantines statistical outliers out of rebuilds —
	// mirroring the live CloudServer with SetAdmission.
	Admission bool
	// TrimFrac caps the fraction of the pool one judgment round may
	// quarantine (0 = dpprior default). Only meaningful with Admission.
	TrimFrac float64
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
	return c
}

const (
	// alpha is the DP concentration of every cloud, region and shard the
	// package's scenarios build.
	alpha = 1
	// labelFlip is the label noise on simulated device tasks.
	labelFlip = 0.05
	// testSamples sizes each simulated device's accuracy measurement.
	testSamples = 1000
)

// DeviceResult reports one device's simulated lifecycle.
type DeviceResult struct {
	ID              int
	ArriveAt        time.Duration
	FetchedVersion  uint64 // 0 = cold cloud, trained without a prior
	PriorComponents int
	Accuracy        float64
	DownlinkTime    time.Duration // prior transfer
	TrainTime       time.Duration // simulated compute time
	UplinkTime      time.Duration // report transfer (0 if not reporting)
	TimeToModel     time.Duration // arrive → model ready
	Rejected        bool          // upload refused by semantic validation
	Quarantined     bool          // upload admitted but held out of rebuilds by the judge
}

// Result aggregates the run.
type Result struct {
	Devices      []DeviceResult
	FinalVersion uint64
	Rebuilds     int
	BytesDown    int // total prior bytes shipped to devices
	BytesUp      int // total posterior bytes reported

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

// cloudState is the simulated cloud: accumulated tasks and the currently
// served prior, rebuilt per policy.
type cloudState struct {
	tasks        []dpprior.TaskPosterior
	taskDev      []int // device index that reported tasks[i]
	pendingSince int   // tasks not yet folded into the served prior
	served       *dpprior.Prior
	version      uint64
	rebuilds     int
	seed         int64
	admission    bool
	trimFrac     float64
	dim          int          // pinned by the first admitted task
	rejected     int          // uploads refused by validation
	decided      map[int]bool // task index → quarantined
	deferred     []int        // flagged but over budget last round: no verdict yet
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
	p, err := dpprior.Build(admitted, dpprior.BuildOptions{Alpha: alpha, Seed: c.seed})
	if err != nil {
		return
	}
	c.served = p
	c.version++
	c.rebuilds++
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

// deviceState carries a device's in-flight data between events.
type deviceState struct {
	spec   DeviceSpec
	task   data.LinearTask
	train  *data.Dataset
	test   *data.Dataset
	prior  *dpprior.Prior
	result DeviceResult
	fit    *core.Result
	cov    *mat.Dense // Laplace posterior covariance, computed once
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
		task.Flip = labelFlip
		devices[i] = &deviceState{
			spec:  spec,
			task:  task,
			train: task.Sample(rng, spec.Samples),
			test:  task.Sample(rng, testSamples),
			result: DeviceResult{
				ID:       spec.ID,
				ArriveAt: spec.ArriveAt,
			},
		}
	}

	cloud := &cloudState{
		seed:      cfg.Seed + 1,
		admission: cfg.Admission,
		trimFrac:  cfg.TrimFrac,
	}
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
	for q.Len() > 0 {
		e := heap.Pop(q).(event)
		d := devices[e.dev]
		switch e.kind {
		case evArrive:
			// Snapshot the served prior NOW; downlink delay follows.
			d.prior = cloud.served
			d.result.FetchedVersion = cloud.version
			d.result.DownlinkTime = d.spec.Link.Latency // empty "no prior yet" reply
			if d.prior != nil {
				wire := d.prior.WireSize()
				d.result.DownlinkTime = d.spec.Link.TransferTime(wire)
				d.result.PriorComponents = len(d.prior.Components)
				out.BytesDown += wire
			}
			push(e.at+d.result.DownlinkTime, evFetched, e.dev)

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
			if !d.spec.Report {
				break
			}
			cov, err := model.LaplacePosterior(cfg.Model, d.fit.Params, d.train.X, d.train.Y, 1e-3)
			if err != nil {
				return nil, fmt.Errorf("sim: device %d posterior: %w", d.spec.ID, err)
			}
			d.cov = cov
			wire := 8 * (len(d.fit.Params) + len(cov.Data) + 1)
			d.result.UplinkTime = d.spec.Link.TransferTime(wire)
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
