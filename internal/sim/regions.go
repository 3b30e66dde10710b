package sim

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"sync/atomic"
	"time"

	"github.com/drdp/drdp/internal/data"
	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/dro"
	"github.com/drdp/drdp/internal/edge"
	"github.com/drdp/drdp/internal/mat"
	"github.com/drdp/drdp/internal/model"
	"github.com/drdp/drdp/internal/region"
	"github.com/drdp/drdp/internal/telemetry"
)

// RegionsConfig sizes a hierarchical edge → region → cloud scenario.
// Like the cluster scenario it runs the REAL tier in-process: real
// regional aggregators (store + admission + rebuild + sync), real
// listeners, real protocol both hops. The fault is a regional cloud
// partition: region 1's uplink and its devices' direct cloud links go
// dark mid-run, then — deeper into the outage — the devices lose their
// region too, walking the full degradation ladder
// fresh → regional → cached → local-only.
//
// The phase schedule (PartitionStart/RegionCutStart/PartitionEnd, and
// the derived upload-skip and flush-barrier rounds) applies to the
// control run too — Partition only decides whether the links actually
// cut. That keeps the cloud's ingest stream identical across the pair,
// which is what makes the byte-identity acceptance check meaningful.
type RegionsConfig struct {
	// Regions × DevicesPerRegion sizes the tier (defaults 2 × 3).
	Regions          int
	DevicesPerRegion int
	// Rounds of the synchronous round loop (default 9).
	Rounds int
	// UploadsPerRound is how many synthetic task posteriors land on each
	// region per round (default 6) — the raw stream the regions
	// summarize upward.
	UploadsPerRound int
	// Dim is the parameter dimensionality (default 4).
	Dim int
	// Samples is the per-device training set size (default 30).
	Samples int
	// Alpha is the DP concentration shared by cloud and regions.
	Alpha float64
	// SummaryComponents caps each upward flush's summary count
	// (default 4); the upload-byte reduction is roughly window/summary.
	SummaryComponents int
	// Partition injects the fault; false runs the control with the same
	// schedule but healthy links.
	Partition bool
	// PartitionStart..PartitionEnd is the cloud-partition round window
	// for region 1 (defaults 2..7, i.e. rounds 2-6 dark). RegionCutStart
	// (default 4) is the round its devices lose the region too.
	PartitionStart int
	PartitionEnd   int
	RegionCutStart int
	// Gossip lets region 1 exchange component deltas with region 0
	// while the cloud is unreachable (partition runs only).
	Gossip bool
	// Seed drives the synthetic workload, training data, and every
	// summarization seed.
	Seed   int64
	Logger *slog.Logger
}

func (c RegionsConfig) withDefaults() RegionsConfig {
	if c.Regions <= 0 {
		c.Regions = 2
	}
	if c.DevicesPerRegion <= 0 {
		c.DevicesPerRegion = 3
	}
	if c.Rounds <= 0 {
		c.Rounds = 9
	}
	if c.UploadsPerRound <= 0 {
		c.UploadsPerRound = 6
	}
	if c.Dim <= 0 {
		c.Dim = 4
	}
	if c.Samples <= 0 {
		c.Samples = 30
	}
	if c.Alpha <= 0 {
		c.Alpha = 1
	}
	if c.SummaryComponents <= 0 {
		c.SummaryComponents = 4
	}
	if c.PartitionStart <= 0 {
		c.PartitionStart = 2
	}
	if c.PartitionEnd <= 0 {
		c.PartitionEnd = 7
	}
	if c.RegionCutStart <= 0 {
		c.RegionCutStart = 4
	}
	return c
}

// RegionsResult reports one hierarchical scenario run.
type RegionsResult struct {
	Rounds  int
	Devices int

	// LadderOrder is the order degradation levels were FIRST observed
	// across region 1's device rounds — the acceptance check is that a
	// partition walks it strictly downward:
	// fresh-prior, regional-prior, cached-prior, local-only.
	LadderOrder []string
	// LadderCounts tallies device rounds per degradation level
	// (region 1 only).
	LadderCounts map[string]int
	// Accuracy is the mean test accuracy over every device round.
	Accuracy float64
	// Recovered reports that after the partition healed, every region-1
	// device was back on a fresh cloud prior by the final round.
	Recovered bool

	// RawBytes is what shipping every raw task posterior to the cloud
	// would have cost; UpBytes is what the summarized flushes actually
	// cost; Reduction is their ratio (the Table 18 headline).
	RawBytes  int64
	UpBytes   int64
	Reduction float64
	// GossipInjected counts peer components region 1 absorbed while the
	// cloud was unreachable.
	GossipInjected int

	// PriorBytes is the gob encoding of the final cloud prior; a
	// partition run and its control must match byte for byte.
	PriorBytes        []byte
	FinalCloudVersion uint64
	RegionStats       []region.SyncStats
}

// gatedCloud wraps an edge.Cloud behind a partition gate: while the
// gate is up every call fails like a dead link, deterministically and
// without burning real dial timeouts. This is the sim's link model for
// device-side connections; the region's uplink is gated at the
// net.Conn layer instead so its live mux connection dies realistically
// mid-stream.
type gatedCloud struct {
	cut   *atomic.Bool
	inner edge.Cloud
}

var errPartitioned = errors.New("sim: link partitioned")

func (g gatedCloud) FetchPrior(dim int) (*dpprior.Prior, uint64, error) {
	if g.cut.Load() {
		return nil, 0, errPartitioned
	}
	return g.inner.FetchPrior(dim)
}

func (g gatedCloud) FetchPriorIfNewer(dim int, known uint64) (*dpprior.Prior, uint64, error) {
	if g.cut.Load() {
		return nil, 0, errPartitioned
	}
	return g.inner.FetchPriorIfNewer(dim, known)
}

func (g gatedCloud) FetchPriorDelta(dim int, known uint64, old *dpprior.Prior) (*dpprior.Prior, uint64, error) {
	if g.cut.Load() {
		return nil, 0, errPartitioned
	}
	return g.inner.FetchPriorDelta(dim, known, old)
}

func (g gatedCloud) ReportTask(t dpprior.TaskPosterior) (uint64, error) {
	if g.cut.Load() {
		return 0, errPartitioned
	}
	return g.inner.ReportTask(t)
}

// gatedConn fails a live connection's I/O while the gate is up, so an
// established uplink dies mid-stream the way a real partition kills it
// (poisoning the mux), instead of staying healthy because loopback TCP
// never noticed.
type gatedConn struct {
	net.Conn
	cut *atomic.Bool
}

func (g gatedConn) Read(p []byte) (int, error) {
	if g.cut.Load() {
		return 0, errPartitioned
	}
	return g.Conn.Read(p)
}

func (g gatedConn) Write(p []byte) (int, error) {
	if g.cut.Load() {
		return 0, errPartitioned
	}
	return g.Conn.Write(p)
}

// RunRegions executes one hierarchical scenario: a cloud, Regions
// regional aggregators serving DevicesPerRegion devices each, a
// deterministic per-round upload stream each region summarizes upward
// at fixed flush barriers, and (when Partition is set) a mid-run cloud
// partition of region 1 that deepens into a full regional outage
// before healing. Two runs with the same config — one Partition, one
// control — must return byte-identical PriorBytes.
func RunRegions(cfg RegionsConfig) (*RegionsResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Regions < 2 {
		return nil, errors.New("sim: regions scenario needs at least 2 regions")
	}
	if !(cfg.PartitionStart < cfg.RegionCutStart && cfg.RegionCutStart < cfg.PartitionEnd && cfg.PartitionEnd <= cfg.Rounds) {
		return nil, fmt.Errorf("sim: phase schedule %d/%d/%d must be ascending within %d rounds",
			cfg.PartitionStart, cfg.RegionCutStart, cfg.PartitionEnd, cfg.Rounds)
	}
	logger := telemetry.OrDefault(cfg.Logger)
	// Priors live in model parameter space: logistic weights + bias.
	pdim := model.Logistic{Dim: cfg.Dim}.NumParams()

	// The synthetic upload stream: deterministic in the seed, generated
	// up front in (round, region, k) order so control and partition runs
	// feed the regions identical bytes.
	taskRng := rand.New(rand.NewSource(cfg.Seed + 2))
	uploads := make([][][]dpprior.TaskPosterior, cfg.Rounds)
	for round := range uploads {
		uploads[round] = make([][]dpprior.TaskPosterior, cfg.Regions)
		for r := range uploads[round] {
			batch := make([]dpprior.TaskPosterior, cfg.UploadsPerRound)
			for k := range batch {
				mu := make(mat.Vec, pdim)
				for j := range mu {
					mu[j] = taskRng.NormFloat64()
				}
				sigma := mat.Eye(pdim)
				sigma.ScaleBy(0.1)
				batch[k] = dpprior.TaskPosterior{Mu: mu, Sigma: sigma, N: 100}
			}
			uploads[round][r] = batch
		}
	}

	// The cloud, pre-warmed so round 0 devices fetch a real prior.
	seedRng := rand.New(rand.NewSource(cfg.Seed + 3))
	seedTasks := make([]dpprior.TaskPosterior, 4)
	for i := range seedTasks {
		mu := make(mat.Vec, pdim)
		for j := range mu {
			mu[j] = seedRng.NormFloat64()
		}
		sigma := mat.Eye(pdim)
		sigma.ScaleBy(0.1)
		seedTasks[i] = dpprior.TaskPosterior{Mu: mu, Sigma: sigma, N: 100}
	}
	cloud, err := edge.NewCloudServer(seedTasks, dpprior.BuildOptions{Alpha: cfg.Alpha, Seed: cfg.Seed + 1}, logger)
	if err != nil {
		return nil, fmt.Errorf("sim: cloud: %w", err)
	}
	defer cloud.Close()
	cloudAddrCh := make(chan string, 1)
	go cloud.ListenAndServe("127.0.0.1:0", cloudAddrCh)
	cloudAddr := <-cloudAddrCh

	// Partition gates. cloudCut severs region 1 (uplink + its devices'
	// direct cloud links); regionCut additionally severs its devices
	// from the region itself.
	var cloudCut, regionCut atomic.Bool

	regions := make([]*region.Region, cfg.Regions)
	regionAddrs := make([]string, cfg.Regions)
	defer func() {
		for _, r := range regions {
			if r != nil {
				r.Close()
			}
		}
	}()
	for i := 0; i < cfg.Regions; i++ {
		rcfg := region.Config{
			Name:      fmt.Sprintf("region-%d", i),
			CloudAddr: cloudAddr,
			Build: dpprior.BuildOptions{
				Alpha:         cfg.Alpha,
				MaxComponents: cfg.SummaryComponents,
				Seed:          cfg.Seed + 100 + int64(i),
			},
			DialTimeout: 2 * time.Second,
			Seed:        cfg.Seed + 200 + int64(i),
			Logger:      logger,
		}
		if i == 1 {
			rcfg.Dial = func() (net.Conn, error) {
				if cloudCut.Load() {
					return nil, errPartitioned
				}
				conn, err := net.DialTimeout("tcp", cloudAddr, 2*time.Second)
				if err != nil {
					return nil, err
				}
				return gatedConn{Conn: conn, cut: &cloudCut}, nil
			}
			if cfg.Gossip {
				rcfg.Peers = []string{regionAddrs[0]}
			}
		}
		r, err := region.Start(rcfg, nil)
		if err != nil {
			return nil, fmt.Errorf("sim: %s: %w", rcfg.Name, err)
		}
		regions[i] = r
		addrCh := make(chan string, 1)
		go r.ListenAndServe("127.0.0.1:0", addrCh)
		regionAddrs[i] = <-addrCh
	}

	// Per-region uploader muxes: the device-fleet upload path.
	uploaders := make([]*edge.MuxClient, cfg.Regions)
	for i, addr := range regionAddrs {
		u, err := edge.DialMux(addr, 2*time.Second)
		if err != nil {
			return nil, fmt.Errorf("sim: uploader for region %d: %w", i, err)
		}
		defer u.Close()
		uploaders[i] = u
	}

	// Devices: real training data from a task family, real DRDP fits.
	// Region 1's last device has a cold cache and FallbackLocal — the
	// device that walks all the way down to local-only.
	dataRng := rand.New(rand.NewSource(cfg.Seed + 4))
	family, err := data.NewTaskFamily(dataRng, cfg.Dim, 2, 4, 0.3)
	if err != nil {
		return nil, err
	}
	m := model.Logistic{Dim: cfg.Dim}
	type simDevice struct {
		dev     *edge.Device
		primary edge.Cloud
		train   *data.Dataset
		test    *data.Dataset
	}
	devices := make([][]simDevice, cfg.Regions)
	for i := 0; i < cfg.Regions; i++ {
		devices[i] = make([]simDevice, cfg.DevicesPerRegion)
		for j := 0; j < cfg.DevicesPerRegion; j++ {
			task := family.SampleTask(dataRng, j%2)
			task.Flip = 0.05
			d := &edge.Device{
				ID:      i*100 + j,
				Model:   m,
				Set:     dro.Set{Kind: dro.Wasserstein, Rho: 0.05},
				EMIters: 3,
			}
			cold := i == 1 && j == cfg.DevicesPerRegion-1
			if !cold {
				cache, err := edge.NewPriorCache("")
				if err != nil {
					return nil, err
				}
				d.Cache = cache
			} else {
				d.FallbackLocal = true
			}
			rc, err := edge.Dial(regionAddrs[i], 2*time.Second)
			if err != nil {
				return nil, fmt.Errorf("sim: device %d region dial: %w", d.ID, err)
			}
			defer rc.Close()
			regionGate := &atomic.Bool{} // region 0 devices never lose their region
			if i == 1 {
				regionGate = &regionCut
			}
			d.Regional = gatedCloud{cut: regionGate, inner: rc}
			cc, err := edge.Dial(cloudAddr, 2*time.Second)
			if err != nil {
				return nil, fmt.Errorf("sim: device %d cloud dial: %w", d.ID, err)
			}
			defer cc.Close()
			cloudGate := &atomic.Bool{}
			if i == 1 {
				cloudGate = &cloudCut
			}
			devices[i][j] = simDevice{
				dev:     d,
				primary: gatedCloud{cut: cloudGate, inner: cc},
				train:   task.Sample(dataRng, cfg.Samples),
				test:    task.Sample(dataRng, 300),
			}
		}
	}

	out := &RegionsResult{
		Rounds:       cfg.Rounds,
		Devices:      cfg.Regions * cfg.DevicesPerRegion,
		LadderCounts: make(map[string]int),
	}
	seen := make(map[string]bool)
	var accSum float64
	var accN int
	var lastRoundFresh bool

	inPartition := func(round int) bool {
		return cfg.Partition && round >= cfg.PartitionStart && round < cfg.PartitionEnd
	}
	// Upload-skip schedule: while region 1's devices can't reach their
	// region, their uploads don't happen — in BOTH runs, so the regions'
	// flush windows stay comparable.
	uploadsSkipped := func(round, r int) bool {
		return r == 1 && round >= cfg.RegionCutStart && round < cfg.PartitionEnd
	}
	// Flush barriers sit strictly outside the partition window: the
	// region tier's sync invariant (DESIGN.md) is that a partition that
	// heals before the next barrier is invisible to the cloud.
	flushRound := func(round int) bool {
		return round == cfg.PartitionStart-1 || round == cfg.Rounds-1
	}

	for round := 0; round < cfg.Rounds; round++ {
		cloudCut.Store(inPartition(round))
		regionCut.Store(cfg.Partition && round >= cfg.RegionCutStart && round < cfg.PartitionEnd)

		roundFresh := true
		for i := range devices {
			for j := range devices[i] {
				sd := &devices[i][j]
				// report=false: training posteriors differ between control
				// and partition runs (degraded rounds train with different
				// priors), so the cloud-bound stream is the deterministic
				// upload schedule below, not the fits.
				res, st, err := sd.dev.RunWithStatus(sd.primary, sd.train.X, sd.train.Y, false)
				if err != nil {
					return nil, fmt.Errorf("sim: round %d device %d: %w", round, sd.dev.ID, err)
				}
				accSum += model.Accuracy(m, res.Params, sd.test.X, sd.test.Y)
				accN++
				if i == 1 {
					lvl := st.Degradation.String()
					out.LadderCounts[lvl]++
					if !seen[lvl] {
						seen[lvl] = true
						out.LadderOrder = append(out.LadderOrder, lvl)
					}
					if st.Degradation != edge.DegradedNone {
						roundFresh = false
					}
				}
			}
		}
		if round == cfg.Rounds-1 {
			lastRoundFresh = roundFresh
		}

		for i := range regions {
			if uploadsSkipped(round, i) {
				continue
			}
			if _, _, err := uploaders[i].BatchReportTasks(uploads[round][i]); err != nil {
				return nil, fmt.Errorf("sim: round %d uploads to region %d: %w", round, i, err)
			}
		}

		for i, r := range regions {
			if err := r.SyncDown(); err != nil && !(i == 1 && inPartition(round)) {
				return nil, fmt.Errorf("sim: round %d region %d down-sync: %w", round, i, err)
			}
		}

		if cfg.Gossip && inPartition(round) {
			n, err := regions[1].GossipOnce()
			if err != nil {
				logger.Warn("sim: gossip round failed", "round", round, "err", err)
			}
			out.GossipInjected += n
		}

		if flushRound(round) {
			for i, r := range regions {
				if _, err := r.FlushUp(); err != nil {
					return nil, fmt.Errorf("sim: round %d region %d flush: %w", round, i, err)
				}
			}
		}
	}

	out.Accuracy = accSum / float64(accN)
	out.Recovered = lastRoundFresh

	for _, r := range regions {
		st := r.Stats()
		out.RegionStats = append(out.RegionStats, st)
		out.RawBytes += st.RawBytes
		out.UpBytes += st.UpBytes
	}
	if out.UpBytes > 0 {
		out.Reduction = float64(out.RawBytes) / float64(out.UpBytes)
	}

	cloud.WaitCaughtUp()
	final, version, err := cloud.Prior()
	if err != nil {
		return nil, fmt.Errorf("sim: final cloud prior: %w", err)
	}
	out.FinalCloudVersion = version
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(final); err != nil {
		return nil, err
	}
	out.PriorBytes = buf.Bytes()

	telemetry.SimDevices.Add(float64(out.Devices))
	return out, nil
}
