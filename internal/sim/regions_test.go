package sim

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"github.com/drdp/drdp/internal/data"
	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/dro"
	"github.com/drdp/drdp/internal/edge"
	"github.com/drdp/drdp/internal/model"
	"github.com/drdp/drdp/internal/region"
	"github.com/drdp/drdp/internal/telemetry"
)

// TestRunRegionsPartitionChaos is the hierarchical tier's acceptance
// test: one control run and one partition run (same config, same
// seed), asserting
//
//  1. the partition walks region 1's devices down the full degradation
//     ladder in order — fresh → regional → cached → local-only,
//  2. after the partition heals, the final round is fresh again,
//  3. the final cloud prior is byte-identical across the pair (a
//     healed partition is invisible to the cloud), and
//  4. summarized upward sync cut cloud upload bytes at least 2×.
func TestRunRegionsPartitionChaos(t *testing.T) {
	cfg := regionsConfig{Seed: 31}

	control, err := runRegions(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Partition = true
	cfg.Gossip = true
	faulted, err := runRegions(cfg)
	if err != nil {
		t.Fatal(err)
	}

	wantLadder := []string{"fresh-prior", "regional-prior", "cached-prior", "local-only"}
	if !reflect.DeepEqual(faulted.LadderOrder, wantLadder) {
		t.Errorf("partition ladder = %v, want %v (counts %v)",
			faulted.LadderOrder, wantLadder, faulted.LadderCounts)
	}
	if got := control.LadderOrder; len(got) != 1 || got[0] != "fresh-prior" {
		t.Errorf("control run degraded: ladder %v, counts %v", got, control.LadderCounts)
	}
	if !faulted.Recovered {
		t.Errorf("region-1 devices not back on fresh priors after heal (counts %v)", faulted.LadderCounts)
	}

	if len(control.PriorBytes) == 0 {
		t.Fatal("control run produced no cloud prior")
	}
	if !bytes.Equal(control.PriorBytes, faulted.PriorBytes) {
		t.Errorf("cloud prior DIVERGED across the partition: control %d bytes, faulted %d bytes",
			len(control.PriorBytes), len(faulted.PriorBytes))
	}

	for name, r := range map[string]*regionsResult{"control": control, "faulted": faulted} {
		if r.Reduction < 2 {
			t.Errorf("%s run upload reduction %.2fx (raw %d, up %d), want >= 2x",
				name, r.Reduction, r.RawBytes, r.UpBytes)
		}
	}
	if faulted.GossipInjected == 0 {
		t.Error("gossip absorbed nothing during the partition")
	}
	if faulted.Accuracy < 0.5 || control.Accuracy < 0.5 {
		t.Errorf("accuracy collapsed: control %.3f, faulted %.3f", control.Accuracy, faulted.Accuracy)
	}
}

// TestRunRegionsDeterministic: the scenario is a pure function of its
// config — two identical partition runs agree on everything the
// acceptance checks read.
func TestRunRegionsDeterministic(t *testing.T) {
	cfg := regionsConfig{Seed: 33, Partition: true}
	a, err := runRegions(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runRegions(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.PriorBytes, b.PriorBytes) {
		t.Error("cloud prior differs across identical runs")
	}
	if !reflect.DeepEqual(a.LadderCounts, b.LadderCounts) {
		t.Errorf("ladder counts differ: %v vs %v", a.LadderCounts, b.LadderCounts)
	}
	if a.RawBytes != b.RawBytes || a.UpBytes != b.UpBytes {
		t.Errorf("byte accounting differs: %d/%d vs %d/%d", a.RawBytes, a.UpBytes, b.RawBytes, b.UpBytes)
	}
}

// The hierarchical scenario's fixed shape: regionCount regions of
// devicesPerRegion devices each, regionRounds rounds, and per round
// uploadsPerRound synthetic task posteriors landing on each region — the
// raw stream the regions summarize upward, at most summaryComponents
// components per flush (the upload-byte reduction is roughly
// window/summary). Region 1's cloud partition covers rounds
// [partitionStart, partitionEnd); from regionCutStart its devices lose
// the region too.
const (
	regionCount       = 2
	devicesPerRegion  = 3
	regionRounds      = 9
	uploadsPerRound   = 6
	regionDim         = 4
	regionSamples     = 30
	summaryComponents = 4
	partitionStart    = 2
	regionCutStart    = 4
	partitionEnd      = 7
)

// regionsConfig picks a hierarchical edge → region → cloud scenario.
// Like the cluster scenario it runs the REAL tier in-process: real
// regional aggregators (store + admission + rebuild + sync), real
// listeners, real protocol both hops. The fault is a regional cloud
// partition: region 1's uplink and its devices' direct cloud links go
// dark mid-run, then — deeper into the outage — the devices lose their
// region too, walking the full degradation ladder
// fresh → regional → cached → local-only.
//
// The phase schedule (and the derived upload-skip and flush-barrier
// rounds) applies to the control run too — Partition only decides
// whether the links actually cut. That keeps the cloud's ingest stream
// identical across the pair, which is what makes the byte-identity
// acceptance check meaningful.
type regionsConfig struct {
	// Partition injects the fault; false runs the control with the same
	// schedule but healthy links.
	Partition bool
	// Gossip lets region 1 exchange component deltas with region 0
	// while the cloud is unreachable (partition runs only).
	Gossip bool
	// Seed drives the synthetic workload, training data, and every
	// summarization seed.
	Seed int64
}

// regionsResult reports one hierarchical scenario run.
type regionsResult struct {
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
	// cost; Reduction is their ratio.
	RawBytes  int64
	UpBytes   int64
	Reduction float64
	// GossipInjected counts peer components region 1 absorbed while the
	// cloud was unreachable.
	GossipInjected int

	// PriorBytes is the Prior.Encode bytes of the final cloud prior; a
	// partition run and its control must match byte for byte.
	PriorBytes []byte
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

// runRegions executes one hierarchical scenario: a cloud, regionCount
// regional aggregators serving devicesPerRegion devices each, a
// deterministic per-round upload stream each region summarizes upward
// at fixed flush barriers, and (when Partition is set) a mid-run cloud
// partition of region 1 that deepens into a full regional outage
// before healing. Two runs with the same config — one Partition, one
// control — must return byte-identical PriorBytes.
func runRegions(cfg regionsConfig) (*regionsResult, error) {
	logger := telemetry.Discard()
	// Priors live in model parameter space: logistic weights + bias.
	pdim := model.Logistic{Dim: regionDim}.NumParams()

	// The synthetic upload stream: deterministic in the seed, drawn up
	// front in (round, region, k) order so control and partition runs
	// feed the regions identical bytes.
	uploads := syntheticTasks(cfg.Seed+2, regionRounds*regionCount*uploadsPerRound, pdim)
	uploadBatch := func(round, r int) []dpprior.TaskPosterior {
		k := (round*regionCount + r) * uploadsPerRound
		return uploads[k : k+uploadsPerRound]
	}

	// The cloud, pre-warmed so round 0 devices fetch a real prior.
	seedTasks := syntheticTasks(cfg.Seed+3, 4, pdim)
	cloud, err := edge.NewCloudServer(seedTasks, dpprior.BuildOptions{Alpha: alpha, Seed: cfg.Seed + 1}, logger)
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

	regions := make([]*region.Region, regionCount)
	regionAddrs := make([]string, regionCount)
	defer func() {
		for _, r := range regions {
			if r != nil {
				r.Close()
			}
		}
	}()
	for i := 0; i < regionCount; i++ {
		rcfg := region.Config{
			Name:      fmt.Sprintf("region-%d", i),
			CloudAddr: cloudAddr,
			Build: dpprior.BuildOptions{
				Alpha:         alpha,
				MaxComponents: summaryComponents,
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
	uploaders := make([]*edge.MuxClient, regionCount)
	for i, addr := range regionAddrs {
		u, err := edge.Dial(addr, 2*time.Second)
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
	family, err := data.NewTaskFamily(dataRng, regionDim, 2, 4, 0.3)
	if err != nil {
		return nil, err
	}
	m := model.Logistic{Dim: regionDim}
	type simDevice struct {
		dev     *edge.Device
		primary edge.Cloud
		train   *data.Dataset
		test    *data.Dataset
	}
	devices := make([][]simDevice, regionCount)
	for i := 0; i < regionCount; i++ {
		devices[i] = make([]simDevice, devicesPerRegion)
		for j := 0; j < devicesPerRegion; j++ {
			task := family.SampleTask(dataRng, j%2)
			task.Flip = labelFlip
			d := &edge.Device{
				ID:      i*100 + j,
				Model:   m,
				Set:     dro.Set{Kind: dro.Wasserstein, Rho: 0.05},
				EMIters: 3,
			}
			cold := i == 1 && j == devicesPerRegion-1
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
				train:   task.Sample(dataRng, regionSamples),
				test:    task.Sample(dataRng, 300),
			}
		}
	}

	out := &regionsResult{LadderCounts: make(map[string]int)}
	seen := make(map[string]bool)
	var accSum float64
	var accN int
	var lastRoundFresh bool

	inPartition := func(round int) bool {
		return cfg.Partition && round >= partitionStart && round < partitionEnd
	}
	// Upload-skip schedule: while region 1's devices can't reach their
	// region, their uploads don't happen — in BOTH runs, so the regions'
	// flush windows stay comparable.
	uploadsSkipped := func(round, r int) bool {
		return r == 1 && round >= regionCutStart && round < partitionEnd
	}
	// Flush barriers sit strictly outside the partition window: the
	// region tier's sync invariant (DESIGN.md) is that a partition that
	// heals before the next barrier is invisible to the cloud.
	flushRound := func(round int) bool {
		return round == partitionStart-1 || round == regionRounds-1
	}

	for round := 0; round < regionRounds; round++ {
		cloudCut.Store(inPartition(round))
		regionCut.Store(cfg.Partition && round >= regionCutStart && round < partitionEnd)

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
		if round == regionRounds-1 {
			lastRoundFresh = roundFresh
		}

		for i := range regions {
			if uploadsSkipped(round, i) {
				continue
			}
			if _, _, err := uploaders[i].BatchReportTasks(uploadBatch(round, i)); err != nil {
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
		out.RawBytes += st.RawBytes
		out.UpBytes += st.UpBytes
	}
	if out.UpBytes > 0 {
		out.Reduction = float64(out.RawBytes) / float64(out.UpBytes)
	}

	cloud.WaitCaughtUp()
	final, _, err := cloud.Prior()
	if err != nil {
		return nil, fmt.Errorf("sim: final cloud prior: %w", err)
	}
	var buf bytes.Buffer
	if err := final.Encode(&buf); err != nil {
		return nil, err
	}
	out.PriorBytes = buf.Bytes()
	return out, nil
}
