// Command drdp-sim runs the discrete-event fleet deployment simulator:
// a configurable mix of pioneer (data-rich, reporting) and late
// (data-poor) edge devices sharing one cloud over a chosen link profile.
//
// Usage:
//
//	drdp-sim                                   # defaults: 4+8 over wifi
//	drdp-sim -link 3g -pioneers 6 -late 12 -rebuild-every 4
//
// With -cluster the command instead runs the replicated-shard-tier
// scenario: a REAL in-process cluster (live listeners, log streaming,
// coordinator probes) fed rounds of task uploads, with an optional
// leader kill before one round:
//
//	drdp-sim -cluster -shards 3 -replicas 2
//	drdp-sim -cluster -shards 3 -replicas 2 -kill-shard 0 -kill-round 3
//
// Adding -trace-audit samples every trace during a cluster run and
// prints each round's merged span tree (edge spans plus every node's
// serve spans) afterwards; -trace-out FILE also writes the raw
// flight-recorder snapshot as JSON (readable with drdp-trace).
//
// With -disk-chaos the command runs the same scenario on a real
// 3-replica shard on disk, a fault-free control run and then bit rot on
// one follower's disk plus a slow-but-alive leader before the middle
// round, defended by the background scrubber (byte-identical repair
// over the wire), the coordinator's gray-failure demotion, and the
// client's hedged reads (-hedge sets the hedge delay):
//
//	drdp-sim -disk-chaos
//	drdp-sim -disk-chaos -hedge 20ms -rounds 12 -tasks-per-round 4
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"sort"
	"text/tabwriter"
	"time"

	"github.com/drdp/drdp/internal/data"
	"github.com/drdp/drdp/internal/dro"
	"github.com/drdp/drdp/internal/edge"
	"github.com/drdp/drdp/internal/model"
	"github.com/drdp/drdp/internal/sim"
	"github.com/drdp/drdp/internal/stat"
	"github.com/drdp/drdp/internal/telemetry"
	"github.com/drdp/drdp/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "drdp-sim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		linkName     = flag.String("link", "wifi", "uplink profile: wifi|4g|3g")
		pioneers     = flag.Int("pioneers", 4, "data-rich reporting devices")
		late         = flag.Int("late", 8, "data-poor late devices")
		pioneerN     = flag.Int("pioneer-n", 200, "samples per pioneer")
		lateN        = flag.Int("late-n", 12, "samples per late device")
		dim          = flag.Int("dim", 8, "feature dimensionality")
		clusters     = flag.Int("clusters", 2, "task-family clusters")
		rebuildEvery = flag.Int("rebuild-every", 1, "cloud rebuild batch size")
		rho          = flag.Float64("rho", 0.05, "Wasserstein radius")
		seed         = flag.Int64("seed", 1, "random seed")
		metrics      = flag.Bool("metrics", false, "print a telemetry summary (fits, EM iterations, fit-time quantiles) after the run")

		poisonFrac = flag.Float64("poison-frac", 0, "fraction of pioneers uploading poisoned posteriors")
		poisonKind = flag.String("poison-kind", "adversarial", "poison payload: nan|adversarial")
		admission  = flag.Bool("admission", false, "cloud validates uploads and quarantines statistical outliers")
		trimFrac   = flag.Float64("trim-frac", 0, "max fraction of stored tasks one quarantine round may trim (0 = default)")

		clusterMode = flag.Bool("cluster", false, "run the replicated-shard-tier scenario instead of the fleet simulator")
		shards      = flag.Int("shards", 3, "cluster: shard count")
		replicas    = flag.Int("replicas", 2, "cluster: replicas per shard (including the leader)")
		rounds      = flag.Int("rounds", 6, "cluster: upload rounds")
		perRound    = flag.Int("tasks-per-round", 4, "cluster: uploads per round")
		killShard   = flag.Int("kill-shard", -1, "cluster: kill this shard's leader mid-round (-1 = no fault)")
		killRound   = flag.Int("kill-round", 2, "cluster: round before which the kill fires (in [0, rounds))")
		traceAudit  = flag.Bool("trace-audit", false, "cluster: sample every trace and print per-round span trees after the run")
		traceOut    = flag.String("trace-out", "", "cluster: write the flight-recorder snapshot as JSON to this file (implies -trace-audit)")

		diskChaos = flag.Bool("disk-chaos", false, "run the disk-fault chaos scenario (bit rot + gray leader on a 3-replica shard) instead of the fleet simulator")
		hedge     = flag.Duration("hedge", 20*time.Millisecond, "disk-chaos: client hedged-read delay (0 = no hedging)")
	)
	flag.Parse()

	if *diskChaos {
		return runDiskChaos(*rounds, *perRound, *dim, *hedge, *seed)
	}
	if *clusterMode {
		cfg := sim.ClusterConfig{
			Shards:        *shards,
			Replicas:      *replicas,
			Rounds:        *rounds,
			TasksPerRound: *perRound,
			Dim:           *dim,
			Audit:         *traceAudit || *traceOut != "",
			Seed:          *seed,
			Logger:        simLogger(),
		}
		if *killShard >= 0 {
			cfg.Faults = []sim.Fault{{Round: *killRound, Shard: *killShard, Kind: sim.KillLeader}}
		}
		return runCluster(cfg, *traceOut)
	}

	var link edge.LinkProfile
	switch *linkName {
	case "wifi":
		link = edge.LinkWiFi
	case "4g":
		link = edge.Link4G
	case "3g":
		link = edge.Link3G
	default:
		return fmt.Errorf("unknown link %q (want wifi|4g|3g)", *linkName)
	}

	rng := stat.NewRNG(*seed)
	family, err := data.NewTaskFamily(rng, *dim, *clusters, 5, 0.2)
	if err != nil {
		return err
	}
	var poison sim.PoisonKind
	switch *poisonKind {
	case "nan":
		poison = sim.PoisonNaN
	case "adversarial":
		poison = sim.PoisonAdversarial
	default:
		return fmt.Errorf("unknown poison kind %q (want nan|adversarial)", *poisonKind)
	}

	cfg := sim.Config{
		Family:       family,
		Model:        model.Logistic{Dim: *dim},
		Set:          dro.Set{Kind: dro.Wasserstein, Rho: *rho},
		RebuildEvery: *rebuildEvery,
		Admission:    *admission,
		TrimFrac:     *trimFrac,
		Seed:         *seed,
	}
	poisonCount := int(*poisonFrac*float64(*pioneers) + 0.5)
	var specs []sim.DeviceSpec
	for i := 0; i < *pioneers; i++ {
		spec := sim.DeviceSpec{
			ID: i, ArriveAt: time.Duration(i) * 10 * time.Second,
			Link: link, Samples: *pioneerN, Report: true, Cluster: i % *clusters,
		}
		if ((i+1)*poisonCount) / *pioneers > (i*poisonCount) / *pioneers {
			spec.Poison = poison
		}
		specs = append(specs, spec)
	}
	for i := 0; i < *late; i++ {
		specs = append(specs, sim.DeviceSpec{
			ID: *pioneers + i, ArriveAt: time.Duration(100+i*5) * time.Second,
			Link: link, Samples: *lateN, Cluster: i % *clusters,
		})
	}

	res, err := sim.Run(cfg, specs)
	if err != nil {
		return err
	}

	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "device\tarrive\tprior ver\tcomps\taccuracy\tdownlink\ttrain\tTTM")
	for _, d := range res.Devices {
		fmt.Fprintf(w, "%d\t%v\t%d\t%d\t%.3f\t%v\t%v\t%v\n",
			d.ID, d.ArriveAt, d.FetchedVersion, d.PriorComponents, d.Accuracy,
			d.DownlinkTime.Round(time.Millisecond),
			d.TrainTime.Round(time.Millisecond),
			d.TimeToModel.Round(time.Millisecond))
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("\ncloud: %d rebuilds, final prior version %d; traffic %0.1f KB down / %0.1f KB up\n",
		res.Rebuilds, res.FinalVersion,
		float64(res.BytesDown)/1024, float64(res.BytesUp)/1024)
	if *admission || res.RejectedUploads > 0 || res.QuarantinedUploads > 0 {
		fmt.Printf("admission: %d uploads rejected, %d tasks quarantined\n",
			res.RejectedUploads, res.QuarantinedUploads)
	}

	if *metrics {
		snap := telemetry.Snapshot()
		printSimTelemetry(snap)
	}
	return nil
}

func printSimTelemetry(snap telemetry.Values) {
	fmt.Printf("telemetry: %.0f fits, %.0f EM iterations, %.0f M-step iterations\n",
		snap.Counter("drdp_core_fits_total"),
		snap.Counter("drdp_core_em_iterations_total"),
		snap.Counter("drdp_core_mstep_iterations_total"))
	if h, ok := snap.Histogram("drdp_core_fit_seconds"); ok && h.Count > 0 {
		fmt.Printf("fit time: p50 %.1fms, p99 %.1fms (wall-clock; the simulated clock uses the compute model)\n",
			h.Quantile(0.5)*1e3, h.Quantile(0.99)*1e3)
	}
}

func simLogger() *slog.Logger {
	return telemetry.NewLogger(slog.LevelInfo).With("component", "drdp-sim")
}

// runCluster drives the replicated-shard-tier scenario and prints its
// throughput, fault timings, and recovery verdict. With audit on, it
// also prints every round's merged span tree (plus any pinned failover
// trace) and optionally writes the raw snapshot as JSON.
func runCluster(cfg sim.ClusterConfig, traceOut string) error {
	res, err := sim.RunCluster(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("cluster: %d shards × %d replicas, %d tasks over %d rounds in %v (%.1f rounds/s)\n",
		res.Shards, res.Replicas, res.Tasks, res.Rounds,
		res.Elapsed.Round(time.Millisecond), res.RoundsPerSec)
	printFaults(res)
	fmt.Printf("final: shard-map v%d, per-shard versions %v, merged prior %d components (%d bytes)\n",
		res.MapVersion, res.FinalVersions, res.MergedComponents, len(res.PriorBytes))
	if res.Traces != nil {
		printRoundAudit(res.Traces)
		if traceOut != "" {
			data, err := json.MarshalIndent(res.Traces, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(traceOut, data, 0o644); err != nil {
				return fmt.Errorf("write trace snapshot: %w", err)
			}
			fmt.Printf("trace snapshot: %d recent + %d notable traces written to %s\n",
				len(res.Traces.Recent), len(res.Traces.Notable), traceOut)
		}
	}
	return nil
}

// printFaults prints one line per injected fault.
func printFaults(res *sim.ClusterResult) {
	for _, f := range res.Faults {
		switch f.Kind {
		case sim.KillLeader:
			fmt.Printf("fault: killed leader %s; failover %v, read-path recovery %v\n",
				f.Node, f.FailoverTime.Round(time.Millisecond), f.RecoveryTime.Round(time.Millisecond))
		case sim.SlowLeader:
			fmt.Printf("fault: gray leader %s demoted in %v\n", f.Node, f.FailoverTime.Round(time.Millisecond))
		case sim.RotFollower:
			fmt.Printf("fault: bit rot on %s before round %d\n", f.Node, f.Round)
		}
	}
}

// runDiskChaos drives the disk-fault chaos scenario twice — a
// fault-free control run, then bit rot on one follower plus a gray
// leader over the same seed — and prints what each defense bought,
// ending with the byte-identity verdict the scenario is built around.
func runDiskChaos(rounds, perRound, dim int, hedge time.Duration, seed int64) error {
	run := func(faults []sim.Fault) (*sim.ClusterResult, error) {
		dir, err := os.MkdirTemp("", "drdp-disk-chaos-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		return sim.RunCluster(sim.ClusterConfig{
			Shards:        1,
			Replicas:      3,
			Rounds:        rounds,
			TasksPerRound: perRound,
			Dim:           dim,
			Faults:        faults,
			Dir:           dir,
			HedgeDelay:    hedge,
			Seed:          seed,
			Logger:        simLogger(),
		})
	}
	control, err := run(nil)
	if err != nil {
		return fmt.Errorf("control run: %w", err)
	}
	chaos, err := run([]sim.Fault{{Round: rounds / 2, Kind: sim.RotFollower}, {Round: rounds / 2, Kind: sim.SlowLeader}})
	if err != nil {
		return fmt.Errorf("chaos run: %w", err)
	}
	fmt.Printf("disk chaos: %d replicas, %d tasks over %d rounds in %v (control %v)\n",
		chaos.Replicas, chaos.Tasks, chaos.Rounds,
		chaos.Elapsed.Round(time.Millisecond), control.Elapsed.Round(time.Millisecond))
	printFaults(chaos)
	fmt.Printf("scrub: %d bytes rotted, %.0f frames repaired over the wire; follower logs byte-identical to leader: %v\n",
		chaos.RotFlips, chaos.ScrubRepairedFrames, chaos.LogsIdentical)
	fmt.Printf("hedged reads: %.0f fired, %.0f won; read p99 %v (control %v), round p99 %v (control %v)\n",
		chaos.HedgeFired, chaos.HedgeWon,
		chaos.ReadP99.Round(time.Millisecond), control.ReadP99.Round(time.Millisecond),
		chaos.RoundP99.Round(time.Millisecond), control.RoundP99.Round(time.Millisecond))
	verdict := "byte-identical"
	if !bytes.Equal(chaos.PriorBytes, control.PriorBytes) {
		verdict = "DIVERGED"
	}
	fmt.Printf("final: prior version %d, %d components; chaos vs control prior: %s\n",
		chaos.FinalVersions[0], chaos.MergedComponents, verdict)
	if verdict != "byte-identical" || !chaos.LogsIdentical {
		return fmt.Errorf("disk chaos run failed its acceptance criteria")
	}
	return nil
}

// printRoundAudit merges each trace's fragments (the edge client's spans
// plus every node's joined serve spans) and prints the round trees in
// start order, then any non-round notable traces (failovers, errors).
func printRoundAudit(snap *trace.Snapshot) {
	byTrace := make(map[string][]*trace.TraceDump)
	var ids []string
	for _, td := range append(append([]*trace.TraceDump(nil), snap.Recent...), snap.Notable...) {
		if _, ok := byTrace[td.Trace]; !ok {
			ids = append(ids, td.Trace)
		}
		byTrace[td.Trace] = append(byTrace[td.Trace], td)
	}
	merged := make([]*trace.TraceDump, 0, len(ids))
	for _, id := range ids {
		merged = append(merged, trace.MergeDumps(byTrace[id]))
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].Start.Before(merged[j].Start) })
	fmt.Println("\nround audit:")
	for _, td := range merged {
		if td.Name == "cluster-round" || td.Notable {
			fmt.Println(td.Tree())
		}
	}
	st := snap.Stats
	fmt.Printf("flight recorder: %d traces completed (%d notable), %d spans dropped\n",
		st.Completed, st.Notable, st.SpansDropped)
}
