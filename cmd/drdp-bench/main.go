// Command drdp-bench regenerates the evaluation suite: every table and
// figure in its jobs list, at full workload size (use -fast for the
// reduced smoke workload the Go benchmarks run). Systems invariants
// (bit-identical parallel fits, byte-identical priors after failover,
// partition heal and scrub repair) are tests in internal/core and
// internal/sim, not experiments.
//
// Usage:
//
//	drdp-bench                     # run everything, print to stdout
//	drdp-bench -only table1,fig3   # a subset; -h lists every id
//	drdp-bench -csv out/           # also write CSV files per experiment
//	drdp-bench -json out/          # also write BENCH_<id>.json per experiment
//	drdp-bench -reps 5 -seed 7     # more repetitions
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/drdp/drdp/internal/experiment"
	"github.com/drdp/drdp/internal/telemetry"
)

// job names one experiment; exactly one of table/fig is set.
type job struct {
	id    string
	table func(experiment.RunConfig) (*experiment.Table, error)
	fig   func(experiment.RunConfig) (*experiment.Series, error)
}

var jobs = []job{
	{id: "table1", table: experiment.Table1SampleEfficiency},
	{id: "table2", table: experiment.Table2ShiftRobustness},
	{id: "table3", table: experiment.Table3Digits},
	{id: "table4", table: experiment.Table4SystemsCost},
	{id: "fig1", fig: experiment.Figure1RadiusSweep},
	{id: "fig2", fig: experiment.Figure2AlphaSweep},
	{id: "fig3", fig: experiment.Figure3Convergence},
	{id: "fig4", fig: experiment.Figure4CloudTasks},
	{id: "fig5", fig: experiment.Figure5SetAblation},
	{id: "fig6", fig: experiment.Figure6MultiDevice},
	{id: "table5", table: experiment.Table5PriorFitAblation},
	{id: "table6", table: experiment.Table6StochasticMStep},
	{id: "fig7", fig: experiment.Figure7FedAvgComparison},
	{id: "fig8", fig: experiment.Figure8OnlineLearning},
	{id: "fig9", fig: experiment.Figure9CertificateValidity},
	{id: "table7", table: experiment.Table7Calibration},
	{id: "table8", table: experiment.Table8SolverAblation},
	{id: "table9", table: experiment.Table9Deployment},
	{id: "fig11", fig: experiment.Figure11DriftTracking},
	{id: "fig12", fig: experiment.Figure12GroundMetric},
	{id: "table10", table: experiment.Table10Imbalance},
	{id: "table11", table: experiment.Table11AlphaSelection},
	{id: "table14", table: experiment.Table14PoisonedEdges},
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "drdp-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		only    = flag.String("only", "", "comma-separated experiment ids ("+jobIDs()+"); empty = all")
		csvDir  = flag.String("csv", "", "directory for CSV output (created if missing)")
		jsonDir = flag.String("json", "", "directory for machine-readable BENCH_<id>.json output (created if missing)")
		reps    = flag.Int("reps", 3, "repetitions (seeds) per configuration")
		seed    = flag.Int64("seed", 1, "base seed")
		fast    = flag.Bool("fast", false, "reduced workload (what `go test -bench` uses)")
	)
	flag.Parse()

	cfg := experiment.RunConfig{Reps: *reps, Seed: *seed, Fast: *fast}

	selected := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			id = strings.TrimSpace(id)
			if !knownID(id) {
				return fmt.Errorf("unknown experiment id %q", id)
			}
			selected[id] = true
		}
	}

	for _, dir := range []string{*csvDir, *jsonDir} {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return fmt.Errorf("create output dir: %w", err)
			}
		}
	}

	for _, j := range jobs {
		if len(selected) > 0 && !selected[j.id] {
			continue
		}
		before := telemetry.Snapshot()
		start := time.Now()
		tab, err := runJob(j, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", j.id, err)
		}
		elapsed := time.Since(start)
		if err := tab.Render(os.Stdout); err != nil {
			return fmt.Errorf("%s: render: %w", j.id, err)
		}
		fmt.Printf("[%s done in %v]\n\n", j.id, elapsed.Round(time.Millisecond))
		if *csvDir != "" {
			if err := writeCSV(tab, filepath.Join(*csvDir, j.id+".csv")); err != nil {
				return fmt.Errorf("%s: %w", j.id, err)
			}
		}
		if *jsonDir != "" {
			rec := benchRecord(j.id, tab, cfg, elapsed, before, telemetry.Snapshot())
			if err := writeJSON(rec, filepath.Join(*jsonDir, "BENCH_"+j.id+".json")); err != nil {
				return fmt.Errorf("%s: %w", j.id, err)
			}
		}
	}
	return nil
}

// benchTelemetry is the training-cost footprint of one experiment,
// computed as registry deltas over the job's run.
type benchTelemetry struct {
	Fits          float64 `json:"fits"`
	EMIterations  float64 `json:"em_iterations"`
	MStepIters    float64 `json:"mstep_iterations"`
	FitSecondsP50 float64 `json:"fit_seconds_p50"`
	FitSecondsP99 float64 `json:"fit_seconds_p99"`
}

// record is one BENCH_<id>.json document: the rendered result plus
// enough run metadata to make the numbers reproducible.
type record struct {
	ID          string         `json:"id"`
	Title       string         `json:"title"`
	Reps        int            `json:"reps"`
	Seed        int64          `json:"seed"`
	Fast        bool           `json:"fast"`
	WallSeconds float64        `json:"wall_seconds"`
	Columns     []string       `json:"columns"`
	Rows        [][]string     `json:"rows"`
	Telemetry   benchTelemetry `json:"telemetry"`
}

func benchRecord(id string, tab *experiment.Table, cfg experiment.RunConfig,
	elapsed time.Duration, before, after telemetry.Values) record {
	hb, _ := after.Histogram("drdp_core_fit_seconds")
	ha, _ := before.Histogram("drdp_core_fit_seconds")
	fit := hb.Delta(ha)
	// JSON cannot carry NaN; an experiment that never fit a model
	// reports zero quantiles.
	q := func(p float64) float64 {
		v := fit.Quantile(p)
		if math.IsNaN(v) {
			return 0
		}
		return v
	}
	return record{
		ID:          id,
		Title:       tab.Title,
		Reps:        cfg.Reps,
		Seed:        cfg.Seed,
		Fast:        cfg.Fast,
		WallSeconds: elapsed.Seconds(),
		Columns:     tab.Columns,
		Rows:        tab.Rows,
		Telemetry: benchTelemetry{
			Fits:          after.CounterDelta(before, "drdp_core_fits_total"),
			EMIterations:  after.CounterDelta(before, "drdp_core_em_iterations_total"),
			MStepIters:    after.CounterDelta(before, "drdp_core_mstep_iterations_total"),
			FitSecondsP50: q(0.5),
			FitSecondsP99: q(0.99),
		},
	}
}

func writeJSON(rec record, path string) error {
	buf, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return fmt.Errorf("marshal %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}

func runJob(j job, cfg experiment.RunConfig) (*experiment.Table, error) {
	if j.table != nil {
		return j.table(cfg)
	}
	ser, err := j.fig(cfg)
	if err != nil {
		return nil, err
	}
	return ser.Table(), nil
}

func writeCSV(tab *experiment.Table, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create %s: %w", path, err)
	}
	werr := tab.WriteCSV(f)
	cerr := f.Close()
	if werr != nil {
		return fmt.Errorf("write csv: %w", werr)
	}
	if cerr != nil {
		return fmt.Errorf("close csv: %w", cerr)
	}
	return nil
}

// jobIDs lists every experiment id in run order, for the -only usage.
func jobIDs() string {
	ids := make([]string, len(jobs))
	for i, j := range jobs {
		ids[i] = j.id
	}
	return strings.Join(ids, ", ")
}

func knownID(id string) bool {
	for _, j := range jobs {
		if j.id == id {
			return true
		}
	}
	return false
}
