// Command bench is the repository's benchmark: five closed-loop
// workloads that run the real stack in-process over loopback TCP
// through the drdp facade, with end-to-end metrics (tracing off) and a
// per-layer ledger measured from outside the program (tracing on).
//
//	go run ./bench --workload edge_round --seed 1 --seconds 12 --trace 0
//	go run ./bench --workload edge_round --seed 1 --seconds 12 --trace 1
//	go run ./bench -collect out.json -runs 5 -seeds 11,12
//	go run ./bench -compare old.json new.json
//
// See bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

func main() {
	// The wire preference is part of each workload's definition (strict
	// binary); an inherited DRDP_WIRE must not change what is measured.
	os.Unsetenv("DRDP_WIRE")
	if err := realMain(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func realMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Int("seconds", 12, "length of the timed section")
	trace := fs.Int("trace", 0, "1 = traced run (per-layer metrics), 0 = end-to-end metrics")
	compare := fs.Bool("compare", false, "compare two ledgers: -compare old.json new.json")
	collect := fs.String("collect", "", "run every workload -runs times and write a ledger to this file")
	runs := fs.Int("runs", 5, "with -collect: runs per workload")
	seeds := fs.String("seeds", "11,12", "with -collect: seeds to alternate between")
	traced := fs.Bool("traced", false, "with -collect: also make one traced run per workload")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare wants two ledger files, got %d arguments", fs.NArg())
		}
		return compareLedgers(fs.Arg(0), fs.Arg(1), stdout)
	case *collect != "":
		return collectLedger(*collect, *runs, *seeds, *seconds, *traced, stdout)
	case *workload == "":
		return fmt.Errorf("no -workload given (have %s)", strings.Join(workloadNames(), ", "))
	case *seconds < 1:
		return fmt.Errorf("-seconds %d must be at least 1", *seconds)
	case *trace != 0 && *trace != 1:
		return fmt.Errorf("-trace %d must be 0 or 1", *trace)
	}
	// Everything a run writes stays under the checkout: store
	// directories in a per-process scratch directory removed at exit,
	// the trace next to the harness.
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	res, err := run(config{
		workload: *workload, seed: *seed, dur: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		workDir: work, outDir: filepath.Join("bench", "out"),
	})
	if err != nil {
		return err
	}
	return emit(stdout, res)
}

// metricOut is one metric in the result line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// emit prints the run: a readable header and one line per metric, then
// the JSON result as the last line. A run whose correctness checks
// failed prints the failures and no metric at all.
func emit(w io.Writer, res *result) error {
	if len(res.failures) > 0 {
		return fmt.Errorf("%s: %d correctness checks failed:\n  %s", res.cfg.workload, len(res.failures), strings.Join(res.failures, "\n  "))
	}
	defs := endToEnd
	if res.cfg.trace {
		defs = perLayer
	}
	fmt.Fprintf(w, "workload=%s seed=%d seconds=%g trace=%t generators=%d inputs_sha256=%s\n",
		res.cfg.workload, res.cfg.seed, res.cfg.dur.Seconds(), res.cfg.trace, res.cfg.gens, res.inputsSHA)
	fmt.Fprintf(w, "prepare_s=%.3f wall_s=%.3f ops=%d failed=%d op_latency_samples=%d\n",
		res.prepare.Seconds(), res.wall.Seconds(), res.attempted, res.failed, res.opSamples)
	if res.tracePath != "" {
		fmt.Fprintf(w, "trace=%s\n", res.tracePath)
	}
	line := resultLine{Correct: true, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricOut{}}
	for i := range defs {
		d := &defs[i]
		v, ok := res.metrics[d.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", res.cfg.workload, d.Name)
		}
		note := ""
		if !d.appliesTo(res.cfg.workload) {
			v, note = 0, "  (n/a on this workload)"
		}
		fmt.Fprintf(w, "%-32s %16.6g %s%s\n", d.Name, v, d.Unit, note)
		line.Metrics[d.Name] = metricOut{Value: v, Unit: d.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// parseSeeds reads a comma-separated seed list.
func parseSeeds(s string) ([]int64, error) {
	var out []int64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("seed %q: %w", f, err)
		}
		out = append(out, v)
	}
	return out, nil
}
