package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// ledger is a set of benchmark runs on one commit and one host: what
// -collect writes, what -compare reads, and the format of
// bench/baseline/seed.json.
type ledger struct {
	Host    hostFacts                          `json:"host"`
	Seconds int                                `json:"seconds"`
	Runs    []ledgerRun                        `json:"runs"`
	Summary map[string]map[string]distribution `json:"summary"` // workload → metric → spread of the untraced runs
}

type hostFacts struct {
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Filesystem string `json:"store_filesystem"`
	Generators int    `json:"generators"`
}

type ledgerRun struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	resultLine
}

// distribution is the median and quartiles of one metric over a
// workload's runs.
type distribution struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Unit   string  `json:"unit"`
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the
// exclusive method), which is what the driver applies to the same runs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

func summarize(runs []ledgerRun) map[string]map[string]distribution {
	values := map[string]map[string][]float64{}
	units := map[string]string{}
	for _, r := range runs {
		if r.Trace {
			continue
		}
		if values[r.Workload] == nil {
			values[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			values[r.Workload][name] = append(values[r.Workload][name], m.Value)
			units[name] = m.Unit
		}
	}
	out := map[string]map[string]distribution{}
	for w, ms := range values {
		out[w] = map[string]distribution{}
		for name, xs := range ms {
			q1, q2, q3 := quartiles(xs)
			s := append([]float64(nil), xs...)
			sort.Float64s(s)
			out[w][name] = distribution{N: len(xs), Median: q2, Q1: q1, Q3: q3, Min: s[0], Max: s[len(s)-1], Unit: units[name]}
		}
	}
	return out
}

func hostInfo() hostFacts {
	h := hostFacts{NProc: runtime.NumCPU(), Go: runtime.Version(), Generators: defaultGens(), CPU: "unknown", Filesystem: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "model name") {
				if _, v, ok := strings.Cut(line, ":"); ok {
					h.CPU = strings.TrimSpace(v)
				}
				break
			}
		}
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(".", &st); err == nil {
		h.Filesystem = fmt.Sprintf("statfs type 0x%x", uint64(st.Type))
	}
	return h
}

// collectLedger runs every workload runs times, alternating seeds, each
// run a fresh process of this same binary (peak RSS and the telemetry
// registry are per-process), interleaving workloads so slow drift of
// the host spreads evenly.
func collectLedger(path string, runs int, seedList string, seconds int, traced bool, stdout io.Writer) error {
	seeds, err := parseSeeds(seedList)
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	lg := ledger{Host: hostInfo(), Seconds: seconds}
	one := func(w string, seed int64, trace int) error {
		cmd := exec.Command(self, "-workload", w, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s seed %d trace %d: %w", w, seed, trace, err)
		}
		var last string
		sc := bufio.NewScanner(&out)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			last = sc.Text()
		}
		r := ledgerRun{Workload: w, Seed: seed, Trace: trace == 1}
		if err := json.Unmarshal([]byte(last), &r.resultLine); err != nil {
			return fmt.Errorf("%s seed %d: result line: %w", w, seed, err)
		}
		lg.Runs = append(lg.Runs, r)
		fmt.Fprintf(stdout, "%-13s seed=%d trace=%d ok\n", w, seed, trace)
		return nil
	}
	for r := 0; r < runs; r++ {
		for _, w := range workloadNames() {
			if err := one(w, seeds[r%len(seeds)], 0); err != nil {
				return err
			}
		}
	}
	if traced {
		for _, w := range workloadNames() {
			if err := one(w, seeds[0], 1); err != nil {
				return err
			}
		}
	}
	lg.Summary = summarize(lg.Runs)
	b, err := json.MarshalIndent(lg, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readLedger(path string) (*ledger, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var lg ledger
	if err := json.Unmarshal(b, &lg); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &lg, nil
}

// failedShare is failed ÷ attempted over a ledger's untraced runs of w.
func failedShare(lg *ledger, w string) float64 {
	var failed, attempted int
	for _, r := range lg.Runs {
		if r.Workload == w && !r.Trace {
			failed += r.Failed
			attempted += r.Attempted
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// compareLedgers applies each end-to-end metric's bound per workload:
// one row per (workload, metric) with both medians and quartiles and
// the change as a ratio of the old median. A pair whose old runs spread
// wider than the bound is unresolved, not unchanged — unless every new
// run beats every old run. It returns an error (non-zero exit) on any
// regression or a higher failed share.
func compareLedgers(oldPath, newPath string, w io.Writer) error {
	oldL, err := readLedger(oldPath)
	if err != nil {
		return err
	}
	newL, err := readLedger(newPath)
	if err != nil {
		return err
	}
	oldS, newS := summarize(oldL.Runs), summarize(newL.Runs)
	var bad []string
	fmt.Fprintf(w, "%-13s %-16s %12s %25s %12s %25s %9s %7s  %s\n",
		"workload", "metric", "old median", "old [q1, q3]", "new median", "new [q1, q3]", "new/old", "bound", "verdict")
	for _, wl := range workloadNames() {
		for i := range endToEnd {
			d := &endToEnd[i]
			o, okO := oldS[wl][d.Name]
			n, okN := newS[wl][d.Name]
			if !okO || !okN {
				fmt.Fprintf(w, "%-13s %-16s missing from a ledger\n", wl, d.Name)
				bad = append(bad, wl+"/"+d.Name+" missing")
				continue
			}
			verdict := judge(d, o, n)
			if verdict == "REGRESSION" {
				bad = append(bad, wl+"/"+d.Name)
			}
			fmt.Fprintf(w, "%-13s %-16s %12.5g %25s %12.5g %25s %9.4f %6.0f%%  %s\n", wl, d.Name,
				o.Median, fmt.Sprintf("[%.5g, %.5g]", o.Q1, o.Q3), n.Median, fmt.Sprintf("[%.5g, %.5g]", n.Q1, n.Q3),
				n.Median/o.Median, 100*d.Bound, verdict)
		}
		of, nf := failedShare(oldL, wl), failedShare(newL, wl)
		verdict := "unchanged"
		if nf > of {
			verdict = "REGRESSION"
			bad = append(bad, wl+"/failed_share")
		}
		fmt.Fprintf(w, "%-13s %-16s %12.5g %25s %12.5g %25s %9s %7s  %s\n", wl, "failed_share", of, "", nf, "", "", "+0", verdict)
	}
	if len(bad) > 0 {
		return fmt.Errorf("%d regressions: %s", len(bad), strings.Join(bad, ", "))
	}
	return nil
}

// judge classifies one (workload, metric) pair.
func judge(d *metricDef, o, n distribution) string {
	worse := (n.Median - o.Median) / o.Median // positive = worse for a lower-is-better metric
	allBetter := n.Max < o.Min
	if d.Better == higher {
		worse = -worse
		allBetter = n.Min > o.Max
	}
	spread := (o.Q3 - o.Q1) / o.Median
	switch {
	case worse > d.Bound:
		return "REGRESSION"
	case allBetter:
		return "improved"
	case spread > d.Bound:
		return "unresolved"
	case -worse > spread:
		return "better median"
	default:
		return "unchanged"
	}
}
