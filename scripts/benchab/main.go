// Command benchab runs paired A/B comparisons of the repository's
// benchmark. It extracts two revisions into checkouts under the
// git-ignored .bench_build/ab/, runs BENCHMARK.json's command on both
// for each workload in alternating pairs (A,B then B,A, …; seeds 11 and
// 12 in turn; BENCHMARK.json's run_seconds), and prints, per workload
// and end-to-end metric, each side's median and interquartile range,
// how many pairs B won, and a verdict:
//
//   - better: B won at least nine tenths of the pairs and the medians
//     differ, in B's favour, by more than A's interquartile range;
//   - worse: B's median is worse than A's by more than the metric's
//     BENCHMARK.json bound;
//   - unresolved: neither, and either side's interquartile range is
//     wider than the bound, so the runs cannot tell;
//   - within bound: neither, and the runs are tight enough to tell.
//
// Run it from the repository root:
//
//	go run ./scripts/benchab -base HEAD~1 -pairs 10 -workloads fit_heavy
//
// With -head unset, side B is the working tree (tracked and untracked,
// not ignored, files), so a change can be measured before it is
// committed; -base HEAD -head HEAD is an A/A run of the last commit
// against itself. A run that exits non-zero or reports correct:false is
// recorded as a failed run (side, pair, seed and the "bench:" lines of
// its log are printed), its pair is left out of the medians, and the
// next pair runs. The exit status is 1 when any verdict is worse, B
// fails a larger share of operations, or B has more failed runs than A.
// Each run's JSON result line is appended to .bench_build/ab/runs.jsonl
// and its output kept in .bench_build/ab/logs/.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// seeds are the workload seeds pairs alternate between.
var seeds = []int{11, 12}

type spec struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
}

type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// result is the last line a benchmark run prints.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	base := flag.String("base", "", "revision for side A (required)")
	head := flag.String("head", "", "revision for side B; empty means the working tree")
	pairs := flag.Int("pairs", 10, "A/B pairs per workload")
	workloads := flag.String("workloads", "", "comma-separated workloads; empty means every workload in BENCHMARK.json")
	flag.Parse()
	worse, err := run(*base, *head, *pairs, *workloads, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchab:", err)
		os.Exit(2)
	}
	if worse {
		os.Exit(1)
	}
}

func run(base, head string, pairs int, workloads string, out io.Writer) (worse bool, err error) {
	if base == "" {
		return false, errors.New("-base is required")
	}
	if pairs < 1 {
		return false, fmt.Errorf("-pairs %d must be at least 1", pairs)
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return false, fmt.Errorf("run from the repository root: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return false, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	names := make([]string, 0, len(sp.Workloads))
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	if workloads != "" {
		names = strings.Split(workloads, ",")
	}

	root := filepath.Join(".bench_build", "ab")
	sides := [2]string{filepath.Join(root, "a"), filepath.Join(root, "b")}
	if err := extract(base, sides[0]); err != nil {
		return false, fmt.Errorf("side A (%s): %w", base, err)
	}
	if head == "" {
		err = copyWorkTree(sides[1])
	} else {
		err = extract(head, sides[1])
	}
	if err != nil {
		return false, fmt.Errorf("side B: %w", err)
	}
	headName := head
	if headName == "" {
		headName = "working tree"
	}
	fmt.Fprintf(out, "A = %s, B = %s; %d pairs per workload, seeds %v, %d s runs\n",
		base, headName, pairs, seeds, sp.RunSeconds)
	if err := os.MkdirAll(filepath.Join(root, "logs"), 0o755); err != nil {
		return false, err
	}
	ledger, err := os.OpenFile(filepath.Join(root, "runs.jsonl"), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return false, err
	}
	defer ledger.Close()

	for _, w := range names {
		w := w
		runSide := func(s, pair, seed int) (result, string, string, error) {
			logPath := filepath.Join(root, "logs", fmt.Sprintf("%s-%c-%d.log", w, 'a'+s, pair))
			return runOnce(sp, sides[s], w, seed, logPath)
		}
		worseW, err := compare(sp, w, pairs, runSide, ledger, out)
		if err != nil {
			return false, err
		}
		worse = worse || worseW
	}
	return worse, nil
}

// compare runs pairs A/B pairs of workload w through runSide (side 0 is
// A, 1 is B), appends each good run's result line to ledger, and prints
// the failed runs and the verdict per end-to-end metric. It reports
// whether any verdict is worse.
func compare(sp spec, w string, pairs int, runSide func(side, pair, seed int) (res result, line, failure string, err error), ledger, out io.Writer) (worse bool, err error) {
	// runs[side][metric] holds one value per complete pair, pairs aligned.
	runs := [2]map[string][]float64{{}, {}}
	var attempted, failed, failedRuns [2]int
	complete := 0
	for i := 0; i < pairs; i++ {
		seed := seeds[i%len(seeds)]
		order := []int{0, 1}
		if i%2 == 1 {
			order = []int{1, 0}
		}
		var got [2]result
		ok := true
		for _, s := range order {
			res, line, failure, err := runSide(s, i, seed)
			if err != nil {
				return false, err
			}
			if failure != "" {
				failedRuns[s]++
				fmt.Fprintf(out, "%s: side %c, pair %d, seed %d failed: %s\n", w, 'A'+s, i, seed, failure)
				ok = false
				break
			}
			fmt.Fprintf(ledger, "{\"side\":%q,\"workload\":%q,\"pair\":%d,\"seed\":%d,\"result\":%s}\n",
				string(rune('A'+s)), w, i, seed, line)
			got[s] = res
		}
		if !ok {
			continue
		}
		complete++
		for s, res := range got {
			attempted[s] += res.Attempted
			failed[s] += res.Failed
			for _, m := range sp.EndToEnd {
				runs[s][m.Name] = append(runs[s][m.Name], res.Metrics[m.Name].Value)
			}
		}
	}
	fa, fb := share(failed[0], attempted[0]), share(failed[1], attempted[1])
	fmt.Fprintf(out, "\n%s (failed share A %.4f, B %.4f; failed runs A %d, B %d)\n", w, fa, fb, failedRuns[0], failedRuns[1])
	if fb > fa {
		worse = true
		fmt.Fprintf(out, "  worse: B fails a larger share of operations\n")
	}
	if failedRuns[1] > failedRuns[0] {
		worse = true
		fmt.Fprintf(out, "  worse: B has more failed runs than A\n")
	}
	if complete == 0 {
		fmt.Fprintf(out, "  no complete pair to compare\n")
		return worse, nil
	}
	fmt.Fprintf(out, "  %-16s %-30s %-30s %-6s %s\n", "metric", "A median [q1, q3]", "B median [q1, q3]", "B wins", "verdict")
	for _, m := range sp.EndToEnd {
		v := judge(m, runs[0][m.Name], runs[1][m.Name])
		worse = worse || v.verdict == "worse"
		fmt.Fprintf(out, "  %-16s %-30s %-30s %2d/%-3d %s (%+.1f %%, bound %.0f %%)\n", m.Name+" "+m.Unit,
			quart(runs[0][m.Name]), quart(runs[1][m.Name]), v.wins, complete, v.verdict, 100*v.change, 100*m.Bound)
	}
	return worse, nil
}

// runOnce runs the benchmark command in dir and parses its last line.
// A run that exits non-zero, prints no result or reports correct:false
// is a failed run: failure describes it, followed by the "bench:" lines
// of its output, and err stays nil. err reports only what stops the
// comparison itself.
func runOnce(sp spec, dir, workload string, seed int, logPath string) (res result, line, failure string, err error) {
	args := append(append([]string{}, sp.Command[1:]...),
		"--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(sp.RunSeconds), "--trace", "0")
	cmd := exec.Command(sp.Command[0], args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	runErr := cmd.Run()
	output := append(stdout.Bytes(), stderr.Bytes()...)
	if err := os.WriteFile(logPath, output, 0o644); err != nil {
		return result{}, "", "", err
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	line = lines[len(lines)-1]
	switch {
	case runErr != nil:
		failure = runErr.Error()
	case json.Unmarshal([]byte(line), &res) != nil:
		failure = "last line is not a result"
	case !res.Correct:
		failure = "correctness checks failed"
	default:
		return res, line, "", nil
	}
	return result{}, "", failure + " (output in " + logPath + ")" + benchLines(output), nil
}

// benchLines returns the lines of a run's output that begin "bench:",
// the harness's failure reports, each on a line of its own.
func benchLines(output []byte) string {
	var b strings.Builder
	for _, l := range strings.Split(string(output), "\n") {
		if strings.HasPrefix(l, "bench:") {
			b.WriteString("\n  " + l)
		}
	}
	return b.String()
}

type verdict struct {
	wins    int
	change  float64 // relative change of B's median from A's
	verdict string
}

// judge applies the pair rule and the metric's bound to A's and B's
// runs, which are aligned by pair.
func judge(m metric, a, b []float64) verdict {
	sign := 1.0 // +1 when lower is better
	if m.Better == "higher" {
		sign = -1
	}
	var v verdict
	for i := range a {
		if sign*(b[i]-a[i]) < 0 {
			v.wins++
		}
	}
	ma, q1a, q3a := summary(a)
	mb, q1b, q3b := summary(b)
	if ma != 0 {
		v.change = (mb - ma) / math.Abs(ma)
	}
	switch {
	case 10*v.wins >= 9*len(a) && sign*(mb-ma) < 0 && math.Abs(mb-ma) > q3a-q1a:
		v.verdict = "better"
	case sign*v.change > m.Bound:
		v.verdict = "worse"
	case ma != 0 && ((q3a-q1a)/math.Abs(ma) > m.Bound || (q3b-q1b)/math.Abs(ma) > m.Bound):
		v.verdict = "unresolved"
	default:
		v.verdict = "within bound"
	}
	return v
}

// summary returns the median and quartiles of x, interpolating linearly
// between order statistics.
func summary(x []float64) (med, q1, q3 float64) {
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(pos)
		return s[lo] + (pos-float64(lo))*(s[int(math.Ceil(pos))]-s[lo])
	}
	return at(0.5), at(0.25), at(0.75)
}

func quart(x []float64) string {
	med, q1, q3 := summary(x)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", med, q1, q3)
}

func share(failed, attempted int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// prepare empties dir except for its .bench_build, so the Go build
// cache a checkout's benchmark keeps there survives a refresh.
func prepare(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.Name() == ".bench_build" {
			continue
		}
		if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

// extract writes the tree of rev into dir via git archive.
func extract(rev, dir string) error {
	if err := prepare(dir); err != nil {
		return err
	}
	out, err := exec.Command("sh", "-c", `git archive --format=tar "$1" | tar -x -C "$2"`, "sh", rev, dir).CombinedOutput()
	if err != nil {
		return fmt.Errorf("git archive %s: %v: %s", rev, err, strings.TrimSpace(string(out)))
	}
	return nil
}

func writeFile(path string, mode os.FileMode, r io.Reader) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, mode)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// copyWorkTree copies the working tree's tracked and untracked, not
// ignored, files into dir; tracked files deleted from the tree are
// skipped.
func copyWorkTree(dir string) error {
	if err := prepare(dir); err != nil {
		return err
	}
	list, err := exec.Command("git", "ls-files", "-z", "--cached", "--others", "--exclude-standard").Output()
	if err != nil {
		return fmt.Errorf("git ls-files: %w", err)
	}
	for _, name := range strings.Split(strings.TrimRight(string(list), "\x00"), "\x00") {
		info, err := os.Lstat(name)
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return err
		}
		if !info.Mode().IsRegular() {
			continue
		}
		src, err := os.Open(name)
		if err != nil {
			return err
		}
		err = writeFile(filepath.Join(dir, name), info.Mode().Perm(), src)
		src.Close()
		if err != nil {
			return err
		}
	}
	return nil
}
