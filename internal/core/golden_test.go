package core

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/dro"
	"github.com/drdp/drdp/internal/mat"
	"github.com/drdp/drdp/internal/model"
	"github.com/drdp/drdp/internal/opt"
)

// goldenPath holds one line per goldenCases entry: the bit patterns of
// every float a fit returns. The default-solver lines were recaptured
// when the prior M-steps became warm (the L-BFGS memory carried across
// EM iterations) and inexact (the forcing rule). The KL and χ² lines of
// both solvers were recaptured when the logistic loss moved to the
// one-exp kernel, whose low bits differ from log1p(exp(−m)); the
// Wasserstein lines did not move. TestKernelMatchesTwoExpOracle bounds
// that move against the old kernel. Recapture them only in a change
// meant to alter fit results.
const goldenPath = "testdata/fit_golden.txt"

// goldenTask draws the n-sample task of the golden grid and a
// 3-component prior, so default multi-start runs four EM starts.
func goldenTask(n int) (*mat.Dense, []float64, *dpprior.Compiled) {
	rng := rand.New(rand.NewSource(int64(9000 + n)))
	x, y := linearTask(rng, n, 4, mat.Vec{1.5, -2, 0.5, 1}, 0.08)
	p := &dpprior.Prior{
		Alpha: 1,
		Components: []dpprior.Component{
			{Weight: 0.45, Mu: mat.Vec{1.4, -1.9, 0.4, 0.9, 0}, Sigma: mat.Eye(5), Count: 5},
			{Weight: 0.25, Mu: mat.Vec{-1, 1, -1, 1, 0.2}, Sigma: mat.Eye(5), Count: 3},
			{Weight: 0.15, Mu: mat.Vec{0.5, 0.5, 2, -1, -0.3}, Sigma: mat.Eye(5), Count: 2},
		},
		BaseWeight: 0.15,
		BaseSigma:  5,
		Dim:        5,
	}
	c, err := dpprior.Compile(p)
	if err != nil {
		panic(err)
	}
	return x, y, c
}

// batchSolvers are the full-batch M-step solvers; nil opts is the
// default L-BFGS.
var batchSolvers = []struct {
	name string
	opts []Option
}{
	{"default", nil},
	{"proximal", []Option{WithProximalMStep()}},
}

// robustSets are the three uncertainty-ball geometries.
var robustSets = []dro.Set{
	{Kind: dro.Wasserstein, Rho: 0.05},
	{Kind: dro.KL, Rho: 0.1},
	{Kind: dro.Chi2, Rho: 0.1},
}

type goldenCase struct {
	name string
	n    int
	opts []Option
}

// goldenCases is the grid batchSolvers × robustSets × parallelism {1, 2}
// × n {40, 150, 1000}, each with default multi-start. The M-step is
// capped at 30 iterations so the 36 fits take seconds.
func goldenCases() []goldenCase {
	var cases []goldenCase
	for _, s := range batchSolvers {
		for _, set := range robustSets {
			for _, par := range []int{1, 2} {
				for _, n := range []int{40, 150, 1000} {
					opts := append([]Option{
						WithUncertaintySet(set),
						WithEMIters(4, 1e-9),
						WithMStepOptions(opt.Options{MaxIter: 30, Tol: 1e-6}),
						WithParallelism(par),
					}, s.opts...)
					cases = append(cases, goldenCase{
						name: fmt.Sprintf("%s/%s/p%d/n%d", s.name, set.Kind, par, n),
						n:    n,
						opts: opts,
					})
				}
			}
		}
	}
	return cases
}

// goldenLine renders every float of a fit result as hex bit patterns.
func goldenLine(name string, r *Result) string {
	vec := func(v []float64) string {
		parts := make([]string, len(v))
		for i, f := range v {
			parts[i] = strconv.FormatUint(math.Float64bits(f), 16)
		}
		return strings.Join(parts, ",")
	}
	return fmt.Sprintf("%s params=%s objective=%s trace=%s robust=%s empirical=%s resp=%s",
		name, vec(r.Params), vec([]float64{r.Objective}), vec(r.Trace),
		vec([]float64{r.RobustLoss}), vec([]float64{r.EmpiricalLoss}), vec(r.Responsibilities))
}

// fitGolden runs one grid case and renders its result.
func fitGolden(t *testing.T, c goldenCase) string {
	t.Helper()
	x, y, prior := goldenTask(c.n)
	l, err := New(model.Logistic{Dim: 4}, append([]Option{WithPrior(prior)}, c.opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := l.Fit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	return goldenLine(c.name, res)
}

// TestFitGolden pins the bits of 36 fits spanning every batch M-step
// solver, uncertainty set, parallelism and chunk regime. A change that
// only removes redundant work must leave every line unchanged.
func TestFitGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden bits are amd64's; FMA fusion on %s changes low bits", runtime.GOARCH)
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, _, _ := strings.Cut(line, " ")
		want[name] = line
	}

	cases := goldenCases()
	if len(want) != len(cases) {
		t.Fatalf("%s has %d entries, the grid has %d", goldenPath, len(want), len(cases))
	}
	for _, c := range cases {
		w, ok := want[c.name]
		if !ok {
			t.Errorf("%s: no entry in %s", c.name, goldenPath)
			continue
		}
		got := fitGolden(t, c)
		if got == w {
			continue
		}
		gotFields, wantFields := strings.Fields(got), strings.Fields(w)
		for i := range min(len(gotFields), len(wantFields)) {
			if gotFields[i] != wantFields[i] {
				t.Errorf("%s: bits differ:\n got  %s\n want %s", c.name, gotFields[i], wantFields[i])
				break
			}
		}
	}
}
