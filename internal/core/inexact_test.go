package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/dro"
	"github.com/drdp/drdp/internal/em"
	"github.com/drdp/drdp/internal/mat"
	"github.com/drdp/drdp/internal/model"
)

// qualityDim is the feature dimension of the quality grid (fit_heavy's).
const qualityDim = 16

// qualitySets are the grid's uncertainty balls, all at ρ = 0.05.
var qualitySets = []dro.Set{
	{Kind: dro.Wasserstein, Rho: 0.05},
	{Kind: dro.KL, Rho: 0.05},
	{Kind: dro.Chi2, Rho: 0.05},
}

// qualityTask draws an n-sample task at qualityDim and a 3-component
// prior: one component near the task's weights, two elsewhere.
func qualityTask(seed int64, n int) (*mat.Dense, []float64, *dpprior.Compiled) {
	rng := rand.New(rand.NewSource(seed))
	p := qualityDim + 1
	wstar := make(mat.Vec, qualityDim)
	for i := range wstar {
		wstar[i] = rng.NormFloat64()
	}
	x, y := linearTask(rng, n, qualityDim, wstar, 0.08)
	comps := make([]dpprior.Component, 3)
	for c := range comps {
		mu := make(mat.Vec, p)
		for i := range mu {
			mu[i] = 1.5 * rng.NormFloat64()
		}
		if c == 0 {
			for i, w := range wstar {
				mu[i] = w + 0.3*rng.NormFloat64()
			}
		}
		sigma := mat.Eye(p)
		sigma.ScaleBy(0.2 + rng.Float64())
		comps[c] = dpprior.Component{Weight: []float64{0.45, 0.25, 0.15}[c], Mu: mu, Sigma: sigma, Count: float64(5 - c)}
	}
	prior, err := dpprior.Compile(&dpprior.Prior{
		Alpha: 1, Components: comps, BaseWeight: 0.15, BaseSigma: 5, Dim: p,
	})
	if err != nil {
		panic(err)
	}
	return x, y, prior
}

// qualityFit fits one grid case at parallelism 2 with forcing η.
func qualityFit(t *testing.T, x *mat.Dense, y []float64, set dro.Set, prior *dpprior.Compiled, eta float64) *Result {
	t.Helper()
	opts := []Option{WithUncertaintySet(set), WithParallelism(2)}
	if prior != nil {
		opts = append(opts, WithPrior(prior))
	}
	l, err := New(model.Logistic{Dim: qualityDim}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	l.forcing = eta
	res, err := l.Fit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

var qualityNs = []int{40, 150, 1000}

const qualitySeeds = 10

// TestInexactMStepQuality: the warm, inexact prior M-steps end where
// M-steps solved to Tol do. Over a seeded grid of sets, sample sizes and
// priors, each fit's final objective is within 1e-6·(1+|obj|) of the same
// fit with η = 0, and its objective trace descends.
func TestInexactMStepQuality(t *testing.T) {
	var worstObj, worstParam float64
	for _, set := range qualitySets {
		for _, n := range qualityNs {
			for s := int64(0); s < qualitySeeds; s++ {
				x, y, prior := qualityTask(4700+100*s+int64(n), n)
				label := fmt.Sprintf("%s/n%d/seed%d", set.Kind, n, s)
				got := qualityFit(t, x, y, set, prior, mstepForcing)
				exact := qualityFit(t, x, y, set, prior, 0)
				gap := math.Abs(got.Objective-exact.Objective) / (1 + math.Abs(exact.Objective))
				if gap > 1e-6 {
					t.Errorf("%s: objective %.12g, with M-steps solved to Tol %.12g (relative gap %.3g)",
						label, got.Objective, exact.Objective, gap)
				}
				if err := em.CheckMonotone(got.Trace, 1e-9); err != nil {
					t.Errorf("%s: %v", label, err)
				}
				worstObj = max(worstObj, gap)
				worstParam = max(worstParam, mat.Dist2(got.Params, exact.Params)/(1+mat.Norm2(exact.Params)))
			}
		}
	}
	t.Logf("%d fit pairs: worst relative objective gap %.3g, worst relative parameter distance %.3g",
		len(qualitySets)*len(qualityNs)*qualitySeeds, worstObj, worstParam)
}

// noPriorDigest is the SHA-256 of goldenLine over the no-prior fits of
// TestNoPriorFitUnchanged. It was captured before the prior M-steps
// became warm and inexact, and recaptured, unchanged by them, when the
// logistic loss moved to the one-exp kernel (TestKernelMatchesTwoExpOracle
// bounds what that moved).
const noPriorDigest = "9b4909331484ffd203be2d7c7fb339e4ec508e2dca2e068d43b71b89ebb62e57"

// TestNoPriorFitUnchanged: a fit without a prior is one M-step solved
// cold to Tol, so the forcing rule and the carried memory leave its bits
// alone, whatever η is.
func TestNoPriorFitUnchanged(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("pinned bits are amd64's; FMA fusion on %s changes low bits", runtime.GOARCH)
	}
	h := sha256.New()
	for _, set := range qualitySets {
		for _, n := range qualityNs {
			x, y, _ := qualityTask(4700+int64(n), n)
			label := fmt.Sprintf("%s/n%d", set.Kind, n)
			line := goldenLine(label, qualityFit(t, x, y, set, nil, mstepForcing))
			if exact := goldenLine(label, qualityFit(t, x, y, set, nil, 0)); line != exact {
				t.Errorf("%s: η changed a fit without a prior:\n got  %s\n want %s", label, line, exact)
			}
			fmt.Fprintln(h, line)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != noPriorDigest {
		t.Errorf("no-prior fit bits changed: digest %s, want %s", got, noPriorDigest)
	}
}
