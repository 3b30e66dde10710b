package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/dro"
	"github.com/drdp/drdp/internal/em"
	"github.com/drdp/drdp/internal/mat"
	"github.com/drdp/drdp/internal/model"
	"github.com/drdp/drdp/internal/opt"
)

// linearTask draws a binary classification task: true weights w*, labels
// by sign(w*ᵀx + noise-flip).
func linearTask(rng *rand.Rand, n, d int, wstar mat.Vec, flip float64) (*mat.Dense, []float64) {
	x := mat.NewDense(n, d)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		if mat.Dot(wstar, row) >= 0 {
			y[i] = 1
		} else {
			y[i] = -1
		}
		if rng.Float64() < flip {
			y[i] = -y[i]
		}
	}
	return x, y
}

// priorAround builds a 1-component DP prior centered at mu.
func priorAround(t *testing.T, mu mat.Vec, scale float64, weight float64) *dpprior.Compiled {
	t.Helper()
	sigma := mat.Eye(len(mu))
	sigma.ScaleBy(scale)
	p := &dpprior.Prior{
		Alpha: 1,
		Components: []dpprior.Component{
			{Weight: weight, Mu: mu, Sigma: sigma, Count: 5},
		},
		BaseWeight: 1 - weight,
		BaseSigma:  10,
		Dim:        len(mu),
	}
	c, err := dpprior.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("nil model accepted")
	}
	m := model.Logistic{Dim: 2}
	if _, err := New(m, WithUncertaintySet(dro.Set{Rho: -1})); err == nil {
		t.Error("invalid set accepted")
	}
	if _, err := New(m, WithPrior(nil)); err == nil {
		t.Error("nil prior accepted")
	}
	for _, tau := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := New(m, WithPriorWeight(tau)); err == nil {
			t.Errorf("prior weight %v accepted", tau)
		}
	}
	for _, rho := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := New(m, WithUncertaintySet(dro.Set{Kind: dro.Wasserstein, Rho: rho})); err == nil {
			t.Errorf("radius %v accepted", rho)
		}
	}
	if _, err := New(m, WithEMIters(0, 0)); err == nil {
		t.Error("zero EM iters accepted")
	}
	if _, err := New(m, WithInit(mat.Vec{1})); err == nil {
		t.Error("wrong init length accepted")
	}
	bad := priorAround(t, mat.Vec{1, 2, 3, 4}, 1, 0.8) // dim 4 != 3 params
	if _, err := New(m, WithPrior(bad)); err == nil {
		t.Error("prior dim mismatch accepted")
	}
}

func TestFitValidation(t *testing.T) {
	m := model.Logistic{Dim: 2}
	l, err := New(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Fit(mat.NewDense(0, 2), nil); err == nil {
		t.Error("empty training set accepted")
	}
	x := mat.FromRows([][]float64{{1, 2}})
	if _, err := l.Fit(x, []float64{1, -1}); err == nil {
		t.Error("label count mismatch accepted")
	}
	if _, err := l.Fit(mat.FromRows([][]float64{{1}}), []float64{1}); err == nil {
		t.Error("feature dim mismatch accepted")
	}
}

func TestFitERMSeparatesLinearData(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	wstar := mat.Vec{2, -1, 0.5}
	x, y := linearTask(rng, 200, 3, wstar, 0)
	l, err := New(model.Logistic{Dim: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := l.Fit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if acc := model.Accuracy(l.model, res.Params, x, y); acc < 0.97 {
		t.Errorf("ERM training accuracy %v", acc)
	}
	if res.EmpiricalLoss > 0.3 {
		t.Errorf("ERM loss %v", res.EmpiricalLoss)
	}
}

func TestWassersteinShrinksParams(t *testing.T) {
	// The dual-norm penalty must shrink the weight norm vs plain ERM.
	rng := rand.New(rand.NewSource(71))
	wstar := mat.Vec{2, -1}
	x, y := linearTask(rng, 100, 2, wstar, 0.05)
	fit := func(rho float64) mat.Vec {
		l, err := New(model.Logistic{Dim: 2},
			WithUncertaintySet(dro.Set{Kind: dro.Wasserstein, Rho: rho}))
		if err != nil {
			t.Fatal(err)
		}
		res, err := l.Fit(x, y)
		if err != nil {
			t.Fatal(err)
		}
		return res.Params
	}
	erm := fit(0)
	robust := fit(0.5)
	ermNorm := mat.Norm2(erm[:2])
	robNorm := mat.Norm2(robust[:2])
	if robNorm >= ermNorm {
		t.Errorf("Wasserstein penalty did not shrink weights: %v vs %v", robNorm, ermNorm)
	}
}

// certificate is the worst-case expected loss of params over l's
// uncertainty ball centered at the empirical distribution of (x, y),
// computed apart from Fit.
func certificate(l *Learner, params mat.Vec, x *mat.Dense, y []float64) float64 {
	losses := model.ParLosses(l.pool, l.model, params, x, y, nil)
	v, _ := l.set.WorstCasePool(l.pool, losses, l.lipschitz(params))
	return v
}

func TestRobustLossIsCertificate(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	x, y := linearTask(rng, 50, 2, mat.Vec{1, 1}, 0.1)
	for _, kind := range []dro.Kind{dro.Wasserstein, dro.KL, dro.Chi2} {
		l, err := New(model.Logistic{Dim: 2},
			WithUncertaintySet(dro.Set{Kind: kind, Rho: 0.2}))
		if err != nil {
			t.Fatal(err)
		}
		res, err := l.Fit(x, y)
		if err != nil {
			t.Fatal(err)
		}
		if res.RobustLoss < res.EmpiricalLoss-1e-9 {
			t.Errorf("%v: robust loss %v below empirical %v", kind, res.RobustLoss, res.EmpiricalLoss)
		}
		cert := certificate(l, res.Params, x, y)
		if math.Abs(cert-res.RobustLoss) > 1e-9 {
			t.Errorf("%v: Certificate %v != RobustLoss %v", kind, cert, res.RobustLoss)
		}
	}
}

func TestPriorPullsSolutionWithFewSamples(t *testing.T) {
	// With n=5 noisy samples and a confident prior at w*, the prior-guided
	// fit must land closer to w* than the prior-free fit.
	rng := rand.New(rand.NewSource(73))
	wstar := mat.Vec{3, -2}
	target := append(mat.CloneVec(wstar), 0) // true params incl. bias
	x, y := linearTask(rng, 5, 2, wstar, 0.2)

	plain, err := New(model.Logistic{Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	plainRes, err := plain.Fit(x, y)
	if err != nil {
		t.Fatal(err)
	}

	prior := priorAround(t, target, 0.05, 0.9)
	guided, err := New(model.Logistic{Dim: 2}, WithPrior(prior), WithPriorWeight(1.0))
	if err != nil {
		t.Fatal(err)
	}
	guidedRes, err := guided.Fit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	dPlain := mat.Dist2(plainRes.Params, target)
	dGuided := mat.Dist2(guidedRes.Params, target)
	if dGuided >= dPlain {
		t.Errorf("prior did not help: guided dist %v vs plain %v", dGuided, dPlain)
	}
	if guidedRes.Responsibilities == nil {
		t.Error("missing responsibilities with a prior")
	}
}

func TestEMTraceMonotone(t *testing.T) {
	// The core MM guarantee: the objective trace never increases, across
	// uncertainty sets and across prior structures.
	rng := rand.New(rand.NewSource(74))
	wstar := mat.Vec{1, 1, -1}
	x, y := linearTask(rng, 30, 3, wstar, 0.1)
	// Two-component prior: one near w*, one decoy far away.
	sigma := mat.Eye(4)
	sigma.ScaleBy(0.2)
	p := &dpprior.Prior{
		Alpha: 1,
		Components: []dpprior.Component{
			{Weight: 0.4, Mu: mat.Vec{1, 1, -1, 0}, Sigma: sigma.Clone(), Count: 3},
			{Weight: 0.4, Mu: mat.Vec{-5, 5, 5, 1}, Sigma: sigma.Clone(), Count: 3},
		},
		BaseWeight: 0.2,
		BaseSigma:  10,
		Dim:        4,
	}
	prior, err := dpprior.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []dro.Kind{dro.None, dro.Wasserstein, dro.KL, dro.Chi2} {
		l, err := New(model.Logistic{Dim: 3},
			WithPrior(prior),
			WithUncertaintySet(dro.Set{Kind: kind, Rho: 0.1}),
			WithEMIters(15, 1e-9))
		if err != nil {
			t.Fatal(err)
		}
		res, err := l.Fit(x, y)
		if err != nil {
			t.Fatal(err)
		}
		if err := em.CheckMonotone(res.Trace, 1e-6); err != nil {
			t.Errorf("%v: %v (trace %v)", kind, err, res.Trace)
		}
		if len(res.Trace) < 2 {
			t.Errorf("%v: trace too short: %v", kind, res.Trace)
		}
	}
}

func TestResponsibilitiesPickCorrectComponent(t *testing.T) {
	// With abundant data agreeing with component 0, the EM should assign
	// nearly all responsibility to it.
	rng := rand.New(rand.NewSource(75))
	wstar := mat.Vec{2, -2}
	x, y := linearTask(rng, 300, 2, wstar, 0.02)
	sigma := mat.Eye(3)
	sigma.ScaleBy(0.3)
	p := &dpprior.Prior{
		Alpha: 1,
		Components: []dpprior.Component{
			{Weight: 0.45, Mu: mat.Vec{2, -2, 0}, Sigma: sigma.Clone(), Count: 1},
			{Weight: 0.45, Mu: mat.Vec{-2, 2, 0}, Sigma: sigma.Clone(), Count: 1},
		},
		BaseWeight: 0.1,
		BaseSigma:  10,
		Dim:        3,
	}
	prior, err := dpprior.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	l, err := New(model.Logistic{Dim: 2}, WithPrior(prior), WithEMIters(20, 1e-8))
	if err != nil {
		t.Fatal(err)
	}
	res, err := l.Fit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if res.Responsibilities[0] < 0.9 {
		t.Errorf("component 0 responsibility %v, want > 0.9 (all %v)",
			res.Responsibilities[0], res.Responsibilities)
	}
}

func TestPriorWashesOutWithAbundantData(t *testing.T) {
	// Regression test for the τ-scaling bug: with n=400 samples and the
	// default τ=1/n, a misleading prior must NOT pin the solution — the
	// fit has to approach the data optimum, not the prior mean.
	rng := rand.New(rand.NewSource(78))
	wstar := mat.Vec{3, -2}
	x, y := linearTask(rng, 400, 2, wstar, 0.05)
	misleading := mat.Vec{-3, 2, 0} // opposite direction
	prior := priorAround(t, misleading, 0.05, 0.9)
	l, err := New(model.Logistic{Dim: 2}, WithPrior(prior), WithEMIters(20, 1e-9))
	if err != nil {
		t.Fatal(err)
	}
	res, err := l.Fit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if acc := model.Accuracy(l.model, res.Params, x, y); acc < 0.9 {
		t.Errorf("misleading prior pinned the fit: train accuracy %v", acc)
	}
	if mat.Dist2(res.Params, misleading) < 1 {
		t.Errorf("params %v stuck at the misleading prior mean", res.Params)
	}
}

// TestMStepGradientConsistency finite-difference-checks the full M-step
// objective (robust loss + τ·surrogate) through a probe of the fitted
// objective: a small perturbation of the solution must not decrease the
// objective (first-order optimality of the inner solver).
func TestMStepGradientConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	wstar := mat.Vec{1, 2}
	x, y := linearTask(rng, 60, 2, wstar, 0.1)
	prior := priorAround(t, mat.Vec{1, 2, 0}, 0.5, 0.8)
	l, err := New(model.Logistic{Dim: 2}, WithPrior(prior),
		WithUncertaintySet(dro.Set{Kind: dro.Wasserstein, Rho: 0.05}),
		WithEMIters(30, 1e-10),
		WithMStepOptions(opt.Options{MaxIter: 500, Tol: 1e-9}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := l.Fit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	// Probe the true objective around the solution: J(θ*) should be a
	// local minimum up to solver tolerance.
	obj := func(theta mat.Vec) float64 {
		losses := l.model.Losses(theta, x, y, nil)
		v, _ := l.set.WorstCase(losses, l.model.Lipschitz(theta))
		return v + (1.0/float64(len(y)))*(-prior.LogDensity(theta))
	}
	base := obj(res.Params)
	for trial := 0; trial < 20; trial++ {
		probe := mat.CloneVec(res.Params)
		for i := range probe {
			probe[i] += 0.05 * rng.NormFloat64()
		}
		if obj(probe) < base-1e-3 {
			t.Fatalf("objective not minimized: J(probe)=%v < J(θ*)=%v", obj(probe), base)
		}
	}
}

func TestMultiStartVetoesMisleadingComponent(t *testing.T) {
	// A prior whose heavy component is adversarial: a single EM run from
	// the heaviest mean gets trapped; the default multi-start must escape
	// via the base start and classify well.
	rng := rand.New(rand.NewSource(178))
	wstar := mat.Vec{3, -2}
	x, y := linearTask(rng, 40, 2, wstar, 0.05)
	test, testY := linearTask(rng, 1000, 2, wstar, 0)
	sigma := mat.Eye(3)
	sigma.ScaleBy(0.02)
	p := &dpprior.Prior{
		Alpha: 1,
		Components: []dpprior.Component{
			{Weight: 0.8, Mu: mat.Vec{-3, 2, 0}, Sigma: sigma, Count: 4}, // adversarial
		},
		BaseWeight: 0.2,
		BaseSigma:  10,
		Dim:        3,
	}
	prior, err := dpprior.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := New(model.Logistic{Dim: 2}, WithPrior(prior), WithEMIters(15, 1e-8))
	if err != nil {
		t.Fatal(err)
	}
	resMulti, err := multi.Fit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if acc := model.Accuracy(multi.model, resMulti.Params, test, testY); acc < 0.85 {
		t.Errorf("multi-start accuracy %v: trapped by adversarial component", acc)
	}

	single, err := New(model.Logistic{Dim: 2}, WithPrior(prior), WithEMIters(15, 1e-8),
		WithInit(p.Components[0].Mu))
	if err != nil {
		t.Fatal(err)
	}
	resSingle, err := single.Fit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	// Multi-start can never end with a worse objective than single-start
	// (its start set includes more basins and both descend).
	if resMulti.Objective > resSingle.Objective+1e-6 {
		t.Errorf("multi-start objective %v worse than single-start %v",
			resMulti.Objective, resSingle.Objective)
	}
}

func TestWithInitRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	x, y := linearTask(rng, 20, 2, mat.Vec{1, 0}, 0)
	init := mat.Vec{0.5, 0.5, 0}
	l, err := New(model.Logistic{Dim: 2}, WithInit(init),
		WithMStepOptions(optZeroIter()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := l.Fit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	// With a 1-iteration inner solve the result stays near the init,
	// proving init was used (zeros would stay at zero).
	if mat.Norm2(res.Params) == 0 {
		t.Error("init ignored")
	}
	// And the passed-in slice must not have been mutated.
	if init[0] != 0.5 || init[2] != 0 {
		t.Error("WithInit mutated caller slice")
	}
}

func TestSoftmaxMulticlassFit(t *testing.T) {
	// 3 well-separated Gaussian blobs; softmax + DRDP should fit well.
	rng := rand.New(rand.NewSource(77))
	centers := []mat.Vec{{-4, 0}, {4, 0}, {0, 6}}
	n := 150
	x := mat.NewDense(n, 2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		c := i % 3
		y[i] = float64(c)
		row := x.Row(i)
		for j := range row {
			row[j] = centers[c][j] + 0.7*rng.NormFloat64()
		}
	}
	l, err := New(model.Softmax{Dim: 2, Classes: 3},
		WithUncertaintySet(dro.Set{Kind: dro.Wasserstein, Rho: 0.01}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := l.Fit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if acc := model.Accuracy(l.model, res.Params, x, y); acc < 0.95 {
		t.Errorf("multiclass accuracy %v", acc)
	}
}

// optZeroIter returns M-step options that stop almost immediately.
func optZeroIter() opt.Options {
	return opt.Options{MaxIter: 1, Tol: 1e-12}
}
