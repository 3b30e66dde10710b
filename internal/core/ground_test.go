package core

import (
	"math/rand"
	"testing"

	"github.com/drdp/drdp/internal/data"
	"github.com/drdp/drdp/internal/dro"
	"github.com/drdp/drdp/internal/mat"
	"github.com/drdp/drdp/internal/model"
)

func TestGroundMetricValidation(t *testing.T) {
	// Non-ℓ2 grounds need a BlockNormer model.
	if _, err := New(model.Softmax{Dim: 3, Classes: 3},
		WithGroundMetric(dro.GroundLInf)); err == nil {
		t.Error("softmax accepted for linf ground")
	}
	// ℓ2 ground works for any model.
	if _, err := New(model.Softmax{Dim: 3, Classes: 3},
		WithGroundMetric(dro.GroundL2)); err != nil {
		t.Errorf("l2 ground rejected: %v", err)
	}
	// Proximal M-step is ℓ2-only.
	if _, err := New(model.Logistic{Dim: 3},
		WithGroundMetric(dro.GroundLInf), WithProximalMStep()); err == nil {
		t.Error("proximal + linf ground accepted")
	}
}

func TestLInfGroundDefendsAgainstSignAttack(t *testing.T) {
	// Train one model per ground metric at matched "attack strength"
	// (ρ·E[margin drop]); evaluate under the ℓ∞ sign attack. The
	// ℓ∞-ground model (ℓ1 penalty) must hold up better than plain ERM.
	rng := rand.New(rand.NewSource(250))
	task := data.LinearTask{W: mat.Vec{3, -2, 1.5, 0, 0, 0}, Flip: 0.03}
	train := task.Sample(rng, 300)
	test := task.Sample(rng, 2000)
	m := model.Logistic{Dim: 6}

	fit := func(opts ...Option) mat.Vec {
		t.Helper()
		l, err := New(m, opts...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := l.Fit(train.X, train.Y)
		if err != nil {
			t.Fatal(err)
		}
		return res.Params
	}
	erm := fit()
	linf := fit(
		WithUncertaintySet(dro.Set{Kind: dro.Wasserstein, Rho: 0.08}),
		WithGroundMetric(dro.GroundLInf))

	// Sign attack with the TRUE weights as the scorer (transferable
	// attack, fair to both models) at ℓ∞ budget 0.3.
	attacked, err := data.AdversarialShiftLInf(test, task.W, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	accERM := model.Accuracy(m, erm, attacked.X, attacked.Y)
	accLInf := model.Accuracy(m, linf, attacked.X, attacked.Y)
	if accLInf <= accERM {
		t.Errorf("linf-ground model (%v) should beat ERM (%v) under the sign attack",
			accLInf, accERM)
	}
	// The ℓ1 penalty should shrink the irrelevant coordinates harder:
	// weights 3..5 are zero in the true task.
	var ermTail, linfTail float64
	for j := 3; j < 6; j++ {
		ermTail += abs(erm[j])
		linfTail += abs(linf[j])
	}
	if linfTail >= ermTail {
		t.Errorf("l1 penalty did not sparsify the irrelevant weights: %v vs %v",
			linfTail, ermTail)
	}
}

func TestGroundMetricCertificateUsesDualNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(251))
	task := data.LinearTask{W: mat.Vec{1, 1}, Flip: 0.05}
	train := task.Sample(rng, 60)
	m := model.Logistic{Dim: 2}
	params := mat.Vec{2, -1, 0} // ‖w‖₂=√5≈2.24, ‖w‖₁=3, ‖w‖∞=2

	cert := func(g dro.GroundNorm) float64 {
		l, err := New(m,
			WithUncertaintySet(dro.Set{Kind: dro.Wasserstein, Rho: 1}),
			WithGroundMetric(g))
		if err != nil {
			t.Fatal(err)
		}
		return certificate(l, params, train.X, train.Y)
	}
	c2 := cert(dro.GroundL2)
	c1 := cert(dro.GroundL1)
	cInf := cert(dro.GroundLInf)
	// Certificates differ exactly by the dual-norm term: mean + ρ·dual.
	// dual(l1 ground)=‖w‖∞=2 < dual(l2)=2.236 < dual(linf ground)=‖w‖₁=3.
	if !(c1 < c2 && c2 < cInf) {
		t.Errorf("certificates not ordered by dual norm: l1=%v l2=%v linf=%v", c1, c2, cInf)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
