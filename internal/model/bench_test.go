package model

import (
	"math/rand"
	"testing"

	"github.com/drdp/drdp/internal/mat"
	"github.com/drdp/drdp/internal/parallel"
)

func benchSetup(b *testing.B, m Model, kind string, n int) (mat.Vec, *mat.Dense, []float64, []float64) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	x, y := randData(rng, n, m.InputDim(), kind, 10)
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / float64(n)
	}
	return randParams(rng, m.NumParams()), x, y, w
}

func BenchmarkLogisticLosses200(b *testing.B) {
	m := Logistic{Dim: 20}
	params, x, y, _ := benchSetup(b, m, "binary", 200)
	out := make([]float64, 200)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Losses(params, x, y, out)
	}
}

func BenchmarkLogisticGrad200(b *testing.B) {
	m := Logistic{Dim: 20}
	params, x, y, w := benchSetup(b, m, "binary", 200)
	grad := make(mat.Vec, m.NumParams())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mat.Fill(grad, 0)
		m.WeightedGrad(params, x, y, w, grad)
	}
}

func BenchmarkSoftmaxGradDigits(b *testing.B) {
	m := Softmax{Dim: 64, Classes: 10}
	params, x, y, w := benchSetup(b, m, "class", 100)
	grad := make(mat.Vec, m.NumParams())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mat.Fill(grad, 0)
		m.WeightedGrad(params, x, y, w, grad)
	}
}

func BenchmarkMLPGrad(b *testing.B) {
	m := MLP{Dim: 64, Hidden: 16, Classes: 10}
	params, x, y, w := benchSetup(b, m, "class", 100)
	grad := make(mat.Vec, m.NumParams())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mat.Fill(grad, 0)
		m.WeightedGrad(params, x, y, w, grad)
	}
}

// BenchmarkLogisticBatchSweep is one M-step evaluation at fit_heavy's
// shape (n = 1000, dim 16) on a memo-keeping Batch: the loss sweep, then
// the weighted gradient that reads its memo. One worker, so the number
// is the kernel's and not the scheduler's.
func BenchmarkLogisticBatchSweep(b *testing.B) {
	const n = 1000
	m := Logistic{Dim: 16}
	params, x, y, w := benchSetup(b, m, "binary", n)
	batch := NewBatch(m, x, y)
	pool := parallel.New(1)
	out := make([]float64, n)
	grad := make(mat.Vec, m.NumParams())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		batch.Losses(pool, params, out)
		mat.Fill(grad, 0)
		batch.WeightedGrad(pool, params, w, grad)
	}
}
