package core

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/drdp/drdp/internal/dpprior"
	"github.com/drdp/drdp/internal/dro"
	"github.com/drdp/drdp/internal/mat"
	"github.com/drdp/drdp/internal/model"
	"github.com/drdp/drdp/internal/parallel"
)

// benchTask builds a gradient-dominated fit: n large enough that the
// per-iteration cost is the chunked loss/gradient sweeps, not the solver
// bookkeeping.
func benchTask(n, d int) (*mat.Dense, []float64, *dpprior.Compiled, mat.Vec) {
	rng := rand.New(rand.NewSource(123))
	wstar := make(mat.Vec, d)
	for i := range wstar {
		wstar[i] = rng.NormFloat64()
	}
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
	}
	p := d + 1 // logistic bias
	sigma := mat.Eye(p)
	mu := make(mat.Vec, p)
	copy(mu, wstar)
	prior := &dpprior.Prior{
		Alpha:      1,
		Components: []dpprior.Component{{Weight: 0.8, Mu: mu, Sigma: sigma, Count: 5}},
		BaseWeight: 0.2,
		BaseSigma:  5,
		Dim:        p,
	}
	c, err := dpprior.Compile(prior)
	if err != nil {
		panic(err)
	}
	return x, y, c, wstar
}

// BenchmarkFitParallelism measures the full training loop at several
// worker counts. The fitted parameters are bit-identical across all
// cases by the determinism invariant (see determinism_test.go).
func BenchmarkFitParallelism(b *testing.B) {
	x, y, prior, _ := benchTask(8192, 16)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			l, err := New(model.Logistic{Dim: 16},
				WithUncertaintySet(dro.Set{Kind: dro.Wasserstein, Rho: 0.05}),
				WithPrior(prior),
				WithSingleStart(),
				WithEMIters(2, 1e-9),
				WithParallelism(workers),
			)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := l.Fit(x, y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParWeightedGrad isolates the dominant kernel: the chunked
// weighted-gradient sweep that the M-step calls once per inner iteration.
func BenchmarkParWeightedGrad(b *testing.B) {
	x, y, _, wstar := benchTask(8192, 16)
	m := model.Logistic{Dim: 16}
	params := make(mat.Vec, m.NumParams())
	copy(params, wstar)
	w := make([]float64, x.Rows)
	for i := range w {
		w[i] = 1 / float64(x.Rows)
	}
	grad := make(mat.Vec, m.NumParams())
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			pool := parallel.New(workers)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mat.Fill(grad, 0)
				model.ParWeightedGrad(pool, m, params, x, y, w, grad)
			}
		})
	}
}

// BenchmarkParLosses isolates the per-sample loss sweep.
func BenchmarkParLosses(b *testing.B) {
	x, y, _, wstar := benchTask(8192, 16)
	m := model.Logistic{Dim: 16}
	params := make(mat.Vec, m.NumParams())
	copy(params, wstar)
	out := make([]float64, x.Rows)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			pool := parallel.New(workers)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				model.ParLosses(pool, m, params, x, y, out)
			}
		})
	}
}
