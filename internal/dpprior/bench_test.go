package dpprior

import (
	"math/rand"
	"testing"

	"github.com/drdp/drdp/internal/mat"
)

func benchPrior(b *testing.B, dim, comps int) *Compiled {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	p := &Prior{Alpha: 1, BaseWeight: 0.1, BaseSigma: 5, Dim: dim}
	w := 0.9 / float64(comps)
	for c := 0; c < comps; c++ {
		mu := make(mat.Vec, dim)
		for i := range mu {
			mu[i] = rng.NormFloat64()
		}
		sigma := mat.Eye(dim)
		sigma.ScaleBy(0.3)
		p.Components = append(p.Components, Component{Weight: w, Mu: mu, Sigma: sigma, Count: 1})
	}
	compiled, err := Compile(p)
	if err != nil {
		b.Fatal(err)
	}
	return compiled
}

func BenchmarkCompilePriorD50(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	tasks, _ := makeTaskFamily(rng, 8, 50, 3, 10)
	p, err := Build(tasks, BuildOptions{Alpha: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkResponsibilitiesD50(b *testing.B) {
	c := benchPrior(b, 50, 5)
	theta := make(mat.Vec, 50)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Responsibilities(theta)
	}
}

func BenchmarkSurrogateGradD50(b *testing.B) {
	c := benchPrior(b, 50, 5)
	theta := make(mat.Vec, 50)
	gamma := c.Responsibilities(theta)
	grad := make(mat.Vec, 50)
	scratch := make(mat.Vec, c.SurrogateScratch())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mat.Fill(grad, 0)
		c.SurrogateGrad(theta, gamma, grad, scratch)
	}
}

func BenchmarkGibbsBuildK16(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	tasks, _ := makeTaskFamily(rng, 16, 20, 4, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(tasks, BuildOptions{Alpha: 1, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPool draws n task posteriors shaped like the benchmark ledger's
// upload traffic: cluster centers of the given norm, within-cluster
// scatter 0.3 and covariance 0.09·I, task i in cluster i mod clusters.
func benchPool(n, dim, clusters int, norm float64) []TaskPosterior {
	rng := rand.New(rand.NewSource(5))
	centers := make([]mat.Vec, clusters)
	for c := range centers {
		centers[c] = make(mat.Vec, dim)
		for j := range centers[c] {
			centers[c][j] = rng.NormFloat64()
		}
		mat.Scale(norm/mat.Norm2(centers[c]), centers[c])
	}
	sigma := mat.Eye(dim)
	sigma.ScaleBy(0.09)
	tasks := make([]TaskPosterior, n)
	for i := range tasks {
		mu := mat.CloneVec(centers[i%clusters])
		for j := range mu {
			mu[j] += 0.3 * rng.NormFloat64()
		}
		tasks[i] = TaskPosterior{Mu: mu, Sigma: sigma, N: 40 + rng.Intn(161)}
	}
	return tasks
}

func benchBuild(b *testing.B, tasks []TaskPosterior) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(tasks, BuildOptions{Alpha: 1, Seed: 7}); err != nil {
			b.Fatal(err)
		}
	}
}

// The pool shapes of the ledger's cloud workloads: edge_round and
// tiered_sync (17 parameters, norm-4 centers) and prior_fanout (49
// parameters, six clusters at norm 8).
func BenchmarkGibbsBuildN3000D17K8(b *testing.B) { benchBuild(b, benchPool(3000, 17, 8, 4)) }
func BenchmarkGibbsBuildN3000D49K6(b *testing.B) { benchBuild(b, benchPool(3000, 49, 6, 8)) }

// TestBuildAllocBudget holds Build to O(n + K·d) allocations, none per
// task visit: about 2.1k for 2000 tasks, most of them assemble's
// per-member scatter vectors. A sampler that made its score slices per
// visit would allocate 2·51·n ≈ 204k.
func TestBuildAllocBudget(t *testing.T) {
	tasks := benchPool(2000, 17, 8, 4)
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := Build(tasks, BuildOptions{Alpha: 1, Seed: 7}); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 4000
	t.Logf("Build of %d tasks at dim 17: %.0f allocs (budget %d)", len(tasks), allocs, budget)
	if allocs > budget {
		t.Fatalf("Build allocated %.0f objects, budget %d", allocs, budget)
	}
}
