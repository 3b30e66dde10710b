package dpprior

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/drdp/drdp/internal/mat"
)

// makeTaskFamily creates K task posteriors drawn around nClusters ground-
// truth centers, returning the tasks and their true cluster labels.
func makeTaskFamily(rng *rand.Rand, k, dim, nClusters int, sep float64) ([]TaskPosterior, []int) {
	centers := make([]mat.Vec, nClusters)
	for c := range centers {
		centers[c] = make(mat.Vec, dim)
		for j := range centers[c] {
			centers[c][j] = sep * rng.NormFloat64()
		}
	}
	tasks := make([]TaskPosterior, k)
	labels := make([]int, k)
	for i := range tasks {
		c := i % nClusters
		labels[i] = c
		mu := mat.CloneVec(centers[c])
		for j := range mu {
			mu[j] += 0.2 * rng.NormFloat64()
		}
		sigma := mat.Eye(dim)
		sigma.ScaleBy(0.05)
		tasks[i] = TaskPosterior{Mu: mu, Sigma: sigma, N: 100 + rng.Intn(100)}
	}
	return tasks, labels
}

func TestBuildRecoversClusters(t *testing.T) {
	// Each case is 12 tasks around 3 well-separated centers at dim 4.
	for _, tc := range []struct {
		name      string
		source    int64
		sep       float64
		buildSeed int64
	}{
		{"sep10", 20, 10, 99},
		{"sep12", 152, 12, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.source))
			tasks, labels := makeTaskFamily(rng, 12, 4, 3, tc.sep)
			p, err := Build(tasks, BuildOptions{Alpha: 1, Seed: tc.buildSeed, GibbsIters: 80})
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Validate(); err != nil {
				t.Fatalf("built prior invalid: %v", err)
			}
			if len(p.Components) < 2 || len(p.Components) > 5 {
				t.Errorf("found %d components for 3 well-separated clusters", len(p.Components))
			}
			// Every true cluster center should be near some component mean.
			for c := 0; c < 3; c++ {
				// Center = mean of members' means.
				center := make(mat.Vec, 4)
				var n float64
				for i, l := range labels {
					if l == c {
						mat.Axpy(1, tasks[i].Mu, center)
						n++
					}
				}
				mat.Scale(1/n, center)
				best := math.Inf(1)
				for _, comp := range p.Components {
					if d := mat.Dist2(comp.Mu, center); d < best {
						best = d
					}
				}
				if best > 1.0 {
					t.Errorf("true cluster %d center is %.2f from nearest component", c, best)
				}
			}
		})
	}
}

func TestBuildBaseWeightFollowsAlpha(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	tasks, _ := makeTaskFamily(rng, 8, 3, 2, 8)
	for _, alpha := range []float64{0.1, 1, 10} {
		p, err := Build(tasks, BuildOptions{Alpha: alpha, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		want := alpha / (alpha + 8)
		// Truncation may fold extra mass into base; it can only be >= CRP mass.
		if p.BaseWeight < want-1e-9 {
			t.Errorf("alpha=%v: base weight %v < CRP mass %v", alpha, p.BaseWeight, want)
		}
	}
}

func TestBuildTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	tasks, _ := makeTaskFamily(rng, 20, 3, 6, 12)
	p, err := Build(tasks, BuildOptions{Alpha: 1, MaxComponents: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Components) > 2 {
		t.Errorf("truncation to 2 produced %d components", len(p.Components))
	}
	if err := p.Validate(); err != nil {
		t.Errorf("truncated prior invalid: %v", err)
	}
}

func TestBuildErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tasks, _ := makeTaskFamily(rng, 4, 3, 2, 5)
	if _, err := Build([]TaskPosterior(nil), BuildOptions{Alpha: 1}); err == nil {
		t.Error("Build with no tasks should fail")
	}
	if _, err := Build(tasks, BuildOptions{Alpha: 0}); err == nil {
		t.Error("Build with alpha=0 should fail")
	}
	bad := append([]TaskPosterior(nil), tasks...)
	bad[1].Mu = mat.Vec{1}
	if _, err := Build(bad, BuildOptions{Alpha: 1}); err == nil {
		t.Error("Build with mismatched dims should fail")
	}
	bad2 := append([]TaskPosterior(nil), tasks...)
	bad2[0].Sigma = mat.NewDense(2, 3)
	if _, err := Build(bad2, BuildOptions{Alpha: 1}); err == nil {
		t.Error("Build with bad covariance shape should fail")
	}
}

func TestBuildSingleTask(t *testing.T) {
	sigma := mat.Eye(2)
	tasks := []TaskPosterior{{Mu: mat.Vec{1, 2}, Sigma: sigma, N: 50}}
	p, err := Build(tasks, BuildOptions{Alpha: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Components) != 1 {
		t.Fatalf("single task produced %d components", len(p.Components))
	}
	if mat.Dist2(p.Components[0].Mu, mat.Vec{1, 2}) > 1e-9 {
		t.Errorf("component mean %v, want {1,2}", p.Components[0].Mu)
	}
	// Weight split 1/(1+1) vs 1/(1+1).
	if math.Abs(p.Components[0].Weight-0.5) > 1e-9 || math.Abs(p.BaseWeight-0.5) > 1e-9 {
		t.Errorf("weights %v/%v, want 0.5/0.5", p.Components[0].Weight, p.BaseWeight)
	}
}

func TestBuildComponentCovarianceIncludesScatter(t *testing.T) {
	// Two tasks far apart that Gibbs should *merge only if scale says so*;
	// force them into one cluster by using a large ClusterScale, and check
	// the resulting covariance captures the between-mean scatter.
	sigma := mat.Eye(1)
	sigma.ScaleBy(0.01)
	tasks := []TaskPosterior{
		{Mu: mat.Vec{-1}, Sigma: sigma.Clone(), N: 10},
		{Mu: mat.Vec{1}, Sigma: sigma.Clone(), N: 10},
	}
	p, err := Build(tasks, BuildOptions{Alpha: 0.01, ClusterScale: 100, BaseSigma: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Components) != 1 {
		t.Skipf("Gibbs kept tasks separate (%d comps); scatter check needs a merge", len(p.Components))
	}
	// Between-scatter: mean 0, variance 1 (plus 0.01 within) ≈ 1.01.
	gotVar := p.Components[0].Sigma.At(0, 0)
	if math.Abs(gotVar-1.01) > 0.05 {
		t.Errorf("merged covariance %v, want ≈ 1.01 (within + scatter)", gotVar)
	}
}

func TestBuildDeterministicGivenSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	tasks, _ := makeTaskFamily(rng, 10, 3, 2, 8)
	p1, err := Build(tasks, BuildOptions{Alpha: 1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Build(tasks, BuildOptions{Alpha: 1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(p1.Components) != len(p2.Components) {
		t.Fatalf("same seed produced %d vs %d components", len(p1.Components), len(p2.Components))
	}
	for i := range p1.Components {
		if mat.Dist2(p1.Components[i].Mu, p2.Components[i].Mu) > 1e-12 {
			t.Errorf("component %d means differ across identical runs", i)
		}
	}
}

// referenceGibbsCluster is the direct collapsed Gibbs sampler: every
// predictive term is evaluated from the cluster sums on every visit.
// It is the oracle gibbsCluster must reproduce bit for bit.
func referenceGibbsCluster(rng *rand.Rand, tasks []TaskPosterior, o BuildOptions) []int {
	n := len(tasks)
	dim := len(tasks[0].Mu)
	s2 := o.ClusterScale * o.ClusterScale
	sigma02 := o.BaseSigma * o.BaseSigma

	// Cluster state: member counts and coordinate sums.
	type cluster struct {
		count int
		sum   mat.Vec
	}
	var clusters []*cluster
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}

	// Predictive log density of x joining cluster c (nil = new cluster).
	predictive := func(x mat.Vec, c *cluster) float64 {
		var postVar, quad float64
		if c == nil || c.count == 0 {
			postVar = sigma02 + s2
			quad = mat.Dot(x, x)
		} else {
			prec := 1/sigma02 + float64(c.count)/s2
			postVar = 1/prec + s2
			var ss float64
			for j, v := range x {
				m := c.sum[j] / s2 / prec
				d := v - m
				ss += d * d
			}
			quad = ss
		}
		return -0.5*float64(dim)*math.Log(2*math.Pi*postVar) - quad/(2*postVar)
	}

	addTo := func(i, c int) {
		assign[i] = c
		clusters[c].count++
		mat.Axpy(1, tasks[i].Mu, clusters[c].sum)
	}
	removeFrom := func(i int) {
		c := clusters[assign[i]]
		c.count--
		mat.Axpy(-1, tasks[i].Mu, c.sum)
		assign[i] = -1
	}

	// Sequential initialization then Gibbs sweeps.
	for sweep := 0; sweep <= o.GibbsIters; sweep++ {
		for i := 0; i < n; i++ {
			if assign[i] >= 0 {
				removeFrom(i)
			}
			logp := make([]float64, 0, len(clusters)+1)
			ids := make([]int, 0, len(clusters)+1)
			for c, cl := range clusters {
				if cl.count == 0 {
					continue
				}
				logp = append(logp, math.Log(float64(cl.count))+predictive(tasks[i].Mu, cl))
				ids = append(ids, c)
			}
			logp = append(logp, math.Log(o.Alpha)+predictive(tasks[i].Mu, nil))
			ids = append(ids, -1)

			probs := mat.Softmax(logp, logp)
			u := rng.Float64()
			var acc float64
			choice := len(probs) - 1
			for k, p := range probs {
				acc += p
				if u < acc {
					choice = k
					break
				}
			}
			target := ids[choice]
			if target == -1 {
				// Reuse an emptied slot if available, else grow.
				target = -1
				for c, cl := range clusters {
					if cl.count == 0 {
						target = c
						break
					}
				}
				if target == -1 {
					clusters = append(clusters, &cluster{sum: make(mat.Vec, dim)})
					target = len(clusters) - 1
				}
			}
			addTo(i, target)
		}
	}
	// Renumber clusters densely.
	remap := map[int]int{}
	out := make([]int, n)
	for i, a := range assign {
		id, ok := remap[a]
		if !ok {
			id = len(remap)
			remap[a] = id
		}
		out[i] = id
	}
	return out
}

// referenceBuild is Build on the reference sampler (inputs are valid).
func referenceBuild(tasks []TaskPosterior, opts BuildOptions) (*Prior, error) {
	o := withDefaults(opts, tasks)
	assign := referenceGibbsCluster(rand.New(rand.NewSource(o.Seed)), tasks, o)
	return assemble(tasks, taskMeans(tasks), assign, o)
}

// taskMeans lists the tasks' means, the sampler's input.
func taskMeans(tasks []TaskPosterior) []mat.Vec {
	means := make([]mat.Vec, len(tasks))
	for i, t := range tasks {
		means[i] = t.Mu
	}
	return means
}

// referenceSummarize is SummarizeTasks on the reference sampler.
func referenceSummarize(tasks []TaskPosterior, opts BuildOptions) ([]TaskPosterior, error) {
	if opts.MaxComponents <= 0 {
		opts.MaxComponents = DefaultSummaryComponents
	}
	if len(tasks) <= opts.MaxComponents {
		return tasks, nil
	}
	p, err := referenceBuild(tasks, opts)
	if err != nil {
		return nil, err
	}
	totalN := 0
	for _, t := range tasks {
		totalN = min(totalN+t.N, MaxTaskN)
	}
	return ComponentTasks(p, totalN), nil
}

// gibbsInstance draws one randomized clustering problem. The case index
// picks a shape: general, a single task, identical tasks, one far
// outlier, a tiny ClusterScale (every task a singleton, so each visit
// empties a slot and the new-cluster draw reuses it), a large α (many
// short-lived clusters), a huge ClusterScale (one cluster), or an
// explicit BaseSigma with truncation.
func gibbsInstance(idx int) ([]TaskPosterior, BuildOptions, string) {
	rng := rand.New(rand.NewSource(int64(1000 + idx)))
	dims := []int{1, 2, 3, 5, 17, 49}
	dim := dims[rng.Intn(len(dims))]
	n := 2 + rng.Intn(90)
	k := 1 + rng.Intn(8)
	spreads := []float64{0.5, 2, 4, 8, 30}
	spread := spreads[rng.Intn(len(spreads))]
	alphas := []float64{0.01, 0.3, 1, 5, 100}
	opts := BuildOptions{
		Alpha:      alphas[rng.Intn(len(alphas))],
		GibbsIters: []int{0, 3, 12}[rng.Intn(3)],
		Seed:       rng.Int63(),
	}
	if rng.Intn(2) == 0 {
		opts.MaxComponents = 1 + rng.Intn(5)
	}
	if rng.Intn(3) == 0 {
		opts.ClusterScale = 0.05 + 2*rng.Float64()
	}
	shape := idx % 8
	switch shape {
	case 1:
		n = 1
	case 4:
		opts.ClusterScale = 1e-9
	case 5:
		opts.Alpha = 1e3
	case 6:
		opts.ClusterScale = 1e4
	case 7:
		opts.BaseSigma = 0.1 + 10*rng.Float64()
	}
	centers := make([]mat.Vec, k)
	for c := range centers {
		centers[c] = make(mat.Vec, dim)
		for j := range centers[c] {
			centers[c][j] = spread * rng.NormFloat64() / math.Sqrt(float64(dim))
		}
	}
	within := 0.05 + 0.5*rng.Float64()
	tasks := make([]TaskPosterior, n)
	for i := range tasks {
		mu := mat.CloneVec(centers[rng.Intn(k)])
		if shape != 2 {
			for j := range mu {
				mu[j] += within * rng.NormFloat64()
			}
		}
		if shape == 3 && i == n/2 {
			mat.Scale(1e3, mu)
			mu[0] += 1e3
		}
		sigma := mat.Eye(dim)
		sigma.ScaleBy(within * within * (0.5 + rng.Float64()))
		tasks[i] = TaskPosterior{Mu: mu, Sigma: sigma, N: 1 + rng.Intn(300)}
	}
	desc := fmt.Sprintf("case %d (shape %d): n=%d dim=%d k=%d spread=%g %+v", idx, shape, n, dim, k, spread, opts)
	return tasks, opts, desc
}

// TestGibbsMatchesReference pins the tabulated sampler to the direct one:
// identical assignments, identical rng consumption, and gob-identical
// Build and SummarizeTasks outputs over randomized instances.
func TestGibbsMatchesReference(t *testing.T) {
	for idx := 0; idx < 240; idx++ {
		tasks, opts, desc := gibbsInstance(idx)

		o := withDefaults(opts, tasks)
		gotRNG := rand.New(rand.NewSource(o.Seed))
		wantRNG := rand.New(rand.NewSource(o.Seed))
		got := gibbsCluster(gotRNG, taskMeans(tasks), o)
		want := referenceGibbsCluster(wantRNG, tasks, o)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: assignments differ\n got %v\nwant %v", desc, got, want)
		}
		if g, w := gotRNG.Int63(), wantRNG.Int63(); g != w {
			t.Fatalf("%s: rng streams diverged", desc)
		}

		gp, err := Build(tasks, opts)
		if err != nil {
			t.Fatalf("%s: Build: %v", desc, err)
		}
		wp, err := referenceBuild(tasks, opts)
		if err != nil {
			t.Fatalf("%s: reference Build: %v", desc, err)
		}
		if !bytes.Equal(gobBytes(t, gp), gobBytes(t, wp)) {
			t.Fatalf("%s: Build priors differ", desc)
		}

		gs, err := SummarizeTasks(tasks, opts)
		if err != nil {
			t.Fatalf("%s: SummarizeTasks: %v", desc, err)
		}
		ws, err := referenceSummarize(tasks, opts)
		if err != nil {
			t.Fatalf("%s: reference SummarizeTasks: %v", desc, err)
		}
		if !bytes.Equal(gobBytes(t, gs), gobBytes(t, ws)) {
			t.Fatalf("%s: summaries differ", desc)
		}
	}
}

// directScores evaluates referenceGibbsCluster's predictive formulas for
// task x from g's cluster counts and sums.
func directScores(g *gibbsState, x mat.Vec, o BuildOptions) ([]float64, []int) {
	dim := len(x)
	s2 := o.ClusterScale * o.ClusterScale
	sigma02 := o.BaseSigma * o.BaseSigma
	predictive := func(count int, sum mat.Vec) float64 {
		var postVar, quad float64
		if count == 0 {
			postVar = sigma02 + s2
			quad = mat.Dot(x, x)
		} else {
			prec := 1/sigma02 + float64(count)/s2
			postVar = 1/prec + s2
			var ss float64
			for j, v := range x {
				m := sum[j] / s2 / prec
				d := v - m
				ss += d * d
			}
			quad = ss
		}
		return -0.5*float64(dim)*math.Log(2*math.Pi*postVar) - quad/(2*postVar)
	}
	var logp []float64
	var ids []int
	for c, cl := range g.clusters {
		if cl.count == 0 {
			continue
		}
		logp = append(logp, math.Log(float64(cl.count))+predictive(cl.count, cl.sum))
		ids = append(ids, c)
	}
	return append(logp, math.Log(o.Alpha)+predictive(0, nil)), append(ids, -1)
}

// TestGibbsScoresBitIdentical checks the tabulated score kernel against
// the direct formulas bit for bit, over random walks of moves (joins,
// leaves, emptied and reopened slots). Sampling decisions alone cannot
// see a last-bit difference in a score; this test can.
func TestGibbsScoresBitIdentical(t *testing.T) {
	for idx := 0; idx < 120; idx++ {
		tasks, opts, desc := gibbsInstance(idx)
		o := withDefaults(opts, tasks)
		n := len(tasks)
		g := newGibbsState(taskMeans(tasks), o)
		assign := make([]int, n)
		for i := range assign {
			assign[i] = -1
		}
		rng := rand.New(rand.NewSource(int64(idx)))
		for step := 0; step < 4*n+8; step++ {
			i := rng.Intn(n)
			if assign[i] >= 0 {
				g.move(i, assign[i], -1)
				assign[i] = -1
			}
			g.score(i)
			logp, ids := directScores(g, tasks[i].Mu, o)
			if !slices.Equal(g.ids, ids) {
				t.Fatalf("%s step %d: slots %v, want %v", desc, step, g.ids, ids)
			}
			for k := range logp {
				if math.Float64bits(g.logp[k]) != math.Float64bits(logp[k]) {
					t.Fatalf("%s step %d: score %d is %v, want %v", desc, step, k, g.logp[k], logp[k])
				}
			}
			target := g.ids[rng.Intn(len(g.ids))]
			if target == -1 {
				target = g.open()
			}
			assign[i] = target
			g.move(i, target, 1)
		}
	}
}
