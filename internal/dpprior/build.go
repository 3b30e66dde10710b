package dpprior

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/drdp/drdp/internal/mat"
)

// TaskPosterior is the cloud-side summary of one previously solved task:
// a Gaussian posterior over that task's parameters and the sample count
// that produced it.
type TaskPosterior struct {
	Mu    mat.Vec
	Sigma *mat.Dense
	N     int // training samples behind this posterior
}

// BuildOptions configures prior construction on the cloud.
type BuildOptions struct {
	// Alpha is the DP concentration; it sets the base-measure mass
	// α/(α+K) that a brand-new edge task receives. Must be positive.
	Alpha float64
	// MaxComponents truncates the mixture; mass of dropped clusters is
	// folded into the base measure. Zero means no truncation.
	MaxComponents int
	// BaseSigma is the scale of the isotropic base measure. Zero selects
	// a data-driven default (twice the RMS norm of the task means).
	BaseSigma float64
	// ClusterScale is the within-cluster standard deviation used by the
	// collapsed Gibbs clustering. Zero selects a data-driven default
	// (the mean task-posterior standard deviation).
	ClusterScale float64
	// GibbsIters is the number of collapsed Gibbs sweeps (default 50).
	GibbsIters int
	// Seed drives the Gibbs sampler.
	Seed int64
}

// withDefaults fills o's zero fields, from tasks where they are
// data-driven.
func withDefaults[T Task](o BuildOptions, tasks []T) BuildOptions {
	if o.GibbsIters <= 0 {
		o.GibbsIters = 50
	}
	if o.BaseSigma <= 0 {
		var ss float64
		for _, t := range tasks {
			n := mat.Norm2(t.mean())
			ss += n * n
		}
		o.BaseSigma = 2 * math.Sqrt(ss/float64(len(tasks))+1)
	}
	if o.ClusterScale <= 0 {
		var s float64
		for _, t := range tasks {
			tr, rows := t.covTrace()
			s += math.Sqrt(tr / float64(rows))
		}
		o.ClusterScale = s/float64(len(tasks)) + 1e-6
	}
	return o
}

// Build constructs the DP mixture prior from cloud task posteriors:
// it clusters the tasks with a collapsed Gibbs sampler for a conjugate
// spherical DP Gaussian mixture over the task means, then moment-matches
// one Gaussian component per cluster (within-task posterior covariance
// plus between-task scatter). Component weights follow the CRP predictive
// for the next task: w_k = m_k/(α+K), base weight α/(α+K).
//
// The tasks may be dense (as uploaded) or packed (as the cloud's store
// holds them); a symmetric covariance builds the same prior bits in
// either form.
func Build[T Task](tasks []T, opts BuildOptions) (*Prior, error) {
	if len(tasks) == 0 {
		return nil, fmt.Errorf("dpprior: Build: no tasks")
	}
	if opts.Alpha <= 0 {
		return nil, fmt.Errorf("dpprior: Build: alpha %g must be positive", opts.Alpha)
	}
	dim := len(tasks[0].mean())
	means := make([]mat.Vec, len(tasks))
	for i, t := range tasks {
		means[i] = t.mean()
		if len(means[i]) != dim {
			return nil, fmt.Errorf("dpprior: Build: task %d has dim %d, want %d", i, len(means[i]), dim)
		}
		if !t.covShape() {
			return nil, fmt.Errorf("dpprior: Build: task %d covariance has wrong shape", i)
		}
	}
	o := withDefaults(opts, tasks)
	rng := rand.New(rand.NewSource(o.Seed))

	assign := gibbsCluster(rng, means, o)
	return assemble(tasks, means, assign, o)
}

// gibbsCluster runs collapsed Gibbs sweeps over cluster assignments for
// the task means under the conjugate model
//
//	x_j | c ~ N(φ_c, s² I),  φ_c ~ N(0, σ0² I),  partition ~ CRP(α).
func gibbsCluster(rng *rand.Rand, means []mat.Vec, o BuildOptions) []int {
	n := len(means)
	g := newGibbsState(means, o)
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}

	// Sequential initialization then Gibbs sweeps.
	for sweep := 0; sweep <= o.GibbsIters; sweep++ {
		for i := 0; i < n; i++ {
			if assign[i] >= 0 {
				g.move(i, assign[i], -1)
				assign[i] = -1
			}
			g.score(i)
			target := g.ids[drawLog(rng, g.logp)]
			if target == -1 {
				target = g.open()
			}
			assign[i] = target
			g.move(i, target, 1)
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

// gibbsState is gibbsCluster's sampler state. Task x joins an occupied
// cluster c of m members with log weight
//
//	log m − (d/2)·log(2π·v_m) − |x − μ_c|²/(2·v_m),
//	prec_m = 1/σ0² + m/s²,  v_m = 1/prec_m + s²,  μ_c = sum_c / s² / prec_m,
//
// and opens a new cluster with log α − (d/2)·log(2π·v₀) − |x|²/(2·v₀),
// v₀ = σ0² + s². The terms that depend only on m are tabulated once per
// build, each μ_c is recomputed only when its membership changes, and
// the new-cluster weight is computed once per task, so scoring a (task,
// cluster) pair is one subtract-multiply-add per coordinate. Every
// number is the same expression over the same operands as a direct
// evaluation of the formulas above, so scores are bit-identical to it
// (TestGibbsScoresBitIdentical) and so are assignments and rng
// consumption (TestGibbsMatchesReference).
type gibbsState struct {
	means    []mat.Vec // the task means
	s2       float64
	byCount  []countTerms // byCount[m]: terms for a cluster of m members
	fresh    []float64    // fresh[i]: log weight of task i opening a cluster
	clusters []clusterStat
	logp     []float64 // score reuses these across visits
	ids      []int
}

// countTerms are the predictive terms that depend only on a cluster's
// member count m.
type countTerms struct {
	prec    float64 // posterior precision of φ_c
	norm    float64 // −(d/2)·log(2π·v_m)
	twoVar  float64 // 2·v_m
	logSize float64 // log m
}

// clusterStat is one cluster's member count, coordinate sum and
// posterior mean μ_c.
type clusterStat struct {
	count     int
	sum, mean mat.Vec
}

func newGibbsState(means []mat.Vec, o BuildOptions) *gibbsState {
	n := len(means)
	dim := len(means[0])
	s2 := o.ClusterScale * o.ClusterScale
	sigma02 := o.BaseSigma * o.BaseSigma
	g := &gibbsState{
		means:   means,
		s2:      s2,
		byCount: make([]countTerms, n+1),
		fresh:   make([]float64, n),
	}
	for m := 1; m <= n; m++ {
		prec := 1/sigma02 + float64(m)/s2
		postVar := 1/prec + s2
		g.byCount[m] = countTerms{
			prec:    prec,
			norm:    -0.5 * float64(dim) * math.Log(2*math.Pi*postVar),
			twoVar:  2 * postVar,
			logSize: math.Log(float64(m)),
		}
	}
	newVar := sigma02 + s2
	newNorm := -0.5 * float64(dim) * math.Log(2*math.Pi*newVar)
	logAlpha := math.Log(o.Alpha)
	for i, x := range means {
		g.fresh[i] = logAlpha + (newNorm - mat.Dot(x, x)/(2*newVar))
	}
	return g
}

// move adds (sign 1) or removes (sign −1) task i's mean to or from
// cluster c and brings the cluster's posterior mean up to date.
func (g *gibbsState) move(i, c int, sign float64) {
	cl := &g.clusters[c]
	if sign > 0 {
		cl.count++
	} else {
		cl.count--
	}
	mat.Axpy(sign, g.means[i], cl.sum)
	if cl.count == 0 {
		return
	}
	prec := g.byCount[cl.count].prec
	for j, v := range cl.sum {
		cl.mean[j] = v / g.s2 / prec
	}
}

// score sets logp to task i's log weight for joining each occupied
// cluster, in slot order, then for opening a new one; ids holds the
// matching slot, −1 for the new cluster.
func (g *gibbsState) score(i int) {
	x := g.means[i]
	g.logp, g.ids = g.logp[:0], g.ids[:0]
	for c := range g.clusters {
		cl := &g.clusters[c]
		if cl.count == 0 {
			continue
		}
		mean := cl.mean[:len(x)]
		var ss float64
		for j, v := range x {
			d := v - mean[j]
			ss += d * d
		}
		t := &g.byCount[cl.count]
		g.logp = append(g.logp, t.logSize+(t.norm-ss/t.twoVar))
		g.ids = append(g.ids, c)
	}
	g.logp = append(g.logp, g.fresh[i])
	g.ids = append(g.ids, -1)
}

// open returns the first emptied cluster slot, appending one if none is
// empty.
func (g *gibbsState) open() int {
	for c := range g.clusters {
		if g.clusters[c].count == 0 {
			return c
		}
	}
	dim := len(g.means[0])
	g.clusters = append(g.clusters, clusterStat{sum: make(mat.Vec, dim), mean: make(mat.Vec, dim)})
	return len(g.clusters) - 1
}

// drawLog samples an index from softmax(logp) by inverse CDF with one
// rng.Float64 draw, exponentiating only up to the chosen entry; the
// last index absorbs any rounding shortfall.
func drawLog(rng *rand.Rand, logp []float64) int {
	lse := mat.LogSumExp(logp)
	u := rng.Float64()
	var acc float64
	for k, v := range logp {
		acc += math.Exp(v - lse)
		if u < acc {
			return k
		}
	}
	return len(logp) - 1
}

// assemble moment-matches one component per cluster and applies CRP
// predictive weights with truncation; means[j] is tasks[j]'s mean.
func assemble[T Task](tasks []T, means []mat.Vec, assign []int, o BuildOptions) (*Prior, error) {
	dim := len(means[0])
	nClusters := 0
	for _, a := range assign {
		if a+1 > nClusters {
			nClusters = a + 1
		}
	}
	type group struct {
		members []int
	}
	groups := make([]group, nClusters)
	for i, a := range assign {
		groups[a].members = append(groups[a].members, i)
	}

	comps := make([]Component, 0, nClusters)
	for _, g := range groups {
		if len(g.members) == 0 {
			continue
		}
		// Sample-count-weighted mean of member means.
		var totalN float64
		mu := make(mat.Vec, dim)
		for _, j := range g.members {
			w := float64(tasks[j].count())
			if w <= 0 {
				w = 1
			}
			mat.Axpy(w, means[j], mu)
			totalN += w
		}
		mat.Scale(1/totalN, mu)
		// Covariance: weighted within-task posterior covariance plus
		// between-task scatter of the member means.
		sigma := mat.NewDense(dim, dim)
		for _, j := range g.members {
			w := float64(tasks[j].count())
			if w <= 0 {
				w = 1
			}
			tasks[j].addCov(w/totalN, sigma)
			d := mat.SubVec(means[j], mu)
			sigma.OuterAdd(w/totalN, d, d)
		}
		sigma.Symmetrize()
		comps = append(comps, Component{
			Mu:    mu,
			Sigma: sigma,
			Count: float64(len(g.members)),
		})
	}

	k := float64(len(tasks))
	base := o.Alpha / (o.Alpha + k)
	for i := range comps {
		comps[i].Weight = comps[i].Count / (o.Alpha + k)
	}

	// Truncate: keep the heaviest clusters, fold dropped mass into base.
	if o.MaxComponents > 0 && len(comps) > o.MaxComponents {
		sort.Slice(comps, func(i, j int) bool { return comps[i].Weight > comps[j].Weight })
		for _, c := range comps[o.MaxComponents:] {
			base += c.Weight
		}
		comps = comps[:o.MaxComponents]
	}

	p := &Prior{
		Alpha:      o.Alpha,
		Components: comps,
		BaseWeight: base,
		BaseSigma:  o.BaseSigma,
		Dim:        dim,
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("dpprior: assemble: %w", err)
	}
	return p, nil
}
