package dpprior

import (
	"fmt"
	"math"
	"sort"

	"github.com/drdp/drdp/internal/mat"
)

// MaxTaskN bounds TaskPosterior.N: a sample count above it is treated as
// corrupt or adversarial (it would let one upload dominate every
// weighted aggregation in the prior).
const MaxTaskN = 1 << 30

// Validate reports the first semantic problem in the task posterior, or
// nil: the mean must be non-empty and finite (and match dim when dim is
// non-zero), the covariance must be present, square, symmetric and
// numerically positive definite (up to the same tiny diagonal jitter
// MVNormal itself tolerates), and the sample count must be sane. This is
// the cloud's admission gate: everything an edge uploads — and every
// CRC-valid record recovered from disk — passes through it before it can
// influence a served prior.
func (t *TaskPosterior) Validate(dim int) error {
	if len(t.Mu) == 0 {
		return fmt.Errorf("dpprior: task posterior has an empty mean")
	}
	if dim > 0 && len(t.Mu) != dim {
		return fmt.Errorf("dpprior: task posterior dim %d, want %d", len(t.Mu), dim)
	}
	for j, v := range t.Mu {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("dpprior: task posterior mean[%d] is %g", j, v)
		}
	}
	d := len(t.Mu)
	if t.Sigma == nil {
		return fmt.Errorf("dpprior: task posterior has no covariance")
	}
	if t.Sigma.Rows != d || t.Sigma.Cols != d {
		return fmt.Errorf("dpprior: task posterior covariance %dx%d for dim %d",
			t.Sigma.Rows, t.Sigma.Cols, d)
	}
	scale := t.Sigma.MaxAbs()
	if math.IsNaN(scale) || math.IsInf(scale, 0) {
		return fmt.Errorf("dpprior: task posterior covariance has non-finite entries: %w", mat.ErrNotFinite)
	}
	symTol := 1e-8 * (1 + scale)
	for i := 0; i < d; i++ {
		for j := i + 1; j < d; j++ {
			if diff := math.Abs(t.Sigma.At(i, j) - t.Sigma.At(j, i)); diff > symTol {
				return fmt.Errorf("dpprior: task posterior covariance is asymmetric at (%d,%d): |Δ|=%g", i, j, diff)
			}
		}
	}
	// The same tolerance the density hot path applies: a hair of diagonal
	// jitter may rescue a borderline Laplace covariance, but NaN/Inf and
	// genuinely indefinite matrices are rejected outright.
	if _, _, err := mat.NewCholeskyJitter(t.Sigma, 1e-10, 3); err != nil {
		return fmt.Errorf("dpprior: task posterior covariance: %w", err)
	}
	if t.N < 0 || t.N > MaxTaskN {
		return fmt.Errorf("dpprior: task posterior sample count %d out of range [0, %d]", t.N, MaxTaskN)
	}
	return nil
}

// TaskValidator returns a stateful validator for a stream of task
// posteriors: the first valid task pins the dimensionality and every
// later task must agree with it. It is the recovery-side admission gate
// (store.Options.Validate) — a corrupted-but-CRC-valid record cannot
// resurrect a poisoned prior after a restart.
func TaskValidator() func(TaskPosterior) error {
	dim := 0
	return func(t TaskPosterior) error {
		if err := t.Validate(dim); err != nil {
			return err
		}
		if dim == 0 {
			dim = len(t.Mu)
		}
		return nil
	}
}

// AdmissionOptions tunes statistical quarantine (see Judge).
type AdmissionOptions struct {
	// TrimFrac caps the fraction of the scored population that one
	// judgment round may quarantine (default 0.2). Raise it when more
	// than a fifth of the fleet may be hostile.
	TrimFrac float64
	// MinScored is the smallest population (accepted + undecided) worth
	// judging; below it every task stays provisional (default 4) —
	// robust statistics over two points are noise.
	MinScored int
}

func (o AdmissionOptions) withDefaults() AdmissionOptions {
	if o.TrimFrac <= 0 {
		o.TrimFrac = 0.2
	}
	if o.MinScored <= 0 {
		o.MinScored = 4
	}
	return o
}

// outlierK is the MAD-rule cutoff: a task is a quarantine candidate when
// its score falls more than outlierK robust standard deviations
// (1.4826·MAD) below the population median. Deliberately generous —
// heterogeneous task clusters must not read as attacks; adversarial
// posteriors land orders of magnitude further out.
const outlierK = 6.0

// ScoreTasks scores each task's plausibility as the log density of its
// posterior mean under the currently served prior. Admitted tasks anchor
// the score distribution; a poisoned upload scores catastrophically
// below it.
func ScoreTasks[T Task](c *Compiled, tasks []T) []float64 {
	scores := make([]float64, len(tasks))
	for i, t := range tasks {
		scores[i] = c.LogDensity(t.mean())
	}
	return scores
}

// FallbackScores scores tasks without a served prior (cold start): the
// negative robust distance of each task mean from the coordinate-wise
// median, in coordinate MAD units. Model-free, so a hostile task that
// managed to get into an early build cannot vouch for itself.
func FallbackScores[T Task](tasks []T) []float64 {
	if len(tasks) == 0 {
		return nil
	}
	dim := len(tasks[0].mean())
	med := make([]float64, dim)
	madU := make([]float64, dim)
	col := make([]float64, len(tasks))
	for j := 0; j < dim; j++ {
		for i, t := range tasks {
			col[i] = t.mean()[j]
		}
		med[j] = median(col)
		for i, t := range tasks {
			col[i] = math.Abs(t.mean()[j] - med[j])
		}
		m := median(col)
		madU[j] = math.Max(m, 1e-9*(1+math.Abs(med[j])))
	}
	scores := make([]float64, len(tasks))
	for i, t := range tasks {
		var ss float64
		for j, v := range t.mean() {
			z := (v - med[j]) / madU[j]
			ss += z * z
		}
		scores[i] = -math.Sqrt(ss / float64(dim))
	}
	return scores
}

// scaleLogFloor is the absolute tolerance, in log units, of the scale
// screen: even in a perfectly homogeneous fleet (MAD 0) a task is not
// flagged until its claimed sample count or covariance scale is more
// than a 64× ratio away from the fleet median. Honest heterogeneity
// (data-rich vs data-poor devices, ~10–20×) stays well inside it;
// hijack attacks need orders of magnitude and land far outside.
var scaleLogFloor = math.Log(64)

// scaleOutliers flags tasks whose claimed evidence scale is implausible
// against the population: a log sample count far ABOVE the robust range
// (overclaiming — one upload would dominate every sample-weighted
// aggregation) or a log covariance scale far BELOW it (overconfidence —
// a density spike that can vouch for itself or capture EM starts).
// Deviations are measured in outlierK robust standard deviations with
// the scaleLogFloor absolute floor; the harmless directions (tiny N,
// inflated covariance) are not flagged, so honest data-poor devices are
// never taxed.
func scaleOutliers[T Task](all []T) []bool {
	n := len(all)
	fN := make([]float64, n)
	fS := make([]float64, n)
	for i, t := range all {
		nn := float64(t.count())
		if nn < 0 {
			nn = 0
		}
		fN[i] = math.Log1p(nn)
		if tr, rows := t.covTrace(); rows > 0 {
			fS[i] = math.Log(tr/float64(rows) + 1e-300)
		}
	}
	out := make([]bool, n)
	flag := func(f []float64, above bool) {
		med := median(append([]float64(nil), f...))
		dev := make([]float64, n)
		for i, v := range f {
			dev[i] = math.Abs(v - med)
		}
		lim := math.Max(outlierK*1.4826*median(dev), scaleLogFloor)
		for i, v := range f {
			if above && v-med > lim || !above && med-v > lim {
				out[i] = true
			}
		}
	}
	flag(fN, true)  // overclaimed sample count
	flag(fS, false) // overconfident covariance
	return out
}

// Judge decides quarantine verdicts for the undecided tasks, given the
// already-accepted reference set and the currently served prior. It
// returns one verdict per undecided task (true = quarantine) and whether
// the population was large enough to judge at all; when ok is false the
// caller keeps the tasks provisional and re-judges on a later round.
//
// Scoring: with a served prior and a non-empty accepted reference, each
// task scores by prior log density (ScoreTasks); otherwise — cold start,
// or a prior that hostile tasks may themselves have shaped — by the
// model-free FallbackScores. A task is quarantined when its score falls
// more than outlierK·1.4826·MAD below the population median, worst
// first, capped at TrimFrac of the population; non-finite scores are
// always candidates. Independently of where its mean lands, a task
// flagged by the scale screen (scaleOutliers) is also a candidate — a
// plausible-looking mean does not excuse an implausible claim of
// evidence.
//
// A candidate past the trim budget is deferred, not accepted: a sticky
// accept verdict for a task the judge itself flagged would let an
// attacker ride out one crowded round and poison every rebuild after.
// The caller must keep a deferred task undecided — and out of this
// round's build — so a later, larger round (with a larger budget) can
// judge it properly.
func Judge[T Task](served *Compiled, accepted, undecided []T, opts AdmissionOptions) (quarantine, deferred []bool, ok bool) {
	o := opts.withDefaults()
	pop := len(accepted) + len(undecided)
	if len(undecided) == 0 || pop < o.MinScored {
		return nil, nil, false
	}
	all := make([]T, 0, pop)
	all = append(all, accepted...)
	all = append(all, undecided...)
	// Absolute floors under the MAD threshold gap: a reference made of
	// the build's own members scores its prior optimistically tightly, so
	// without a floor an ordinary same-cluster newcomer (≈1 component-σ
	// out per coordinate ≈ ½ log-density unit per dimension) would read
	// as an outlier. Real attacks land orders of magnitude below either
	// floor.
	var scores []float64
	var gapFloor float64
	if served != nil && len(accepted) > 0 {
		scores = ScoreTasks(served, all)
		gapFloor = 2 * float64(len(all[0].mean()))
	} else {
		scores = FallbackScores(all)
		gapFloor = 4 // FallbackScores are per-coordinate-normalized
	}
	med := median(append([]float64(nil), scores...))
	dev := make([]float64, len(scores))
	for i, s := range scores {
		dev[i] = math.Abs(s - med)
	}
	mad := median(dev)
	thr := med - math.Max(outlierK*1.4826*mad, gapFloor)

	scaleBad := scaleOutliers(all)

	type cand struct {
		idx   int // index into undecided
		score float64
	}
	var cands []cand
	for i := range undecided {
		s := scores[len(accepted)+i]
		if math.IsNaN(s) {
			s = math.Inf(-1)
		}
		if scaleBad[len(accepted)+i] {
			// Rank scale outliers ahead of mere mean outliers: a scoring
			// path the task may have shaped itself must not push it past
			// the trim budget.
			s = math.Inf(-1)
		}
		if s < thr || math.IsInf(s, -1) {
			cands = append(cands, cand{idx: i, score: s})
		}
	}
	quarantine = make([]bool, len(undecided))
	deferred = make([]bool, len(undecided))
	if len(cands) == 0 {
		return quarantine, deferred, true
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score < cands[j].score
		}
		return cands[i].idx < cands[j].idx
	})
	budget := int(o.TrimFrac * float64(pop))
	for _, c := range cands {
		if budget <= 0 {
			deferred[c.idx] = true
			continue
		}
		quarantine[c.idx] = true
		budget--
	}
	return quarantine, deferred, true
}

// Admit runs one admission pass over pool, given in store order.
// verdict(i) returns task i's sticky verdict, if it has one; the tasks
// without one are judged (Judge) against served (nil = cold start) with
// the accepted tasks as reference. Admit returns the tasks a rebuild may
// use, in pool order — order is what keeps a seeded Build byte-identical
// to a clean-only baseline when the admitted sets match — the new
// verdicts by pool index, and the pool indices Judge deferred. When the
// population is still too small to judge, undecided tasks get no verdict
// and are admitted provisionally. A deferred task is the opposite of
// provisional: it also gets no verdict, but is held out of this rebuild
// until a later, larger pass judges it. The caller persists the new
// verdicts. The cloud passes its store's packed tasks (StoredTask) and
// builds from the admitted ones without unpacking them.
func Admit[T Task](pool []T, verdict func(i int) (quarantined, decided bool), served *Prior, opts AdmissionOptions) (admitted []T, verdicts map[int]bool, deferred []int) {
	held := make([]bool, len(pool))
	var accepted, undecided []T
	var undecidedIdx []int
	for i := range pool {
		q, decided := verdict(i)
		switch {
		case !decided:
			undecided = append(undecided, pool[i])
			undecidedIdx = append(undecidedIdx, i)
		case q:
			held[i] = true
		default:
			accepted = append(accepted, pool[i])
		}
	}
	if len(undecided) > 0 {
		var c *Compiled
		if served != nil {
			if comp, err := Compile(served); err == nil {
				c = comp
			}
		}
		if q, def, ok := Judge(c, accepted, undecided, opts); ok {
			verdicts = make(map[int]bool, len(undecided))
			for j, i := range undecidedIdx {
				held[i] = q[j] || def[j]
				if def[j] {
					deferred = append(deferred, i)
				} else {
					verdicts[i] = q[j]
				}
			}
		}
	}
	admitted = make([]T, 0, len(pool))
	for i := range pool {
		if !held[i] {
			admitted = append(admitted, pool[i])
		}
	}
	return admitted, verdicts, deferred
}

// median returns the median of xs, sorting it in place. NaNs sort as
// smaller than everything (they count as catastrophically low scores).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	for i, v := range xs {
		if math.IsNaN(v) {
			xs[i] = math.Inf(-1)
		}
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	lo, hi := xs[n/2-1], xs[n/2]
	if math.IsInf(lo, -1) {
		return lo // avoid -Inf + Inf = NaN in the midpoint
	}
	return lo + (hi-lo)/2
}
