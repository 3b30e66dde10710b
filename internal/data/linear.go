package data

import (
	"fmt"
	"math/rand"

	"github.com/drdp/drdp/internal/mat"
)

// LinearTask is a binary classification task with standard-Gaussian
// features and labels sign(Wᵀx + Bias), flipped with probability Flip —
// the canonical small-sample edge task of the evaluation. The true
// Bayes-optimal logistic parameters are proportional to [W; Bias], which
// is what lets experiments measure parameter recovery directly.
type LinearTask struct {
	W    mat.Vec
	Bias float64
	Flip float64 // label flip probability in [0, 1)
}

// Dim returns the feature dimensionality.
func (t LinearTask) Dim() int { return len(t.W) }

// Params returns the flattened true parameters [W; Bias] in the layout of
// model.Logistic.
func (t LinearTask) Params() mat.Vec {
	return append(mat.CloneVec(t.W), t.Bias)
}

// Sample draws n labeled samples.
func (t LinearTask) Sample(rng *rand.Rand, n int) *Dataset {
	x := mat.NewDense(n, t.Dim())
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		if mat.Dot(t.W, row)+t.Bias >= 0 {
			y[i] = 1
		} else {
			y[i] = -1
		}
		if t.Flip > 0 && rng.Float64() < t.Flip {
			y[i] = -y[i]
		}
	}
	return &Dataset{X: x, Y: y, NumClasses: 2}
}

// SampleImbalanced draws n samples with the positive class constrained
// to the fraction posFrac by rejection — the class-imbalance stressor
// (rare-event detection at the edge). Label noise applies after the
// class quota is met, so the imbalance level is exact.
func (t LinearTask) SampleImbalanced(rng *rand.Rand, n int, posFrac float64) (*Dataset, error) {
	if posFrac <= 0 || posFrac >= 1 {
		return nil, fmt.Errorf("data: SampleImbalanced: posFrac %g must be in (0,1)", posFrac)
	}
	nPos := int(float64(n)*posFrac + 0.5)
	if nPos < 1 {
		nPos = 1
	}
	if nPos >= n {
		nPos = n - 1
	}
	x := mat.NewDense(n, t.Dim())
	y := make([]float64, n)
	havePos, haveNeg := 0, nPos // negatives fill indices nPos..n-1
	fill := func(idx int, wantPos bool) {
		row := x.Row(idx)
		for {
			for j := range row {
				row[j] = rng.NormFloat64()
			}
			isPos := mat.Dot(t.W, row)+t.Bias >= 0
			if isPos == wantPos {
				break
			}
		}
		if wantPos {
			y[idx] = 1
		} else {
			y[idx] = -1
		}
	}
	for havePos < nPos {
		fill(havePos, true)
		havePos++
	}
	for haveNeg < n {
		fill(haveNeg, false)
		haveNeg++
	}
	ds := &Dataset{X: x, Y: y, NumClasses: 2}
	if t.Flip > 0 {
		for i := range ds.Y {
			if rng.Float64() < t.Flip {
				ds.Y[i] = -ds.Y[i]
			}
		}
	}
	ds.Shuffle(rng)
	return ds, nil
}

// TaskFamily generates related binary tasks: true weight vectors are
// drawn as cluster center + within-cluster noise, mirroring a cloud that
// has seen several groups of similar IoT deployments. Relatedness is
// controlled by Within (small = tasks nearly identical inside a cluster).
type TaskFamily struct {
	Centers []mat.Vec // cluster centers in weight space
	Within  float64   // within-cluster std of task weights
	Flip    float64   // label noise applied to all tasks
}

// NewTaskFamily draws nClusters centers of norm ≈ spread in dimension dim.
func NewTaskFamily(rng *rand.Rand, dim, nClusters int, spread, within float64) (*TaskFamily, error) {
	if dim <= 0 || nClusters <= 0 {
		return nil, fmt.Errorf("data: NewTaskFamily: dim=%d clusters=%d", dim, nClusters)
	}
	if spread <= 0 || within < 0 {
		return nil, fmt.Errorf("data: NewTaskFamily: spread=%g within=%g", spread, within)
	}
	f := &TaskFamily{Centers: make([]mat.Vec, nClusters), Within: within}
	for c := range f.Centers {
		v := make(mat.Vec, dim)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		norm := mat.Norm2(v)
		if norm == 0 {
			v[0] = 1
			norm = 1
		}
		mat.Scale(spread/norm, v)
		f.Centers[c] = v
	}
	return f, nil
}

// SampleTask draws one task from cluster c (c = -1 picks uniformly).
func (f *TaskFamily) SampleTask(rng *rand.Rand, c int) LinearTask {
	if c < 0 {
		c = rng.Intn(len(f.Centers))
	}
	w := mat.CloneVec(f.Centers[c%len(f.Centers)])
	for j := range w {
		w[j] += f.Within * rng.NormFloat64()
	}
	return LinearTask{W: w, Bias: 0.2 * f.Within * rng.NormFloat64(), Flip: f.Flip}
}

// CloudTasks draws k tasks cycling through the clusters, the workload the
// cloud has already solved before the edge device appears.
func (f *TaskFamily) CloudTasks(rng *rand.Rand, k int) []LinearTask {
	out := make([]LinearTask, k)
	for i := range out {
		out[i] = f.SampleTask(rng, i%len(f.Centers))
	}
	return out
}

// BlobTask is a multiclass task: class c draws features from
// N(Centers[c], Noise² I). Labels are class indices.
type BlobTask struct {
	Centers []mat.Vec
	Noise   float64
}

// NewBlobTask places classes at random centers with pairwise separation
// governed by spread.
func NewBlobTask(rng *rand.Rand, dim, classes int, spread, noise float64) (*BlobTask, error) {
	if dim <= 0 || classes < 2 {
		return nil, fmt.Errorf("data: NewBlobTask: dim=%d classes=%d", dim, classes)
	}
	if spread <= 0 || noise <= 0 {
		return nil, fmt.Errorf("data: NewBlobTask: spread=%g noise=%g", spread, noise)
	}
	b := &BlobTask{Centers: make([]mat.Vec, classes), Noise: noise}
	for c := range b.Centers {
		v := make(mat.Vec, dim)
		for j := range v {
			v[j] = spread * rng.NormFloat64()
		}
		b.Centers[c] = v
	}
	return b, nil
}

// Dim returns the feature dimensionality.
func (b *BlobTask) Dim() int { return len(b.Centers[0]) }

// Classes returns the number of classes.
func (b *BlobTask) Classes() int { return len(b.Centers) }

// Sample draws n samples with balanced class proportions.
func (b *BlobTask) Sample(rng *rand.Rand, n int) *Dataset {
	x := mat.NewDense(n, b.Dim())
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		c := i % b.Classes()
		y[i] = float64(c)
		row := x.Row(i)
		for j := range row {
			row[j] = b.Centers[c][j] + b.Noise*rng.NormFloat64()
		}
	}
	ds := &Dataset{X: x, Y: y, NumClasses: b.Classes()}
	ds.Shuffle(rng)
	return ds
}
