package model

import (
	"github.com/drdp/drdp/internal/mat"
	"github.com/drdp/drdp/internal/parallel"
)

// Batch is a training set laid out once on the fixed parallel chunk
// grid for repeated full-data sweeps by one model: a row view and a
// gradient partial per chunk and, when the model is a Sweeper, the memo
// of its last loss sweep. Reusing them keeps a sweep from allocating
// them. A Batch is not safe for concurrent use.
type Batch struct {
	model   Model
	sweeper Sweeper // model's Sweeper form, when memo is kept
	x       *mat.Dense
	y       []float64
	rows    []*mat.Dense // chunk c's rows of x
	parts   [][]float64  // chunk c's gradient partial; nil with one chunk
	memo    []float64    // sweeper memo of the last Losses call
}

// NewBatch lays out x, y for repeated sweeps by m.
func NewBatch(m Model, x *mat.Dense, y []float64) *Batch {
	b := newBatch(m, x, y)
	if s, ok := m.(Sweeper); ok {
		b.sweeper, b.memo = s, make([]float64, SweepMemo*x.Rows)
	}
	return b
}

// newBatch is a Batch without a memo, for one-shot sweeps.
func newBatch(m Model, x *mat.Dense, y []float64) *Batch {
	checkData(m, x, y)
	b := &Batch{model: m, x: x, y: y, rows: make([]*mat.Dense, parallel.Chunks(x.Rows))}
	for c := range b.rows {
		lo, hi := parallel.ChunkBounds(c, x.Rows)
		b.rows[c] = x.RowSlice(lo, hi)
	}
	if len(b.rows) > 1 {
		b.parts = make([][]float64, len(b.rows))
		for c := range b.parts {
			b.parts[c] = make(mat.Vec, m.NumParams())
		}
	}
	return b
}

// Losses is ParLosses over the batch. For a Sweeper it also records the
// memo the next WeightedGrad reads.
func (b *Batch) Losses(p *parallel.Pool, params mat.Vec, out []float64) []float64 {
	checkParams(b.model, params)
	out = ensureOut(out, b.x.Rows)
	if len(b.rows) == 1 {
		b.losses(params, 0, 0, b.x.Rows, out)
		return out
	}
	p.ForEachChunk(b.x.Rows, func(c, lo, hi int) {
		b.losses(params, c, lo, hi, out[lo:hi])
	})
	return out
}

func (b *Batch) losses(params mat.Vec, c, lo, hi int, out []float64) {
	if b.memo != nil {
		b.sweeper.LossesSweep(params, b.rows[c], b.y[lo:hi], out, b.memo[SweepMemo*lo:SweepMemo*hi])
		return
	}
	b.model.Losses(params, b.rows[c], b.y[lo:hi], out)
}

// WeightedGrad is ParWeightedGrad over the batch. params must be those
// of the last Losses call: a Sweeper's gradient reads that call's memo.
func (b *Batch) WeightedGrad(p *parallel.Pool, params mat.Vec, w []float64, grad mat.Vec) mat.Vec {
	checkParams(b.model, params)
	if len(w) != b.x.Rows {
		panic("model: ParWeightedGrad: weights length mismatch")
	}
	grad = ensureGrad(grad, b.model.NumParams())
	switch len(b.rows) {
	case 0:
		return grad
	case 1:
		// One chunk: accumulate straight into grad, matching the plain
		// serial call byte for byte.
		return b.weightedGrad(params, 0, 0, b.x.Rows, w, grad)
	}
	p.ForEachChunk(b.x.Rows, func(c, lo, hi int) {
		mat.Fill(b.parts[c], 0)
		b.weightedGrad(params, c, lo, hi, w[lo:hi], b.parts[c])
	})
	mat.Axpy(1, parallel.TreeReduceVecs(b.parts), grad)
	return grad
}

func (b *Batch) weightedGrad(params mat.Vec, c, lo, hi int, w []float64, grad mat.Vec) mat.Vec {
	if b.memo != nil {
		return b.sweeper.WeightedGradSweep(params, b.rows[c], b.y[lo:hi], w, b.memo[SweepMemo*lo:SweepMemo*hi], grad)
	}
	return b.model.WeightedGrad(params, b.rows[c], b.y[lo:hi], w, grad)
}

// ParLosses is the data-parallel form of Model.Losses: rows are split
// on the fixed parallel chunk grid and each chunk's losses are written
// into its disjoint slice of out. Per-sample values are computed by the
// same kernel as the serial path, so the result is bit-identical to
// m.Losses at any worker count (writes never meet, no reduction).
func ParLosses(p *parallel.Pool, m Model, params mat.Vec, x *mat.Dense, y []float64, out []float64) []float64 {
	return newBatch(m, x, y).Losses(p, params, out)
}

// ParWeightedGrad is the data-parallel form of Model.WeightedGrad:
// each chunk accumulates Σ_{i∈chunk} w_i ∇ℓ_i into a chunk-private
// buffer exactly as the serial kernel would, the partials are combined
// by the fixed-order tree reduction, and the tree sum is added into
// grad. The chunk grid and tree depend only on x.Rows, so the result
// is bit-for-bit identical at any worker count and any GOMAXPROCS.
func ParWeightedGrad(p *parallel.Pool, m Model, params mat.Vec, x *mat.Dense, y []float64, w []float64, grad mat.Vec) mat.Vec {
	return newBatch(m, x, y).WeightedGrad(p, params, w, grad)
}
