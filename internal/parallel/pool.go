// Package parallel is the shared worker-pool evaluation layer behind
// drdp's training hot paths: per-sample losses, worst-case weights,
// weighted gradients and multi-start EM all fan out through a Pool.
//
// The design invariant is determinism. Work over n items is split on a
// fixed chunk grid (ChunkRows items per chunk) that depends only on n —
// never on the worker count or GOMAXPROCS — and per-chunk partial
// results are combined by a fixed-order pairwise tree reduction
// (TreeReduce, TreeReduceVecs). Because each chunk is computed exactly
// as the serial code would compute it and the combination order is a
// pure function of the chunk count, results are bit-for-bit identical
// at any parallelism level, including fully inline execution on a nil
// Pool. Parallelism changes who computes a chunk, never what is
// computed or in which order partials meet.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ChunkRows is the fixed chunk size of the evaluation grid. It is a
// constant on purpose: making it adaptive to the worker count would
// change summation groupings — and therefore low-order float bits —
// with the parallelism setting. 256 rows keeps per-chunk work large
// enough (tens of microseconds for typical feature counts) to amortize
// dispatch overhead while still exposing parallelism at edge-scale n.
const ChunkRows = 256

// Pool executes chunked batch work on up to Workers goroutines. The
// zero of *Pool (nil) is valid and runs everything inline on the
// calling goroutine — the serial reference path that parallel runs are
// bit-identical to. A Pool holds no goroutines between calls (workers
// are spawned per batch and exit with it), so it needs no Close and is
// safe to share between any number of concurrent callers.
type Pool struct {
	workers int
}

// New returns a pool of n workers; n <= 0 picks runtime.GOMAXPROCS(0).
func New(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: n}
}

// Workers returns the configured worker count; a nil pool reports 1.
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// Chunks returns the number of grid chunks for n items:
// ceil(n/ChunkRows). It depends only on n.
func Chunks(n int) int {
	return (n + ChunkRows - 1) / ChunkRows
}

// ChunkBounds returns the [lo, hi) item range of chunk c of n items.
func ChunkBounds(c, n int) (lo, hi int) {
	lo = c * ChunkRows
	hi = lo + ChunkRows
	if hi > n {
		hi = n
	}
	return lo, hi
}

// ForEachChunk calls fn(chunk, lo, hi) for every grid chunk of [0, n)
// and returns when all chunks are done. Chunks run concurrently on up
// to Workers goroutines; fn must confine its writes to chunk-private
// state or to disjoint ranges of shared buffers (out[lo:hi] patterns).
// A nil pool, a single worker, or a single chunk runs inline on the
// calling goroutine. A panic in any chunk is re-raised on the caller.
func (p *Pool) ForEachChunk(n int, fn func(chunk, lo, hi int)) {
	chunks := Chunks(n)
	if chunks == 0 {
		return
	}
	w := p.Workers()
	if w > chunks {
		w = chunks
	}
	if w <= 1 {
		for c := 0; c < chunks; c++ {
			lo, hi := ChunkBounds(c, n)
			fn(c, lo, hi)
		}
		return
	}
	p.scatter(w, &scatterBatch{tasks: chunks, items: n, chunk: fn})
}

// ForEach calls fn(i) for every i in [0, n) at grain 1 — the right
// shape for small counts of expensive independent tasks, such as
// per-component Gaussian density evaluations or multi-start EM runs.
// The same write-disjointness and panic contract as ForEachChunk
// applies.
func (p *Pool) ForEach(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	w := p.Workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	p.scatter(w, &scatterBatch{tasks: n, fn: fn})
}

// scatter runs b's tasks 0..b.tasks-1 on w workers pulling indices from
// a shared atomic counter: w−1 spawned goroutines plus the calling
// goroutine, which works its share instead of idling in Wait. It
// re-raises the first task panic on the calling goroutine once every
// worker has stopped.
func (p *Pool) scatter(w int, b *scatterBatch) {
	b.wg.Add(w - 1)
	for g := 1; g < w; g++ {
		go b.spawned()
	}
	b.work()
	b.wg.Wait()
	if b.panicV != nil {
		panic(b.panicV)
	}
}

// scatterBatch is one scatter call's shared state, in one allocation.
// Task i calls fn(i), or, for a chunk batch over items, chunk(i, lo, hi)
// on chunk i's bounds; holding the chunk function here spares a wrapper
// closure per dispatch.
type scatterBatch struct {
	next    atomic.Int64
	tasks   int
	fn      func(i int)
	items   int
	chunk   func(c, lo, hi int)
	wg      sync.WaitGroup
	panicMu sync.Mutex
	panicV  any
}

func (b *scatterBatch) spawned() {
	defer b.wg.Done()
	b.work()
}

// work runs tasks until none are left, capturing the first panic.
func (b *scatterBatch) work() {
	defer func() {
		if r := recover(); r != nil {
			b.panicMu.Lock()
			if b.panicV == nil {
				b.panicV = r
			}
			b.panicMu.Unlock()
		}
	}()
	for {
		i := int(b.next.Add(1)) - 1
		if i >= b.tasks {
			return
		}
		if b.chunk != nil {
			lo, hi := ChunkBounds(i, b.items)
			b.chunk(i, lo, hi)
		} else {
			b.fn(i)
		}
	}
}

// SumChunked computes Σ_{i<n} term(i) with per-chunk left-to-right
// partial sums combined by the fixed-order tree — the deterministic
// replacement for a serial accumulation loop. A single chunk is summed
// inline: its tree is the chunk's own partial, so the bits are the same.
func (p *Pool) SumChunked(n int, term func(i int) float64) float64 {
	if Chunks(n) == 1 {
		return sumRange(term, 0, n)
	}
	return p.NewSummer(n, term).Sum()
}

// Sum is SumChunked over the entries of x.
func (p *Pool) Sum(x []float64) float64 {
	if Chunks(len(x)) == 1 {
		var s float64
		for _, v := range x {
			s += v
		}
		return s
	}
	return p.SumChunked(len(x), func(i int) float64 { return x[i] })
}

// Summer is a SumChunked evaluated many times: its partials and chunk
// function are built once, so an iterative solver whose term reads its
// changing parameters from captured variables allocates nothing per
// evaluation beyond what the pool spends on dispatch.
type Summer struct {
	p     *Pool
	n     int
	term  func(i int) float64
	parts []float64
	chunk func(c, lo, hi int)
}

// NewSummer returns a Summer of term over [0, n).
func (p *Pool) NewSummer(n int, term func(i int) float64) *Summer {
	s := &Summer{p: p, n: n, term: term}
	if Chunks(n) > 1 {
		s.parts = make([]float64, Chunks(n))
		s.chunk = func(c, lo, hi int) { s.parts[c] = sumRange(term, lo, hi) }
	}
	return s
}

// Sum returns SumChunked(n, term) at the term's current parameters.
func (s *Summer) Sum() float64 {
	if s.parts == nil {
		return sumRange(s.term, 0, s.n)
	}
	s.p.ForEachChunk(s.n, s.chunk)
	return TreeReduce(s.parts)
}

func sumRange(term func(i int) float64, lo, hi int) float64 {
	var s float64
	for i := lo; i < hi; i++ {
		s += term(i)
	}
	return s
}

// TreeReduce sums scalar partials by fixed-order pairwise folding:
// stride-1 neighbors first, then stride 2, 4, … The result depends
// only on len(parts) and the values, never on execution order.
func TreeReduce(parts []float64) float64 {
	if len(parts) == 0 {
		return 0
	}
	for stride := 1; stride < len(parts); stride *= 2 {
		for i := 0; i+stride < len(parts); i += 2 * stride {
			parts[i] += parts[i+stride]
		}
	}
	return parts[0]
}

// TreeReduceVecs sums equal-length vector partials with the same fixed
// pairwise tree as TreeReduce, accumulating in place into parts[0],
// which it returns. The non-root partials are clobbered.
func TreeReduceVecs(parts [][]float64) []float64 {
	if len(parts) == 0 {
		return nil
	}
	for stride := 1; stride < len(parts); stride *= 2 {
		for i := 0; i+stride < len(parts); i += 2 * stride {
			a, b := parts[i], parts[i+stride]
			for j, v := range b {
				a[j] += v
			}
		}
	}
	return parts[0]
}
