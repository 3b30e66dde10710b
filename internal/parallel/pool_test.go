package parallel

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
)

func TestChunkGrid(t *testing.T) {
	cases := []struct {
		n, chunks int
	}{
		{0, 0}, {1, 1}, {255, 1}, {256, 1}, {257, 2}, {512, 2}, {513, 3}, {10_000, 40},
	}
	for _, c := range cases {
		if got := Chunks(c.n); got != c.chunks {
			t.Errorf("Chunks(%d) = %d, want %d", c.n, got, c.chunks)
		}
	}
	// Bounds tile [0, n) exactly, in order, without overlap.
	n := 1000
	next := 0
	for c := 0; c < Chunks(n); c++ {
		lo, hi := ChunkBounds(c, n)
		if lo != next || hi <= lo || hi > n {
			t.Fatalf("chunk %d bounds [%d,%d) break tiling at %d", c, lo, hi, next)
		}
		next = hi
	}
	if next != n {
		t.Fatalf("chunks cover [0,%d), want [0,%d)", next, n)
	}
}

func TestWorkers(t *testing.T) {
	var nilPool *Pool
	if got := nilPool.Workers(); got != 1 {
		t.Errorf("nil pool Workers() = %d, want 1", got)
	}
	if got := New(4).Workers(); got != 4 {
		t.Errorf("New(4).Workers() = %d, want 4", got)
	}
	if got := New(0).Workers(); got < 1 {
		t.Errorf("New(0).Workers() = %d, want >= 1", got)
	}
}

func TestForEachChunkCoversAllOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		p := New(workers)
		n := 5*ChunkRows + 17
		hits := make([]int32, n)
		p.ForEachChunk(n, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: item %d visited %d times", workers, i, h)
			}
		}
	}
}

func TestForEachCoversAllOnce(t *testing.T) {
	p := New(8)
	n := 37
	hits := make([]int32, n)
	p.ForEach(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("item %d visited %d times", i, h)
		}
	}
}

func TestScatterPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("panic in a chunk did not reach the caller")
		}
	}()
	New(4).ForEach(600, func(i int) {
		if i == 300 {
			panic("boom")
		}
	})
}

// TestSumChunkedBitIdentical is the core determinism property: the same
// inputs reduce to the same bits at every worker count, including the
// nil-pool inline path.
func TestSumChunkedBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 255, 256, 257, 1000, 4096, 10_001} {
		x := make([]float64, n)
		for i := range x {
			// Wild exponent range makes the sum order-sensitive, so any
			// grouping drift shows up in the bits.
			x[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(24)-12))
		}
		var nilPool *Pool
		ref := nilPool.SumChunked(n, func(i int) float64 { return x[i] })
		for _, workers := range []int{1, 2, 3, 8, 32} {
			got := New(workers).SumChunked(n, func(i int) float64 { return x[i] })
			if math.Float64bits(got) != math.Float64bits(ref) {
				t.Fatalf("n=%d workers=%d: sum %x differs from inline %x",
					n, workers, math.Float64bits(got), math.Float64bits(ref))
			}
		}
	}
}

func TestTreeReduceMatchesVecs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, k := range []int{1, 2, 3, 5, 8, 13} {
		scalars := make([]float64, k)
		vecs := make([][]float64, k)
		for i := range scalars {
			v := rng.NormFloat64()
			scalars[i] = v
			vecs[i] = []float64{v, 2 * v}
		}
		s := TreeReduce(append([]float64(nil), scalars...))
		vec := TreeReduceVecs(vecs)
		if math.Float64bits(vec[0]) != math.Float64bits(s) {
			t.Fatalf("k=%d: TreeReduceVecs[0] %g != TreeReduce %g", k, vec[0], s)
		}
	}
	if got := TreeReduce(nil); got != 0 {
		t.Errorf("TreeReduce(nil) = %g, want 0", got)
	}
	if got := TreeReduceVecs(nil); got != nil {
		t.Errorf("TreeReduceVecs(nil) = %v, want nil", got)
	}
}

// TestDispatchAllocBudget: a pooled ForEachChunk on two workers
// allocates its scatter batch and the spawned worker's goroutine
// closure, and nothing to adapt the chunk function.
func TestDispatchAllocBudget(t *testing.T) {
	p := New(2)
	var sink [4]int
	fn := func(c, lo, hi int) { sink[c] = hi - lo }
	allocs := testing.AllocsPerRun(200, func() { p.ForEachChunk(4*ChunkRows, fn) })
	t.Logf("one pooled dispatch: %v allocations", allocs)
	if allocs > 2 {
		t.Errorf("one pooled dispatch allocated %v times, budget 2", allocs)
	}
}
