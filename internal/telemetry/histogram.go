package telemetry

import (
	"math"
	"sort"
	"sync/atomic"
)

// DefBuckets are the default histogram bounds, tuned for latencies in
// seconds from sub-millisecond LAN round trips up to multi-second
// retry-with-backoff chains.
var DefBuckets = []float64{
	.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket streaming histogram. Observations land in
// the first bucket whose upper bound is >= the value; values above the
// last bound land in an implicit +Inf overflow bucket. All updates are
// lock-free atomic adds, so concurrent Observe calls never contend on a
// mutex. Count, Sum and the per-bucket counts are each individually
// atomic; a concurrent reader may observe a snapshot mid-update (sum
// updated, count not yet), which is acceptable for monitoring.
type Histogram struct {
	labels string
	bounds []float64       // ascending upper bounds, +Inf excluded
	counts []atomic.Uint64 // len(bounds)+1; last is overflow
	sum    atomicFloat
	count  atomic.Uint64
}

func newHistogram(labels string, bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	// Dedup and drop non-finite bounds (+Inf is implicit).
	out := bs[:0]
	for _, b := range bs {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			continue
		}
		if len(out) > 0 && out[len(out)-1] == b {
			continue
		}
		out = append(out, b)
	}
	return &Histogram{
		labels: labels,
		bounds: out,
		counts: make([]atomic.Uint64, len(out)+1),
	}
}

// Observe records one value. NaN observations are dropped.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v; len(bounds) = overflow
	h.counts[i].Add(1)
	h.sum.add(v)
	h.count.Add(1)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.load() }

// buckets returns cumulative counts per bound plus the +Inf total, for
// Prometheus exposition ({le="bound"} series are cumulative).
func (h *Histogram) buckets() (bounds []float64, cumulative []uint64, infCount uint64) {
	bounds = h.bounds
	cumulative = make([]uint64, len(h.bounds))
	var cum uint64
	for i := range h.bounds {
		cum += h.counts[i].Load()
		cumulative[i] = cum
	}
	infCount = cum + h.counts[len(h.bounds)].Load()
	return bounds, cumulative, infCount
}
