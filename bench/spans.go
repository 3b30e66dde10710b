package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// spanKind names one layer boundary the harness wraps. The names double
// as the "name" field of trace_<workload>.json.
type spanKind uint8

const (
	spOp spanKind = iota // one whole operation; every other span nests under it
	spFetch
	spReport
	spReportBatch
	spCompile
	spFitWasserstein
	spFitKL
	spFitChi2
	spLaplace
	spSyncCycle
	spRegionFlush
	spRegionSyncDown
	spClusterBatch
	spClusterMerged
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	spOp:             "op",
	spFetch:          "edge.fetch",
	spReport:         "edge.report",
	spReportBatch:    "edge.report_batch16",
	spCompile:        "dpprior.compile",
	spFitWasserstein: "core.fit.wasserstein",
	spFitKL:          "core.fit.kl",
	spFitChi2:        "core.fit.chi2",
	spLaplace:        "model.laplace",
	spSyncCycle:      "sync_cycle",
	spRegionFlush:    "region.flush",
	spRegionSyncDown: "region.syncdown",
	spClusterBatch:   "cluster.batch_report",
	spClusterMerged:  "cluster.merged_fetch",
}

// span is one recorded interval. Times are nanoseconds since the
// recorder's epoch; parent is an absolute span ordinal (-1 for a root).
type span struct {
	kind       spanKind
	parent     int64
	op         int64
	start, end int64
}

// spanRingSize bounds one generator's retained spans; older spans are
// overwritten, and the drop count is written into the trace file.
const spanRingSize = 1 << 16

// recorder is one generator's span ring. It is preallocated, owned by a
// single goroutine and never touches disk until the run ends; while off
// (untraced runs, and the untraced half of a traced run's cycles) begin
// and end cost one branch each.
type recorder struct {
	on    bool
	epoch time.Time
	ring  []span
	n     int64 // spans begun so far (ordinal of the next span)
	stack []int64
	op    int64
}

func newRecorder(epoch time.Time) *recorder {
	return &recorder{epoch: epoch, ring: make([]span, spanRingSize), stack: make([]int64, 0, 8)}
}

// begin opens a span under the innermost open one and returns its
// ordinal (-1 while recording is off).
func (r *recorder) begin(k spanKind) int64 {
	if r == nil || !r.on {
		return -1
	}
	parent := int64(-1)
	if len(r.stack) > 0 {
		parent = r.stack[len(r.stack)-1]
	} else {
		r.op++
	}
	id := r.n
	r.n++
	r.ring[id%spanRingSize] = span{kind: k, parent: parent, op: r.op, start: int64(time.Since(r.epoch))}
	r.stack = append(r.stack, id)
	return id
}

// end closes the span begin returned.
func (r *recorder) end(id int64) {
	if id < 0 {
		return
	}
	r.ring[id%spanRingSize].end = int64(time.Since(r.epoch))
	r.stack = r.stack[:len(r.stack)-1]
}

// retained returns the spans still in the ring, oldest first, and the
// ordinal of the first one (which is also how many were overwritten).
func (r *recorder) retained() (spans []span, first int64) {
	if r.n > spanRingSize {
		first = r.n - spanRingSize
	}
	for id := first; id < r.n; id++ {
		spans = append(spans, r.ring[id%spanRingSize])
	}
	return spans, first
}

// spanStats aggregates the retained spans of every generator: per-kind
// durations, per-kind self time (duration minus the part covered by
// child spans), and the total duration of root spans.
type spanStats struct {
	dur      [numSpanKinds][]float64 // seconds
	self     [numSpanKinds]float64   // seconds
	rootWall float64                 // seconds, sum over every root span
}

func collectSpans(recs []*recorder) *spanStats {
	st := &spanStats{}
	for _, r := range recs {
		if r == nil {
			continue
		}
		spans, first := r.retained()
		child := make([]int64, len(spans)) // ns of each span covered by its children
		for i := range spans {
			sp := &spans[i]
			if sp.end == 0 {
				continue // still open when the run ended
			}
			if p := sp.parent - first; sp.parent >= 0 && p >= 0 {
				child[p] += sp.end - sp.start
			}
		}
		for i := range spans {
			sp := &spans[i]
			if sp.end == 0 {
				continue
			}
			d := sp.end - sp.start
			st.dur[sp.kind] = append(st.dur[sp.kind], float64(d)/1e9)
			st.self[sp.kind] += float64(d-child[i]) / 1e9
			if sp.parent < 0 {
				st.rootWall += float64(d) / 1e9
			}
		}
	}
	return st
}

// fitSelf sums the self time of the three fit span kinds.
func (st *spanStats) fitSelf() float64 {
	return st.self[spFitWasserstein] + st.self[spFitKL] + st.self[spFitChi2]
}

// fitDurations concatenates the three fit kinds' durations.
func (st *spanStats) fitDurations() []float64 {
	var all []float64
	for _, k := range []spanKind{spFitWasserstein, spFitKL, spFitChi2} {
		all = append(all, st.dur[k]...)
	}
	return all
}

// traceFile is the on-disk form of a traced run: one record per span,
// readable with jq (see README "Reading trace_<workload>.json").
type traceFile struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Dropped  int64       `json:"dropped_spans"`
	Spans    []traceSpan `json:"spans"`
}

type traceSpan struct {
	Name    string `json:"name"`
	Gen     int    `json:"gen"`
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Op      int64  `json:"op"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func writeTrace(dir, workload string, seed int64, recs []*recorder) (string, error) {
	tf := traceFile{Workload: workload, Seed: seed}
	for g, r := range recs {
		if r == nil {
			continue
		}
		spans, first := r.retained()
		tf.Dropped += first
		for i, sp := range spans {
			if sp.end == 0 {
				continue
			}
			tf.Spans = append(tf.Spans, traceSpan{
				Name: spanNames[sp.kind], Gen: g, ID: first + int64(i), Parent: sp.parent,
				Op: sp.op, StartNs: sp.start, EndNs: sp.end,
			})
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, "trace_"+workload+".json")
	b, err := json.Marshal(tf)
	if err != nil {
		return "", fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}
