package trace

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Defaults for Tracer configuration.
const (
	// DefaultCapacity is the recent-trace flight-recorder ring size.
	DefaultCapacity = 64
	// DefaultNotableCapacity is the pinned error/slow ring size.
	DefaultNotableCapacity = 32
	// DefaultSlowThreshold marks a trace notable by root duration.
	DefaultSlowThreshold = 250 * time.Millisecond
	// maxSpansPerTrace bounds one fragment; spans past it are dropped
	// and counted, so a runaway loop cannot exhaust memory.
	maxSpansPerTrace = 512
)

// Stats are a tracer's own counters, for /tracez and tests.
type Stats struct {
	Started      uint64 // sampling decisions taken (StartTrace + Record)
	Sampled      uint64 // decisions that started a recorded trace
	Joined       uint64 // remote fragments joined
	Completed    uint64 // fragments moved into the flight recorder
	Notable      uint64 // completed fragments pinned as error/slow
	SpansDropped uint64 // spans discarded over the per-trace bound
}

// Tracer is the in-process span recorder plus flight recorder. All
// methods are safe for concurrent use. The hot path — a sampling
// decision that says no — is one atomic load and one atomic add.
type Tracer struct {
	rateBits atomic.Uint64 // float64 bits of SampleRate
	slowNs   atomic.Int64

	idCtr  atomic.Uint64
	idBase uint64

	started      atomic.Uint64
	sampled      atomic.Uint64
	joined       atomic.Uint64
	completed    atomic.Uint64
	notable      atomic.Uint64
	spansDropped atomic.Uint64

	mu         sync.Mutex
	recent     []*TraceDump // ring, nil until written
	recentNext int
	pinned     []*TraceDump // notable ring
	pinnedNext int
}

// New builds a Tracer with sampling off, DefaultCapacity recent and
// DefaultNotableCapacity notable traces, and DefaultSlowThreshold. A
// nonzero seed makes ID generation and the sampling sequence
// deterministic (tests); 0 derives a base from the clock.
func New(seed int64) *Tracer {
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	t := &Tracer{
		idBase: splitmix64(uint64(seed)),
		recent: make([]*TraceDump, DefaultCapacity),
		pinned: make([]*TraceDump, DefaultNotableCapacity),
	}
	t.slowNs.Store(int64(DefaultSlowThreshold))
	return t
}

// Default is the process-wide tracer the edge/cluster instrumentation
// records into. Sampling starts off; daemons enable it via
// -trace-sample, tests and the sim audit via SetSampleRate.
var Default = New(0)

// SetSampleRate adjusts head sampling on a live tracer (clamped to
// [0, 1]): the probability that a locally started trace (StartTrace,
// Record) is recorded. At 0 no local span is allocated. Joined traces (a
// request that arrived with a TraceID) are always recorded: the
// originator already paid the sampling decision.
func (t *Tracer) SetSampleRate(r float64) {
	if math.IsNaN(r) || r < 0 {
		r = 0
	}
	if r > 1 {
		r = 1
	}
	t.rateBits.Store(math.Float64bits(r))
}

// SampleRate returns the current head-sampling rate.
func (t *Tracer) SampleRate() float64 { return math.Float64frombits(t.rateBits.Load()) }

// SetSlowThreshold adjusts the notable-by-duration bound (negative
// disables slow pinning).
func (t *Tracer) SetSlowThreshold(d time.Duration) { t.slowNs.Store(int64(d)) }

// Stats snapshots the tracer's counters.
func (t *Tracer) Stats() Stats {
	return Stats{
		Started:      t.started.Load(),
		Sampled:      t.sampled.Load(),
		Joined:       t.joined.Load(),
		Completed:    t.completed.Load(),
		Notable:      t.notable.Load(),
		SpansDropped: t.spansDropped.Load(),
	}
}

// splitmix64 is the SplitMix64 finalizer: a cheap, well-mixed 64-bit
// hash used for ID generation and the deterministic sampling sequence.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// nextID draws a process-unique nonzero ID.
func (t *Tracer) nextID() uint64 {
	for {
		if id := splitmix64(t.idBase + t.idCtr.Add(1)); id != 0 {
			return id
		}
	}
}

// sample takes one head-sampling decision. Deterministic given the
// tracer seed: decision k depends only on the seed and k.
func (t *Tracer) sample() bool {
	rate := t.SampleRate()
	if rate <= 0 {
		return false
	}
	t.started.Add(1)
	if rate >= 1 {
		t.sampled.Add(1)
		return true
	}
	n := t.idCtr.Add(1)
	// Map the hash to [0,1) and compare against the rate.
	u := float64(splitmix64(t.idBase^0xa5a5a5a5a5a5a5a5+n)>>11) / float64(1<<53)
	if u < rate {
		t.sampled.Add(1)
		return true
	}
	return false
}

// StartTrace begins a new locally rooted trace, subject to head
// sampling. Returns nil (the no-op span) when the trace is not sampled.
func (t *Tracer) StartTrace(name string, attrs ...Attr) *Span {
	if !t.sample() {
		return nil
	}
	f := &fragment{t: t, trace: TraceID(t.nextID())}
	return f.newSpan(name, 0, attrs)
}

// Join starts a fragment for a trace that arrived over the wire: the
// originator sampled it, so it is always recorded. traceID 0 (the
// untraced wire form) returns nil without allocating.
func (t *Tracer) Join(traceID, parentSpan uint64, name string, attrs ...Attr) *Span {
	if traceID == 0 {
		return nil
	}
	t.joined.Add(1)
	f := &fragment{t: t, trace: TraceID(traceID)}
	return f.newSpan(name, SpanID(parentSpan), attrs)
}

// Record retro-records one already-finished operation as a single-span
// trace, subject to head sampling. Used where the decision to trace is
// only knowable after the fact (e.g. "this replication pull actually
// shipped frames").
func (t *Tracer) Record(name string, start time.Time, d time.Duration, err error, attrs ...Attr) {
	if !t.sample() {
		return
	}
	f := &fragment{t: t, trace: TraceID(t.nextID())}
	sp := f.newSpan(name, 0, attrs)
	sp.start = start
	sp.mu.Lock()
	sp.ended = true
	sp.dur = d
	if err != nil {
		sp.err = err.Error()
	}
	sp.mu.Unlock()
	f.spanEnded(sp)
}

// fragment is the set of spans one process records for one trace. The
// first span created is the fragment root; when it ends, the fragment
// is dumped and offered to the flight recorder.
type fragment struct {
	t     *Tracer
	trace TraceID

	mu      sync.Mutex
	spans   []*Span
	root    *Span
	done    bool
	dropped int
}

func (f *fragment) newSpan(name string, parent SpanID, attrs []Attr) *Span {
	sp := &Span{
		frag:   f,
		trace:  f.trace,
		id:     SpanID(f.t.nextID()),
		parent: parent,
		name:   name,
		start:  time.Now(),
		attrs:  attrs,
	}
	f.mu.Lock()
	if f.root == nil {
		f.root = sp
	}
	if len(f.spans) >= maxSpansPerTrace {
		f.dropped++
		f.t.spansDropped.Add(1)
	} else {
		f.spans = append(f.spans, sp)
	}
	f.mu.Unlock()
	return sp
}

// spanEnded completes the fragment when the ended span is its root.
func (f *fragment) spanEnded(sp *Span) {
	f.mu.Lock()
	if f.done || sp != f.root {
		f.mu.Unlock()
		return
	}
	f.done = true
	spans := append([]*Span(nil), f.spans...)
	dropped := f.dropped
	f.mu.Unlock()
	f.t.complete(dump(f.trace, spans, dropped))
}

// complete files a finished trace into the flight recorder: always into
// the recent ring, and additionally into the pinned ring when the trace
// errored or its root ran past the slow threshold.
func (t *Tracer) complete(td *TraceDump) {
	slow := time.Duration(t.slowNs.Load())
	td.Notable = td.Err || td.Pinned || (slow >= 0 && td.Dur >= slow)
	t.completed.Add(1)
	t.mu.Lock()
	t.recent[t.recentNext] = td
	t.recentNext = (t.recentNext + 1) % len(t.recent)
	if td.Notable {
		t.notable.Add(1)
		t.pinned[t.pinnedNext] = td
		t.pinnedNext = (t.pinnedNext + 1) % len(t.pinned)
	}
	t.mu.Unlock()
}

// Snapshot copies the flight recorder: recent traces and pinned
// (error/slow) traces, each oldest first.
func (t *Tracer) Snapshot() Snapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	return Snapshot{
		Recent:  ringCopy(t.recent, t.recentNext),
		Notable: ringCopy(t.pinned, t.pinnedNext),
		Stats:   t.Stats(),
	}
}

// Find returns every retained dump of one trace (a trace can appear in
// both rings), newest first; nil when the recorder no longer holds it.
func (t *Tracer) Find(id TraceID) []*TraceDump {
	snap := t.Snapshot()
	var out []*TraceDump
	for i := len(snap.Notable) - 1; i >= 0; i-- {
		if snap.Notable[i].Trace == id.String() {
			out = append(out, snap.Notable[i])
		}
	}
	for i := len(snap.Recent) - 1; i >= 0; i-- {
		if snap.Recent[i].Trace == id.String() {
			out = append(out, snap.Recent[i])
		}
	}
	return out
}

func ringCopy(ring []*TraceDump, next int) []*TraceDump {
	out := make([]*TraceDump, 0, len(ring))
	for i := 0; i < len(ring); i++ {
		if td := ring[(next+i)%len(ring)]; td != nil {
			out = append(out, td)
		}
	}
	return out
}

// Snapshot is a point-in-time copy of the flight recorder.
type Snapshot struct {
	Recent  []*TraceDump `json:"recent"`
	Notable []*TraceDump `json:"notable"`
	Stats   Stats        `json:"stats"`
}
