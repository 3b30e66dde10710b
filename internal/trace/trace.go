// Package trace is drdp's zero-dependency distributed-tracing
// subsystem: a span model (TraceID/SpanID/parent links, monotonic
// start/duration, typed attributes, a bounded per-span event log), a
// lock-cheap in-process recorder with head sampling, and a fixed-size
// flight recorder that retains the last N complete traces — plus a
// "notable" ring that pins error/slow traces so a burst of healthy
// traffic cannot evict the one failover trace worth keeping.
//
// Trace context crosses the wire as two uint64s (edge.Request.TraceID /
// ParentSpan). The zero value means untraced: no span is ever allocated
// for an untraced request, so a fleet running with sampling off pays
// nothing. Every Span method is safe on a nil receiver — callers thread
// spans unconditionally and the nil case is the fast path.
//
// The recorder groups spans into per-trace fragments. A fragment is the
// set of spans one process recorded for one TraceID: the edge's root
// span plus its local children, or a server's joined span tree. When the
// fragment's local root ends, the fragment is complete and moves into
// the flight recorder. In-process clusters (the sim harness) share one
// Tracer, so an edge round's fragment contains the server spans of every
// node it touched, distinguished by the "node" attribute.
package trace

import (
	"fmt"
	"sync"
	"time"
)

// TraceID identifies one distributed trace. Zero means untraced.
type TraceID uint64

// SpanID identifies one span within a trace. Zero means no parent.
type SpanID uint64

// String renders the ID as fixed-width hex (JSON-safe: uint64 does not
// survive a float64 round trip above 2^53).
func (t TraceID) String() string { return fmt.Sprintf("%016x", uint64(t)) }

// String renders the ID as fixed-width hex.
func (s SpanID) String() string { return fmt.Sprintf("%016x", uint64(s)) }

// AttrKind discriminates attribute value types.
type AttrKind uint8

// Attribute kinds.
const (
	KindString AttrKind = iota
	KindInt
	KindDuration
)

// Attr is one typed span attribute. Use the constructors (Str, Int,
// Dur); the zero value is a "" string attr.
type Attr struct {
	Key  string
	Kind AttrKind
	Str  string
	Int  int64
}

// Str builds a string attribute.
func Str(key, v string) Attr { return Attr{Key: key, Kind: KindString, Str: v} }

// Int builds an integer attribute.
func Int(key string, v int64) Attr { return Attr{Key: key, Kind: KindInt, Int: v} }

// Dur builds a duration attribute.
func Dur(key string, v time.Duration) Attr { return Attr{Key: key, Kind: KindDuration, Int: int64(v)} }

// Err builds the conventional error attribute.
func Err(err error) Attr { return Str("error", err.Error()) }

// Value renders the attribute value as a string (tables, trees, JSON).
func (a Attr) Value() string {
	switch a.Kind {
	case KindInt:
		return fmt.Sprintf("%d", a.Int)
	case KindDuration:
		return time.Duration(a.Int).String()
	default:
		return a.Str
	}
}

// Event is one timestamped occurrence inside a span: a retry, a shed
// decision, a quarantine verdict. Offset is relative to the span start.
type Event struct {
	Offset time.Duration
	Name   string
	Attrs  []Attr
}

// maxEvents bounds one span's event log; past it, events are dropped
// and counted so a retry storm cannot balloon a span.
const maxEvents = 32

// Span is one timed operation in a trace. Spans are created through
// Tracer.StartTrace / Tracer.Join / Span.Child and finished with End or
// EndErr. All methods are safe on a nil receiver (the untraced path)
// and safe for concurrent use (a client span may receive events from a
// breaker callback while the request runs).
type Span struct {
	frag *fragment

	trace  TraceID
	id     SpanID
	parent SpanID
	name   string

	start time.Time // carries the monotonic clock

	mu      sync.Mutex
	dur     time.Duration
	ended   bool
	err     string
	notable bool
	attrs   []Attr
	events  []Event
	dropped int // events beyond maxEvents
}

// Pin marks the span's trace notable regardless of error or duration,
// so the flight recorder retains it in the pinned ring. Use for rare
// events worth keeping through bursts of healthy traffic — failovers,
// promotions — that are neither failures nor slow.
func (s *Span) Pin() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.notable = true
	s.mu.Unlock()
}

// TraceID returns the span's trace, or 0 on a nil span.
func (s *Span) TraceID() TraceID {
	if s == nil {
		return 0
	}
	return s.trace
}

// ID returns the span's ID, or 0 on a nil span.
func (s *Span) ID() SpanID {
	if s == nil {
		return 0
	}
	return s.id
}

// WireContext returns the (TraceID, SpanID) pair to propagate in a
// request. Both are 0 on a nil span — the untraced wire form.
func (s *Span) WireContext() (uint64, uint64) {
	if s == nil {
		return 0, 0
	}
	return uint64(s.trace), uint64(s.id)
}

// SetAttr appends attributes to the span.
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, attrs...)
	s.mu.Unlock()
}

// Event records one occurrence on the span's bounded event log.
func (s *Span) Event(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	off := time.Since(s.start)
	s.mu.Lock()
	if len(s.events) >= maxEvents {
		s.dropped++
	} else {
		s.events = append(s.events, Event{Offset: off, Name: name, Attrs: attrs})
	}
	s.mu.Unlock()
}

// Child starts a child span in the same trace and fragment. Returns nil
// on a nil receiver, so untraced call chains stay allocation-free.
func (s *Span) Child(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	return s.frag.newSpan(name, s.id, attrs)
}

// End finishes the span. The first End wins; later calls are no-ops.
// When the span is its fragment's root, the fragment completes and
// moves into the flight recorder.
func (s *Span) End() { s.EndErr(nil) }

// EndErr finishes the span, recording err (nil = success).
func (s *Span) EndErr(err error) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.dur = time.Since(s.start)
	if err != nil {
		s.err = err.Error()
	}
	s.mu.Unlock()
	s.frag.spanEnded(s)
}

// Failed reports whether the span ended with an error.
func (s *Span) Failed() bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err != ""
}

// Duration returns the span's duration (0 while still open).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dur
}
