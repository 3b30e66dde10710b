// Package telemetry is drdp's observability layer: an allocation-light,
// dependency-free metrics registry (atomic counters, gauges and streaming
// histograms with quantile estimation), Prometheus-text / expvar / pprof
// exposition over HTTP, and the slog plumbing the transport and training
// layers log through.
//
// Metric names follow the convention drdp_<layer>_<name>_<unit>
// (see DESIGN.md): the layer is the package that emits the metric
// (core, edge_client, edge_server, store, ...), the unit suffix is
// _total for counters, _seconds/_bytes for quantities, and bare names
// for gauges. The standard instrument set lives in instruments.go; all
// of it registers against Default so any drdp process exposes the full
// vocabulary (at zero) from its first scrape.
package telemetry

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension (e.g. {Key: "kind", Value: "get-prior"}).
// Instruments with the same name but different labels are distinct time
// series within one metric family.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// kind discriminates instrument types within a family.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// instrument is a family's child: a *Counter, *Gauge or *Histogram,
// which exposition tells apart by type.
type instrument any

// family groups all instruments sharing one metric name.
type family struct {
	name string
	kind kind

	mu       sync.Mutex
	children map[string]instrument
	order    []instrument // insertion order for stable exposition
}

// Registry holds metric families and renders them for exposition. The
// zero value is not usable; call NewRegistry. All methods are safe for
// concurrent use, and instrument handles (Counter etc.) are safe to
// update from any goroutine without further synchronization.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	helps    map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		families: make(map[string]*family),
		helps:    make(map[string]string),
	}
}

// Default is the process-wide registry the standard drdp instruments
// register against and that Snapshot()/Handler default to.
var Default = NewRegistry()

// familyFor returns (creating if needed) the family for name, enforcing
// that one name maps to one instrument kind. A kind clash is a
// programming error (two call sites disagree about what the metric is)
// and panics, mirroring AddRow in package experiment.
func (r *Registry) familyFor(name string, k kind) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, kind: k, children: make(map[string]instrument)}
		r.families[name] = f
		return f
	}
	if f.kind != k {
		panic("telemetry: metric " + name + " registered as " + f.kind.String() + ", requested as " + k.String())
	}
	return f
}

// child returns the existing instrument for the label set or stores and
// returns fresh (built by mk).
func (f *family) child(labels []Label, mk func(ls string) instrument) instrument {
	ls := renderLabels(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if in, ok := f.children[ls]; ok {
		return in
	}
	in := mk(ls)
	f.children[ls] = in
	f.order = append(f.order, in)
	return in
}

// Counter returns the counter for name+labels, creating it on first use.
// Repeated calls with the same name and labels return the same handle.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	f := r.familyFor(name, kindCounter)
	return f.child(labels, func(ls string) instrument {
		return &Counter{labels: ls}
	}).(*Counter)
}

// Gauge returns the gauge for name+labels, creating it on first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	f := r.familyFor(name, kindGauge)
	return f.child(labels, func(ls string) instrument {
		return &Gauge{labels: ls}
	}).(*Gauge)
}

// Histogram returns the histogram for name+labels, creating it with the
// given bucket upper bounds (nil = DefBuckets) on first use. Bounds are
// sorted and deduplicated; an implicit +Inf bucket is always appended.
// Bounds are fixed at first creation: later calls reuse the existing
// histogram regardless of the bounds argument.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	f := r.familyFor(name, kindHistogram)
	return f.child(labels, func(ls string) instrument {
		return newHistogram(ls, bounds)
	}).(*Histogram)
}

// SetHelp attaches a HELP string to the metric family, emitted in the
// Prometheus exposition. Help may be declared before or after the first
// instrument registers under the name.
func (r *Registry) SetHelp(name, help string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.helps[name] = help
}

// helpFor returns the HELP string for a family name, if declared.
func (r *Registry) helpFor(name string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.helps[name]
}

// sortedFamilies snapshots the family list ordered by name.
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// instruments snapshots a family's children in insertion order.
func (f *family) instruments() []instrument {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]instrument(nil), f.order...)
}

// atomicFloat is a float64 updated with compare-and-swap on its bit
// pattern — the allocation-free primitive under counters and gauges.
type atomicFloat struct {
	bits atomic.Uint64
}

func (a *atomicFloat) add(d float64) {
	for {
		old := a.bits.Load()
		cur := math.Float64frombits(old)
		if a.bits.CompareAndSwap(old, math.Float64bits(cur+d)) {
			return
		}
	}
}

func (a *atomicFloat) store(v float64) { a.bits.Store(math.Float64bits(v)) }
func (a *atomicFloat) load() float64   { return math.Float64frombits(a.bits.Load()) }

// Counter is a monotonically non-decreasing metric. The zero value is
// usable but unregistered; obtain counters from a Registry.
type Counter struct {
	labels string
	val    atomicFloat
}

// Inc adds 1.
func (c *Counter) Inc() { c.val.add(1) }

// Add adds delta; negative or NaN deltas are ignored (counters only go
// up).
func (c *Counter) Add(delta float64) {
	if delta < 0 || math.IsNaN(delta) {
		return
	}
	c.val.add(delta)
}

// Value returns the current count.
func (c *Counter) Value() float64 { return c.val.load() }

// Gauge is a metric that can go up and down (state, sizes, last-seen
// values).
type Gauge struct {
	labels string
	val    atomicFloat
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.val.store(v) }

// Add adjusts the gauge by delta (use negative deltas to decrement).
func (g *Gauge) Add(delta float64) { g.val.add(delta) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.val.load() }

// renderLabels produces the canonical `{k="v",...}` form (keys sorted)
// or "" for no labels.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabelValue(v string) string { return labelEscaper.Replace(v) }
