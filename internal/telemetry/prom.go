package telemetry

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WritePrometheus renders every family in the registry in the
// Prometheus text exposition format (version 0.0.4): optional # HELP,
// # TYPE, then one line per series. Families are emitted in name order
// and series in registration order, so output is stable across scrapes.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.sortedFamilies() {
		if help := r.helpFor(f.name); help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, in := range f.instruments() {
			if err := writeInstrument(w, f.name, in); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeInstrument(w io.Writer, name string, in instrument) error {
	switch v := in.(type) {
	case *Counter:
		_, err := fmt.Fprintf(w, "%s%s %s\n", name, v.labels, formatValue(v.Value()))
		return err
	case *Gauge:
		_, err := fmt.Fprintf(w, "%s%s %s\n", name, v.labels, formatValue(v.Value()))
		return err
	case *Histogram:
		bounds, cum, inf := v.buckets()
		for i, b := range bounds {
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
				name, withLabel(v.labels, "le", formatValue(b)), cum[i]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			name, withLabel(v.labels, "le", "+Inf"), inf); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, v.labels, formatValue(v.Sum())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, v.labels, v.Count())
		return err
	default:
		return nil
	}
}

// withLabel splices an extra label into an already-rendered label
// string: `{a="b"}` + le=0.5 -> `{a="b",le="0.5"}`.
func withLabel(rendered, key, value string) string {
	extra := key + `="` + escapeLabelValue(value) + `"`
	if rendered == "" {
		return "{" + extra + "}"
	}
	return strings.TrimSuffix(rendered, "}") + "," + extra + "}"
}

func formatValue(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeHelp(s string) string { return helpEscaper.Replace(s) }

// HistogramValue is the exported state of one histogram series in a
// Values snapshot.
type HistogramValue struct {
	Bounds []float64 // finite upper bounds, ascending
	Counts []uint64  // cumulative counts per bound
	Sum    float64
	Count  uint64
}

// Quantile estimates the q-th quantile (q in [0,1]) by linear
// interpolation within the containing bucket, assuming observations are
// uniform inside each bucket. The first bucket interpolates from 0 (or
// the bound itself if it is negative); the overflow bucket returns the
// last finite bound. Returns NaN when the histogram is empty or q is
// out of range.
func (h HistogramValue) Quantile(q float64) float64 {
	if q < 0 || q > 1 || math.IsNaN(q) || h.Count == 0 {
		return math.NaN()
	}
	rank := q * float64(h.Count)
	prevCum := uint64(0)
	for i, cum := range h.Counts {
		n := float64(cum - prevCum)
		if n > 0 && float64(cum) >= rank {
			lo := 0.0
			if i > 0 {
				lo = h.Bounds[i-1]
			} else if h.Bounds[i] < 0 {
				lo = h.Bounds[i]
			}
			frac := (rank - float64(prevCum)) / n
			return lo + (h.Bounds[i]-lo)*frac
		}
		prevCum = cum
	}
	if len(h.Bounds) == 0 {
		return math.NaN()
	}
	return h.Bounds[len(h.Bounds)-1]
}

// Delta returns the histogram's change between two snapshots of the
// same series (h later, base earlier), so quantiles can be computed
// over just the observations made in between. A zero-value base (the
// series did not exist yet) yields h unchanged.
func (h HistogramValue) Delta(base HistogramValue) HistogramValue {
	out := HistogramValue{
		Bounds: append([]float64(nil), h.Bounds...),
		Counts: append([]uint64(nil), h.Counts...),
		Sum:    h.Sum - base.Sum,
		Count:  h.Count - base.Count,
	}
	if len(base.Counts) == len(h.Counts) {
		for i := range out.Counts {
			out.Counts[i] -= base.Counts[i]
		}
	}
	return out
}

// Values is a point-in-time copy of a registry, keyed by
// "name{labels}". It is what tests and the experiment suite assert
// against.
type Values struct {
	Counters   map[string]float64
	Gauges     map[string]float64
	Histograms map[string]HistogramValue
}

// Counter returns the counter series value, or 0 if absent.
func (v Values) Counter(name string, labels ...Label) float64 {
	return v.Counters[name+renderLabels(labels)]
}

// Gauge returns the gauge series value, or 0 if absent.
func (v Values) Gauge(name string, labels ...Label) float64 {
	return v.Gauges[name+renderLabels(labels)]
}

// Histogram returns the histogram series state; ok is false if absent.
func (v Values) Histogram(name string, labels ...Label) (HistogramValue, bool) {
	h, ok := v.Histograms[name+renderLabels(labels)]
	return h, ok
}

// CounterDelta returns the change of a counter series between two
// snapshots taken from the same registry (v later, base earlier).
func (v Values) CounterDelta(base Values, name string, labels ...Label) float64 {
	return v.Counter(name, labels...) - base.Counter(name, labels...)
}

// Snapshot copies the registry's current state.
func (r *Registry) Snapshot() Values {
	out := Values{
		Counters:   make(map[string]float64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramValue),
	}
	for _, f := range r.sortedFamilies() {
		for _, in := range f.instruments() {
			switch v := in.(type) {
			case *Counter:
				out.Counters[f.name+v.labels] = v.Value()
			case *Gauge:
				out.Gauges[f.name+v.labels] = v.Value()
			case *Histogram:
				bounds, cum, _ := v.buckets()
				out.Histograms[f.name+v.labels] = HistogramValue{
					Bounds: append([]float64(nil), bounds...),
					Counts: cum,
					Sum:    v.Sum(),
					Count:  v.Count(),
				}
			}
		}
	}
	return out
}

// Snapshot copies the Default registry's current state.
func Snapshot() Values { return Default.Snapshot() }
