// Package obs is the repo's dependency-free telemetry layer: atomic
// counters, gauges and fixed-bucket latency histograms collected in a
// process-wide Registry and rendered in the Prometheus text exposition
// format, plus request-scoped tracing (a request id generated at the HTTP
// edge, propagated via the X-Request-Id header through darwin-router to the
// owning darwind shard, and stamped into both daemons' structured request
// logs).
//
// Design constraints, in order:
//
//  1. Zero dependencies — the whole module builds with the standard library
//     only, and so does its telemetry.
//  2. Hot-path safe — Counter.Add, Gauge.Set and Histogram.Observe are
//     lock-free (single atomic ops); the suggest step, the bitset kernels
//     and the journal append path can afford them. Registration takes a
//     mutex but happens once per process at package init.
//  3. Side-channel only — metrics, request ids and logs never feed back
//     into discovery state. Golden replay transcripts are bit-identical
//     with telemetry enabled, disabled (SetEnabled), or absent.
//
// Metric families are get-or-create: registering the same name again with
// the same type and label names returns the existing family, so packages
// declare their instruments in package-level vars against Default() and
// tests can construct servers repeatedly in one process. Registering a name
// with a conflicting type or label set panics (a programmer error, caught
// by the first test that runs).
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// metric type names as rendered in # TYPE lines.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// enabled is the process-wide collection switch (default on). It exists for
// one consumer: the benchrunner overhead experiment, which measures the
// same scripted labeler with collection off and on to bound instrumentation
// cost. Serving code never flips it.
var enabledFlag atomic.Bool

func init() { enabledFlag.Store(true) }

// SetEnabled turns metric collection on or off process-wide. Off makes
// Counter.Add, Gauge.Set and Histogram.Observe no-ops (reads and rendering
// still work). Intended for A/B overhead measurement, not for serving.
func SetEnabled(on bool) { enabledFlag.Store(on) }

// Enabled reports whether metric collection is on.
func Enabled() bool { return enabledFlag.Load() }

// Registry is a set of metric families rendered together by
// WritePrometheus. The zero value is not usable; use NewRegistry or the
// process-wide Default.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// family is one named metric family: its metadata plus its children (one
// per label-value combination; unlabeled families have a single child under
// the empty key).
type family struct {
	name   string
	help   string
	typ    string
	labels []string
	bounds []float64 // histogram bucket upper bounds

	mu       sync.Mutex
	children map[string]child
	order    []string // child keys in first-use order (sorted at render)
	fn       func() float64
	fnSet    bool
}

// child is any scalar metric that can live inside a family.
type child interface{ isMetric() }

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry every package-level instrument
// registers against. Both daemons serve it at GET /metrics.
func Default() *Registry { return defaultRegistry }

// NewRegistry creates an empty registry (tests use private ones to assert
// exact exposition output).
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// lookup returns the family with the given name, creating it if absent, and
// panics when an existing family disagrees on type, label names or buckets —
// two packages fighting over one name is a bug worth failing loudly on.
func (r *Registry) lookup(name, help, typ string, labels []string, bounds []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || !equalStrings(f.labels, labels) || !equalFloats(f.bounds, bounds) {
			panic(fmt.Sprintf("obs: metric %q re-registered with conflicting type/labels/buckets", name))
		}
		return f
	}
	f := &family{
		name:     name,
		help:     help,
		typ:      typ,
		labels:   append([]string(nil), labels...),
		bounds:   append([]float64(nil), bounds...),
		children: make(map[string]child),
	}
	r.families[name] = f
	return f
}

// labelSep joins label values into a child key. It cannot appear in a label
// value that round-trips ambiguously because values are escaped at render
// time, not at key time; 0xFF is not valid UTF-8 so it cannot split a value
// into another valid pair.
const labelSep = "\xff"

// childFor returns the family's child for the given label values, creating
// it with mk on first use.
func (f *family) childFor(values []string, mk func() child) child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := ""
	for i, v := range values {
		if i > 0 {
			key += labelSep
		}
		key += v
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.children[key]
	if !ok {
		c = mk()
		f.children[key] = c
		f.order = append(f.order, key)
	}
	return c
}

// snapshotChildren returns the child keys sorted and a copy of the map,
// for rendering without holding the family lock across writes.
func (f *family) snapshotChildren() ([]string, map[string]child) {
	f.mu.Lock()
	defer f.mu.Unlock()
	keys := append([]string(nil), f.order...)
	sort.Strings(keys)
	out := make(map[string]child, len(f.children))
	for k, v := range f.children {
		out[k] = v
	}
	return keys, out
}

// --- registration API ---

// Counter registers (or finds) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.lookup(name, help, typeCounter, nil, nil)
	return f.childFor(nil, func() child { return &Counter{} }).(*Counter)
}

// CounterVec registers (or finds) a counter family with the given label
// names; use With to resolve a child.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.lookup(name, help, typeCounter, labels, nil)}
}

// Gauge registers (or finds) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.lookup(name, help, typeGauge, nil, nil)
	return f.childFor(nil, func() child { return &Gauge{} }).(*Gauge)
}

// GaugeVec registers (or finds) a gauge family with the given label names.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.lookup(name, help, typeGauge, labels, nil)}
}

// GaugeFunc registers a gauge whose value is computed by fn at render time.
// Re-registering the same name replaces the callback (last writer wins),
// which is what lets tests construct servers repeatedly: the rendered value
// tracks the most recent owner.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.lookup(name, help, typeGauge, nil, nil)
	f.mu.Lock()
	f.fn = fn
	f.fnSet = true
	f.mu.Unlock()
}

// Histogram registers (or finds) an unlabeled histogram with the given
// ascending bucket upper bounds (a final +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	f := r.lookup(name, help, typeHistogram, nil, bounds)
	return f.childFor(nil, func() child { return newHistogram(f.bounds) }).(*Histogram)
}

// HistogramVec registers (or finds) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	return &HistogramVec{f: r.lookup(name, help, typeHistogram, labels, bounds)}
}

// --- vec resolution ---

// CounterVec resolves label values to Counter children.
type CounterVec struct{ f *family }

// With returns the counter for the given label values (created on first
// use). Children are cached; With on a hot path costs one map lookup under
// the family mutex — resolve once into a variable where it matters.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.childFor(values, func() child { return &Counter{} }).(*Counter)
}

// GaugeVec resolves label values to Gauge children.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values (created on first use).
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.childFor(values, func() child { return &Gauge{} }).(*Gauge)
}

// HistogramVec resolves label values to Histogram children.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values (created on first
// use).
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.childFor(values, func() child { return newHistogram(v.f.bounds) }).(*Histogram)
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
