package serve

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Hand-rolled Prometheus-text-format metrics: the daemon exposes request
// counts, latency histograms, queue depth, pool occupancy, and cache hit
// rates without pulling in a client library (the repo is dependency-free
// by design). Only the small corner of the exposition format we emit is
// implemented: counter, gauge, and histogram families with fixed label
// sets.

// metricFamily is anything that can render itself in exposition format.
type metricFamily interface {
	familyName() string
	write(w io.Writer)
}

// Metrics is a registry of metric families with a stable exposition order.
type Metrics struct {
	mu       sync.Mutex
	families []metricFamily
}

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return &Metrics{} }

func (m *Metrics) register(f metricFamily) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.families = append(m.families, f)
}

// WritePrometheus renders every family in registration order.
func (m *Metrics) WritePrometheus(w io.Writer) {
	m.mu.Lock()
	fams := append([]metricFamily{}, m.families...)
	m.mu.Unlock()
	for _, f := range fams {
		f.write(w)
	}
}

// formatFloat renders a sample value the way Prometheus expects.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return fmt.Sprintf("%g", v)
}

// Counter is a monotonically increasing counter.
type Counter struct {
	name, help string
	n          atomic.Uint64
}

// NewCounter registers a counter family with one unlabeled series.
func (m *Metrics) NewCounter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	m.register(c)
	return c
}

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.n.Add(n) }

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.n.Load() }

func (c *Counter) familyName() string { return c.name }

func (c *Counter) write(w io.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", c.name, c.help, c.name, c.name, c.n.Load())
}

// CounterVec is a counter family keyed by one label.
type CounterVec struct {
	name, help, label string
	mu                sync.Mutex
	series            map[string]*atomic.Uint64
}

// NewCounterVec registers a counter family with one label dimension.
func (m *Metrics) NewCounterVec(name, help, label string) *CounterVec {
	v := &CounterVec{name: name, help: help, label: label, series: make(map[string]*atomic.Uint64)}
	m.register(v)
	return v
}

// With returns the series for one label value, creating it on first use.
func (v *CounterVec) With(value string) *atomic.Uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	s, ok := v.series[value]
	if !ok {
		s = new(atomic.Uint64)
		v.series[value] = s
	}
	return s
}

// Inc adds one to the series for value.
func (v *CounterVec) Inc(value string) { v.With(value).Add(1) }

// Value reads one series (0 if never touched).
func (v *CounterVec) Value(value string) uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	if s, ok := v.series[value]; ok {
		return s.Load()
	}
	return 0
}

func (v *CounterVec) familyName() string { return v.name }

func (v *CounterVec) write(w io.Writer) {
	v.mu.Lock()
	keys := make([]string, 0, len(v.series))
	for k := range v.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	vals := make([]uint64, len(keys))
	for i, k := range keys {
		vals[i] = v.series[k].Load()
	}
	v.mu.Unlock()
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", v.name, v.help, v.name)
	for i, k := range keys {
		fmt.Fprintf(w, "%s{%s=%q} %d\n", v.name, v.label, k, vals[i])
	}
}

// GaugeFunc samples a value at scrape time — queue depth, pool occupancy.
type GaugeFunc struct {
	name, help string
	fn         func() float64
}

// NewGaugeFunc registers a gauge whose value is read at scrape time.
func (m *Metrics) NewGaugeFunc(name, help string, fn func() float64) *GaugeFunc {
	g := &GaugeFunc{name: name, help: help, fn: fn}
	m.register(g)
	return g
}

func (g *GaugeFunc) familyName() string { return g.name }

func (g *GaugeFunc) write(w io.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n", g.name, g.help, g.name, g.name, formatFloat(g.fn()))
}

// Histogram is a fixed-bucket latency histogram with cumulative counts,
// matching Prometheus histogram semantics (each bucket counts observations
// ≤ its upper bound; +Inf is implicit via _count).
type Histogram struct {
	name, help string
	bounds     []float64 // upper bounds, ascending, seconds
	counts     []atomic.Uint64
	count      atomic.Uint64
	sumNanos   atomic.Uint64 // sum in nanoseconds to stay integral
}

// DefaultLatencyBuckets spans sub-millisecond predict calls through
// multi-minute sweep jobs.
var DefaultLatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// NewHistogram registers a histogram with the given upper bounds (seconds).
func (m *Metrics) NewHistogram(name, help string, bounds []float64) *Histogram {
	h := &Histogram{
		name:   name,
		help:   help,
		bounds: append([]float64{}, bounds...),
		counts: make([]atomic.Uint64, len(bounds)),
	}
	m.register(h)
	return h
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	sec := d.Seconds()
	for i, b := range h.bounds {
		if sec <= b {
			h.counts[i].Add(1)
		}
	}
	h.count.Add(1)
	h.sumNanos.Add(uint64(d.Nanoseconds()))
}

// Count reads the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Quantile estimates the q-quantile (0..1) from the bucket counts: the
// upper bound of the first bucket whose cumulative count reaches q·total.
// It is the server-side view a scraper would compute with histogram_quantile.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	for i := range h.bounds {
		if h.counts[i].Load() >= rank {
			return h.bounds[i]
		}
	}
	return math.Inf(1)
}

func (h *Histogram) familyName() string { return h.name }

func (h *Histogram) write(w io.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", h.name, h.help, h.name)
	for i, b := range h.bounds {
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", h.name, formatFloat(b), h.counts[i].Load())
	}
	total := h.count.Load()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.name, total)
	fmt.Fprintf(w, "%s_sum %s\n", h.name, formatFloat(float64(h.sumNanos.Load())/1e9))
	fmt.Fprintf(w, "%s_count %d\n", h.name, total)
}

// RatioFunc renders a gauge computed from two counters — cache hit rate.
func RatioFunc(hits, total *Counter) func() float64 {
	return func() float64 {
		t := total.Value()
		if t == 0 {
			return 0
		}
		return float64(hits.Value()) / float64(t)
	}
}

// sanity check at init: bounds must ascend or cumulative counts lie.
func init() {
	for i := 1; i < len(DefaultLatencyBuckets); i++ {
		if DefaultLatencyBuckets[i] <= DefaultLatencyBuckets[i-1] {
			panic("serve: DefaultLatencyBuckets must ascend")
		}
	}
}
