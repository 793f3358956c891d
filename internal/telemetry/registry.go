package telemetry

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Metric name rules: lowercase, dot-separated words of [a-z0-9_],
// e.g. "llc.misses" or "prefetch.use_margin_cycles". Stable names are
// the contract that lets exported series be compared across runs and
// releases; the registry panics on a malformed name because a bad name
// is a programming error, not a runtime condition.
func validName(name string) bool {
	if name == "" {
		return false
	}
	prevDot := true // leading dot (or empty word) is invalid
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '_':
			prevDot = false
		case c == '.':
			if prevDot {
				return false
			}
			prevDot = true
		default:
			return false
		}
	}
	return !prevDot
}

// Counter is a monotonically increasing metric. The zero value is
// usable; obtain named instances from a Registry. Reads and writes are
// atomic so a debug server can observe a counter mid-run.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Store overwrites the value. It exists for mirroring totals computed
// elsewhere into the registry — ordinary instrumentation should only
// ever Add.
func (c *Counter) Store(n uint64) { c.v.Store(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable up/down metric.
type Gauge struct {
	v atomic.Int64
}

// Set overwrites the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// HistogramBuckets is the fixed bucket count of every Histogram:
// bucket i holds observations v with bits.Len64(v) == i, i.e. bucket 0
// is exactly v=0 and bucket i>0 spans [2^(i-1), 2^i). Power-of-two
// buckets cover the full uint64 range with bounded state, which keeps
// histograms cheap to update.
const HistogramBuckets = 65

// Histogram accumulates a distribution of uint64 observations in
// power-of-two buckets.
type Histogram struct {
	counts [HistogramBuckets]atomic.Uint64
	sum    atomic.Uint64
	n      atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.counts[bits.Len64(v)].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// reset zeroes the histogram (the measurement-start boundary).
func (h *Histogram) reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.sum.Store(0)
	h.n.Store(0)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.n.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Mean returns the average observation, or 0 when empty.
func (h *Histogram) Mean() float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Buckets returns a copy of the per-bucket counts.
func (h *Histogram) Buckets() [HistogramBuckets]uint64 {
	var out [HistogramBuckets]uint64
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// BucketUpper returns the largest value bucket i can hold.
func BucketUpper(i int) uint64 {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<uint(i) - 1
}

// Quantile returns an upper bound on the q-quantile (q in [0,1]) of the
// recorded distribution: the upper edge of the bucket containing it.
// Returns 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) uint64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(n))
	if rank >= n {
		rank = n - 1
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum > rank {
			return BucketUpper(i)
		}
	}
	return BucketUpper(HistogramBuckets - 1)
}

// Registry holds named metrics. Lookup is idempotent: asking for the
// same name twice returns the same instance, so components can resolve
// their metrics independently without coordinating initialisation.
// Asking for a name already registered as a different metric type
// panics.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// checkName panics on malformed names or cross-type collisions.
func (r *Registry) checkName(name, kind string) {
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	if _, ok := r.counters[name]; ok && kind != "counter" {
		panic(fmt.Sprintf("telemetry: metric %q already registered as a counter", name))
	}
	if _, ok := r.gauges[name]; ok && kind != "gauge" {
		panic(fmt.Sprintf("telemetry: metric %q already registered as a gauge", name))
	}
	if _, ok := r.hists[name]; ok && kind != "histogram" {
		panic(fmt.Sprintf("telemetry: metric %q already registered as a histogram", name))
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name, "counter")
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name, "gauge")
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name, "histogram")
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time flattened view of a registry. Counters
// appear under their own name, gauges likewise; every histogram
// contributes "<name>.count" and "<name>.sum". Values are int64 so one
// type covers all metric kinds; counters that exceed int64 wrap (they
// never do in practice — the largest counters grow with simulated
// cycles).
type Snapshot map[string]int64

// Names returns the snapshot's keys in sorted order, for deterministic
// rendering.
func (s Snapshot) Names() []string {
	names := make([]string, 0, len(s))
	for k := range s {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Delta returns s - prev per key, over the union of both key sets
// (missing keys read as zero). Snapshot-then-delta is how epoch and
// interval reporting is built from cumulative metrics.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	out := make(Snapshot, len(s))
	for k, v := range s {
		out[k] = v - prev[k]
	}
	for k, v := range prev {
		if _, ok := s[k]; !ok {
			out[k] = -v
		}
	}
	return out
}

// Snapshot captures every registered metric.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(Snapshot, len(r.counters)+len(r.gauges)+2*len(r.hists))
	for name, c := range r.counters {
		out[name] = int64(c.Value())
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	for _, name := range sortedKeys(r.hists) {
		h := r.hists[name]
		out[name+".count"] = int64(h.Count())
		out[name+".sum"] = int64(h.Sum())
	}
	return out
}

// sortedKeys returns the sorted keys of a metric map.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
