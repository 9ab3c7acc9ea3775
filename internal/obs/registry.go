// Package obs is the telemetry subsystem of the ATPG engine: an atomic
// counter/gauge/histogram registry with Prometheus-text exposition, a
// structured JSONL event trace, a periodic progress reporter, and an HTTP
// server exposing /metrics, /debug/vars and net/http/pprof.
//
// The package is deliberately generic — it knows nothing about circuits,
// faults or solvers — so every layer (engine, experiments, CLI) can
// instrument itself without import cycles. All metric types are safe for
// concurrent use; the hot-path cost of an update is one atomic add.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomically settable instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the gauge by n.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// SetMax raises the gauge to n if n is larger (atomic); used for
// high-water-mark gauges fed from concurrent workers.
func (g *Gauge) SetMax(n int64) {
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the bucket count of a log2 histogram: bucket 0 holds
// values ≤ 0, bucket i (1..64) holds values in [2^(i-1), 2^i).
const histBuckets = 65

// Histogram is a log2-bucketed histogram of int64 observations (typically
// nanoseconds, node counts, or permille ratios). The geometric buckets
// cover the full dynamic range of solver behaviour — sub-microsecond easy
// faults to multi-second tails — with constant memory and one atomic add
// per observation.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// NewHistogram returns an unregistered histogram (usable standalone; use
// Registry.Histogram to also expose it on /metrics).
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	idx := 0
	if v > 0 {
		idx = bits.Len64(uint64(v)) // v in [2^(idx-1), 2^idx)
	}
	h.buckets[idx].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// HistBucket is one non-empty bucket of a histogram snapshot.
type HistBucket struct {
	// Le is the bucket's inclusive upper bound (2^i − 1 for bucket i).
	Le int64
	// Count is the number of observations in this bucket alone.
	Count int64
}

// HistogramSnapshot is a point-in-time copy of a histogram, safe to read
// without synchronization.
type HistogramSnapshot struct {
	Count   int64
	Sum     int64
	Buckets []HistBucket // non-empty buckets in increasing Le order
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	for i := 0; i < histBuckets; i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		s.Buckets = append(s.Buckets, HistBucket{Le: bucketUpper(i), Count: n})
	}
	return s
}

// bucketUpper returns the inclusive upper bound of bucket i.
func bucketUpper(i int) int64 {
	if i == 0 {
		return 0
	}
	if i >= 63 {
		return math.MaxInt64
	}
	return 1<<i - 1
}

// Mean returns the arithmetic mean of the observations (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile estimates the q-th quantile (0..1) from the log buckets; the
// returned value is the geometric midpoint of the bucket holding the
// quantile, so it is accurate to within a factor of √2.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := int64(q * float64(s.Count))
	if rank >= s.Count {
		rank = s.Count - 1
	}
	var seen int64
	for _, b := range s.Buckets {
		seen += b.Count
		if seen > rank {
			lo := float64(b.Le)/2 + 1
			if b.Le == 0 {
				return 0
			}
			return int64(math.Sqrt(lo * float64(b.Le)))
		}
	}
	return s.Buckets[len(s.Buckets)-1].Le
}

// metric is one registered metric: a name, a help string, a Prometheus
// type, and render hooks for the two exposition formats.
type metric struct {
	name, help, typ string
	prom            func(w io.Writer) // sample lines (no HELP/TYPE header)
	value           func() any        // /debug/vars JSON value
}

// Registry is a set of named metrics rendered to the Prometheus text
// exposition format and to /debug/vars JSON. Registration is not
// idempotent: registering a duplicate name panics, as it would silently
// split a time series.
type Registry struct {
	mu      sync.Mutex
	metrics []metric
	names   map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{names: make(map[string]bool)} }

func (r *Registry) register(m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[m.name] {
		panic(fmt.Sprintf("obs: duplicate metric %q", m.name))
	}
	r.names[m.name] = true
	r.metrics = append(r.metrics, m)
}

// Counter registers and returns a new counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(metric{
		name: name, help: help, typ: "counter",
		prom:  func(w io.Writer) { fmt.Fprintf(w, "%s %d\n", name, c.Value()) },
		value: func() any { return c.Value() },
	})
	return c
}

// Gauge registers and returns a new gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(metric{
		name: name, help: help, typ: "gauge",
		prom:  func(w io.Writer) { fmt.Fprintf(w, "%s %d\n", name, g.Value()) },
		value: func() any { return g.Value() },
	})
	return g
}

// GaugeFunc registers a gauge computed on demand by fn.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(metric{
		name: name, help: help, typ: "gauge",
		prom:  func(w io.Writer) { fmt.Fprintf(w, "%s %g\n", name, fn()) },
		value: func() any { return fn() },
	})
}

// LabeledCounter is a family of counters distinguished by one label —
// the minimal form of a Prometheus counter vector, used for small,
// bounded label sets (e.g. retry tiers). Series are created lazily by
// With and render as name{label="value"} lines.
type LabeledCounter struct {
	label string
	mu    sync.Mutex
	cells map[string]*Counter
}

// With returns the counter for the given label value, creating the
// series on first use. Counters are safe for concurrent use; With itself
// takes a lock, so hot paths should hold on to the returned counter.
func (c *LabeledCounter) With(value string) *Counter {
	c.mu.Lock()
	defer c.mu.Unlock()
	ctr := c.cells[value]
	if ctr == nil {
		ctr = &Counter{}
		c.cells[value] = ctr
	}
	return ctr
}

// Values returns the current count of every series keyed by label value.
func (c *LabeledCounter) Values() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.cells))
	for v, ctr := range c.cells {
		out[v] = ctr.Value()
	}
	return out
}

// LabeledCounter registers and returns a one-label counter family.
func (r *Registry) LabeledCounter(name, help, label string) *LabeledCounter {
	c := &LabeledCounter{label: label, cells: make(map[string]*Counter)}
	r.register(metric{
		name: name, help: help, typ: "counter",
		prom: func(w io.Writer) {
			vals := c.Values()
			keys := make([]string, 0, len(vals))
			for v := range vals {
				keys = append(keys, v)
			}
			sort.Strings(keys)
			for _, v := range keys {
				fmt.Fprintf(w, "%s{%s=%q} %d\n", name, c.label, v, vals[v])
			}
		},
		value: func() any { return c.Values() },
	})
	return c
}

// LabeledGauge is a family of gauges distinguished by one label — the
// minimal form of a Prometheus gauge vector, used for small, bounded
// label sets (e.g. per-job progress on a multi-tenant daemon). Series
// are created lazily by With and removed by Forget once the labelled
// entity is gone, keeping the exposition bounded.
type LabeledGauge struct {
	label string
	mu    sync.Mutex
	cells map[string]*Gauge
}

// With returns the gauge for the given label value, creating the series
// on first use. Gauges are safe for concurrent use; With itself takes a
// lock, so hot paths should hold on to the returned gauge.
func (g *LabeledGauge) With(value string) *Gauge {
	g.mu.Lock()
	defer g.mu.Unlock()
	gg := g.cells[value]
	if gg == nil {
		gg = &Gauge{}
		g.cells[value] = gg
	}
	return gg
}

// Forget drops the series for the given label value, so a retired
// entity (a finished job) stops appearing on /metrics.
func (g *LabeledGauge) Forget(value string) {
	g.mu.Lock()
	delete(g.cells, value)
	g.mu.Unlock()
}

// Values returns the current value of every series keyed by label value.
func (g *LabeledGauge) Values() map[string]int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[string]int64, len(g.cells))
	for v, gg := range g.cells {
		out[v] = gg.Value()
	}
	return out
}

// LabeledGauge registers and returns a one-label gauge family.
func (r *Registry) LabeledGauge(name, help, label string) *LabeledGauge {
	g := &LabeledGauge{label: label, cells: make(map[string]*Gauge)}
	r.register(metric{
		name: name, help: help, typ: "gauge",
		prom: func(w io.Writer) {
			vals := g.Values()
			keys := make([]string, 0, len(vals))
			for v := range vals {
				keys = append(keys, v)
			}
			sort.Strings(keys)
			for _, v := range keys {
				fmt.Fprintf(w, "%s{%s=%q} %d\n", name, g.label, v, vals[v])
			}
		},
		value: func() any { return g.Values() },
	})
	return g
}

// Histogram registers and returns a new log2-bucketed histogram.
func (r *Registry) Histogram(name, help string) *Histogram {
	h := NewHistogram()
	r.register(metric{
		name: name, help: help, typ: "histogram",
		prom: func(w io.Writer) {
			s := h.Snapshot()
			var cum int64
			for _, b := range s.Buckets {
				cum += b.Count
				fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, b.Le, cum)
			}
			fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, s.Count)
			fmt.Fprintf(w, "%s_sum %d\n", name, s.Sum)
			fmt.Fprintf(w, "%s_count %d\n", name, s.Count)
		},
		value: func() any {
			s := h.Snapshot()
			return map[string]int64{"count": s.Count, "sum": s.Sum}
		},
	})
	return h
}

// MetricInfo describes one registered metric — the introspection view
// hygiene tests and tooling use to audit naming and help conventions.
type MetricInfo struct {
	Name string
	Help string
	// Type is the Prometheus type: "counter", "gauge" or "histogram".
	Type string
}

// Metrics lists every registered metric in registration order.
func (r *Registry) Metrics() []MetricInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]MetricInfo, len(r.metrics))
	for i, m := range r.metrics {
		out[i] = MetricInfo{Name: m.name, Help: m.help, Type: m.typ}
	}
	return out
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4), in name order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	ms := append([]metric(nil), r.metrics...)
	r.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	bw := bufio.NewWriter(w)
	for _, m := range ms {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s %s\n", m.name, m.help, m.name, m.typ)
		m.prom(bw)
	}
	return bw.Flush()
}

// Values returns the current value of every metric keyed by name — the
// payload published under /debug/vars.
func (r *Registry) Values() map[string]any {
	r.mu.Lock()
	ms := append([]metric(nil), r.metrics...)
	r.mu.Unlock()
	out := make(map[string]any, len(ms))
	for _, m := range ms {
		out[m.name] = m.value()
	}
	return out
}
