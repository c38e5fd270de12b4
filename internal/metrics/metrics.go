// Package metrics is a dependency-free registry of named counters, gauges
// and log2-bucketed histograms: the observability backbone a run publishes
// into. Simulator components keep only their own Stats; the wafer layer
// derives the registry series from them between engine slices. Updates are
// atomic, so reads (snapshots, the HTTP exposition in http.go) may run
// concurrently with a simulation.
//
// A Registry is attached per run (wafer.Options.Metrics); its immutable
// Snapshot travels on the run's Result so schemes can be diffed series by
// series. Batch layers merge per-run snapshots into a long-lived aggregate
// registry, which is what a live /metrics endpoint serves.
//
// Naming convention: dotted lowercase paths, component first —
// "tlb.l2.hits", "iommu.queue.depth", "noc.byte_hops". Dots become
// underscores (with an "hdpat_" prefix) in the Prometheus exposition.
package metrics

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// NumBuckets is the number of log2 histogram buckets: bucket 0 holds only
// zero, bucket i >= 1 holds [2^(i-1), 2^i).
const NumBuckets = 65

// Log2Bucket returns the bucket index of v. It is the one log2-bucketing
// rule in the repository: stats.Histogram delegates here too.
func Log2Bucket(v uint64) int { return bits.Len64(v) }

// BucketRange returns the inclusive value range [lo, hi] covered by bucket i
// (0, 0 for bucket 0 and out-of-range indices).
func BucketRange(i int) (lo, hi uint64) {
	if i <= 0 || i >= NumBuckets {
		return 0, 0
	}
	lo = 1 << (i - 1)
	hi = lo<<1 - 1 // wraps to MaxUint64 for the top bucket
	return lo, hi
}

// Counter is a monotonically increasing series.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a series that can move in both directions (queue depth, heap
// size, configuration constants).
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds d (negative to decrease).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Max raises the gauge to v if it is below it.
func (g *Gauge) Max(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Histogram is a fixed-size log2-bucketed histogram for wide-ranged values
// (latencies, hop counts, queue depths). All updates are lock-free.
type Histogram struct {
	buckets [NumBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
	max     atomic.Uint64
}

// Observe records v.
func (h *Histogram) Observe(v uint64) {
	h.buckets[Log2Bucket(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Add folds hs into the histogram: buckets, count and sum accumulate, and
// the maximum rises to hs.Max.
func (h *Histogram) Add(hs HistSnapshot) {
	for i, b := range hs.Buckets {
		if b > 0 {
			h.buckets[i].Add(b)
		}
	}
	h.count.Add(hs.Count)
	h.sum.Add(hs.Sum)
	for {
		cur := h.max.Load()
		if hs.Max <= cur || h.max.CompareAndSwap(cur, hs.Max) {
			return
		}
	}
}

// Registry holds named series. The zero value is not usable; create with
// NewRegistry. Series creation takes a lock; updates through the returned
// handles do not.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it at zero on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it at zero on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it empty on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.histograms[name]
	if h == nil {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// HistSnapshot is one histogram's frozen state. Buckets is trimmed to the
// highest non-empty bucket.
type HistSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Max     uint64   `json:"max"`
	Buckets []uint64 `json:"buckets,omitempty"`
}

// Mean returns the mean observed value (0 when empty).
func (h HistSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Snapshot is an immutable copy of a registry's series at one instant; it is
// what a run's Result carries.
type Snapshot struct {
	Counters   map[string]uint64       `json:"counters,omitempty"`
	Gauges     map[string]int64        `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// Snapshot freezes the registry's current values.
func (r *Registry) Snapshot() *Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &Snapshot{
		Counters:   make(map[string]uint64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistSnapshot, len(r.histograms)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		hs := HistSnapshot{Count: h.count.Load(), Sum: h.sum.Load(), Max: h.max.Load()}
		top := -1
		var buckets [NumBuckets]uint64
		for i := range buckets {
			buckets[i] = h.buckets[i].Load()
			if buckets[i] > 0 {
				top = i
			}
		}
		if top >= 0 {
			hs.Buckets = append([]uint64(nil), buckets[:top+1]...)
		}
		s.Histograms[name] = hs
	}
	return s
}

// Merge folds a snapshot into the registry: counters and histograms
// accumulate, gauges take the snapshot's value. Batch layers use it to
// aggregate per-run snapshots into a live session registry.
func (r *Registry) Merge(s *Snapshot) {
	if s == nil {
		return
	}
	for name, v := range s.Counters {
		r.Counter(name).Add(v)
	}
	for name, v := range s.Gauges {
		r.Gauge(name).Set(v)
	}
	for name, hs := range s.Histograms {
		r.Histogram(name).Add(hs)
	}
}

// Counter returns the named counter's value (0 if absent).
func (s *Snapshot) Counter(name string) uint64 { return s.Counters[name] }

// Gauge returns the named gauge's value (0 if absent).
func (s *Snapshot) Gauge(name string) int64 { return s.Gauges[name] }

// Value returns the named series as a float64: a counter, else a gauge,
// else a histogram's mean. ok is false when no series has that name.
func (s *Snapshot) Value(name string) (v float64, ok bool) {
	if c, found := s.Counters[name]; found {
		return float64(c), true
	}
	if g, found := s.Gauges[name]; found {
		return float64(g), true
	}
	if h, found := s.Histograms[name]; found {
		return h.Mean(), true
	}
	return 0, false
}

// Series returns every series name, sorted.
func (s *Snapshot) Series() []string {
	names := make([]string, 0, len(s.Counters)+len(s.Gauges)+len(s.Histograms))
	for n := range s.Counters {
		names = append(names, n)
	}
	for n := range s.Gauges {
		names = append(names, n)
	}
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Diff returns per-series deltas (s minus base) for every counter and gauge
// present in either snapshot; histogram series contribute their count delta.
// It is how CompareAll callers diff a scheme's metric set against the
// baseline's.
func (s *Snapshot) Diff(base *Snapshot) map[string]float64 {
	if s == nil || base == nil {
		return nil
	}
	out := make(map[string]float64)
	for name, v := range s.Counters {
		out[name] = float64(v) - float64(base.Counters[name])
	}
	for name, v := range base.Counters {
		if _, seen := s.Counters[name]; !seen {
			out[name] = -float64(v)
		}
	}
	for name, v := range s.Gauges {
		out[name] = float64(v) - float64(base.Gauges[name])
	}
	for name, v := range base.Gauges {
		if _, seen := s.Gauges[name]; !seen {
			out[name] = -float64(v)
		}
	}
	for name, h := range s.Histograms {
		out[name+".count"] = float64(h.Count) - float64(base.Histograms[name].Count)
	}
	for name, h := range base.Histograms {
		if _, seen := s.Histograms[name]; !seen {
			out[name+".count"] = -float64(h.Count)
		}
	}
	return out
}

// JSON renders the snapshot as indented JSON.
func (s *Snapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// promName maps a dotted series name to a Prometheus-legal metric name.
func promName(name string) string {
	var b strings.Builder
	b.WriteString("hdpat_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// Prometheus renders the snapshot in the Prometheus text exposition format
// (series names sanitised to hdpat_<name with dots as underscores>).
func (s *Snapshot) Prometheus() string {
	var b strings.Builder
	for _, name := range sortedKeys(s.Counters) {
		pn := promName(name)
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", pn, pn, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		pn := promName(name)
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %d\n", pn, pn, s.Gauges[name])
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		pn := promName(name)
		fmt.Fprintf(&b, "# TYPE %s histogram\n", pn)
		var cum uint64
		for i, c := range h.Buckets {
			cum += c
			_, hi := BucketRange(i)
			fmt.Fprintf(&b, "%s_bucket{le=\"%d\"} %d\n", pn, hi, cum)
		}
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", pn, h.Count)
		fmt.Fprintf(&b, "%s_sum %d\n%s_count %d\n", pn, h.Sum, pn, h.Count)
	}
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
