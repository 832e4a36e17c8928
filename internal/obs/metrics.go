// Package obs is the repo's observability substrate: a dependency-free
// metrics core (counters, gauges, timing histograms with quantile
// snapshots), the renderers and span collector for the pipeline stage
// traces of internal/stage, and a key=value structured logger.
//
// The metrics hot path is a single atomic add, cheap enough to leave on in
// every build; aggregation (quantiles, JSON rendering) happens only when a
// snapshot is taken. The package imports only the standard library and
// internal/stage. It is outside the trusted set: the TCB packages, the
// bootstrap runtime included, record plain stage data and never import it,
// while the CCaaS service, the verification plane and the benchmark
// harness all report through one registry.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored: counters are monotonic).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram bucket geometry: bucket 0 holds zero/negative observations;
// bucket i >= 1 covers [2^(minExp+(i-1)/perOctave), 2^(minExp+i/perOctave)).
// With 4 sub-buckets per octave the worst-case relative error of a quantile
// estimate (geometric bucket midpoint) is 2^(1/8)-1, about 9%.
const (
	histMinExp    = -30 // 2^-30 s ~ 1 ns
	histMaxExp    = 10  // 2^10 s ~ 17 min
	histPerOctave = 4
	histBuckets   = 2 + (histMaxExp-histMinExp)*histPerOctave // + zero & overflow
)

// Histogram records float64 observations (by convention seconds) into
// fixed log-spaced buckets with an atomic hot path, and produces
// p50/p95/p99 estimates on demand.
type Histogram struct {
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
	minBits atomic.Uint64
	maxBits atomic.Uint64
	buckets [histBuckets]atomic.Int64
}

func bucketIndex(v float64) int {
	if v <= 0 || math.IsNaN(v) {
		return 0
	}
	idx := 1 + int(math.Floor((math.Log2(v)-histMinExp)*histPerOctave))
	if idx < 1 {
		idx = 1
	}
	if idx >= histBuckets {
		idx = histBuckets - 1
	}
	return idx
}

// bucketMid returns the geometric midpoint of bucket i's range.
func bucketMid(i int) float64 {
	if i <= 0 {
		return 0
	}
	lo := float64(histMinExp) + float64(i-1)/histPerOctave
	return math.Exp2(lo + 0.5/histPerOctave)
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	// Zero bits double as the "unset" sentinel; an actual 0.0 extreme
	// stores the same bits, so the sentinel never misreports.
	for {
		old := h.minBits.Load()
		if old != 0 && math.Float64frombits(old) <= v {
			break
		}
		if h.minBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if old != 0 && math.Float64frombits(old) >= v {
			break
		}
		if h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// HistSnapshot is a point-in-time aggregate of a histogram.
type HistSnapshot struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Snapshot aggregates the buckets into count/sum/min/max and quantile
// estimates. Concurrent Observes during a snapshot can skew the aggregate
// by at most the in-flight samples.
func (h *Histogram) Snapshot() HistSnapshot {
	var counts [histBuckets]int64
	var total int64
	for i := range counts {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	s := HistSnapshot{
		Count: total,
		Sum:   math.Float64frombits(h.sumBits.Load()),
	}
	if total == 0 {
		return s
	}
	s.Min = math.Float64frombits(h.minBits.Load())
	s.Max = math.Float64frombits(h.maxBits.Load())
	s.P50 = quantile(&counts, total, 0.50)
	s.P95 = quantile(&counts, total, 0.95)
	s.P99 = quantile(&counts, total, 0.99)
	return s
}

// quantile returns the estimated q-quantile: the geometric midpoint of the
// bucket where the cumulative count crosses q*total.
func quantile(counts *[histBuckets]int64, total int64, q float64) float64 {
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += counts[i]
		if cum >= rank {
			return bucketMid(i)
		}
	}
	return bucketMid(histBuckets - 1)
}

// Registry holds named metrics. All accessors are get-or-create and safe
// for concurrent use; a nil *Registry is valid and hands out unregistered
// throwaway metrics, so instrumented code never needs nil checks.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return &Counter{}
	}
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return &Histogram{}
	}
	r.mu.RLock()
	h, ok := r.histograms[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[name]; ok {
		return h
	}
	h = &Histogram{}
	r.histograms[name] = h
	return h
}

// Snapshot is a point-in-time copy of every metric in a registry.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]int64        `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// Snapshot copies every metric's current value.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistSnapshot),
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// WriteJSON renders the registry as indented expvar-style JSON (map keys
// sorted by encoding/json, so output is stable for a fixed state).
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// Handler serves the registry (for a -metrics-addr endpoint) with content
// negotiation: Prometheus text exposition for scrapers that ask for
// text/plain or openmetrics (or ?format=prometheus), the original JSON
// document otherwise. ?detail=buckets extends the JSON histograms with
// their cumulative buckets (fleet aggregation scrapes this form); the
// default JSON contract is unchanged. Responses carry Cache-Control:
// no-store so scrapes behind proxies are never stale.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Cache-Control", "no-store")
		if wantsPrometheus(req.Header.Get("Accept"), req.URL.Query().Get("format")) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = r.WritePrometheus(w)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if req.URL.Query().Get("detail") == "buckets" {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(r.DetailSnapshot())
			return
		}
		_ = r.WriteJSON(w)
	})
}

// Summary renders a one-line key=value digest of every counter and gauge
// (sorted by name) — the periodic log line of a long-running service.
func (r *Registry) Summary() string {
	s := r.Snapshot()
	keys := make([]string, 0, len(s.Counters)+len(s.Gauges))
	vals := make(map[string]int64, len(s.Counters)+len(s.Gauges))
	for k, v := range s.Counters {
		keys = append(keys, k)
		vals[k] = v
	}
	for k, v := range s.Gauges {
		keys = append(keys, k)
		vals[k] = v
	}
	sort.Strings(keys)
	out := ""
	for i, k := range keys {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s=%d", k, vals[k])
	}
	return out
}
