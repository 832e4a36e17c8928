package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"deflection/internal/stage"
)

// TraceID identifies one end-to-end request across every process it
// touches: minted once at the client (or at the gateway for clients that
// send none), carried in the gateway routing preamble and the ccaas
// session layer, and stamped onto every span the request produces. It is
// observability metadata only — it crosses trust boundaries in cleartext,
// carries no authority, and nothing in the attestation or verification
// path ever reads it.
type TraceID uint64

// NewTraceID mints a random non-zero trace ID.
func NewTraceID() TraceID {
	var b [8]byte
	for {
		if _, err := rand.Read(b[:]); err != nil {
			// crypto/rand failing is unrecoverable for key material, but a
			// trace ID only needs uniqueness-in-practice; fall back to the
			// clock rather than taking a request down over telemetry.
			return TraceID(time.Now().UnixNano() | 1)
		}
		if id := TraceID(binary.LittleEndian.Uint64(b[:])); id != 0 {
			return id
		}
	}
}

// String renders the ID as fixed-width hex (the wire and log format).
func (id TraceID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// ParseTraceID parses the fixed-width hex form. Empty input is the valid
// "no trace" value (0), so optional wire fields decode with one call.
func ParseTraceID(s string) (TraceID, error) {
	if s == "" {
		return 0, nil
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("obs: bad trace id %q: %w", s, err)
	}
	return TraceID(v), nil
}

// MarshalJSON renders the ID as a hex string (0 = empty string).
func (id TraceID) MarshalJSON() ([]byte, error) {
	if id == 0 {
		return []byte(`""`), nil
	}
	return json.Marshal(id.String())
}

// UnmarshalJSON accepts the hex-string form.
func (id *TraceID) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	v, err := ParseTraceID(s)
	if err != nil {
		return err
	}
	*id = v
	return nil
}

type traceIDKey struct{}

// ContextWithTrace attaches a trace ID to ctx for propagation through call
// chains that cross package boundaries (ccaas session -> vplane -> pool).
func ContextWithTrace(ctx context.Context, id TraceID) context.Context {
	if id == 0 {
		return ctx
	}
	return context.WithValue(ctx, traceIDKey{}, id)
}

// TraceFromContext returns the attached trace ID, or 0 when none is set.
func TraceFromContext(ctx context.Context) TraceID {
	id, _ := ctx.Value(traceIDKey{}).(TraceID)
	return id
}

// SpanRecord is one completed span as collected fleet-wide: a Trace span
// plus the identity needed to correlate it across processes.
type SpanRecord struct {
	Trace TraceID   `json:"trace"`
	Role  string    `json:"role"` // process role: gateway | backend | client
	Proc  string    `json:"proc"` // process instance (backend ID, gateway addr)
	Name  string    `json:"name"`
	Start time.Time `json:"start"`
	DurNs int64     `json:"dur_ns"`
	Attrs []Attr    `json:"-"`
}

// spanJSON is the wire form of a SpanRecord (attrs as an object).
type spanJSON struct {
	Trace TraceID        `json:"trace"`
	Role  string         `json:"role"`
	Proc  string         `json:"proc"`
	Name  string         `json:"name"`
	Start time.Time      `json:"start"`
	DurNs int64          `json:"dur_ns"`
	Attrs map[string]any `json:"attrs,omitempty"`
}

func (r SpanRecord) wire() spanJSON {
	js := spanJSON{Trace: r.Trace, Role: r.Role, Proc: r.Proc, Name: r.Name, Start: r.Start, DurNs: r.DurNs}
	if len(r.Attrs) > 0 {
		js.Attrs = make(map[string]any, len(r.Attrs))
		for _, a := range r.Attrs {
			js.Attrs[a.Key] = a.Val
		}
	}
	return js
}

// MarshalJSON renders the record in wire form.
func (r SpanRecord) MarshalJSON() ([]byte, error) { return json.Marshal(r.wire()) }

// UnmarshalJSON parses the wire form (attrs keys come back in map order).
func (r *SpanRecord) UnmarshalJSON(data []byte) error {
	var js spanJSON
	if err := json.Unmarshal(data, &js); err != nil {
		return err
	}
	*r = SpanRecord{Trace: js.Trace, Role: js.Role, Proc: js.Proc, Name: js.Name, Start: js.Start, DurNs: js.DurNs}
	for k, v := range js.Attrs {
		r.Attrs = append(r.Attrs, Attr{Key: k, Val: v})
	}
	return nil
}

// DefaultSpanCapacity bounds the in-memory span ring when
// CollectorConfig.Capacity is zero.
const DefaultSpanCapacity = 4096

// CollectorConfig parameterises a Collector.
type CollectorConfig struct {
	// Role tags every span with this process's role (gateway | backend).
	Role string
	// Proc tags every span with this process instance's identity.
	Proc string
	// Capacity bounds the in-memory ring (0 = DefaultSpanCapacity); the
	// oldest spans are overwritten once it fills.
	Capacity int
	// Clock overrides time.Now (deterministic tests).
	Clock func() time.Time
	// Sink, if set, receives every span as one JSON line (a -trace-log
	// file). Writes are serialised by the collector.
	Sink io.Writer
	// SlowThreshold, if positive, auto-logs any span whose duration meets
	// it through Log — the slow-session sampler.
	SlowThreshold time.Duration
	// Log receives slow-span events (nil = sampling disabled).
	Log func(event string, kv ...any)
}

// Collector gathers completed spans into a bounded in-memory ring and
// serves them over /traces. A nil *Collector is valid and drops
// everything, so instrumented code never needs nil checks. All methods are
// safe for concurrent use.
type Collector struct {
	cfg   CollectorConfig
	clock func() time.Time

	mu      sync.Mutex
	ring    []SpanRecord
	next    int   // ring insert position
	full    bool  // ring has wrapped at least once
	dropped int64 // spans overwritten after wrap
}

// NewCollector builds a collector for this process's spans.
func NewCollector(cfg CollectorConfig) *Collector {
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultSpanCapacity
	}
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	return &Collector{cfg: cfg, clock: clock, ring: make([]SpanRecord, 0, cfg.Capacity)}
}

// Now returns the collector's clock reading (span start times should come
// from the same clock that tests inject).
func (c *Collector) Now() time.Time {
	if c == nil {
		return time.Now()
	}
	return c.clock()
}

// Observe records one completed span.
func (c *Collector) Observe(id TraceID, name string, start time.Time, dur time.Duration, kv ...any) {
	if c == nil {
		return
	}
	c.record(SpanRecord{
		Trace: id,
		Role:  c.cfg.Role,
		Proc:  c.cfg.Proc,
		Name:  name,
		Start: start,
		DurNs: dur.Nanoseconds(),
		Attrs: stage.Attrs(kv...),
	})
}

// AddTrace imports every span of a stage trace under the given trace ID.
// Span names are qualified as "<trace name>/<span name>" so a verifier
// stage trace exports as receive_binary/parse, receive_binary/cfa/build...
func (c *Collector) AddTrace(id TraceID, tr *Trace) {
	if c == nil || tr == nil {
		return
	}
	begin := tr.Begin()
	for _, sp := range tr.Spans() {
		c.record(SpanRecord{
			Trace: id,
			Role:  c.cfg.Role,
			Proc:  c.cfg.Proc,
			Name:  tr.Name + "/" + sp.Name,
			Start: begin.Add(sp.Start),
			DurNs: sp.Dur.Nanoseconds(),
			Attrs: sp.Attrs,
		})
	}
}

func (c *Collector) record(rec SpanRecord) {
	c.mu.Lock()
	if len(c.ring) < cap(c.ring) {
		c.ring = append(c.ring, rec)
	} else {
		c.ring[c.next] = rec
		c.full = true
		c.dropped++
	}
	c.next = (c.next + 1) % cap(c.ring)
	sink := c.cfg.Sink
	var line []byte
	if sink != nil {
		// Marshal under the lock so sink lines never interleave.
		var err error
		if line, err = json.Marshal(rec); err == nil {
			line = append(line, '\n')
			_, _ = sink.Write(line)
		}
	}
	c.mu.Unlock()

	if c.cfg.SlowThreshold > 0 && c.cfg.Log != nil && time.Duration(rec.DurNs) >= c.cfg.SlowThreshold {
		c.cfg.Log("slow_span", "trace", rec.Trace, "span", rec.Name,
			"dur", time.Duration(rec.DurNs), "threshold", c.cfg.SlowThreshold)
	}
}

// Dropped reports how many spans the ring has overwritten.
func (c *Collector) Dropped() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}

// Snapshot returns the retained spans oldest-first; a non-zero filter
// keeps only that trace's spans.
func (c *Collector) Snapshot(filter TraceID) []SpanRecord {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	ordered := make([]SpanRecord, 0, len(c.ring))
	if c.full {
		ordered = append(ordered, c.ring[c.next:]...)
		ordered = append(ordered, c.ring[:c.next]...)
	} else {
		ordered = append(ordered, c.ring...)
	}
	c.mu.Unlock()
	if filter == 0 {
		return ordered
	}
	out := ordered[:0]
	for _, r := range ordered {
		if r.Trace == filter {
			out = append(out, r)
		}
	}
	return out
}

// TracesDoc is the JSON document the /traces endpoint serves.
type TracesDoc struct {
	Role    string       `json:"role"`
	Proc    string       `json:"proc"`
	Dropped int64        `json:"dropped"`
	Spans   []SpanRecord `json:"spans"`
}

// Handler serves the collected spans as JSON. ?trace=<hex id> filters to
// one trace. Responses carry Cache-Control: no-store so scrapes behind
// proxies are never stale.
func (c *Collector) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Cache-Control", "no-store")
		filter, err := ParseTraceID(req.URL.Query().Get("trace"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		doc := TracesDoc{Dropped: c.Dropped(), Spans: c.Snapshot(filter)}
		if c != nil {
			doc.Role, doc.Proc = c.cfg.Role, c.cfg.Proc
		}
		if doc.Spans == nil {
			doc.Spans = []SpanRecord{}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(doc)
	})
}
