package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"deflection/internal/stage"
)

// fakeClock yields a deterministic, strictly advancing time source.
func fakeClock(step time.Duration) func() time.Time {
	t := time.Unix(1700000000, 0).UTC()
	var mu sync.Mutex
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		t = t.Add(step)
		return t
	}
}

func TestTraceIDRoundTrip(t *testing.T) {
	id := NewTraceID()
	if id == 0 {
		t.Fatal("NewTraceID returned 0")
	}
	parsed, err := ParseTraceID(id.String())
	if err != nil {
		t.Fatal(err)
	}
	if parsed != id {
		t.Fatalf("round trip: %v != %v", parsed, id)
	}
	if got, err := ParseTraceID(""); err != nil || got != 0 {
		t.Fatalf("empty trace id: got %v, %v", got, err)
	}
	if _, err := ParseTraceID("not-hex"); err == nil {
		t.Fatal("ParseTraceID accepted garbage")
	}

	data, err := json.Marshal(id)
	if err != nil {
		t.Fatal(err)
	}
	var back TraceID
	if err := json.Unmarshal(data, &back); err != nil || back != id {
		t.Fatalf("json round trip: %v, %v", back, err)
	}
	var zero TraceID
	if data, _ := json.Marshal(zero); string(data) != `""` {
		t.Fatalf("zero trace id marshals to %s", data)
	}
}

func TestContextTracePropagation(t *testing.T) {
	ctx := context.Background()
	if got := TraceFromContext(ctx); got != 0 {
		t.Fatalf("empty context trace = %v", got)
	}
	id := TraceID(0xabcdef)
	ctx = ContextWithTrace(ctx, id)
	if got := TraceFromContext(ctx); got != id {
		t.Fatalf("context trace = %v, want %v", got, id)
	}
	// Zero IDs attach nothing.
	if ctx2 := ContextWithTrace(context.Background(), 0); TraceFromContext(ctx2) != 0 {
		t.Fatal("zero trace id should not attach")
	}
}

func TestCollectorDeterministic(t *testing.T) {
	clock := fakeClock(time.Millisecond)
	c := NewCollector(CollectorConfig{Role: "backend", Proc: "b0", Capacity: 8, Clock: clock})
	id := TraceID(7)
	start := c.Now()
	c.Observe(id, "session", start, 5*time.Millisecond, "sid", 1)
	c.Observe(TraceID(8), "session", c.Now(), 2*time.Millisecond)

	all := c.Snapshot(0)
	if len(all) != 2 {
		t.Fatalf("snapshot len = %d, want 2", len(all))
	}
	got := all[0]
	if got.Trace != id || got.Role != "backend" || got.Proc != "b0" ||
		got.Name != "session" || got.DurNs != 5e6 || !got.Start.Equal(start) {
		t.Fatalf("unexpected record %+v", got)
	}
	if len(got.Attrs) != 1 || got.Attrs[0].Key != "sid" {
		t.Fatalf("attrs = %+v", got.Attrs)
	}

	only := c.Snapshot(id)
	if len(only) != 1 || only[0].Trace != id {
		t.Fatalf("filtered snapshot = %+v", only)
	}
}

func TestCollectorRingWraps(t *testing.T) {
	c := NewCollector(CollectorConfig{Capacity: 4, Clock: fakeClock(time.Microsecond)})
	for i := 0; i < 10; i++ {
		c.Observe(TraceID(uint64(i+1)), "s", c.Now(), time.Millisecond)
	}
	snap := c.Snapshot(0)
	if len(snap) != 4 {
		t.Fatalf("ring holds %d, want 4", len(snap))
	}
	// Oldest-first: traces 7, 8, 9, 10 survive.
	for i, want := range []TraceID{7, 8, 9, 10} {
		if snap[i].Trace != want {
			t.Fatalf("snap[%d].Trace = %v, want %v", i, snap[i].Trace, want)
		}
	}
	if c.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", c.Dropped())
	}
}

func TestCollectorAddTrace(t *testing.T) {
	clock := fakeClock(time.Millisecond)
	tr := stage.NewTraceWithClock("receive_binary", clock)
	tm := tr.Start("parse")
	tm.End("obj_bytes", 42)
	tr.Add("disasm", 3*time.Millisecond, "instructions", 9)

	c := NewCollector(CollectorConfig{Role: "backend", Proc: "b1", Clock: clock})
	id := TraceID(0x1234)
	c.AddTrace(id, tr)

	snap := c.Snapshot(id)
	if len(snap) != 2 {
		t.Fatalf("AddTrace recorded %d spans, want 2", len(snap))
	}
	if snap[0].Name != "receive_binary/parse" || snap[1].Name != "receive_binary/disasm" {
		t.Fatalf("span names = %q, %q", snap[0].Name, snap[1].Name)
	}
	// Start offsets map onto the absolute timeline.
	wantStart := tr.Begin().Add(tr.Spans()[0].Start)
	if !snap[0].Start.Equal(wantStart) {
		t.Fatalf("span start = %v, want %v", snap[0].Start, wantStart)
	}
	// nil trace and nil collector are no-ops.
	c.AddTrace(id, nil)
	var nilC *Collector
	nilC.AddTrace(id, tr)
	nilC.Observe(id, "x", time.Now(), time.Second)
	if nilC.Snapshot(0) != nil {
		t.Fatal("nil collector snapshot not nil")
	}
}

func TestCollectorSinkJSONL(t *testing.T) {
	var buf bytes.Buffer
	c := NewCollector(CollectorConfig{Role: "gateway", Proc: "gw", Sink: &buf, Clock: fakeClock(time.Millisecond)})
	c.Observe(TraceID(3), "gateway/splice", c.Now(), 7*time.Millisecond, "bytes", 512)
	c.Observe(TraceID(4), "gateway/route", c.Now(), time.Millisecond)

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("sink lines = %d, want 2", len(lines))
	}
	var rec SpanRecord
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("sink line not JSON: %v", err)
	}
	if rec.Trace != 3 || rec.Name != "gateway/splice" || rec.Role != "gateway" {
		t.Fatalf("sink record = %+v", rec)
	}
}

func TestCollectorSlowSampler(t *testing.T) {
	var mu sync.Mutex
	var events []string
	log := func(event string, kv ...any) {
		mu.Lock()
		events = append(events, event+" "+KV(kv...))
		mu.Unlock()
	}
	c := NewCollector(CollectorConfig{
		Clock:         fakeClock(time.Millisecond),
		SlowThreshold: 10 * time.Millisecond,
		Log:           log,
	})
	c.Observe(TraceID(1), "session", c.Now(), 5*time.Millisecond) // fast: silent
	c.Observe(TraceID(2), "session", c.Now(), 25*time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if len(events) != 1 {
		t.Fatalf("slow sampler fired %d times, want 1: %v", len(events), events)
	}
	if !strings.Contains(events[0], "slow_span") || !strings.Contains(events[0], TraceID(2).String()) {
		t.Fatalf("slow event = %q", events[0])
	}
}

func TestCollectorHandler(t *testing.T) {
	c := NewCollector(CollectorConfig{Role: "backend", Proc: "b0", Clock: fakeClock(time.Millisecond)})
	id := NewTraceID()
	c.Observe(id, "session", c.Now(), time.Millisecond)
	c.Observe(TraceID(9), "session", c.Now(), time.Millisecond)

	req := httptest.NewRequest("GET", "/traces?trace="+id.String(), nil)
	rw := httptest.NewRecorder()
	c.Handler().ServeHTTP(rw, req)
	if cc := rw.Header().Get("Cache-Control"); cc != "no-store" {
		t.Fatalf("Cache-Control = %q, want no-store", cc)
	}
	var doc TracesDoc
	if err := json.Unmarshal(rw.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Role != "backend" || doc.Proc != "b0" {
		t.Fatalf("doc identity = %q/%q", doc.Role, doc.Proc)
	}
	if len(doc.Spans) != 1 || doc.Spans[0].Trace != id {
		t.Fatalf("filtered spans = %+v", doc.Spans)
	}

	// Bad filter is a 400, not a panic.
	rw = httptest.NewRecorder()
	c.Handler().ServeHTTP(rw, httptest.NewRequest("GET", "/traces?trace=zzz", nil))
	if rw.Code != 400 {
		t.Fatalf("bad filter status = %d", rw.Code)
	}
}

func TestCollectorConcurrent(t *testing.T) {
	c := NewCollector(CollectorConfig{Capacity: 64, Sink: &safeBuffer{}})
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c.Observe(TraceID(uint64(g+1)), "s", time.Now(), time.Millisecond, "i", i)
				_ = c.Snapshot(0)
			}
		}(g)
	}
	wg.Wait()
	if got := len(c.Snapshot(0)); got != 64 {
		t.Fatalf("ring holds %d, want 64", got)
	}
}

// safeBuffer is a goroutine-safe sink for concurrency tests.
type safeBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *safeBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}
