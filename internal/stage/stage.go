// Package stage records the stage trace of one pipeline run: named, timed
// spans with key/value attributes, appended in record order.
//
// It is the only tracing the bootstrap enclave links. The package holds
// plain data and the standard library's time, sync and fmt, nothing else:
// rendering (text, JSON, totals) and export to a span collector belong to
// the untrusted observability plane (internal/obs), which aliases these
// types. Keeping the two apart keeps obs, and through it net/http, out of
// the trusted import closure that the TCB lint walks.
package stage

import (
	"fmt"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span. Attrs keep insertion order
// so renderings are deterministic.
type Attr struct {
	Key string
	Val any
}

// Span is one timed stage of a pipeline trace. Start is the offset from
// the trace's first instant, so spans are self-contained and serialisable.
type Span struct {
	Name  string
	Start time.Duration
	Dur   time.Duration
	Attrs []Attr
}

// Trace is a structured record of one pipeline run (e.g. the bootstrap
// enclave's parse → load → disasm → verify → rewrite path). It is built
// incrementally by the instrumented code and read back with Spans.
type Trace struct {
	Name string

	mu    sync.Mutex
	begin time.Time
	spans []Span
	clock func() time.Time
}

// NewTraceWithClock starts a trace with an explicit clock — tests inject a
// deterministic one so rendered durations are reproducible. A nil clock
// selects the wall clock.
func NewTraceWithClock(name string, clock func() time.Time) *Trace {
	if clock == nil {
		clock = time.Now
	}
	return &Trace{Name: name, begin: clock(), clock: clock}
}

// Begin returns the trace's first instant (span Start offsets are
// relative to it) — what a span collector needs to place stage spans on
// the absolute timeline.
func (t *Trace) Begin() time.Time { return t.begin }

// Timer is an in-flight span started by Trace.Start.
type Timer struct {
	t     *Trace
	name  string
	start time.Time
}

// Start opens a span; call End on the returned timer to record it. A nil
// trace returns a nil timer, whose End does nothing, so instrumented code
// runs untraced without nil checks.
func (t *Trace) Start(name string) *Timer {
	if t == nil {
		return nil
	}
	return &Timer{t: t, name: name, start: t.clock()}
}

// End records the span with optional alternating key/value attributes.
func (tm *Timer) End(kv ...any) {
	if tm == nil {
		return
	}
	now := tm.t.clock()
	tm.t.append(Span{
		Name:  tm.name,
		Start: tm.start.Sub(tm.t.begin),
		Dur:   now.Sub(tm.start),
		Attrs: Attrs(kv...),
	})
}

// Add records a span whose duration was measured elsewhere (a session
// phase timed by its caller); its start offset is the current trace time.
func (t *Trace) Add(name string, d time.Duration, kv ...any) {
	t.append(Span{
		Name:  name,
		Start: t.clock().Sub(t.begin),
		Dur:   d,
		Attrs: Attrs(kv...),
	})
}

func (t *Trace) append(sp Span) {
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans in record order.
func (t *Trace) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Attrs pairs alternating keys and values into attributes. Keys of any
// type are stringified with fmt.Sprint; a trailing key without a value
// gets "(missing)". No pairs yield nil.
func Attrs(kv ...any) []Attr {
	if len(kv) == 0 {
		return nil
	}
	out := make([]Attr, 0, (len(kv)+1)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		out = append(out, Attr{Key: fmt.Sprint(kv[i]), Val: kv[i+1]})
	}
	if len(kv)%2 != 0 {
		out = append(out, Attr{Key: fmt.Sprint(kv[len(kv)-1]), Val: "(missing)"})
	}
	return out
}
