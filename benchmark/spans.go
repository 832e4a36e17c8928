package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"deflection/internal/obs"
)

// span is one timed interval of a traced op, recorded by the benchmark
// around a call into the program or imported from the program's own
// telemetry (a LoadReport stage trace or an obs.Collector).
type span struct {
	id, parent int
	op         int
	name       string
	start, end time.Time
	self       time.Duration
	attrs      []obs.Attr
}

func (s *span) dur() time.Duration { return s.end.Sub(s.start) }

// recorder keeps the spans of one traced window in memory. A nil
// recorder is the untraced run: every method is a no-op.
type recorder struct {
	mu    sync.Mutex
	spans []span
	ops   map[obs.TraceID]int // trace ID an op sent → op index
}

func newRecorder() *recorder { return &recorder{ops: make(map[obs.TraceID]int)} }

// add records one span of op.
func (r *recorder) add(op int, name string, start, end time.Time, attrs ...obs.Attr) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{op: op, name: name, start: start, end: end, attrs: attrs})
	r.mu.Unlock()
}

// traceID mints the trace ID op sends to the program, so spans the program
// records under it can be attributed back to op. Untraced runs send none.
func (r *recorder) traceID(op int) obs.TraceID {
	if r == nil {
		return 0
	}
	id := obs.TraceID(op + 1)
	r.mu.Lock()
	r.ops[id] = op
	r.mu.Unlock()
	return id
}

// stagePrefix names the bootstrap's receive_binary stage spans, both in the
// collector (obs.Collector.AddTrace qualifies them so) and in this file.
const stagePrefix = "receive_binary/"

// timedInPlace are the receive_binary stages the bootstrap times with real
// start and end instants. The others are timed inside the verifier and the
// rewriter and appended afterwards with only a duration, so addStages lays
// them end to end in record order after the last in-place stage.
var timedInPlace = map[string]bool{"parse": true, "policy/P0": true, "load": true}

// doubleBilled are audit entries whose time the verifier also reports as a
// cfa/* stage (P7 is the taint pass, P8 the order pass). Keeping them would
// count those passes twice.
var doubleBilled = map[string]bool{"policy/P7": true, "policy/P8": true}

// addStages records the spans of one receive_binary stage trace that began
// at begin.
func (r *recorder) addStages(op int, begin time.Time, stages []obs.Span) {
	if r == nil {
		return
	}
	cursor := begin
	for _, sp := range stages {
		if doubleBilled[sp.Name] {
			continue
		}
		start := cursor
		if timedInPlace[sp.Name] {
			start = begin.Add(sp.Start)
		}
		end := start.Add(sp.Dur)
		if end.After(cursor) {
			cursor = end
		}
		r.add(op, stagePrefix+sp.Name, start, end, sp.Attrs...)
	}
}

// importSpans attributes collector records to the ops whose trace IDs they
// carry; records of untraced sessions (warm-up) are dropped.
func (r *recorder) importSpans(recs []obs.SpanRecord) {
	if r == nil {
		return
	}
	stages := make(map[obs.TraceID][]obs.SpanRecord)
	var order []obs.TraceID
	for _, rec := range recs {
		op, ok := r.ops[rec.Trace]
		if !ok {
			continue
		}
		if strings.HasPrefix(rec.Name, stagePrefix) {
			if stages[rec.Trace] == nil {
				order = append(order, rec.Trace)
			}
			stages[rec.Trace] = append(stages[rec.Trace], rec)
			continue
		}
		start, end := rec.Start, rec.Start.Add(time.Duration(rec.DurNs))
		if strings.HasPrefix(rec.Name, "session/") {
			// The server adds its session phases when they end.
			start, end = rec.Start.Add(-time.Duration(rec.DurNs)), rec.Start
		}
		r.add(op, rec.Name, start, end, rec.Attrs...)
	}
	for _, tid := range order {
		recs := stages[tid]
		// The first stage (parse) starts at the trace's first instant.
		begin := recs[0].Start
		sps := make([]obs.Span, len(recs))
		for i, rec := range recs {
			sps[i] = obs.Span{
				Name:  strings.TrimPrefix(rec.Name, stagePrefix),
				Start: rec.Start.Sub(begin),
				Dur:   time.Duration(rec.DurNs),
				Attrs: rec.Attrs,
			}
		}
		r.addStages(r.ops[tid], begin, sps)
	}
}

// finish numbers the spans, links each to the innermost span of its op
// that contains it, and computes self times: duration minus the part of it
// that child spans cover.
func (r *recorder) finish() {
	sort.SliceStable(r.spans, func(i, j int) bool {
		a, b := &r.spans[i], &r.spans[j]
		if a.op != b.op {
			return a.op < b.op
		}
		if !a.start.Equal(b.start) {
			return a.start.Before(b.start)
		}
		return a.end.After(b.end)
	})
	children := make([][]int, len(r.spans))
	first := 0 // index of the current op's first span
	for i := range r.spans {
		s := &r.spans[i]
		s.id, s.parent = i, -1
		if s.op != r.spans[first].op {
			first = i
		}
		// Spans of different layers may overlap without nesting (a server
		// phase that outlives the client call), so search every earlier
		// span of the op; the latest-starting container is the innermost.
		for j := i - 1; j >= first; j-- {
			if p := &r.spans[j]; !s.end.After(p.end) {
				s.parent = j
				children[j] = append(children[j], i)
				break
			}
		}
	}
	for i := range r.spans {
		s := &r.spans[i]
		covered := time.Duration(0)
		var hi time.Time
		for _, c := range children[i] { // already in start order
			cs, ce := r.spans[c].start, r.spans[c].end
			if cs.Before(hi) {
				cs = hi
			}
			if ce.After(cs) {
				covered += ce.Sub(cs)
				hi = ce
			}
		}
		s.self = s.dur() - covered
	}
}

// opTotals returns, for each op that has at least one span matching keep,
// the summed duration of its matching spans.
func (r *recorder) opTotals(keep func(name string) bool) []time.Duration {
	sums := make(map[int]time.Duration)
	for i := range r.spans {
		if s := &r.spans[i]; keep(s.name) {
			sums[s.op] += s.dur()
		}
	}
	out := make([]time.Duration, 0, len(sums))
	for _, d := range sums {
		out = append(out, d)
	}
	return out
}

// named matches exactly the given span names.
func named(names ...string) func(string) bool {
	return func(n string) bool {
		for _, m := range names {
			if n == m {
				return true
			}
		}
		return false
	}
}

// attrSum adds up an integer attribute over spans with the given name.
func (r *recorder) attrSum(name, key string) int64 {
	var n int64
	for i := range r.spans {
		if r.spans[i].name == name {
			n += attr(r.spans[i].attrs, key)
		}
	}
	return n
}

// spanJSON is one span in the span file. Times are nanoseconds from the
// start of the traced window.
type spanJSON struct {
	ID     int            `json:"id"`
	Parent int            `json:"parent"`
	Op     int            `json:"op"`
	Name   string         `json:"name"`
	Start  int64          `json:"start_ns"`
	End    int64          `json:"end_ns"`
	Self   int64          `json:"self_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// writeFile writes the spans of a finished recorder as JSON.
func (r *recorder) writeFile(path, workload string, seed uint64, origin time.Time) error {
	doc := struct {
		Workload string     `json:"workload"`
		Seed     uint64     `json:"seed"`
		Spans    []spanJSON `json:"spans"`
	}{Workload: workload, Seed: seed, Spans: make([]spanJSON, 0, len(r.spans))}
	for _, s := range r.spans {
		js := spanJSON{
			ID: s.id, Parent: s.parent, Op: s.op, Name: s.name,
			Start: s.start.Sub(origin).Nanoseconds(),
			End:   s.end.Sub(origin).Nanoseconds(),
			Self:  s.self.Nanoseconds(),
		}
		if len(s.attrs) > 0 {
			js.Attrs = make(map[string]any, len(s.attrs))
			for _, a := range s.attrs {
				js.Attrs[a.Key] = a.Val
			}
		}
		doc.Spans = append(doc.Spans, js)
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	return os.WriteFile(path, b, 0o644)
}
