package obs

import (
	"encoding/json"
	"fmt"
	"strings"
	"text/tabwriter"
	"time"

	"deflection/internal/stage"
)

// The stage-trace data types live in internal/stage, which the bootstrap
// enclave links without this package; obs re-exports them and renders
// them.
type (
	Attr  = stage.Attr
	Span  = stage.Span
	Trace = stage.Trace
	Timer = stage.Timer
)

// NewTrace starts a trace using the wall clock.
func NewTrace(name string) *Trace { return stage.NewTraceWithClock(name, time.Now) }

// Dur sums the durations of the trace's spans with exactly the given name.
func Dur(t *Trace, name string) time.Duration {
	var d time.Duration
	for _, sp := range t.Spans() {
		if sp.Name == name {
			d += sp.Dur
		}
	}
	return d
}

// DurPrefix sums the durations of the trace's spans whose name starts with
// prefix.
func DurPrefix(t *Trace, prefix string) time.Duration {
	var d time.Duration
	for _, sp := range t.Spans() {
		if strings.HasPrefix(sp.Name, prefix) {
			d += sp.Dur
		}
	}
	return d
}

// Total sums every span's duration.
func Total(t *Trace) time.Duration { return DurPrefix(t, "") }

// Text renders the trace as an aligned human-readable table.
func Text(t *Trace) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "trace %s (total %v)\n", t.Name, Total(t))
	tw := tabwriter.NewWriter(&sb, 2, 0, 2, ' ', 0)
	for _, sp := range t.Spans() {
		parts := make([]string, 0, len(sp.Attrs))
		for _, a := range sp.Attrs {
			parts = append(parts, fmt.Sprintf("%s=%v", a.Key, a.Val))
		}
		fmt.Fprintf(tw, "  %s\t%v\t%s\n", sp.Name, sp.Dur, strings.Join(parts, " "))
	}
	tw.Flush()
	return sb.String()
}

// jsonSpan mirrors Span with stable JSON field names.
type jsonSpan struct {
	Name    string         `json:"name"`
	StartNs int64          `json:"start_ns"`
	DurNs   int64          `json:"dur_ns"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// JSON renders the trace as a machine-readable document.
func JSON(t *Trace) ([]byte, error) {
	spans := t.Spans()
	doc := struct {
		Name    string     `json:"name"`
		TotalNs int64      `json:"total_ns"`
		Spans   []jsonSpan `json:"spans"`
	}{Name: t.Name, TotalNs: Total(t).Nanoseconds()}
	for _, sp := range spans {
		js := jsonSpan{Name: sp.Name, StartNs: sp.Start.Nanoseconds(), DurNs: sp.Dur.Nanoseconds()}
		if len(sp.Attrs) > 0 {
			js.Attrs = make(map[string]any, len(sp.Attrs))
			for _, a := range sp.Attrs {
				js.Attrs[a.Key] = a.Val
			}
		}
		doc.Spans = append(doc.Spans, js)
	}
	return json.MarshalIndent(doc, "", "  ")
}
