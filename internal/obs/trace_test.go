package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"deflection/internal/stage"
)

func TestTraceAttrsOddLength(t *testing.T) {
	tr := stage.NewTraceWithClock("t", fakeClock(time.Millisecond))
	tm := tr.Start("s")
	tm.End("key_without_value") // odd-length kv
	spans := tr.Spans()
	if len(spans) != 1 {
		t.Fatalf("spans = %d", len(spans))
	}
	attrs := spans[0].Attrs
	if len(attrs) != 1 || attrs[0].Key != "key_without_value" || attrs[0].Val != "(missing)" {
		t.Fatalf("odd kv attrs = %+v", attrs)
	}

	tr.Add("s2", time.Millisecond, "a", 1, "dangling")
	attrs = tr.Spans()[1].Attrs
	if len(attrs) != 2 || attrs[1].Key != "dangling" || attrs[1].Val != "(missing)" {
		t.Fatalf("trailing odd kv attrs = %+v", attrs)
	}
}

func TestTraceAttrsNonStringKeys(t *testing.T) {
	tr := stage.NewTraceWithClock("t", fakeClock(time.Millisecond))
	type custom struct{ A int }
	// Keys of any type are stringified with fmt.Sprint, never panic.
	tr.Add("s", time.Millisecond, 42, "answer", custom{7}, "struct-key", nil, "nil-key")
	attrs := tr.Spans()[0].Attrs
	if len(attrs) != 3 {
		t.Fatalf("attrs = %+v", attrs)
	}
	if attrs[0].Key != "42" || attrs[0].Val != "answer" {
		t.Fatalf("int key attr = %+v", attrs[0])
	}
	if attrs[1].Key != "{7}" {
		t.Fatalf("struct key attr = %+v", attrs[1])
	}
	if attrs[2].Key != "<nil>" {
		t.Fatalf("nil key attr = %+v", attrs[2])
	}

	// The JSON rendering survives exotic keys too.
	data, err := JSON(tr)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []struct {
			Attrs map[string]any `json:"attrs"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if _, ok := doc.Spans[0].Attrs["42"]; !ok {
		t.Fatalf("JSON attrs = %+v", doc.Spans[0].Attrs)
	}
}

func TestTraceEmptyAttrs(t *testing.T) {
	tr := stage.NewTraceWithClock("t", fakeClock(time.Millisecond))
	tr.Add("s", time.Millisecond)
	if attrs := tr.Spans()[0].Attrs; attrs != nil {
		t.Fatalf("empty kv should yield nil attrs, got %+v", attrs)
	}
}

func TestDurPrefixOverlapping(t *testing.T) {
	tr := stage.NewTraceWithClock("t", fakeClock(time.Millisecond))
	tr.Add("cfa/build", 10*time.Millisecond)
	tr.Add("cfa/buildcache", 20*time.Millisecond) // shares the "cfa/build" prefix
	tr.Add("cfa/targets", 40*time.Millisecond)
	tr.Add("cfa", 80*time.Millisecond) // exact name, also prefix of all above
	tr.Add("policy/P1", 160*time.Millisecond)

	cases := []struct {
		prefix string
		want   time.Duration
	}{
		{"cfa", 150 * time.Millisecond},      // all four cfa* spans
		{"cfa/", 70 * time.Millisecond},      // excludes the bare "cfa"
		{"cfa/build", 30 * time.Millisecond}, // build + buildcache overlap
		{"cfa/builds", 0},                    // prefix matching is literal
		{"", 310 * time.Millisecond},         // empty prefix sums everything
		{"policy/", 160 * time.Millisecond},
	}
	for _, c := range cases {
		if got := DurPrefix(tr, c.prefix); got != c.want {
			t.Errorf("DurPrefix(%q) = %v, want %v", c.prefix, got, c.want)
		}
	}
	// Dur is exact-name only: "cfa" must not absorb "cfa/build".
	if got := Dur(tr, "cfa"); got != 80*time.Millisecond {
		t.Errorf("Dur(cfa) = %v, want 80ms", got)
	}
}

func TestTraceTextRendering(t *testing.T) {
	tr := stage.NewTraceWithClock("pipeline", fakeClock(time.Millisecond))
	tr.Add("parse", time.Millisecond, "bytes", 128)
	text := Text(tr)
	if !strings.Contains(text, "trace pipeline") || !strings.Contains(text, "bytes=128") {
		t.Fatalf("text rendering:\n%s", text)
	}
}
