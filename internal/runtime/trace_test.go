package runtime_test

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
	"time"

	"deflection/internal/apps"
	"deflection/internal/asmtext"
	"deflection/internal/compiler"
	"deflection/internal/dclib"
	"deflection/internal/enclave"
	"deflection/internal/loader"
	"deflection/internal/obs"
	"deflection/internal/policy"
	"deflection/internal/runtime"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// traceSrc is the known-good example program for the golden trace.
const traceSrc = `
int main() {
	int sum = 0;
	for (int i = 1; i <= 10; i++) sum += i;
	return sum;
}`

// durRE matches rendered time.Duration values so golden comparisons are
// independent of actual wall time; spaceRE collapses tabwriter padding,
// whose column widths depend on the duration string lengths.
var (
	durRE   = regexp.MustCompile(`\d+(\.\d+)?(ns|µs|ms|m|s|h)+`)
	spaceRE = regexp.MustCompile(`[ \t]+`)
)

func normalizeTrace(s string) string {
	return spaceRE.ReplaceAllString(durRE.ReplaceAllString(s, "<dur>"), " ")
}

// TestTraceGolden locks down the stage-trace structure of a full
// ReceiveBinary cycle: span order, names and attributes for a known-good
// program, with durations normalised out. Regenerate with -update.
func TestTraceGolden(t *testing.T) {
	b := newBootstrap(t, policy.SetAll)
	// A deterministic clock (1ms per reading) times every span, the
	// verifier's included, so durations are reproducible; durRE still
	// normalises them so the golden pins only the span schema.
	var ticks int64
	b.SetTraceClock(func() time.Time {
		ticks++
		return time.Unix(0, ticks*int64(time.Millisecond))
	})
	rep := compileAndLoad(t, b, traceSrc, policy.SetP1P8)
	if rep.Trace == nil {
		t.Fatal("LoadReport carries no trace")
	}
	if rep.Trace != b.LastTrace() {
		t.Fatal("LastTrace does not return the report's trace")
	}

	got := normalizeTrace(obs.Text(rep.Trace))
	golden := filepath.Join("testdata", "trace_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("trace text drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// The JSON rendering must parse and cover the same spans.
	js, err := obs.JSON(rep.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(js) == 0 {
		t.Fatal("empty JSON trace")
	}
}

// TestTraceDurationsAndAudit checks the real-clock properties the golden
// test normalises away: every pipeline stage and every policy with checks
// of its own records a strictly positive duration, and the audit trail is
// complete.
func TestTraceDurationsAndAudit(t *testing.T) {
	b := newBootstrap(t, policy.SetAll)
	rep := compileAndLoad(t, b, traceSrc, policy.SetP1P8)

	for _, stage := range []string{"parse", "load", "disasm", "rewrite"} {
		if d := obs.Dur(rep.Trace, stage); d <= 0 {
			t.Errorf("stage %q duration = %v, want > 0", stage, d)
		}
	}
	for _, id := range policy.All() {
		switch id {
		case policy.P3, policy.P4:
			continue // enforced by P1's store guards, timed in policy/P1
		case policy.P7, policy.P8:
			continue // timed as cfa/taint and cfa/order: TestTracePassesCountedOnce
		}
		if d := obs.Dur(rep.Trace, "policy/"+id.String()); d <= 0 {
			t.Errorf("policy span %v duration = %v, want > 0", id, d)
		}
	}

	if len(rep.Audit) != len(policy.All()) {
		t.Fatalf("audit has %d entries, want %d", len(rep.Audit), len(policy.All()))
	}
	for i, a := range rep.Audit {
		if a.Policy != policy.ID(i) {
			t.Errorf("audit[%d] is %v, want P%d", i, a.Policy, i)
		}
		if !a.Required {
			t.Errorf("audit[%d] (%v): all policies are in the manifest, but Required=false", i, a.Policy)
		}
		if !a.Passed {
			t.Errorf("audit[%d] (%v) not passed on a known-good program", i, a.Policy)
		}
		if a.Detail == "" {
			t.Errorf("audit[%d] (%v) has no detail", i, a.Policy)
		}
	}
}

// permissiveProtocol admits every interface event from one attested state,
// so a P1-P8 load runs the order pass over a real program.
const permissiveProtocol = `
protocol {
    state run attested;
    state end attested;
    run: send -> run;
    run: recv -> run;
    run: print -> run;
    run: tid -> run;
    run: hlt -> end;
}
`

// TestTracePassesCountedOnce: the taint and order passes are the whole of
// P7's and P8's checks, and each interval goes into one span. On an app
// with secret buffers and a declared protocol both passes do real work;
// their time is in cfa/taint and cfa/order, and no policy/P7 or policy/P8
// span holds any of it, so the trace total (and the "policies" column of
// -exp micro) counts each pass once.
func TestTracePassesCountedOnce(t *testing.T) {
	b := newBootstrap(t, policy.SetAll)
	rep := compileAndLoad(t, b, dclib.Program(permissiveProtocol+apps.CreditSource), policy.SetP1P8)
	for _, pass := range []string{"cfa/taint", "cfa/order"} {
		if d := obs.Dur(rep.Trace, pass); d <= 0 {
			t.Errorf("%s duration = %v, want > 0", pass, d)
		}
	}
	for _, id := range []policy.ID{policy.P7, policy.P8} {
		if d := obs.Dur(rep.Trace, "policy/"+id.String()); d != 0 {
			t.Errorf("policy/%v span holds %v of its pass's time, want 0", id, d)
		}
	}
}

// TestTraceOnRejection: a failed load still leaves an inspectable trace.
func TestTraceOnRejection(t *testing.T) {
	m := runtime.DefaultManifest()
	b, err := runtime.New(enclave.DefaultConfig(), m)
	if err != nil {
		t.Fatal(err)
	}
	// Compile without instrumentation but demand the full set: the policy
	// mask check (P0 span) rejects it.
	o, err := compiler.Compile(traceSrc, compiler.Options{Policies: policy.SetNone})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.ReceiveBinary(o.Marshal()); err == nil {
		t.Fatal("uninstrumented binary accepted by a full manifest")
	}
	tr := b.LastTrace()
	if tr == nil {
		t.Fatal("no trace after rejection")
	}
	if obs.Dur(tr, "parse") <= 0 {
		t.Error("rejection trace lacks the parse span")
	}
}

// TestTraceSpansInOrder: every span of a wall-clock ReceiveBinary trace is
// timed where its phase runs, so each starts no earlier than the previous
// one ends.
func TestTraceSpansInOrder(t *testing.T) {
	b := newBootstrap(t, policy.SetAll)
	rep := compileAndLoad(t, b, dclib.Program(permissiveProtocol+apps.CreditSource), policy.SetP1P8)
	spans := rep.Trace.Spans()
	for i := 1; i < len(spans); i++ {
		prev, sp := spans[i-1], spans[i]
		if end := prev.Start + prev.Dur; sp.Start < end {
			t.Errorf("%s starts at %v, before %s ends at %v", sp.Name, sp.Start, prev.Name, end)
		}
	}
}

// TestTraceNamesRejectingPhase: a binary the verifier rejects leaves a
// trace holding the disasm span and, last, the span of the phase that
// rejected it, with the rejection as its error attribute.
func TestTraceNamesRejectingPhase(t *testing.T) {
	unguarded, err := compiler.Compile(`
int g;
int main() { g = 1; return g; }`, compiler.Options{Policies: policy.SetNone})
	if err != nil {
		t.Fatal(err)
	}
	unguarded.PolicyMask = uint16(policy.SetP1) // claim P1 without its guards
	deadBytes, err := asmtext.Assemble(`
.entry _start
.func _start
  hlt
.func orphan
  mov rax, 1
  hlt
`, uint16(policy.Bit(policy.P4)))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		pols policy.Set
		bin  []byte
	}{
		{"policy/P1", policy.SetP1, unguarded.Marshal()},
		{"cfa/deadbyte", policy.Bit(policy.P4), deadBytes.Marshal()},
	} {
		b := newBootstrap(t, tc.pols)
		_, err := b.ReceiveBinary(tc.bin)
		if err == nil {
			t.Fatalf("%s: binary accepted", tc.name)
		}
		spans := b.LastTrace().Spans()
		if !slices.ContainsFunc(spans, func(sp obs.Span) bool { return sp.Name == "disasm" }) {
			t.Errorf("%s: rejection trace lacks the disasm span: %+v", tc.name, spans)
		}
		last := spans[len(spans)-1]
		if last.Name != tc.name {
			t.Errorf("trace ends with %s, want %s: %+v", last.Name, tc.name, spans)
		}
		if len(last.Attrs) != 1 || last.Attrs[0].Key != "error" || last.Attrs[0].Val != err.Error() {
			t.Errorf("%s: attributes %v, want error=%q", last.Name, last.Attrs, err)
		}
	}
}

// TestTraceLoadRejection: an object whose .bss exceeds the enclave heap is
// rejected by the loader, and the trace ends with the load span carrying
// the error.
func TestTraceLoadRejection(t *testing.T) {
	o, err := asmtext.Assemble(`
.entry _start
.bss big 16777216
.func _start
  hlt
`, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := newBootstrap(t, policy.SetNone)
	_, err = b.ReceiveBinary(o.Marshal())
	if !errors.Is(err, loader.ErrTooLarge) {
		t.Fatalf("ReceiveBinary = %v, want loader.ErrTooLarge", err)
	}
	spans := b.LastTrace().Spans()
	last := spans[len(spans)-1]
	if last.Name != "load" || len(last.Attrs) != 1 || last.Attrs[0].Key != "error" || last.Attrs[0].Val != err.Error() {
		t.Errorf("trace ends with %+v, want the load span with error=%q", last, err)
	}
}
