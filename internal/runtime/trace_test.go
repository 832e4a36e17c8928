package runtime_test

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"deflection/internal/apps"
	"deflection/internal/compiler"
	"deflection/internal/dclib"
	"deflection/internal/enclave"
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
	// A deterministic clock (1ms per reading) keeps live-span durations
	// reproducible; verifier-measured spans are normalised by durRE.
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
// test normalises away: every pipeline stage and every required policy
// records a strictly positive duration, and the audit trail is complete.
func TestTraceDurationsAndAudit(t *testing.T) {
	b := newBootstrap(t, policy.SetAll)
	rep := compileAndLoad(t, b, traceSrc, policy.SetP1P8)

	for _, stage := range []string{"parse", "load", "disasm", "rewrite"} {
		if d := obs.Dur(rep.Trace, stage); d <= 0 {
			t.Errorf("stage %q duration = %v, want > 0", stage, d)
		}
	}
	for _, id := range policy.All() {
		if id == policy.P7 || id == policy.P8 {
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
		if a.Policy != policy.P7 && a.Policy != policy.P8 && a.Duration <= 0 {
			t.Errorf("audit[%d] (%v) duration = %v, want > 0", i, a.Policy, a.Duration)
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
// their time is in cfa/taint and cfa/order, and the policy/P7 and
// policy/P8 spans and audit entries hold none of it, so the trace total
// (and the "policies" column of -exp micro) counts each pass once.
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
		if d := rep.Audit[id].Duration; d != 0 {
			t.Errorf("%v audit duration = %v, want 0", id, d)
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
