package verifier_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"deflection/internal/apps"
	"deflection/internal/asmtext"
	"deflection/internal/cfa"
	"deflection/internal/compiler"
	"deflection/internal/dclib"
	"deflection/internal/nbench"
	"deflection/internal/obj"
	"deflection/internal/policy"
	"deflection/internal/stage"
	"deflection/internal/taint"
	"deflection/internal/verifier"
)

var updateReports = flag.Bool("update", false, "rewrite testdata/reports.golden")

// Protocols prepended to the applications so the order pass runs its real
// product fixpoint on them: one every app conforms to, and one that
// demands exactly one sealed send before the halt (violated by every early
// exit path).
const (
	goldenPermissive = `
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
	goldenStrict = `
protocol {
    state init;
    state ready attested;
    state sent attested;
    state end attested;
    init: recv -> ready;
    ready: send -> sent;
    sent: hlt -> end;
}
`
)

// TestReportGolden pins the complete P7 and P8 reports — findings, per-block
// masks, function and context counts, tainted ranges, state counts, step
// counts and the trivial flag — plus the verdict and, for an acceptance, the
// verifier's whole Result bar durations (stats, annotation ranges, CFA
// stats, audit trail, block and instruction counts), for every application,
// every benchmark kernel and every near-miss fixture of this package.
// Steps is pinned on purpose: it shows the fixpoint visits blocks in the
// same order. Regenerate with `go test ./internal/verifier/ -run
// TestReportGolden -update`.
func TestReportGolden(t *testing.T) {
	var sb strings.Builder
	appSrcs := []struct{ name, src string }{
		{"nw", apps.NWSource},
		{"credit", apps.CreditSource},
		{"seqgen", apps.SeqGenSource},
		{"httpsrv", apps.HTTPSHandlerSource},
	}
	for _, a := range appSrcs {
		goldenCompiled(t, &sb, "app "+a.name, a.src)
		goldenCompiled(t, &sb, "app "+a.name+" +permissive protocol", goldenPermissive+a.src)
	}
	goldenCompiled(t, &sb, "app credit +strict protocol", goldenStrict+apps.CreditSource)
	for _, k := range nbench.Kernels() {
		goldenCompiled(t, &sb, "kernel "+k.Name, k.Source)
	}

	type fixture struct {
		name   string
		src    string
		mangle func([]int64) []int64
	}
	fixtures := []fixture{
		{name: "good store guard", src: goodStoreGuard},
		{name: "rsp guard good", src: rspGuardGood},
		{name: "rsp guard one-sided", src: rspGuardOneSided},
		{name: "bypassed guard", src: bypassedGuardSrc},
		{name: "clobbered check", src: clobberedCheckSrc},
		{name: "annotation after store", src: annotationAfterStoreSrc},
		{name: "dead bytes", src: deadBytesSrc},
		{name: "target list", src: targetListSrc},
		{name: "target list: outside text", src: targetListSrc, mangle: targetOutsideText},
		{name: "target list: mid-instruction", src: targetListSrc, mangle: targetMidInstruction},
		{name: "target list: listed twice", src: targetListSrc, mangle: targetListedTwice},
		{name: "taint sealed flow", src: taintSealedFlowSrc},
		{name: "taint skipped without P7", src: taintSkippedSrc},
		{name: "taint interprocedural leak", src: taintInterprocSrc},
		{name: "taint argument slot leak", src: taintArgSlotSrc},
		{name: "order conforming", src: orderConformingSrc},
		{name: "order skipped without P8", src: orderSkippedSrc},
		{name: "order ablation", src: orderAblationSrc},
	}
	for name, src := range nearMissGuards {
		fixtures = append(fixtures, fixture{name: "near-miss guard: " + name, src: src})
	}
	for name, tc := range taintLeaks {
		fixtures = append(fixtures, fixture{name: "taint leak: " + name, src: tc.src})
	}
	for name, tc := range orderNearMisses {
		fixtures = append(fixtures, fixture{name: "order near-miss: " + name, src: tc.src})
	}
	for name, src := range tamperedProtocols {
		fixtures = append(fixtures, fixture{name: "order tampered: " + name, src: src})
	}
	sort.SliceStable(fixtures, func(i, j int) bool { return fixtures[i].name < fixtures[j].name })
	// Each fixture runs with only P7 and then only P8 required, so neither
	// pass is pre-empted by a template rejection, and then under p1-p8 and
	// p1-p5 to pin the template, decode and CFA rejection text as well (the
	// hand-written fixtures carry no P6 arming, so p1-p8 stops there).
	for _, fx := range fixtures {
		for _, pols := range []policy.Set{policy.Bit(policy.P7), policy.Bit(policy.P8), policy.SetP1P8, policy.SetP1P5} {
			o, err := asmtext.Assemble(fx.src, uint16(pols))
			if err != nil {
				t.Fatalf("%s: assemble: %v", fx.name, err)
			}
			goldenReports(t, &sb, fmt.Sprintf("fixture %s [%v]", fx.name, pols), o, pols, fx.mangle)
		}
	}

	path := filepath.Join("testdata", "reports.golden")
	got := sb.String()
	if *updateReports {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
			}
		}
	}
}

// goldenCompiled compiles a DC program under p1-p8 and records its reports.
func goldenCompiled(t *testing.T, sb *strings.Builder, name, src string) {
	t.Helper()
	o, err := compiler.Compile(dclib.Program(src), compiler.Options{Policies: policy.SetP1P8})
	if err != nil {
		t.Fatalf("%s: compile: %v", name, err)
	}
	goldenReports(t, sb, name+" [p1-p8]", o, policy.SetP1P8, nil)
}

// goldenReports loads o exactly as the runtime does, verifies it under pols
// and serialises the verdict and whichever reports the Result carries. It
// then verifies o again with a stage trace (tracedAgrees).
func goldenReports(t *testing.T, sb *strings.Builder, name string, o *obj.Object, pols policy.Set, mangle func([]int64) []int64) {
	t.Helper()
	text, opts := loadObject(t, o, pols)
	if mangle != nil {
		opts.BranchTargetOffsets = mangle(opts.BranchTargetOffsets)
	}
	res, verr := verifier.Verify(text, opts)
	tracedAgrees(t, name, text, opts, res, verr)
	fmt.Fprintf(sb, "== %s\n", name)
	if verr != nil {
		fmt.Fprintf(sb, "verdict: rejected: %v\n", verr)
	} else {
		sb.WriteString("verdict: accepted\n")
		goldenResult(sb, res, opts)
	}
	if res == nil {
		return
	}
	if r := res.Taint; r != nil {
		goldenReport(sb, "taint", &r.Report, fmt.Sprintf("memranges=%d", r.MemRanges))
	}
	if r := res.Order; r != nil {
		goldenReport(sb, "order", r, fmt.Sprintf("ctxs=%d states=%d", r.Ctxs, protocolStates(r, opts)))
	}
}

// goldenReport serialises one dataflow report; counts are its pass's own
// counters.
func goldenReport(sb *strings.Builder, pass string, r *cfa.Report, counts string) {
	fmt.Fprintf(sb, "%s: trivial=%t funcs=%d %s steps=%d findings=%d blocks=%d\n",
		pass, r.Trivial, r.Funcs, counts, r.Steps, len(r.Findings), len(r.Blocks))
	for _, f := range r.Findings {
		fmt.Fprintf(sb, "  finding %#x %s: %s\n", f.Off, f.Kind, f.Msg)
	}
	for _, id := range sortedIDs(r.Blocks) {
		fmt.Fprintf(sb, "  block %d in=%#x out=%#x\n", id, r.Blocks[id].In, r.Blocks[id].Out)
	}
}

// protocolStates is the state count of the protocol the order pass analysed
// (0 when it held trivially).
func protocolStates(r *cfa.Report, opts verifier.Options) int {
	if r.Trivial {
		return 0
	}
	return len(opts.Order.States)
}

// tracedAgrees verifies text again with Options.Trace set and fails unless
// the verdict and the Result (Stats, AnnotRanges, CFA, Audit and both
// reports) equal the untraced run's res and verr, and the trace is well
// formed: a disasm span first, and an error attribute on the last span
// exactly when the binary was rejected.
func tracedAgrees(t *testing.T, name string, text []byte, opts verifier.Options, res *verifier.Result, verr error) {
	t.Helper()
	opts.Trace = stage.NewTraceWithClock(name, nil)
	tres, terr := verifier.Verify(text, opts)
	if fmt.Sprint(terr) != fmt.Sprint(verr) {
		t.Fatalf("%s: traced verdict %v, untraced %v", name, terr, verr)
	}
	if (tres == nil) != (res == nil) || res != nil && (!reflect.DeepEqual(tres.Stats, res.Stats) || !reflect.DeepEqual(tres.AnnotRanges, res.AnnotRanges) ||
		!reflect.DeepEqual(tres.CFA, res.CFA) || !reflect.DeepEqual(tres.Audit, res.Audit) ||
		!reflect.DeepEqual(tres.Taint, res.Taint) || !reflect.DeepEqual(tres.Order, res.Order)) {
		t.Fatalf("%s: traced Result differs from the untraced one", name)
	}
	spans := opts.Trace.Spans()
	if len(spans) == 0 || spans[0].Name != "disasm" {
		t.Fatalf("%s: trace does not open with disasm: %+v", name, spans)
	}
	last := spans[len(spans)-1]
	if hasErr := len(last.Attrs) == 1 && last.Attrs[0].Key == "error"; hasErr != (verr != nil) {
		t.Fatalf("%s: last span %s %v does not match verdict %v", name, last.Name, last.Attrs, verr)
	}
}

// goldenResult serialises an accepted Result. Its cfa line keeps the
// columns of the removed CFAStats fields: DeadBytes, which every accepted
// Result held at 0 (dead bytes reject the binary), and the P7/P8 counts
// now read from the reports.
func goldenResult(sb *strings.Builder, res *verifier.Result, opts verifier.Options) {
	fmt.Fprintf(sb, "stats: %+v\n", res.Stats)
	fmt.Fprintf(sb, "dis: insts=%d blocks=%d\n", len(res.Dis.Insts), res.Dis.Blocks())
	var tr taint.Report
	var or cfa.Report
	secrets, states := 0, 0
	if res.Taint != nil {
		tr, secrets = *res.Taint, len(opts.Taint.Secrets)
	}
	if res.Order != nil {
		or, states = *res.Order, protocolStates(res.Order, opts)
	}
	c := res.CFA
	fmt.Fprintf(sb, "cfa: {Blocks:%d Edges:%d Anchors:%d DeadBytes:0 Targets:%d Secrets:%d TaintFuncs:%d TaintedRanges:%d TaintTrivial:%t OrderStates:%d OrderCtxs:%d OrderFuncs:%d OrderTrivial:%t}\n",
		c.Blocks, c.Edges, c.Anchors, c.Targets, secrets, tr.Funcs, tr.MemRanges, tr.Trivial, states, or.Ctxs, or.Funcs, or.Trivial)
	for _, a := range res.Audit {
		fmt.Fprintf(sb, "audit %v required=%t passed=%t checks=%d: %s\n", a.Policy, a.Required, a.Passed, a.Checks, a.Detail)
	}
	fmt.Fprintf(sb, "annot: %d ranges\n", len(res.AnnotRanges))
	for i, r := range res.AnnotRanges {
		if i%8 == 0 {
			sb.WriteString(" ")
		}
		fmt.Fprintf(sb, " [%#x,%#x)", r.Lo, r.Hi)
		if i%8 == 7 || i == len(res.AnnotRanges)-1 {
			sb.WriteString("\n")
		}
	}
}

func sortedIDs[V any](m map[int]V) []int {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}
