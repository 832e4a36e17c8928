package verifier_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"deflection/internal/apps"
	"deflection/internal/asmtext"
	"deflection/internal/compiler"
	"deflection/internal/dclib"
	"deflection/internal/enclave"
	"deflection/internal/loader"
	"deflection/internal/nbench"
	"deflection/internal/obj"
	"deflection/internal/order"
	"deflection/internal/policy"
	"deflection/internal/runtime"
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
// counts and the trivial flag — plus the verdict, for every application,
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
	// Each fixture runs twice, with only P7 and then only P8 required, so
	// neither pass is pre-empted by a template rejection.
	for _, fx := range fixtures {
		for _, pols := range []policy.Set{policy.Bit(policy.P7), policy.Bit(policy.P8)} {
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
// with both report observers attached, and serialises the verdict and
// whichever reports the passes produced.
func goldenReports(t *testing.T, sb *strings.Builder, name string, o *obj.Object, pols policy.Set, mangle func([]int64) []int64) {
	t.Helper()
	e, err := enclave.New(enclave.DefaultConfig(), []byte("golden"))
	if err != nil {
		t.Fatal(err)
	}
	ld, err := loader.Load(e, o)
	if err != nil {
		t.Fatalf("%s: load: %v", name, err)
	}
	text, err := ld.TextBytes()
	if err != nil {
		t.Fatal(err)
	}
	var offs []int64
	for _, bt := range ld.BranchTargets {
		offs = append(offs, int64(bt-ld.TextBase))
	}
	if mangle != nil {
		offs = mangle(offs)
	}
	var trep *taint.Report
	var orep *order.Report
	_, verr := verifier.Verify(text, verifier.Options{
		Required:            pols,
		EntryOffset:         int64(ld.Entry - ld.TextBase),
		BranchTargetOffsets: offs,
		Taint:               runtime.TaintConfig(ld),
		TaintObserver:       func(r *taint.Report) { trep = r },
		Order:               runtime.OrderProtocol(ld),
		OrderObserver:       func(r *order.Report) { orep = r },
	})
	fmt.Fprintf(sb, "== %s\n", name)
	if verr != nil {
		fmt.Fprintf(sb, "verdict: rejected: %v\n", verr)
	} else {
		sb.WriteString("verdict: accepted\n")
	}
	if trep != nil {
		fmt.Fprintf(sb, "taint: trivial=%t funcs=%d memranges=%d steps=%d findings=%d blocks=%d\n",
			trep.Trivial, trep.Funcs, trep.MemRanges, trep.Steps, len(trep.Findings), len(trep.Blocks))
		for _, f := range trep.Findings {
			fmt.Fprintf(sb, "  finding %#x %s: %s\n", f.Off, f.Kind, f.Msg)
		}
		for _, id := range sortedIDs(trep.Blocks) {
			fmt.Fprintf(sb, "  block %d in=%#x out=%#x\n", id, trep.Blocks[id].In, trep.Blocks[id].Out)
		}
	}
	if orep != nil {
		fmt.Fprintf(sb, "order: trivial=%t funcs=%d ctxs=%d states=%d steps=%d findings=%d blocks=%d\n",
			orep.Trivial, orep.Funcs, orep.Ctxs, orep.States, orep.Steps, len(orep.Findings), len(orep.Blocks))
		for _, f := range orep.Findings {
			fmt.Fprintf(sb, "  finding %#x %s: %s\n", f.Off, f.Kind, f.Msg)
		}
		for _, id := range sortedIDs(orep.Blocks) {
			fmt.Fprintf(sb, "  block %d in=%#x out=%#x\n", id, orep.Blocks[id].In, orep.Blocks[id].Out)
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
