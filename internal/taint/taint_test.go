package taint

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"deflection/internal/asm"
	"deflection/internal/cfa"
	"deflection/internal/disasm"
	"deflection/internal/isa"
	"deflection/internal/policy"
)

// testConfig is a small synthetic memory geometry: a 64 KiB data window
// whose top 16 KiB are the stack, with one secret buffer at 0x2000.
func testConfig() Config {
	return Config{
		Secrets: []Range{{Lo: 0x2000, Hi: 0x2100}},
		DataLo:  0x1000, DataHi: 0x11000,
		StackLo: 0xd000, StackHi: 0x11000,
	}
}

// encode assembles instructions into contiguous text.
func encode(insts ...isa.Inst) []byte {
	var b []byte
	for i := range insts {
		b = asm.AppendEncode(b, &insts[i])
	}
	return b
}

// buildGraph decodes text from offset 0 and recovers its CFG.
func buildGraph(t *testing.T, text []byte) *cfa.Graph {
	t.Helper()
	dis, err := disasm.Disassemble(text, []int64{0})
	if err != nil {
		t.Fatalf("disassemble: %v", err)
	}
	return cfa.Build(dis, 0, nil)
}

func TestConfigValidate(t *testing.T) {
	for name, cfg := range map[string]Config{
		"inverted data window": {Secrets: []Range{{1, 2}}, DataLo: 10, DataHi: 5},
		"inverted stack range": {Secrets: []Range{{1, 2}}, DataHi: 100, StackLo: 90, StackHi: 80},
		"empty secret range":   {Secrets: []Range{{5, 5}}, DataHi: 100},
	} {
		if _, err := Analyze(nil, cfg); !errors.Is(err, ErrConfig) {
			t.Errorf("%s: err = %v, want ErrConfig", name, err)
		}
	}
	many := make([]Range, maxSecrets+1)
	for i := range many {
		many[i] = Range{Lo: uint64(2 * i), Hi: uint64(2*i + 1)}
	}
	if _, err := Analyze(nil, Config{Secrets: many, DataHi: 100}); !errors.Is(err, ErrConfig) || !strings.Contains(err.Error(), "secret ranges") {
		t.Errorf("%d secret ranges: err = %v, want ErrConfig for their count", len(many), err)
	}
}

func TestTrivialWithoutSecrets(t *testing.T) {
	cfg := testConfig()
	cfg.Secrets = nil
	g := buildGraph(t, encode(
		isa.Inst{Op: isa.OpMovRI, Dst: isa.RDI, Imm: 0x2000},
		isa.Inst{Op: isa.OpOcall, Imm: 3},
		isa.Inst{Op: isa.OpHlt},
	))
	rep, err := Analyze(g, cfg)
	if err != nil || !rep.Trivial || len(rep.Findings) != 0 {
		t.Fatalf("rep=%+v err=%v, want trivial clean report", rep, err)
	}
	// A nil graph with secrets declared is also trivial: no instructions,
	// no flows.
	rep, err = Analyze(nil, testConfig())
	if err != nil || !rep.Trivial {
		t.Fatalf("nil graph: rep=%+v err=%v", rep, err)
	}
}

func TestAnalyzeRejectsLeakToPrint(t *testing.T) {
	g := buildGraph(t, encode(
		isa.Inst{Op: isa.OpMovRI, Dst: isa.RCX, Imm: 0x2000},
		isa.Inst{Op: isa.OpMovRM, Dst: isa.RDI, Mem: isa.MemRef{HasBase: true, Base: isa.RCX}},
		isa.Inst{Op: isa.OpOcall, Imm: 3},
		isa.Inst{Op: isa.OpHlt},
	))
	rep, err := Analyze(g, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) != 1 || rep.Findings[0].Kind != KindUnsealedOutput {
		t.Fatalf("findings = %+v, want one %s", rep.Findings, KindUnsealedOutput)
	}
}

func TestAnalyzeAcceptsSealedSend(t *testing.T) {
	g := buildGraph(t, encode(
		isa.Inst{Op: isa.OpMovRI, Dst: isa.RCX, Imm: 0x2000},
		isa.Inst{Op: isa.OpMovRM, Dst: isa.RDI, Mem: isa.MemRef{HasBase: true, Base: isa.RCX}},
		isa.Inst{Op: isa.OpMovRI, Dst: isa.RSI, Imm: 8},
		isa.Inst{Op: isa.OpOcall, Imm: 1},
		isa.Inst{Op: isa.OpHlt},
	))
	rep, err := Analyze(g, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) != 0 {
		t.Fatalf("sealed send flagged: %+v", rep.Findings)
	}
	if rep.Trivial || rep.Funcs != 1 {
		t.Errorf("rep = %+v, want non-trivial single-function analysis", rep)
	}
}

// TestGuardedStoreDegrades: a tainted store through an address the
// analysis cannot bound is rejected — unless the P1 pass vouched for the
// store, in which case it degrades to a window-wide store instead.
func TestGuardedStoreDegrades(t *testing.T) {
	text := encode(
		isa.Inst{Op: isa.OpMovRI, Dst: isa.RCX, Imm: 0x2000},
		isa.Inst{Op: isa.OpMovRM, Dst: isa.RAX, Mem: isa.MemRef{HasBase: true, Base: isa.RCX}},
		// RBX was never defined: its value is unknown at this store.
		isa.Inst{Op: isa.OpMovMR, Src: isa.RAX, Mem: isa.MemRef{HasBase: true, Base: isa.RBX}},
		isa.Inst{Op: isa.OpHlt},
	)
	g := buildGraph(t, text)
	var storeOff int64 = -1
	for _, b := range g.Blocks[1:] {
		for _, in := range b.Insts {
			if in.Op == isa.OpMovMR {
				storeOff = in.Off
			}
		}
	}
	if storeOff < 0 {
		t.Fatal("store not found in CFG")
	}

	rep, err := Analyze(g, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) != 1 || rep.Findings[0].Kind != KindUntrackedStore {
		t.Fatalf("unguarded findings = %+v, want one %s", rep.Findings, KindUntrackedStore)
	}

	cfg := testConfig()
	cfg.Guarded = []int64{storeOff}
	rep, err = Analyze(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) != 0 {
		t.Fatalf("guarded store still flagged: %+v", rep.Findings)
	}
	if rep.MemRanges == 0 {
		t.Error("guarded tainted store should have grown the memory taint")
	}
}

// TestFindingsInAddressOrder: _start (entry 0) leaks at a higher address
// than the helper it calls, which sits between _start's first block and
// its leaking tail. The sweep visits _start first, yet the report must
// list the helper's lower-address finding first.
func TestFindingsInAddressOrder(t *testing.T) {
	insts := []isa.Inst{
		{Op: isa.OpJmp}, // 0: to the tail at index 5
		{Op: isa.OpMovRI, Dst: isa.RCX, Imm: 0x2000}, // 1: helper
		{Op: isa.OpMovRM, Dst: isa.RDI, Mem: isa.MemRef{HasBase: true, Base: isa.RCX}},
		{Op: isa.OpOcall, Imm: 3},
		{Op: isa.OpRet},
		{Op: isa.OpCall}, // 5: tail, calls the helper at index 1
		{Op: isa.OpMovRI, Dst: isa.RCX, Imm: 0x2000},
		{Op: isa.OpMovRM, Dst: isa.RDI, Mem: isa.MemRef{HasBase: true, Base: isa.RCX}},
		{Op: isa.OpOcall, Imm: 3},
		{Op: isa.OpHlt},
	}
	offs := make([]int64, len(insts)+1)
	for i := range insts {
		offs[i+1] = offs[i] + int64(asm.EncodedLen(&insts[i]))
	}
	insts[0].Imm = offs[5] - offs[1]
	insts[5].Imm = offs[1] - offs[6]
	rep, err := Analyze(buildGraph(t, encode(insts...)), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Funcs != 2 || len(rep.Findings) != 2 {
		t.Fatalf("funcs=%d findings=%+v, want 2 functions with one leak each", rep.Funcs, rep.Findings)
	}
	if rep.Findings[0].Off != offs[3] || rep.Findings[1].Off != offs[8] {
		t.Errorf("findings at %#x, %#x; want %#x, %#x (address order)",
			rep.Findings[0].Off, rep.Findings[1].Off, offs[3], offs[8])
	}
}

func TestIntervals(t *testing.T) {
	var iv intervals
	if !iv.add(10, 20) || !iv.add(30, 40) {
		t.Fatal("fresh ranges must grow the set")
	}
	if iv.add(12, 18) {
		t.Error("covered range must not grow the set")
	}
	if !iv.covers(10, 20) || iv.covers(10, 25) || iv.covers(25, 28) {
		t.Error("covers wrong")
	}
	if !iv.overlaps(15, 35) || iv.overlaps(20, 30) || iv.overlaps(0, 10) {
		t.Error("overlaps wrong (ranges are half-open)")
	}
	// Merging across the gap leaves one range.
	if !iv.add(18, 32) || len(iv.r) != 1 || iv.r[0] != (Range{10, 40}) {
		t.Errorf("merge failed: %+v", iv.r)
	}
	if iv.add(0, 0) {
		t.Error("empty range must be a no-op")
	}
	// One disjoint range past the bound collapses the set to its hull.
	iv = intervals{}
	for i := uint64(0); i <= maxIntervals; i++ {
		iv.add(10*i, 10*i+5)
	}
	if len(iv.r) != 1 || iv.r[0] != (Range{0, 10*maxIntervals + 5}) {
		t.Errorf("%d ranges past the bound, want the hull [0, %d)", len(iv.r), 10*maxIntervals+5)
	}
}

// indirectCallee is a program whose entry reaches the listed target at its
// end only through a guarded indirect call; tail is the target's body.
func indirectCallee(t *testing.T, tail ...isa.Inst) (*cfa.Graph, int64) {
	t.Helper()
	head := []isa.Inst{
		{Op: isa.OpMovRI, Dst: isa.RAX},
		{Op: isa.OpCallR, Dst: isa.RAX},
		{Op: isa.OpHlt},
	}
	target := int64(len(encode(head...)))
	head[0].Imm = target
	text := encode(append(head, tail...)...)
	dis, err := disasm.Disassemble(text, []int64{0, target})
	if err != nil {
		t.Fatalf("disassemble: %v", err)
	}
	return cfa.Build(dis, 0, []int64{target}), target
}

// TestIndirectTargetEntryTainted: a listed target may be invoked through an
// indirect call with any arguments, so the pass analyses it with every
// argument register tainted: printing one is a leak, sending it sealed is
// not.
func TestIndirectTargetEntryTainted(t *testing.T) {
	g, target := indirectCallee(t, isa.Inst{Op: isa.OpOcall, Imm: policy.OcallPrint}, isa.Inst{Op: isa.OpRet})
	rep, err := Analyze(g, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) != 1 || rep.Findings[0].Kind != KindUnsealedOutput || rep.Findings[0].Off != target {
		t.Fatalf("findings = %+v, want one %s at the target's print %#x", rep.Findings, KindUnsealedOutput, target)
	}
	g, _ = indirectCallee(t, isa.Inst{Op: isa.OpOcall, Imm: policy.OcallSend}, isa.Inst{Op: isa.OpRet})
	if rep, err = Analyze(g, testConfig()); err != nil || len(rep.Findings) != 0 || rep.Funcs != 2 {
		t.Fatalf("sealed send from the target: rep=%+v err=%v, want a clean two-function analysis", rep, err)
	}
}

func TestJoinValLattice(t *testing.T) {
	vals := []val{
		{k: kUnknown},
		{k: kImm, lo: 7},
		{k: kImm, lo: 9},
		{k: kData, lo: 0x2000, hi: 0x2001},
		{k: kData, lo: 0x3000, hi: 0x3008},
		{k: kWin},
		{k: kStack, lo: 16},
		stackVal(-8),
		{k: kShadow},
	}
	for _, a := range vals {
		if j, ch := joinVal(a, a); ch || j != a {
			t.Errorf("join(%v, %v) not idempotent: %v", a, a, j)
		}
		for _, b := range vals {
			ab, _ := joinVal(a, b)
			ba, _ := joinVal(b, a)
			if ab != ba {
				t.Errorf("join(%v, %v)=%v but join(%v, %v)=%v", a, b, ab, b, a, ba)
			}
			// The join must be an upper bound: joining an operand into the
			// result is a no-op.
			if again, ch := joinVal(ab, b); ch {
				t.Errorf("join(%v, %v)=%v not an upper bound of %v (re-join gives %v)", a, b, ab, b, again)
			}
		}
	}
}

// FuzzTaintPass drives the whole pass with arbitrary machine code. The
// verifier runs Analyze on attacker-controlled (but decodable) text, so it
// must never panic, fail only with its declared errors, anchor findings
// inside the text, and behave as a pure function of (graph, config).
func FuzzTaintPass(f *testing.F) {
	f.Add(encode(
		isa.Inst{Op: isa.OpMovRI, Dst: isa.RCX, Imm: 0x2000},
		isa.Inst{Op: isa.OpMovRM, Dst: isa.RDI, Mem: isa.MemRef{HasBase: true, Base: isa.RCX}},
		isa.Inst{Op: isa.OpOcall, Imm: 3},
		isa.Inst{Op: isa.OpHlt},
	), int64(0))
	f.Add(encode(
		isa.Inst{Op: isa.OpMovRI, Dst: isa.RAX, Imm: 0x2000},
		isa.Inst{Op: isa.OpPush, Dst: isa.RAX},
		isa.Inst{Op: isa.OpPop, Dst: isa.RDI},
		isa.Inst{Op: isa.OpCall, Imm: -21},
		isa.Inst{Op: isa.OpRet},
		isa.Inst{Op: isa.OpHlt},
	), int64(0))
	f.Add([]byte{}, int64(0))
	f.Add([]byte{0xff, 0xff}, int64(1))

	f.Fuzz(func(t *testing.T, text []byte, entry int64) {
		dis, err := disasm.Disassemble(text, []int64{entry})
		if err != nil {
			return
		}
		g := cfa.Build(dis, entry, nil)
		cfg := testConfig()
		rep, err := Analyze(g, cfg)
		if err != nil {
			if !errors.Is(err, ErrConfig) && !errors.Is(err, ErrBudget) {
				t.Fatalf("undeclared error type: %v", err)
			}
			return
		}
		for _, fd := range rep.Findings {
			if fd.Off < 0 || fd.Off >= int64(len(text)) {
				t.Fatalf("finding anchored outside text: %+v", fd)
			}
			switch fd.Kind {
			case KindUnsealedOutput, KindIndirectTarget, KindUntrackedStore:
			default:
				t.Fatalf("unknown finding kind %q", fd.Kind)
			}
		}
		// The analysis is a pure function of its inputs.
		rep2, err2 := Analyze(g, cfg)
		if err2 != nil || !reflect.DeepEqual(rep, rep2) {
			t.Fatalf("analysis not deterministic: %+v / %v vs %+v / %v", rep, err, rep2, err2)
		}
	})
}
