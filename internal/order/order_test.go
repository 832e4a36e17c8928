package order

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

// testProtocol is the canonical three-state exchange: provision in, then
// send freely, then halt.
//
//	init --recv(2)--> ready* --send(1)--> ready*
//	ready* --hlt--> end*
func testProtocol() *policy.Protocol {
	return &policy.Protocol{
		States: []policy.State{{Name: "init"}, {Name: "ready", Attested: true}, {Name: "end", Attested: true}},
		Edges: []policy.Edge{
			{From: 0, Event: 2, To: 1},
			{From: 1, Event: 1, To: 1},
			{From: 1, Event: policy.EventHlt, To: 2},
		},
	}
}

// singleShot admits exactly one recv and then termination — no repetition.
func singleShot() *policy.Protocol {
	return &policy.Protocol{
		States: []policy.State{{Name: "init"}, {Name: "done", Attested: true}, {Name: "end", Attested: true}},
		Edges: []policy.Edge{
			{From: 0, Event: 2, To: 1},
			{From: 1, Event: policy.EventHlt, To: 2},
		},
	}
}

// item pairs an instruction with an optional branch-target instruction
// index (-1 for none); link resolves targets to relative immediates.
type item struct {
	in     isa.Inst
	target int
}

func ins(in isa.Inst) item { return item{in: in, target: -1} }

// link assembles items into text, returning the bytes and each
// instruction's start offset.
func link(t *testing.T, items []item) ([]byte, []int64) {
	t.Helper()
	offs := make([]int64, len(items)+1)
	for i := range items {
		offs[i+1] = offs[i] + int64(asm.EncodedLen(&items[i].in))
	}
	var b []byte
	for i := range items {
		in := items[i].in
		if items[i].target >= 0 {
			in.Imm = offs[items[i].target] - offs[i+1]
		}
		b = asm.AppendEncode(b, &in)
	}
	return b, offs[:len(items)]
}

func buildGraph(t *testing.T, text []byte, targets []int64) *cfa.Graph {
	t.Helper()
	entries := append([]int64{0}, targets...)
	dis, err := disasm.Disassemble(text, entries)
	if err != nil {
		t.Fatalf("disassemble: %v", err)
	}
	return cfa.Build(dis, 0, targets)
}

func analyze(t *testing.T, p *policy.Protocol, items []item) (*cfa.Report, []int64) {
	t.Helper()
	text, offs := link(t, items)
	rep, err := Analyze(buildGraph(t, text, nil), p)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return rep, offs
}

func TestValidateRejects(t *testing.T) {
	st := func(names ...string) []policy.State {
		var out []policy.State
		for _, n := range names {
			attested := strings.HasSuffix(n, "*")
			out = append(out, policy.State{Name: strings.TrimSuffix(n, "*"), Attested: attested})
		}
		return out
	}
	// The structural rules are policy.Protocol.Validate's (tested there);
	// one case shows Validate runs them first and wraps their error.
	cases := map[string]*policy.Protocol{
		"no states": {},
		"nondeterministic": {States: st("a"), Edges: []policy.Edge{
			{From: 0, Event: 2, To: 0}, {From: 0, Event: 2, To: 0}}},
		"output unattested": {States: st("a"), Edges: []policy.Edge{{From: 0, Event: 1, To: 0}}},
		"loses attestation": {States: st("a*", "b"), Edges: []policy.Edge{{From: 0, Event: 2, To: 1}}},
		"terminal outgoing": {States: st("a*", "b*"), Edges: []policy.Edge{
			{From: 0, Event: policy.EventHlt, To: 1}, {From: 1, Event: 1, To: 1}}},
	}
	for name, p := range cases {
		if err := Validate(p); !errors.Is(err, ErrProtocol) {
			t.Errorf("%s: Validate() = %v, want ErrProtocol", name, err)
		}
		// Analyze must surface the same rejection.
		if _, err := Analyze(nil, p); !errors.Is(err, ErrProtocol) {
			t.Errorf("%s: Analyze = %v, want ErrProtocol", name, err)
		}
	}
	for name, p := range map[string]*policy.Protocol{
		"canonical":   testProtocol(),
		"single-shot": singleShot(),
	} {
		if err := Validate(p); err != nil {
			t.Errorf("%s: Validate() = %v, want nil", name, err)
		}
	}
}

func TestTrivial(t *testing.T) {
	// No protocol declared: trivially clean regardless of code.
	text, _ := link(t, []item{
		ins(isa.Inst{Op: isa.OpOcall, Imm: 1}),
		ins(isa.Inst{Op: isa.OpHlt}),
	})
	rep, err := Analyze(buildGraph(t, text, nil), nil)
	if err != nil || !rep.Trivial || len(rep.Findings) != 0 {
		t.Fatalf("nil protocol: rep=%+v err=%v, want trivial clean", rep, err)
	}
	// A protocol with no code to check is also trivial.
	rep, err = Analyze(nil, testProtocol())
	if err != nil || !rep.Trivial {
		t.Fatalf("nil graph: rep=%+v err=%v, want trivial", rep, err)
	}
}

func TestStateNames(t *testing.T) {
	p := testProtocol()
	for mask, want := range map[uint64]string{
		0:      "∅",
		1:      "init",
		0b101:  "init,end",
		0b111:  "init,ready,end",
		1 << 1: "ready",
	} {
		if got := StateNames(p, mask); got != want {
			t.Errorf("StateNames(%#b) = %q, want %q", mask, got, want)
		}
	}
}

func TestConformingLinear(t *testing.T) {
	rep, _ := analyze(t, testProtocol(), []item{
		ins(isa.Inst{Op: isa.OpOcall, Imm: 2}),
		ins(isa.Inst{Op: isa.OpOcall, Imm: 1}),
		ins(isa.Inst{Op: isa.OpHlt}),
	})
	if rep.Trivial || len(rep.Findings) != 0 {
		t.Fatalf("rep=%+v, want non-trivial clean", rep)
	}
	if rep.Funcs != 1 || rep.Ctxs != 1 {
		t.Errorf("Funcs=%d Ctxs=%d, want 1/1", rep.Funcs, rep.Ctxs)
	}
	for id, bs := range rep.Blocks {
		if bs.In != 1<<0 || bs.Out != 1<<1 {
			t.Errorf("block %d: in=%#b out=%#b, want in=init out=ready", id, bs.In, bs.Out)
		}
	}
}

func TestEventOrderViolation(t *testing.T) {
	// The send fires before the provisioning recv: output before
	// attestation completes.
	rep, offs := analyze(t, testProtocol(), []item{
		ins(isa.Inst{Op: isa.OpOcall, Imm: 1}),
		ins(isa.Inst{Op: isa.OpOcall, Imm: 2}),
		ins(isa.Inst{Op: isa.OpOcall, Imm: 1}),
		ins(isa.Inst{Op: isa.OpHlt}),
	})
	if len(rep.Findings) != 1 {
		t.Fatalf("findings = %+v, want exactly one", rep.Findings)
	}
	f := rep.Findings[0]
	if f.Kind != KindEventOrder || f.Off != offs[0] {
		t.Errorf("finding = %+v, want %s at %d", f, KindEventOrder, offs[0])
	}
	if !strings.Contains(f.Msg, `"init"`) {
		t.Errorf("finding message %q does not name the offending state", f.Msg)
	}
}

func TestHaltOrderViolation(t *testing.T) {
	// Halting before the exchange even starts.
	rep, offs := analyze(t, testProtocol(), []item{
		ins(isa.Inst{Op: isa.OpHlt}),
	})
	if len(rep.Findings) != 1 {
		t.Fatalf("findings = %+v, want exactly one", rep.Findings)
	}
	f := rep.Findings[0]
	if f.Kind != KindHaltOrder || f.Off != offs[0] {
		t.Errorf("finding = %+v, want %s at %d", f, KindHaltOrder, offs[0])
	}
}

func TestLoopSmuggledRepeat(t *testing.T) {
	// A loop re-runs the single-shot recv: the second iteration fires it
	// in state "done" which does not admit it.
	rep, offs := analyze(t, singleShot(), []item{
		ins(isa.Inst{Op: isa.OpMovRI, Dst: isa.RCX, Imm: 2}),
		ins(isa.Inst{Op: isa.OpOcall, Imm: 2}), // idx 1, loop head
		ins(isa.Inst{Op: isa.OpSubRI, Dst: isa.RCX, Imm: 1}),
		ins(isa.Inst{Op: isa.OpCmpRI, Dst: isa.RCX, Imm: 0}),
		{in: isa.Inst{Op: isa.OpJcc, Cond: isa.CondNE}, target: 1},
		ins(isa.Inst{Op: isa.OpHlt}),
	})
	var kinds []string
	for _, f := range rep.Findings {
		kinds = append(kinds, f.Kind)
	}
	if len(rep.Findings) != 1 || rep.Findings[0].Kind != KindEventOrder || rep.Findings[0].Off != offs[1] {
		t.Fatalf("findings = %v at %+v, want one %s at %d", kinds, rep.Findings, KindEventOrder, offs[1])
	}
}

func TestBranchJoinUnion(t *testing.T) {
	// One arm provisions, the other skips it; after the join the send can
	// fire in init, and the message must surface both reachable states.
	rep, offs := analyze(t, testProtocol(), []item{
		ins(isa.Inst{Op: isa.OpCmpRI, Dst: isa.RAX, Imm: 0}),
		{in: isa.Inst{Op: isa.OpJcc, Cond: isa.CondE}, target: 3},
		ins(isa.Inst{Op: isa.OpOcall, Imm: 2}),
		ins(isa.Inst{Op: isa.OpOcall, Imm: 1}), // idx 3, join
		ins(isa.Inst{Op: isa.OpHlt}),
	})
	var event *cfa.Finding
	for i := range rep.Findings {
		if rep.Findings[i].Kind == KindEventOrder {
			event = &rep.Findings[i]
		}
	}
	if event == nil || event.Off != offs[3] {
		t.Fatalf("findings = %+v, want %s at %d", rep.Findings, KindEventOrder, offs[3])
	}
	if !strings.Contains(event.Msg, "init,ready") {
		t.Errorf("finding message %q does not list the joined state set", event.Msg)
	}
}

func TestInterproceduralContexts(t *testing.T) {
	// helper() sends; calling it before provisioning is a violation,
	// calling it after is fine. The relational summary keeps the two
	// entry states apart, so exactly the early call site's context is
	// flagged — at the ocall inside the helper.
	items := []item{
		{in: isa.Inst{Op: isa.OpCall}, target: 4}, // call helper in init
		ins(isa.Inst{Op: isa.OpOcall, Imm: 2}),
		{in: isa.Inst{Op: isa.OpCall}, target: 4}, // call helper in ready
		ins(isa.Inst{Op: isa.OpHlt}),
		ins(isa.Inst{Op: isa.OpOcall, Imm: 1}), // idx 4: helper
		ins(isa.Inst{Op: isa.OpRet}),
	}
	rep, offs := analyze(t, testProtocol(), items)
	if len(rep.Findings) != 1 {
		t.Fatalf("findings = %+v, want exactly one", rep.Findings)
	}
	f := rep.Findings[0]
	if f.Kind != KindEventOrder || f.Off != offs[4] {
		t.Errorf("finding = %+v, want %s at %d", f, KindEventOrder, offs[4])
	}
	if rep.Funcs != 2 {
		t.Errorf("Funcs = %d, want 2", rep.Funcs)
	}
	// _start in init, helper in init and in ready.
	if rep.Ctxs != 3 {
		t.Errorf("Ctxs = %d, want 3", rep.Ctxs)
	}
}

func TestIndirectCallUnionsTargets(t *testing.T) {
	// An indirect call composes the summaries of every listed target.
	// Both targets send; entered in init that violates the protocol in
	// each, entered in ready it would not — here the call happens in init.
	items := []item{
		ins(isa.Inst{Op: isa.OpMovRI, Dst: isa.RAX, Imm: 0}),
		ins(isa.Inst{Op: isa.OpCallR, Dst: isa.RAX}),
		ins(isa.Inst{Op: isa.OpHlt}),
		ins(isa.Inst{Op: isa.OpBrMark, Imm: isa.BrMarkMagic56}), // idx 3: target a
		ins(isa.Inst{Op: isa.OpOcall, Imm: 1}),
		ins(isa.Inst{Op: isa.OpRet}),
		ins(isa.Inst{Op: isa.OpBrMark, Imm: isa.BrMarkMagic56}), // idx 6: target b
		ins(isa.Inst{Op: isa.OpOcall, Imm: 2}),
		ins(isa.Inst{Op: isa.OpRet}),
	}
	text, offs := link(t, items)
	g := buildGraph(t, text, []int64{offs[3], offs[6]})
	rep, err := Analyze(g, testProtocol())
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	// Target a sends in init: one event-order finding. Target b
	// provisions, so the fall-through can be in ready — but it can also
	// still be in init (via target a, which retains it), so the hlt is
	// flagged too.
	var eventOffs []int64
	haltSeen := false
	for _, f := range rep.Findings {
		switch f.Kind {
		case KindEventOrder:
			eventOffs = append(eventOffs, f.Off)
		case KindHaltOrder:
			haltSeen = true
		}
	}
	if len(eventOffs) != 1 || eventOffs[0] != offs[4] {
		t.Errorf("event-order findings at %v, want exactly [%d]", eventOffs, offs[4])
	}
	if !haltSeen {
		t.Errorf("missing halt-order finding for the init path: %+v", rep.Findings)
	}
	if rep.Funcs != 3 {
		t.Errorf("Funcs = %d, want 3", rep.Funcs)
	}
}

// TestBudgetExhaustionRejects: a call chain laid out so each callee lies
// below its caller lets each fixpoint round request just one more context.
// A chain within the round budget converges; one deeper than it must make
// the pass give up with ErrBudget rather than accept.
func TestBudgetExhaustionRejects(t *testing.T) {
	chain := func(depth int) *cfa.Graph {
		// _start calls f(depth); f(k) at index 2k calls f(k-1); f(1) returns.
		items := []item{{in: isa.Inst{Op: isa.OpCall}, target: 2 * depth}, ins(isa.Inst{Op: isa.OpHlt})}
		for k := 1; k <= depth; k++ {
			if k == 1 {
				items = append(items, ins(isa.Inst{Op: isa.OpNop}))
			} else {
				items = append(items, item{in: isa.Inst{Op: isa.OpCall}, target: 2 * (k - 1)})
			}
			items = append(items, ins(isa.Inst{Op: isa.OpRet}))
		}
		text, _ := link(t, items)
		return buildGraph(t, text, nil)
	}
	if _, err := Analyze(chain(200), testProtocol()); err != nil {
		t.Fatalf("chain within the budget: %v", err)
	}
	if rep, err := Analyze(chain(300), testProtocol()); !errors.Is(err, ErrBudget) {
		t.Fatalf("rep=%+v err=%v, want ErrBudget", rep, err)
	}
}

// FuzzOrderPass drives the pass with arbitrary machine code and perturbed
// protocols. The verifier runs Analyze on attacker-controlled (but
// decodable) text and an attacker-declared protocol, so it must never
// panic, fail only with its declared errors, anchor findings inside the
// text, and behave as a pure function of (graph, protocol).
func FuzzOrderPass(f *testing.F) {
	seed := func(items ...item) []byte {
		b, _ := link(&testing.T{}, items)
		return b
	}
	f.Add(seed(
		ins(isa.Inst{Op: isa.OpOcall, Imm: 2}),
		ins(isa.Inst{Op: isa.OpOcall, Imm: 1}),
		ins(isa.Inst{Op: isa.OpHlt}),
	), int64(0), []byte{})
	f.Add(seed(
		ins(isa.Inst{Op: isa.OpOcall, Imm: 1}),
		ins(isa.Inst{Op: isa.OpHlt}),
	), int64(0), []byte{1, 3, 2})
	f.Add([]byte{}, int64(0), []byte{0xff, 0x00, 0x41})
	f.Add([]byte{0xff, 0xff}, int64(1), []byte{})

	f.Fuzz(func(t *testing.T, text []byte, entry int64, edges []byte) {
		dis, err := disasm.Disassemble(text, []int64{entry})
		if err != nil {
			return
		}
		g := cfa.Build(dis, entry, nil)
		p := testProtocol()
		// Perturb the protocol with fuzz-derived edges; invalid ones must
		// be rejected with ErrProtocol, never accepted or crashed on.
		for i := 0; i+2 < len(edges); i += 3 {
			p.Edges = append(p.Edges, policy.Edge{
				From:  int64(edges[i]) - 1,
				Event: int64(edges[i+1]%7) - 2,
				To:    int64(edges[i+2]) % 4,
			})
		}
		rep, err := Analyze(g, p)
		if err != nil {
			if !errors.Is(err, ErrProtocol) && !errors.Is(err, ErrBudget) {
				t.Fatalf("undeclared error type: %v", err)
			}
			return
		}
		for _, fd := range rep.Findings {
			if fd.Off < 0 || fd.Off >= int64(len(text)) {
				t.Fatalf("finding anchored outside text: %+v", fd)
			}
			switch fd.Kind {
			case KindEventOrder, KindHaltOrder:
			default:
				t.Fatalf("unknown finding kind %q", fd.Kind)
			}
		}
		rep2, err2 := Analyze(g, p)
		if err2 != nil || !reflect.DeepEqual(rep, rep2) {
			t.Fatalf("analysis not deterministic: %+v / %v vs %+v / %v", rep, err, rep2, err2)
		}
	})
}
