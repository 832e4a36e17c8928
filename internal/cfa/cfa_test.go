package cfa_test

import (
	"testing"

	"deflection/internal/asmtext"
	"deflection/internal/cfa"
	"deflection/internal/disasm"
	"deflection/internal/obj"
)

// build assembles hand-written source and recovers its CFG.
func build(t *testing.T, src string) (*cfa.Graph, *obj.Object) {
	t.Helper()
	o, err := asmtext.Assemble(src, 0)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	entrySym, ok := o.Symbol(o.Entry)
	if !ok {
		t.Fatalf("no entry symbol %q", o.Entry)
	}
	var targets []int64
	for _, bt := range o.BranchTargets {
		s, ok := o.Symbol(bt.Symbol)
		if !ok {
			t.Fatalf("branch target %q has no symbol", bt.Symbol)
		}
		targets = append(targets, s.Offset)
	}
	dis, err := disasm.Disassemble(o.Text, append([]int64{entrySym.Offset}, targets...))
	if err != nil {
		t.Fatalf("disassemble: %v", err)
	}
	return cfa.Build(dis, entrySym.Offset, targets), o
}

// off resolves a label to its text offset.
func off(t *testing.T, o *obj.Object, name string) int64 {
	t.Helper()
	s, ok := o.Symbol(name)
	if !ok {
		t.Fatalf("no symbol %q", name)
	}
	return s.Offset
}

const diamond = `
.entry _start
.func _start
  cmp rax, 0
  je left
  mov rbx, 1
  jmp join
left:
  mov rbx, 2
join:
  mov rcx, 3
  hlt
`

func TestDiamondBlocksAndDominance(t *testing.T) {
	g, o := build(t, diamond)
	// Expected blocks: [cmp,je] [mov,jmp] [left: mov] [join: mov,hlt].
	if got := len(g.Blocks) - 1; got != 4 {
		t.Fatalf("got %d blocks, want 4", got)
	}
	head := g.BlockAt(off(t, o, "_start"))
	left := g.BlockAt(off(t, o, "left"))
	join := g.BlockAt(off(t, o, "join"))
	if head == nil || left == nil || join == nil {
		t.Fatal("missing blocks at labels")
	}
	if len(head.Succs) != 2 {
		t.Errorf("head succs = %v, want 2 edges", head.Succs)
	}
	if len(join.Preds) != 2 {
		t.Errorf("join preds = %v, want 2 edges", join.Preds)
	}
	if !g.Dominates(head.ID, join.ID) {
		t.Error("head must dominate join")
	}
	if g.Dominates(left.ID, join.ID) {
		t.Error("left must not dominate join (the right arm bypasses it)")
	}
	if g.Idom(join.ID) != head.ID {
		t.Errorf("idom(join) = %d, want head %d", g.Idom(join.ID), head.ID)
	}
	// Instruction-level: within a block, address order decides.
	cmpOff := off(t, o, "_start")
	if !g.DominatesInst(cmpOff, off(t, o, "join")) {
		t.Error("entry instruction must dominate join instruction")
	}
	if g.DominatesInst(off(t, o, "join"), cmpOff) {
		t.Error("join must not dominate the entry")
	}
}

// TestBlocksAliasInstructionTable checks that blocks partition Dis.Insts in
// order, each Block.Insts being the run of the table itself (not a copy)
// with no spare capacity a caller's append could write through.
func TestBlocksAliasInstructionTable(t *testing.T) {
	g, _ := build(t, diamond)
	next := 0
	for _, b := range g.Blocks[1:] {
		if &b.Insts[0] != &g.Dis.Insts[next] {
			t.Fatalf("block %d does not alias Dis.Insts[%d]", b.ID, next)
		}
		if cap(b.Insts) != len(b.Insts) {
			t.Errorf("block %d has spare capacity %d", b.ID, cap(b.Insts)-len(b.Insts))
		}
		if b.Start != b.Insts[0].Off || b.End != b.Last().End() {
			t.Errorf("block %d span [%#x,%#x) disagrees with its instructions", b.ID, b.Start, b.End)
		}
		next += len(b.Insts)
	}
	if next != len(g.Dis.Insts) {
		t.Errorf("blocks cover %d of %d instructions", next, len(g.Dis.Insts))
	}
}

func TestLoopDominance(t *testing.T) {
	g, o := build(t, `
.entry _start
.func _start
  mov rax, 10
loop:
  sub rax, 1
  cmp rax, 0
  jne loop
  hlt
`)
	head := g.BlockAt(off(t, o, "_start"))
	loop := g.BlockAt(off(t, o, "loop"))
	if !g.Dominates(head.ID, loop.ID) {
		t.Error("preheader must dominate the loop body")
	}
	// The loop body has two preds: preheader fall-through and the back edge.
	if len(loop.Preds) != 2 {
		t.Errorf("loop preds = %v, want 2", loop.Preds)
	}
}

func TestIndirectTargetsAreRoots(t *testing.T) {
	// fn is a listed target: even though the only textual path to it runs
	// through the guard block, a CFI-checked indirect branch may enter it
	// directly, so guard must NOT dominate fn.
	g, o := build(t, `
.entry _start
.target fn
.func _start
  mov rax, 1
  call fn
  hlt
.func fn
fn_in:
  brmark
  mov rbx, 2
  ret
`)
	guard := g.BlockAt(off(t, o, "_start"))
	fn := g.BlockAt(off(t, o, "fn"))
	if fn == nil {
		t.Fatal("no block at fn")
	}
	if g.Dominates(guard.ID, fn.ID) {
		t.Error("entry must not dominate a listed indirect target")
	}
	if !g.Reachable(fn.ID) {
		t.Error("listed target must be reachable")
	}
}

func TestCallEdgesAndRet(t *testing.T) {
	g, o := build(t, `
.entry _start
.func _start
  call fn
  mov rax, 1
  hlt
.func fn
  mov rbx, 2
  ret
`)
	callBlock := g.BlockAt(off(t, o, "_start"))
	if len(callBlock.Succs) != 2 {
		t.Fatalf("call block succs = %v, want target + fall-through", callBlock.Succs)
	}
	fn := g.BlockAt(off(t, o, "fn"))
	if len(fn.Succs) != 0 {
		t.Errorf("ret block succs = %v, want none", fn.Succs)
	}
	// The continuation is dominated by the call (the callee's return is
	// pinned there), not by the callee body.
	cont := g.BlockAt(callBlock.End)
	if !g.Dominates(callBlock.ID, cont.ID) {
		t.Error("call block must dominate its continuation")
	}
	if g.Dominates(fn.ID, cont.ID) {
		t.Error("callee body must not dominate the continuation")
	}
}

func TestDeadRanges(t *testing.T) {
	g, o := build(t, `
.entry _start
.func _start
  mov rax, 1
  hlt
.func orphan
  mov rbx, 2
  ret
`)
	dead := g.DeadRanges(len(o.Text))
	if len(dead) != 1 {
		t.Fatalf("dead ranges = %v, want exactly the orphan function", dead)
	}
	if want := off(t, o, "orphan"); dead[0].Lo != want || dead[0].Hi != int64(len(o.Text)) {
		t.Errorf("dead range = [%#x,%#x), want [%#x,%#x)", dead[0].Lo, dead[0].Hi, want, len(o.Text))
	}

	// Fully covered text has no dead ranges.
	g2, o2 := build(t, diamond)
	if dead := g2.DeadRanges(len(o2.Text)); len(dead) != 0 {
		t.Errorf("diamond has dead ranges %v, want none", dead)
	}
}

func TestInstPreds(t *testing.T) {
	g, o := build(t, `
.entry _start
.func _start
  mov rax, 1
store:
  mov rbx, 2
  cmp rax, 0
  je done
  jmp store
done:
  hlt
`)
	store := off(t, o, "store")
	preds := g.InstPreds(store)
	if len(preds) != 2 {
		t.Fatalf("preds(store) = %v, want linear pred + jmp", preds)
	}
	// One pred is the linear predecessor, one is the jmp.
	var haveJmp bool
	for _, p := range preds {
		if in, ok := g.Dis.At(p); ok && in.Op.String() == "jmp" {
			haveJmp = true
		}
	}
	if !haveJmp {
		t.Errorf("preds(store) = %v lacks the back-branch", preds)
	}
}

func TestDefMask(t *testing.T) {
	g, o := build(t, `
.entry _start
.func _start
  mov rbx, 1
  add rcx, rbx
  push rdx
  hlt
`)
	b := g.BlockAt(off(t, o, "_start"))
	mask := b.DefMask()
	// rbx (1) and rcx (2) written; push writes rsp (7) implicitly; rdx not.
	for _, want := range []uint16{1 << 1, 1 << 2, 1 << 7} {
		if mask&want == 0 {
			t.Errorf("def mask %#x lacks bit %#x", mask, want)
		}
	}
	if mask&(1<<3) != 0 {
		t.Errorf("def mask %#x claims rdx, which is only read", mask)
	}
}

// TestLookupsOffInstructionStarts: offsets that are not instruction starts
// have no block and no predecessors and dominate nothing, instructions of
// one block dominate in address order, and a gap between decoded code is a
// dead range of its own.
func TestLookupsOffInstructionStarts(t *testing.T) {
	g, o := build(t, `
.entry _start
.func _start
  mov rax, 1
  jmp done
.func orphan
  mov rbx, 2
  ret
done:
  mov rcx, 3
  hlt
`)
	start, mid := off(t, o, "_start"), off(t, o, "_start")+1
	if g.BlockAt(mid) != nil || g.InstPreds(mid) != nil || g.DominatesInst(mid, start) || g.DominatesInst(start, mid) {
		t.Errorf("mid-instruction offset %#x has a block, predecessors or dominance", mid)
	}
	jmp := g.BlockAt(start).Last().Off
	if !g.DominatesInst(start, jmp) || g.DominatesInst(jmp, start) {
		t.Error("within a block, dominance must follow address order")
	}
	dead := g.DeadRanges(len(o.Text))
	if lo, hi := off(t, o, "orphan"), off(t, o, "done"); len(dead) != 1 || dead[0] != (cfa.Range{Lo: lo, Hi: hi}) {
		t.Errorf("dead ranges = %v, want [%#x,%#x)", dead, lo, hi)
	}
}
