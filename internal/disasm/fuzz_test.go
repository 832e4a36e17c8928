package disasm

import (
	"testing"

	"deflection/internal/asm"
	"deflection/internal/isa"
)

// FuzzDisassemble feeds arbitrary bytes to both disassembly modes. The
// verifier runs Disassemble on attacker-controlled text before anything
// else, so the decoder must never panic, never decode past the buffer and
// never report overlapping instructions — whatever the input. Errors are
// fine; inconsistency is not.
func FuzzDisassemble(f *testing.F) {
	f.Add(encode(
		isa.Inst{Op: isa.OpMovRI, Dst: isa.RAX, Imm: 1},
		isa.Inst{Op: isa.OpAddRR, Dst: isa.RAX, Src: isa.RBX},
		isa.Inst{Op: isa.OpHlt},
	), int64(0))

	// Control flow over dead bytes, both jcc edges, a call.
	dead := []byte{0xFF, 0xFF, 0xFF}
	jmp := isa.Inst{Op: isa.OpJmp, Imm: int64(len(dead))}
	text := asm.AppendEncode(nil, &jmp)
	text = append(text, dead...)
	hlt := isa.Inst{Op: isa.OpHlt}
	text = asm.AppendEncode(text, &hlt)
	f.Add(text, int64(0))

	f.Add(encode(
		isa.Inst{Op: isa.OpCmpRR, Dst: isa.RAX, Src: isa.RBX},
		isa.Inst{Op: isa.OpJcc, Cond: isa.CondE, Imm: 2},
		isa.Inst{Op: isa.OpHlt},
		isa.Inst{Op: isa.OpTrap, Imm: 1},
	), int64(0))
	f.Add([]byte{0x00}, int64(0))
	f.Add([]byte{}, int64(5))

	f.Fuzz(func(t *testing.T, data []byte, entry int64) {
		r, err := Disassemble(data, []int64{entry})
		if err == nil {
			checkResult(t, r, data, []int64{entry})
		}
		lin, _ := Linear(data)
		// Linear decodes a contiguous prefix: each instruction starts where
		// the previous one ended.
		var off int64
		for _, in := range lin {
			if in.Off != off {
				t.Fatalf("linear decode not contiguous: inst at %#x, want %#x", in.Off, off)
			}
			if in.End() > int64(len(data)) {
				t.Fatalf("linear decode past end: [%#x,%#x) text len %d", in.Off, in.End(), len(data))
			}
			off = in.End()
		}
	})
}

// checkResult asserts the structural invariants of a successful decode:
// Insts is strictly ascending, non-overlapping and inside text; for every
// byte, Index and At agree with a linear scan of Insts; and the leaders are
// exactly decoded starts, covering every entry and every branch target and
// fall-through successor the traversal enqueued.
func checkResult(t *testing.T, r *Result, data []byte, entries []int64) {
	t.Helper()
	var prevEnd int64
	for _, in := range r.Insts {
		if in.Off < prevEnd || in.Len <= 0 || in.End() > int64(len(data)) {
			t.Fatalf("instruction [%#x,%#x) overlaps the previous one (end %#x) or leaves text len %d", in.Off, in.End(), prevEnd, len(data))
		}
		prevEnd = in.End()
	}
	k := 0
	for off := int64(-1); off <= int64(len(data)); off++ {
		for k < len(r.Insts) && r.Insts[k].Off < off {
			k++
		}
		want := k < len(r.Insts) && r.Insts[k].Off == off
		i, ok := r.Index(off)
		in, okAt := r.At(off)
		if ok != want || okAt != want || (want && (i != k || in != r.Insts[k])) {
			t.Fatalf("lookup of %#x: Index=(%d,%t) At ok=%t, linear scan says %t at %d", off, i, ok, okAt, want, k)
		}
	}
	if len(r.Leader) != len(r.Insts) {
		t.Fatalf("len(Leader)=%d != len(Insts)=%d", len(r.Leader), len(r.Insts))
	}
	leads := append([]int64(nil), entries...)
	for _, in := range r.Insts {
		switch in.Op {
		case isa.OpJmp:
			leads = append(leads, DirectTarget(in))
		case isa.OpJcc, isa.OpCall:
			leads = append(leads, DirectTarget(in), in.End())
		case isa.OpCallR:
			leads = append(leads, in.End())
		}
	}
	for _, off := range leads {
		i, ok := r.Index(off)
		if !ok || !r.Leader[i] {
			t.Fatalf("%#x should be a decoded leader", off)
		}
	}
	n := 0
	for _, l := range r.Leader {
		if l {
			n++
		}
	}
	if n != r.Blocks() {
		t.Fatalf("Blocks()=%d, %d leaders", r.Blocks(), n)
	}
}
