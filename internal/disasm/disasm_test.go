package disasm_test

import (
	"errors"
	"strings"
	"testing"

	"deflection/internal/asm"
	"deflection/internal/cfaref"
	"deflection/internal/disasm"
	"deflection/internal/isa"
)

func encode(insts ...isa.Inst) []byte {
	var b []byte
	for i := range insts {
		b = asm.AppendEncode(b, &insts[i])
	}
	return b
}

func TestLinear(t *testing.T) {
	text := encode(
		isa.Inst{Op: isa.OpMovRI, Dst: isa.RAX, Imm: 1},
		isa.Inst{Op: isa.OpAddRR, Dst: isa.RAX, Src: isa.RBX},
		isa.Inst{Op: isa.OpHlt},
	)
	out, err := asm.Linear(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("got %d instructions, want 3", len(out))
	}
	if out[2].Op != isa.OpHlt {
		t.Errorf("last inst = %v", out[2].Op)
	}
}

func TestDisassembleFollowsControlFlow(t *testing.T) {
	// 0: jmp +skip  (over dead bytes)
	// dead garbage bytes (never decoded)
	// L: hlt
	dead := []byte{0xFF, 0xFF, 0xFF}
	jmp := isa.Inst{Op: isa.OpJmp, Imm: int64(len(dead))}
	text := asm.AppendEncode(nil, &jmp)
	text = append(text, dead...)
	hltOff := int64(len(text))
	hlt := isa.Inst{Op: isa.OpHlt}
	text = asm.AppendEncode(text, &hlt)

	r, err := disasm.Disassemble(text, []int64{0})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Insts) != 2 {
		t.Fatalf("decoded %d instructions, want 2 (dead bytes skipped)", len(r.Insts))
	}
	if _, ok := r.At(hltOff); !ok {
		t.Error("jump target not decoded")
	}
	if i, ok := r.Index(hltOff); !ok || !r.Leader[i] {
		t.Error("jump target should start a block")
	}
}

func TestDisassembleJccBothEdges(t *testing.T) {
	// 0: cmp rax, 0
	// 1: je +1 (over nop)
	// 2: nop
	// 3: hlt
	cmp := isa.Inst{Op: isa.OpCmpRI, Dst: isa.RAX, Imm: 0}
	nop := isa.Inst{Op: isa.OpNop}
	je := isa.Inst{Op: isa.OpJcc, Cond: isa.CondE, Imm: int64(asm.EncodedLen(&nop))}
	hlt := isa.Inst{Op: isa.OpHlt}
	text := encode(cmp, je, nop, hlt)
	r, err := disasm.Disassemble(text, []int64{0})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Insts) != 4 {
		t.Fatalf("decoded %d instructions, want 4", len(r.Insts))
	}
	for i := 1; i < len(r.Insts); i++ {
		if r.Insts[i].Off <= r.Insts[i-1].Off {
			t.Error("instructions not in address order")
		}
	}
}

func TestDisassembleIndirectNeedsList(t *testing.T) {
	// jmp rax; unreachable-without-list: brmark; hlt
	jr := isa.Inst{Op: isa.OpJmpR, Dst: isa.RAX}
	bm := isa.Inst{Op: isa.OpBrMark, Imm: isa.BrMarkMagic56}
	hlt := isa.Inst{Op: isa.OpHlt}
	text := encode(jr, bm, hlt)
	markOff := int64(asm.EncodedLen(&jr))

	r, err := disasm.Disassemble(text, []int64{0})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Insts) != 1 {
		t.Fatalf("without list decoded %d, want 1", len(r.Insts))
	}

	r, err = disasm.Disassemble(text, []int64{0, markOff})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Insts) != 3 {
		t.Fatalf("with list decoded %d, want 3", len(r.Insts))
	}
}

func TestDisassembleRejectsOverlap(t *testing.T) {
	// A branch target pointing into the middle of a mov ri instruction.
	mov := isa.Inst{Op: isa.OpMovRI, Dst: isa.RAX, Imm: 0x0101010101010101}
	hlt := isa.Inst{Op: isa.OpHlt}
	text := encode(mov, hlt)
	// Depending on traversal order this surfaces as either ErrOverlap or a
	// decode failure of the misaligned bytes; both are rejections.
	if _, err := disasm.Disassemble(text, []int64{0, 3}); err == nil {
		t.Error("overlapping entry should be rejected")
	}
}

func TestDisassembleRejectsJumpIntoInstruction(t *testing.T) {
	// jmp -N landing inside the jmp's own bytes from a later entry ordering:
	// simpler: two entries where the second decodes bytes that the first's
	// stream later runs into mid-instruction.
	// Layout: entry0: mov rax, imm (10 bytes); hlt
	// entry1 = 1 (inside the mov)
	mov := isa.Inst{Op: isa.OpMovRI, Dst: isa.RAX, Imm: int64(uint64(0x0b0b0b0b0b0b0b0b))}
	hlt := isa.Inst{Op: isa.OpHlt}
	text := encode(mov, hlt)
	if _, err := disasm.Disassemble(text, []int64{1, 0}); !errors.Is(err, disasm.ErrOverlap) {
		t.Errorf("err = %v, want ErrOverlap", err)
	}
}

func TestDisassembleRejectsRunoff(t *testing.T) {
	mov := isa.Inst{Op: isa.OpMovRI, Dst: isa.RAX, Imm: 1}
	text := encode(mov) // no terminator: control runs off the end
	if _, err := disasm.Disassemble(text, []int64{0}); err == nil {
		t.Error("running past end of text should fail")
	}
}

func TestDisassembleRejectsBadTarget(t *testing.T) {
	hlt := isa.Inst{Op: isa.OpHlt}
	text := encode(hlt)
	if _, err := disasm.Disassemble(text, []int64{-1}); err == nil {
		t.Error("negative entry should fail")
	}
	if _, err := disasm.Disassemble(text, []int64{int64(len(text)) + 10}); err == nil {
		t.Error("entry past end should fail")
	}
}

func TestDisassembleCallFallthrough(t *testing.T) {
	// call f; hlt; f: ret
	hlt := isa.Inst{Op: isa.OpHlt}
	ret := isa.Inst{Op: isa.OpRet}
	call := isa.Inst{Op: isa.OpCall, Imm: int64(asm.EncodedLen(&hlt))}
	text := encode(call, hlt, ret)
	r, err := disasm.Disassemble(text, []int64{0})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Insts) != 3 {
		t.Fatalf("decoded %d instructions, want 3", len(r.Insts))
	}
	callLen := int64(asm.EncodedLen(&call))
	if i, ok := r.Index(callLen); !ok || !r.Leader[i] {
		t.Error("call fall-through should start a block")
	}
}

func TestDirectTarget(t *testing.T) {
	jmp := isa.Inst{Op: isa.OpJmp, Imm: -6}
	in := disasm.Inst{Inst: jmp, Off: 10, Len: 5}
	if got := disasm.DirectTarget(in); got != 9 {
		t.Errorf("DirectTarget = %d, want 9", got)
	}
}

// TestDisassembleRejections pins the error text of every rejection and
// requires the reference builders to reject alike.
func TestDisassembleRejections(t *testing.T) {
	hlt := isa.Inst{Op: isa.OpHlt}
	mov := isa.Inst{Op: isa.OpMovRI, Dst: isa.RAX, Imm: 1}
	// A mov whose immediate's first byte (offset 2) decodes as a hlt.
	overlapped := encode(mov, hlt)
	overlapped[2] = byte(isa.OpHlt)
	// A jmp back into the middle of the mov before it.
	movLen := int64(asm.EncodedLen(&mov))
	jmp := isa.Inst{Op: isa.OpJmp}
	jmp.Imm = 1 - movLen - int64(asm.EncodedLen(&jmp))
	split := encode(mov, jmp)
	for _, c := range []struct {
		name    string
		text    []byte
		entries []int64
		err     string
		overlap bool
	}{
		{"target outside text", encode(hlt), []int64{0, 7}, "disasm: branch target 0x7 outside text (len 1)", false},
		{"target splits an instruction", split, []int64{0}, "disasm: branch target inside another instruction: target 0x1 splits instruction at 0x0", true},
		{"fall-through into the middle", encode(mov, hlt), []int64{1, 0}, "disasm: branch target inside another instruction: fall-through into middle of instruction at 0x0 (from 0x1)", true},
		{"run past the end", encode(mov), []int64{0}, "disasm: control flow runs past end of text at 0xa", false},
		{"decode error", []byte{0xff}, []int64{0}, "disasm: at 0x0: ", false},
		{"overlap", overlapped, []int64{0, 2}, "disasm: branch target inside another instruction: instruction at 0x0 overlaps instruction at 0x2", true},
	} {
		_, err := disasm.Disassemble(c.text, c.entries)
		if err == nil || !strings.HasPrefix(err.Error(), c.err) || errors.Is(err, disasm.ErrOverlap) != c.overlap {
			t.Errorf("%s: err = %v, want %q (ErrOverlap %t)", c.name, err, c.err, c.overlap)
		}
		if d := cfaref.Diff(c.text, c.entries[0], c.entries[1:]); d != "" {
			t.Errorf("%s: %s", c.name, d)
		}
	}
}
