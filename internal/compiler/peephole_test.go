package compiler

import (
	"testing"

	"deflection/internal/asm"
	"deflection/internal/isa"
)

func TestPeepholePushPop(t *testing.T) {
	body := []asm.Item{
		asm.InstItem(isa.Inst{Op: isa.OpPush, Dst: isa.RAX}),
		asm.InstItem(isa.Inst{Op: isa.OpPop, Dst: isa.RBX}),
		asm.InstItem(isa.Inst{Op: isa.OpPush, Dst: isa.RCX}),
		asm.InstItem(isa.Inst{Op: isa.OpPop, Dst: isa.RCX}),
		asm.InstItem(isa.Inst{Op: isa.OpRet}),
	}
	out := peephole(body)
	if len(out) != 2 {
		t.Fatalf("len = %d: %+v", len(out), out)
	}
	if out[0].Inst.Op != isa.OpMovRR || out[0].Inst.Dst != isa.RBX || out[0].Inst.Src != isa.RAX {
		t.Errorf("first item = %+v", out[0].Inst)
	}
}

func TestPeepholeKeepsSeparatedPairs(t *testing.T) {
	// A label between push and pop blocks the rewrite (a jump could land
	// on it).
	body := []asm.Item{
		asm.InstItem(isa.Inst{Op: isa.OpPush, Dst: isa.RAX}),
		asm.LabelItem("f.L1"),
		asm.InstItem(isa.Inst{Op: isa.OpPop, Dst: isa.RBX}),
	}
	out := peephole(body)
	if len(out) != 3 {
		t.Fatalf("label-separated pair must survive: %+v", out)
	}
	// Annotation items are never rewritten.
	annotBody := []asm.Item{
		{Inst: isa.Inst{Op: isa.OpPush, Dst: isa.RAX}, Annot: true},
		{Inst: isa.Inst{Op: isa.OpPop, Dst: isa.RAX}, Annot: true},
	}
	if out := peephole(annotBody); len(out) != 2 {
		t.Fatalf("annotation pair must survive: %+v", out)
	}
}

func TestPeepholeDropsNoops(t *testing.T) {
	body := []asm.Item{
		asm.InstItem(isa.Inst{Op: isa.OpMovRR, Dst: isa.RDX, Src: isa.RDX}),
		asm.InstItem(isa.Inst{Op: isa.OpAddRI, Dst: isa.RSP, Imm: 0}),
		asm.InstItem(isa.Inst{Op: isa.OpSubRI, Dst: isa.RSP, Imm: 0}),
		asm.InstItem(isa.Inst{Op: isa.OpAddRI, Dst: isa.RAX, Imm: 8}),
	}
	out := peephole(body)
	if len(out) != 1 || out[0].Inst.Imm != 8 {
		t.Fatalf("out = %+v", out)
	}
}

func TestPeepholeDropsJumpToNextLabel(t *testing.T) {
	body := []asm.Item{
		asm.BranchItem(isa.Inst{Op: isa.OpJmp}, "f.L2"),
		asm.LabelItem("f.L2"),
		asm.InstItem(isa.Inst{Op: isa.OpRet}),
	}
	out := peephole(body)
	if len(out) != 2 || !out[0].IsLabel {
		t.Fatalf("out = %+v", out)
	}
	// A jump over something must survive.
	body = []asm.Item{
		asm.BranchItem(isa.Inst{Op: isa.OpJmp}, "f.L3"),
		asm.InstItem(isa.Inst{Op: isa.OpNop}),
		asm.LabelItem("f.L3"),
	}
	if out := peephole(body); len(out) != 3 {
		t.Fatalf("jump over nop must survive: %+v", out)
	}
}

func TestPeepholeCascades(t *testing.T) {
	// mov rbx,rbx (dropped) exposes push rbx; pop rbx (dropped).
	body := []asm.Item{
		asm.InstItem(isa.Inst{Op: isa.OpPush, Dst: isa.RBX}),
		asm.InstItem(isa.Inst{Op: isa.OpMovRR, Dst: isa.RBX, Src: isa.RBX}),
		asm.InstItem(isa.Inst{Op: isa.OpPop, Dst: isa.RBX}),
	}
	out := peephole(body)
	if len(out) != 0 {
		t.Fatalf("cascade failed: %+v", out)
	}
}

func TestOptimizerShrinksCode(t *testing.T) {
	src := `
int a[8];
int main() {
	int x = 2 + 3 * 4;    // folds to 14
	a[2] = x + 0;         // constant index + identity
	return a[2] * 1;
}`
	// Compare against the same semantics written to defeat folding.
	optimised, err := Compile(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(optimised.Text) == 0 {
		t.Fatal("empty text")
	}
	// The folded program must still compute 14 — covered by runtime tests;
	// here assert the constant landed as a literal operand somewhere.
	found := false
	for off := 0; off < len(optimised.Text); {
		in, n, err := isa.Decode(optimised.Text[off:])
		if err != nil {
			t.Fatal(err)
		}
		if in.Op == isa.OpMovRI && in.Imm == 14 {
			found = true
		}
		off += n
	}
	if !found {
		t.Error("folded constant 14 not found in text")
	}
}
