package isa

import (
	"errors"
	"math/rand"
	"testing"
)

func TestRegString(t *testing.T) {
	cases := map[Reg]string{RAX: "rax", RSP: "rsp", R8: "r8", R15: "r15"}
	for r, want := range cases {
		if got := r.String(); got != want {
			t.Errorf("Reg(%d).String() = %q, want %q", r, got, want)
		}
	}
	if got := Reg(99).String(); got != "reg(99)" {
		t.Errorf("invalid reg string = %q", got)
	}
}

func TestCondNegate(t *testing.T) {
	for c := CondE; c < numConds; c++ {
		n := c.Negate()
		if n == CondInvalid {
			t.Fatalf("cond %v negates to invalid", c)
		}
		if back := n.Negate(); back != c {
			t.Errorf("double negate of %v = %v", c, back)
		}
	}
	if CondInvalid.Negate() != CondInvalid {
		t.Error("negate of invalid should stay invalid")
	}
}

func TestMemRefString(t *testing.T) {
	cases := []struct {
		m    MemRef
		want string
	}{
		{Abs(0x100), "[256]"},
		{Mem(RBP, -8), "[rbp-8]"},
		{Mem(RAX, 0), "[rax]"},
		{MemSIB(RAX, RBX, 8, 16), "[rax+rbx*8+16]"},
		{MemRef{HasIndex: true, Index: RCX, Scale: 4, Disp: 4}, "[rcx*4+4]"},
	}
	for _, c := range cases {
		if got := c.m.String(); got != c.want {
			t.Errorf("MemRef.String() = %q, want %q", got, c.want)
		}
	}
}

func TestOpClassification(t *testing.T) {
	stores := []Op{OpMovMR, OpMovBMR, OpMovMI}
	for _, op := range stores {
		if !op.IsStore() {
			t.Errorf("%v should be a store", op)
		}
	}
	notStores := []Op{OpMovRM, OpMovRR, OpPush, OpCall, OpLea}
	for _, op := range notStores {
		if op.IsStore() {
			t.Errorf("%v should not be a store", op)
		}
	}
	if !OpJmpR.IsIndirectBranch() || !OpCallR.IsIndirectBranch() {
		t.Error("indirect branch classification broken")
	}
	if OpJmp.IsIndirectBranch() || OpRet.IsIndirectBranch() {
		t.Error("direct branches misclassified as indirect")
	}
	for _, op := range []Op{OpJmp, OpJmpR, OpRet, OpHlt, OpTrap} {
		if !op.Terminates() {
			t.Errorf("%v should terminate a block", op)
		}
	}
	for _, op := range []Op{OpJcc, OpCall, OpCallR, OpAddRR} {
		if op.Terminates() {
			t.Errorf("%v should not terminate a block", op)
		}
	}
}

func TestWritesReg(t *testing.T) {
	cases := []struct {
		in   Inst
		reg  Reg
		want bool
	}{
		{Inst{Op: OpMovRI, Dst: RAX}, RAX, true},
		{Inst{Op: OpMovRI, Dst: RAX}, RBX, false},
		{Inst{Op: OpMovMR, Src: RAX, Mem: Mem(RBX, 0)}, RAX, false},
		{Inst{Op: OpPush, Dst: RAX}, RAX, false},
		{Inst{Op: OpPush, Dst: RAX}, RSP, true},
		{Inst{Op: OpPop, Dst: RAX}, RAX, true},
		{Inst{Op: OpRet}, RSP, true},
		{Inst{Op: OpCmpRR, Dst: RAX, Src: RBX}, RAX, false},
		{Inst{Op: OpAddRR, Dst: RSP, Src: RAX}, RSP, true},
		{Inst{Op: OpLea, Dst: R14, Mem: Mem(RSP, 8)}, R14, true},
		{Inst{Op: OpJmpR, Dst: RAX}, RAX, false},
		{Inst{Op: OpCallR, Dst: RAX}, RSP, true},
	}
	for _, c := range cases {
		if got := c.in.WritesReg(c.reg); got != c.want {
			t.Errorf("(%s).WritesReg(%v) = %v, want %v", c.in.String(), c.reg, got, c.want)
		}
	}
}

func TestModifiesRSP(t *testing.T) {
	yes := []Inst{
		{Op: OpMovRR, Dst: RSP, Src: RAX},
		{Op: OpAddRI, Dst: RSP, Imm: 1024},
		{Op: OpSubRI, Dst: RSP, Imm: 64},
		{Op: OpMovRM, Dst: RSP, Mem: Mem(RAX, 0)},
		{Op: OpLea, Dst: RSP, Mem: Mem(RBP, -64)},
	}
	for i := range yes {
		if !yes[i].ModifiesRSP() {
			t.Errorf("%s should count as explicit RSP modification", yes[i].String())
		}
	}
	no := []Inst{
		{Op: OpPush, Dst: RAX},
		{Op: OpPop, Dst: RAX},
		{Op: OpRet},
		{Op: OpCall, Imm: 10},
		{Op: OpMovRR, Dst: RAX, Src: RSP},
	}
	for i := range no {
		if no[i].ModifiesRSP() {
			t.Errorf("%s should not count as explicit RSP modification", no[i].String())
		}
	}
}

func TestDecodeNeverPanicsOnGarbage(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	buf := make([]byte, MaxInstLen)
	for i := 0; i < 20000; i++ {
		n := r.Intn(len(buf)) + 1
		r.Read(buf[:n])
		// Must not panic; error or success both fine.
		_, sz, err := Decode(buf[:n])
		if err == nil && (sz <= 0 || sz > n) {
			t.Fatalf("decode returned bad size %d for %d input bytes", sz, n)
		}
	}
}

func TestTrapCodeString(t *testing.T) {
	if TrapStoreBounds.String() == "" || TrapCode(999).String() == "" {
		t.Error("trap codes should always render")
	}
}

// TestDecodeTruncatedMemOperand: a memory operand cut off after its flags,
// its base register or inside its disp32, and an MI store cut off inside
// its imm64, are each rejected as truncated.
func TestDecodeTruncatedMemOperand(t *testing.T) {
	rm, mi := byte(OpMovRM), byte(OpMovMI)
	cases := map[string][]byte{
		"no base register":  {rm, byte(RAX), 0x01},
		"no index register": {rm, byte(RAX), 0x03, byte(RBX)},
		"short disp32":      {rm, byte(RAX), 0x00, 1, 2, 3},
		"short imm64":       {mi, 0x00, 0, 0, 0, 0, 1, 2, 3},
	}
	for name, b := range cases {
		if _, _, err := Decode(b); !errors.Is(err, ErrTruncated) {
			t.Errorf("%s: err = %v, want ErrTruncated", name, err)
		}
	}
	if got := ImmOffset(&Inst{Op: OpMovMI, Mem: MemSIB(RBX, RCX, 8, 0)}); got != 1+1+1+1+4 {
		t.Errorf("ImmOffset(mov [rbx+rcx*8], imm) = %d, want 8", got)
	}
}

func TestInvalidNamesRender(t *testing.T) {
	if got := Cond(99).String(); got != "cond(99)" {
		t.Errorf("Cond(99) = %q", got)
	}
	if got := Op(255).String(); got != "op(255)" {
		t.Errorf("Op(255) = %q", got)
	}
	if got := OpInvalid.Format(); got != FmtNone {
		t.Errorf("OpInvalid.Format() = %v, want FmtNone", got)
	}
}
