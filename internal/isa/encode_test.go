package isa_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"deflection/internal/asm"
	"deflection/internal/isa"
)

// The encoder lives in the assembler, which imports isa, so these
// round-trip tests of the decoder against it are an external test package.

func TestEncodeDecodeRoundTrip(t *testing.T) {
	insts := []isa.Inst{
		{Op: isa.OpNop},
		{Op: isa.OpRet},
		{Op: isa.OpHlt},
		{Op: isa.OpMovRI, Dst: isa.RAX, Imm: -1},
		{Op: isa.OpMovRI, Dst: isa.R15, Imm: 0x3FFFFFFFFFFFFFFF},
		{Op: isa.OpMovRR, Dst: isa.RBX, Src: isa.RCX},
		{Op: isa.OpMovRM, Dst: isa.RAX, Mem: isa.MemSIB(isa.RBX, isa.RCX, 8, -128)},
		{Op: isa.OpMovMR, Src: isa.RDX, Mem: isa.Mem(isa.RBP, -16)},
		{Op: isa.OpMovBRM, Dst: isa.RAX, Mem: isa.Mem(isa.RSI, 3)},
		{Op: isa.OpMovBMR, Src: isa.RAX, Mem: isa.MemSIB(isa.RDI, isa.RAX, 1, 0)},
		{Op: isa.OpMovMI, Mem: isa.Abs(0x7FFF0010), Imm: 0x5A5AD00D},
		{Op: isa.OpLea, Dst: isa.RAX, Mem: isa.MemSIB(isa.RSP, isa.R9, 4, 32)},
		{Op: isa.OpPush, Dst: isa.RBX},
		{Op: isa.OpPop, Dst: isa.R13},
		{Op: isa.OpAddRR, Dst: isa.RAX, Src: isa.RBX},
		{Op: isa.OpIdivRR, Dst: isa.RAX, Src: isa.RCX},
		{Op: isa.OpShlRI, Dst: isa.RDX, Imm: 3},
		{Op: isa.OpNeg, Dst: isa.RAX},
		{Op: isa.OpCmpRI, Dst: isa.RSP, Imm: 0x5FFFFFFFFFFFFFFF},
		{Op: isa.OpTestRR, Dst: isa.RAX, Src: isa.RAX},
		{Op: isa.OpFAdd, Dst: isa.RAX, Src: isa.RBX},
		{Op: isa.OpFSqrt, Dst: isa.RCX},
		{Op: isa.OpCvtIF, Dst: isa.RAX},
		{Op: isa.OpJmp, Imm: -5},
		{Op: isa.OpJcc, Cond: isa.CondLE, Imm: 1024},
		{Op: isa.OpJmpR, Dst: isa.RAX},
		{Op: isa.OpCall, Imm: 0},
		{Op: isa.OpCallR, Dst: isa.R11},
		{Op: isa.OpBrMark, Imm: isa.BrMarkMagic56},
		{Op: isa.OpOcall, Imm: 2},
		{Op: isa.OpTrap, Imm: int64(isa.TrapStoreBounds)},
	}
	for _, in := range insts {
		in := in
		b := asm.AppendEncode(nil, &in)
		if len(b) > isa.MaxInstLen {
			t.Errorf("%s: encoded %d bytes, more than MaxInstLen", in.String(), len(b))
		}
		got, n, err := isa.Decode(b)
		if err != nil {
			t.Fatalf("%s: decode error: %v", in.String(), err)
		}
		if n != len(b) {
			t.Errorf("%s: decode consumed %d of %d bytes", in.String(), n, len(b))
		}
		// Normalise scale: encoder maps 0 to 1.
		want := in
		if want.Op.Format() == isa.FmtRM || want.Op.Format() == isa.FmtMR || want.Op.Format() == isa.FmtMI {
			if want.Mem.Scale == 0 {
				want.Mem.Scale = 1
			}
		}
		if got != want {
			t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, want)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := isa.Decode(nil); err == nil {
		t.Error("decoding empty buffer should fail")
	}
	if _, _, err := isa.Decode([]byte{0}); err == nil {
		t.Error("decoding opcode 0 should fail")
	}
	if _, _, err := isa.Decode([]byte{255}); err == nil {
		t.Error("decoding opcode 255 should fail")
	}
	// Truncated MOV ri.
	full := asm.AppendEncode(nil, &isa.Inst{Op: isa.OpMovRI, Dst: isa.RAX, Imm: 42})
	for cut := 1; cut < len(full); cut++ {
		if _, _, err := isa.Decode(full[:cut]); err == nil {
			t.Errorf("decoding %d-byte prefix of mov ri should fail", cut)
		}
	}
	// Invalid register byte.
	if _, _, err := isa.Decode([]byte{byte(isa.OpPush), 200}); err == nil {
		t.Error("push with register 200 should fail to decode")
	}
	// Invalid condition byte.
	bad := asm.AppendEncode(nil, &isa.Inst{Op: isa.OpJcc, Cond: isa.CondE, Imm: 4})
	bad[1] = 0
	if _, _, err := isa.Decode(bad); err == nil {
		t.Error("jcc with condition 0 should fail to decode")
	}
}

// randInst builds a random but valid instruction for property testing.
func randInst(r *rand.Rand) isa.Inst {
	ops := []isa.Op{
		isa.OpMovRI, isa.OpMovRR, isa.OpMovRM, isa.OpMovMR, isa.OpMovBRM, isa.OpMovBMR, isa.OpMovMI,
		isa.OpLea, isa.OpPush, isa.OpPop, isa.OpAddRR, isa.OpSubRR, isa.OpImulRR, isa.OpIdivRR,
		isa.OpAndRI, isa.OpXorRR, isa.OpShlRI, isa.OpNeg, isa.OpCmpRR, isa.OpCmpRI, isa.OpTestRR,
		isa.OpFAdd, isa.OpFMul, isa.OpFSqrt, isa.OpCvtFI, isa.OpJmp, isa.OpJcc, isa.OpJmpR, isa.OpCall,
		isa.OpCallR, isa.OpRet, isa.OpBrMark, isa.OpOcall, isa.OpHlt, isa.OpTrap, isa.OpNop,
	}
	in := isa.Inst{Op: ops[r.Intn(len(ops))]}
	in.Dst = isa.Reg(r.Intn(isa.NumRegs))
	in.Src = isa.Reg(r.Intn(isa.NumRegs))
	switch in.Op.Format() {
	case isa.FmtRI, isa.FmtMI, isa.FmtI:
		in.Imm = int64(r.Uint64())
	case isa.FmtRel:
		in.Imm = int64(int32(r.Uint32()))
	case isa.FmtCondRel:
		in.Cond = isa.CondE + isa.Cond(r.Intn(int(isa.CondAE-isa.CondE)+1))
		in.Imm = int64(int32(r.Uint32()))
	}
	switch in.Op.Format() {
	case isa.FmtRM, isa.FmtMR, isa.FmtMI:
		in.Mem = isa.MemRef{
			Base:     isa.Reg(r.Intn(isa.NumRegs)),
			Index:    isa.Reg(r.Intn(isa.NumRegs)),
			Scale:    uint8(1 << r.Intn(4)),
			Disp:     int32(r.Uint32()),
			HasBase:  r.Intn(2) == 0,
			HasIndex: r.Intn(2) == 0,
		}
		if !in.Mem.HasBase {
			in.Mem.Base = 0
		}
		if !in.Mem.HasIndex {
			in.Mem.Index = 0
			in.Mem.Scale = 1
		}
	}
	// Zero fields the format does not carry so equality holds after decode.
	switch in.Op.Format() {
	case isa.FmtNone:
		in = isa.Inst{Op: in.Op}
	case isa.FmtR:
		in = isa.Inst{Op: in.Op, Dst: in.Dst}
	case isa.FmtRR:
		in = isa.Inst{Op: in.Op, Dst: in.Dst, Src: in.Src}
	case isa.FmtRI:
		in = isa.Inst{Op: in.Op, Dst: in.Dst, Imm: in.Imm}
	case isa.FmtRM:
		in = isa.Inst{Op: in.Op, Dst: in.Dst, Mem: in.Mem}
	case isa.FmtMR:
		in = isa.Inst{Op: in.Op, Src: in.Src, Mem: in.Mem}
	case isa.FmtMI:
		in = isa.Inst{Op: in.Op, Mem: in.Mem, Imm: in.Imm}
	case isa.FmtI:
		in = isa.Inst{Op: in.Op, Imm: in.Imm}
	case isa.FmtRel:
		in = isa.Inst{Op: in.Op, Imm: in.Imm}
	case isa.FmtCondRel:
		in = isa.Inst{Op: in.Op, Cond: in.Cond, Imm: in.Imm}
	}
	return in
}

func TestEncodeDecodeQuick(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func() bool {
		in := randInst(r)
		b := asm.AppendEncode(nil, &in)
		got, n, err := isa.Decode(b)
		if err != nil || n != len(b) {
			t.Logf("inst %+v: err=%v n=%d len=%d", in, err, n, len(b))
			return false
		}
		return got == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestImmAndDispOffsets(t *testing.T) {
	in := isa.Inst{Op: isa.OpMovRI, Dst: isa.RBX, Imm: 0x1122334455667788}
	b := asm.AppendEncode(nil, &in)
	off := isa.ImmOffset(&in)
	if off != 2 {
		t.Fatalf("isa.ImmOffset(mov ri) = %d, want 2", off)
	}
	if b[off] != 0x88 || b[off+7] != 0x11 {
		t.Error("imm64 not at reported offset")
	}

	mi := isa.Inst{Op: isa.OpMovMI, Mem: isa.Mem(isa.RBX, 0x10), Imm: 0x55}
	bmi := asm.AppendEncode(nil, &mi)
	moff := isa.ImmOffset(&mi)
	if bmi[moff] != 0x55 {
		t.Errorf("MI imm not at reported offset %d", moff)
	}

	st := isa.Inst{Op: isa.OpMovMR, Src: isa.RAX, Mem: isa.MemSIB(isa.RBX, isa.RCX, 8, 0x11223344)}
	bst := asm.AppendEncode(nil, &st)
	doff := isa.DispOffset(&st)
	if bst[doff] != 0x44 || bst[doff+3] != 0x11 {
		t.Errorf("disp32 not at reported offset %d", doff)
	}
	if isa.DispOffset(&in) != -1 {
		t.Error("isa.DispOffset on non-memory instruction should be -1")
	}
	if isa.ImmOffset(&st) != -1 {
		t.Error("isa.ImmOffset on store-register instruction should be -1")
	}
}

func TestBrMarkPattern(t *testing.T) {
	in := isa.Inst{Op: isa.OpBrMark, Imm: isa.BrMarkMagic56}
	b := asm.AppendEncode(nil, &in)
	if len(b) < 8 {
		t.Fatal("brmark encoding shorter than 8 bytes")
	}
	var got uint64
	for i := 7; i >= 0; i-- {
		got = got<<8 | uint64(b[i])
	}
	if got != isa.BrMarkPattern() {
		t.Errorf("first 8 bytes of brmark = %#x, want %#x", got, isa.BrMarkPattern())
	}
}
