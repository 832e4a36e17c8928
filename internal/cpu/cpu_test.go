package cpu

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"deflection/internal/asm"
	"deflection/internal/enclave"
	"deflection/internal/isa"
)

func load(t *testing.T, cfg Config, insts ...isa.Inst) (*CPU, *enclave.Enclave) {
	t.Helper()
	e, err := enclave.New(enclave.DefaultConfig(), []byte("cpu-test"))
	if err != nil {
		t.Fatal(err)
	}
	var text []byte
	for i := range insts {
		text = asm.AppendEncode(text, &insts[i])
	}
	if f := e.Mem.Write(e.Layout.CodeBase, text); f != nil {
		t.Fatal(f)
	}
	c := New(e, cfg)
	c.RIP = e.Layout.CodeBase
	c.Regs[isa.RSP] = e.Layout.StackHi
	c.Regs[isa.RegShadow] = e.Layout.ShadowBase
	return c, e
}

func run(t *testing.T, insts ...isa.Inst) Result {
	t.Helper()
	c, _ := load(t, Config{}, insts...)
	return c.Run()
}

func TestHaltReturnsRAX(t *testing.T) {
	r := run(t,
		isa.Inst{Op: isa.OpMovRI, Dst: isa.RAX, Imm: 42},
		isa.Inst{Op: isa.OpHlt},
	)
	if r.Status != StatusHalt || r.ExitValue != 42 {
		t.Fatalf("result = %v", r)
	}
	if r.Insts != 2 {
		t.Errorf("insts = %d, want 2", r.Insts)
	}
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		name string
		prog []isa.Inst
		want int64
	}{
		{"add", []isa.Inst{
			{Op: isa.OpMovRI, Dst: isa.RAX, Imm: 40},
			{Op: isa.OpAddRI, Dst: isa.RAX, Imm: 2},
		}, 42},
		{"sub-rr", []isa.Inst{
			{Op: isa.OpMovRI, Dst: isa.RAX, Imm: 50},
			{Op: isa.OpMovRI, Dst: isa.RBX, Imm: 8},
			{Op: isa.OpSubRR, Dst: isa.RAX, Src: isa.RBX},
		}, 42},
		{"imul", []isa.Inst{
			{Op: isa.OpMovRI, Dst: isa.RAX, Imm: -6},
			{Op: isa.OpImulRI, Dst: isa.RAX, Imm: -7},
		}, 42},
		{"idiv", []isa.Inst{
			{Op: isa.OpMovRI, Dst: isa.RAX, Imm: -85},
			{Op: isa.OpMovRI, Dst: isa.RBX, Imm: -2},
			{Op: isa.OpIdivRR, Dst: isa.RAX, Src: isa.RBX},
		}, 42},
		{"irem", []isa.Inst{
			{Op: isa.OpMovRI, Dst: isa.RAX, Imm: -7},
			{Op: isa.OpMovRI, Dst: isa.RBX, Imm: 3},
			{Op: isa.OpIremRR, Dst: isa.RAX, Src: isa.RBX},
		}, -1},
		{"shr-rr", []isa.Inst{
			{Op: isa.OpMovRI, Dst: isa.RAX, Imm: 168},
			{Op: isa.OpMovRI, Dst: isa.RBX, Imm: 66}, // shift counts are taken mod 64
			{Op: isa.OpShrRR, Dst: isa.RAX, Src: isa.RBX},
		}, 42},
		{"shifts", []isa.Inst{
			{Op: isa.OpMovRI, Dst: isa.RAX, Imm: -1},
			{Op: isa.OpShrRI, Dst: isa.RAX, Imm: 32},
			{Op: isa.OpShlRI, Dst: isa.RAX, Imm: 1},
			{Op: isa.OpSarRI, Dst: isa.RAX, Imm: 1},
		}, 0xFFFFFFFF},
		{"neg-not", []isa.Inst{
			{Op: isa.OpMovRI, Dst: isa.RAX, Imm: 43},
			{Op: isa.OpNeg, Dst: isa.RAX},
			{Op: isa.OpNot, Dst: isa.RAX},
		}, 42},
		{"bitops", []isa.Inst{
			{Op: isa.OpMovRI, Dst: isa.RAX, Imm: 0b1100},
			{Op: isa.OpAndRI, Dst: isa.RAX, Imm: 0b1010},
			{Op: isa.OpOrRI, Dst: isa.RAX, Imm: 0b0001},
			{Op: isa.OpXorRI, Dst: isa.RAX, Imm: 0b1000},
		}, 0b0001},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			prog := append(c.prog, isa.Inst{Op: isa.OpHlt})
			r := run(t, prog...)
			if r.Status != StatusHalt || r.ExitValue != c.want {
				t.Errorf("result = %v, want exit %d", r, c.want)
			}
		})
	}
}

func TestDivideByZeroTraps(t *testing.T) {
	r := run(t,
		isa.Inst{Op: isa.OpMovRI, Dst: isa.RAX, Imm: 1},
		isa.Inst{Op: isa.OpMovRI, Dst: isa.RBX, Imm: 0},
		isa.Inst{Op: isa.OpIdivRR, Dst: isa.RAX, Src: isa.RBX},
		isa.Inst{Op: isa.OpHlt},
	)
	if r.Status != StatusTrap || r.Trap != isa.TrapDivideByZero {
		t.Fatalf("result = %v", r)
	}
}

func TestIdivMinOverflowDefined(t *testing.T) {
	r := run(t,
		isa.Inst{Op: isa.OpMovRI, Dst: isa.RAX, Imm: math.MinInt64},
		isa.Inst{Op: isa.OpMovRI, Dst: isa.RBX, Imm: -1},
		isa.Inst{Op: isa.OpIdivRR, Dst: isa.RAX, Src: isa.RBX},
		isa.Inst{Op: isa.OpHlt},
	)
	if r.Status != StatusHalt || r.ExitValue != math.MinInt64 {
		t.Fatalf("result = %v", r)
	}
}

func TestLoadsAndStores(t *testing.T) {
	c, e := load(t, Config{},
		isa.Inst{Op: isa.OpMovRI, Dst: isa.RBX, Imm: int64(0)}, // patched below
		isa.Inst{Op: isa.OpMovRI, Dst: isa.RAX, Imm: 0x1122334455667788},
		isa.Inst{Op: isa.OpMovMR, Src: isa.RAX, Mem: isa.Mem(isa.RBX, 8)},
		isa.Inst{Op: isa.OpMovRM, Dst: isa.RCX, Mem: isa.Mem(isa.RBX, 8)},
		isa.Inst{Op: isa.OpMovBRM, Dst: isa.RDX, Mem: isa.Mem(isa.RBX, 9)},
		isa.Inst{Op: isa.OpMovBMR, Src: isa.RDX, Mem: isa.Mem(isa.RBX, 0)},
		isa.Inst{Op: isa.OpMovMI, Mem: isa.Mem(isa.RBX, 16), Imm: 7},
		isa.Inst{Op: isa.OpHlt},
	)
	// Patch RBX = heap base: re-encode first instruction.
	first := isa.Inst{Op: isa.OpMovRI, Dst: isa.RBX, Imm: int64(e.Layout.HeapBase)}
	if f := e.Mem.Write(e.Layout.CodeBase, asm.AppendEncode(nil, &first)); f != nil {
		t.Fatal(f)
	}
	r := c.Run()
	if r.Status != StatusHalt {
		t.Fatalf("result = %v", r)
	}
	if c.Regs[isa.RCX] != 0x1122334455667788 {
		t.Errorf("load64 = %#x", c.Regs[isa.RCX])
	}
	if c.Regs[isa.RDX] != 0x77 {
		t.Errorf("byte load = %#x, want 0x77", c.Regs[isa.RDX])
	}
	b, _ := e.Mem.Read8(e.Layout.HeapBase)
	if b != 0x77 {
		t.Errorf("byte store = %#x", b)
	}
	v, _ := e.Mem.Read64(e.Layout.HeapBase + 16)
	if v != 7 {
		t.Errorf("imm store = %d", v)
	}
}

func TestLeaAndSIB(t *testing.T) {
	c, _ := load(t, Config{},
		isa.Inst{Op: isa.OpMovRI, Dst: isa.RBX, Imm: 1000},
		isa.Inst{Op: isa.OpMovRI, Dst: isa.RCX, Imm: 5},
		isa.Inst{Op: isa.OpLea, Dst: isa.RAX, Mem: isa.MemSIB(isa.RBX, isa.RCX, 8, 4)},
		isa.Inst{Op: isa.OpHlt},
	)
	r := c.Run()
	if r.ExitValue != 1000+5*8+4 {
		t.Fatalf("lea = %d", r.ExitValue)
	}
}

func TestPushPopAndCallRet(t *testing.T) {
	// call f; hlt; f: mov rax, 42; ret
	hlt := isa.Inst{Op: isa.OpHlt}
	r := run(t,
		isa.Inst{Op: isa.OpCall, Imm: int64(asm.EncodedLen(&hlt))},
		hlt,
		isa.Inst{Op: isa.OpMovRI, Dst: isa.RAX, Imm: 42},
		isa.Inst{Op: isa.OpRet},
	)
	if r.Status != StatusHalt || r.ExitValue != 42 {
		t.Fatalf("result = %v", r)
	}
}

func TestPushPopValues(t *testing.T) {
	c, _ := load(t, Config{},
		isa.Inst{Op: isa.OpMovRI, Dst: isa.RAX, Imm: 11},
		isa.Inst{Op: isa.OpMovRI, Dst: isa.RBX, Imm: 22},
		isa.Inst{Op: isa.OpPush, Dst: isa.RAX},
		isa.Inst{Op: isa.OpPush, Dst: isa.RBX},
		isa.Inst{Op: isa.OpPop, Dst: isa.RCX},
		isa.Inst{Op: isa.OpPop, Dst: isa.RDX},
		isa.Inst{Op: isa.OpHlt},
	)
	r := c.Run()
	if r.Status != StatusHalt || c.Regs[isa.RCX] != 22 || c.Regs[isa.RDX] != 11 {
		t.Fatalf("rcx=%d rdx=%d %v", c.Regs[isa.RCX], c.Regs[isa.RDX], r)
	}
}

func TestConditionalBranches(t *testing.T) {
	conds := []struct {
		cond  isa.Cond
		a, b  int64
		taken bool
	}{
		{isa.CondE, 5, 5, true},
		{isa.CondE, 5, 6, false},
		{isa.CondNE, 5, 6, true},
		{isa.CondL, -1, 0, true},
		{isa.CondL, 0, -1, false},
		{isa.CondLE, 3, 3, true},
		{isa.CondG, 4, 3, true},
		{isa.CondGE, 3, 3, true},
		{isa.CondB, 1, 2, true},
		{isa.CondB, -1, 2, false}, // -1 is huge unsigned
		{isa.CondBE, 2, 2, true},
		{isa.CondA, -1, 2, true},
		{isa.CondAE, 3, 3, true},
	}
	for _, c := range conds {
		setOne := isa.Inst{Op: isa.OpMovRI, Dst: isa.RAX, Imm: 1}
		prog := []isa.Inst{
			{Op: isa.OpMovRI, Dst: isa.RAX, Imm: 0},
			{Op: isa.OpMovRI, Dst: isa.RBX, Imm: c.a},
			{Op: isa.OpMovRI, Dst: isa.RCX, Imm: c.b},
			{Op: isa.OpCmpRR, Dst: isa.RBX, Src: isa.RCX},
			{Op: isa.OpJcc, Cond: c.cond, Imm: int64(asm.EncodedLen(&setOne))},
			setOne, // skipped when branch taken
			{Op: isa.OpHlt},
		}
		r := run(t, prog...)
		// RAX==0 means branch taken (skip), RAX==1 means fell through.
		taken := r.ExitValue == 0
		if taken != c.taken {
			t.Errorf("j%v with a=%d b=%d: taken=%v want %v", c.cond, c.a, c.b, taken, c.taken)
		}
	}
}

func TestTestInstruction(t *testing.T) {
	skip := isa.Inst{Op: isa.OpMovRI, Dst: isa.RAX, Imm: 99}
	r := run(t,
		isa.Inst{Op: isa.OpMovRI, Dst: isa.RAX, Imm: 0},
		isa.Inst{Op: isa.OpTestRR, Dst: isa.RAX, Src: isa.RAX},
		isa.Inst{Op: isa.OpJcc, Cond: isa.CondE, Imm: int64(asm.EncodedLen(&skip))},
		skip,
		isa.Inst{Op: isa.OpHlt},
	)
	if r.ExitValue != 0 {
		t.Fatalf("test/je should have skipped: %v", r)
	}
}

func TestIndirectJumpAndCall(t *testing.T) {
	// mov rbx, addr(f); call rbx; hlt; f: mov rax,7; ret
	e, err := enclave.New(enclave.DefaultConfig(), []byte("t"))
	if err != nil {
		t.Fatal(err)
	}
	prog := []isa.Inst{
		{Op: isa.OpMovRI, Dst: isa.RBX, Imm: 0}, // patched with f's addr
		{Op: isa.OpCallR, Dst: isa.RBX},
		{Op: isa.OpHlt},
		{Op: isa.OpMovRI, Dst: isa.RAX, Imm: 7}, // f:
		{Op: isa.OpRet},
	}
	var off int64
	offs := make([]int64, len(prog))
	for i := range prog {
		offs[i] = off
		off += int64(asm.EncodedLen(&prog[i]))
	}
	prog[0].Imm = int64(e.Layout.CodeBase) + offs[3]
	var text []byte
	for i := range prog {
		text = asm.AppendEncode(text, &prog[i])
	}
	if f := e.Mem.Write(e.Layout.CodeBase, text); f != nil {
		t.Fatal(f)
	}
	c := New(e, Config{})
	c.RIP = e.Layout.CodeBase
	c.Regs[isa.RSP] = e.Layout.StackHi
	r := c.Run()
	if r.Status != StatusHalt || r.ExitValue != 7 {
		t.Fatalf("result = %v", r)
	}
}

func TestFloatOps(t *testing.T) {
	fb := func(f float64) int64 { return int64(math.Float64bits(f)) }
	c, _ := load(t, Config{},
		isa.Inst{Op: isa.OpMovRI, Dst: isa.RAX, Imm: fb(2.0)},
		isa.Inst{Op: isa.OpMovRI, Dst: isa.RBX, Imm: fb(0.25)},
		isa.Inst{Op: isa.OpFAdd, Dst: isa.RAX, Src: isa.RBX}, // 2.25
		isa.Inst{Op: isa.OpFSqrt, Dst: isa.RAX},              // 1.5
		isa.Inst{Op: isa.OpFMul, Dst: isa.RAX, Src: isa.RAX}, // 2.25
		isa.Inst{Op: isa.OpMovRI, Dst: isa.RCX, Imm: fb(0.25)},
		isa.Inst{Op: isa.OpFSub, Dst: isa.RAX, Src: isa.RCX}, // 2.0
		isa.Inst{Op: isa.OpMovRI, Dst: isa.RDX, Imm: fb(4.0)},
		isa.Inst{Op: isa.OpFDiv, Dst: isa.RDX, Src: isa.RAX}, // 2.0
		isa.Inst{Op: isa.OpFNeg, Dst: isa.RDX},               // -2.0
		isa.Inst{Op: isa.OpCvtFI, Dst: isa.RDX},              // -2
		isa.Inst{Op: isa.OpHlt},
	)
	r := c.Run()
	if r.Status != StatusHalt {
		t.Fatalf("result = %v", r)
	}
	if got := math.Float64frombits(c.Regs[isa.RAX]); got != 2.0 {
		t.Errorf("float pipeline = %v, want 2.0", got)
	}
	if int64(c.Regs[isa.RDX]) != -2 {
		t.Errorf("cvtfi = %d, want -2", int64(c.Regs[isa.RDX]))
	}
}

func TestCvtIF(t *testing.T) {
	c, _ := load(t, Config{},
		isa.Inst{Op: isa.OpMovRI, Dst: isa.RAX, Imm: -3},
		isa.Inst{Op: isa.OpCvtIF, Dst: isa.RAX},
		isa.Inst{Op: isa.OpHlt},
	)
	c.Run()
	if got := math.Float64frombits(c.Regs[isa.RAX]); got != -3.0 {
		t.Errorf("cvtif = %v", got)
	}
}

func TestFCmp(t *testing.T) {
	fb := func(f float64) int64 { return int64(math.Float64bits(f)) }
	skip := isa.Inst{Op: isa.OpMovRI, Dst: isa.RAX, Imm: 1}
	r := run(t,
		isa.Inst{Op: isa.OpMovRI, Dst: isa.RAX, Imm: 0},
		isa.Inst{Op: isa.OpMovRI, Dst: isa.RBX, Imm: fb(1.5)},
		isa.Inst{Op: isa.OpMovRI, Dst: isa.RCX, Imm: fb(2.5)},
		isa.Inst{Op: isa.OpFCmp, Dst: isa.RBX, Src: isa.RCX},
		isa.Inst{Op: isa.OpJcc, Cond: isa.CondL, Imm: int64(asm.EncodedLen(&skip))},
		skip,
		isa.Inst{Op: isa.OpHlt},
	)
	if r.ExitValue != 0 {
		t.Fatalf("1.5 < 2.5 should take the branch: %v", r)
	}
}

func TestTrapInstruction(t *testing.T) {
	r := run(t, isa.Inst{Op: isa.OpTrap, Imm: int64(isa.TrapCFI)})
	if r.Status != StatusTrap || r.Trap != isa.TrapCFI {
		t.Fatalf("result = %v", r)
	}
}

func TestGasExhaustion(t *testing.T) {
	// Infinite loop: jmp -size(jmp).
	jmp := isa.Inst{Op: isa.OpJmp}
	jmp.Imm = -int64(asm.EncodedLen(&jmp))
	c, _ := load(t, Config{Gas: 1000}, jmp)
	r := c.Run()
	if r.Status != StatusTrap || r.Trap != isa.TrapOutOfGas {
		t.Fatalf("result = %v", r)
	}
	if r.Insts != 1000 {
		t.Errorf("insts = %d, want 1000", r.Insts)
	}
}

func TestStackOverflowHitsGuard(t *testing.T) {
	// Recurse forever: f: call f
	call := isa.Inst{Op: isa.OpCall}
	call.Imm = -int64(asm.EncodedLen(&call))
	c, _ := load(t, Config{}, call)
	r := c.Run()
	if r.Status != StatusTrap || r.Trap != isa.TrapStackOverflow {
		t.Fatalf("result = %v", r)
	}
}

func TestFetchFromNonExecutableFaults(t *testing.T) {
	e, err := enclave.New(enclave.DefaultConfig(), []byte("t"))
	if err != nil {
		t.Fatal(err)
	}
	c := New(e, Config{})
	c.RIP = e.Layout.HeapBase // heap is RW, not X
	c.Regs[isa.RSP] = e.Layout.StackHi
	r := c.Run()
	if r.Status != StatusTrap || r.Trap != isa.TrapNonCanonical {
		t.Fatalf("result = %v", r)
	}
}

func TestInvalidOpcodeTraps(t *testing.T) {
	e, err := enclave.New(enclave.DefaultConfig(), []byte("t"))
	if err != nil {
		t.Fatal(err)
	}
	if f := e.Mem.Write(e.Layout.CodeBase, []byte{0xFF, 0xFF}); f != nil {
		t.Fatal(f)
	}
	c := New(e, Config{})
	c.RIP = e.Layout.CodeBase
	c.Regs[isa.RSP] = e.Layout.StackHi
	r := c.Run()
	if r.Status != StatusTrap || r.Trap != isa.TrapInvalidOpcode {
		t.Fatalf("result = %v", r)
	}
}

func TestPageFaultOnUnmappedStore(t *testing.T) {
	r := run(t,
		isa.Inst{Op: isa.OpMovRI, Dst: isa.RBX, Imm: 0x10}, // below mapped base
		isa.Inst{Op: isa.OpMovMR, Src: isa.RAX, Mem: isa.Mem(isa.RBX, 0)},
		isa.Inst{Op: isa.OpHlt},
	)
	if r.Status != StatusFault {
		t.Fatalf("result = %v", r)
	}
}

func TestOcallDeniedWithoutHandler(t *testing.T) {
	r := run(t, isa.Inst{Op: isa.OpOcall, Imm: 1})
	if r.Status != StatusTrap || r.Trap != isa.TrapOcallDenied {
		t.Fatalf("result = %v", r)
	}
}

func TestOcallHandlerInvoked(t *testing.T) {
	var gotIdx int64 = -1
	cfg := Config{Ocall: func(c *CPU, idx int64) (isa.TrapCode, error) {
		gotIdx = idx
		c.Regs[isa.RAX] = 123
		return isa.TrapNone, nil
	}}
	c, _ := load(t, cfg,
		isa.Inst{Op: isa.OpOcall, Imm: 5},
		isa.Inst{Op: isa.OpHlt},
	)
	r := c.Run()
	if r.Status != StatusHalt || r.ExitValue != 123 || gotIdx != 5 || r.OcallCount != 1 {
		t.Fatalf("result = %v, idx = %d", r, gotIdx)
	}
}

func TestOcallHandlerTrap(t *testing.T) {
	cfg := Config{Ocall: func(c *CPU, idx int64) (isa.TrapCode, error) {
		return isa.TrapOcallDenied, nil
	}}
	c, _ := load(t, cfg, isa.Inst{Op: isa.OpOcall, Imm: 0})
	r := c.Run()
	if r.Status != StatusTrap || r.Trap != isa.TrapOcallDenied {
		t.Fatalf("result = %v", r)
	}
}

func TestAEXInjectionWritesSSA(t *testing.T) {
	// A long loop with AEX injection: the SSA must contain saved context
	// and the AEX count must be > 0.
	loop := []isa.Inst{
		{Op: isa.OpMovRI, Dst: isa.RCX, Imm: 50000},
		{Op: isa.OpSubRI, Dst: isa.RCX, Imm: 1}, // L:
		{Op: isa.OpCmpRI, Dst: isa.RCX, Imm: 0},
	}
	jg := isa.Inst{Op: isa.OpJcc, Cond: isa.CondG}
	sub := loop[1]
	cmp := loop[2]
	jg.Imm = -int64(asm.EncodedLen(&sub) + asm.EncodedLen(&cmp) + asm.EncodedLen(&jg))
	prog := append(loop, jg, isa.Inst{Op: isa.OpHlt})
	c, e := load(t, Config{AEXInterval: 1000, AEXSeed: 7}, prog...)
	r := c.Run()
	if r.Status != StatusHalt {
		t.Fatalf("result = %v", r)
	}
	if r.AEXCount == 0 {
		t.Fatal("expected injected AEXes")
	}
	rip, f := e.Mem.Read64(e.Layout.SSARIPAddr())
	if f != nil {
		t.Fatal(f)
	}
	if rip < e.Layout.CodeBase || rip > e.Layout.CodeEnd {
		t.Errorf("saved RIP %#x outside code", rip)
	}
	rcx, _ := e.Mem.Read64(e.Layout.SSARegAddr(int(isa.RCX)))
	if rcx == 0 || rcx > 50000 {
		t.Errorf("saved RCX = %d, implausible", rcx)
	}
}

func TestAEXClobbersSSAMarker(t *testing.T) {
	// Plant a marker in the RAX save slot, run long enough for an AEX, and
	// observe the marker overwritten — the HyperRace/P6 detection trick.
	const magic = 0x5A5AD00D
	c, e := load(t, Config{AEXInterval: 500, AEXSeed: 1},
		isa.Inst{Op: isa.OpMovRI, Dst: isa.RCX, Imm: 5000},
		isa.Inst{Op: isa.OpSubRI, Dst: isa.RCX, Imm: 1},
		isa.Inst{Op: isa.OpCmpRI, Dst: isa.RCX, Imm: 0},
		func() isa.Inst {
			jg := isa.Inst{Op: isa.OpJcc, Cond: isa.CondG}
			sub := isa.Inst{Op: isa.OpSubRI, Dst: isa.RCX, Imm: 1}
			cmp := isa.Inst{Op: isa.OpCmpRI, Dst: isa.RCX, Imm: 0}
			jg.Imm = -int64(asm.EncodedLen(&sub) + asm.EncodedLen(&cmp) + asm.EncodedLen(&jg))
			return jg
		}(),
		isa.Inst{Op: isa.OpHlt},
	)
	if f := e.Mem.Write64(e.Layout.SSAMarkerAddr(), magic); f != nil {
		t.Fatal(f)
	}
	r := c.Run()
	if r.AEXCount == 0 {
		t.Fatal("expected AEXes")
	}
	v, _ := e.Mem.Read64(e.Layout.SSAMarkerAddr())
	if v == magic {
		t.Error("marker should have been clobbered by AEX register save")
	}
}

func TestAnnotationTimingDiscount(t *testing.T) {
	// The same instruction stream must cost fewer modelled cycles when its
	// range is declared an annotation range.
	prog := []isa.Inst{
		{Op: isa.OpMovRI, Dst: isa.RAX, Imm: 1},
		{Op: isa.OpAddRI, Dst: isa.RAX, Imm: 1},
		{Op: isa.OpAddRI, Dst: isa.RAX, Imm: 1},
		{Op: isa.OpHlt},
	}
	c1, _ := load(t, Config{}, prog...)
	r1 := c1.Run()

	e, err := enclave.New(enclave.DefaultConfig(), []byte("cpu-test"))
	if err != nil {
		t.Fatal(err)
	}
	var text []byte
	for i := range prog {
		text = asm.AppendEncode(text, &prog[i])
	}
	if f := e.Mem.Write(e.Layout.CodeBase, text); f != nil {
		t.Fatal(f)
	}
	annot := NewRangeSet([]Range{{Lo: e.Layout.CodeBase, Hi: e.Layout.CodeBase + uint64(len(text))}})
	c2 := New(e, Config{AnnotRanges: annot})
	c2.RIP = e.Layout.CodeBase
	c2.Regs[isa.RSP] = e.Layout.StackHi
	r2 := c2.Run()

	if r2.Cycles >= r1.Cycles {
		t.Errorf("annotated cycles %v >= plain cycles %v", r2.Cycles, r1.Cycles)
	}
}

func TestSelfModifyingCodeInvalidatesICache(t *testing.T) {
	// Program overwrites its own next instruction (hlt -> nothing happens
	// since new bytes also decode) — verify the write takes effect rather
	// than executing a stale cached copy.
	e, err := enclave.New(enclave.DefaultConfig(), []byte("t"))
	if err != nil {
		t.Fatal(err)
	}
	// Layout: mov rbx, <addr of target>; mov rax, <imm trap-encoding>; store; target: hlt
	movRBX := isa.Inst{Op: isa.OpMovRI, Dst: isa.RBX, Imm: 0}
	movRAX := isa.Inst{Op: isa.OpMovRI, Dst: isa.RAX, Imm: 0}
	store := isa.Inst{Op: isa.OpMovMR, Src: isa.RAX, Mem: isa.Mem(isa.RBX, 0)}
	hlt := isa.Inst{Op: isa.OpHlt}
	targetOff := int64(asm.EncodedLen(&movRBX) + asm.EncodedLen(&movRAX) + asm.EncodedLen(&store))
	movRBX.Imm = int64(e.Layout.CodeBase) + targetOff
	// New bytes at target: trap instruction (opcode + imm64 little endian).
	trapInst := isa.Inst{Op: isa.OpTrap, Imm: int64(isa.TrapExplicit)}
	trapBytes := asm.AppendEncode(nil, &trapInst)
	var imm uint64
	for i := 7; i >= 0; i-- {
		imm = imm<<8 | uint64(trapBytes[i])
	}
	movRAX.Imm = int64(imm)
	var text []byte
	for _, in := range []isa.Inst{movRBX, movRAX, store, hlt} {
		in := in
		text = asm.AppendEncode(text, &in)
	}
	// Pad so the 9-byte trap encoding fits beyond the hlt.
	text = append(text, make([]byte, 8)...)
	if f := e.Mem.Write(e.Layout.CodeBase, text); f != nil {
		t.Fatal(f)
	}
	c := New(e, Config{})
	c.RIP = e.Layout.CodeBase
	c.Regs[isa.RSP] = e.Layout.StackHi
	// Warm the icache over the whole program first.
	for addr := e.Layout.CodeBase; addr < e.Layout.CodeBase+uint64(targetOff)+1; addr++ {
		c.decode(addr)
	}
	r := c.Run()
	if r.Status != StatusTrap || r.Trap != isa.TrapExplicit {
		t.Fatalf("self-modified code did not take effect: %v", r)
	}
}

func TestRangeSet(t *testing.T) {
	rs := NewRangeSet([]Range{{10, 20}, {15, 25}, {40, 50}, {5, 5}})
	if rs.Len() != 2 {
		t.Fatalf("merged len = %d, want 2", rs.Len())
	}
	cases := map[uint64]bool{9: false, 10: true, 24: true, 25: false, 39: false, 40: true, 49: true, 50: false}
	for addr, want := range cases {
		if got := rs.Contains(addr); got != want {
			t.Errorf("Contains(%d) = %v, want %v", addr, got, want)
		}
	}
	empty := NewRangeSet(nil)
	if empty.Contains(0) || empty.Len() != 0 {
		t.Error("empty set misbehaves")
	}
}

func TestCyclesAccumulate(t *testing.T) {
	r := run(t,
		isa.Inst{Op: isa.OpMovRI, Dst: isa.RBX, Imm: 0x10},
		isa.Inst{Op: isa.OpHlt},
	)
	if r.Cycles <= 0 {
		t.Error("cycles should accumulate")
	}
}

func TestResultString(t *testing.T) {
	for _, r := range []Result{
		{Status: StatusHalt, ExitValue: 3},
		{Status: StatusTrap, Trap: isa.TrapCFI},
		{Status: StatusFault, Fault: &enclave.Fault{Addr: 1, Access: enclave.AccessRead, Size: 8}},
	} {
		if r.String() == "" {
			t.Error("empty result string")
		}
	}
	if got := (Result{Status: StatusFault + 1}).String(); got != "unknown result" {
		t.Errorf("unknown status renders %q", got)
	}
}

func TestAccessorsAndStepAPI(t *testing.T) {
	c, _ := load(t, Config{},
		isa.Inst{Op: isa.OpMovRI, Dst: isa.RAX, Imm: 9},
		isa.Inst{Op: isa.OpHlt},
	)
	if _, done := c.Result(); done {
		t.Fatal("Result before any step should report not-done")
	}
	c.Step()
	if c.Insts() != 1 || c.Cycles() <= 0 {
		t.Errorf("insts=%d cycles=%v", c.Insts(), c.Cycles())
	}
	c.AddCycles(100)
	before := c.Cycles()
	c.Step() // hlt
	r, done := c.Result()
	if !done || r.Status != StatusHalt || r.ExitValue != 9 {
		t.Fatalf("result = %v, done=%v", r, done)
	}
	if r.Cycles < before {
		t.Error("AddCycles lost")
	}
	// Stepping after completion is a no-op.
	c.Step()
	if r2, _ := c.Result(); r2.Insts != r.Insts {
		t.Error("step after done advanced state")
	}
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{
		StatusHalt: "halt", StatusTrap: "trap", StatusFault: "fault", Status(0): "unknown",
	} {
		if got := s.String(); got != want {
			t.Errorf("Status(%d) = %q, want %q", s, got, want)
		}
	}
}

func TestTraceHook(t *testing.T) {
	var trace []isa.Op
	cfg := Config{Trace: func(rip uint64, in isa.Inst) { trace = append(trace, in.Op) }}
	c, _ := load(t, cfg,
		isa.Inst{Op: isa.OpMovRI, Dst: isa.RAX, Imm: 1},
		isa.Inst{Op: isa.OpNop},
		isa.Inst{Op: isa.OpHlt},
	)
	c.Run()
	if len(trace) != 3 || trace[0] != isa.OpMovRI || trace[2] != isa.OpHlt {
		t.Errorf("trace = %v", trace)
	}
}

func TestRemainderAndShiftRR(t *testing.T) {
	r := run(t,
		isa.Inst{Op: isa.OpMovRI, Dst: isa.RAX, Imm: 1},
		isa.Inst{Op: isa.OpMovRI, Dst: isa.RCX, Imm: 70}, // shift counts mask to 6 bits
		isa.Inst{Op: isa.OpShlRR, Dst: isa.RAX, Src: isa.RCX},
		isa.Inst{Op: isa.OpMovRI, Dst: isa.RBX, Imm: 0},
		isa.Inst{Op: isa.OpIremRR, Dst: isa.RAX, Src: isa.RBX},
	)
	if r.Status != StatusTrap || r.Trap != isa.TrapDivideByZero {
		t.Fatalf("result = %v", r)
	}
}

func TestIremMinOverflow(t *testing.T) {
	r := run(t,
		isa.Inst{Op: isa.OpMovRI, Dst: isa.RAX, Imm: math.MinInt64},
		isa.Inst{Op: isa.OpMovRI, Dst: isa.RBX, Imm: -1},
		isa.Inst{Op: isa.OpIremRR, Dst: isa.RAX, Src: isa.RBX},
		isa.Inst{Op: isa.OpHlt},
	)
	if r.Status != StatusHalt || r.ExitValue != 0 {
		t.Fatalf("result = %v", r)
	}
}

func TestCvtFISaturates(t *testing.T) {
	fb := func(f float64) int64 { return int64(math.Float64bits(f)) }
	cases := []struct {
		in   float64
		want int64
	}{
		{math.NaN(), 0},
		{math.Inf(1), math.MaxInt64},
		{math.Inf(-1), math.MinInt64},
		{1e300, math.MaxInt64},
	}
	for _, c := range cases {
		r := run(t,
			isa.Inst{Op: isa.OpMovRI, Dst: isa.RAX, Imm: fb(c.in)},
			isa.Inst{Op: isa.OpCvtFI, Dst: isa.RAX},
			isa.Inst{Op: isa.OpHlt},
		)
		if r.ExitValue != c.want {
			t.Errorf("cvtfi(%v) = %d, want %d", c.in, r.ExitValue, c.want)
		}
	}
}

func TestOcallHandlerError(t *testing.T) {
	cfg := Config{Ocall: func(c *CPU, idx int64) (isa.TrapCode, error) {
		return 0, errTest
	}}
	c, _ := load(t, cfg, isa.Inst{Op: isa.OpOcall, Imm: 1})
	r := c.Run()
	if r.Status != StatusFault {
		t.Fatalf("handler error should fault the run: %v", r)
	}
}

var errTest = errors.New("boom")

func TestStraddlingCodeWriteInvalidatesBothPages(t *testing.T) {
	// Two instructions meet at a code page boundary; one Write64 across the
	// boundary rewrites the tail of the first and the head of the second.
	e, err := enclave.New(enclave.DefaultConfig(), []byte("t"))
	if err != nil {
		t.Fatal(err)
	}
	a := isa.Inst{Op: isa.OpMovRI, Dst: isa.RAX, Imm: 0x0000_0000_3322_1100}
	b := isa.Inst{Op: isa.OpMovRI, Dst: isa.RBX, Imm: 0x0000_0000_0000_1111}
	a2 := isa.Inst{Op: isa.OpMovRI, Dst: isa.RAX, Imm: 0x7766_5544_3322_1100}
	b2 := isa.Inst{Op: isa.OpMovRI, Dst: isa.RBX, Imm: 0x0000_0000_0000_2222}
	oldText := asm.AppendEncode(asm.AppendEncode(nil, &a), &b)
	newText := asm.AppendEncode(asm.AppendEncode(nil, &a2), &b2)
	na := asm.EncodedLen(&a)
	for i := range oldText {
		if oldText[i] != newText[i] && (i < na-4 || i >= na+4) {
			t.Fatalf("encodings differ at byte %d, outside the 8-byte window", i)
		}
	}
	boundary := e.Layout.CodeBase + enclave.PageSize
	if f := e.Mem.Write(boundary-uint64(na), oldText); f != nil {
		t.Fatal(f)
	}
	c := New(e, Config{})
	for _, addr := range []uint64{boundary - uint64(na), boundary} {
		if _, f, err := c.decode(addr); f != nil || err != nil {
			t.Fatalf("warming %#x: %v %v", addr, f, err)
		}
	}
	var word [8]byte
	copy(word[:], newText[na-4:na+4])
	if f := e.Mem.Write64(boundary-4, binary.LittleEndian.Uint64(word[:])); f != nil {
		t.Fatal(f)
	}
	for addr, want := range map[uint64]isa.Inst{boundary - uint64(na): a2, boundary: b2} {
		ci, f, err := c.decode(addr)
		if f != nil || err != nil || ci.inst.Imm != want.Imm || ci.inst.Dst != want.Dst {
			t.Errorf("decode(%#x) after the straddling write = %+v (%v, %v); want imm %#x", addr, ci.inst, f, err, want.Imm)
		}
	}
}

// decode returns the table entry for the instruction at addr, first
// dropping the table if code may have changed since it was filled.
func (c *CPU) decode(addr uint64) (*entry, *enclave.Fault, error) {
	c.sync()
	i, f, err := c.lookup(addr)
	if i == 0 {
		return nil, f, err
	}
	return &c.table[i-1], nil, nil
}
