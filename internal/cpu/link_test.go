package cpu

import (
	"encoding/binary"
	"runtime"
	"testing"

	"deflection/internal/asm"
	"deflection/internal/enclave"
	"deflection/internal/isa"
)

// offsets returns the byte offset of each instruction of prog laid out
// back to back, plus the total length as a final element.
func offsets(prog []isa.Inst) []uint64 {
	offs := make([]uint64, len(prog)+1)
	for i := range prog {
		offs[i+1] = offs[i] + uint64(asm.EncodedLen(&prog[i]))
	}
	return offs
}

// rel returns the rel32 immediate of a branch at instruction from that
// lands on instruction to.
func rel(offs []uint64, from, to int) int64 {
	return int64(offs[to]) - int64(offs[from+1])
}

// entryAt returns the table entry decoded at addr, or nil.
func entryAt(c *CPU, addr uint64) *entry {
	for i := range c.table {
		if c.table[i].addr == addr {
			return &c.table[i]
		}
	}
	return nil
}

func TestRIPWriteAfterWarmupIgnoresLink(t *testing.T) {
	// L: add rax, 1; jmp L; M: add rcx, 1; hlt. After the loop is linked,
	// RIP is moved to M between Steps: the next Step must run M, not the
	// jmp's memoised target L.
	prog := []isa.Inst{
		{Op: isa.OpAddRI, Dst: isa.RAX, Imm: 1},
		{Op: isa.OpJmp},
		{Op: isa.OpAddRI, Dst: isa.RCX, Imm: 1},
		{Op: isa.OpHlt},
	}
	offs := offsets(prog)
	prog[1].Imm = rel(offs, 1, 0)
	var trace []uint64
	c, e := load(t, Config{Trace: func(rip uint64, _ isa.Inst) { trace = append(trace, rip) }}, prog...)
	base := e.Layout.CodeBase
	for i := 0; i < 20; i++ {
		c.Step()
	}
	if jmp := entryAt(c, base+offs[1]); jmp == nil || jmp.taken == 0 || c.cur != jmp.taken {
		t.Fatalf("loop not linked after warm-up: jmp = %+v, cur = %d", jmp, c.cur)
	}
	c.RIP = base + offs[2]
	c.Step()
	if c.Regs[isa.RCX] != 1 || c.Regs[isa.RAX] != 10 || trace[len(trace)-1] != base+offs[2] {
		t.Fatalf("after RIP write ran %#x (rax=%d rcx=%d), want M at %#x",
			trace[len(trace)-1], c.Regs[isa.RAX], c.Regs[isa.RCX], base+offs[2])
	}
	if r := c.Run(); r.Status != StatusHalt || r.Insts != 22 {
		t.Fatalf("result = %v, want halt after 22 insts", r)
	}
}

func TestStoreRewritesLinkedBranchTarget(t *testing.T) {
	// jmp T is linked on the first iterations; the fourth rewrites T's
	// immediate from 1 to 100, and every later jmp must run the new code.
	prog := []isa.Inst{
		{Op: isa.OpMovRI, Dst: isa.RBX},                           // 0: rbx = &T
		{Op: isa.OpMovRI, Dst: isa.RDX},                           // 1: rdx = first word of "add rax, 100"
		{Op: isa.OpAddRI, Dst: isa.RCX, Imm: 1},                   // 2: loop
		{Op: isa.OpCmpRI, Dst: isa.RCX, Imm: 4},                   // 3
		{Op: isa.OpJcc, Cond: isa.CondNE},                         // 4: jne go
		{Op: isa.OpMovMR, Src: isa.RDX, Mem: isa.Mem(isa.RBX, 0)}, // 5: rewrite T
		{Op: isa.OpJmp},                                           // 6: go: jmp T
		{Op: isa.OpAddRI, Dst: isa.RAX, Imm: 1},                   // 7: T
		{Op: isa.OpCmpRI, Dst: isa.RCX, Imm: 6},                   // 8
		{Op: isa.OpJcc, Cond: isa.CondL},                          // 9: jl loop
		{Op: isa.OpHlt},                                           // 10
	}
	offs := offsets(prog)
	prog[4].Imm = rel(offs, 4, 6)
	prog[6].Imm = rel(offs, 6, 7)
	prog[9].Imm = rel(offs, 9, 2)
	patched := asm.AppendEncode(nil, &isa.Inst{Op: isa.OpAddRI, Dst: isa.RAX, Imm: 100})
	prog[1].Imm = int64(binary.LittleEndian.Uint64(patched))
	c, e := load(t, Config{}, prog...)
	base := e.Layout.CodeBase
	prog[0].Imm = int64(base + offs[7])
	if f := e.Mem.Write(base, asm.AppendEncode(nil, &prog[0])); f != nil {
		t.Fatal(f)
	}
	for c.RIP != base+offs[5] {
		c.Step()
	}
	if jmp := entryAt(c, base+offs[6]); jmp == nil || jmp.taken == 0 {
		t.Fatalf("jmp T not linked before the rewrite: %+v", jmp)
	}
	r := c.Run()
	if r.Status != StatusHalt || r.ExitValue != 3+3*100 {
		t.Fatalf("result = %v, want exit %d: the rewritten target must run", r, 3+3*100)
	}
}

func TestSetPermRemovesXFromLinkedTarget(t *testing.T) {
	// loop: ocall 0; call T; jmp loop — T lives on the next code page. The
	// third OCall makes that page non-executable after call T is linked;
	// the following call must fault at T exactly as an unlinked fetch does.
	loop := []isa.Inst{
		{Op: isa.OpOcall},
		{Op: isa.OpCall},
		{Op: isa.OpJmp},
	}
	offs := offsets(loop)
	loop[2].Imm = rel(offs, 2, 0)
	var calls int
	var warmed bool
	cfg := Config{Ocall: func(c *CPU, _ int64) (isa.TrapCode, error) {
		if calls++; calls == 3 {
			lo := c.Layout.CodeBase + enclave.PageSize
			warmed = entryAt(c, c.Layout.CodeBase+offs[1]).taken != 0
			if err := c.Mem.SetPerm(lo, lo+enclave.PageSize, enclave.PermRW); err != nil {
				return 0, err
			}
		}
		return isa.TrapNone, nil
	}}
	c, e := load(t, cfg, loop...)
	target := e.Layout.CodeBase + enclave.PageSize
	loop[1].Imm = int64(target - (e.Layout.CodeBase + offs[2]))
	if f := e.Mem.Write(e.Layout.CodeBase+offs[1], asm.AppendEncode(nil, &loop[1])); f != nil {
		t.Fatal(f)
	}
	var body []byte
	body = asm.AppendEncode(body, &isa.Inst{Op: isa.OpAddRI, Dst: isa.RAX, Imm: 1})
	body = asm.AppendEncode(body, &isa.Inst{Op: isa.OpRet})
	if f := e.Mem.Write(target, body); f != nil {
		t.Fatal(f)
	}
	r := c.Run()
	if !warmed {
		t.Fatal("call T was not linked when X was removed")
	}
	want := enclave.Fault{Addr: target, Access: enclave.AccessExec, Size: isa.MaxInstLen}
	if r.Status != StatusTrap || r.Trap != isa.TrapNonCanonical || r.Fault == nil || *r.Fault != want {
		t.Fatalf("result = %v (fault %+v), want trap on %+v", r, r.Fault, want)
	}
	if r.Insts != 12 || r.OcallCount != 3 || r.ExitValue != 2 {
		t.Errorf("insts=%d ocalls=%d rax=%d, want 12, 3, 2", r.Insts, r.OcallCount, r.ExitValue)
	}
}

// countdown is mov rcx, n; L: sub rcx, 1; cmp rcx, 0; jg L; hlt.
func countdown(n int64) []isa.Inst {
	prog := []isa.Inst{
		{Op: isa.OpMovRI, Dst: isa.RCX, Imm: n},
		{Op: isa.OpSubRI, Dst: isa.RCX, Imm: 1},
		{Op: isa.OpCmpRI, Dst: isa.RCX, Imm: 0},
		{Op: isa.OpJcc, Cond: isa.CondG},
		{Op: isa.OpHlt},
	}
	prog[3].Imm = rel(offsets(prog), 3, 1)
	return prog
}

func TestGasAndAEXOnLinkedInstructions(t *testing.T) {
	// Gas runs out and AEXes land in the middle of a linked loop. The
	// counts, the modelled cycles and the context saved by the last AEX are
	// pinned: following links must not move when either event happens.
	c, _ := load(t, Config{Gas: 2001, AEXInterval: 97, AEXSeed: 5}, countdown(100000)...)
	r := c.Run()
	if r.Status != StatusTrap || r.Trap != isa.TrapOutOfGas || r.Insts != 2001 || r.AEXCount != 21 ||
		r.Cycles != 147999.75 || c.Regs[isa.RCX] != 99333 {
		t.Fatalf("gas run = %v aex=%d cycles=%v rcx=%d, want out-of-gas at 2001 with 21 AEXes, 147999.75 cycles, rcx 99333",
			r, r.AEXCount, r.Cycles, c.Regs[isa.RCX])
	}

	c, e := load(t, Config{AEXInterval: 97, AEXSeed: 5}, countdown(5000)...)
	r = c.Run()
	if r.Status != StatusHalt || r.Insts != 15002 || r.AEXCount != 154 || r.Cycles != 1.08550125e+06 {
		t.Fatalf("full run = %v aex=%d cycles=%v, want halt at 15002 with 154 AEXes, 1.08550125e+06 cycles",
			r, r.AEXCount, r.Cycles)
	}
	rip, _ := e.Mem.Read64(e.Layout.SSARIPAddr())
	rcx, _ := e.Mem.Read64(e.Layout.SSARegAddr(int(isa.RCX)))
	if rip-e.Layout.CodeBase != 0x1e || rcx != 14 {
		t.Errorf("last AEX saved rip=+%#x rcx=%d, want +0x1e and 14", rip-e.Layout.CodeBase, rcx)
	}
}

func TestIndexBoundedNearWindowEdge(t *testing.T) {
	// One instruction near the end of the index window must not allocate
	// more than the capped per-byte index; one beyond it uses the far map.
	e, err := enclave.New(enclave.PaperConfig(), []byte("cpu-test"))
	if err != nil {
		t.Fatal(err)
	}
	limit := uint64(4*icacheCap + 1<<20)
	for _, tc := range []struct {
		off   uint64
		limit uint64
	}{
		{icacheCap - 16, limit},
		{icacheCap + 16, 1 << 20},
	} {
		addr := e.Layout.CodeBase + tc.off
		if f := e.Mem.Write(addr, asm.AppendEncode(nil, &isa.Inst{Op: isa.OpHlt})); f != nil {
			t.Fatal(f)
		}
		c := New(e, Config{})
		c.RIP = addr
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c.Step()
		runtime.ReadMemStats(&after)
		if r, _ := c.Result(); r.Status != StatusHalt {
			t.Fatalf("hlt at +%#x: %v", tc.off, r)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > tc.limit {
			t.Errorf("one instruction at CodeBase+%#x allocated %d bytes, limit %d", tc.off, got, tc.limit)
		}
	}
}
