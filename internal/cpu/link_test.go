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

	// Gas and an AEX exactly at a stretch's end, and inside one. On
	// callLoop's first pass every instruction ends a stretch: its links are
	// unresolved, and F's ret, the 4th instruction, leads to sub, not
	// decoded yet. Later passes run as one stretch through call and ret,
	// whose target the index then holds: 298 and 304 are counts just after
	// a ret, 301 is not. Each run must stop or exit where a Step loop does.
	prog := callLoop(100)
	sub := offsets(prog)[2]
	for _, at := range []uint64{4, 298, 301, 304} {
		for _, aex := range []bool{false, true} {
			var cpus [2]*CPU
			for k := range cpus {
				cfg := Config{Gas: at}
				if aex {
					cfg = Config{AEXInterval: 1000}
				}
				c, _ := load(t, cfg, prog...)
				if aex {
					c.nextAEX = at
				}
				if k == 0 {
					c.Run()
				} else {
					for !c.done {
						c.Step()
					}
				}
				cpus[k] = c
			}
			checkSameRun(t, cpus[0], cpus[1], nil, nil)
			r, _ := cpus[0].Result()
			base := cpus[0].Layout.CodeBase
			if at%6 != 4 {
				continue
			}
			if aex {
				rip, _ := cpus[0].Mem.Read64(cpus[0].Layout.SSARIPAddr())
				if r.Status != StatusHalt || r.AEXCount != 1 || rip != base+sub {
					t.Errorf("AEX at %d: %v, %d AEXes, saved rip=+%#x; want halt after one AEX at +%#x", at, r, r.AEXCount, rip-base, sub)
				}
			} else if r.Trap != isa.TrapOutOfGas || r.Insts != at || r.ExitValue != int64(at+2)/6 || cpus[0].RIP != base+sub {
				t.Errorf("gas %d: %v, rax=%d, rip=+%#x; want out of gas after %d calls at +%#x", at, r, r.ExitValue, cpus[0].RIP-base, (at+2)/6, sub)
			}
		}
	}
}

func TestFaultsMidStretch(t *testing.T) {
	// A loop whose first pass links op and whose second pass, after
	// mov reg, bad, reaches it in the middle of a stretch (jg, add, op) and
	// faults there. Run must stop where a Step loop stops: same result,
	// counters, cycles, registers, RIP and memory.
	l := fuzzLayout
	readOnly := l.BrTableBase + 0x100
	for _, tc := range []struct {
		name      string
		op        isa.Inst
		reg       isa.Reg
		good, bad uint64
		status    Status
		trap      isa.TrapCode
	}{
		{"load", isa.Inst{Op: isa.OpMovRM, Dst: isa.RBX, Mem: isa.Mem(isa.RDX, 0)}, isa.RDX, l.HeapBase, 8, StatusFault, isa.TrapPageFault},
		{"byte load", isa.Inst{Op: isa.OpMovBRM, Dst: isa.RBX, Mem: isa.Mem(isa.RDX, 0)}, isa.RDX, l.HeapBase, 8, StatusFault, isa.TrapPageFault},
		{"store immediate", isa.Inst{Op: isa.OpMovMI, Mem: isa.Mem(isa.RDX, 0), Imm: 7}, isa.RDX, l.HeapBase, readOnly, StatusFault, isa.TrapPageFault},
		{"pop", isa.Inst{Op: isa.OpPop, Dst: isa.RBX}, isa.RSP, l.StackHi - 64, 8, StatusTrap, isa.TrapStackOverflow},
		{"indirect call", isa.Inst{Op: isa.OpCallR, Dst: isa.R13}, isa.RSP, l.StackHi - 64, readOnly, StatusTrap, isa.TrapStackOverflow},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog := []isa.Inst{
				{Op: isa.OpMovRI, Dst: tc.reg, Imm: int64(tc.good)},
				{Op: isa.OpMovRI, Dst: isa.RCX, Imm: 2},
				{Op: isa.OpMovRI, Dst: isa.R13},         // the address of F
				{Op: isa.OpAddRI, Dst: isa.RAX, Imm: 1}, // L
				tc.op,
				{Op: isa.OpMovRI, Dst: tc.reg, Imm: int64(tc.bad)},
				{Op: isa.OpSubRI, Dst: isa.RCX, Imm: 1},
				{Op: isa.OpCmpRI, Dst: isa.RCX, Imm: 0},
				{Op: isa.OpJcc, Cond: isa.CondG},
				{Op: isa.OpHlt},
				{Op: isa.OpRet}, // F
			}
			offs := offsets(prog)
			prog[2].Imm = int64(l.CodeBase + offs[10])
			prog[8].Imm = rel(offs, 8, 3)
			var cpus [2]*CPU
			for k := range cpus {
				c := loadFused(t, Config{}, prog)
				if k == 0 {
					c.Run()
				} else {
					for !c.done {
						c.Step()
					}
				}
				cpus[k] = c
			}
			checkSameRun(t, cpus[0], cpus[1], nil, nil)
			// Three set-up instructions, a pass of six, then add and op;
			// the indirect call's pass runs F's ret too.
			want := uint64(3 + 6 + 2)
			if tc.op.Op == isa.OpCallR {
				want++
			}
			r, _ := cpus[0].Result()
			if r.Status != tc.status || r.Trap != tc.trap || r.Insts != want || cpus[0].RIP != l.CodeBase+offs[4] {
				t.Errorf("%v at rip=+%#x, want %v/%v after %d instructions at +%#x", r, cpus[0].RIP-l.CodeBase, tc.status, tc.trap, want, offs[4])
			}
		})
	}
}

func TestAEXFault(t *testing.T) {
	// An AEX whose save area is not writable faults the CPU before the
	// instruction it interrupts, under Run as in a Step loop.
	var cpus [2]*CPU
	for k := range cpus {
		c, e := load(t, Config{AEXInterval: 40, AEXSeed: 3}, countdown(1000)...)
		ssa := e.Layout.SSABase
		if err := e.Mem.SetPerm(ssa, ssa+enclave.PageSize, enclave.PermR); err != nil {
			t.Fatal(err)
		}
		if k == 0 {
			c.Run()
		} else {
			for !c.done {
				c.Step()
			}
		}
		cpus[k] = c
	}
	checkSameRun(t, cpus[0], cpus[1], nil, nil)
	if r, _ := cpus[0].Result(); r.Status != StatusFault || r.AEXCount != 0 || r.Insts < 30 || r.Insts > 50 {
		t.Errorf("result %v after %d AEXes, want a fault at the first AEX", r, r.AEXCount)
	}
}

// callLoop is mov rcx, n; L: call F; sub rcx, 1; cmp rcx, 0; jg L; hlt;
// F: add rax, 1; ret.
func callLoop(n int64) []isa.Inst {
	prog := []isa.Inst{
		{Op: isa.OpMovRI, Dst: isa.RCX, Imm: n},
		{Op: isa.OpCall},
		{Op: isa.OpSubRI, Dst: isa.RCX, Imm: 1},
		{Op: isa.OpCmpRI, Dst: isa.RCX, Imm: 0},
		{Op: isa.OpJcc, Cond: isa.CondG},
		{Op: isa.OpHlt},
		{Op: isa.OpAddRI, Dst: isa.RAX, Imm: 1},
		{Op: isa.OpRet},
	}
	offs := offsets(prog)
	prog[1].Imm = rel(offs, 1, 6)
	prog[4].Imm = rel(offs, 4, 1)
	return prog
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
