package cpu

import (
	"math"
	"reflect"
	"testing"

	"deflection/internal/asm"
	"deflection/internal/compiler"
	"deflection/internal/dclib"
	"deflection/internal/disasm"
	"deflection/internal/enclave"
	"deflection/internal/isa"
	"deflection/internal/loader"
	"deflection/internal/policy"
)

// instance returns template t filled from anchor as a loaded binary holds
// it in an enclave of layout l: the loader's magic values rewritten, every
// local branch landing on the last instruction and every trap branch on
// the instruction after the template (callers retarget them).
func instance(t policy.Template, anchor isa.Inst, l enclave.Layout) []isa.Inst {
	imm := map[int64]uint64{
		policy.MagicStoreLo: l.StoreLo(), policy.MagicStoreHi: l.StoreHi(),
		policy.MagicStackLo: l.StackLo, policy.MagicStackHi: l.StackHi,
	}
	disp := map[int32]uint64{
		policy.MagicSSAMarkerDisp: l.SSAMarkerAddr(),
		policy.MagicAEXCountDisp:  l.AEXCountAddr(),
	}
	steps := t.Steps()
	insts := make([]isa.Inst, len(steps))
	for k := range steps {
		in := steps[k].With(&anchor)
		if v, ok := imm[in.Imm]; ok {
			in.Imm = int64(v)
		}
		if v, ok := disp[in.Mem.Disp]; ok && !in.Mem.HasBase {
			in.Mem.Disp = int32(v)
		}
		insts[k] = in
	}
	last := len(insts) - 1
	for k := range steps {
		if steps[k].Local {
			for j := k + 1; j < last; j++ {
				insts[k].Imm += int64(asm.EncodedLen(&insts[j]))
			}
		}
	}
	return insts
}

// trapTo points every trap branch of the template instance at
// prog[at:at+len(steps)] to the instruction prog[to].
func trapTo(prog []isa.Inst, t policy.Template, at, to int) {
	offs := offsets(prog)
	for k, s := range t.Steps() {
		if s.Trap != isa.TrapNone {
			prog[at+k].Imm = rel(offs, at+k, to)
		}
	}
}

// loadFused lays prog out at the code base of a fresh fuzzConfig enclave
// with the SSA marker armed, and returns a CPU at its first instruction,
// with RSP at the top of the stack and RBX at the heap. That instruction
// is already decoded and linked, so that Run's loop can fuse there at once.
func loadFused(t *testing.T, cfg Config, prog []isa.Inst) *CPU {
	t.Helper()
	e, err := enclave.New(fuzzConfig, []byte("cpu-fuse"))
	if err != nil {
		t.Fatal(err)
	}
	var text []byte
	for k := range prog {
		text = asm.AppendEncode(text, &prog[k])
	}
	if f := e.Mem.Write(e.Layout.CodeBase, text); f != nil {
		t.Fatal(f)
	}
	if f := e.Mem.Write64(e.Layout.SSAMarkerAddr(), policy.SSAMarkerMagic); f != nil {
		t.Fatal(f)
	}
	c := New(e, cfg)
	c.RIP = e.Layout.CodeBase
	c.Regs[isa.RSP] = e.Layout.StackHi
	c.Regs[isa.RBX] = e.Layout.HeapBase
	c.cur, _, _ = c.lookup(c.RIP)
	return c
}

// fused runs the annotation template at RIP as one handler, as Run's loop
// does at an anchor, and reports true, if one was recognised there and its
// handler applies.
func (c *CPU) fused() bool {
	if i := c.linked(); i != 0 {
		if e := &c.table[i-1]; e.fused != 0 {
			return c.runFused(e, c.bound(math.MaxUint64))
		}
	}
	return false
}

// runCounting runs c to the end as Run does and returns how many times a
// fused handler ran.
func runCounting(c *CPU) int {
	n := 0
	for !c.done {
		if c.fused() {
			n++
		} else {
			c.Step()
		}
	}
	return n
}

// checkSameRun requires two finished CPUs, with their retired streams, to
// agree on the result, registers, flags and memory.
func checkSameRun(t *testing.T, got, want *CPU, gotTr, wantTr []traced) {
	t.Helper()
	gr, _ := got.Result()
	wr, _ := want.Result()
	if !reflect.DeepEqual(gr, wr) {
		t.Fatalf("result %v, Step loop %v", gr, wr)
	}
	if !reflect.DeepEqual(gotTr, wantTr) {
		t.Fatalf("retired %d instructions, Step loop %d, or a different stream", len(gotTr), len(wantTr))
	}
	if got.Regs != want.Regs || got.RIP != want.RIP || got.flagZ != want.flagZ || got.flagL != want.flagL || got.flagB != want.flagB {
		t.Fatalf("final rip=%#x %v, Step loop rip=%#x %v", got.RIP, got.Regs, want.RIP, want.Regs)
	}
	if !sameMemory(got.Mem, want.Mem) {
		t.Fatal("final memory differs from the Step loop")
	}
}

func TestFusedTemplatesMatchStepLoop(t *testing.T) {
	l := fuzzLayout
	heapStore := isa.Inst{Op: isa.OpMovMR, Src: isa.RCX, Mem: isa.Mem(isa.RBX, 8)}
	cases := []struct {
		name  string
		tmpl  policy.Template
		store *isa.Inst // the store the template guards, if any
		setup func(c *CPU)
		fused int
		want  Result
	}{
		{"aex-check intact", policy.AEXCheck, nil, nil, 1, Result{Status: StatusHalt, ExitValue: 7}},
		{"aex-check marker clobbered", policy.AEXCheck, nil, func(c *CPU) {
			c.Mem.Write64(l.SSAMarkerAddr(), 0)
		}, 0, Result{Status: StatusHalt, ExitValue: 7}},
		{"aex-check over threshold", policy.AEXCheck, nil, func(c *CPU) {
			c.Mem.Write64(l.SSAMarkerAddr(), 0)
			c.Mem.Write64(l.AEXCountAddr(), 3)
		}, 0, Result{Status: StatusTrap, Trap: isa.TrapAEXBudget, ExitValue: 4}},
		{"aex-check push over marker", policy.AEXCheck, nil, func(c *CPU) {
			c.Regs[isa.RSP] = l.SSAMarkerAddr() + 8
		}, 0, Result{Status: StatusHalt, ExitValue: int64(policy.SSAMarkerMagic)}},
		{"aex-check push on code page", policy.AEXCheck, nil, func(c *CPU) {
			c.Regs[isa.RSP] = l.CodeBase + 0x7000
		}, 0, Result{Status: StatusHalt, ExitValue: 7}},
		{"aex-check push on read-only page", policy.AEXCheck, nil, func(c *CPU) {
			c.Regs[isa.RSP] = l.BrTableBase + 0x100
		}, 0, Result{Status: StatusTrap, Trap: isa.TrapStackOverflow, ExitValue: 7}},
		{"aex-check gas inside", policy.AEXCheck, nil, func(c *CPU) {
			c.cfg.Gas = c.insts + 4
		}, 0, Result{Status: StatusTrap, Trap: isa.TrapOutOfGas, ExitValue: int64(policy.SSAMarkerMagic)}},
		{"aex-check gas at end", policy.AEXCheck, nil, func(c *CPU) {
			c.cfg.Gas = c.insts + 5
		}, 1, Result{Status: StatusTrap, Trap: isa.TrapOutOfGas, ExitValue: 7}},
		{"aex-check AEX inside", policy.AEXCheck, nil, func(c *CPU) {
			c.cfg.AEXInterval, c.nextAEX = 1000, c.insts+4
		}, 0, Result{Status: StatusHalt, ExitValue: 7}},
		{"aex-check AEX after", policy.AEXCheck, nil, func(c *CPU) {
			c.cfg.AEXInterval, c.nextAEX = 1000, c.insts+5
		}, 1, Result{Status: StatusHalt, ExitValue: 7}},
		{"store-guard intact", policy.StoreGuard, &heapStore, nil, 1, Result{Status: StatusHalt, ExitValue: 7}},
		{"store-guard rsp-based", policy.StoreGuard, &isa.Inst{Op: isa.OpMovMR, Src: isa.RCX, Mem: isa.Mem(isa.RSP, -8)}, nil,
			1, Result{Status: StatusHalt, ExitValue: 7}},
		{"store-guard rax-based", policy.StoreGuard, &isa.Inst{Op: isa.OpMovMR, Src: isa.RCX, Mem: isa.Mem(isa.RAX, 0)}, func(c *CPU) {
			c.Regs[isa.RAX] = l.HeapBase + 64
		}, 1, Result{Status: StatusHalt, ExitValue: int64(l.HeapBase + 64)}},
		{"store-guard below", policy.StoreGuard, &isa.Inst{Op: isa.OpMovMR, Src: isa.RCX, Mem: isa.Mem(isa.RAX, 0)}, nil,
			0, Result{Status: StatusTrap, Trap: isa.TrapStoreBounds, ExitValue: 7}},
		{"store-guard above", policy.StoreGuard, &isa.Inst{Op: isa.OpMovMR, Src: isa.RCX, Mem: isa.Mem(isa.RAX, 0)}, func(c *CPU) {
			c.Regs[isa.RAX] = l.StackHi
		}, 0, Result{Status: StatusTrap, Trap: isa.TrapStoreBounds, ExitValue: int64(l.StackHi)}},
		{"store-guard push on code page", policy.StoreGuard, &heapStore, func(c *CPU) {
			c.Regs[isa.RSP] = l.CodeBase + 0x7000
		}, 0, Result{Status: StatusHalt, ExitValue: 7}},
		{"store-guard push on read-only page", policy.StoreGuard, &heapStore, func(c *CPU) {
			c.Regs[isa.RSP] = l.BrTableBase + 0x100
		}, 0, Result{Status: StatusTrap, Trap: isa.TrapStackOverflow, ExitValue: 7}},
		{"store-guard rewritten after decoding", policy.StoreGuard, &heapStore, func(c *CPU) {
			// The lower bound raised to the top of the stack: the fused
			// record still holds the old one, but code changed.
			prog := instance(policy.StoreGuard, heapStore, l)
			in := prog[3]
			in.Imm = int64(l.StackHi)
			c.Mem.Write(l.CodeBase+offsets(prog)[3], asm.AppendEncode(nil, &in))
		}, 0, Result{Status: StatusTrap, Trap: isa.TrapStoreBounds, ExitValue: int64(l.HeapBase + 8)}},
		{"store-guard gas inside", policy.StoreGuard, &heapStore, func(c *CPU) {
			c.cfg.Gas = c.insts + 9
		}, 0, Result{Status: StatusTrap, Trap: isa.TrapOutOfGas, ExitValue: int64(l.HeapBase + 8)}},
		{"rsp-guard intact", policy.RSPGuard, nil, nil, 1, Result{Status: StatusHalt, ExitValue: 7}},
		{"rsp-guard below", policy.RSPGuard, nil, func(c *CPU) {
			c.Regs[isa.RSP] = l.StackLo - 8
		}, 0, Result{Status: StatusTrap, Trap: isa.TrapStackBounds, ExitValue: 7}},
		{"rsp-guard above", policy.RSPGuard, nil, func(c *CPU) {
			c.Regs[isa.RSP] = l.StackHi + 8
		}, 0, Result{Status: StatusTrap, Trap: isa.TrapStackBounds, ExitValue: 7}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The template (and its store), hlt, and the trap stub.
			anchor := isa.Inst{Imm: 2}
			if tc.store != nil {
				anchor = *tc.store
			}
			prog := instance(tc.tmpl, anchor, l)
			if tc.store != nil {
				prog = append(prog, *tc.store)
			}
			code := map[policy.Template]isa.TrapCode{
				policy.AEXCheck: isa.TrapAEXBudget, policy.StoreGuard: isa.TrapStoreBounds, policy.RSPGuard: isa.TrapStackBounds,
			}[tc.tmpl]
			prog = append(prog, isa.Inst{Op: isa.OpHlt}, isa.Inst{Op: isa.OpTrap, Imm: int64(code)})
			trapTo(prog, tc.tmpl, 0, len(prog)-1)

			var cpus [2]*CPU
			var trs [2][]traced
			fused := 0
			for i := range cpus {
				c := loadFused(t, Config{Trace: func(rip uint64, in isa.Inst) { trs[i] = append(trs[i], traced{rip, in}) }}, prog)
				c.Regs[isa.RSP] -= 64
				c.Regs[isa.RAX] = 7
				c.Regs[isa.RCX] = 5
				if tc.setup != nil {
					tc.setup(c)
				}
				if i == 0 {
					fused = runCounting(c)
				} else {
					for !c.done {
						c.Step()
					}
				}
				cpus[i] = c
			}
			checkSameRun(t, cpus[0], cpus[1], trs[0], trs[1])
			r, _ := cpus[0].Result()
			r.Insts, r.Cycles, r.AEXCount, r.Fault = 0, 0, 0, nil
			if r != tc.want {
				t.Errorf("result %v, want %v", r, tc.want)
			}
			if fused != tc.fused {
				t.Errorf("%d fused handlers ran, want %d", fused, tc.fused)
			}
		})
	}
}

func TestMutatedTemplatesNotFused(t *testing.T) {
	// Every field the CPU compares, mutated in every step of every fusable
	// template, leaves the anchor unfused; an immediate or a displacement,
	// which the loader rewrites, does not.
	store := isa.Inst{Op: isa.OpMovMR, Src: isa.RCX, Mem: isa.Mem(isa.RBX, 8)}
	fusedAt := func(prog []isa.Inst) bool {
		c := loadFused(t, Config{}, append(prog, isa.Inst{Op: isa.OpHlt}))
		return c.cur != 0 && c.table[c.cur-1].fused != 0
	}
	for _, tmpl := range fusable {
		steps := tmpl.Steps()
		intact := instance(tmpl, store, fuzzLayout)
		if !fusedAt(intact) {
			t.Fatalf("template %d: intact instance not fused", tmpl)
		}
		moved := append([]isa.Inst(nil), intact...)
		for k := range moved {
			if moved[k].Op.Format() == isa.FmtRI {
				moved[k].Imm ^= 0x10
			} else if moved[k].Op != isa.OpJcc {
				moved[k].Mem.Disp += 8
			}
		}
		if !fusedAt(moved) {
			t.Errorf("template %d: new immediates and displacements not fused", tmpl)
		}
		for k := range steps {
			for sel := byte(0); sel < 6; sel++ {
				prog := append([]isa.Inst(nil), intact...)
				if mutateStep(&prog[k], steps[k].Local, sel) {
					prog[k].Imm += 1
				}
				// The store guard's lea takes the store's whole operand.
				if prog[k] == intact[k] || steps[k].Fill == policy.FillStoreMem && prog[k].Mem != intact[k].Mem {
					continue
				}
				if fusedAt(prog) {
					t.Errorf("template %d step %d mutated to %v: fused", tmpl, k, prog[k])
				}
			}
		}
	}
}

func TestStepAtFusedAnchorRetiresOne(t *testing.T) {
	// A counted loop around an AEX check. Once the check is linked and
	// fused, a Step at its anchor still retires exactly its push, and Run
	// from there finishes like a Step loop.
	l := fuzzLayout
	prog := instance(policy.AEXCheck, isa.Inst{Imm: 2}, l)
	prog = append(prog,
		isa.Inst{Op: isa.OpSubRI, Dst: isa.RCX, Imm: 1},
		isa.Inst{Op: isa.OpCmpRI, Dst: isa.RCX, Imm: 0},
		isa.Inst{Op: isa.OpJcc, Cond: isa.CondG},
		isa.Inst{Op: isa.OpHlt},
		isa.Inst{Op: isa.OpTrap, Imm: int64(isa.TrapAEXBudget)})
	trapTo(prog, policy.AEXCheck, 0, len(prog)-1)
	offs := offsets(prog)
	prog[len(prog)-3].Imm = rel(offs, len(prog)-3, 0)
	c := loadFused(t, Config{}, prog)
	base := c.RIP
	c.Regs[isa.RCX] = 100
	for c.Regs[isa.RCX] > 90 || c.RIP != base {
		if !c.fused() {
			c.Step()
		}
	}
	if c.RIP != base || c.cur == 0 || c.table[c.cur-1].fused == 0 {
		t.Fatalf("loop head not linked to a fused anchor: rip=%#x cur=%d", c.RIP, c.cur)
	}
	insts, rsp := c.Insts(), c.Regs[isa.RSP]
	c.Step()
	if c.Insts() != insts+1 || c.RIP != base+offs[1] || c.Regs[isa.RSP] != rsp-8 {
		t.Fatalf("Step at the anchor retired %d instructions to rip=+%#x rsp=%#x, want 1 to +%#x rsp=%#x",
			c.Insts()-insts, c.RIP-base, c.Regs[isa.RSP], offs[1], rsp-8)
	}
	if r := c.Run(); r.Status != StatusHalt || r.Insts != 100*8+1 {
		t.Fatalf("Run = %v, want halt after %d instructions", r, 100*8+1)
	}
}

func TestCompiledTemplatesFuse(t *testing.T) {
	// A compiled, loaded and rewritten P1-P6 program: every fusable
	// template recognised and run as one handler, most of its annotation
	// work fused, and Run's loop agreeing with a Step loop.
	src := `
int arr[256];
int sum(int n) {
	int s = 0;
	for (int i = 0; i < n; i++) s += arr[i];
	return s;
}
int main() {
	srand(7);
	int check = 0;
	for (int it = 0; it < 5; it++) {
		for (int i = 0; i < 256; i++) arr[i] = rand31() % 1000;
		check = (check + sum(256)) % 1000003;
	}
	return check;
}`
	o, err := compiler.Compile(dclib.Program(src), compiler.Options{Policies: policy.SetP1P6})
	if err != nil {
		t.Fatal(err)
	}
	var cpus [2]*CPU
	var trs [2][]traced
	byTmpl := map[policy.Template]int{}
	fusedInsts := 0
	for i := range cpus {
		e, err := enclave.New(enclave.DefaultConfig(), []byte("cpu-compiled"))
		if err != nil {
			t.Fatal(err)
		}
		ld, err := loader.Load(e.Layout, o)
		if err != nil {
			t.Fatal(err)
		}
		entries := []int64{int64(ld.Entry - ld.TextBase)}
		for _, b := range ld.BranchTargets {
			entries = append(entries, int64(b-ld.TextBase))
		}
		dis, err := disasm.Disassemble(ld.Text, entries)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := loader.RewriteImmediates(ld, dis); err != nil {
			t.Fatal(err)
		}
		// Install the rewritten text and the data; the program takes no
		// function's address, so its branch table is empty.
		if len(ld.Table) != 0 {
			t.Fatalf("program has a %d-byte branch table", len(ld.Table))
		}
		if f := e.Mem.Write(ld.TextBase, ld.Text); f != nil {
			t.Fatal(f)
		}
		if len(ld.Data) > 0 {
			if f := e.Mem.Write(ld.DataBase, ld.Data); f != nil {
				t.Fatal(f)
			}
		}
		c := New(e, Config{AEXInterval: 400_000, AEXSeed: 1,
			Trace: func(rip uint64, in isa.Inst) { trs[i] = append(trs[i], traced{rip, in}) }})
		c.RIP = ld.Entry
		c.Regs[isa.RSP] = e.Layout.StackHi
		c.Regs[isa.RegShadow] = e.Layout.ShadowBase
		if i == 0 {
			for !c.done {
				j := c.cur
				if !c.fused() {
					c.Step()
					continue
				}
				f := &c.fusions[c.table[j-1].fused-1]
				byTmpl[f.tmpl]++
				fusedInsts += int(f.n)
			}
		} else {
			for !c.done {
				c.Step()
			}
		}
		cpus[i] = c
	}
	checkSameRun(t, cpus[0], cpus[1], trs[0], trs[1])
	r, _ := cpus[0].Result()
	if r.Status != StatusHalt {
		t.Fatalf("run = %v", r)
	}
	for _, tmpl := range fusable {
		if byTmpl[tmpl] == 0 {
			t.Errorf("template %d never ran fused", tmpl)
		}
	}
	if share := float64(fusedInsts) / float64(r.Insts); share < 0.3 {
		t.Errorf("fused handlers retired %.1f%% of %d instructions, want at least 30%%", 100*share, r.Insts)
	}
	t.Logf("%d instructions, %.1f%% retired by fused handlers %v", r.Insts, 100*float64(fusedInsts)/float64(r.Insts), byTmpl)
}

func TestFusedCyclesBitIdentical(t *testing.T) {
	// A counted loop of an AEX check and a guarded store, run through Run's
	// loop in lockstep with a Step loop: after every pass the modelled
	// cycles must agree to the bit. Under the default timing model a
	// handler adds its path's total cost in one step. The other cases must
	// take the per-instruction additions, and each would fail without its
	// guard: costs off the 2^-10 grid (from 5 cycles), a running count off
	// it (1/7) and a count too large (2^50). In the first two, adding the
	// first AEX check's total in one step rounds differently.
	l := fuzzLayout
	store := isa.Inst{Op: isa.OpMovMR, Src: isa.RCX, Mem: isa.Mem(isa.RBX, 8)}
	prog := instance(policy.AEXCheck, isa.Inst{Imm: 2}, l)
	sg := len(prog)
	prog = append(prog, instance(policy.StoreGuard, store, l)...)
	prog = append(prog, store,
		isa.Inst{Op: isa.OpSubRI, Dst: isa.RCX, Imm: 1},
		isa.Inst{Op: isa.OpCmpRI, Dst: isa.RCX, Imm: 0},
		isa.Inst{Op: isa.OpJcc, Cond: isa.CondG},
		isa.Inst{Op: isa.OpHlt},
		isa.Inst{Op: isa.OpTrap, Imm: int64(isa.TrapAEXBudget)},
		isa.Inst{Op: isa.OpTrap, Imm: int64(isa.TrapStoreBounds)})
	trapTo(prog, policy.AEXCheck, 0, len(prog)-2)
	trapTo(prog, policy.StoreGuard, sg, len(prog)-1)
	offs := offsets(prog)
	prog[len(prog)-4].Imm = rel(offs, len(prog)-4, 0)
	annot := NewRangeSet([]Range{{Lo: l.CodeBase, Hi: l.CodeBase + offs[sg+len(policy.StoreGuard.Steps())]}})
	for _, tc := range []struct {
		name  string
		cfg   Config
		start float64
	}{
		{"default", Config{}, 0},
		{"annotation ranges", Config{AnnotRanges: annot}, 0},
		{"odd timing", Config{Timing: oddTiming}, 5},
		{"odd start", Config{}, 1.0 / 7},
		{"large start", Config{AnnotRanges: annot}, 1 << 50},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run, ref := loadFused(t, tc.cfg, prog), loadFused(t, tc.cfg, prog)
			fused := 0
			for _, c := range []*CPU{run, ref} {
				c.Regs[isa.RCX] = 50
				c.AddCycles(tc.start)
			}
			for !run.done {
				if run.fused() {
					fused++
				} else {
					run.Step()
				}
				for ref.insts < run.insts {
					ref.Step()
				}
				if run.cycles != ref.cycles {
					t.Fatalf("after %d instructions: %v cycles, Step loop %v", run.insts, run.cycles, ref.cycles)
				}
			}
			checkSameRun(t, run, ref, nil, nil)
			if fused < 90 {
				t.Errorf("%d fused handlers ran, want at least 90", fused)
			}
		})
	}
}
