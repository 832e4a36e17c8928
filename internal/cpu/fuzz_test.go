package cpu

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"deflection/internal/asm"
	"deflection/internal/enclave"
	"deflection/internal/isa"
	"deflection/internal/policy"
)

// Registers of generated programs: fuzzRegs hold data; RBX points at the
// heap, R12 at the code, and R13 carries indirect-branch targets.
var fuzzRegs = [...]isa.Reg{isa.RAX, isa.RCX, isa.RDX, isa.RSI, isa.RDI}

// fuzzConfig is a small enclave, so that comparing whole memories stays
// cheap.
var fuzzConfig = enclave.Config{
	CodeCap: 32 << 10, BrTableCap: 4 << 10, ShadowCap: 4 << 10,
	StackCap: 16 << 10, HeapCap: 16 << 10, UntrustedCap: 4 << 10,
}

// fuzzLayout is the layout of every fuzzConfig enclave.
var fuzzLayout = func() enclave.Layout {
	e, err := enclave.New(fuzzConfig, nil)
	if err != nil {
		panic(err)
	}
	return e.Layout
}()

// fuzzProg is a generated program before layout. Branches, indirect-target
// moves and code stores name an instruction; encode patches in its offset.
type fuzzProg struct {
	insts []isa.Inst
	slot  []int // instruction index of each slot's first instruction
	dest  []int // per instruction: the instruction it refers to, or -1
}

// genProg turns data into a short program, one slot per three bytes (kind,
// a, b), ending in hlt. A slot is one or two instructions, or an
// annotation template as a loaded binary holds it, intact or with one of
// the fields the CPU matches mutated, or with operands that send single
// steps off the template's common path.
func genProg(data []byte) *fuzzProg {
	n := min(len(data)/3, 64)
	p := &fuzzProg{}
	// dest >= 0 names a slot, dest < -1 the instruction -2-dest.
	emit := func(in isa.Inst, dest int) {
		p.insts = append(p.insts, in)
		p.dest = append(p.dest, dest)
	}
	// tmpl emits template t filled from anchor: trap branches go to slot
	// target, a local branch to the last instruction (or, under the
	// mutation that retargets it, to target as well).
	tmpl := func(t policy.Template, anchor isa.Inst, mutate bool, sel byte, target int) {
		steps := t.Steps()
		insts := instance(t, anchor, fuzzLayout)
		retarget := false
		if mutate {
			k := int(sel) % len(insts)
			retarget = mutateStep(&insts[k], steps[k].Local, sel/16)
		}
		last := len(p.insts) + len(insts) - 1
		for k, in := range insts {
			switch {
			case steps[k].Trap != isa.TrapNone || steps[k].Local && retarget:
				emit(in, target)
			case steps[k].Local:
				emit(in, -2-last)
			default:
				emit(in, -1)
			}
		}
	}
	rr := []isa.Op{isa.OpAddRR, isa.OpSubRR, isa.OpAndRR, isa.OpOrRR, isa.OpXorRR, isa.OpShlRR, isa.OpImulRR, isa.OpCmpRR, isa.OpTestRR, isa.OpMovRR}
	ri := []isa.Op{isa.OpMovRI, isa.OpAddRI, isa.OpSubRI, isa.OpCmpRI, isa.OpXorRI, isa.OpShrRI, isa.OpSarRI, isa.OpImulRI}
	for s := 0; s < n; s++ {
		kind, a, b := data[3*s], data[3*s+1], data[3*s+2]
		p.slot = append(p.slot, len(p.insts))
		ra, rb := fuzzRegs[int(a)%len(fuzzRegs)], fuzzRegs[int(b)%len(fuzzRegs)]
		target := int(b) % n
		switch kind % 17 {
		case 0:
			emit(isa.Inst{Op: rr[int(a)%len(rr)], Dst: rb, Src: fuzzRegs[int(a/16)%len(fuzzRegs)]}, -1)
		case 1:
			emit(isa.Inst{Op: ri[int(a)%len(ri)], Dst: ra, Imm: int64(int8(b))}, -1)
		case 2:
			op := isa.OpMovRM
			if a&1 != 0 {
				op = isa.OpMovBRM
			}
			emit(isa.Inst{Op: op, Dst: ra, Mem: isa.Mem(isa.RBX, int32(b%32)*8)}, -1)
		case 3:
			if a&1 != 0 {
				emit(isa.Inst{Op: isa.OpMovMI, Mem: isa.Mem(isa.RBX, int32(b%32)*8), Imm: int64(a)}, -1)
			} else {
				emit(isa.Inst{Op: isa.OpMovMR, Src: ra, Mem: isa.Mem(isa.RBX, int32(b%32)*8)}, -1)
			}
		case 4:
			emit(isa.Inst{Op: isa.OpPush, Dst: ra}, -1)
		case 5:
			emit(isa.Inst{Op: isa.OpPop, Dst: ra}, -1)
		case 6:
			emit(isa.Inst{Op: isa.OpJmp}, target)
		case 7:
			emit(isa.Inst{Op: isa.OpJcc, Cond: isa.Cond(int(a)%10 + int(isa.CondE))}, target)
		case 8:
			emit(isa.Inst{Op: isa.OpCall}, target)
		case 9:
			emit(isa.Inst{Op: isa.OpRet}, -1)
		case 10:
			op := isa.OpJmpR
			if a&1 != 0 {
				op = isa.OpCallR
			}
			emit(isa.Inst{Op: isa.OpMovRI, Dst: isa.R13}, target)
			emit(isa.Inst{Op: op, Dst: isa.R13}, -1)
		case 11:
			// A store into the code: a byte or a word of ra over the
			// instruction at slot b, shifted by a.
			op := isa.OpMovMR
			if a&1 != 0 {
				op = isa.OpMovBMR
			}
			emit(isa.Inst{Op: op, Src: ra, Mem: isa.Mem(isa.R12, int32(a%8))}, target)
		case 12:
			emit(isa.Inst{Op: isa.OpOcall, Imm: int64(a % 8)}, -1)
		case 13:
			// An AEX check with a small threshold; one in eight reads a
			// heap word instead of the SSA marker.
			start := len(p.insts)
			tmpl(policy.AEXCheck, isa.Inst{Imm: int64(1 + a%4)}, b%8 == 0, a, target)
			if b%8 == 1 {
				heap := int32(fuzzLayout.HeapBase)
				p.insts[start+1].Mem.Disp, p.insts[start+7].Mem.Disp = heap, heap
			}
		case 14:
			// A store guard and its store, based on RSP, RAX or RBX; one
			// in four has bounds that trap on every address.
			base := [...]isa.Reg{isa.RSP, isa.RAX, isa.RBX}[a%3]
			store := isa.Inst{Op: isa.OpMovMR, Src: rb, Mem: isa.Mem(base, int32(b%8)*8)}
			start := len(p.insts)
			tmpl(policy.StoreGuard, store, a/4%4 == 0, b, target)
			if a/4%4 == 1 {
				p.insts[start+3].Imm, p.insts[start+6].Imm = p.insts[start+6].Imm, p.insts[start+3].Imm
			}
			emit(store, -1)
		case 15:
			// An RSP guard; one in four has bounds that exclude the stack.
			start := len(p.insts)
			tmpl(policy.RSPGuard, isa.Inst{}, b%4 == 0, a, target)
			if b%4 == 1 {
				p.insts[start].Imm = int64(fuzzLayout.StackHi)
			}
		case 16:
			// Move RSP over the program's own first instructions, to a
			// read-only page, over the SSA marker or back to the stack.
			sp := [...]uint64{
				fuzzLayout.CodeBase + 8 + uint64(b%8)*8,
				fuzzLayout.BrTableBase + 0x100,
				fuzzLayout.SSAMarkerAddr() + 8 + uint64(b%2)*8,
				fuzzLayout.StackHi - fuzzStack*8 - uint64(b%4)*8,
			}[a%4]
			emit(isa.Inst{Op: isa.OpMovRI, Dst: isa.RSP, Imm: int64(sp)}, -1)
		}
	}
	emit(isa.Inst{Op: isa.OpHlt}, -1)
	for i, d := range p.dest {
		switch {
		case d >= 0:
			p.dest[i] = p.slot[d]
		case d < -1:
			p.dest[i] = -2 - d
		}
	}
	return p
}

// swapOps maps a template opcode to another of the same format.
var swapOps = map[isa.Op]isa.Op{
	isa.OpPush: isa.OpPop, isa.OpPop: isa.OpPush, isa.OpLea: isa.OpMovRM, isa.OpMovRM: isa.OpLea,
	isa.OpMovRI: isa.OpAddRI, isa.OpAddRI: isa.OpSubRI, isa.OpSubRI: isa.OpAddRI,
	isa.OpCmpRR: isa.OpSubRR, isa.OpCmpRI: isa.OpSubRI, isa.OpMovMR: isa.OpMovBMR, isa.OpNot: isa.OpNeg,
}

// mutateStep changes one field of in that the CPU compares with the
// template table: the opcode, a register, the condition or the shape of
// the memory operand (sel picks which). For a local branch it may instead
// report that the branch is to be retargeted.
func mutateStep(in *isa.Inst, local bool, sel byte) bool {
	if in.Op == isa.OpJcc {
		if local && sel%2 == 1 {
			return true
		}
		in.Cond = isa.Cond(int(in.Cond)%10 + 1)
		return false
	}
	if op, ok := swapOps[in.Op]; ok && sel%3 == 0 {
		in.Op = op
		return false
	}
	switch f := in.Op.Format(); {
	case f == isa.FmtMI || sel%3 == 1 && (f == isa.FmtRM || f == isa.FmtMR):
		if in.Mem.HasBase {
			in.Mem.HasIndex, in.Mem.Index, in.Mem.Scale = true, isa.RCX, 1
		} else {
			in.Mem.HasBase, in.Mem.Base = true, isa.RBX
		}
	case f == isa.FmtMR:
		in.Src ^= 1
	default:
		in.Dst ^= 1
	}
	return false
}

// encode lays the program out at base and returns its text and the
// address of each slot.
func (p *fuzzProg) encode(base uint64) ([]byte, []uint64) {
	off := make([]uint64, len(p.insts)+1)
	for i := range p.insts {
		off[i+1] = off[i] + uint64(asm.EncodedLen(&p.insts[i]))
	}
	var text []byte
	for i := range p.insts {
		in := p.insts[i]
		if d := p.dest[i]; d >= 0 {
			to := off[d]
			switch in.Op {
			case isa.OpJmp, isa.OpJcc, isa.OpCall:
				in.Imm = int64(to) - int64(off[i+1])
			case isa.OpMovRI:
				in.Imm = int64(base + to)
			default: // code store
				in.Mem.Disp += int32(to)
			}
		}
		text = asm.AppendEncode(text, &in)
	}
	slots := make([]uint64, len(p.slot))
	for s, i := range p.slot {
		slots[s] = base + off[i]
	}
	return text, slots
}

// fuzzOcall returns the OCall handler of generated programs. The action is
// chosen by the index plus RCX, so one OCall may or may not change code:
// 0 re-sets the code page's permission (no semantic change, but a new code
// generation), 1 removes X from it, 2 writes RDX over the code at RCX, 3
// charges a tenth of a cycle (no multiple of a power of two) and the rest
// bump RAX.
func fuzzOcall(textLen uint64) OcallHandler {
	return func(c *CPU, idx int64) (isa.TrapCode, error) {
		page := c.Layout.CodeBase
		switch (uint64(idx) + c.Regs[isa.RCX]) % 8 {
		case 0:
			return isa.TrapNone, c.Mem.SetPerm(page, page+enclave.PageSize, enclave.PermRWX)
		case 1:
			return isa.TrapNone, c.Mem.SetPerm(page, page+enclave.PageSize, enclave.PermRW)
		case 2:
			c.Mem.Write64(page+c.Regs[isa.RCX]%textLen, c.Regs[isa.RDX])
		case 3:
			c.AddCycles(0.1)
		default:
			c.Regs[isa.RAX]++
		}
		return isa.TrapNone, nil
	}
}

type traced struct {
	rip uint64
	in  isa.Inst
}

// oddTiming is a timing model whose costs are not multiples of a power of
// two, so that modelled cycles round differently in another order of
// addition.
var oddTiming = TimingModel{
	MemCost: 3.1, StackCost: 0.7, BranchCost: 1.3, ALUCost: 0.3, FloatCost: 0.9,
	OcallCost: 801.7, AEXCost: 701.3, AnnotationCost: 0.1,
}

// fuzzStack is the number of slot addresses on the stack at entry, so
// that early pops and returns land in the program.
const fuzzStack = 32

// fuzzEnv is what happens to a generated program besides its own code:
// annot >= 0 declares 24 bytes at that text offset an annotation range;
// every bump-th instruction the code generation moves between Steps, as a
// sibling thread's code write does; every jump-th instruction RIP is moved
// between Steps to a slot. Zero disables either.
type fuzzEnv struct {
	annot      int
	bump, jump uint64
}

// next returns the first instruction count above n after which env acts,
// or the largest count if it never does.
func (env fuzzEnv) next(n uint64) uint64 {
	end := uint64(math.MaxUint64)
	for _, every := range [...]uint64{env.bump, env.jump} {
		if every != 0 {
			end = min(end, (n/every+1)*every)
		}
	}
	return end
}

// fuzzRun lays p out in a fresh enclave and executes it in env, stepping
// with step. It returns the retired-instruction stream, the result, the
// final CPU and the program text.
func fuzzRun(t *testing.T, p *fuzzProg, cfg Config, env fuzzEnv, step func(*CPU)) ([]traced, Result, *CPU, []byte) {
	e, err := enclave.New(fuzzConfig, []byte("cpu-fuzz"))
	if err != nil {
		t.Fatal(err)
	}
	if f := e.Mem.Write64(e.Layout.SSAMarkerAddr(), policy.SSAMarkerMagic); f != nil {
		t.Fatal(f)
	}
	base := e.Layout.CodeBase
	text, slots := p.encode(base)
	if f := e.Mem.Write(base, text); f != nil {
		t.Fatal(f)
	}
	sp := e.Layout.StackHi - fuzzStack*8
	for i := uint64(0); i < fuzzStack; i++ {
		if f := e.Mem.Write64(sp+8*i, slots[i*7%uint64(len(slots))]); f != nil {
			t.Fatal(f)
		}
	}
	if env.annot >= 0 {
		lo := base + uint64(env.annot%len(text))
		cfg.AnnotRanges = NewRangeSet([]Range{{Lo: lo, Hi: lo + 24}})
	}
	var tr []traced
	cfg.Trace = func(rip uint64, in isa.Inst) { tr = append(tr, traced{rip, in}) }
	cfg.Ocall = fuzzOcall(uint64(len(text)))
	c := New(e, cfg)
	c.RIP = base
	c.Regs[isa.RSP] = sp
	c.Regs[isa.RBX] = e.Layout.HeapBase
	c.Regs[isa.R12] = base
	for {
		step(c)
		if r, done := c.Result(); done {
			return tr, r, c, text
		}
		n := c.Insts()
		if env.bump != 0 && n%env.bump == 0 {
			if err := c.Mem.SetPerm(base, base+enclave.PageSize, c.Mem.PermAt(base)); err != nil {
				t.Fatal(err)
			}
		}
		if env.jump != 0 && n%env.jump == 0 {
			c.RIP = slots[n%uint64(len(slots))]
		}
	}
}

// refStep is the reference stepper: it drops every decoded instruction and
// link before each Step, so each instruction is fetched and decoded at RIP.
func refStep(c *CPU) {
	c.flush(c.Mem.CodeGen())
	c.Step()
}

// runStep returns Run's loop as a stepper, bounded at the next instruction
// count after which env acts: linked stretches and fused handlers stop
// there, so that env acts at the same points as under refStep.
func runStep(env fuzzEnv) func(*CPU) {
	return func(c *CPU) { c.RunUntil(env.next(c.insts)) }
}

// sameMemory reports whether a and b, of one layout, have the same page
// permissions and the same bytes in every readable page.
func sameMemory(a, b *enclave.Memory) bool {
	for pg := a.Base(); pg < a.End(); pg += enclave.PageSize {
		p := a.PermAt(pg)
		if p != b.PermAt(pg) {
			return false
		}
		if p&enclave.PermR == 0 {
			continue
		}
		ba, _ := a.Read(pg, enclave.PageSize)
		bb, _ := b.Read(pg, enclave.PageSize)
		if !bytes.Equal(ba, bb) {
			return false
		}
	}
	return true
}

// FuzzStep differentially checks the linked instruction table and the
// fused annotation handlers against the reference stepper on random
// programs that branch directly and indirectly, call and return, store
// into their own code, change code permissions from OCalls and run
// annotation templates, intact or not, with the stack anywhere: the
// retired (RIP, instruction) stream, the final registers and flags, the
// whole Result and the whole enclave memory must agree, for Step alone and
// for Run's loop, whose linked stretches and fused handlers run up to each
// count after which the environment acts.
func FuzzStep(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 24; i++ {
		seed := make([]byte, 4+3*(8+rng.Intn(40)))
		rng.Read(seed)
		f.Add(seed)
	}
	// A counted loop, a call/ret pair and a code store over the loop.
	f.Add([]byte{0, 0, 0, 1, 0, 100, 1, 2, 0xff, 7, 1, 2, 8, 0, 6, 9, 0, 0, 11, 0, 3, 12, 3, 0, 6, 0, 1, 9, 0, 0})
	// A loop of intact templates at a dense AEX cadence, then the stack
	// moved over the SSA marker and onto a code page.
	f.Add([]byte{40, 3, 8, 1, 1, 0, 100, 13, 0, 2, 14, 2, 3, 15, 0, 2, 14, 0, 4, 13, 5, 3, 1, 2, 0xff, 7, 1, 1,
		16, 2, 0, 13, 1, 2, 16, 0, 1, 14, 1, 2, 15, 2, 3})
	// Six passes of a counted loop (RSI) around an OCall whose action
	// moves with RCX, which grows by 3 a pass: the third pass's OCall
	// writes over the program's set-up text and the fifth's re-sets the
	// code page's permission, each in the middle of a linked stretch.
	f.Add([]byte{40, 0, 1, 1, 1, 8, 6, 1, 24, 0, 1, 1, 3, 1, 18, 1, 12, 1, 0, 1, 3, 0, 7, 4, 2})
	// A counted loop of push and pop, then the stack moved onto the
	// program's own text and the loop re-entered: the next push, in the
	// middle of a linked stretch, stores into the text.
	f.Add([]byte{40, 0, 1, 1, 1, 8, 3, 1, 25, 1, 4, 0, 0, 5, 1, 0, 1, 18, 1, 1, 3, 0, 7, 4, 1, 16, 0, 2, 6, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4+3 {
			return
		}
		cfg := Config{Gas: 256 + uint64(data[0])*8, AEXSeed: int64(data[1])}
		if data[2]%2 == 0 {
			cfg.AEXInterval = 4 + uint64(data[2]%64)
		}
		if data[3]%11 == 0 {
			cfg.Timing = oddTiming
		}
		env := fuzzEnv{annot: -1}
		if data[3]%3 == 0 {
			env.annot = int(data[3])
		}
		if data[3]%5 == 0 {
			env.bump = 3 + uint64(data[0]%32)
		}
		if data[3]%7 == 0 {
			env.jump = 5 + uint64(data[1]%32)
		}
		p := genProg(data[4:])
		wantTr, want, wc, _ := fuzzRun(t, p, cfg, env, refStep)
		for _, stepper := range []struct {
			name string
			step func(*CPU)
		}{{"Step", (*CPU).Step}, {"Run", runStep(env)}} {
			gotTr, got, gc, _ := fuzzRun(t, p, cfg, env, stepper.step)
			for i := range min(len(gotTr), len(wantTr)) {
				if gotTr[i] != wantTr[i] {
					t.Fatalf("%s: step %d: retired %#x %v, reference %#x %v", stepper.name, i, gotTr[i].rip, gotTr[i].in, wantTr[i].rip, wantTr[i].in)
				}
			}
			if len(gotTr) != len(wantTr) {
				t.Fatalf("%s: retired %d instructions, reference %d", stepper.name, len(gotTr), len(wantTr))
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: result %+v (fault %v), reference %+v (fault %v)", stepper.name, got, got.Fault, want, want.Fault)
			}
			if gc.Regs != wc.Regs || gc.RIP != wc.RIP || gc.flagZ != wc.flagZ || gc.flagL != wc.flagL || gc.flagB != wc.flagB {
				t.Fatalf("%s: final state rip=%#x %v, reference rip=%#x %v", stepper.name, gc.RIP, gc.Regs, wc.RIP, wc.Regs)
			}
			if !sameMemory(gc.Mem, wc.Mem) {
				t.Fatalf("%s: final enclave memory differs from the reference", stepper.name)
			}
		}
	})
}
