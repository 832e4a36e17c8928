package cpu

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"deflection/internal/enclave"
	"deflection/internal/isa"
)

// Registers of generated programs: fuzzRegs hold data; RBX points at the
// heap, R12 at the code, and R13 carries indirect-branch targets.
var fuzzRegs = [...]isa.Reg{isa.RAX, isa.RCX, isa.RDX, isa.RSI, isa.RDI}

// fuzzProg is a generated program before layout. Branches, indirect-target
// moves and code stores name a slot; encode patches in its offset.
type fuzzProg struct {
	insts []isa.Inst
	slot  []int // instruction index of each slot's first instruction
	dest  []int // per instruction: the slot it refers to, or -1
}

// genProg turns data into a short program, one slot of one or two
// instructions per three bytes (kind, a, b), ending in hlt.
func genProg(data []byte) *fuzzProg {
	n := min(len(data)/3, 64)
	p := &fuzzProg{}
	emit := func(in isa.Inst, dest int) {
		p.insts = append(p.insts, in)
		p.dest = append(p.dest, dest)
	}
	rr := []isa.Op{isa.OpAddRR, isa.OpSubRR, isa.OpAndRR, isa.OpOrRR, isa.OpXorRR, isa.OpShlRR, isa.OpImulRR, isa.OpCmpRR, isa.OpTestRR, isa.OpMovRR}
	ri := []isa.Op{isa.OpMovRI, isa.OpAddRI, isa.OpSubRI, isa.OpCmpRI, isa.OpXorRI, isa.OpShrRI, isa.OpSarRI, isa.OpImulRI}
	for s := 0; s < n; s++ {
		kind, a, b := data[3*s], data[3*s+1], data[3*s+2]
		p.slot = append(p.slot, len(p.insts))
		ra, rb := fuzzRegs[int(a)%len(fuzzRegs)], fuzzRegs[int(b)%len(fuzzRegs)]
		target := int(b) % n
		switch kind % 13 {
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
		}
	}
	emit(isa.Inst{Op: isa.OpHlt}, -1)
	return p
}

// encode lays the program out at base and returns its text and the
// address of each slot.
func (p *fuzzProg) encode(base uint64) ([]byte, []uint64) {
	off := make([]uint64, len(p.insts)+1)
	for i := range p.insts {
		off[i+1] = off[i] + uint64(isa.EncodedLen(&p.insts[i]))
	}
	var text []byte
	for i := range p.insts {
		in := p.insts[i]
		if d := p.dest[i]; d >= 0 {
			to := off[p.slot[d]]
			switch in.Op {
			case isa.OpJmp, isa.OpJcc, isa.OpCall:
				in.Imm = int64(to) - int64(off[i+1])
			case isa.OpMovRI:
				in.Imm = int64(base + to)
			default: // code store
				in.Mem.Disp += int32(to)
			}
		}
		text = isa.AppendEncode(text, &in)
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
// generation), 1 removes X from it, 2 writes RDX over the code at RCX, and
// the rest bump RAX.
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

// fuzzRun lays p out in a fresh enclave and executes it in env, stepping
// with step. It returns the retired-instruction stream, the result, the
// final CPU and the program text.
func fuzzRun(t *testing.T, p *fuzzProg, cfg Config, env fuzzEnv, step func(*CPU)) ([]traced, Result, *CPU, []byte) {
	e, err := enclave.New(enclave.DefaultConfig(), []byte("cpu-fuzz"))
	if err != nil {
		t.Fatal(err)
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

// FuzzStep differentially checks the linked instruction table against the
// reference stepper on random programs that branch directly and
// indirectly, call and return, store into their own code and change code
// permissions from OCalls: the retired (RIP, instruction) stream, the
// final registers and the whole Result must agree.
func FuzzStep(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 24; i++ {
		seed := make([]byte, 4+3*(8+rng.Intn(40)))
		rng.Read(seed)
		f.Add(seed)
	}
	// A counted loop, a call/ret pair and a code store over the loop.
	f.Add([]byte{0, 0, 0, 1, 0, 100, 1, 2, 0xff, 7, 1, 2, 8, 0, 6, 9, 0, 0, 11, 0, 3, 12, 3, 0, 6, 0, 1, 9, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4+3 {
			return
		}
		cfg := Config{Gas: 256 + uint64(data[0])*8, AEXSeed: int64(data[1])}
		if data[2]%2 == 0 {
			cfg.AEXInterval = 4 + uint64(data[2]%64)
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
		gotTr, got, gc, text := fuzzRun(t, p, cfg, env, (*CPU).Step)
		wantTr, want, wc, _ := fuzzRun(t, p, cfg, env, refStep)
		for i := range min(len(gotTr), len(wantTr)) {
			if gotTr[i] != wantTr[i] {
				t.Fatalf("step %d: retired %#x %v, reference %#x %v", i, gotTr[i].rip, gotTr[i].in, wantTr[i].rip, wantTr[i].in)
			}
		}
		if len(gotTr) != len(wantTr) {
			t.Fatalf("retired %d instructions, reference %d", len(gotTr), len(wantTr))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("result %+v (fault %v), reference %+v (fault %v)", got, got.Fault, want, want.Fault)
		}
		if gc.Regs != wc.Regs || gc.RIP != wc.RIP {
			t.Fatalf("final state rip=%#x %v, reference rip=%#x %v", gc.RIP, gc.Regs, wc.RIP, wc.Regs)
		}
		gm, _ := gc.Mem.Read(gc.Layout.CodeBase, len(text))
		wm, _ := wc.Mem.Read(wc.Layout.CodeBase, len(text))
		if !bytes.Equal(gm, wm) {
			t.Fatal("final code bytes differ from the reference")
		}
	})
}
