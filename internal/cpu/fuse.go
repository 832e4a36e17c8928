package cpu

import (
	"math"

	"deflection/internal/enclave"
	"deflection/internal/isa"
	"deflection/internal/policy"
)

// Fused annotation handlers. About half of what a P1-P6 binary retires is
// annotation code, and most of it is the AEX check's marker-intact path
// and the store guard. When an instruction is first decoded, the CPU
// compares it and the instructions that follow with the annotation
// templates of package policy, the table the compiler emits from and the
// verifier matches. A recognised template gets a fusion record, and the
// execution loop, reaching its anchor, executes the template's common path
// (every trap branch not taken, a local branch taken) as one handler
// instead of one dispatch per instruction. A handler declines, committing
// nothing, whenever the common path would not be followed exactly as
// single steps follow it, and when it would retire past the loop's limit;
// the loop then executes the template instruction by instruction. Step's
// limit is one instruction, so Step never fuses, and schedulers that
// interleave threads by instruction count see no difference.

// fusable are the templates Run executes as one handler. The other
// annotations (shadow stack, CFI guard, arming) retire a few percent of
// the instructions and run as ordinary code.
var fusable = [...]policy.Template{policy.AEXCheck, policy.StoreGuard, policy.RSPGuard}

// maxFused bounds the length of a fusable template.
const maxFused = 11

// fusion is a template recognised at a table entry. Its operands come from
// the decoded instructions, since the loader rewrites the magic values the
// compiler emits.
type fusion struct {
	tmpl policy.Template
	// n is the length of the common path and path holds 1 + the table
	// index of each of its instructions, in retirement order.
	n    uint8
	path [maxFused]int32
	// sum is the path's total cost, and exact whether every cost of the
	// path is a multiple of costUnit of magnitude at most 2^30 (so that
	// sum is exact too).
	sum   float64
	exact bool
	// mem is the store guard's lea operand; addr the AEX check's marker.
	mem  isa.MemRef
	addr uint64
	// lo and hi are the bounds of the store and RSP guards; lo is the
	// marker value of the AEX check.
	lo, hi uint64
}

// fits reports whether in has step s's opcode, registers and condition,
// and, unless the step takes the guarded store's operand, the shape of its
// memory operand: base register and no index.
func fits(s *policy.Step, in *isa.Inst) bool {
	if in.Op != s.Op || in.Dst != s.Dst || in.Src != s.Src || in.Cond != s.Cond {
		return false
	}
	switch in.Op.Format() {
	case isa.FmtRM, isa.FmtMR, isa.FmtMI:
		if s.Fill != policy.FillStoreMem {
			m := &in.Mem
			return m.HasBase == s.Mem.HasBase && (!m.HasBase || m.Base == s.Mem.Base) && !m.HasIndex
		}
	}
	return true
}

// fuse matches the fusable templates against the instructions from addr
// on, the first of which, in (n bytes), has just been added to the table.
// On a match it adds the common path's instructions to the table and
// returns 1 + the index of the new fusion record; otherwise 0. Looking
// ahead changes nothing: an instruction that faults, does not decode or
// does not fit means no match.
func (c *CPU) fuse(addr uint64, in *isa.Inst, n int) int32 {
templates:
	for _, t := range fusable {
		steps := t.Steps()
		if len(steps) > maxFused || !fits(&steps[0], in) {
			continue
		}
		var insts [maxFused]isa.Inst
		var at [maxFused + 1]uint64
		insts[0], at[0], at[1] = *in, addr, addr+uint64(n)
		for k := 1; k < len(steps); k++ {
			next, m, f, err := c.fetch(at[k])
			if f != nil || err != nil || !fits(&steps[k], &next) {
				continue templates
			}
			insts[k], at[k+1] = next, at[k]+uint64(m)
		}
		last := len(steps) - 1
		for k := range steps {
			if steps[k].Local && at[k+1]+uint64(insts[k].Imm) != at[last] {
				continue templates
			}
		}
		fu := fusion{tmpl: t, exact: true}
		for k := 0; k <= last; k++ {
			i := c.find(at[k])
			if i == 0 {
				i = c.insert(at[k], &insts[k], int(at[k+1]-at[k]))
			}
			fu.path[fu.n] = i
			fu.n++
			cost := c.table[i-1].cost
			fu.sum += cost
			fu.exact = fu.exact && cost == math.Round(cost/costUnit)*costUnit && math.Abs(cost) <= 1<<30
			if steps[k].Local {
				k = last - 1
			}
		}
		switch t {
		case policy.AEXCheck:
			fu.addr, fu.lo = uint64(int64(insts[1].Mem.Disp)), uint64(insts[2].Imm)
		case policy.StoreGuard:
			fu.mem, fu.lo, fu.hi = insts[2].Mem, uint64(insts[3].Imm), uint64(insts[6].Imm)
		case policy.RSPGuard:
			fu.lo, fu.hi = uint64(insts[0].Imm), uint64(insts[2].Imm)
		}
		c.fusions = append(c.fusions, fu)
		return int32(len(c.fusions))
	}
	return 0
}

// scratch reports whether the 8 bytes at addr lie in one readable,
// writable, non-executable page: a push there neither faults nor moves the
// code generation, and the pop that follows reads back what it wrote.
func (c *CPU) scratch(addr uint64) bool {
	return addr%enclave.PageSize <= enclave.PageSize-8 && c.Mem.PermAt(addr)&enclave.PermRWX == enclave.PermRW
}

// runFused executes the common path of the template anchored at anchor, the
// entry at RIP, as Step would, instruction by instruction, and reports true;
// or it declines, changing nothing, and reports false. The caller has
// checked that the table was filled under the memory's current code
// generation. It declines when the path would retire past limit (a gas or
// AEX boundary, or the end of a time slice), and whenever single steps
// would leave the path: a trap branch taken, a clobbered SSA marker, a
// fault, or a push that would overwrite the marker or land on an executable
// page. The pushes write their stack words; the pops are not performed,
// since they read back the values just pushed.
func (c *CPU) runFused(anchor *entry, limit uint64) bool {
	f := &c.fusions[anchor.fused-1]
	if c.insts+uint64(f.n) > limit {
		return false
	}
	rsp := c.Regs[isa.RSP]
	switch f.tmpl {
	case policy.AEXCheck:
		// push rax; mov rax, [marker]; cmp rax, lo; je ok; ... ok: pop rax
		v, fault := c.Mem.Read64(f.addr)
		if fault != nil || v != f.lo || !c.scratch(rsp-8) || f.addr < rsp && rsp-8 < f.addr+8 {
			return false
		}
		c.retire(f)
		c.Mem.Write64(rsp-8, c.Regs[isa.RAX])
		c.setCmpFlags(v, f.lo)
	case policy.StoreGuard:
		// push rbx; push rax; lea rax, mem; mov rbx, lo; cmp rax, rbx;
		// jb trap; mov rbx, hi; cmp rax, rbx; jae trap; pop rax; pop rbx
		if !c.scratch(rsp-8) || !c.scratch(rsp-16) {
			return false
		}
		c.Regs[isa.RSP] = rsp - 16
		addr := c.effAddr(&f.mem)
		c.Regs[isa.RSP] = rsp
		if addr < f.lo || addr >= f.hi {
			return false
		}
		c.retire(f)
		c.Mem.Write64(rsp-8, c.Regs[isa.RBX])
		c.Mem.Write64(rsp-16, c.Regs[isa.RAX])
		c.setCmpFlags(addr, f.hi)
	case policy.RSPGuard:
		// cmp rsp, lo; jb trap; cmp rsp, hi; ja trap
		if rsp < f.lo || rsp > f.hi {
			return false
		}
		c.retire(f)
		c.setCmpFlags(rsp, f.hi)
	}
	return true
}

// costUnit is a power of two that every cost of the default timing model
// is a multiple of.
const costUnit = 1.0 / 1024

// retire accounts for f's common path as Step does, instruction by
// instruction and in order: count, modelled cost, trace. It then moves RIP
// past the path's last instruction and follows that instruction's
// fall-through link, or leaves it to be resolved by the next pass.
func (c *CPU) retire(f *fusion) {
	path := f.path[:f.n]
	if c.cfg.Trace == nil {
		c.insts += uint64(len(path))
		if x := c.cycles / costUnit; f.exact && math.Abs(x) <= 1<<50 && x == math.Trunc(x) {
			// The running count and every cost of the path are multiples
			// of costUnit, and every partial sum stays below 2^41 cycles,
			// so each per-instruction addition would be exact: adding the
			// total gives the same bits.
			c.cycles += f.sum
		} else {
			cycles := c.cycles
			for _, i := range path {
				cycles += c.table[i-1].cost
			}
			c.cycles = cycles
		}
	} else {
		for _, i := range path {
			e := &c.table[i-1]
			c.insts++
			c.cycles += e.cost
			c.cfg.Trace(e.addr, e.inst)
		}
	}
	last := path[len(path)-1]
	e := &c.table[last-1]
	c.RIP = e.addr + uint64(e.len)
	if e.next != 0 {
		c.cur = e.next
	} else {
		c.cur, c.from, c.fromTaken = 0, last, false
	}
}
