// Package cpu implements the instruction-level emulator that executes target
// binaries inside the simulated enclave.
//
// Besides architectural semantics (flags, stack, faults), the emulator
// provides the two hardware behaviours the DEFLECTION evaluation depends on:
//
//   - Asynchronous Enclave Exits: at a configurable cadence the CPU saves the
//     full register file to the enclave's State Save Area, exactly the
//     behaviour the P6 annotation observes by planting a marker in the RAX
//     save slot (HyperRace's detection trick).
//
//   - A timing model that charges per-instruction costs resembling an
//     out-of-order x86 core. See TimingModel.
package cpu

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"deflection/internal/enclave"
	"deflection/internal/isa"
)

// Status is the way an execution ended.
type Status uint8

// Execution outcomes.
const (
	StatusHalt  Status = iota + 1 // OpHlt: normal termination
	StatusTrap                    // OpTrap or architectural trap
	StatusFault                   // unhandled memory fault
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusHalt:
		return "halt"
	case StatusTrap:
		return "trap"
	case StatusFault:
		return "fault"
	default:
		return "unknown"
	}
}

// Result summarises an execution.
type Result struct {
	Status    Status
	Trap      isa.TrapCode
	ExitValue int64 // RAX at HLT
	Fault     *enclave.Fault

	Insts      uint64  // dynamic instructions retired
	Cycles     float64 // modelled cycles
	AEXCount   uint64  // asynchronous exits injected
	OcallCount uint64
}

// OcallHandler services an OCALL instruction. Returning a non-zero trap code
// aborts the program with that code; returning an error aborts emulation.
type OcallHandler func(c *CPU, index int64) (isa.TrapCode, error)

// TimingModel assigns modelled cycle costs per dynamic instruction class.
//
// AnnotationCost is the per-instruction charge for instructions inside
// verified annotation ranges. On an out-of-order x86 core the annotations —
// short, independent, always-correctly-predicted compare chains — execute in
// spare issue slots alongside the guarded memory operation, so their marginal
// cost is far below a dedicated-slot model. See DESIGN.md Section 5.
type TimingModel struct {
	MemCost        float64 // explicit loads/stores
	StackCost      float64 // push/pop (stack-engine assisted)
	BranchCost     float64 // any control transfer
	ALUCost        float64 // integer ALU, moves, lea
	FloatCost      float64 // floating point
	OcallCost      float64 // enclave transition (EEXIT+EENTER round trip)
	AEXCost        float64 // asynchronous exit + resume
	AnnotationCost float64 // per-instruction cost inside annotation ranges
}

// DefaultTiming returns the calibrated model used by all experiments.
func DefaultTiming() TimingModel {
	return TimingModel{
		MemCost:        4,
		StackCost:      0.5,
		BranchCost:     1,
		ALUCost:        0.25,
		FloatCost:      0.5,
		OcallCost:      8000,
		AEXCost:        7000,
		AnnotationCost: 0.125,
	}
}

// Range is a half-open address interval [Lo, Hi).
type Range struct{ Lo, Hi uint64 }

// RangeSet is a set of disjoint address ranges.
type RangeSet struct {
	ranges []Range
}

// NewRangeSet builds a RangeSet, sorting and merging the inputs.
func NewRangeSet(rs []Range) RangeSet {
	sorted := make([]Range, 0, len(rs))
	for _, r := range rs {
		if r.Hi > r.Lo {
			sorted = append(sorted, r)
		}
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Lo < sorted[j].Lo })
	merged := sorted[:0]
	for _, r := range sorted {
		if n := len(merged); n > 0 && r.Lo <= merged[n-1].Hi {
			if r.Hi > merged[n-1].Hi {
				merged[n-1].Hi = r.Hi
			}
			continue
		}
		merged = append(merged, r)
	}
	return RangeSet{ranges: merged}
}

// Contains reports whether addr lies in any range.
func (s RangeSet) Contains(addr uint64) bool {
	i := sort.Search(len(s.ranges), func(i int) bool { return s.ranges[i].Hi > addr })
	return i < len(s.ranges) && addr >= s.ranges[i].Lo
}

// Len returns the number of disjoint ranges.
func (s RangeSet) Len() int { return len(s.ranges) }

// Config parameterises an execution.
type Config struct {
	// Gas bounds the number of retired instructions (0 = 4e9).
	Gas uint64
	// Timing is the cycle cost model; the zero value selects DefaultTiming.
	Timing TimingModel
	// AnnotRanges are the verified annotation code ranges, used for
	// discounted annotation timing.
	AnnotRanges RangeSet
	// AEXInterval injects an asynchronous exit roughly every this many
	// instructions (0 disables injection).
	AEXInterval uint64
	// AEXSeed seeds the jitter applied to AEX injection times.
	AEXSeed int64
	// Ocall services OCALL instructions; nil denies them all.
	Ocall OcallHandler
	// Trace, when set, observes every retired instruction (debugging aid;
	// large overhead). Under Run, the instructions of an annotation template
	// executed as one handler are reported together, in retirement order,
	// before the handler changes registers or memory.
	Trace func(rip uint64, in isa.Inst)
}

// entry is one decoded instruction in the CPU's instruction table. next and
// taken memoise control flow as 1 + the table index of the fall-through
// successor and of the direct-branch target; 0 means not resolved yet.
// fused is 1 + the index in fusions of the annotation template anchored at
// this instruction (0 = none); it fills the entry's padding.
type entry struct {
	inst  isa.Inst
	addr  uint64
	cost  float64
	len   uint32
	next  int32
	taken int32
	fused int32
}

// CPU is a single hardware thread bound to an enclave.
type CPU struct {
	Regs [isa.NumRegs]uint64
	RIP  uint64

	// Flags from the last CMP/TEST/FCMP.
	flagZ bool // equal / zero
	flagL bool // signed less
	flagB bool // unsigned below (ordered less for floats)

	Mem    *enclave.Memory
	Layout enclave.Layout

	cfg Config
	// table holds every instruction decoded under codeGen, in first-fetch
	// order. index maps RIP-CodeBase to 1 + its table index over the first
	// indexCap bytes of the code region (0 = not decoded); far backs rare
	// executions outside that window.
	table    []entry
	fusions  []fusion
	index    []int32
	indexCap uint64
	far      map[uint64]int32
	// cur is 1 + the table index of the instruction expected at RIP (0 =
	// look RIP up). from is 1 + the index of the instruction whose link to
	// RIP is still unresolved, fromTaken which of its two links that is.
	cur       int32
	from      int32
	fromTaken bool
	// codeGen is the memory's code-write generation the table was filled
	// under; any other value means code may have changed since.
	codeGen uint64
	rng     *rand.Rand

	insts      uint64
	cycles     float64
	aexCount   uint64
	ocallCount uint64
	nextAEX    uint64

	done   bool
	result Result
}

// New binds a CPU to an enclave.
func New(e *enclave.Enclave, cfg Config) *CPU {
	if cfg.Gas == 0 {
		cfg.Gas = 4_000_000_000
	}
	if cfg.Timing == (TimingModel{}) {
		cfg.Timing = DefaultTiming()
	}
	c := &CPU{
		Mem:      e.Mem,
		Layout:   e.Layout,
		cfg:      cfg,
		indexCap: min(icacheCap, e.Layout.CodeEnd-e.Layout.CodeBase),
		far:      make(map[uint64]int32),
		rng:      rand.New(rand.NewSource(cfg.AEXSeed)),
		codeGen:  e.Mem.CodeGen(),
	}
	if cfg.AEXInterval > 0 {
		c.nextAEX = c.aexJitter()
	}
	return c
}

func (c *CPU) aexJitter() uint64 {
	iv := c.cfg.AEXInterval
	// +-25% jitter so AEXes do not land on a fixed instruction.
	return c.insts + iv - iv/4 + uint64(c.rng.Int63n(int64(iv/2+1)))
}

// Cycles returns the modelled cycles consumed so far.
func (c *CPU) Cycles() float64 { return c.cycles }

// Insts returns the dynamic instruction count so far.
func (c *CPU) Insts() uint64 { return c.insts }

// AddCycles charges extra modelled time (used by OCall stubs to model work
// done outside the enclave).
func (c *CPU) AddCycles(n float64) { c.cycles += n }

func (c *CPU) classCost(in *isa.Inst) float64 {
	t := &c.cfg.Timing
	switch {
	case in.Op.IsStore() || in.Op.IsLoad():
		return t.MemCost
	case in.Op == isa.OpPush || in.Op == isa.OpPop:
		return t.StackCost
	case in.Op.IsBranch() || in.Op == isa.OpRet || in.Op == isa.OpOcall:
		return t.BranchCost
	case in.Op >= isa.OpFAdd && in.Op <= isa.OpCvtFI:
		return t.FloatCost
	case in.Op == isa.OpBrMark || in.Op == isa.OpNop:
		return 0
	default:
		return t.ALUCost
	}
}

// icacheCap bounds the per-byte instruction index (4 bytes per code byte);
// code beyond it is looked up in the far map.
const icacheCap = 8 << 20

// sync drops the table if the memory's code generation moved since it was
// filled: self-modifying code, a store by another thread of this enclave,
// or a permission change.
func (c *CPU) sync() {
	if gen := c.Mem.CodeGen(); gen != c.codeGen {
		c.flush(gen)
	}
}

// flush drops every decoded instruction and link: code may have changed
// since they were made.
func (c *CPU) flush(gen uint64) {
	c.table = c.table[:0]
	c.fusions = c.fusions[:0]
	clear(c.index)
	clear(c.far)
	c.cur, c.from = 0, 0
	c.codeGen = gen
}

// lookup returns 1 + the table index of the instruction at addr, decoding
// and appending it on its first fetch, and recognising any annotation
// template it begins. On a fault or decode error it returns 0 and the
// cause.
func (c *CPU) lookup(addr uint64) (int32, *enclave.Fault, error) {
	if i := c.find(addr); i != 0 {
		return i, nil, nil
	}
	in, n, f, err := c.fetch(addr)
	if f != nil || err != nil {
		return 0, f, err
	}
	i := c.insert(addr, &in, n)
	fi := c.fuse(addr, &in, n)
	c.table[i-1].fused = fi
	return i, nil, nil
}

// find returns 1 + the table index of the instruction at addr, or 0 if it
// has not been decoded.
func (c *CPU) find(addr uint64) int32 {
	off := addr - c.Layout.CodeBase
	if addr >= c.Layout.CodeBase && off < c.indexCap {
		if off < uint64(len(c.index)) {
			return c.index[off]
		}
		return 0
	}
	return c.far[addr]
}

// fetch decodes the instruction at addr without touching the table.
func (c *CPU) fetch(addr uint64) (isa.Inst, int, *enclave.Fault, error) {
	win, f := c.Mem.FetchWindow(addr, isa.MaxInstLen)
	if f != nil {
		return isa.Inst{}, 0, f, nil
	}
	in, n, err := isa.Decode(win)
	return in, n, nil, err
}

// insert appends the n-byte instruction in at addr to the table and
// indexes it; it returns 1 + its table index.
func (c *CPU) insert(addr uint64, in *isa.Inst, n int) int32 {
	cost := c.classCost(in)
	if c.cfg.AnnotRanges.Contains(addr) {
		cost = c.cfg.Timing.AnnotationCost
	}
	c.table = append(c.table, entry{inst: *in, addr: addr, cost: cost, len: uint32(n)})
	i := int32(len(c.table))
	off := addr - c.Layout.CodeBase
	if addr >= c.Layout.CodeBase && off < c.indexCap {
		if off >= uint64(len(c.index)) {
			grown := make([]int32, min((off+1)*2, c.indexCap))
			copy(grown, c.index)
			c.index = grown
		}
		c.index[off] = i
	} else {
		c.far[addr] = i
	}
	return i
}

// resolve looks RIP up in the table and records it as the pending link of
// the instruction that transferred control here, if that link leads to RIP.
// It halts the CPU and returns 0 when the fetch faults or does not decode.
func (c *CPU) resolve() int32 {
	i, f, err := c.lookup(c.RIP)
	if f != nil {
		c.halt(StatusTrap, isa.TrapNonCanonical, f)
		return 0
	}
	if err != nil {
		c.halt(StatusTrap, isa.TrapInvalidOpcode, nil)
		return 0
	}
	if c.from != 0 {
		p := &c.table[c.from-1]
		want := p.addr + uint64(p.len)
		if c.fromTaken {
			want += uint64(p.inst.Imm)
		}
		if want == c.RIP {
			if c.fromTaken {
				p.taken = i
			} else {
				p.next = i
			}
		}
		c.from = 0
	}
	return i
}

func (c *CPU) halt(status Status, trap isa.TrapCode, fault *enclave.Fault) {
	c.done = true
	c.result = Result{
		Status:    status,
		Trap:      trap,
		ExitValue: int64(c.Regs[isa.RAX]),
		Fault:     fault,
	}
}

func (c *CPU) fault(f *enclave.Fault) { c.halt(StatusFault, isa.TrapPageFault, f) }

func (c *CPU) effAddr(m *isa.MemRef) uint64 {
	addr := uint64(int64(m.Disp))
	if m.HasBase {
		addr += c.Regs[m.Base]
	}
	if m.HasIndex {
		addr += c.Regs[m.Index] * uint64(m.EffectiveScale())
	}
	return addr
}

func (c *CPU) push(v uint64) *enclave.Fault {
	c.Regs[isa.RSP] -= 8
	return c.Mem.Write64(c.Regs[isa.RSP], v)
}

func (c *CPU) pop() (uint64, *enclave.Fault) {
	v, f := c.Mem.Read64(c.Regs[isa.RSP])
	if f != nil {
		return 0, f
	}
	c.Regs[isa.RSP] += 8
	return v, nil
}

func (c *CPU) condTrue(cond isa.Cond) bool {
	switch cond {
	case isa.CondE:
		return c.flagZ
	case isa.CondNE:
		return !c.flagZ
	case isa.CondL:
		return c.flagL
	case isa.CondLE:
		return c.flagL || c.flagZ
	case isa.CondG:
		return !c.flagL && !c.flagZ
	case isa.CondGE:
		return !c.flagL
	case isa.CondB:
		return c.flagB
	case isa.CondBE:
		return c.flagB || c.flagZ
	case isa.CondA:
		return !c.flagB && !c.flagZ
	case isa.CondAE:
		return !c.flagB
	default:
		return false
	}
}

func (c *CPU) setCmpFlags(a, b uint64) {
	c.flagZ = a == b
	c.flagL = int64(a) < int64(b)
	c.flagB = a < b
}

// doAEX models an asynchronous enclave exit: the hardware saves the
// interrupted context into the SSA (clobbering any marker planted there) and
// later resumes. The context switch carries a large cycle penalty.
func (c *CPU) doAEX() {
	l := &c.Layout
	for r := 0; r < isa.NumRegs; r++ {
		if f := c.Mem.Write64(l.SSARegAddr(r), c.Regs[r]); f != nil {
			c.fault(f)
			return
		}
	}
	if f := c.Mem.Write64(l.SSARIPAddr(), c.RIP); f != nil {
		c.fault(f)
		return
	}
	c.aexCount++
	c.cycles += c.cfg.Timing.AEXCost
	c.nextAEX = c.aexJitter()
}

// Result returns the final result once execution has ended (after a Step
// that halted, trapped or faulted); ok is false while still running. It
// lets external schedulers drive Step directly.
func (c *CPU) Result() (Result, bool) {
	if !c.done {
		return Result{}, false
	}
	r := c.result
	r.Insts = c.insts
	r.Cycles = c.cycles
	r.AEXCount = c.aexCount
	r.OcallCount = c.ocallCount
	return r, true
}

// Run executes until halt, trap, fault or gas exhaustion. An annotation
// template recognised in the instruction table runs as one handler when its
// common path applies (see fuse.go); everything else, and every template
// whose handler declines, retires instruction by instruction. The outcome,
// the counters, the modelled cycles, the memory and the retired-instruction
// stream are those of a Step loop.
func (c *CPU) Run() Result {
	r, _ := c.RunUntil(math.MaxUint64)
	return r
}

// RunUntil executes as Run does until end instructions have retired in all
// or execution ends, and returns what Result then returns. A template whose
// handler would retire past end is executed instruction by instruction
// instead, as at a gas boundary, so a scheduler that slices threads by
// instruction count sees the interleaving of a Step loop.
//
// Each pass checks gas, AEX, the code generation and the link into RIP
// once: it halts out of gas, injects a due AEX, or retires a whole stretch
// of linked instructions up to the nearest of end, the gas limit and the
// next AEX.
func (c *CPU) RunUntil(end uint64) (Result, bool) {
	for !c.done && c.insts < end {
		switch {
		case c.insts >= c.cfg.Gas:
			c.halt(StatusTrap, isa.TrapOutOfGas, nil)
		case c.cfg.AEXInterval > 0 && c.insts >= c.nextAEX:
			c.doAEX()
		default:
			if i := c.enter(); i != 0 {
				c.execute(i, c.bound(end))
			}
		}
	}
	return c.Result()
}

// bound returns the instruction count a stretch that must end by end stops
// at: end, the gas limit or the next AEX, whichever comes first.
func (c *CPU) bound(end uint64) uint64 {
	end = min(end, c.cfg.Gas)
	if c.cfg.AEXInterval > 0 {
		end = min(end, c.nextAEX)
	}
	return end
}

// linked returns the table entry (1 + its index) that the last link
// followed leads to, if the table still holds it and it is at RIP: the
// caller may have moved RIP, and code may have changed, since. Otherwise it
// returns 0.
func (c *CPU) linked() int32 {
	i := c.cur
	if i == 0 || c.Mem.CodeGen() != c.codeGen || c.table[i-1].addr != c.RIP {
		return 0
	}
	return i
}

// enter returns the table entry of the instruction at RIP: the one the last
// link followed leads to, if linked vouches for it, or else the one looked
// up after dropping the table if code may have changed. It returns 0, with
// the CPU halted, when the fetch faults or does not decode.
func (c *CPU) enter() int32 {
	if i := c.linked(); i != 0 {
		return i
	}
	c.sync()
	return c.resolve()
}

// Step retires exactly one instruction, also at the start of an annotation
// template that Run would execute as one handler: it is the same loop with
// a budget of one instruction, under which no handler applies.
func (c *CPU) Step() { c.RunUntil(c.insts + 1) }

// execute retires the instruction of table entry i, at RIP, and then the
// instructions its memoised links, or for an indirect transfer the index,
// lead to, one by one. At an entry that anchors an annotation template it
// runs the template's handler instead, if the handler applies. It stops
// once the count reaches limit, when the link to follow is not resolved
// yet, when an indirect transfer leads to an instruction not decoded yet,
// when the memory's code generation moves, and when the CPU halts, traps
// or faults.
func (c *CPU) execute(i int32, limit uint64) {
	// The count, the modelled cycles and RIP live in locals while the
	// stretch runs, and are stored back before anything else can see them.
	insts, cycles, rip := c.insts, c.cycles, c.RIP
stretch:
	for {
		e := &c.table[i-1]
		if e.fused != 0 {
			c.insts, c.cycles, c.RIP = insts, cycles, rip
			if c.runFused(e, limit) {
				if i = c.cur; i == 0 || c.insts >= limit {
					return
				}
				insts, cycles, rip = c.insts, c.cycles, c.RIP
				continue
			}
		}
		in := &e.inst
		next := rip + uint64(e.len)
		// link is the memoised successor slot to follow after execution;
		// nil for indirect transfers, which look their target up in the
		// index.
		link, taken := &e.next, false
		insts++
		cycles += e.cost
		if c.cfg.Trace != nil {
			c.insts, c.cycles, c.RIP = insts, cycles, rip
			c.cfg.Trace(rip, e.inst)
		}

		switch in.Op {
		case isa.OpNop, isa.OpBrMark:
			// no effect

		case isa.OpMovRI:
			c.Regs[in.Dst] = uint64(in.Imm)
		case isa.OpMovRR:
			c.Regs[in.Dst] = c.Regs[in.Src]
		case isa.OpMovRM:
			v, f := c.Mem.Read64(c.effAddr(&in.Mem))
			if f != nil {
				c.fault(f)
				break stretch
			}
			c.Regs[in.Dst] = v
		case isa.OpMovMR:
			if f := c.Mem.Write64(c.effAddr(&in.Mem), c.Regs[in.Src]); f != nil {
				c.fault(f)
				break stretch
			}
		case isa.OpMovBRM:
			v, f := c.Mem.Read8(c.effAddr(&in.Mem))
			if f != nil {
				c.fault(f)
				break stretch
			}
			c.Regs[in.Dst] = uint64(v)
		case isa.OpMovBMR:
			if f := c.Mem.Write8(c.effAddr(&in.Mem), uint8(c.Regs[in.Src])); f != nil {
				c.fault(f)
				break stretch
			}
		case isa.OpMovMI:
			if f := c.Mem.Write64(c.effAddr(&in.Mem), uint64(in.Imm)); f != nil {
				c.fault(f)
				break stretch
			}
		case isa.OpLea:
			c.Regs[in.Dst] = c.effAddr(&in.Mem)

		case isa.OpPush:
			if f := c.push(c.Regs[in.Dst]); f != nil {
				c.halt(StatusTrap, isa.TrapStackOverflow, f)
				break stretch
			}
		case isa.OpPop:
			v, f := c.pop()
			if f != nil {
				c.halt(StatusTrap, isa.TrapStackOverflow, f)
				break stretch
			}
			c.Regs[in.Dst] = v

		case isa.OpAddRR:
			c.Regs[in.Dst] += c.Regs[in.Src]
		case isa.OpSubRR:
			c.Regs[in.Dst] -= c.Regs[in.Src]
		case isa.OpImulRR:
			c.Regs[in.Dst] = uint64(int64(c.Regs[in.Dst]) * int64(c.Regs[in.Src]))
		case isa.OpIdivRR:
			d := int64(c.Regs[in.Src])
			if d == 0 {
				c.halt(StatusTrap, isa.TrapDivideByZero, nil)
				break stretch
			}
			n := int64(c.Regs[in.Dst])
			if n == math.MinInt64 && d == -1 {
				c.Regs[in.Dst] = 1 << 63
			} else {
				c.Regs[in.Dst] = uint64(n / d)
			}
		case isa.OpIremRR:
			d := int64(c.Regs[in.Src])
			if d == 0 {
				c.halt(StatusTrap, isa.TrapDivideByZero, nil)
				break stretch
			}
			n := int64(c.Regs[in.Dst])
			if n == math.MinInt64 && d == -1 {
				c.Regs[in.Dst] = 0
			} else {
				c.Regs[in.Dst] = uint64(n % d)
			}
		case isa.OpAndRR:
			c.Regs[in.Dst] &= c.Regs[in.Src]
		case isa.OpOrRR:
			c.Regs[in.Dst] |= c.Regs[in.Src]
		case isa.OpXorRR:
			c.Regs[in.Dst] ^= c.Regs[in.Src]
		case isa.OpShlRR:
			c.Regs[in.Dst] <<= c.Regs[in.Src] & 63
		case isa.OpShrRR:
			c.Regs[in.Dst] >>= c.Regs[in.Src] & 63
		case isa.OpSarRR:
			c.Regs[in.Dst] = uint64(int64(c.Regs[in.Dst]) >> (c.Regs[in.Src] & 63))

		case isa.OpAddRI:
			c.Regs[in.Dst] += uint64(in.Imm)
		case isa.OpSubRI:
			c.Regs[in.Dst] -= uint64(in.Imm)
		case isa.OpImulRI:
			c.Regs[in.Dst] = uint64(int64(c.Regs[in.Dst]) * in.Imm)
		case isa.OpAndRI:
			c.Regs[in.Dst] &= uint64(in.Imm)
		case isa.OpOrRI:
			c.Regs[in.Dst] |= uint64(in.Imm)
		case isa.OpXorRI:
			c.Regs[in.Dst] ^= uint64(in.Imm)
		case isa.OpShlRI:
			c.Regs[in.Dst] <<= uint64(in.Imm) & 63
		case isa.OpShrRI:
			c.Regs[in.Dst] >>= uint64(in.Imm) & 63
		case isa.OpSarRI:
			c.Regs[in.Dst] = uint64(int64(c.Regs[in.Dst]) >> (uint64(in.Imm) & 63))

		case isa.OpNeg:
			c.Regs[in.Dst] = uint64(-int64(c.Regs[in.Dst]))
		case isa.OpNot:
			c.Regs[in.Dst] = ^c.Regs[in.Dst]

		case isa.OpCmpRR:
			c.setCmpFlags(c.Regs[in.Dst], c.Regs[in.Src])
		case isa.OpCmpRI:
			c.setCmpFlags(c.Regs[in.Dst], uint64(in.Imm))
		case isa.OpTestRR:
			v := c.Regs[in.Dst] & c.Regs[in.Src]
			c.flagZ = v == 0
			c.flagL = int64(v) < 0
			c.flagB = false

		case isa.OpFAdd:
			c.fbin(in, func(a, b float64) float64 { return a + b })
		case isa.OpFSub:
			c.fbin(in, func(a, b float64) float64 { return a - b })
		case isa.OpFMul:
			c.fbin(in, func(a, b float64) float64 { return a * b })
		case isa.OpFDiv:
			c.fbin(in, func(a, b float64) float64 { return a / b })
		case isa.OpFSqrt:
			c.Regs[in.Dst] = math.Float64bits(math.Sqrt(math.Float64frombits(c.Regs[in.Dst])))
		case isa.OpFNeg:
			c.Regs[in.Dst] = math.Float64bits(-math.Float64frombits(c.Regs[in.Dst]))
		case isa.OpFCmp:
			a := math.Float64frombits(c.Regs[in.Dst])
			b := math.Float64frombits(c.Regs[in.Src])
			c.flagZ = a == b
			c.flagL = a < b
			c.flagB = a < b
		case isa.OpCvtIF:
			c.Regs[in.Dst] = math.Float64bits(float64(int64(c.Regs[in.Dst])))
		case isa.OpCvtFI:
			f := math.Float64frombits(c.Regs[in.Dst])
			switch {
			case math.IsNaN(f):
				c.Regs[in.Dst] = 0
			case f >= math.MaxInt64:
				c.Regs[in.Dst] = uint64(int64(math.MaxInt64))
			case f <= math.MinInt64:
				c.Regs[in.Dst] = 1 << 63
			default:
				c.Regs[in.Dst] = uint64(int64(f))
			}

		case isa.OpJmp:
			next = next + uint64(in.Imm)
			link, taken = &e.taken, true
		case isa.OpJcc:
			if c.condTrue(in.Cond) {
				next = next + uint64(in.Imm)
				link, taken = &e.taken, true
			}
		case isa.OpJmpR:
			next = c.Regs[in.Dst]
			link = nil
		case isa.OpCall:
			if f := c.push(next); f != nil {
				c.halt(StatusTrap, isa.TrapStackOverflow, f)
				break stretch
			}
			next = next + uint64(in.Imm)
			link, taken = &e.taken, true
		case isa.OpCallR:
			target := c.Regs[in.Dst]
			if f := c.push(next); f != nil {
				c.halt(StatusTrap, isa.TrapStackOverflow, f)
				break stretch
			}
			next = target
			link = nil
		case isa.OpRet:
			v, f := c.pop()
			if f != nil {
				c.halt(StatusTrap, isa.TrapStackOverflow, f)
				break stretch
			}
			next = v
			link = nil

		case isa.OpOcall:
			c.ocallCount++
			cycles += c.cfg.Timing.OcallCost
			if c.cfg.Ocall == nil {
				c.halt(StatusTrap, isa.TrapOcallDenied, nil)
				break stretch
			}
			c.insts, c.cycles, c.RIP = insts, cycles, rip
			trap, err := c.cfg.Ocall(c, in.Imm)
			cycles = c.cycles
			if err != nil {
				c.halt(StatusFault, isa.TrapOcallDenied, nil)
				break stretch
			}
			if trap != isa.TrapNone {
				c.halt(StatusTrap, trap, nil)
				break stretch
			}

		case isa.OpHlt:
			c.halt(StatusHalt, isa.TrapNone, nil)
			break stretch
		case isa.OpTrap:
			c.halt(StatusTrap, isa.TrapCode(in.Imm), nil)
			break stretch

		default:
			c.halt(StatusTrap, isa.TrapInvalidOpcode, nil)
			break stretch
		}

		rip = next
		switch {
		case link == nil:
			// An indirect transfer: the index holds its target if it has
			// been decoded (0 if not).
			i = c.find(rip)
		case *link == 0:
			c.cur, c.from, c.fromTaken = 0, i, taken
			break stretch
		default:
			i = *link
		}
		if i == 0 || insts >= limit || c.Mem.CodeGen() != c.codeGen {
			c.cur = i
			break stretch
		}
	}
	c.insts, c.cycles, c.RIP = insts, cycles, rip
}

func (c *CPU) fbin(in *isa.Inst, f func(a, b float64) float64) {
	a := math.Float64frombits(c.Regs[in.Dst])
	b := math.Float64frombits(c.Regs[in.Src])
	c.Regs[in.Dst] = math.Float64bits(f(a, b))
}

// String summarises the result for error messages.
func (r Result) String() string {
	switch r.Status {
	case StatusHalt:
		return fmt.Sprintf("halt(exit=%d, insts=%d)", r.ExitValue, r.Insts)
	case StatusTrap:
		return fmt.Sprintf("trap(%v, insts=%d)", r.Trap, r.Insts)
	case StatusFault:
		return fmt.Sprintf("fault(%v, insts=%d)", r.Fault, r.Insts)
	default:
		return "unknown result"
	}
}
