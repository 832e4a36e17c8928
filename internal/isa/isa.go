// Package isa defines the virtual instruction set architecture used by the
// DEFLECTION reproduction.
//
// The ISA is deliberately x86-64 flavoured: sixteen 64-bit general purpose
// registers (including a stack pointer RSP and frame pointer RBP),
// scale-index-base memory operands, PUSH/POP with an implicit stack, CALL/RET
// with return addresses pushed on the stack, conditional branches driven by a
// flags register, and indirect calls/jumps through registers. These are
// exactly the instruction classes the paper's security annotations key on
// (memory stores, RSP writes, indirect control transfers, returns), so the
// policy instrumentation and verification logic built on top of this ISA is
// isomorphic to the x86-64 original.
//
// Instructions use a variable-length byte encoding (an opcode byte followed
// by format-specific operand bytes) so that the recursive-descent
// disassembler, the verifier's byte-precise annotation matching, and the
// loader's immediate-operand rewriting all face the same problems they face
// on real machine code. This package decodes; the encoder is in
// internal/asm, which only the generators link.
package isa

import "fmt"

// Reg names a general purpose register.
type Reg uint8

// General purpose registers. RSP is the hardware stack pointer (PUSH, POP,
// CALL and RET use it implicitly). RBP is the conventional frame pointer.
// R14 is reserved by the code generator as the shadow-stack pointer and R15
// as an annotation scratch register; the verifier rejects user instructions
// that write either.
const (
	RAX Reg = iota
	RBX
	RCX
	RDX
	RSI
	RDI
	RBP
	RSP
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15

	// NumRegs is the number of general purpose registers.
	NumRegs = 16
)

// RegShadow is the register the code generator reserves for the shadow-stack
// pointer (P5 backward-edge protection).
const RegShadow = R14

// RegScratch is the register reserved for annotation-internal scratch use.
const RegScratch = R15

var regNames = [NumRegs]string{
	"rax", "rbx", "rcx", "rdx", "rsi", "rdi", "rbp", "rsp",
	"r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15",
}

// String returns the conventional lower-case register mnemonic.
func (r Reg) String() string {
	if int(r) < len(regNames) {
		return regNames[r]
	}
	return fmt.Sprintf("reg(%d)", uint8(r))
}

// Valid reports whether r names an architectural register.
func (r Reg) Valid() bool { return r < NumRegs }

// Cond is a branch condition evaluated against the flags register.
type Cond uint8

// Branch conditions. The flags register records the result of the most
// recent CMP/TEST/FCMP as three independent predicates: equal, signed
// less-than and unsigned less-than.
const (
	CondInvalid Cond = iota
	CondE            // equal (ZF)
	CondNE           // not equal
	CondL            // signed less
	CondLE           // signed less or equal
	CondG            // signed greater
	CondGE           // signed greater or equal
	CondB            // unsigned below
	CondBE           // unsigned below or equal
	CondA            // unsigned above
	CondAE           // unsigned above or equal

	numConds
)

var condNames = [numConds]string{
	"??", "e", "ne", "l", "le", "g", "ge", "b", "be", "a", "ae",
}

// String returns the Jcc suffix for the condition ("e", "ne", ...).
func (c Cond) String() string {
	if int(c) < len(condNames) {
		return condNames[c]
	}
	return fmt.Sprintf("cond(%d)", uint8(c))
}

// Negate returns the condition with opposite truth value.
func (c Cond) Negate() Cond {
	switch c {
	case CondE:
		return CondNE
	case CondNE:
		return CondE
	case CondL:
		return CondGE
	case CondLE:
		return CondG
	case CondG:
		return CondLE
	case CondGE:
		return CondL
	case CondB:
		return CondAE
	case CondBE:
		return CondA
	case CondA:
		return CondBE
	case CondAE:
		return CondB
	default:
		return CondInvalid
	}
}

// MemRef is a scale-index-base memory operand:
//
//	[base + index*scale + disp]
//
// Base and Index are optional; an absolute reference has neither. Disp is a
// signed 32-bit displacement (the address space of the simulated machine fits
// comfortably in 31 bits, mirroring how small-model x86-64 code uses disp32).
type MemRef struct {
	Base     Reg
	Index    Reg
	Scale    uint8 // 1, 2, 4 or 8; 0 means 1
	Disp     int32
	HasBase  bool
	HasIndex bool
}

// Abs returns an absolute memory reference to addr.
func Abs(addr int32) MemRef { return MemRef{Disp: addr} }

// Mem returns a base+disp memory reference.
func Mem(base Reg, disp int32) MemRef {
	return MemRef{Base: base, Disp: disp, HasBase: true}
}

// MemSIB returns a full scale-index-base memory reference.
func MemSIB(base Reg, index Reg, scale uint8, disp int32) MemRef {
	return MemRef{Base: base, Index: index, Scale: scale, Disp: disp, HasBase: true, HasIndex: true}
}

// String renders the operand in Intel-ish syntax.
func (m MemRef) String() string {
	s := "["
	wrote := false
	if m.HasBase {
		s += m.Base.String()
		wrote = true
	}
	if m.HasIndex {
		if wrote {
			s += "+"
		}
		scale := m.Scale
		if scale == 0 {
			scale = 1
		}
		s += fmt.Sprintf("%s*%d", m.Index, scale)
		wrote = true
	}
	if m.Disp != 0 || !wrote {
		if wrote && m.Disp >= 0 {
			s += "+"
		}
		s += fmt.Sprintf("%d", m.Disp)
	}
	return s + "]"
}

// EffectiveScale returns the multiplier encoded by Scale, treating 0 as 1.
func (m MemRef) EffectiveScale() int64 {
	if m.Scale == 0 {
		return 1
	}
	return int64(m.Scale)
}

// Op is an operation code.
type Op uint8

// Operation codes. The numeric values are the on-the-wire opcode bytes; they
// are part of the object-file format and must not be reordered.
const (
	OpInvalid Op = iota

	// Data movement.
	OpMovRI  // mov dst, imm64
	OpMovRR  // mov dst, src
	OpMovRM  // mov dst, [mem]          (64-bit load)
	OpMovMR  // mov [mem], src          (64-bit store)
	OpMovBRM // movb dst, [mem]         (byte load, zero-extended)
	OpMovBMR // movb [mem], src         (byte store, low 8 bits)
	OpMovMI  // mov [mem], imm64        (64-bit store of an immediate)
	OpLea    // lea dst, [mem]

	// Stack.
	OpPush // push src
	OpPop  // pop dst

	// ALU, register-register.
	OpAddRR
	OpSubRR
	OpImulRR
	OpIdivRR // dst = dst / src (signed; traps on divide by zero)
	OpIremRR // dst = dst % src (signed; traps on divide by zero)
	OpAndRR
	OpOrRR
	OpXorRR
	OpShlRR
	OpShrRR // logical right shift
	OpSarRR // arithmetic right shift

	// ALU, register-immediate.
	OpAddRI
	OpSubRI
	OpImulRI
	OpAndRI
	OpOrRI
	OpXorRI
	OpShlRI
	OpShrRI
	OpSarRI

	// ALU, single operand.
	OpNeg
	OpNot

	// Comparison (set flags).
	OpCmpRR
	OpCmpRI
	OpTestRR

	// Floating point. Registers hold IEEE-754 float64 bit patterns.
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv
	OpFSqrt // dst = sqrt(dst)
	OpFNeg  // dst = -dst
	OpFCmp  // compare as float64, set flags
	OpCvtIF // dst = float64(int64(dst)) bits
	OpCvtFI // dst = int64(trunc(float64bits(dst)))

	// Control transfer.
	OpJmp    // jmp rel32
	OpJcc    // jcc rel32
	OpJmpR   // jmp reg                 (indirect)
	OpCall   // call rel32
	OpCallR  // call reg                (indirect)
	OpRet    // ret
	OpBrMark // branch-target marker (no-op; carries the CFI magic)

	// System.
	OpOcall // ocall imm (index into the bootstrap enclave's OCall table)
	OpHlt   // halt; RAX is the exit value
	OpTrap  // policy-violation trap; imm is a TrapCode
	OpNop

	numOps
)

// Fmt describes the operand layout of an instruction.
type Fmt uint8

// Operand formats.
const (
	FmtNone    Fmt = iota
	FmtR           // one register (Dst)
	FmtRR          // two registers (Dst, Src)
	FmtRI          // register + imm64 (Dst, Imm)
	FmtRM          // register + memory (Dst, Mem)
	FmtMR          // memory + register (Mem, Src)
	FmtMI          // memory + imm64 (Mem, Imm)
	FmtI           // imm64 only
	FmtRel         // rel32 branch displacement (Imm holds the rel)
	FmtCondRel     // condition byte + rel32
)

type opInfo struct {
	name string
	fmt  Fmt
}

var opTable = [numOps]opInfo{
	OpInvalid: {"invalid", FmtNone},
	OpMovRI:   {"mov", FmtRI},
	OpMovRR:   {"mov", FmtRR},
	OpMovRM:   {"mov", FmtRM},
	OpMovMR:   {"mov", FmtMR},
	OpMovBRM:  {"movb", FmtRM},
	OpMovBMR:  {"movb", FmtMR},
	OpMovMI:   {"mov", FmtMI},
	OpLea:     {"lea", FmtRM},
	OpPush:    {"push", FmtR},
	OpPop:     {"pop", FmtR},
	OpAddRR:   {"add", FmtRR},
	OpSubRR:   {"sub", FmtRR},
	OpImulRR:  {"imul", FmtRR},
	OpIdivRR:  {"idiv", FmtRR},
	OpIremRR:  {"irem", FmtRR},
	OpAndRR:   {"and", FmtRR},
	OpOrRR:    {"or", FmtRR},
	OpXorRR:   {"xor", FmtRR},
	OpShlRR:   {"shl", FmtRR},
	OpShrRR:   {"shr", FmtRR},
	OpSarRR:   {"sar", FmtRR},
	OpAddRI:   {"add", FmtRI},
	OpSubRI:   {"sub", FmtRI},
	OpImulRI:  {"imul", FmtRI},
	OpAndRI:   {"and", FmtRI},
	OpOrRI:    {"or", FmtRI},
	OpXorRI:   {"xor", FmtRI},
	OpShlRI:   {"shl", FmtRI},
	OpShrRI:   {"shr", FmtRI},
	OpSarRI:   {"sar", FmtRI},
	OpNeg:     {"neg", FmtR},
	OpNot:     {"not", FmtR},
	OpCmpRR:   {"cmp", FmtRR},
	OpCmpRI:   {"cmp", FmtRI},
	OpTestRR:  {"test", FmtRR},
	OpFAdd:    {"fadd", FmtRR},
	OpFSub:    {"fsub", FmtRR},
	OpFMul:    {"fmul", FmtRR},
	OpFDiv:    {"fdiv", FmtRR},
	OpFSqrt:   {"fsqrt", FmtR},
	OpFNeg:    {"fneg", FmtR},
	OpFCmp:    {"fcmp", FmtRR},
	OpCvtIF:   {"cvtif", FmtR},
	OpCvtFI:   {"cvtfi", FmtR},
	OpJmp:     {"jmp", FmtRel},
	OpJcc:     {"j", FmtCondRel},
	OpJmpR:    {"jmp", FmtR},
	OpCall:    {"call", FmtRel},
	OpCallR:   {"call", FmtR},
	OpRet:     {"ret", FmtNone},
	OpBrMark:  {"brmark", FmtI},
	OpOcall:   {"ocall", FmtI},
	OpHlt:     {"hlt", FmtNone},
	OpTrap:    {"trap", FmtI},
	OpNop:     {"nop", FmtNone},
}

// String returns the base mnemonic of the opcode.
func (op Op) String() string {
	if int(op) < len(opTable) && opTable[op].name != "" {
		return opTable[op].name
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Valid reports whether op is a defined operation.
func (op Op) Valid() bool { return op > OpInvalid && op < numOps }

// Format returns the operand layout of the opcode.
func (op Op) Format() Fmt {
	if !op.Valid() {
		return FmtNone
	}
	return opTable[op].fmt
}

// IsStore reports whether the instruction class writes memory through an
// explicit memory operand. These are the instructions policy P1/P3/P4
// annotations must guard. PUSH and CALL also write memory, but only through
// RSP; those writes are covered by policy P2 (RSP checks plus guard pages).
func (op Op) IsStore() bool {
	switch op {
	case OpMovMR, OpMovBMR, OpMovMI:
		return true
	default:
		return false
	}
}

// IsLoad reports whether the instruction reads memory through an explicit
// memory operand.
func (op Op) IsLoad() bool {
	switch op {
	case OpMovRM, OpMovBRM:
		return true
	default:
		return false
	}
}

// IsIndirectBranch reports whether the instruction transfers control through
// a register (the forward-edge transfers policy P5 must guard).
func (op Op) IsIndirectBranch() bool { return op == OpJmpR || op == OpCallR }

// IsBranch reports whether the instruction may transfer control anywhere
// other than the next instruction.
func (op Op) IsBranch() bool {
	switch op {
	case OpJmp, OpJcc, OpJmpR, OpCall, OpCallR, OpRet, OpHlt, OpTrap:
		return true
	default:
		return false
	}
}

// Terminates reports whether control never falls through to the next
// instruction.
func (op Op) Terminates() bool {
	switch op {
	case OpJmp, OpJmpR, OpRet, OpHlt, OpTrap:
		return true
	default:
		return false
	}
}

// Inst is a decoded instruction.
type Inst struct {
	Op   Op
	Dst  Reg
	Src  Reg
	Mem  MemRef
	Imm  int64
	Cond Cond
}

// WritesReg reports whether executing the instruction writes register r.
// PUSH/POP/CALL/RET implicitly write RSP.
func (in *Inst) WritesReg(r Reg) bool {
	switch in.Op.Format() {
	case FmtR:
		switch in.Op {
		case OpPush, OpJmpR, OpCallR:
			// Source-only register operand.
		default:
			if in.Dst == r {
				return true
			}
		}
	case FmtRR, FmtRI, FmtRM:
		if in.Op != OpCmpRR && in.Op != OpCmpRI && in.Op != OpTestRR && in.Op != OpFCmp && in.Dst == r {
			return true
		}
	}
	if r == RSP {
		switch in.Op {
		case OpPush, OpPop, OpCall, OpCallR, OpRet:
			return true
		}
	}
	return false
}

// ModifiesRSP reports whether the instruction can change the stack pointer
// to an arbitrary value (the explicit RSP writes policy P2 must guard).
// Implicit +-8 adjustments from PUSH/POP/CALL/RET are excluded: they are
// bounded and covered by guard pages.
func (in *Inst) ModifiesRSP() bool {
	switch in.Op {
	case OpPush, OpPop, OpCall, OpCallR, OpRet:
		return false
	}
	return in.WritesReg(RSP)
}

// String renders the instruction in Intel-ish assembly syntax.
func (in *Inst) String() string {
	switch in.Op.Format() {
	case FmtNone:
		return in.Op.String()
	case FmtR:
		return fmt.Sprintf("%s %s", in.Op, in.Dst)
	case FmtRR:
		return fmt.Sprintf("%s %s, %s", in.Op, in.Dst, in.Src)
	case FmtRI:
		return fmt.Sprintf("%s %s, %#x", in.Op, in.Dst, uint64(in.Imm))
	case FmtRM:
		return fmt.Sprintf("%s %s, %s", in.Op, in.Dst, in.Mem)
	case FmtMR:
		return fmt.Sprintf("%s %s, %s", in.Op, in.Mem, in.Src)
	case FmtMI:
		return fmt.Sprintf("%s %s, %#x", in.Op, in.Mem, uint64(in.Imm))
	case FmtI:
		return fmt.Sprintf("%s %#x", in.Op, uint64(in.Imm))
	case FmtRel:
		return fmt.Sprintf("%s %+d", in.Op, in.Imm)
	case FmtCondRel:
		return fmt.Sprintf("j%s %+d", in.Cond, in.Imm)
	}
	return in.Op.String()
}

// TrapCode identifies the policy whose runtime check fired.
type TrapCode int64

// Trap codes reported by security annotations and the CPU.
const (
	TrapNone          TrapCode = iota
	TrapStoreBounds            // P1/P3/P4: store destination outside the permitted data range
	TrapStackBounds            // P2: RSP left the stack region
	TrapCFI                    // P5: indirect branch to an unmarked target
	TrapShadowStack            // P5: return address mismatch
	TrapAEXBudget              // P6: too many asynchronous enclave exits
	TrapDivideByZero           // architectural: integer division by zero
	TrapPageFault              // architectural: permission or unmapped-page fault
	TrapInvalidOpcode          // architectural: undecodable instruction
	TrapOutOfGas               // emulator: instruction budget exhausted
	TrapExplicit               // program-requested abort
	TrapOcallDenied            // P0: OCall not permitted by the manifest
	TrapStackOverflow          // guard page hit by stack growth
	TrapNonCanonical           // fetch outside executable enclave memory
)

var trapNames = map[TrapCode]string{
	TrapNone:          "none",
	TrapStoreBounds:   "store-bounds violation (P1/P3/P4)",
	TrapStackBounds:   "stack-pointer bounds violation (P2)",
	TrapCFI:           "control-flow integrity violation (P5)",
	TrapShadowStack:   "shadow-stack return mismatch (P5)",
	TrapAEXBudget:     "AEX budget exceeded (P6)",
	TrapDivideByZero:  "integer divide by zero",
	TrapPageFault:     "page fault",
	TrapInvalidOpcode: "invalid opcode",
	TrapOutOfGas:      "instruction budget exhausted",
	TrapExplicit:      "explicit trap",
	TrapOcallDenied:   "OCall denied by manifest (P0)",
	TrapStackOverflow: "stack overflow into guard page",
	TrapNonCanonical:  "instruction fetch outside executable memory",
}

// String names the trap code.
func (t TrapCode) String() string {
	if s, ok := trapNames[t]; ok {
		return s
	}
	return fmt.Sprintf("trap(%d)", int64(t))
}
