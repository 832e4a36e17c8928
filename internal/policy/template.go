package policy

import "deflection/internal/isa"

// Annotation templates: the fixed instruction shapes the code generator
// plants and the verifier matches byte-precisely (paper Fig. 5). The
// compiler builds its annotations from this table and the verifier walks
// the same table, so a shape is written down exactly once.

// Template names one annotation shape of the table.
type Template uint8

// The annotation templates.
const (
	// StoreGuard bounds-checks the destination of the store that follows it
	// (P1, and P3/P4 through the same bounds).
	StoreGuard Template = iota
	// RSPGuard bounds-checks RSP right after an explicit RSP write (P2). It
	// uses immediate compares only, so it never touches a corrupt stack.
	RSPGuard
	// CFIGuard requires a BRMARK beacon at the target of the indirect
	// branch that follows it (P5 forward edge). The beacon pattern is
	// loaded as its complement and flipped with NOT so the pattern bytes
	// never appear in the guard's immediate: the verifier rejects any text
	// occurrence of the pattern outside the listed targets.
	CFIGuard
	// ShadowPush copies the just-pushed return address onto the shadow
	// stack at function entry (P5; R14 is the shadow-stack pointer).
	ShadowPush
	// ShadowCheck compares the return address about to be consumed by the
	// RET that follows with the shadow-stack top (P5 back edge).
	ShadowCheck
	// AEXCheck inspects the SSA marker; if an AEX clobbered it, it bumps
	// the AEX counter, re-arms the marker and traps once the counter
	// exceeds the threshold (P6, HyperRace-style).
	AEXCheck
	// Arming plants the SSA marker and zeroes the AEX counter; the verifier
	// accepts it only as the first instructions of the program entry (P6).
	Arming

	numTemplates
)

// Fill names the placeholder of a step, filled from the annotation's anchor.
type Fill uint8

// Step placeholders.
const (
	FillNone Fill = iota
	// FillStoreMem: the memory operand is the anchor store's, with Disp+16
	// when it is RSP-based (the guard's two pushes moved RSP down by 16).
	// The verifier compares the whole operand.
	FillStoreMem
	// FillTargetReg: the memory operand is [r+0], r being the anchor
	// indirect branch's target register (its Dst).
	FillTargetReg
	// FillPositive: the immediate is the anchor's Imm (the generator's AEX
	// threshold); the verifier accepts any positive value.
	FillPositive
)

// Step is one expected instruction of a template. The verifier compares
// the opcode and the operands its format names; a memory operand without
// a placeholder must match base (if any) and displacement and have no index.
type Step struct {
	isa.Inst
	// Trap, when set, makes the step a Jcc that must land on TRAP Trap.
	Trap isa.TrapCode
	// Local makes the step a Jcc that must land on the template's last
	// instruction.
	Local bool
	Fill  Fill
}

// With returns the step's instruction with its placeholder filled from
// anchor.
func (s *Step) With(anchor *isa.Inst) isa.Inst {
	in := s.Inst
	switch s.Fill {
	case FillStoreMem:
		in.Mem = anchor.Mem
		if in.Mem.HasBase && in.Mem.Base == isa.RSP {
			in.Mem.Disp += 16
		}
	case FillTargetReg:
		in.Mem = isa.Mem(anchor.Dst, 0)
	case FillPositive:
		in.Imm = anchor.Imm
	}
	return in
}

// Steps returns the template's expected instructions in order.
func (t Template) Steps() []Step { return templates[t] }

var (
	ssaMarker = isa.Abs(MagicSSAMarkerDisp)
	aexCount  = isa.Abs(MagicAEXCountDisp)
)

var templates = [numTemplates][]Step{
	StoreGuard: {
		{Inst: isa.Inst{Op: isa.OpPush, Dst: isa.RBX}},
		{Inst: isa.Inst{Op: isa.OpPush, Dst: isa.RAX}},
		{Inst: isa.Inst{Op: isa.OpLea, Dst: isa.RAX}, Fill: FillStoreMem},
		{Inst: isa.Inst{Op: isa.OpMovRI, Dst: isa.RBX, Imm: MagicStoreLo}},
		{Inst: isa.Inst{Op: isa.OpCmpRR, Dst: isa.RAX, Src: isa.RBX}},
		{Inst: isa.Inst{Op: isa.OpJcc, Cond: isa.CondB}, Trap: isa.TrapStoreBounds},
		{Inst: isa.Inst{Op: isa.OpMovRI, Dst: isa.RBX, Imm: MagicStoreHi}},
		{Inst: isa.Inst{Op: isa.OpCmpRR, Dst: isa.RAX, Src: isa.RBX}},
		{Inst: isa.Inst{Op: isa.OpJcc, Cond: isa.CondAE}, Trap: isa.TrapStoreBounds},
		{Inst: isa.Inst{Op: isa.OpPop, Dst: isa.RAX}},
		{Inst: isa.Inst{Op: isa.OpPop, Dst: isa.RBX}},
	},
	RSPGuard: {
		{Inst: isa.Inst{Op: isa.OpCmpRI, Dst: isa.RSP, Imm: MagicStackLo}},
		{Inst: isa.Inst{Op: isa.OpJcc, Cond: isa.CondB}, Trap: isa.TrapStackBounds},
		{Inst: isa.Inst{Op: isa.OpCmpRI, Dst: isa.RSP, Imm: MagicStackHi}},
		{Inst: isa.Inst{Op: isa.OpJcc, Cond: isa.CondA}, Trap: isa.TrapStackBounds},
	},
	CFIGuard: {
		{Inst: isa.Inst{Op: isa.OpPush, Dst: isa.RBX}},
		{Inst: isa.Inst{Op: isa.OpPush, Dst: isa.RCX}},
		{Inst: isa.Inst{Op: isa.OpMovRM, Dst: isa.RBX}, Fill: FillTargetReg},
		{Inst: isa.Inst{Op: isa.OpMovRI, Dst: isa.RCX, Imm: int64(^isa.BrMarkPattern())}},
		{Inst: isa.Inst{Op: isa.OpNot, Dst: isa.RCX}},
		{Inst: isa.Inst{Op: isa.OpCmpRR, Dst: isa.RBX, Src: isa.RCX}},
		{Inst: isa.Inst{Op: isa.OpJcc, Cond: isa.CondNE}, Trap: isa.TrapCFI},
		{Inst: isa.Inst{Op: isa.OpPop, Dst: isa.RCX}},
		{Inst: isa.Inst{Op: isa.OpPop, Dst: isa.RBX}},
	},
	ShadowPush: {
		{Inst: isa.Inst{Op: isa.OpPush, Dst: isa.RAX}},
		{Inst: isa.Inst{Op: isa.OpMovRM, Dst: isa.RAX, Mem: isa.Mem(isa.RSP, 8)}},
		{Inst: isa.Inst{Op: isa.OpMovMR, Src: isa.RAX, Mem: isa.Mem(isa.RegShadow, 0)}},
		{Inst: isa.Inst{Op: isa.OpAddRI, Dst: isa.RegShadow, Imm: 8}},
		{Inst: isa.Inst{Op: isa.OpPop, Dst: isa.RAX}},
	},
	ShadowCheck: {
		{Inst: isa.Inst{Op: isa.OpPush, Dst: isa.RAX}},
		{Inst: isa.Inst{Op: isa.OpPush, Dst: isa.RBX}},
		{Inst: isa.Inst{Op: isa.OpSubRI, Dst: isa.RegShadow, Imm: 8}},
		{Inst: isa.Inst{Op: isa.OpMovRM, Dst: isa.RAX, Mem: isa.Mem(isa.RegShadow, 0)}},
		{Inst: isa.Inst{Op: isa.OpMovRM, Dst: isa.RBX, Mem: isa.Mem(isa.RSP, 16)}},
		{Inst: isa.Inst{Op: isa.OpCmpRR, Dst: isa.RAX, Src: isa.RBX}},
		{Inst: isa.Inst{Op: isa.OpJcc, Cond: isa.CondNE}, Trap: isa.TrapShadowStack},
		{Inst: isa.Inst{Op: isa.OpPop, Dst: isa.RBX}},
		{Inst: isa.Inst{Op: isa.OpPop, Dst: isa.RAX}},
	},
	AEXCheck: {
		{Inst: isa.Inst{Op: isa.OpPush, Dst: isa.RAX}},
		{Inst: isa.Inst{Op: isa.OpMovRM, Dst: isa.RAX, Mem: ssaMarker}},
		{Inst: isa.Inst{Op: isa.OpCmpRI, Dst: isa.RAX, Imm: SSAMarkerMagic}},
		{Inst: isa.Inst{Op: isa.OpJcc, Cond: isa.CondE}, Local: true},
		{Inst: isa.Inst{Op: isa.OpMovRM, Dst: isa.RAX, Mem: aexCount}},
		{Inst: isa.Inst{Op: isa.OpAddRI, Dst: isa.RAX, Imm: 1}},
		{Inst: isa.Inst{Op: isa.OpMovMR, Src: isa.RAX, Mem: aexCount}},
		{Inst: isa.Inst{Op: isa.OpMovMI, Mem: ssaMarker, Imm: SSAMarkerMagic}},
		{Inst: isa.Inst{Op: isa.OpCmpRI, Dst: isa.RAX}, Fill: FillPositive},
		{Inst: isa.Inst{Op: isa.OpJcc, Cond: isa.CondA}, Trap: isa.TrapAEXBudget},
		{Inst: isa.Inst{Op: isa.OpPop, Dst: isa.RAX}},
	},
	Arming: {
		{Inst: isa.Inst{Op: isa.OpMovMI, Mem: ssaMarker, Imm: SSAMarkerMagic}},
		{Inst: isa.Inst{Op: isa.OpMovMI, Mem: aexCount, Imm: 0}},
	},
}
