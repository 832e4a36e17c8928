package verifier

import (
	"fmt"
	"reflect"

	"deflection/internal/disasm"
	"deflection/internal/isa"
	"deflection/internal/policy"
)

// The reference matchers below are the hand-written per-shape matchers the
// table-driven match replaced, kept verbatim (matchP6Arming and the match*
// callers renamed with a ref prefix) so tests can compare the two on the
// same disassembly.

// refMatchTemplates is matchTemplates with the reference matchers.
func (v *verifier) refMatchTemplates() error {
	req := v.opts.Required
	if req.Has(policy.P5) {
		if err := v.checkBranchTargetBeacons(); err != nil {
			return err
		}
		if err := v.scanBeaconPattern(); err != nil {
			return err
		}
	}
	if req.Has(policy.P6) {
		if err := v.refMatchP6Arming(); err != nil {
			return err
		}
		if err := v.refMatchAEXChecks(); err != nil {
			return err
		}
	}
	if req.Has(policy.P5) {
		for _, f := range []func() error{v.refMatchShadowPushes, v.refMatchReturnChecks, v.refMatchCFIGuards, v.checkReservedRegisters} {
			if err := f(); err != nil {
				return err
			}
		}
	}
	if req.Has(policy.P2) {
		if err := v.refMatchRSPGuards(); err != nil {
			return err
		}
	}
	if req.Has(policy.P1) || req.Has(policy.P3) || req.Has(policy.P4) {
		return v.refMatchStoreGuards(storeGuardOwner(req))
	}
	return nil
}

// DiffReference verifies text with the table-driven matcher and with the
// reference matchers and describes the first difference in the template
// verdict, Violation, Stats, annotation ranges and marks, store/RSP anchors,
// or the final verdict of the rest of Verify ("" when they agree). One
// difference is deliberate: the reference keeps the trap stub of an AEX
// check that failed to match in its ranges. When that is the only
// difference after the template phase, the runs agree by definition and
// the rest of Verify (which reads the ranges) is not compared.
func DiffReference(text []byte, opts Options) string {
	got, want := &verifier{}, &verifier{}
	if err := got.setup(text, opts); err != nil {
		return "" // rejected before any template matching
	}
	want.setup(text, opts)
	gotErr, wantErr := got.matchTemplates(), want.refMatchTemplates()
	if g, w := errText(gotErr), errText(wantErr); g != w {
		return fmt.Sprintf("template verdict: got %s, reference %s", g, w)
	}
	if gotErr != nil {
		return ""
	}
	if got.stats != want.stats {
		return fmt.Sprintf("stats: got %+v, reference %+v", got.stats, want.stats)
	}
	if !reflect.DeepEqual(got.storeAnchors, want.storeAnchors) || !reflect.DeepEqual(got.rspAnchors, want.rspAnchors) {
		return fmt.Sprintf("anchors: got %v %v, reference %v %v", got.storeAnchors, got.rspAnchors, want.storeAnchors, want.rspAnchors)
	}
	if !reflect.DeepEqual(got.ranges, want.ranges) {
		if staleAEXTraps(want, got.ranges) {
			return ""
		}
		return fmt.Sprintf("ranges: got %v, reference %v", got.ranges, want.ranges)
	}
	if !reflect.DeepEqual(got.marks, want.marks) {
		return "instruction marks differ"
	}
	gotRes, gotErr := got.finish()
	wantRes, wantErr := want.finish()
	if g, w := resultText(gotRes, gotErr), resultText(wantRes, wantErr); g != w {
		return fmt.Sprintf("verdict: got %s, reference %s", g, w)
	}
	return ""
}

// staleAEXTraps reports whether the reference's ranges are ranges plus
// extra single-instruction AEX trap stubs.
func staleAEXTraps(ref *verifier, ranges []Range) bool {
	k := 0
	for _, r := range ref.ranges {
		if k < len(ranges) && r == ranges[k] {
			k++
			continue
		}
		in, ok := ref.dis.At(r.Lo)
		if !ok || in.End() != r.Hi || in.Op != isa.OpTrap || in.Imm != int64(isa.TrapAEXBudget) {
			return false
		}
	}
	return k == len(ranges)
}

func errText(err error) string {
	if err == nil {
		return "accepted"
	}
	return err.Error()
}

func resultText(res *Result, err error) string {
	if err != nil {
		return err.Error()
	}
	return fmt.Sprintf("accepted %+v %v %+v", res.Stats, res.AnnotRanges, res.CFA)
}

// back returns the n-th linear predecessor of instruction i: each step goes
// to the previous instruction, provided it ends exactly where the current
// one starts.
func (v *verifier) back(i, n int) (disasm.Inst, bool) {
	insts := v.dis.Insts
	for ; n > 0; n-- {
		if i == 0 || insts[i-1].End() != insts[i].Off {
			return disasm.Inst{}, false
		}
		i--
	}
	return insts[i], true
}

// next returns the linear successor of the instruction at off.
func (v *verifier) next(in disasm.Inst) (disasm.Inst, bool) {
	return v.dis.At(in.End())
}

// trapTargetIs checks that a conditional branch lands on a TRAP with the
// expected code, and marks the trap as annotation code owned by id.
func (v *verifier) trapTargetIs(j disasm.Inst, code isa.TrapCode, id policy.ID) bool {
	t, ok := v.dis.At(disasm.DirectTarget(j))
	if !ok || t.Op != isa.OpTrap || t.Imm != int64(code) {
		return false
	}
	v.addRange(t.Off, t.End(), id)
	return true
}

// aexCheckShape matches the 12-instruction SSA-marker inspection sequence
// starting at in. On success it returns the end offset.
func (v *verifier) aexCheckShape(in disasm.Inst) (int64, bool) {
	if in.Op != isa.OpPush || in.Dst != isa.RAX {
		return 0, false
	}
	load, ok := v.next(in)
	if !ok || load.Op != isa.OpMovRM || load.Dst != isa.RAX || !isAbs(load.Mem, policy.MagicSSAMarkerDisp) {
		return 0, false
	}
	cmp, ok := v.next(load)
	if !ok || cmp.Op != isa.OpCmpRI || cmp.Dst != isa.RAX || cmp.Imm != int64(uint64(policy.SSAMarkerMagic)) {
		return 0, false
	}
	je, ok := v.next(cmp)
	if !ok || je.Op != isa.OpJcc || je.Cond != isa.CondE {
		return 0, false
	}
	ldc, ok := v.next(je)
	if !ok || ldc.Op != isa.OpMovRM || ldc.Dst != isa.RAX || !isAbs(ldc.Mem, policy.MagicAEXCountDisp) {
		return 0, false
	}
	add, ok := v.next(ldc)
	if !ok || add.Op != isa.OpAddRI || add.Dst != isa.RAX || add.Imm != 1 {
		return 0, false
	}
	stc, ok := v.next(add)
	if !ok || stc.Op != isa.OpMovMR || stc.Src != isa.RAX || !isAbs(stc.Mem, policy.MagicAEXCountDisp) {
		return 0, false
	}
	rearm, ok := v.next(stc)
	if !ok || rearm.Op != isa.OpMovMI || !isAbs(rearm.Mem, policy.MagicSSAMarkerDisp) || rearm.Imm != int64(uint64(policy.SSAMarkerMagic)) {
		return 0, false
	}
	thr, ok := v.next(rearm)
	if !ok || thr.Op != isa.OpCmpRI || thr.Dst != isa.RAX || thr.Imm <= 0 {
		return 0, false
	}
	ja, ok := v.next(thr)
	if !ok || ja.Op != isa.OpJcc || ja.Cond != isa.CondA {
		return 0, false
	}
	if !v.trapTargetIs(ja, isa.TrapAEXBudget, policy.P6) {
		return 0, false
	}
	pop, ok := v.next(ja)
	if !ok || pop.Op != isa.OpPop || pop.Dst != isa.RAX {
		return 0, false
	}
	// The early-out branch must land exactly on the final pop.
	if disasm.DirectTarget(je) != pop.Off {
		return 0, false
	}
	return pop.End(), true
}

func isAbs(m isa.MemRef, disp int32) bool {
	return !m.HasBase && !m.HasIndex && m.Disp == disp
}

// matchP6Arming accepts the marker/counter arming pair, but only as the
// very first instructions at the program entry: anywhere else a store to
// the AEX counter would let the program reset its own exit budget.
func (v *verifier) refMatchP6Arming() error {
	arm, ok := v.dis.At(v.opts.EntryOffset)
	if !ok || arm.Op != isa.OpMovMI || !isAbs(arm.Mem, policy.MagicSSAMarkerDisp) ||
		arm.Imm != int64(uint64(policy.SSAMarkerMagic)) {
		return v.violation(policy.P6, v.opts.EntryOffset, "entry does not arm the SSA marker (P6)")
	}
	clr, ok := v.next(arm)
	if !ok || clr.Op != isa.OpMovMI || !isAbs(clr.Mem, policy.MagicAEXCountDisp) || clr.Imm != 0 {
		return v.violation(policy.P6, arm.End(), "entry does not zero the AEX counter (P6)")
	}
	v.addRange(arm.Off, clr.End(), policy.P6)
	return nil
}

// shadowPushShape matches the function-entry shadow push starting at off.
func (v *verifier) shadowPushShape(off int64) (int64, bool) {
	push, ok := v.dis.At(off)
	if !ok || push.Op != isa.OpPush || push.Dst != isa.RAX {
		return 0, false
	}
	ld, ok := v.next(push)
	if !ok || ld.Op != isa.OpMovRM || ld.Dst != isa.RAX ||
		!ld.Mem.HasBase || ld.Mem.Base != isa.RSP || ld.Mem.HasIndex || ld.Mem.Disp != 8 {
		return 0, false
	}
	st, ok := v.next(ld)
	if !ok || st.Op != isa.OpMovMR || st.Src != isa.RAX ||
		!st.Mem.HasBase || st.Mem.Base != isa.RegShadow || st.Mem.HasIndex || st.Mem.Disp != 0 {
		return 0, false
	}
	add, ok := v.next(st)
	if !ok || add.Op != isa.OpAddRI || add.Dst != isa.RegShadow || add.Imm != 8 {
		return 0, false
	}
	pop, ok := v.next(add)
	if !ok || pop.Op != isa.OpPop || pop.Dst != isa.RAX {
		return 0, false
	}
	return pop.End(), true
}

// returnCheckShape matches the pre-return shadow check ending right before
// the RET at instruction ret.
func (v *verifier) returnCheckShape(ret int) (int64, bool) {
	first, ok := v.back(ret, 9)
	if !ok || first.Op != isa.OpPush || first.Dst != isa.RAX {
		return 0, false
	}
	p2, ok := v.next(first)
	if !ok || p2.Op != isa.OpPush || p2.Dst != isa.RBX {
		return 0, false
	}
	sub, ok := v.next(p2)
	if !ok || sub.Op != isa.OpSubRI || sub.Dst != isa.RegShadow || sub.Imm != 8 {
		return 0, false
	}
	lds, ok := v.next(sub)
	if !ok || lds.Op != isa.OpMovRM || lds.Dst != isa.RAX ||
		!lds.Mem.HasBase || lds.Mem.Base != isa.RegShadow || lds.Mem.HasIndex || lds.Mem.Disp != 0 {
		return 0, false
	}
	ldr, ok := v.next(lds)
	if !ok || ldr.Op != isa.OpMovRM || ldr.Dst != isa.RBX ||
		!ldr.Mem.HasBase || ldr.Mem.Base != isa.RSP || ldr.Mem.HasIndex || ldr.Mem.Disp != 16 {
		return 0, false
	}
	cmp, ok := v.next(ldr)
	if !ok || cmp.Op != isa.OpCmpRR || cmp.Dst != isa.RAX || cmp.Src != isa.RBX {
		return 0, false
	}
	jne, ok := v.next(cmp)
	if !ok || jne.Op != isa.OpJcc || jne.Cond != isa.CondNE || !v.trapTargetIs(jne, isa.TrapShadowStack, policy.P5) {
		return 0, false
	}
	popB, ok := v.next(jne)
	if !ok || popB.Op != isa.OpPop || popB.Dst != isa.RBX {
		return 0, false
	}
	popA, ok := v.next(popB)
	if !ok || popA.Op != isa.OpPop || popA.Dst != isa.RAX {
		return 0, false
	}
	return first.Off, popA.End() == v.dis.Insts[ret].Off
}

func (v *verifier) cfiGuardShape(br int, target isa.Reg) (int64, bool) {
	first, ok := v.back(br, 9)
	if !ok || first.Op != isa.OpPush || first.Dst != isa.RBX {
		return 0, false
	}
	p2, ok := v.next(first)
	if !ok || p2.Op != isa.OpPush || p2.Dst != isa.RCX {
		return 0, false
	}
	ld, ok := v.next(p2)
	if !ok || ld.Op != isa.OpMovRM || ld.Dst != isa.RBX ||
		!ld.Mem.HasBase || ld.Mem.Base != target || ld.Mem.HasIndex || ld.Mem.Disp != 0 {
		return 0, false
	}
	mv, ok := v.next(ld)
	if !ok || mv.Op != isa.OpMovRI || mv.Dst != isa.RCX || uint64(mv.Imm) != ^isa.BrMarkPattern() {
		return 0, false
	}
	not, ok := v.next(mv)
	if !ok || not.Op != isa.OpNot || not.Dst != isa.RCX {
		return 0, false
	}
	cmp, ok := v.next(not)
	if !ok || cmp.Op != isa.OpCmpRR || cmp.Dst != isa.RBX || cmp.Src != isa.RCX {
		return 0, false
	}
	jne, ok := v.next(cmp)
	if !ok || jne.Op != isa.OpJcc || jne.Cond != isa.CondNE || !v.trapTargetIs(jne, isa.TrapCFI, policy.P5) {
		return 0, false
	}
	popC, ok := v.next(jne)
	if !ok || popC.Op != isa.OpPop || popC.Dst != isa.RCX {
		return 0, false
	}
	popB, ok := v.next(popC)
	if !ok || popB.Op != isa.OpPop || popB.Dst != isa.RBX {
		return 0, false
	}
	return first.Off, popB.End() == v.dis.Insts[br].Off
}

func (v *verifier) rspGuardShape(afterOff int64) (int64, bool) {
	cmpLo, ok := v.dis.At(afterOff)
	if !ok || cmpLo.Op != isa.OpCmpRI || cmpLo.Dst != isa.RSP || cmpLo.Imm != policy.MagicStackLo {
		return 0, false
	}
	jb, ok := v.next(cmpLo)
	if !ok || jb.Op != isa.OpJcc || jb.Cond != isa.CondB || !v.trapTargetIs(jb, isa.TrapStackBounds, policy.P2) {
		return 0, false
	}
	cmpHi, ok := v.next(jb)
	if !ok || cmpHi.Op != isa.OpCmpRI || cmpHi.Dst != isa.RSP || cmpHi.Imm != policy.MagicStackHi {
		return 0, false
	}
	ja, ok := v.next(cmpHi)
	if !ok || ja.Op != isa.OpJcc || ja.Cond != isa.CondA || !v.trapTargetIs(ja, isa.TrapStackBounds, policy.P2) {
		return 0, false
	}
	return ja.End(), true
}

func (v *verifier) storeGuardShape(st int, id policy.ID) (int64, bool) {
	expect := v.dis.Insts[st].Mem
	if expect.HasBase && expect.Base == isa.RSP {
		expect.Disp += 16
	}
	if expect.Scale == 0 {
		expect.Scale = 1
	}
	first, ok := v.back(st, 11)
	if !ok || first.Op != isa.OpPush || first.Dst != isa.RBX {
		return 0, false
	}
	p2, ok := v.next(first)
	if !ok || p2.Op != isa.OpPush || p2.Dst != isa.RAX {
		return 0, false
	}
	lea, ok := v.next(p2)
	if !ok || lea.Op != isa.OpLea || lea.Dst != isa.RAX || lea.Mem != expect {
		return 0, false
	}
	mvLo, ok := v.next(lea)
	if !ok || mvLo.Op != isa.OpMovRI || mvLo.Dst != isa.RBX || mvLo.Imm != policy.MagicStoreLo {
		return 0, false
	}
	cmpLo, ok := v.next(mvLo)
	if !ok || cmpLo.Op != isa.OpCmpRR || cmpLo.Dst != isa.RAX || cmpLo.Src != isa.RBX {
		return 0, false
	}
	jb, ok := v.next(cmpLo)
	if !ok || jb.Op != isa.OpJcc || jb.Cond != isa.CondB || !v.trapTargetIs(jb, isa.TrapStoreBounds, id) {
		return 0, false
	}
	mvHi, ok := v.next(jb)
	if !ok || mvHi.Op != isa.OpMovRI || mvHi.Dst != isa.RBX || mvHi.Imm != policy.MagicStoreHi {
		return 0, false
	}
	cmpHi, ok := v.next(mvHi)
	if !ok || cmpHi.Op != isa.OpCmpRR || cmpHi.Dst != isa.RAX || cmpHi.Src != isa.RBX {
		return 0, false
	}
	jae, ok := v.next(cmpHi)
	if !ok || jae.Op != isa.OpJcc || jae.Cond != isa.CondAE || !v.trapTargetIs(jae, isa.TrapStoreBounds, id) {
		return 0, false
	}
	popA, ok := v.next(jae)
	if !ok || popA.Op != isa.OpPop || popA.Dst != isa.RAX {
		return 0, false
	}
	popB, ok := v.next(popA)
	if !ok || popB.Op != isa.OpPop || popB.Dst != isa.RBX {
		return 0, false
	}
	return first.Off, popB.End() == v.dis.Insts[st].Off
}

func (v *verifier) refMatchAEXChecks() error {
	for i, in := range v.dis.Insts {
		if end, ok := v.aexCheckShape(in); ok {
			v.marks[i].check = true
			v.addRange(in.Off, end, policy.P6)
			v.stats.AEXChecks++
		}
	}
	if v.stats.AEXChecks == 0 {
		return v.violation(policy.P6, 0, "P6 required but no AEX checks found")
	}
	return nil
}

// matchShadowPushes requires a shadow push at every direct-call target and
// at every listed indirect target that is callable (beacon + shadow push);
// listed jump-table labels carry a beacon but no push, which is safe: a
// forged call there still cannot return past the shadow check.
func (v *verifier) refMatchShadowPushes() error {
	seen := make([]bool, len(v.dis.Insts)) // per call target
	for _, in := range v.dis.Insts {
		if in.Op != isa.OpCall {
			continue
		}
		t := disasm.DirectTarget(in)
		ti, ok := v.dis.Index(t)
		if !ok {
			return v.violation(policy.P5, t, "call target lacks shadow-stack entry push (P5)")
		}
		if seen[ti] {
			continue
		}
		seen[ti] = true
		if t == v.opts.EntryOffset {
			continue
		}
		start := t
		if bm := v.dis.Insts[ti]; bm.Op == isa.OpBrMark {
			start = bm.End()
		}
		end, ok := v.shadowPushShape(start)
		if !ok {
			return v.violation(policy.P5, t, "call target lacks shadow-stack entry push (P5)")
		}
		v.addRange(start, end, policy.P5)
		v.stats.ShadowPushes++
	}
	// Listed targets beginning with beacon+push are functions; record
	// their push ranges too so coverage rules know them.
	for _, t := range v.opts.BranchTargetOffsets {
		if ti, ok := v.dis.Index(t); ok && !seen[ti] && v.dis.Insts[ti].Op == isa.OpBrMark {
			bm := v.dis.Insts[ti]
			if end, ok := v.shadowPushShape(bm.End()); ok {
				v.addRange(bm.End(), end, policy.P5)
				v.stats.ShadowPushes++
			}
		}
	}
	return nil
}

func (v *verifier) refMatchReturnChecks() error {
	for i, in := range v.dis.Insts {
		if in.Op != isa.OpRet {
			continue
		}
		lo, ok := v.returnCheckShape(i)
		if !ok {
			return v.violation(policy.P5, in.Off, "return without shadow-stack check (P5)")
		}
		v.addRange(lo, in.Off, policy.P5)
		v.marks[i].guarded = true
		v.stats.ShadowChecks++
	}
	return nil
}

func (v *verifier) refMatchCFIGuards() error {
	for i, in := range v.dis.Insts {
		if !in.Op.IsIndirectBranch() {
			continue
		}
		if in.Dst == isa.RSP || in.Dst == isa.RegShadow {
			return v.violation(policy.P5, in.Off, "indirect branch through reserved register %v", in.Dst)
		}
		lo, ok := v.cfiGuardShape(i, in.Dst)
		if !ok {
			return v.violation(policy.P5, in.Off, "indirect branch without CFI guard (P5)")
		}
		v.addRange(lo, in.Off, policy.P5)
		v.marks[i].guarded = true
		v.stats.CFIGuards++
	}
	return nil
}

func (v *verifier) refMatchRSPGuards() error {
	for i, in := range v.dis.Insts {
		if v.marks[i].annotated || !in.Inst.ModifiesRSP() {
			continue
		}
		end, ok := v.rspGuardShape(in.End())
		if !ok {
			return v.violation(policy.P2, in.Off, "explicit RSP write without stack-bounds check (P2)")
		}
		v.addRange(in.End(), end, policy.P2)
		v.marks[i].guarded = true
		v.rspAnchors = append(v.rspAnchors, rspAnchor{write: in.Off, lo: in.End(), hi: end})
		v.stats.RSPGuards++
	}
	return nil
}

func (v *verifier) refMatchStoreGuards(id policy.ID) error {
	for i, in := range v.dis.Insts {
		if v.marks[i].annotated || !in.Op.IsStore() {
			continue // stores inside verified annotations are trusted
		}
		lo, ok := v.storeGuardShape(i, id)
		if !ok {
			return v.violation(id, in.Off, "store without bounds check (P1)")
		}
		v.addRange(lo, in.Off, id)
		v.marks[i].guarded = true
		var regs uint16
		if in.Mem.HasBase {
			regs |= 1 << in.Mem.Base
		}
		if in.Mem.HasIndex {
			regs |= 1 << in.Mem.Index
		}
		v.storeAnchors = append(v.storeAnchors, storeAnchor{store: in.Off, lo: lo, regs: regs, policy: id})
		v.stats.StoreGuards++
	}
	return nil
}
