// Package verifier implements the bootstrap enclave's policy-compliance
// verifier (paper Sections IV-D and V-B): a static pass over the relocated
// target binary that, guided by the indirect-branch target list delivered as
// the proof, performs just-enough recursive-descent disassembly and checks
// that every security annotation the code generator was supposed to plant is
// present, correctly formed, and impossible to bypass.
//
// The verifier is deliberately template-based rather than theorem-proving:
// the generator emits fixed instruction shapes (Fig. 5 of the paper), so the
// verifier only needs byte-precise pattern matching plus control-flow
// closure arguments — which is what keeps the in-enclave TCB small.
//
// Every acceptance produces a per-policy audit trail (PolicyAudit), and
// every rejection is a structured Violation naming the policy, the text
// offset and the disassembled instruction at the anchor — the evidence a
// data owner needs to decide *why* a proof was (not) accepted, not just
// whether. With Options.Trace set, each phase is also timed as a span of
// the caller's stage trace, the rejecting one with an error attribute.
package verifier

import (
	"encoding/binary"
	"errors"
	"fmt"

	"deflection/internal/cfa"
	"deflection/internal/disasm"
	"deflection/internal/isa"
	"deflection/internal/policy"
	"deflection/internal/stage"
	"deflection/internal/taint"
)

// ErrViolation is wrapped by every policy rejection.
var ErrViolation = errors.New("verifier: policy violation")

// Violation is a structured policy rejection: which policy fired, where in
// the text, and what instruction anchors the failure. It wraps
// ErrViolation, so errors.Is(err, ErrViolation) keeps working.
type Violation struct {
	// Policy is the policy whose check rejected the binary.
	Policy policy.ID
	// Offset is the text offset of the failure anchor.
	Offset int64
	// Instr is the disassembled instruction at Offset, when the offset
	// decodes to an instruction start ("" otherwise, e.g. for a stray
	// beacon byte pattern).
	Instr string
	// Msg describes the failed check.
	Msg string
	// Pass names the analysis pass that rejected the binary ("decode",
	// "dominance", "reaching-defs", "dead-byte", "target-list", "taint"
	// or "order"); empty for the template-matching checks.
	Pass string
}

func (e *Violation) Error() string {
	s := fmt.Sprintf("%v of %v at %#x", ErrViolation, e.Policy, e.Offset)
	if e.Instr != "" {
		s += fmt.Sprintf(" [%s]", e.Instr)
	}
	if e.Pass != "" {
		s += fmt.Sprintf(" (%s pass)", e.Pass)
	}
	return s + ": " + e.Msg
}

func (e *Violation) Unwrap() error { return ErrViolation }

// Range is a half-open [Lo, Hi) span of text offsets.
type Range struct{ Lo, Hi int64 }

// Options tunes verification.
type Options struct {
	// Required is the policy set the manifest demands; the binary is
	// rejected unless every required annotation is present.
	Required policy.Set
	// AEXCheckMaxGap bounds the number of un-annotated instructions
	// permitted between consecutive P6 checks on a straight-line path
	// (0 selects a default derived from the generator's q).
	AEXCheckMaxGap int
	// EntryOffset is the program entry (exempt from the function-entry
	// shadow-push requirement: it has no caller).
	EntryOffset int64
	// BranchTargetOffsets is the proof: the translated indirect-branch
	// target list.
	BranchTargetOffsets []int64
	// Taint carries the loaded memory geometry of the P7 taint pass: the
	// absolute secret-buffer ranges plus the store-window and stack
	// bounds. Ignored unless Required includes P7.
	Taint taint.Config
	// Order is the declared interface protocol of the P8 orderliness pass
	// (nil when the object declares none; the pass then holds trivially).
	// Ignored unless Required includes P8.
	Order *policy.Protocol
	// Trace, when non-nil, receives one span per verification phase in the
	// order the phases run: disasm, policy/<id> around each template phase
	// (P5 and P6 run in two phases each), discipline and the cfa/* passes.
	// A rejecting phase ends its span with an "error" attribute. An output
	// sink only; never influences the verdict.
	Trace *stage.Trace
}

// Stats counts verified annotations.
type Stats struct {
	StoreGuards  int
	RSPGuards    int
	CFIGuards    int
	ShadowPushes int
	ShadowChecks int
	AEXChecks    int
	Beacons      int
	Instructions int
}

// PolicyAudit is one policy's verdict in the audit trail of an accepted
// binary: whether the manifest required it, how many annotations satisfied
// it, and what its checks established.
type PolicyAudit struct {
	Policy   policy.ID
	Required bool
	Passed   bool
	Checks   int
	Detail   string
}

// Result is the verifier's report. Verify returns it for an accepted
// binary and, without an Audit, for a binary the P7 or P8 pass rejected,
// whose report then holds every finding (it is nil only when the analysis
// itself failed); every other rejection returns no Result.
type Result struct {
	Dis   *disasm.Result
	Stats Stats
	// AnnotRanges are the text-offset spans occupied by verified
	// annotations (including their trap stubs), used by the CPU timing
	// model and excluded from user-code policy anchors.
	AnnotRanges []Range
	// Audit holds one verdict per policy P1-P8 in ascending order.
	Audit []PolicyAudit
	// CFA summarises the structural control-flow-analysis passes.
	CFA CFAStats
	// Taint and Order are the P7 and P8 reports: findings, per-block
	// masks and analysis effort (nil when the pass did not run).
	Taint *taint.Report
	Order *cfa.Report
}

type verifier struct {
	text []byte
	opts Options
	dis  *disasm.Result

	ranges []Range
	marks  []mark // per instruction of dis.Insts
	stats  Stats

	targetSet map[int64]bool

	// storeAnchors/rspAnchors are the annotated P1/P2 instructions the CFA
	// dominance pass re-verifies, collected by the template matchers.
	storeAnchors []storeAnchor
	rspAnchors   []rspAnchor
}

// mark is what the template matchers proved about one instruction.
type mark struct {
	annotated  bool      // inside a verified annotation range
	owner      policy.ID // the policy owning that annotation
	rangeStart bool      // first instruction of an annotation range
	guarded    bool      // anchor with a verified guard
	check      bool      // first instruction of a verified P6 check
}

// storeAnchor is one template-verified store guard: the guarded store, the
// annotation span that checks it, the registers the checked address is
// computed from, and the policy the guard is billed to.
type storeAnchor struct {
	store  int64 // offset of the guarded store instruction
	lo     int64 // annotation span is [lo, store)
	regs   uint16
	policy policy.ID
}

// rspAnchor is one template-verified RSP guard: the explicit RSP write and
// the bounds-check annotation span that follows it.
type rspAnchor struct {
	write  int64 // offset of the RSP-writing instruction
	lo, hi int64 // annotation span [lo, hi), lo == the write's end
}

// violation builds a structured rejection, resolving the instruction text
// at the anchor offset when one exists.
func (v *verifier) violation(id policy.ID, off int64, format string, args ...any) error {
	e := &Violation{Policy: id, Offset: off, Msg: fmt.Sprintf(format, args...)}
	if v.dis != nil {
		if in, ok := v.dis.At(off); ok {
			e.Instr = in.Inst.String()
		}
	}
	return e
}

// endSpan closes a phase's span: with an error attribute when the phase
// rejected the binary, else with the phase's attributes kv. It returns err.
func endSpan(tm *stage.Timer, err error, kv ...any) error {
	if err != nil {
		kv = []any{"error", err.Error()}
	}
	tm.End(kv...)
	return err
}

// policyPhase runs checks, one template phase of policy id, in a
// policy/<id> span that counts the annotations the phase verified.
func (v *verifier) policyPhase(id policy.ID, checks ...func() error) error {
	tm := v.opts.Trace.Start("policy/" + id.String())
	before := v.checks(id)
	for _, f := range checks {
		if err := f(); err != nil {
			return endSpan(tm, err)
		}
	}
	return endSpan(tm, nil, "required", true, "checks", v.checks(id)-before)
}

// checks counts the verified annotations that satisfy template policy id
// (P1-P6), as its audit entry reports them.
func (v *verifier) checks(id policy.ID) int {
	switch id {
	case policy.P1, policy.P3, policy.P4:
		return v.stats.StoreGuards
	case policy.P2:
		return v.stats.RSPGuards
	case policy.P5:
		return v.stats.CFIGuards + v.stats.ShadowChecks + v.stats.ShadowPushes
	default: // P6
		return v.stats.AEXChecks
	}
}

// Verify statically checks the relocated text against the required policy
// set. It must run before immediate rewriting (placeholder immediates are
// matched exactly).
func Verify(text []byte, opts Options) (*Result, error) {
	var v verifier
	if err := v.setup(text, opts); err != nil {
		return nil, err
	}
	if err := v.matchTemplates(); err != nil {
		return nil, err
	}
	return v.finish()
}

// setup disassembles text from the entry and the listed targets.
func (v *verifier) setup(text []byte, opts Options) error {
	if opts.AEXCheckMaxGap == 0 {
		opts.AEXCheckMaxGap = policy.DefaultAEXCheckInterval*2 + 64
	}
	tm := opts.Trace.Start("disasm")
	// Out-of-range proof targets get a structured rejection before they can
	// poison the disassembly entry queue.
	for _, t := range opts.BranchTargetOffsets {
		if t < 0 || t >= int64(len(text)) {
			return endSpan(tm, &Violation{Policy: policy.P5, Offset: t, Pass: "target-list",
				Msg: fmt.Sprintf("listed indirect target outside text (len %d)", len(text))})
		}
	}
	entries := append([]int64{opts.EntryOffset}, opts.BranchTargetOffsets...)
	dis, err := disasm.Disassemble(text, entries)
	if err != nil {
		// Undecodable or overlapping control flow defeats the CFI trust
		// argument, so rejection is attributed to P5's decode stage.
		return endSpan(tm, &Violation{Policy: policy.P5, Pass: "decode", Msg: err.Error()})
	}
	tm.End("instructions", len(dis.Insts), "blocks", dis.Blocks())
	*v = verifier{
		text:      text,
		opts:      opts,
		dis:       dis,
		marks:     make([]mark, len(dis.Insts)),
		targetSet: make(map[int64]bool, len(opts.BranchTargetOffsets)),
	}
	for _, t := range opts.BranchTargetOffsets {
		v.targetSet[t] = true
	}
	v.stats.Instructions = len(dis.Insts)
	return nil
}

// matchTemplates runs the template checks of the required policies: the
// beacon checks and every annotation match, recording the annotation
// ranges, marks and anchors the later checks read.
func (v *verifier) matchTemplates() error {
	req := v.opts.Required
	if req.Has(policy.P5) {
		if err := v.policyPhase(policy.P5, v.checkBranchTargetBeacons, v.scanBeaconPattern); err != nil {
			return err
		}
	}
	if req.Has(policy.P6) {
		if err := v.policyPhase(policy.P6, v.matchP6Arming, v.matchAEXChecks); err != nil {
			return err
		}
	}
	if req.Has(policy.P5) {
		if err := v.policyPhase(policy.P5, v.matchShadowPushes, v.matchReturnChecks, v.matchCFIGuards, v.checkReservedRegisters); err != nil {
			return err
		}
	}
	if req.Has(policy.P2) {
		if err := v.policyPhase(policy.P2, v.matchRSPGuards); err != nil {
			return err
		}
	}
	if req.Has(policy.P1) || req.Has(policy.P3) || req.Has(policy.P4) {
		id := storeGuardOwner(req)
		if err := v.policyPhase(id, func() error { return v.matchStoreGuards(id) }); err != nil {
			return err
		}
	}
	return nil
}

// finish runs the closure checks over the matched annotations and the CFA
// passes, and builds the accepted-binary report.
func (v *verifier) finish() (*Result, error) {
	req := v.opts.Required
	tm := v.opts.Trace.Start("discipline")
	if err := endSpan(tm, v.checkBranchDiscipline(), "annotations", len(v.ranges)); err != nil {
		return nil, err
	}
	if req.Has(policy.P6) {
		if err := v.policyPhase(policy.P6, v.checkAEXCoverage); err != nil {
			return nil, err
		}
	}
	// Policies P3 and P4 need no check of their own: they are enforced by
	// the same store-bound range as P1 (the range excludes the SSA, shadow
	// stack, branch table and code pages), and matchStoreGuards left every
	// store outside an annotation guarded or rejected the binary.

	res := &Result{
		Dis:         v.dis,
		Stats:       v.stats,
		AnnotRanges: v.ranges,
	}
	g, err := v.runCFA(req, res)
	if err != nil {
		return nil, err
	}
	for _, id := range []policy.ID{policy.P7, policy.P8} {
		if req.Has(id) {
			if err := v.dataflowPass(g, id, res); err != nil {
				return res, err
			}
		}
	}
	res.Audit = v.buildAudit(req, res)
	return res, nil
}

// storeGuardOwner picks the policy the shared store-guard pass is billed
// to: P1 when required, else the first of P3/P4 that demands it.
func storeGuardOwner(req policy.Set) policy.ID {
	switch {
	case req.Has(policy.P1):
		return policy.P1
	case req.Has(policy.P3):
		return policy.P3
	default:
		return policy.P4
	}
}

// buildAudit assembles the per-policy verdict trail for an accepted binary
// from its report res.
func (v *verifier) buildAudit(req policy.Set, res *Result) []PolicyAudit {
	var audit []PolicyAudit
	for id := policy.P1; id <= policy.P8; id++ {
		a := PolicyAudit{Policy: id, Required: req.Has(id), Passed: true, Detail: "not required by manifest; skipped"}
		if a.Required {
			a.Checks, a.Detail = v.audit(id, res)
		}
		audit = append(audit, a)
	}
	return audit
}

// audit returns the check count and the detail line of required policy id.
func (v *verifier) audit(id policy.ID, res *Result) (int, string) {
	s := &v.stats
	switch id {
	case policy.P1:
		return v.checks(id), fmt.Sprintf("%d stores confined to the enclave data range by verified bounds guards; dominance pass proved all %d guards un-bypassable and clobber-free",
			s.StoreGuards, len(v.storeAnchors))
	case policy.P2:
		return v.checks(id), fmt.Sprintf("%d explicit RSP writes followed by verified stack-bounds checks; dominance pass proved all %d checks adjacent and un-bypassable",
			s.RSPGuards, len(v.rspAnchors))
	case policy.P3:
		return v.checks(id), fmt.Sprintf("store bounds exclude SSA, shadow stack and branch table; %d stores audited", s.StoreGuards)
	case policy.P4:
		return v.checks(id), fmt.Sprintf("store bounds exclude code pages (software DEP); %d stores audited; dead-byte pass found no unreachable text bytes", s.StoreGuards)
	case policy.P5:
		return v.checks(id), fmt.Sprintf("%d indirect branches CFI-guarded, %d returns shadow-checked, %d shadow pushes, %d listed-target beacons; %d listed targets cross-checked against the %d-block CFG",
			s.CFIGuards, s.ShadowChecks, s.ShadowPushes, s.Beacons, res.CFA.Targets, res.CFA.Blocks)
	case policy.P6:
		return v.checks(id), fmt.Sprintf("entry arming verified, %d SSA-marker checks, max straight-line gap %d", s.AEXChecks, v.opts.AEXCheckMaxGap)
	case policy.P7:
		n := len(v.opts.Taint.Secrets)
		return n, taintDetail(res.Taint, n)
	default: // P8
		n := v.protocolStates()
		return n, orderDetail(res.Order, n)
	}
}

// strictlyInRange reports whether off decodes to an instruction inside an
// annotation but not at its start, and the policy owning that annotation.
func (v *verifier) strictlyInRange(off int64) (policy.ID, bool) {
	i, _ := v.dis.Index(off) // direct-branch and listed targets are all decoded
	m := v.marks[i]
	return m.owner, m.annotated && !m.rangeStart
}

// addRange records [lo, hi) as verified annotation code owned by policy id,
// marking every decoded instruction inside it (ranges are short, so this
// stays linear in total annotation size).
func (v *verifier) addRange(lo, hi int64, id policy.ID) {
	v.ranges = append(v.ranges, Range{Lo: lo, Hi: hi})
	// Every range is a matched template or a trap stub its Jcc was checked
	// against: decoded instructions, contiguous in index order.
	i, _ := v.dis.Index(lo)
	v.marks[i].rangeStart = true
	for ; i < len(v.dis.Insts) && v.dis.Insts[i].Off < hi; i++ {
		v.marks[i].annotated, v.marks[i].owner = true, id
	}
}

// match reports whether the instructions from off on form template t, with
// its placeholder filled from anchor. On a match it records the trap stubs
// the template branches to and then the template's span as annotation code
// owned by id. It returns the end of the longest matching prefix (off when
// none matched).
func (v *verifier) match(t policy.Template, off int64, anchor isa.Inst, id policy.ID) (int64, bool) {
	// Every caller's off is decoded: an entry, a call target, an
	// instruction's own offset, or the end of a non-terminating one.
	first, _ := v.dis.Index(off)
	insts, steps := v.dis.Insts, t.Steps()
	end, local := off, int64(-1)
	for k := range steps {
		i, s := first+k, &steps[k]
		if i == len(insts) || insts[i].Off != end || insts[i].Op != s.Op || !v.fits(s, &insts[i], &anchor) {
			return end, false
		}
		if s.Local {
			local = disasm.DirectTarget(insts[i])
		}
		end = insts[i].End()
	}
	if local >= 0 && local != insts[first+len(steps)-1].Off {
		return end, false
	}
	for k := range steps {
		if steps[k].Trap != isa.TrapNone {
			trap, _ := v.dis.At(disasm.DirectTarget(insts[first+k]))
			v.addRange(trap.Off, trap.End(), id)
		}
	}
	v.addRange(off, end, id)
	return end, true
}

// matchBefore matches template t so that it ends exactly where instruction
// i, its anchor, begins, and returns the start of its span.
func (v *verifier) matchBefore(t policy.Template, i int, id policy.ID) (int64, bool) {
	insts := v.dis.Insts
	j := i - len(t.Steps())
	if j < 0 || insts[i-1].End() != insts[i].Off {
		return 0, false
	}
	_, ok := v.match(t, insts[j].Off, insts[i].Inst, id)
	return insts[j].Off, ok
}

// fits reports whether in, which has step s's opcode, also has its operands:
// those the opcode's format names, with the step's placeholder filled from
// anchor.
func (v *verifier) fits(s *policy.Step, in *disasm.Inst, anchor *isa.Inst) bool {
	want := s.With(anchor)
	imm := in.Imm == want.Imm
	if s.Fill == policy.FillPositive {
		imm = in.Imm > 0
	}
	mem := in.Mem == want.Mem
	if s.Fill != policy.FillStoreMem {
		// Base (if any) and displacement; the scale bits are ignored when
		// there is no index.
		mem = in.Mem.HasBase == want.Mem.HasBase && (!in.Mem.HasBase || in.Mem.Base == want.Mem.Base) &&
			!in.Mem.HasIndex && in.Mem.Disp == want.Mem.Disp
	}
	switch in.Op.Format() {
	case isa.FmtR:
		return in.Dst == want.Dst
	case isa.FmtRR:
		return in.Dst == want.Dst && in.Src == want.Src
	case isa.FmtRI:
		return in.Dst == want.Dst && imm
	case isa.FmtRM:
		return in.Dst == want.Dst && mem
	case isa.FmtMR:
		return in.Src == want.Src && mem
	case isa.FmtMI:
		return mem && imm
	default: // FmtCondRel: no template step has another format
		if in.Cond != want.Cond {
			return false
		}
		if s.Trap == isa.TrapNone {
			return true
		}
		trap, ok := v.dis.At(disasm.DirectTarget(*in))
		return ok && trap.Op == isa.OpTrap && trap.Imm == int64(s.Trap)
	}
}

// ---- P5: beacons ----

// checkBranchTargetBeacons: every entry of the branch-target list must point
// at a BRMARK instruction (the hint the verifier uses to trust the target).
func (v *verifier) checkBranchTargetBeacons() error {
	for _, t := range v.opts.BranchTargetOffsets {
		in, _ := v.dis.At(t) // every listed target is a disassembly entry
		if in.Op != isa.OpBrMark || in.Imm != isa.BrMarkMagic56 {
			return v.violation(policy.P5, t, "branch-target list entry lacks a BRMARK beacon")
		}
		v.stats.Beacons++
	}
	return nil
}

// scanBeaconPattern: the 8-byte beacon pattern must not occur anywhere in
// text except at listed targets — otherwise an indirect branch could pass
// the runtime check by jumping into the middle of an immediate.
func (v *verifier) scanBeaconPattern() error {
	pat := isa.BrMarkPattern()
	for off := 0; off+8 <= len(v.text); off++ {
		if binary.LittleEndian.Uint64(v.text[off:]) != pat {
			continue
		}
		if !v.targetSet[int64(off)] {
			return v.violation(policy.P5, int64(off), "BRMARK pattern outside the branch-target list")
		}
	}
	return nil
}

// ---- P6: AEX checks ----

// matchP6Arming accepts the marker/counter arming pair, but only as the
// very first instructions at the program entry: anywhere else a store to
// the AEX counter would let the program reset its own exit budget.
func (v *verifier) matchP6Arming() error {
	end, ok := v.match(policy.Arming, v.opts.EntryOffset, isa.Inst{}, policy.P6)
	switch {
	case ok:
		return nil
	case end == v.opts.EntryOffset:
		return v.violation(policy.P6, end, "entry does not arm the SSA marker (P6)")
	}
	return v.violation(policy.P6, end, "entry does not zero the AEX counter (P6)")
}

func (v *verifier) matchAEXChecks() error {
	// Only an instruction with the template's first opcode can start a
	// check; filtering on it keeps this every-instruction scan cheap.
	head := policy.AEXCheck.Steps()[0].Op
	for i, in := range v.dis.Insts {
		if in.Op != head {
			continue
		}
		if _, ok := v.match(policy.AEXCheck, in.Off, isa.Inst{}, policy.P6); ok {
			v.marks[i].check = true
			v.stats.AEXChecks++
		}
	}
	if v.stats.AEXChecks == 0 {
		return v.violation(policy.P6, 0, "P6 required but no AEX checks found")
	}
	return nil
}

// ---- P5: shadow stack ----

// matchShadowPushes requires a shadow push at every direct-call target and
// at every listed indirect target that is callable (beacon + shadow push);
// listed jump-table labels carry a beacon but no push, which is safe: a
// forged call there still cannot return past the shadow check.
func (v *verifier) matchShadowPushes() error {
	seen := make([]bool, len(v.dis.Insts)) // per call target
	for _, in := range v.dis.Insts {
		if in.Op != isa.OpCall {
			continue
		}
		t := disasm.DirectTarget(in)
		ti, _ := v.dis.Index(t) // Disassemble decodes every direct-call target
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
		if _, ok := v.match(policy.ShadowPush, start, isa.Inst{}, policy.P5); !ok {
			return v.violation(policy.P5, t, "call target lacks shadow-stack entry push (P5)")
		}
		v.stats.ShadowPushes++
	}
	// Listed targets beginning with beacon+push are functions; record
	// their push ranges too so coverage rules know them.
	for _, t := range v.opts.BranchTargetOffsets {
		if ti, ok := v.dis.Index(t); ok && !seen[ti] && v.dis.Insts[ti].Op == isa.OpBrMark {
			if _, ok := v.match(policy.ShadowPush, v.dis.Insts[ti].End(), isa.Inst{}, policy.P5); ok {
				v.stats.ShadowPushes++
			}
		}
	}
	return nil
}

func (v *verifier) matchReturnChecks() error {
	for i, in := range v.dis.Insts {
		if in.Op != isa.OpRet {
			continue
		}
		if _, ok := v.matchBefore(policy.ShadowCheck, i, policy.P5); !ok {
			return v.violation(policy.P5, in.Off, "return without shadow-stack check (P5)")
		}
		v.marks[i].guarded = true
		v.stats.ShadowChecks++
	}
	return nil
}

// ---- P5: forward-edge CFI ----

func (v *verifier) matchCFIGuards() error {
	for i, in := range v.dis.Insts {
		if !in.Op.IsIndirectBranch() {
			continue
		}
		if in.Dst == isa.RSP || in.Dst == isa.RegShadow {
			return v.violation(policy.P5, in.Off, "indirect branch through reserved register %v", in.Dst)
		}
		if _, ok := v.matchBefore(policy.CFIGuard, i, policy.P5); !ok {
			return v.violation(policy.P5, in.Off, "indirect branch without CFI guard (P5)")
		}
		v.marks[i].guarded = true
		v.stats.CFIGuards++
	}
	return nil
}

// checkReservedRegisters: user code must never write the shadow-stack
// pointer.
func (v *verifier) checkReservedRegisters() error {
	for i, in := range v.dis.Insts {
		if !v.marks[i].annotated && in.WritesReg(isa.RegShadow) {
			return v.violation(policy.P5, in.Off, "user instruction writes reserved shadow-stack register")
		}
	}
	return nil
}

// ---- P2: RSP guards ----

func (v *verifier) matchRSPGuards() error {
	for i, in := range v.dis.Insts {
		if v.marks[i].annotated || !in.Inst.ModifiesRSP() {
			continue
		}
		end, ok := v.match(policy.RSPGuard, in.End(), in.Inst, policy.P2)
		if !ok {
			return v.violation(policy.P2, in.Off, "explicit RSP write without stack-bounds check (P2)")
		}
		v.marks[i].guarded = true
		v.rspAnchors = append(v.rspAnchors, rspAnchor{write: in.Off, lo: in.End(), hi: end})
		v.stats.RSPGuards++
	}
	return nil
}

// ---- P1/P3/P4: store guards ----

func (v *verifier) matchStoreGuards(id policy.ID) error {
	for i, in := range v.dis.Insts {
		if v.marks[i].annotated || !in.Op.IsStore() {
			continue // stores inside verified annotations are trusted
		}
		lo, ok := v.matchBefore(policy.StoreGuard, i, id)
		if !ok {
			return v.violation(id, in.Off, "store without bounds check (P1)")
		}
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

// ---- control-flow discipline ----

// checkBranchDiscipline: no user branch may land strictly inside an
// annotation (which would bypass part of a check), and PUSH-less tricks to
// reach annotation tails are impossible because the disassembler already
// rejected mid-instruction targets.
func (v *verifier) checkBranchDiscipline() error {
	for i, in := range v.dis.Insts {
		switch in.Op {
		case isa.OpJmp, isa.OpJcc, isa.OpCall:
			if id, inside := v.strictlyInRange(disasm.DirectTarget(in)); inside && !v.marks[i].annotated {
				return v.violation(id, in.Off, "branch into the middle of a %v security annotation", id)
			}
		}
	}
	// Listed indirect targets must not point into annotations either.
	for _, t := range v.opts.BranchTargetOffsets {
		if id, inside := v.strictlyInRange(t); inside {
			return v.violation(id, t, "branch-target list entry inside a %v security annotation", id)
		}
	}
	return nil
}

// checkAEXCoverage enforces two closure rules that bound the number of user
// instructions executable between P6 checks on any path:
//
//  1. linearly, at most AEXCheckMaxGap un-annotated instructions separate
//     consecutive checks;
//  2. every user direct branch lands where a check (or a terminal trap/ret
//     stub) begins within a small prefix, so loops cannot skip checks.
func (v *verifier) checkAEXCoverage() error {
	gap := 0
	for i, in := range v.dis.Insts {
		if v.marks[i].check {
			gap = 0
			continue
		}
		if v.marks[i].annotated {
			continue
		}
		gap++
		if gap > v.opts.AEXCheckMaxGap {
			return v.violation(policy.P6, in.Off, "more than %d instructions without an AEX check (P6)", v.opts.AEXCheckMaxGap)
		}
	}

	for i, in := range v.dis.Insts {
		switch in.Op {
		case isa.OpJmp, isa.OpJcc, isa.OpCall:
			if !v.marks[i].annotated && !v.checkNearTarget(disasm.DirectTarget(in)) {
				return v.violation(policy.P6, in.Off, "branch target lacks a nearby AEX check (P6)")
			}
		}
	}
	return nil
}

// checkNearTarget walks forward from a branch target, skipping beacons and
// annotation code, and accepts if a P6 check (or a terminating instruction)
// appears before any user instruction.
func (v *verifier) checkNearTarget(t int64) bool {
	i, ok := v.dis.Index(t)
	for hops := 0; ok && hops < 256; hops++ {
		in := v.dis.Insts[i]
		switch {
		case v.marks[i].check:
			return true
		case in.Op == isa.OpTrap || in.Op == isa.OpHlt || in.Op == isa.OpRet:
			// Terminal stubs and returns execute O(1) user instructions.
			return true
		case in.Op != isa.OpBrMark && !v.marks[i].annotated:
			return false
		}
		i, ok = v.dis.Index(in.End())
	}
	return false
}
