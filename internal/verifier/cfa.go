package verifier

// Control-flow-analysis passes (paper Section V-B hardening). The template
// matchers prove each annotation is present and well-formed; the passes here
// prove the *global* claims the templates cannot express locally:
//
//   - dominance: a P1 bounds check must dominate its store — no path from
//     the entry or any listed target reaches the store without executing
//     the check. A template match alone accepts `jmp store` skipping the
//     guard, because the store offset itself is not inside the annotation
//     range and so passes branch discipline.
//   - reaching-defs: between the check and the store no path may redefine
//     a register the checked address was computed from, or a loop could
//     re-enter the store with a hostile base after passing the check once.
//   - dead-byte: every text byte must be covered by the recursive-descent
//     decode; uncovered bytes are potential side-loaded code (P4/P5).
//   - target-list: each proof-listed indirect target must be listed
//     exactly once (P5).
//
// All passes run over the internal/cfa graph, which (like this package) is
// TCB-resident and depends only on isa, disasm and the standard library.

import (
	"fmt"

	"deflection/internal/cfa"
	"deflection/internal/disasm"
	"deflection/internal/isa"
	"deflection/internal/order"
	"deflection/internal/policy"
	"deflection/internal/taint"
)

// CFAStats summarises the control-flow-analysis passes of an acceptance.
type CFAStats struct {
	// Blocks and Edges size the recovered CFG (virtual root excluded).
	Blocks, Edges int
	// Anchors counts the P1 store guards and P2 RSP guards the dominance
	// pass re-verified.
	Anchors int
	// Targets counts the proof-listed indirect targets cross-checked.
	Targets int
	// Secrets counts the declared P7 taint sources the taint pass analysed
	// (0 when P7 is not required or nothing was tagged).
	Secrets int
	// TaintFuncs and TaintedRanges summarise the taint fixpoint: functions
	// analysed and distinct tainted data intervals at convergence.
	TaintFuncs, TaintedRanges int
	// TaintTrivial is set when P7 held without analysis (no secret buffers
	// tagged, so no instruction can introduce taint).
	TaintTrivial bool
	// OrderStates is the declared protocol's state count; OrderCtxs the
	// number of (function, entry state) contexts the order fixpoint
	// analysed; OrderFuncs the functions it partitioned.
	OrderStates, OrderCtxs, OrderFuncs int
	// OrderTrivial is set when P8 held without analysis (no interface
	// protocol declared, so there is no order to violate).
	OrderTrivial bool
}

// cfaViolation builds a structured rejection attributed to a CFA pass.
func (v *verifier) cfaViolation(pass string, id policy.ID, off int64, format string, args ...any) error {
	e := v.violation(id, off, format, args...).(*Violation)
	e.Pass = pass
	return e
}

// runCFA recovers the CFG and runs the target-list, dead-byte, dominance,
// taint and order passes, filling res.CFA. Each runs in its own cfa/* span;
// the taint and order passes are the whole of P7's and P8's checks.
func (v *verifier) runCFA(req policy.Set, res *Result) error {
	tr, c := v.opts.Trace, &res.CFA
	tm := tr.Start("cfa/build")
	g := cfa.Build(v.dis, v.opts.EntryOffset, v.opts.BranchTargetOffsets)
	c.Blocks = len(g.Blocks) - 1
	c.Edges = g.Edges
	tm.End("blocks", c.Blocks, "edges", c.Edges)

	if req.Has(policy.P5) {
		tm = tr.Start("cfa/targets")
		err := v.targetListPass(res)
		if endSpan(tm, err, "targets", c.Targets) != nil {
			return err
		}
	}
	if req.Has(policy.P4) || req.Has(policy.P5) {
		tm = tr.Start("cfa/deadbyte")
		if err := endSpan(tm, v.deadBytePass(g, req), "dead_bytes", 0); err != nil {
			return err
		}
	}
	tm = tr.Start("cfa/dominance")
	err := v.dominancePass(g, res)
	if endSpan(tm, err, "anchors", c.Anchors) != nil {
		return err
	}
	if req.Has(policy.P7) {
		tm = tr.Start("cfa/taint")
		err := v.taintPass(g, res)
		if endSpan(tm, err, "secrets", c.Secrets, "funcs", c.TaintFuncs, "tainted_ranges", c.TaintedRanges) != nil {
			return err
		}
	}
	if req.Has(policy.P8) {
		tm = tr.Start("cfa/order")
		err := v.orderPass(g, res)
		return endSpan(tm, err, "states", c.OrderStates, "funcs", c.OrderFuncs, "contexts", c.OrderCtxs)
	}
	return nil
}

// orderPass runs the P8 interface-orderliness analysis over the recovered
// CFG and turns its outcome into the verdict.
func (v *verifier) orderPass(g *cfa.Graph, res *Result) error {
	rep, err := order.Analyze(g, v.opts.Order)
	var findings []cfa.Finding
	if err == nil {
		if v.opts.OrderObserver != nil {
			v.opts.OrderObserver(rep)
		}
		res.CFA.OrderStates = rep.States
		res.CFA.OrderCtxs = rep.Ctxs
		res.CFA.OrderFuncs = rep.Funcs
		res.CFA.OrderTrivial = rep.Trivial
		findings = rep.Findings
	}
	return v.dataflowVerdict("order", policy.P8, findings, err)
}

// orderDetail renders the P8 audit line.
func orderDetail(s *CFAStats) string {
	if s.OrderTrivial || s.OrderStates == 0 {
		return "no interface protocol declared; P8 holds trivially"
	}
	return fmt.Sprintf("every interface event admitted by the %d-state protocol on all paths (%d functions, %d analysis contexts at fixpoint)",
		s.OrderStates, s.OrderFuncs, s.OrderCtxs)
}

// taintPass runs the P7 secret-taint analysis over the recovered CFG and
// turns its outcome into the verdict.
func (v *verifier) taintPass(g *cfa.Graph, res *Result) error {
	cfg := v.opts.Taint
	for _, a := range v.storeAnchors {
		cfg.Guarded = append(cfg.Guarded, a.store)
	}
	rep, err := taint.Analyze(g, cfg)
	var findings []cfa.Finding
	if err == nil {
		if v.opts.TaintObserver != nil {
			v.opts.TaintObserver(rep)
		}
		res.CFA.Secrets = len(v.opts.Taint.Secrets)
		res.CFA.TaintFuncs = rep.Funcs
		res.CFA.TaintedRanges = rep.MemRanges
		res.CFA.TaintTrivial = rep.Trivial
		findings = rep.Findings
	}
	return v.dataflowVerdict("taint", policy.P7, findings, err)
}

// dataflowVerdict converts a dataflow pass's outcome into a structured
// rejection: any analysis error (ill-formed input, budget blow-up) is a
// conservative rejection, never an acceptance; otherwise the first finding
// in address order rejects.
func (v *verifier) dataflowVerdict(pass string, id policy.ID, findings []cfa.Finding, err error) error {
	if err != nil {
		return v.cfaViolation(pass, id, 0, "%s analysis failed: %v", pass, err)
	}
	if len(findings) > 0 {
		f := findings[0]
		return v.cfaViolation(pass, id, f.Off, "%s: %s", f.Kind, f.Msg)
	}
	return nil
}

// taintDetail renders the P7 audit line.
func taintDetail(s *CFAStats) string {
	if s.TaintTrivial || s.Secrets == 0 {
		return "no secret buffers tagged; P7 holds trivially"
	}
	return fmt.Sprintf("%d secret buffers confined to the sealed output across %d functions (%d tainted data intervals at fixpoint)",
		s.Secrets, s.TaintFuncs, s.TaintedRanges)
}

// targetListPass cross-checks the proof's indirect-branch target list: each
// entry must be listed exactly once. (Verify rejected entries outside text,
// every entry is a disassembly entry and so a decoded instruction start,
// and cfa.Build gives each an edge from the virtual root.)
func (v *verifier) targetListPass(res *Result) error {
	seen := make(map[int64]bool, len(v.opts.BranchTargetOffsets))
	for _, t := range v.opts.BranchTargetOffsets {
		if seen[t] {
			return v.cfaViolation("target-list", policy.P5, t, "indirect target listed twice")
		}
		seen[t] = true
		res.CFA.Targets++
	}
	return nil
}

// deadBytePass rejects text bytes no decoded instruction covers: they are
// unreachable from the entry and the branch-target list, so a compliant
// generator never emits them and they could hide side-loaded code. The
// finding is attributed to P4 (software DEP) when required, else P5.
func (v *verifier) deadBytePass(g *cfa.Graph, req policy.Set) error {
	dead := g.DeadRanges(len(v.text))
	if len(dead) == 0 {
		return nil
	}
	var total int64
	for _, r := range dead {
		total += r.Hi - r.Lo
	}
	id := policy.P4
	if !req.Has(policy.P4) {
		id = policy.P5
	}
	return v.cfaViolation("dead-byte", id, dead[0].Lo,
		"%d text bytes in %d ranges unreachable from entry and branch-target list (first [%#x,%#x)): potential side-loaded code",
		total, len(dead), dead[0].Lo, dead[0].Hi)
}

// dominancePass proves every template-verified P1/P2 guard un-bypassable.
//
// P1 store anchors: the annotation's first instruction must dominate the
// store (every root-to-store path executes the check), and no path from the
// check to the store may redefine a register the checked address depends on.
//
// P2 RSP anchors: the check follows the write, so the theorem is inverted —
// the write must fall through into the check (unique successor) and no
// control flow may enter the check sequence mid-way, which together mean
// every RSP modification is checked before any other instruction runs.
func (v *verifier) dominancePass(g *cfa.Graph, res *Result) error {
	for _, a := range v.storeAnchors {
		if !g.DominatesInst(a.lo, a.store) {
			return v.cfaViolation("dominance", a.policy, a.store,
				"bounds check at %#x does not dominate the store: a path reaches the store without it", a.lo)
		}
		if err := v.checkClobberFree(g, a); err != nil {
			return err
		}
		res.CFA.Anchors++
	}
	for _, a := range v.rspAnchors {
		in, ok := v.dis.At(a.write)
		if !ok || in.Op.IsBranch() || in.End() != a.lo {
			return v.cfaViolation("dominance", policy.P2, a.write,
				"RSP write does not fall through into its stack-bounds check at %#x", a.lo)
		}
		// No edge may enter the check sequence anywhere but its start (a
		// jump to the start merely re-runs the full check, which is safe;
		// an interior entry would run only half the bounds comparison).
		cur := a.lo
		for cur < a.hi {
			ci, ok := v.dis.At(cur)
			if !ok {
				break
			}
			if cur != a.lo {
				for _, p := range g.InstPreds(cur) {
					if p < a.write || p >= a.hi {
						return v.cfaViolation("dominance", policy.P2, cur,
							"stack-bounds check at %#x enterable mid-sequence from %#x", a.lo, p)
					}
				}
			}
			cur = ci.End()
		}
		res.CFA.Anchors++
	}
	return nil
}

// checkClobberFree walks the CFG backwards from the guarded store and
// rejects if any instruction on a check-to-store path redefines a register
// the checked address was computed from. The walk stops at the anchor's own
// annotation instructions (the check just ran and the template guarantees
// the annotation restores every register it touches), so only genuinely
// intervening code — loop latches, side entries — is inspected.
func (v *verifier) checkClobberFree(g *cfa.Graph, a storeAnchor) error {
	if a.regs == 0 {
		return nil
	}
	visited := map[int64]bool{a.store: true}
	queue := []int64{a.store}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, p := range g.InstPreds(cur) {
			if p >= a.lo && p < a.store {
				continue // inside this anchor's annotation: path is checked
			}
			if visited[p] {
				continue
			}
			visited[p] = true
			in, ok := v.dis.At(p)
			if !ok {
				continue
			}
			if r, hit := writesAny(in, a.regs); hit {
				return v.cfaViolation("reaching-defs", a.policy, a.store,
					"register %v checked at %#x is redefined at %#x before the store", r, a.lo, p)
			}
			queue = append(queue, p)
		}
	}
	return nil
}

// writesAny reports the first register of mask written by in.
func writesAny(in disasm.Inst, mask uint16) (isa.Reg, bool) {
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		if mask&(1<<r) != 0 && in.Inst.WritesReg(r) {
			return r, true
		}
	}
	return 0, false
}
