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

// CFAStats summarises the structural control-flow-analysis passes of an
// acceptance; the P7 and P8 reports are Result.Taint and Result.Order.
type CFAStats struct {
	// Blocks and Edges size the recovered CFG (virtual root excluded).
	Blocks, Edges int
	// Anchors counts the P1 store guards and P2 RSP guards the dominance
	// pass re-verified.
	Anchors int
	// Targets counts the proof-listed indirect targets cross-checked.
	Targets int
}

// cfaViolation builds a structured rejection attributed to a CFA pass.
func (v *verifier) cfaViolation(pass string, id policy.ID, off int64, format string, args ...any) error {
	e := v.violation(id, off, format, args...).(*Violation)
	e.Pass = pass
	return e
}

// runCFA recovers the CFG and runs the target-list, dead-byte and
// dominance passes, filling res.CFA, each in its own cfa/* span. It returns
// the graph the dataflow passes run over.
func (v *verifier) runCFA(req policy.Set, res *Result) (*cfa.Graph, error) {
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
			return nil, err
		}
	}
	if req.Has(policy.P4) || req.Has(policy.P5) {
		tm = tr.Start("cfa/deadbyte")
		if err := endSpan(tm, v.deadBytePass(g, req), "dead_bytes", 0); err != nil {
			return nil, err
		}
	}
	tm = tr.Start("cfa/dominance")
	err := v.dominancePass(g, res)
	return g, endSpan(tm, err, "anchors", c.Anchors)
}

// dataflowPass runs P7's taint or P8's order analysis over g in its cfa/*
// span, keeps the report in res, and turns the outcome into the verdict:
// an analysis error (ill-formed input, budget blow-up) is a conservative
// rejection, never an acceptance; otherwise the first finding in address
// order rejects.
func (v *verifier) dataflowPass(g *cfa.Graph, id policy.ID, res *Result) error {
	pass := "taint"
	if id == policy.P8 {
		pass = "order"
	}
	tm := v.opts.Trace.Start("cfa/" + pass)
	var rep *cfa.Report
	var kv []any
	var err error
	if id == policy.P7 {
		cfg := v.opts.Taint
		for _, a := range v.storeAnchors {
			cfg.Guarded = append(cfg.Guarded, a.store)
		}
		if res.Taint, err = taint.Analyze(g, cfg); err == nil {
			rep = &res.Taint.Report
			kv = []any{"secrets", len(cfg.Secrets), "funcs", rep.Funcs, "tainted_ranges", res.Taint.MemRanges}
		}
	} else if res.Order, err = order.Analyze(g, v.opts.Order); err == nil {
		rep = res.Order
		kv = []any{"states", v.protocolStates(), "funcs", rep.Funcs, "contexts", rep.Ctxs}
	}
	switch {
	case err != nil:
		err = v.cfaViolation(pass, id, 0, "%s analysis failed: %v", pass, err)
	case len(rep.Findings) > 0:
		f := rep.Findings[0]
		err = v.cfaViolation(pass, id, f.Off, "%s: %s", f.Kind, f.Msg)
	}
	return endSpan(tm, err, kv...)
}

// protocolStates is the declared protocol's state count (0: none declared).
func (v *verifier) protocolStates() int {
	if v.opts.Order == nil {
		return 0
	}
	return len(v.opts.Order.States)
}

// taintDetail renders the P7 audit line of rep over secrets tagged buffers.
func taintDetail(rep *taint.Report, secrets int) string {
	if rep.Trivial {
		return "no secret buffers tagged; P7 holds trivially"
	}
	return fmt.Sprintf("%d secret buffers confined to the sealed output across %d functions (%d tainted data intervals at fixpoint)",
		secrets, rep.Funcs, rep.MemRanges)
}

// orderDetail renders the P8 audit line of rep over a states-state protocol.
func orderDetail(rep *cfa.Report, states int) string {
	if rep.Trivial {
		return "no interface protocol declared; P8 holds trivially"
	}
	return fmt.Sprintf("every interface event admitted by the %d-state protocol on all paths (%d functions, %d analysis contexts at fixpoint)",
		states, rep.Funcs, rep.Ctxs)
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
	insts := v.dis.Insts
	for _, a := range v.rspAnchors {
		// matchRSPGuards anchors each check at the end of an RSP write that
		// is no branch, so the write falls through into it. No edge may
		// enter the check sequence anywhere but its start (a jump to the
		// start merely re-runs the full check, which is safe; an interior
		// entry would run only half the bounds comparison).
		i, _ := v.dis.Index(a.lo)
		for i++; i < len(insts) && insts[i].Off < a.hi; i++ {
			for _, p := range g.InstPreds(insts[i].Off) {
				if p < a.write || p >= a.hi {
					return v.cfaViolation("dominance", policy.P2, insts[i].Off,
						"stack-bounds check at %#x enterable mid-sequence from %#x", a.lo, p)
				}
			}
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
			in, _ := v.dis.At(p) // InstPreds names decoded instructions only
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
