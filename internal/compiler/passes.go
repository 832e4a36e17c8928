package compiler

import (
	"fmt"

	"deflection/internal/asm"
	"deflection/internal/isa"
	"deflection/internal/policy"
)

// instrument applies the assembly-level instrumentation passes to every
// function, mirroring the paper's backend passes (Fig. 4): SSA-monitoring
// (P6), shadow stack and forward-edge CFI (P5), RSP checks (P2) and store
// bounds checks (P1, whose single bounds pair also enforces P3/P4 because
// the enclave layout places all security-critical regions outside the
// rewritten bounds — see enclave.Layout).
//
// Pass order matters only in that P6 counts user instructions (so it runs
// first) and every pass skips items earlier passes marked Annot.
func instrument(a *asm.Assembler, opts Options) {
	if opts.Policies.Has(policy.P6) {
		a.RewriteFuncs(func(name string, body []asm.Item) []asm.Item {
			return passP6(name, body, opts)
		})
	}
	if opts.Policies.Has(policy.P5) {
		a.RewriteFuncs(passP5)
	}
	if opts.Policies.Has(policy.P2) {
		a.RewriteFuncs(passP2)
	}
	if opts.Policies.Has(policy.P1) {
		a.RewriteFuncs(passP1)
	}
}

// trapSuffix names each trap stub of a function by its trap code. Each
// instrumented function gets at most one stub per code, appended after its
// body.
var trapSuffix = map[isa.TrapCode]string{
	isa.TrapStoreBounds: ".__trap.store",
	isa.TrapStackBounds: ".__trap.stack",
	isa.TrapCFI:         ".__trap.cfi",
	isa.TrapShadowStack: ".__trap.ss",
	isa.TrapAEXBudget:   ".__trap.aex",
}

func ai(in isa.Inst) asm.Item { return asm.Item{Inst: in, Annot: true} }

func aLabel(name string) asm.Item {
	return asm.Item{IsLabel: true, Label: name, Annot: true}
}

func trapStub(fn string, code isa.TrapCode) []asm.Item {
	return []asm.Item{
		aLabel(fn + trapSuffix[code]),
		ai(isa.Inst{Op: isa.OpTrap, Imm: int64(code)}),
	}
}

// annotation instantiates template t in function fn with its placeholder
// filled from anchor: a trap step branches to fn's stub for its code, and a
// local step branches to local, which labels the template's last
// instruction.
func annotation(t policy.Template, fn string, anchor isa.Inst, local string) []asm.Item {
	steps := t.Steps()
	out := make([]asm.Item, 0, len(steps)+1)
	for i, s := range steps {
		it := ai(s.With(&anchor))
		switch {
		case s.Trap != isa.TrapNone:
			it.Target = fn + trapSuffix[s.Trap]
		case s.Local:
			it.Target = local
		}
		if i == len(steps)-1 && local != "" {
			out = append(out, aLabel(local))
		}
		out = append(out, it)
	}
	return out
}

func passP1(name string, body []asm.Item) []asm.Item {
	out := make([]asm.Item, 0, len(body)+16)
	used := false
	for _, it := range body {
		if !it.IsLabel && !it.Annot && it.Inst.Op.IsStore() {
			out = append(out, annotation(policy.StoreGuard, name, it.Inst, "")...)
			used = true
		}
		out = append(out, it)
	}
	if used {
		out = append(out, trapStub(name, isa.TrapStoreBounds)...)
	}
	return out
}

func passP2(name string, body []asm.Item) []asm.Item {
	out := make([]asm.Item, 0, len(body)+16)
	used := false
	for _, it := range body {
		out = append(out, it)
		if !it.IsLabel && !it.Annot && it.Inst.ModifiesRSP() {
			out = append(out, annotation(policy.RSPGuard, name, it.Inst, "")...)
			used = true
		}
	}
	if used {
		out = append(out, trapStub(name, isa.TrapStackBounds)...)
	}
	return out
}

func passP5(name string, body []asm.Item) []asm.Item {
	out := make([]asm.Item, 0, len(body)+64)
	usedCFI, usedSS := false, false

	// Entry: keep a leading BRMARK beacon first, then push the return
	// address to the shadow stack. _start is the program entry (no caller,
	// nothing on the stack), so it is exempt.
	i := 0
	if name != "_start" {
		if len(body) > 0 && !body[0].IsLabel && body[0].Inst.Op == isa.OpBrMark {
			out = append(out, body[0])
			i = 1
		}
		out = append(out, annotation(policy.ShadowPush, name, isa.Inst{}, "")...)
		usedSS = true
	}

	for ; i < len(body); i++ {
		it := body[i]
		if it.IsLabel || it.Annot {
			out = append(out, it)
			continue
		}
		switch {
		case it.Inst.Op.IsIndirectBranch():
			out = append(out, annotation(policy.CFIGuard, name, it.Inst, "")...)
			usedCFI = true
			out = append(out, it)
		case it.Inst.Op == isa.OpRet:
			out = append(out, annotation(policy.ShadowCheck, name, it.Inst, "")...)
			usedSS = true
			out = append(out, it)
		default:
			out = append(out, it)
		}
	}
	if usedCFI {
		out = append(out, trapStub(name, isa.TrapCFI)...)
	}
	if usedSS {
		out = append(out, trapStub(name, isa.TrapShadowStack)...)
	}
	return out
}

func passP6(name string, body []asm.Item, opts Options) []asm.Item {
	out := make([]asm.Item, 0, len(body)+64)
	used := false
	okN := 0
	check := func() {
		okN++
		out = append(out, annotation(policy.AEXCheck, name, isa.Inst{Imm: opts.AEXThreshold}, fmt.Sprintf("%s.__aexok%d", name, okN))...)
		used = true
	}

	// One check at function entry — after the BRMARK beacon (which must
	// stay the first instruction of address-taken functions) and after any
	// pre-existing annotation prologue (the _start marker arming pair,
	// which the verifier requires at the entry itself)...
	i := 0
	if len(body) > 0 && !body[0].IsLabel && body[0].Inst.Op == isa.OpBrMark {
		out = append(out, body[0])
		i = 1
	}
	for i < len(body) && body[i].Annot && !body[i].IsLabel {
		out = append(out, body[i])
		i++
	}
	check()
	count := 0
	for ; i < len(body); i++ {
		it := body[i]
		if it.IsLabel {
			out = append(out, it)
			// Keep a BRMARK beacon glued to its label (indirect-branch
			// targets are checked by reading the bytes at the label).
			if i+1 < len(body) && !body[i+1].IsLabel && body[i+1].Inst.Op == isa.OpBrMark {
				out = append(out, body[i+1])
				i++
			}
			// ...one at every basic-block head...
			check()
			count = 0
			continue
		}
		if !it.Annot {
			count++
			// ...and one at least every q instructions within a block.
			if count >= opts.AEXCheckInterval && !it.Inst.Op.IsBranch() {
				check()
				count = 0
			}
		}
		out = append(out, it)
	}
	if used {
		out = append(out, trapStub(name, isa.TrapAEXBudget)...)
	}
	return out
}
