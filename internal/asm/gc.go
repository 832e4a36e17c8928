package asm

// Dead-function elimination. The code generator links the full dclib runtime
// into every program, so without garbage collection the emitted text carries
// function bodies nothing ever reaches. Those bytes are exactly what the
// verifier's dead-byte pass rejects as potential side-loaded code, so the
// generator prunes them before instrumentation: a function survives only if
// it is referenced — by a branch, an address-taken immediate, or a data
// relocation (pointer tables) — from the entry function's transitive
// closure.

// PruneUnreachable removes functions not reachable from the entry symbol,
// the registered branch targets, and the data relocations. It returns the
// names of the dropped functions. Calling it with no entry set is a no-op:
// there is no root to anchor liveness.
func (a *Assembler) PruneUnreachable() []string {
	if a.entry == "" {
		return nil
	}

	// Map every label (function names and interior labels) to the index of
	// the function that defines it.
	labelFunc := make(map[string]int)
	for fi, f := range a.funcs {
		labelFunc[f.name] = fi
		for _, it := range a.items[f.start:f.end] {
			if it.IsLabel {
				labelFunc[it.Label] = fi
			}
		}
	}

	// Per-function reference edges: any Target or SymRef resolving to a
	// label of another function keeps that function alive.
	refs := make([][]int, len(a.funcs))
	for fi, f := range a.funcs {
		for _, it := range a.items[f.start:f.end] {
			for _, sym := range [2]string{it.Target, it.SymRef} {
				if sym == "" {
					continue
				}
				if to, ok := labelFunc[sym]; ok && to != fi {
					refs[fi] = append(refs[fi], to)
				}
			}
		}
	}

	live := make([]bool, len(a.funcs))
	var mark func(fi int)
	mark = func(fi int) {
		if live[fi] {
			return
		}
		live[fi] = true
		for _, to := range refs[fi] {
			mark(to)
		}
	}
	if fi, ok := labelFunc[a.entry]; ok {
		mark(fi)
	}
	for _, bt := range a.branchTargets {
		if fi, ok := labelFunc[bt]; ok {
			mark(fi)
		}
	}
	for _, r := range a.dataRelocs {
		if fi, ok := labelFunc[r.Symbol]; ok {
			mark(fi)
		}
	}

	var dropped []string
	var out []Item
	var spans []funcSpan
	for fi, f := range a.funcs {
		if !live[fi] {
			dropped = append(dropped, f.name)
			continue
		}
		start := len(out)
		out = append(out, a.items[f.start:f.end]...)
		spans = append(spans, funcSpan{name: f.name, start: start, end: len(out)})
	}
	a.items = out
	a.funcs = spans
	return dropped
}

// PruneDeadCode removes instructions no execution can reach at item
// granularity: code after an unconditional control transfer stays dead
// until a label some live reference can actually enter through. Label
// liveness is judged against every reference the assembler knows — branch
// operands, address-taken immediates, data relocations and the registered
// branch-target list — so an unreferenced join label (e.g. the end label of
// a switch whose arms all return) does not resurrect the instructions
// planted after it. Run after instrumentation, which inserts annotations by
// linear position and may plant some behind such labels. Iterates to a
// fixpoint: dropping a branch can orphan its target label, whose tail then
// dies on the next round.
func (a *Assembler) PruneDeadCode() {
	for a.pruneDeadCodeOnce() {
	}
}

func (a *Assembler) pruneDeadCodeOnce() bool {
	referenced := make(map[string]bool)
	for _, it := range a.items {
		if it.Target != "" {
			referenced[it.Target] = true
		}
		if it.SymRef != "" {
			referenced[it.SymRef] = true
		}
	}
	for _, r := range a.dataRelocs {
		referenced[r.Symbol] = true
	}
	for _, bt := range a.branchTargets {
		referenced[bt] = true
	}

	var out []Item
	var spans []funcSpan
	changed := false
	for _, f := range a.funcs {
		start := len(out)
		live := true // function entry: callable by name
		for _, it := range a.items[f.start:f.end] {
			if it.IsLabel {
				live = live || referenced[it.Label] || it.Label == f.name
			}
			if !live {
				changed = true
				continue
			}
			out = append(out, it)
			if !it.IsLabel && it.Inst.Op.Terminates() {
				live = false
			}
		}
		spans = append(spans, funcSpan{name: f.name, start: start, end: len(out)})
	}
	a.items = out
	a.funcs = spans
	return changed
}
