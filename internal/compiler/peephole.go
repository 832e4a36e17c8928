package compiler

import (
	"deflection/internal/asm"
	"deflection/internal/isa"
)

// peephole performs local cleanups on a generated function body before
// instrumentation: adjacent push/pop pairs become register moves, no-op
// moves and zero-adjust ALU ops disappear, and jumps to the immediately
// following label are removed. None of the patterns cross labels or touch
// items carrying relocations, and no transformed instruction affects flags
// (moves and ALU ops do not set them on this ISA).
func peephole(body []asm.Item) []asm.Item {
	changed := true
	for changed {
		body, changed = peepholeOnce(body)
	}
	return body
}

func peepholeOnce(body []asm.Item) ([]asm.Item, bool) {
	out := make([]asm.Item, 0, len(body))
	changed := false
	plain := func(it asm.Item) bool {
		return !it.IsLabel && it.Target == "" && it.SymRef == "" && !it.Annot
	}
	for i := 0; i < len(body); i++ {
		it := body[i]

		// push X; pop Y  =>  mov Y, X (or nothing when X == Y).
		if plain(it) && it.Inst.Op == isa.OpPush && i+1 < len(body) {
			nxt := body[i+1]
			if plain(nxt) && nxt.Inst.Op == isa.OpPop {
				if nxt.Inst.Dst != it.Inst.Dst {
					out = append(out, asm.InstItem(isa.Inst{Op: isa.OpMovRR, Dst: nxt.Inst.Dst, Src: it.Inst.Dst}))
				}
				i++
				changed = true
				continue
			}
		}

		// mov X, X  =>  (nothing).
		if plain(it) && it.Inst.Op == isa.OpMovRR && it.Inst.Dst == it.Inst.Src {
			changed = true
			continue
		}

		// add/sub reg, 0  =>  (nothing). Our ALU does not set flags, so the
		// drop is always safe.
		if plain(it) && (it.Inst.Op == isa.OpAddRI || it.Inst.Op == isa.OpSubRI) && it.Inst.Imm == 0 {
			changed = true
			continue
		}

		// jmp L; L:  =>  L:.
		if !it.IsLabel && !it.Annot && it.Inst.Op == isa.OpJmp && it.Target != "" && i+1 < len(body) {
			if nxt := body[i+1]; nxt.IsLabel && nxt.Label == it.Target {
				changed = true
				continue
			}
		}

		out = append(out, it)
	}
	return out, changed
}

// pruneDeadTail drops instructions that follow an unconditional control
// transfer with no intervening label: nothing can reach them, and the
// verifier's dead-byte pass would flag their encoded bytes as side-loaded
// code. Branch-ending statement lowerings (abort paths, if/else arms) leave
// such tails behind.
func pruneDeadTail(body []asm.Item) []asm.Item {
	out := body[:0]
	dead := false
	for _, it := range body {
		if it.IsLabel {
			dead = false
		} else if dead {
			continue
		}
		out = append(out, it)
		if !it.IsLabel && it.Inst.Op.Terminates() {
			dead = true
		}
	}
	return out
}
