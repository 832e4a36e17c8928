package cfa

import "slices"

// Dominator-tree computation using the Cooper–Harvey–Kennedy iterative
// algorithm ("A Simple, Fast Dominance Algorithm"): immediate dominators
// converge by repeated intersection over the reverse postorder, which on
// the shallow, reducible-ish graphs a code generator emits runs in a small
// constant number of passes and needs no auxiliary forest.

// computeDominators fills g.rpo, g.rpoNum and g.idom, which share one
// allocation; the depth-first stack is the only other.
func (g *Graph) computeDominators() {
	n := len(g.Blocks)
	buf := make([]int, 3*n)
	g.idom, g.rpoNum, g.rpo = buf[:n:n], buf[n:2*n:2*n], buf[2*n:2*n]
	for i := range g.idom {
		g.idom[i] = -1
		g.rpoNum[i] = -1
	}

	// Iterative DFS postorder from the virtual root, then reverse. A
	// visited block's rpoNum is 0 until it is numbered.
	type frame struct {
		id   int
		next int // next successor index to visit
	}
	stack := make([]frame, 1, n)
	stack[0] = frame{id: Root}
	g.rpoNum[Root] = 0
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		succs := g.Blocks[f.id].Succs
		if f.next < len(succs) {
			s := succs[f.next]
			f.next++
			if g.rpoNum[s] < 0 {
				g.rpoNum[s] = 0
				stack = append(stack, frame{id: s})
			}
			continue
		}
		g.rpo = append(g.rpo, f.id)
		stack = stack[:len(stack)-1]
	}
	slices.Reverse(g.rpo)
	for i, id := range g.rpo {
		g.rpoNum[id] = i
	}

	g.idom[Root] = Root
	changed := true
	for changed {
		changed = false
		for _, b := range g.rpo {
			if b == Root {
				continue
			}
			newIdom := -1
			for _, p := range g.Blocks[b].Preds {
				if g.idom[p] < 0 {
					continue // predecessor not yet processed/unreachable
				}
				if newIdom < 0 {
					newIdom = p
				} else {
					newIdom = g.intersect(p, newIdom)
				}
			}
			if newIdom >= 0 && g.idom[b] != newIdom {
				g.idom[b] = newIdom
				changed = true
			}
		}
	}
}

// intersect walks the two idom chains up to their common ancestor.
func (g *Graph) intersect(a, b int) int {
	for a != b {
		for g.rpoNum[a] > g.rpoNum[b] {
			a = g.idom[a]
		}
		for g.rpoNum[b] > g.rpoNum[a] {
			b = g.idom[b]
		}
	}
	return a
}

// Idom returns the immediate dominator of block id (Root for the root, -1
// for a block unreachable from the root).
func (g *Graph) Idom(id int) int {
	if id == Root {
		return Root
	}
	return g.idom[id]
}

// Dominates reports whether block d dominates block b: every path from the
// virtual root to b passes through d. A block dominates itself. Unreachable
// blocks are dominated by nothing (and dominate nothing), so passes built
// on this predicate fail closed.
func (g *Graph) Dominates(d, b int) bool {
	if g.idom[b] < 0 || (d != Root && g.idom[d] < 0) {
		return false
	}
	for {
		if b == d {
			return true
		}
		if b == Root {
			return false
		}
		b = g.idom[b]
	}
}

// DominatesInst lifts Dominates to instruction offsets: the instruction at
// dOff dominates the instruction at bOff if every root-to-bOff path
// executes dOff first. Within one block, address order decides.
func (g *Graph) DominatesInst(dOff, bOff int64) bool {
	db, bb := g.BlockAt(dOff), g.BlockAt(bOff)
	if db == nil || bb == nil {
		return false
	}
	if db.ID == bb.ID {
		return dOff <= bOff
	}
	return g.Dominates(db.ID, bb.ID)
}
