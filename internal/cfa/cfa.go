// Package cfa implements control-flow analysis over the clipped
// disassembler's output: basic-block CFG recovery, dominator-tree
// computation, the small dataflow primitives (block-local register
// definition sets, instruction-level predecessors, coverage gaps) the
// verifier's dominance, dead-byte and target-list passes are built on, and
// the interprocedural dataflow engine (Engine) under the P7 taint and P8
// order passes.
//
// The package is part of the in-enclave TCB: like internal/disasm it may
// depend only on internal/isa and the standard library (enforced by
// internal/lint), and every analysis is a pure function of the disassembly
// result plus the proof's branch-target list — no I/O, no global state.
//
// Edge model. Blocks are split at every offset the disassembler marked as a
// block start (entries, direct-branch targets, fall-through successors of
// branches) and after every control-transfer instruction. Successors:
//
//   - jmp/jcc/call: the direct target; jcc and call additionally fall
//     through (the call→fall-through edge stands in for the path through
//     the callee, whose return is pinned to exactly that continuation by
//     P5's shadow stack);
//   - jmp reg / call reg: every offset on the proof's branch-target list
//     (P5's CFI guard pins indirect transfers to exactly that set);
//     call reg also falls through;
//   - ret/hlt/trap: none (returns are subsumed by call→fall-through).
//
// A virtual root block precedes the program entry and every listed branch
// target, making the graph single-rooted for dominance: a listed target is
// legitimately enterable by any guarded indirect branch, so no annotation
// placed before it can be assumed un-bypassed. With these roots the
// reachability closure of the CFG coincides exactly with the set of decoded
// instructions, which is what makes the dead-byte pass's "unreachable text
// byte" a well-defined notion.
package cfa

import (
	"slices"

	"deflection/internal/disasm"
	"deflection/internal/isa"
)

// Root is the block ID of the virtual root.
const Root = 0

// Block is one basic block: a maximal straight-line instruction sequence
// entered only at Start.
type Block struct {
	// ID is the block's index in Graph.Blocks; Root for the virtual root.
	ID int
	// Start/End delimit the half-open text-offset span [Start, End).
	// The virtual root has Start = End = -1.
	Start, End int64
	// Insts is the block's run of Dis.Insts, in address order (empty for the
	// virtual root). It aliases the disassembly and must not be modified.
	Insts []disasm.Inst
	// Succs/Preds are CFG-adjacent block IDs, deduplicated, in ascending
	// order.
	Succs, Preds []int
}

// Last returns the block's final instruction (its terminator when the block
// ends in a control transfer).
func (b *Block) Last() disasm.Inst { return b.Insts[len(b.Insts)-1] }

// DefMask returns the set of registers written by any instruction of the
// block, as a bitmask indexed by isa.Reg. Annotation instructions are
// included: the mask is the block-local "def set" of the reaching-
// definitions pass, and over-approximating it only makes that pass
// stricter.
func (b *Block) DefMask() uint16 {
	var m uint16
	for i := range b.Insts {
		for r := isa.Reg(0); r < isa.NumRegs; r++ {
			if b.Insts[i].Inst.WritesReg(r) {
				m |= 1 << r
			}
		}
	}
	return m
}

// Graph is a recovered control-flow graph with its dominator tree.
type Graph struct {
	// Dis is the disassembly the graph was built from.
	Dis *disasm.Result
	// Entry is the program entry offset; Targets the proof's indirect
	// branch-target list.
	Entry   int64
	Targets []int64

	// Blocks holds the virtual root at index Root followed by the basic
	// blocks in ascending Start order.
	Blocks []*Block

	// Edges counts CFG edges (excluding the virtual root's).
	Edges int

	blockOf []int // instruction index → containing block ID
	rpo     []int // reverse postorder from the virtual root
	rpoNum  []int // block ID → position in rpo
	idom    []int // block ID → immediate dominator ID (-1 unreachable)

	// Instruction i's predecessor offsets are instPreds[predAt[i]:predAt[i+1]];
	// both are built by InstPreds on first use.
	instPreds []int64
	predAt    []int32
}

// Build recovers the CFG for a successful disassembly and computes its
// dominator tree. entry and targets must be the same roots the disassembly
// ran with.
func Build(dis *disasm.Result, entry int64, targets []int64) *Graph {
	g := &Graph{
		Dis:     dis,
		Entry:   entry,
		Targets: append([]int64(nil), targets...),
	}
	g.splitBlocks()
	g.connect()
	g.computeDominators()
	return g
}

// splitBlocks partitions the decoded instructions into basic blocks: a block
// ends after a branch, before a leader, and at a gap in the decoding. The
// blocks live in one slab, counted in a first pass.
func (g *Graph) splitBlocks() {
	insts := g.Dis.Insts
	ends := func(i int) bool {
		in := insts[i]
		return i+1 == len(insts) || in.Op.IsBranch() || g.Dis.Leader[i+1] || insts[i+1].Off != in.End()
	}
	n := 1
	for i := range insts {
		if ends(i) {
			n++
		}
	}
	slab := make([]Block, n)
	g.Blocks = make([]*Block, n)
	g.blockOf = make([]int, len(insts))
	slab[Root] = Block{ID: Root, Start: -1, End: -1}
	g.Blocks[Root] = &slab[Root]
	id, lo := Root+1, 0
	for i, in := range insts {
		g.blockOf[i] = id
		if !ends(i) {
			continue
		}
		slab[id] = Block{ID: id, Start: insts[lo].Off, End: in.End(), Insts: insts[lo : i+1 : i+1]}
		g.Blocks[id] = &slab[id]
		id, lo = id+1, i+1
	}
}

// blockID returns the ID of the block containing the instruction at off.
func (g *Graph) blockID(off int64) (int, bool) {
	i, ok := g.Dis.Index(off)
	if !ok {
		return 0, false
	}
	return g.blockOf[i], true
}

// connect adds the CFG edges. Each block's successors are written into one
// flat array, bounded per block by its terminator, then sorted and
// deduplicated in place; the predecessor lists are filled from the
// in-degrees into a second one, in ascending order because the sources are
// visited in ascending order.
func (g *Graph) connect() {
	// Indirect-branch successor set: every listed target's block.
	targetBlocks := make([]int, 0, len(g.Targets))
	for _, t := range g.Targets {
		if id, ok := g.blockID(t); ok {
			targetBlocks = append(targetBlocks, id)
		}
	}
	slices.Sort(targetBlocks)
	targetBlocks = slices.Compact(targetBlocks)

	bound := 1 + len(targetBlocks) // the root's
	for _, b := range g.Blocks[1:] {
		bound += 2
		if op := b.Last().Op; op == isa.OpJmpR || op == isa.OpCallR {
			bound += len(targetBlocks) - 1
		}
	}
	succ := make([]int, 0, bound)
	indeg := make([]int32, len(g.Blocks)+1)
	add := func(id int, ok bool) {
		if ok {
			succ = append(succ, id)
		}
	}
	for _, b := range g.Blocks {
		lo := len(succ)
		if b.ID == Root {
			add(g.blockID(g.Entry))
			succ = append(succ, targetBlocks...)
		} else {
			switch last := b.Last(); last.Op {
			case isa.OpJmp:
				add(g.blockID(disasm.DirectTarget(last)))
			case isa.OpJcc, isa.OpCall:
				add(g.blockID(disasm.DirectTarget(last)))
				add(g.blockID(last.End()))
			case isa.OpJmpR:
				succ = append(succ, targetBlocks...)
			case isa.OpCallR:
				succ = append(succ, targetBlocks...)
				add(g.blockID(last.End()))
			case isa.OpRet, isa.OpHlt, isa.OpTrap:
				// No successors.
			default:
				add(g.blockID(last.End()))
			}
		}
		slices.Sort(succ[lo:])
		succ = append(succ[:lo], slices.Compact(succ[lo:])...)
		if len(succ) == lo {
			continue
		}
		b.Succs = succ[lo:len(succ):len(succ)]
		for _, to := range b.Succs {
			indeg[to+1]++
		}
		if b.ID != Root {
			g.Edges += len(b.Succs)
		}
	}

	// indeg becomes the prefix sums: block id's predecessors fill
	// pred[indeg[id]:indeg[id+1]].
	for id := range g.Blocks {
		indeg[id+1] += indeg[id]
	}
	pred := make([]int, len(succ))
	next := slices.Clone(indeg[:len(g.Blocks)])
	for _, b := range g.Blocks {
		for _, to := range b.Succs {
			pred[next[to]] = b.ID
			next[to]++
		}
	}
	for id, b := range g.Blocks {
		if lo, hi := indeg[id], indeg[id+1]; hi > lo {
			b.Preds = pred[lo:hi:hi]
		}
	}
}

// BlockAt returns the block containing the instruction at off, or nil when
// off is not a decoded instruction start.
func (g *Graph) BlockAt(off int64) *Block {
	if id, ok := g.blockID(off); ok {
		return g.Blocks[id]
	}
	return nil
}

// InstPreds returns the offsets of every instruction that can immediately
// precede the instruction at off in some execution: its linear predecessor
// when that one falls through, every direct branch targeting off, and —
// when off is on the branch-target list — every indirect branch. The table
// is built once, on first use, in one flat array: a first pass counts each
// instruction's predecessors and a second fills them in.
func (g *Graph) InstPreds(off int64) []int64 {
	if g.predAt == nil {
		g.buildInstPreds()
	}
	if i, ok := g.Dis.Index(off); ok {
		return g.instPreds[g.predAt[i]:g.predAt[i+1]]
	}
	return nil
}

// buildInstPreds fills instPreds and predAt. An instruction's list holds
// its linear and direct predecessors in address order, then, when it is
// listed, every indirect branch in address order.
func (g *Graph) buildInstPreds() {
	insts := g.Dis.Insts
	// edges calls f with the index of each instruction a linear or direct
	// edge reaches and the edge's source, in address order of the sources.
	edges := func(f func(to int, from int64)) {
		for _, in := range insts {
			if !in.Op.Terminates() {
				if i, ok := g.Dis.Index(in.End()); ok {
					f(i, in.Off)
				}
			}
			switch in.Op {
			case isa.OpJmp, isa.OpJcc, isa.OpCall:
				if i, ok := g.Dis.Index(disasm.DirectTarget(in)); ok {
					f(i, in.Off)
				}
			}
		}
	}
	var indirect []int64
	for _, in := range insts {
		if in.Op == isa.OpJmpR || in.Op == isa.OpCallR {
			indirect = append(indirect, in.Off)
		}
	}
	listed := make([]bool, len(insts))
	at := make([]int32, len(insts)+1)
	for _, t := range g.Targets {
		if i, ok := g.Dis.Index(t); ok && !listed[i] {
			listed[i] = true
			at[i+1] += int32(len(indirect))
		}
	}
	edges(func(to int, _ int64) { at[to+1]++ })
	for i := range insts {
		at[i+1] += at[i]
	}

	preds := make([]int64, at[len(insts)])
	next := slices.Clone(at[:len(insts)])
	edges(func(to int, from int64) {
		preds[next[to]] = from
		next[to]++
	})
	for i, l := range listed {
		if l {
			copy(preds[next[i]:at[i+1]], indirect)
		}
	}
	g.instPreds, g.predAt = preds, at
}

// Reachable reports whether the block is reachable from the virtual root.
// By construction every recovered block is (the disassembler only decodes
// from the same roots), so false indicates an inconsistency worth flagging.
func (g *Graph) Reachable(id int) bool { return g.idom[id] >= 0 || id == Root }

// Range is a half-open [Lo, Hi) span of text offsets.
type Range struct{ Lo, Hi int64 }

// DeadRanges returns the maximal spans of text bytes not covered by any
// decoded instruction — bytes unreachable from the entry and the
// branch-target list, which a well-formed generator never emits and which
// could hide side-loaded code.
func (g *Graph) DeadRanges(textLen int) []Range {
	var dead []Range
	var pos int64
	for _, in := range g.Dis.Insts {
		if in.Off > pos {
			dead = append(dead, Range{Lo: pos, Hi: in.Off})
		}
		pos = in.End()
	}
	if pos < int64(textLen) {
		dead = append(dead, Range{Lo: pos, Hi: int64(textLen)})
	}
	return dead
}
