// Package cfaref keeps the instruction-table and CFG builders that
// disasm.Disassemble and cfa.Build replaced when they were sized from their
// input: the discovery-order table copied into address order, one *Block
// and one successor map per block, predecessors grown by append and one
// slice per instruction of InstPreds. The code is verbatim apart from the
// ref prefix and the package-local types it fills. Diff compares the two;
// the tests of internal/disasm, internal/cfa and internal/verifier call it,
// and nothing else imports the package.
package cfaref

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"deflection/internal/cfa"
	"deflection/internal/disasm"
	"deflection/internal/isa"
)

// Diff disassembles text from entry and targets and builds its CFG twice,
// with disasm.Disassemble and cfa.Build and with the reference builders,
// and describes the first difference ("" when they agree): the error text
// of a rejection; Insts, Leader, and Index and At of every byte; each
// block's ID, Start, End, Insts, Succs, Preds and Idom; Edges; and
// InstPreds of every instruction, in order.
func Diff(text []byte, entry int64, targets []int64) string {
	entries := append([]int64{entry}, targets...)
	dis, err := disasm.Disassemble(text, entries)
	ref, refErr := refDisassemble(text, entries)
	if err != nil || refErr != nil {
		if err == nil || refErr == nil || err.Error() != refErr.Error() || errors.Is(err, disasm.ErrOverlap) != errors.Is(refErr, disasm.ErrOverlap) {
			return fmt.Sprintf("Disassemble: error %v, reference %v", err, refErr)
		}
		return ""
	}
	if !slices.Equal(dis.Insts, ref.Insts) || !slices.Equal(dis.Leader, ref.Leader) {
		return fmt.Sprintf("Disassemble: Insts or Leader differ from the reference's (%d and %d instructions)", len(dis.Insts), len(ref.Insts))
	}
	for off := int64(-1); off <= int64(len(text)); off++ {
		i, ok := dis.Index(off)
		ri, rok := ref.Index(off)
		in, _ := dis.At(off)
		rin, _ := ref.At(off)
		if ok != rok || (ok && i != ri) || in != rin {
			return fmt.Sprintf("Index(%#x) = (%d, %t), reference (%d, %t)", off, i, ok, ri, rok)
		}
	}

	g := cfa.Build(dis, entry, targets)
	rg := &refGraph{Dis: ref, Entry: entry, Targets: append([]int64(nil), targets...)}
	rg.refSplitBlocks()
	rg.refConnect()
	rg.refComputeDominators()
	if len(g.Blocks) != len(rg.Blocks) || g.Edges != rg.Edges {
		return fmt.Sprintf("Build: %d blocks, %d edges; reference %d, %d", len(g.Blocks), g.Edges, len(rg.Blocks), rg.Edges)
	}
	for id, b := range g.Blocks {
		rb := rg.Blocks[id]
		if b.ID != rb.ID || b.Start != rb.Start || b.End != rb.End || !slices.Equal(b.Insts, rb.Insts) ||
			!slices.Equal(b.Succs, rb.Succs) || !slices.Equal(b.Preds, rb.Preds) || g.Idom(id) != rg.Idom(id) {
			return fmt.Sprintf("block %d: %d [%#x,%#x) %d insts succs=%v preds=%v idom=%d; reference %d [%#x,%#x) %d insts succs=%v preds=%v idom=%d",
				id, b.ID, b.Start, b.End, len(b.Insts), b.Succs, b.Preds, g.Idom(id),
				rb.ID, rb.Start, rb.End, len(rb.Insts), rb.Succs, rb.Preds, rg.Idom(id))
		}
	}
	for _, in := range dis.Insts {
		if p, rp := g.InstPreds(in.Off), rg.refInstPreds(in.Off); !slices.Equal(p, rp) {
			return fmt.Sprintf("InstPreds(%#x) = %v, reference %v", in.Off, p, rp)
		}
	}
	return ""
}

// refResult is disasm.Result as the reference fills it.
type refResult struct {
	Insts  []disasm.Inst
	Leader []bool
	at     []int32
}

// refGraph holds the fields of cfa.Graph the reference builders fill.
type refGraph struct {
	Dis     *refResult
	Entry   int64
	Targets []int64
	Blocks  []*cfa.Block
	Edges   int

	blockOf []int
	rpo     []int
	rpoNum  []int
	idom    []int

	instPreds [][]int64
}

// Index returns the position in Insts of the instruction decoded at off.
func (r *refResult) Index(off int64) (int, bool) {
	if off < 0 || off >= int64(len(r.at)) {
		return 0, false
	}
	i := int(r.at[off]) - 1
	return i, i >= 0 && r.Insts[i].Off == off
}

// At returns the instruction decoded at off.
func (r *refResult) At(off int64) (disasm.Inst, bool) {
	if i, ok := r.Index(off); ok {
		return r.Insts[i], true
	}
	return disasm.Inst{}, false
}

// refDisassemble is disasm.Disassemble as it was: it decodes text
// starting from every offset in entries.
func refDisassemble(text []byte, entries []int64) (*refResult, error) {
	// While decoding, at numbers instructions in discovery order (found,
	// with leader flags in lead); the final pass renumbers it in address
	// order.
	at := make([]int32, len(text)+1)
	var found []disasm.Inst
	var lead []bool

	// Every enqueued offset begins a basic block.
	work := make([]int64, 0, len(entries))
	enqueue := func(off int64) error {
		if off < 0 || off > int64(len(text)) {
			return fmt.Errorf("disasm: branch target %#x outside text (len %d)", off, len(text))
		}
		if k := at[off] - 1; k >= 0 {
			if found[k].Off != off {
				return fmt.Errorf("%w: target %#x splits instruction at %#x", disasm.ErrOverlap, off, found[k].Off)
			}
			lead[k] = true
			return nil
		}
		work = append(work, off)
		return nil
	}
	for _, e := range entries {
		if err := enqueue(e); err != nil {
			return nil, err
		}
	}

	for len(work) > 0 {
		off := work[len(work)-1]
		work = work[:len(work)-1]
		for leader := true; ; leader = false {
			if k := at[off] - 1; k >= 0 {
				if found[k].Off != off {
					return nil, fmt.Errorf("%w: fall-through into middle of instruction at %#x (from %#x)", disasm.ErrOverlap, found[k].Off, off)
				}
				lead[k] = lead[k] || leader
				break
			}
			if off >= int64(len(text)) {
				return nil, fmt.Errorf("disasm: control flow runs past end of text at %#x", off)
			}
			raw, n, err := isa.Decode(text[off:])
			if err != nil {
				return nil, fmt.Errorf("disasm: at %#x: %w", off, err)
			}
			in := disasm.Inst{Inst: raw, Off: off, Len: n}
			found = append(found, in)
			lead = append(lead, leader)
			at[off] = int32(len(found))
			for b := off + 1; b < in.End(); b++ {
				// The first covered byte past off is always another
				// instruction's start: off itself was uncovered.
				if at[b] != 0 {
					return nil, fmt.Errorf("%w: instruction at %#x overlaps instruction at %#x", disasm.ErrOverlap, off, b)
				}
				at[b] = int32(len(found))
			}

			switch raw.Op {
			case isa.OpJmp:
				if err := enqueue(disasm.DirectTarget(in)); err != nil {
					return nil, err
				}
			case isa.OpJcc, isa.OpCall:
				if err := enqueue(disasm.DirectTarget(in)); err != nil {
					return nil, err
				}
				if err := enqueue(in.End()); err != nil {
					return nil, err
				}
			case isa.OpJmpR, isa.OpCallR:
				// Indirect: successors come from the branch-target list,
				// which is already in entries. A CallR also falls through
				// on return.
				if raw.Op == isa.OpCallR {
					if err := enqueue(in.End()); err != nil {
						return nil, err
					}
				}
			}
			if raw.Op.Terminates() {
				break
			}
			off = in.End()
		}
	}

	// One pass in address order emits the table: a byte whose covering
	// instruction starts there appends it, and every byte is renumbered to
	// the last instruction appended, which is the one covering it.
	r := &refResult{Insts: make([]disasm.Inst, 0, len(found)), Leader: make([]bool, 0, len(found)), at: at}
	for b, k := range at {
		if k == 0 {
			continue
		}
		if in := found[k-1]; in.Off == int64(b) {
			r.Insts = append(r.Insts, in)
			r.Leader = append(r.Leader, lead[k-1])
		}
		at[b] = int32(len(r.Insts))
	}
	return r, nil
}

// refSplitBlocks partitions the decoded instructions into basic blocks: a block
// ends after a branch, before a leader, and at a gap in the decoding.
func (g *refGraph) refSplitBlocks() {
	insts := g.Dis.Insts
	g.Blocks = []*cfa.Block{{ID: cfa.Root, Start: -1, End: -1}}
	g.blockOf = make([]int, len(insts))
	lo := 0
	for i, in := range insts {
		g.blockOf[i] = len(g.Blocks)
		if i+1 < len(insts) && !in.Op.IsBranch() && !g.Dis.Leader[i+1] && insts[i+1].Off == in.End() {
			continue
		}
		g.Blocks = append(g.Blocks, &cfa.Block{ID: len(g.Blocks), Start: insts[lo].Off, End: in.End(), Insts: insts[lo : i+1 : i+1]})
		lo = i + 1
	}
}

// blockID returns the ID of the block containing the instruction at off.
func (g *refGraph) blockID(off int64) (int, bool) {
	i, ok := g.Dis.Index(off)
	if !ok {
		return 0, false
	}
	return g.blockOf[i], true
}

// refConnect adds the CFG edges.
func (g *refGraph) refConnect() {
	succSet := make([]map[int]bool, len(g.Blocks))
	addEdge := func(from, to int) {
		if succSet[from] == nil {
			succSet[from] = make(map[int]bool, 2)
		}
		succSet[from][to] = true
	}

	// Indirect-branch successor set: every listed target's block.
	var targetBlocks []int
	seenT := make(map[int]bool)
	for _, t := range g.Targets {
		if id, ok := g.blockID(t); ok && !seenT[id] {
			seenT[id] = true
			targetBlocks = append(targetBlocks, id)
		}
	}

	for _, b := range g.Blocks[1:] {
		last := b.Last()
		fallthru := func() {
			if id, ok := g.blockID(last.End()); ok {
				addEdge(b.ID, id)
			}
		}
		switch last.Op {
		case isa.OpJmp:
			if id, ok := g.blockID(disasm.DirectTarget(last)); ok {
				addEdge(b.ID, id)
			}
		case isa.OpJcc, isa.OpCall:
			if id, ok := g.blockID(disasm.DirectTarget(last)); ok {
				addEdge(b.ID, id)
			}
			fallthru()
		case isa.OpJmpR, isa.OpCallR:
			for _, id := range targetBlocks {
				addEdge(b.ID, id)
			}
			if last.Op == isa.OpCallR {
				fallthru()
			}
		case isa.OpRet, isa.OpHlt, isa.OpTrap:
			// No successors.
		default:
			fallthru()
		}
	}

	// Virtual root → entry and every listed target.
	if id, ok := g.blockID(g.Entry); ok {
		addEdge(cfa.Root, id)
	}
	for _, id := range targetBlocks {
		addEdge(cfa.Root, id)
	}

	for from, set := range succSet {
		if set == nil {
			continue
		}
		succs := make([]int, 0, len(set))
		for to := range set {
			succs = append(succs, to)
		}
		sort.Ints(succs)
		g.Blocks[from].Succs = succs
		for _, to := range succs {
			g.Blocks[to].Preds = append(g.Blocks[to].Preds, from)
		}
		if from != cfa.Root {
			g.Edges += len(succs)
		}
	}
	for _, b := range g.Blocks {
		sort.Ints(b.Preds)
	}
}

// refInstPreds returns the offsets of every instruction that can immediately
// precede the instruction at off in some execution: its linear predecessor
// when that one falls through, every direct branch targeting off, and —
// when off is on the branch-target list — every indirect branch. The table
// is built once, on first use.
func (g *refGraph) refInstPreds(off int64) []int64 {
	if g.instPreds == nil {
		insts := g.Dis.Insts
		g.instPreds = make([][]int64, len(insts))
		add := func(to, from int64) {
			if i, ok := g.Dis.Index(to); ok {
				g.instPreds[i] = append(g.instPreds[i], from)
			}
		}
		var indirect []int64
		for _, in := range insts {
			if !in.Op.Terminates() {
				add(in.End(), in.Off)
			}
			switch in.Op {
			case isa.OpJmp, isa.OpJcc, isa.OpCall:
				add(disasm.DirectTarget(in), in.Off)
			case isa.OpJmpR, isa.OpCallR:
				indirect = append(indirect, in.Off)
			}
		}
		listed := make([]bool, len(insts))
		for _, t := range g.Targets {
			if i, ok := g.Dis.Index(t); ok && !listed[i] {
				listed[i] = true
				g.instPreds[i] = append(g.instPreds[i], indirect...)
			}
		}
	}
	if i, ok := g.Dis.Index(off); ok {
		return g.instPreds[i]
	}
	return nil
}

// refComputeDominators fills g.rpo, g.rpoNum and g.idom.
func (g *refGraph) refComputeDominators() {
	n := len(g.Blocks)
	g.rpoNum = make([]int, n)
	g.idom = make([]int, n)
	for i := range g.idom {
		g.idom[i] = -1
		g.rpoNum[i] = -1
	}

	// Iterative DFS postorder from the virtual root, then reverse.
	post := make([]int, 0, n)
	state := make([]uint8, n) // 0 unvisited, 1 on stack, 2 done
	type frame struct {
		id   int
		next int // next successor index to visit
	}
	stack := []frame{{id: cfa.Root}}
	state[cfa.Root] = 1
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		succs := g.Blocks[f.id].Succs
		if f.next < len(succs) {
			s := succs[f.next]
			f.next++
			if state[s] == 0 {
				state[s] = 1
				stack = append(stack, frame{id: s})
			}
			continue
		}
		state[f.id] = 2
		post = append(post, f.id)
		stack = stack[:len(stack)-1]
	}
	g.rpo = make([]int, 0, len(post))
	for i := len(post) - 1; i >= 0; i-- {
		g.rpo = append(g.rpo, post[i])
	}
	for i, id := range g.rpo {
		g.rpoNum[id] = i
	}

	g.idom[cfa.Root] = cfa.Root
	changed := true
	for changed {
		changed = false
		for _, b := range g.rpo {
			if b == cfa.Root {
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
func (g *refGraph) intersect(a, b int) int {
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
func (g *refGraph) Idom(id int) int {
	if id == cfa.Root {
		return cfa.Root
	}
	return g.idom[id]
}
