package cfa

import (
	"fmt"
	"sort"

	"deflection/internal/disasm"
	"deflection/internal/isa"
)

// Func is one function of the interprocedural partition.
type Func struct {
	// Index is the function's position in Engine.Funcs.
	Index int
	// Entry is the text offset of the function's first instruction and
	// Head the ID of the block it starts.
	Entry int64
	Head  int
	// Blocks lists the intraprocedural block IDs in address order.
	Blocks []int

	seen int // engine version at the start of the last local fixpoint
}

// Budget bounds a fixpoint: outer chaotic-iteration rounds and total
// block-transfer applications. Running out is a conservative rejection.
type Budget struct{ Rounds, Steps int }

// Engine is the interprocedural fixpoint scaffold the P7 taint and P8 order
// passes are built on (DESIGN.md §11): a function partition, chaotic
// iteration with version skipping, per-context FIFO worklists and a final
// recording sweep. It is generic over the abstract state S a pass attaches
// to each block; the pass supplies bottom, join and the block transfer.
type Engine[S any] struct {
	G *Graph
	// Funcs is the partition in ascending entry order.
	Funcs []*Func
	// Indirect is set when the program makes an indirect call.
	Indirect bool
	// Steps counts block-transfer applications.
	Steps int

	reached func(S) bool
	join    func(dst *S, src S) bool
	budget  Budget
	byEntry map[int64]*Func
	version int // bumped by Mark; lets Fixpoint skip settled functions
	dirty   bool
	spent   bool // the step budget ran out
}

// NewEngine partitions g into functions. Entries are the program entry,
// every direct-call target and — when an indirect call exists — every
// listed branch target, since the guarded indirect call may invoke any of
// them. A function's blocks are those reachable from its entry without
// following a call into its callee. reached reports whether a state is
// above bottom; join merges src into *dst (possibly bottom) and reports
// whether *dst changed.
func NewEngine[S any](g *Graph, b Budget, reached func(S) bool, join func(dst *S, src S) bool) *Engine[S] {
	e := &Engine[S]{G: g, reached: reached, join: join, budget: b, byEntry: make(map[int64]*Func), version: 1}
	entries := map[int64]bool{g.Entry: true}
	for _, blk := range g.Blocks[1:] {
		switch last := blk.Last(); last.Op {
		case isa.OpCall:
			entries[disasm.DirectTarget(last)] = true
		case isa.OpCallR:
			e.Indirect = true
		}
	}
	if e.Indirect {
		for _, t := range g.Targets {
			entries[t] = true
		}
	}
	for off := range entries {
		if head := g.BlockAt(off); head != nil {
			e.Funcs = append(e.Funcs, &Func{Entry: off, Head: head.ID, Blocks: g.funcBlocks(head.ID)})
		}
	}
	sort.Slice(e.Funcs, func(i, j int) bool { return e.Funcs[i].Entry < e.Funcs[j].Entry })
	for i, f := range e.Funcs {
		f.Index = i
		e.byEntry[f.Entry] = f
	}
	return e
}

// funcBlocks returns the blocks reachable from head along intraprocedural
// edges, in ascending ID (= address) order.
func (g *Graph) funcBlocks(head int) []int {
	in := make([]bool, len(g.Blocks))
	in[head] = true
	work := []int{head}
	for len(work) > 0 {
		id := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range g.funcSuccs(g.Blocks[id]) {
			if !in[s] {
				in[s] = true
				work = append(work, s)
			}
		}
	}
	var ids []int
	for id, ok := range in {
		if ok {
			ids = append(ids, id)
		}
	}
	return ids
}

// funcSuccs returns a block's intraprocedural successors: a call continues
// at its fall-through (the callee is composed through its summary), and
// ret/hlt/trap leave the function.
func (g *Graph) funcSuccs(b *Block) []int {
	last := b.Last()
	switch last.Op {
	case isa.OpCall, isa.OpCallR:
		if nb := g.BlockAt(last.End()); nb != nil {
			return []int{nb.ID}
		}
		return nil
	case isa.OpRet, isa.OpHlt, isa.OpTrap:
		return nil
	default:
		return b.Succs
	}
}

// Func returns the function entered at off, or nil.
func (e *Engine[S]) Func(off int64) *Func { return e.byEntry[off] }

// Mark records a change to state outside the per-block in-states that a
// transfer reads (a summary, a calling context, global memory taint). A
// function whose in-states are stable and whose last analysis saw the
// current version cannot produce anything new, so Fixpoint skips it.
func (e *Engine[S]) Mark() {
	e.dirty = true
	e.version++
}

// Fixpoint iterates every function to global stability, calling analyze in
// entry order on each function whose last analysis predates the latest
// Mark. analyze runs the function's worklists (Solve) and reports whether
// any in-state changed. Fixpoint reports false when a budget ran out.
func (e *Engine[S]) Fixpoint(analyze func(f *Func) bool) bool {
	for round := 0; round < e.budget.Rounds; round++ {
		e.dirty = false
		changed := false
		for _, f := range e.Funcs {
			if f.seen == e.version {
				continue
			}
			// Record the version before analyzing: if the function's own
			// transfers Mark, the mismatch forces another local round.
			f.seen = e.version
			if analyze(f) {
				changed = true
			}
			if e.spent {
				return false
			}
		}
		if !changed && !e.dirty {
			return true
		}
	}
	return false
}

// Solve runs one analysis context of f — in holds its per-block in-states,
// indexed by block ID — to local stability under the current global state.
// The FIFO worklist is seeded with every reached block in address order;
// step returns a block's out-state without modifying its in-state. Solve
// reports whether any in-state changed.
func (e *Engine[S]) Solve(f *Func, in []S, step func(b *Block, in S) S) bool {
	changed := false
	var work []int
	queued := make([]bool, len(e.G.Blocks))
	for _, id := range f.Blocks {
		if e.reached(in[id]) {
			work = append(work, id)
			queued[id] = true
		}
	}
	for len(work) > 0 {
		e.Steps++
		if e.Steps > e.budget.Steps {
			e.spent = true
			return changed
		}
		id := work[0]
		work = work[1:]
		queued[id] = false
		b := e.G.Blocks[id]
		out := step(b, in[id])
		for _, s := range e.G.funcSuccs(b) {
			if !e.join(&in[s], out) {
				continue
			}
			changed = true
			if !queued[s] {
				queued[s] = true
				work = append(work, s)
			}
		}
	}
	return changed
}

// Sweep replays every reached block once per analysis context over the
// final in-states — functions in entry order, each function's contexts in
// the order contexts lists them, blocks in address order — and returns
// what the replays recorded, sorted by offset.
func (e *Engine[S]) Sweep(contexts func(f *Func) [][]S, replay func(f *Func, b *Block, in S, rec *Recorder)) []Finding {
	rec := &Recorder{seen: make(map[findingKey]bool)}
	for _, f := range e.Funcs {
		for _, in := range contexts(f) {
			for _, id := range f.Blocks {
				if e.reached(in[id]) {
					replay(f, e.G.Blocks[id], in[id], rec)
				}
			}
		}
	}
	sort.SliceStable(rec.findings, func(i, j int) bool { return rec.findings[i].Off < rec.findings[j].Off })
	return rec.findings
}

// Finding is one violation a dataflow pass reports at an instruction.
type Finding struct {
	Off  int64  // text offset of the violating instruction
	Kind string // the pass's finding kind
	Msg  string
}

type findingKey struct {
	off  int64
	kind string
}

// Recorder collects a sweep's findings, keeping the first message per
// (offset, kind). A nil Recorder discards everything: fixpoint iteration
// runs the same transfer code with nil.
type Recorder struct {
	seen     map[findingKey]bool
	findings []Finding
}

// Add records a finding of kind at off.
func (r *Recorder) Add(off int64, kind, format string, args ...any) {
	if r == nil || r.seen[findingKey{off, kind}] {
		return
	}
	r.seen[findingKey{off, kind}] = true
	r.findings = append(r.findings, Finding{Off: off, Kind: kind, Msg: fmt.Sprintf(format, args...)})
}
