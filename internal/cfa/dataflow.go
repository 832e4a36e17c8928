package cfa

import (
	"fmt"
	"math/bits"
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

	head int32 // Head's index in Blocks
	// Block i's intraprocedural successors, as indices into Blocks, are
	// succ[succAt[i]:succAt[i+1]].
	succAt []int32
	succ   []int32
}

// Budget bounds a fixpoint: outer chaotic-iteration rounds and total
// block-transfer applications. Running out is a conservative rejection.
type Budget struct{ Rounds, Steps int }

// Engine is the interprocedural fixpoint scaffold the P7 taint and P8 order
// passes are built on (DESIGN.md §11): a function partition, chaotic
// iteration that re-transfers only stale blocks, address-ordered worklists
// and a final recording sweep. It is generic over the abstract state S a
// pass attaches to each block; the pass supplies join and the block
// transfer, and names every global fact a transfer reads by a small integer
// key (Read, Mark).
type Engine[S any] struct {
	G *Graph
	// Funcs is the partition in ascending entry order.
	Funcs []*Func
	// Indirect is set when the program makes an indirect call.
	Indirect bool
	// Steps counts block-transfer applications.
	Steps int

	join    func(dst *S, src S) bool
	budget  Budget
	byEntry map[int64]*Func
	// clock advances on every transfer and every Mark, so the stamps
	// below order them.
	clock    int
	lastMark int       // clock of the latest Mark
	marked   []int     // per key: clock of its latest Mark (0: never)
	readAt   []int     // per key: stamp of the transfer that last read it
	cur      *blockRec // record of the transfer in progress (nil: none)
	work     []uint64  // worklist bitset, sized for the largest function
	spent    bool      // the step budget ran out
}

// NewEngine partitions g into functions. Entries are the program entry,
// every direct-call target and — when an indirect call exists — every
// listed branch target, since the guarded indirect call may invoke any of
// them. A function's blocks are those reachable from its entry without
// following a call into its callee. join merges src into *dst (possibly
// the zero value, bottom) and reports whether *dst changed.
func NewEngine[S any](g *Graph, b Budget, join func(dst *S, src S) bool) *Engine[S] {
	e := &Engine[S]{G: g, join: join, budget: b, byEntry: make(map[int64]*Func), clock: 1}
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
	pos := make([]int32, len(g.Blocks))
	maxBlocks := 0
	for off := range entries {
		if head := g.BlockAt(off); head != nil {
			f := &Func{Entry: off, Head: head.ID, Blocks: g.funcBlocks(head.ID)}
			g.linkFunc(f, pos)
			maxBlocks = max(maxBlocks, len(f.Blocks))
			e.Funcs = append(e.Funcs, f)
		}
	}
	sort.Slice(e.Funcs, func(i, j int) bool { return e.Funcs[i].Entry < e.Funcs[j].Entry })
	for i, f := range e.Funcs {
		f.Index = i
		e.byEntry[f.Entry] = f
	}
	e.work = make([]uint64, (maxBlocks+63)/64)
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

// linkFunc fills f's successor lists in indices into f.Blocks. pos is
// scratch of len(g.Blocks).
func (g *Graph) linkFunc(f *Func, pos []int32) {
	for i, id := range f.Blocks {
		pos[id] = int32(i)
	}
	f.head = pos[f.Head]
	f.succAt = make([]int32, 1, len(f.Blocks)+1)
	for _, id := range f.Blocks {
		for _, s := range g.funcSuccs(g.Blocks[id]) {
			f.succ = append(f.succ, pos[s])
		}
		f.succAt = append(f.succAt, int32(len(f.succ)))
	}
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

// Context is one analysis context of a function: the in-state of each of
// its blocks and, per block, when the engine last transferred it and which
// keys that transfer read.
type Context[S any] struct {
	f       *Func
	in      []S        // indexed like f.Blocks; the zero value is bottom
	blk     []blockRec // indexed like f.Blocks
	entered int        // clock of the last entry join (0: never)
	pending bool       // the head's in-state grew since its last transfer
	scanned int        // clock of the last staleness scan
}

// blockRec is the engine's record of a block's last transfer.
type blockRec struct {
	stamp int     // clock of the transfer; 0 while the block is unreached
	reads []int32 // the keys it read
}

// NewContext returns an empty context of f: every block unreached.
func (e *Engine[S]) NewContext(f *Func) *Context[S] {
	return &Context[S]{f: f, in: make([]S, len(f.Blocks)), blk: make([]blockRec, len(f.Blocks))}
}

// key grows the per-key tables to hold k.
func (e *Engine[S]) key(k int) {
	for k >= len(e.marked) {
		e.marked = append(e.marked, 0)
		e.readAt = append(e.readAt, 0)
	}
}

// Read declares that the transfer in progress reads the global fact named
// k: the block is transferred again once k is marked. Outside a transfer
// (the final sweep) it does nothing.
func (e *Engine[S]) Read(k int) {
	if e.cur == nil {
		return
	}
	e.key(k)
	if r := e.cur; e.readAt[k] != r.stamp {
		e.readAt[k] = r.stamp
		r.reads = append(r.reads, int32(k))
	}
}

// Mark records that the global fact named k changed: every block whose last
// transfer read k is stale, and the next Solve of its context transfers it
// again. A pass must Mark every change to state a transfer reads besides
// the block's own in-state.
func (e *Engine[S]) Mark(k int) {
	e.key(k)
	e.clock++
	e.marked[k] = e.clock
	e.lastMark = e.clock
}

// Enter joins a context's entry state into its head block. entry is called
// on the first Enter and afterwards only when key k was marked since the
// previous call; k < 0 declares an entry state that never changes.
func (e *Engine[S]) Enter(c *Context[S], k int, entry func() S) {
	if c.entered > 0 {
		if k < 0 {
			return
		}
		if e.key(k); e.marked[k] <= c.entered {
			return
		}
	}
	c.entered = e.clock
	if e.join(&c.in[c.f.head], entry()) {
		c.pending = true
	}
}

// Fixpoint iterates every function to global stability, calling analyze in
// entry order each round until a round transfers no block and marks
// nothing. analyze enters the function's contexts and solves them; a
// context with no stale block costs no transfer. Fixpoint reports false
// when a budget ran out.
func (e *Engine[S]) Fixpoint(analyze func(f *Func)) bool {
	for round := 0; round < e.budget.Rounds; round++ {
		steps, clock := e.Steps, e.clock
		for _, f := range e.Funcs {
			analyze(f)
			if e.spent {
				return false
			}
		}
		if e.Steps == steps && e.lastMark <= clock {
			return true
		}
	}
	return false
}

// Solve transfers the stale blocks of context c, and whatever their
// changed out-states reach, under the current global state. A block is
// stale when a join grew its in-state since its last transfer, or when a
// key that transfer read was marked later. The worklist pops the lowest
// block first: IDs follow addresses, which approximates reverse post-order
// for compiled code, so a join block waits for its forward predecessors.
// step returns a block's out-state without modifying its in-state.
func (e *Engine[S]) Solve(c *Context[S], step func(b *Block, in S) S) {
	f := c.f
	if !c.pending && e.lastMark <= c.scanned {
		return // nothing marked since every block was last fresh
	}
	c.scanned = e.clock
	work := e.work[:(len(f.Blocks)+63)/64]
	lo := len(work)
	push := func(i int32) {
		w := int(i >> 6)
		work[w] |= 1 << (i & 63)
		lo = min(lo, w)
	}
	if c.pending {
		c.pending = false
		push(f.head)
	}
	for i := range c.blk {
		r := &c.blk[i]
		if r.stamp == 0 {
			continue
		}
		for _, k := range r.reads {
			if e.marked[k] > r.stamp {
				push(int32(i))
				break
			}
		}
	}
	for {
		for lo < len(work) && work[lo] == 0 {
			lo++
		}
		if lo == len(work) {
			return
		}
		i := int32(lo<<6 + bits.TrailingZeros64(work[lo]))
		work[lo] &^= 1 << (i & 63)
		e.Steps++
		if e.Steps > e.budget.Steps {
			e.spent = true
			clear(work)
			return
		}
		e.clock++
		r := &c.blk[i]
		r.stamp, r.reads = e.clock, r.reads[:0]
		e.cur = r
		out := step(e.G.Blocks[f.Blocks[i]], c.in[i])
		e.cur = nil
		for _, s := range f.succ[f.succAt[i]:f.succAt[i+1]] {
			if e.join(&c.in[s], out) {
				push(s)
			}
		}
	}
}

// Report is what a dataflow pass reports: its findings and, per block, the
// masks its states reduce to. A binary complies with the pass iff Findings
// is empty.
type Report struct {
	// Trivial is set when the pass held without analysis (nothing to
	// track: no secrets tagged, no protocol declared).
	Trivial bool
	// Findings lists rule violations in address order.
	Findings []Finding
	// Blocks maps the ID of every reached block to its in- and out-state
	// masks, joined over every context the block was analysed in.
	Blocks map[int]Masks
	// Funcs is the number of functions partitioned, Ctxs the number of
	// analysis contexts swept and Steps the block-transfer applications
	// the fixpoint made (analysis effort).
	Funcs, Ctxs, Steps int
}

// Masks is a block's state at entry and exit reduced to a bitmask, whose
// bits the pass defines.
type Masks struct{ In, Out uint64 }

// Sweep replays every reached block once per analysis context over the
// final in-states — functions in entry order, each function's contexts in
// the order contexts lists them, blocks in address order — and reports
// what the replays recorded, findings sorted by offset. replay returns the
// block's out-state; mask reduces an in- or out-state to the block masks.
func (e *Engine[S]) Sweep(contexts func(f *Func) []*Context[S], replay func(f *Func, b *Block, in S, rec *Recorder) S, mask func(S) uint64) *Report {
	rep := &Report{Blocks: make(map[int]Masks), Funcs: len(e.Funcs), Steps: e.Steps}
	rec := &Recorder{seen: make(map[findingKey]bool)}
	for _, f := range e.Funcs {
		cs := contexts(f)
		rep.Ctxs += len(cs)
		for _, c := range cs {
			for i, id := range f.Blocks {
				if c.blk[i].stamp > 0 {
					in := c.in[i]
					m := rep.Blocks[id]
					m.In |= mask(in)
					m.Out |= mask(replay(f, e.G.Blocks[id], in, rec))
					rep.Blocks[id] = m
				}
			}
		}
	}
	sort.SliceStable(rec.findings, func(i, j int) bool { return rec.findings[i].Off < rec.findings[j].Off })
	rep.Findings = rec.findings
	return rep
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
