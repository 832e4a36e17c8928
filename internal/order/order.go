// Package order implements the P8 interface-orderliness verification pass:
// a whole-program, flow-sensitive product construction between the CFG that
// internal/cfa recovers and a declared interface protocol — a small DFA over
// interface events (OCall indices and the terminating hlt). The pass
// computes, per basic block, the set of protocol states reachable at its
// entry and rejects binaries on which an interface event can fire in a
// state that does not admit it: output before attestation completes, an
// unsealed call nested inside a sealed exchange, a repeated single-shot
// exchange smuggled through a loop, or any event after the protocol's
// terminal state.
//
// The package is part of the in-enclave TCB: like internal/taint it may
// depend only on internal/isa, internal/disasm, internal/cfa,
// internal/policy and the standard library (enforced by internal/lint), and
// the analysis is a pure function of the CFG plus the declared protocol —
// no I/O, no global state.
//
// # Abstract domain
//
// The protocol has at most 64 states, so a reachable-state set is one
// uint64 bitmask; the per-block abstract value is the join (union) of the
// states the automaton can be in when control reaches the block. The
// transfer function is exact on straight-line code: an OCall with index k
// maps each state s to its (s, k) successor, and records a finding when a
// reachable state has no such edge (the event fires where the protocol does
// not admit it; the state is retained so one root cause does not cascade).
// A hlt requires every reachable state to admit the EventHlt pseudo-event —
// terminating with the protocol incomplete is itself an ordering violation.
//
// # Interprocedural model
//
// The partition, fixpoint, worklists, budgets and sweep are the shared
// engine in internal/cfa (DESIGN.md §11); this package supplies the domain
// and its transfer. Each function is analyzed once per entry state actually
// requested by a call site — one engine worklist run per (function, entry
// state) context — giving a relational summary indexed by entry state:
// summary(f, s) is the set of states f can return in when entered in state
// s. Call transfer unions the summaries of the current states; an empty
// summary (callee never returns, or not yet analyzed) contributes bottom,
// and the engine re-runs callers when summaries grow.
//
// # Protocol meta-validation
//
// The protocol table is part of the proof, so — like the P7 secret table —
// a hostile generator must not be able to weaken the property by declaring
// a permissive automaton. Validate therefore enforces, inside the TCB, the
// invariants that make any accepted protocol meaningful: determinism (at
// most one successor per (state, event)), output gating (events that move
// data out of the enclave — OcallSend, OcallPrint and every unknown index —
// are admissible only from attestation-complete states), attestation
// monotonicity (no edge from an attested state to an unattested one), and
// terminal closure (a state entered by a hlt edge has no outgoing edges).
package order

import (
	"errors"
	"fmt"

	"deflection/internal/cfa"
	"deflection/internal/disasm"
	"deflection/internal/isa"
	"deflection/internal/policy"
)

// EventHlt is the pseudo-event of the program's terminating hlt; every real
// interface event is a positive OCall index.
const EventHlt int64 = -1

// MaxStates bounds the protocol size so a reachable-state set fits one
// 64-bit word.
const MaxStates = 64

// State is one protocol state. Attested marks states in which the
// attestation/provisioning exchange has completed and output events become
// admissible.
type State struct {
	Name     string
	Attested bool
}

// Edge admits interface event Event in state From and moves the automaton
// to state To.
type Edge struct {
	From  int
	Event int64
	To    int
}

// Protocol is a declared interface protocol: a DFA over interface events.
// State identity is the index into States; Start is the state at program
// entry.
type Protocol struct {
	States []State
	Start  int
	Edges  []Edge
}

// Finding kinds.
const (
	// KindEventOrder: an OCall fires in a protocol state that does not
	// admit its index.
	KindEventOrder = "event-order"
	// KindHaltOrder: the program can halt in a protocol state that does
	// not admit termination (the declared exchange is incomplete).
	KindHaltOrder = "halt-order"
)

// BlockStates is the reachable-protocol-state summary of one basic block
// (joined over every analysis context), for debugging renderings
// (deflection-disasm -order).
type BlockStates struct {
	In, Out uint64 // state bitmasks, bit i = state index i
}

// Report is the analysis outcome. A binary complies with P8 iff Findings
// is empty.
type Report struct {
	// Trivial is set when the pass held without analysis (no protocol
	// declared, or no code).
	Trivial bool
	// Findings lists ordering violations in address order.
	Findings []cfa.Finding
	// Blocks maps block IDs to their reachable-state in/out masks.
	Blocks map[int]BlockStates
	// Funcs is the number of functions partitioned and analyzed; Ctxs the
	// number of (function, entry state) contexts requested.
	Funcs, Ctxs int
	// States is the protocol's state count (0 when Trivial).
	States int
	// Steps counts block-transfer applications (analysis effort).
	Steps int
}

// Analysis failure modes. All reject the binary: the verifier treats any
// error from Analyze as a conservative violation.
var (
	// ErrProtocol reports a declared protocol that fails meta-validation.
	ErrProtocol = errors.New("order: invalid protocol")
	// ErrBudget reports that the fixpoint did not stabilise within the
	// analysis budget.
	ErrBudget = errors.New("order: analysis budget exceeded")
)

// outputEvent reports whether ev moves data out of the enclave. OcallRecv
// provisions data inward and OcallThreadID is enclave-local; everything
// else — the sealed send, the debug print, and any index this TCB revision
// does not know — is treated as output and gated on attestation.
func outputEvent(ev int64) bool {
	switch ev {
	case policy.OcallRecv, policy.OcallThreadID, EventHlt:
		return false
	}
	return true
}

// Validate checks the protocol's meta-invariants (see the package comment).
// Every error wraps ErrProtocol.
func (p *Protocol) Validate() error {
	if n := len(p.States); n == 0 || n > MaxStates {
		return fmt.Errorf("%w: %d states (want 1..%d)", ErrProtocol, len(p.States), MaxStates)
	}
	names := make(map[string]bool, len(p.States))
	for _, st := range p.States {
		if st.Name == "" {
			return fmt.Errorf("%w: state with empty name", ErrProtocol)
		}
		if names[st.Name] {
			return fmt.Errorf("%w: state %q declared twice", ErrProtocol, st.Name)
		}
		names[st.Name] = true
	}
	if p.Start < 0 || p.Start >= len(p.States) {
		return fmt.Errorf("%w: start state %d out of range", ErrProtocol, p.Start)
	}
	seen := make(map[[2]int64]bool, len(p.Edges))
	outDeg := make([]int, len(p.States))
	hltTo := make([]bool, len(p.States))
	for _, e := range p.Edges {
		if e.From < 0 || e.From >= len(p.States) || e.To < 0 || e.To >= len(p.States) {
			return fmt.Errorf("%w: edge %d-[%d]->%d references an undefined state", ErrProtocol, e.From, e.Event, e.To)
		}
		if e.Event < EventHlt || e.Event == 0 {
			return fmt.Errorf("%w: event %d is neither an OCall index nor hlt", ErrProtocol, e.Event)
		}
		k := [2]int64{int64(e.From), e.Event}
		if seen[k] {
			return fmt.Errorf("%w: nondeterministic: two edges from %q on event %d", ErrProtocol, p.States[e.From].Name, e.Event)
		}
		seen[k] = true
		outDeg[e.From]++
		if outputEvent(e.Event) && !p.States[e.From].Attested {
			return fmt.Errorf("%w: output event %d admitted in unattested state %q", ErrProtocol, e.Event, p.States[e.From].Name)
		}
		if p.States[e.From].Attested && !p.States[e.To].Attested {
			return fmt.Errorf("%w: edge from attested %q to unattested %q loses attestation", ErrProtocol, p.States[e.From].Name, p.States[e.To].Name)
		}
		if e.Event == EventHlt {
			hltTo[e.To] = true
		}
	}
	for i, hit := range hltTo {
		if hit && outDeg[i] > 0 {
			return fmt.Errorf("%w: terminal state %q (entered by hlt) has outgoing edges", ErrProtocol, p.States[i].Name)
		}
	}
	return nil
}

// StateNames renders a state bitmask using the protocol's names, in index
// order, for findings and debug renderings.
func (p *Protocol) StateNames(mask uint64) string {
	var parts []string
	for i := range p.States {
		if mask&(1<<uint(i)) != 0 {
			parts = append(parts, p.States[i].Name)
		}
	}
	if len(parts) == 0 {
		return "∅"
	}
	out := parts[0]
	for _, s := range parts[1:] {
		out += "," + s
	}
	return out
}

// Analyze runs the orderliness pass over a recovered CFG. A nil protocol
// holds trivially (nothing was declared, so there is no order to violate —
// exactly like P7 with no tagged secrets). It returns a non-nil Report
// unless the protocol fails meta-validation or the analysis budget is
// exhausted; either error must be treated as rejection by callers.
func Analyze(g *cfa.Graph, p *Protocol) (*Report, error) {
	rep := &Report{Blocks: make(map[int]BlockStates)}
	if p == nil {
		rep.Trivial = true
		return rep, nil
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if g == nil || len(g.Blocks) <= 1 {
		rep.Trivial = true
		return rep, nil
	}
	a := &analysis{
		Engine: cfa.NewEngine(g, cfa.Budget{Rounds: 256, Steps: 1 << 20}, func(m uint64) bool { return m != 0 }, joinMask),
		p:      p,
		trans:  make(map[[2]int64]int, len(p.Edges)),
	}
	for _, e := range p.Edges {
		a.trans[[2]int64{int64(e.From), e.Event}] = e.To
	}
	a.fns = make([]fn, len(a.Funcs))
	for i := range a.fns {
		a.fns[i].ctxs = make([]*ctx, len(p.States))
	}
	// The entry function starts in the protocol's start state.
	if f := a.Func(g.Entry); f != nil {
		a.fns[f.Index].reqs = 1 << uint(p.Start)
	}
	if !a.Fixpoint(a.analyzeFn) {
		return nil, ErrBudget
	}
	rep.Findings = a.Sweep(a.contexts,
		func(_ *cfa.Func, b *cfa.Block, in uint64, rec *cfa.Recorder) {
			bs := rep.Blocks[b.ID]
			bs.In |= in
			bs.Out |= a.transfer(b, in, rec)
			rep.Blocks[b.ID] = bs
		})
	rep.Funcs = len(a.Funcs)
	for _, f := range a.Funcs {
		rep.Ctxs += len(a.contexts(f))
	}
	rep.States = len(p.States)
	rep.Steps = a.Steps
	return rep, nil
}

// fn is one function's requested entry states and their contexts.
type fn struct {
	reqs uint64
	ctxs []*ctx // indexed by entry state; nil until requested
}

// ctx is one (function, entry state) analysis context. A zero in-mask is
// bottom: the block is unreached in this context.
type ctx struct {
	in  []uint64 // block in-masks, indexed by block ID
	ret uint64   // join of reachable states at every return
}

// analysis is the protocol-state domain over the shared engine. Requested
// contexts and grown summaries change only through Engine.Mark.
type analysis struct {
	*cfa.Engine[uint64]
	p     *Protocol
	trans map[[2]int64]int // (state, event) -> successor state
	fns   []fn             // indexed by cfa.Func.Index
}

// contexts returns the in-masks of f's requested contexts in entry-state
// order.
func (a *analysis) contexts(f *cfa.Func) [][]uint64 {
	var ins [][]uint64
	for _, c := range a.fns[f.Index].ctxs {
		if c != nil {
			ins = append(ins, c.in)
		}
	}
	return ins
}

func joinMask(dst *uint64, src uint64) bool {
	if *dst|src == *dst {
		return false
	}
	*dst |= src
	return true
}

// analyzeFn runs one engine worklist per requested context to local
// stability under the current global state.
func (a *analysis) analyzeFn(f *cfa.Func) bool {
	fs := &a.fns[f.Index]
	changed := false
	for s := 0; s < len(a.p.States); s++ {
		if fs.reqs&(1<<uint(s)) == 0 {
			continue
		}
		c := fs.ctxs[s]
		if c == nil {
			c = &ctx{in: make([]uint64, len(a.G.Blocks))}
			fs.ctxs[s] = c
		}
		if joinMask(&c.in[f.Head], 1<<uint(s)) {
			changed = true
		}
		changed = a.Solve(f, c.in, func(b *cfa.Block, in uint64) uint64 { return a.flow(c, b, in) }) || changed
	}
	return changed
}

// flow is a block's transfer within context c, composed with its exit: a
// return folds the states into c's summary, a call maps them through the
// callee summaries.
func (a *analysis) flow(c *ctx, b *cfa.Block, in uint64) uint64 {
	out := a.transfer(b, in, nil)
	switch last := b.Last(); last.Op {
	case isa.OpRet:
		if joinMask(&c.ret, out) {
			a.Mark()
		}
	case isa.OpCall:
		out = a.callOut(disasm.DirectTarget(last), out)
	case isa.OpCallR:
		var merged uint64
		for _, t := range a.G.Targets {
			merged |= a.callOut(t, out)
		}
		out = merged
	}
	return out
}

// callOut composes a call in states cur with the callee's per-entry-state
// summaries, requesting contexts not yet analyzed. An unanalyzed (or
// non-returning) context contributes bottom; chaotic iteration revisits the
// caller when the summary grows.
func (a *analysis) callOut(entry int64, cur uint64) uint64 {
	f := a.Func(entry)
	if f == nil {
		// No decoded function at the target: the disassembler and the
		// target-list pass reject such binaries before this pass runs;
		// keep the states to stay conservative if they did not.
		return cur
	}
	callee := &a.fns[f.Index]
	var out uint64
	for s := 0; s < len(a.p.States); s++ {
		if cur&(1<<uint(s)) == 0 {
			continue
		}
		if joinMask(&callee.reqs, 1<<uint(s)) {
			a.Mark()
		}
		if c := callee.ctxs[s]; c != nil {
			out |= c.ret
		}
	}
	return out
}

// transfer applies a block's interface events to a state mask. A reachable
// state without an edge for a firing event is an ordering violation; the
// state is retained (not dropped) so a single root cause does not cascade
// into derived findings downstream, and the recorder deduplicates by
// offset. A hlt additionally requires every reachable state to admit
// EventHlt.
func (a *analysis) transfer(b *cfa.Block, in uint64, rec *cfa.Recorder) uint64 {
	cur := in
	for _, di := range b.Insts {
		switch di.Op {
		case isa.OpOcall:
			var next uint64
			for s := 0; s < len(a.p.States); s++ {
				if cur&(1<<uint(s)) == 0 {
					continue
				}
				if to, ok := a.trans[[2]int64{int64(s), di.Imm}]; ok {
					next |= 1 << uint(to)
				} else {
					if rec != nil {
						rec.Add(di.Off, KindEventOrder,
							"ocall %d fires in protocol state %q which does not admit it (reachable states: %s)",
							di.Imm, a.p.States[s].Name, a.p.StateNames(cur))
					}
					next |= 1 << uint(s)
				}
			}
			cur = next
		case isa.OpHlt:
			if rec != nil {
				for s := 0; s < len(a.p.States); s++ {
					if cur&(1<<uint(s)) == 0 {
						continue
					}
					if _, ok := a.trans[[2]int64{int64(s), EventHlt}]; !ok {
						rec.Add(di.Off, KindHaltOrder,
							"program can halt in protocol state %q which does not admit termination (reachable states: %s)",
							a.p.States[s].Name, a.p.StateNames(cur))
					}
				}
			}
		}
	}
	return cur
}
