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
// A hlt requires every reachable state to admit the policy.EventHlt
// pseudo-event — terminating with the protocol incomplete is itself an
// ordering violation.
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
// a permissive automaton. Validate therefore enforces, inside the TCB and
// after the structural check the object parser also runs
// (policy.Protocol.Validate), the invariants that make any accepted
// protocol meaningful: determinism (at most one successor per (state,
// event)), output gating (events that move data out of the enclave —
// OcallSend, OcallPrint and every unknown index — are admissible only from
// attestation-complete states), attestation monotonicity (no edge from an
// attested state to an unattested one), and terminal closure (a state
// entered by a hlt edge has no outgoing edges).
package order

import (
	"errors"
	"fmt"

	"deflection/internal/cfa"
	"deflection/internal/disasm"
	"deflection/internal/isa"
	"deflection/internal/policy"
)

// Finding kinds.
const (
	// KindEventOrder: an OCall fires in a protocol state that does not
	// admit its index.
	KindEventOrder = "event-order"
	// KindHaltOrder: the program can halt in a protocol state that does
	// not admit termination (the declared exchange is incomplete).
	KindHaltOrder = "halt-order"
)

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
	case policy.OcallRecv, policy.OcallThreadID, policy.EventHlt:
		return false
	}
	return true
}

// Validate checks the protocol's structure (policy.Protocol.Validate) and
// then its meta-invariants (see the package comment). Every error wraps
// ErrProtocol.
func Validate(p *policy.Protocol) error {
	if err := p.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrProtocol, err)
	}
	seen := make(map[[2]int64]bool, len(p.Edges))
	outDeg := make([]int, len(p.States))
	hltTo := make([]bool, len(p.States))
	for _, e := range p.Edges {
		from, to := p.States[e.From], p.States[e.To]
		k := [2]int64{e.From, e.Event}
		if seen[k] {
			return fmt.Errorf("%w: nondeterministic: two edges from %q on event %d", ErrProtocol, from.Name, e.Event)
		}
		seen[k] = true
		outDeg[e.From]++
		if outputEvent(e.Event) && !from.Attested {
			return fmt.Errorf("%w: output event %d admitted in unattested state %q", ErrProtocol, e.Event, from.Name)
		}
		if from.Attested && !to.Attested {
			return fmt.Errorf("%w: edge from attested %q to unattested %q loses attestation", ErrProtocol, from.Name, to.Name)
		}
		if e.Event == policy.EventHlt {
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
func StateNames(p *policy.Protocol, mask uint64) string {
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
// exactly like P7 with no tagged secrets). The report's block masks are
// reachable-state sets (bit i = state index i), and Ctxs counts the
// (function, entry state) contexts requested. It returns a non-nil Report
// unless the protocol fails meta-validation or the analysis budget is
// exhausted; either error must be treated as rejection by callers.
func Analyze(g *cfa.Graph, p *policy.Protocol) (*cfa.Report, error) {
	if p == nil {
		return &cfa.Report{Trivial: true}, nil
	}
	if err := Validate(p); err != nil {
		return nil, err
	}
	if g == nil || len(g.Blocks) <= 1 {
		return &cfa.Report{Trivial: true}, nil
	}
	a := &analysis{
		Engine: cfa.NewEngine(g, cfa.Budget{Rounds: 256, Steps: 1 << 20}, joinMask),
		p:      p,
		trans:  make(map[[2]int64]int64, len(p.Edges)),
	}
	for _, e := range p.Edges {
		a.trans[[2]int64{e.From, e.Event}] = e.To
	}
	a.fns = make([]fn, len(a.Funcs))
	for i := range a.fns {
		a.fns[i].index = i
		a.fns[i].ctxs = make([]*ctx, len(p.States))
	}
	// The entry function starts in the protocol's start state.
	if f := a.Func(g.Entry); f != nil {
		a.fns[f.Index].reqs = 1 << uint(p.Start)
	}
	if !a.Fixpoint(a.analyzeFn) {
		return nil, ErrBudget
	}
	return a.Sweep(a.contexts,
		func(_ *cfa.Func, b *cfa.Block, in uint64, rec *cfa.Recorder) uint64 { return a.transfer(b, in, rec) },
		func(m uint64) uint64 { return m }), nil
}

// fn is one function's requested entry states and their contexts.
type fn struct {
	index int // cfa.Func.Index
	reqs  uint64
	ctxs  []*ctx // indexed by entry state; nil until requested
}

// ctx is one (function, entry state) analysis context. A zero in-mask is
// bottom: the block is unreached in this context.
type ctx struct {
	*cfa.Context[uint64]
	key int    // engine key of ret
	ret uint64 // join of reachable states at every return
}

// analysis is the protocol-state domain over the shared engine. Requested
// contexts and grown summaries are declared with Engine.Read where a
// transfer reads them and change only through Engine.Mark.
type analysis struct {
	*cfa.Engine[uint64]
	p     *policy.Protocol
	trans map[[2]int64]int64 // (state, event) -> successor state
	fns   []fn               // indexed by cfa.Func.Index
}

// Engine keys: per function, the return summary of each entry state and
// the set of requested entry states.
func (a *analysis) retKey(f *fn, s int) int { return f.index*(len(a.p.States)+1) + s }
func (a *analysis) reqsKey(f *fn) int       { return a.retKey(f, len(a.p.States)) }

// contexts returns f's requested contexts in entry-state order.
func (a *analysis) contexts(f *cfa.Func) []*cfa.Context[uint64] {
	var cs []*cfa.Context[uint64]
	for _, c := range a.fns[f.Index].ctxs {
		if c != nil {
			cs = append(cs, c.Context)
		}
	}
	return cs
}

func joinMask(dst *uint64, src uint64) bool {
	if *dst|src == *dst {
		return false
	}
	*dst |= src
	return true
}

// analyzeFn re-transfers the stale blocks of every requested context under
// the current global state, entering contexts requested since the last
// call.
func (a *analysis) analyzeFn(f *cfa.Func) {
	fs := &a.fns[f.Index]
	for s := 0; s < len(a.p.States); s++ {
		if fs.reqs&(1<<uint(s)) == 0 {
			continue
		}
		c := fs.ctxs[s]
		if c == nil {
			c = &ctx{Context: a.NewContext(f), key: a.retKey(fs, s)}
			fs.ctxs[s] = c
			a.Enter(c.Context, -1, func() uint64 { return 1 << uint(s) })
		}
		a.Solve(c.Context, func(b *cfa.Block, in uint64) uint64 { return a.flow(c, b, in) })
	}
}

// flow is a block's transfer within context c, composed with its exit: a
// return folds the states into c's summary, a call maps them through the
// callee summaries.
func (a *analysis) flow(c *ctx, b *cfa.Block, in uint64) uint64 {
	out := a.transfer(b, in, nil)
	switch last := b.Last(); last.Op {
	case isa.OpRet:
		if joinMask(&c.ret, out) {
			a.Mark(c.key)
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
// caller when the summary grows. Every call target is a function entry:
// Disassemble decodes each direct target or rejects, and cfa.NewEngine
// makes each decoded call target, and each listed target of a binary with
// an indirect call, an entry.
func (a *analysis) callOut(entry int64, cur uint64) uint64 {
	callee := &a.fns[a.Func(entry).Index]
	var out uint64
	for s := 0; s < len(a.p.States); s++ {
		if cur&(1<<uint(s)) == 0 {
			continue
		}
		if joinMask(&callee.reqs, 1<<uint(s)) {
			a.Mark(a.reqsKey(callee))
		}
		a.Read(a.retKey(callee, s))
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
// policy.EventHlt.
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
							di.Imm, a.p.States[s].Name, StateNames(a.p, cur))
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
					if _, ok := a.trans[[2]int64{int64(s), policy.EventHlt}]; !ok {
						rec.Add(di.Off, KindHaltOrder,
							"program can halt in protocol state %q which does not admit termination (reachable states: %s)",
							a.p.States[s].Name, StateNames(a.p, cur))
					}
				}
			}
		}
	}
	return cur
}
