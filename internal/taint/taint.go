// Package taint implements the P7 secret-taint verification pass: a
// whole-program, flow-sensitive static taint analysis over the CFG that
// internal/cfa recovers. Sources are the secret buffer ranges declared in
// the object's proof (tagged with the `secret` storage qualifier at the
// source level); the only sanctioned sink is the sealed-output routine
// (OcallSend). The pass rejects binaries where tainted bytes can reach an
// unsealed output (OcallPrint or an unknown ocall index), an indirect
// branch with a tainted target, or a store whose destination cannot be
// tracked.
//
// The package is part of the in-enclave TCB: like internal/cfa it may
// depend only on internal/isa, internal/disasm, internal/cfa,
// internal/policy and the standard library (enforced by internal/lint),
// and the analysis is a pure function of the CFG plus the configuration —
// no I/O, no global state.
//
// # Abstract domain
//
// Per program point the analysis tracks, for each register, a taint bit
// and an abstract value: an exact immediate, a pointer into the P1 store
// window (with a possible-base interval, widened to the whole window when
// an unknown index is added), an RSP-relative stack offset, the shadow-
// stack pointer (R14), or unknown. Stack frames are tracked as sparse
// slot maps keyed by the offset from the function-entry RSP; memory taint
// over the data region is a global, monotonically growing interval set.
// Taint on stack slots is sticky under partial overwrites (only a full
// aligned 8-byte store performs a strong update), so laundering a secret
// by partially overwriting a tainted slot is caught.
//
// # Interprocedural model
//
// The partition, fixpoint, worklists, budgets and sweep are the shared
// engine in internal/cfa (DESIGN.md §11); this package supplies the domain
// and its transfer. Functions compose through summaries: the join of entry
// register taint over all call sites, taint of caller-frame slots visible
// to the callee (arguments), the register taint at return, and the
// callee's writes into the caller frame. Call/return transfer uses the
// hardware convention (call pushes the return address, so callee offset d
// maps to caller offset d + delta(call) - 8) and assumes callees are
// stack-balanced, which P5's shadow stack pins at run time.
//
// # Known over-approximations
//
// Only explicit flows are tracked: compare/branch results do not carry
// taint, so a binary can in principle launder one bit per branch through
// the flag register (the classic implicit-flow limitation of taint
// tracking; the paper's P0 output budget bounds the resulting channel).
// Conversely the analysis over-taints: loads through tainted or widened
// indices taint the result, a tainted store through a widened pointer
// taints the whole window, and indirect calls havoc all registers.
// Program exit status (HLT/RAX) is a declared interface output and not a
// P7 sink.
package taint

import (
	"errors"
	"fmt"
	"sort"

	"deflection/internal/cfa"
	"deflection/internal/isa"
)

// Range is a half-open [Lo, Hi) span of absolute addresses.
type Range struct{ Lo, Hi uint64 }

// Config parametrises an analysis with the loaded binary's memory geometry.
type Config struct {
	// Secrets are the absolute address ranges of the tagged secret
	// buffers (the taint sources). Empty means the pass holds trivially.
	Secrets []Range
	// DataLo/DataHi bound the P1 store window [StoreLo, StoreHi): the
	// only region target stores may reach, spanning globals, heap and
	// stack (enclave.Layout.StoreLo/StoreHi).
	DataLo, DataHi uint64
	// StackLo/StackHi bound the stack subrange of the window. Absolute
	// stores overlapping it additionally smear the tracked stack frames.
	StackLo, StackHi uint64
	// Guarded lists text offsets of store instructions whose target address
	// the P1 template and dominance passes proved confined to the data
	// window (the run-time guard traps otherwise). When the analysis loses
	// track of the address at such a store — e.g. a pointer spilled across
	// a smearing call — it degrades to a window-wide store instead of
	// rejecting it as untracked.
	Guarded []int64
}

// Finding kinds.
const (
	// KindUnsealedOutput: a tainted value reaches an ocall other than the
	// sealed-output routine.
	KindUnsealedOutput = "unsealed-output"
	// KindIndirectTarget: an indirect jump or call through a tainted
	// register.
	KindIndirectTarget = "indirect-target"
	// KindUntrackedStore: a tainted value is stored through an address
	// the analysis cannot bound to the data window or a tracked slot.
	KindUntrackedStore = "untracked-store"
)

// Report is the analysis outcome: the engine's report, whose block masks
// are register bitmasks (bit i = isa.Reg(i) tainted), and the tainted data
// intervals at the fixpoint. A binary complies with P7 iff Findings is
// empty.
type Report struct {
	cfa.Report
	// MemRanges is the number of tracked tainted data intervals at the
	// fixpoint.
	MemRanges int
}

// Analysis failure modes. Both reject the binary: the verifier treats any
// error from Analyze as a conservative violation.
var (
	// ErrConfig reports an ill-formed configuration (malformed secret
	// ranges or window bounds).
	ErrConfig = errors.New("taint: invalid configuration")
	// ErrBudget reports that the fixpoint did not stabilise within the
	// analysis budget.
	ErrBudget = errors.New("taint: analysis budget exceeded")
)

const (
	maxSecrets   = 1 << 12
	maxSlots     = 1 << 12 // tracked stack slots per state before smearing
	maxIntervals = 1 << 10 // tracked tainted data intervals before hulling
)

func (c Config) validate() error {
	if c.DataLo > c.DataHi {
		return fmt.Errorf("%w: data window [%#x, %#x)", ErrConfig, c.DataLo, c.DataHi)
	}
	if c.StackLo > c.StackHi {
		return fmt.Errorf("%w: stack range [%#x, %#x)", ErrConfig, c.StackLo, c.StackHi)
	}
	if len(c.Secrets) > maxSecrets {
		return fmt.Errorf("%w: %d secret ranges", ErrConfig, len(c.Secrets))
	}
	for _, s := range c.Secrets {
		if s.Lo >= s.Hi {
			return fmt.Errorf("%w: secret range [%#x, %#x)", ErrConfig, s.Lo, s.Hi)
		}
	}
	return nil
}

// Analyze runs the taint pass over a recovered CFG. It returns a non-nil
// Report unless the configuration is invalid or the analysis budget is
// exhausted; either error must be treated as rejection by callers.
func Analyze(g *cfa.Graph, cfg Config) (*Report, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(cfg.Secrets) == 0 || g == nil || len(g.Blocks) <= 1 {
		// No sources (or no code): no instruction can introduce taint, so
		// every sink is trivially clean.
		return &Report{Report: cfa.Report{Trivial: true}}, nil
	}
	a := &analysis{
		Engine:  cfa.NewEngine(g, cfa.Budget{Rounds: 256, Steps: 1 << 21}, joinState),
		cfg:     cfg,
		guarded: make(map[int64]bool, len(cfg.Guarded)),
	}
	for _, off := range cfg.Guarded {
		a.guarded[off] = true
	}
	a.fns = make([]fn, len(a.Funcs))
	for i, f := range a.Funcs {
		fs := &a.fns[i]
		fs.index = i
		fs.ctx = a.NewContext(f)
		if a.Indirect && f.Entry != g.Entry {
			// Any listed target may be invoked with any arguments through a
			// guarded indirect call: analyze each as a fully tainted entry.
			fs.inRegs = 0xffff
			fs.argsSmr = true
		}
	}
	if !a.Fixpoint(a.analyzeFn) {
		return nil, ErrBudget
	}
	rep := a.Sweep(
		func(f *cfa.Func) []*cfa.Context[*state] { return []*cfa.Context[*state]{a.fns[f.Index].ctx} },
		func(f *cfa.Func, b *cfa.Block, in *state, rec *cfa.Recorder) *state {
			st := in.cloneInto(&a.scratch)
			a.transfer(&a.fns[f.Index], b, st, rec)
			return st
		},
		func(st *state) uint64 { return uint64(st.taint) })
	return &Report{Report: *rep, MemRanges: len(a.mem.r)}, nil
}

// fn is one function's calling context, effect summary and block
// in-states.
type fn struct {
	index   int // cfa.Func.Index
	inRegs  uint16
	args    slotMap // tainted callee-relative slot offsets (>= 8)
	argsSmr bool
	sum     summary
	ctx     *cfa.Context[*state] // block in-states (nil = unreached)
}

// Engine keys of the global facts a transfer reads besides its block's
// in-state: the memory taint, and per function its calling context
// (entry register taint, argument slots) and its summary.
const keyMem = 0

func ctxKey(f *fn) int { return 1 + 2*f.index }
func sumKey(f *fn) int { return 2 + 2*f.index }

// summary is a function's externally visible effect (memory-taint growth
// is applied directly to the global interval set, not summarised).
type summary struct {
	retTaint uint16
	// writes records caller-frame slot writes by callee-relative offset,
	// with the written taint (a clean write still invalidates the caller's
	// tracked slot value).
	writes slotMap
	wild   bool // callee performed an untracked clean store
	smear  bool // callee may have tainted any stack address
}

// analysis is the taint domain over the shared engine. Every global the
// transfer reads besides a block's in-state — memory taint, calling
// contexts, summaries — is declared with Engine.Read and changes only
// through Engine.Mark.
type analysis struct {
	*cfa.Engine[*state]
	cfg     Config
	mem     intervals      // tainted absolute data addresses (global, monotone)
	fns     []fn           // indexed by cfa.Func.Index
	guarded map[int64]bool // store offsets proved window-confined by P1
	scratch state          // block out-state during fixpoint steps
}

// joinState merges src into *dst, taking a copy when *dst is bottom.
func joinState(dst **state, src *state) bool {
	if *dst == nil {
		*dst = src.clone()
		return true
	}
	return (*dst).join(src)
}

// analyzeFn joins the function's calling context into its entry block and
// re-transfers its stale blocks under the current global state.
func (a *analysis) analyzeFn(f *cfa.Func) {
	fs := &a.fns[f.Index]
	a.Enter(fs.ctx, ctxKey(fs), func() *state { return a.entryState(fs) })
	a.Solve(fs.ctx, func(b *cfa.Block, in *state) *state {
		// The out-state lives only until the engine has joined it into the
		// successors, so one scratch state serves every step.
		st := in.cloneInto(&a.scratch)
		a.transfer(fs, b, st, nil)
		return st
	})
}

// entryState is the abstract state at a function's first instruction.
func (a *analysis) entryState(f *fn) *state {
	st := newState()
	st.regs[isa.RSP] = val{k: kStack}
	st.regs[isa.RegShadow] = val{k: kShadow}
	st.taint = f.inRegs &^ (1<<isa.RSP | 1<<isa.RegShadow)
	st.smear = f.argsSmr
	// The cell at entry RSP holds the return address the call instruction
	// itself just pushed: always a clean code address, even when the
	// caller's frame is smeared. Seeding it tracked keeps the P5
	// shadow-push annotation's [rsp+8] reload clean.
	st.slots.set(0, slot{v: val{k: kUnknown}})
	return st
}

// intervals is a sorted, disjoint set of address ranges.
type intervals struct {
	r []Range
}

// add inserts [lo, hi) and reports whether the set grew.
func (iv *intervals) add(lo, hi uint64) bool {
	if lo >= hi {
		return false
	}
	if iv.covers(lo, hi) {
		return false
	}
	// Merge with every overlapping or adjacent range.
	var out []Range
	for _, r := range iv.r {
		if r.Hi < lo || r.Lo > hi {
			out = append(out, r)
			continue
		}
		if r.Lo < lo {
			lo = r.Lo
		}
		if r.Hi > hi {
			hi = r.Hi
		}
	}
	out = append(out, Range{Lo: lo, Hi: hi})
	sort.Slice(out, func(i, j int) bool { return out[i].Lo < out[j].Lo })
	if len(out) > maxIntervals {
		// Collapse to the hull: strictly coarser, still sound.
		out = []Range{{Lo: out[0].Lo, Hi: out[len(out)-1].Hi}}
	}
	iv.r = out
	return true
}

// covers reports whether [lo, hi) is entirely contained in one range.
func (iv *intervals) covers(lo, hi uint64) bool {
	for _, r := range iv.r {
		if r.Lo <= lo && hi <= r.Hi {
			return true
		}
	}
	return false
}

// overlaps reports whether [lo, hi) intersects any range.
func (iv *intervals) overlaps(lo, hi uint64) bool {
	for _, r := range iv.r {
		if lo < r.Hi && r.Lo < hi {
			return true
		}
	}
	return false
}
