package taint

import (
	"deflection/internal/cfa"
	"deflection/internal/disasm"
	"deflection/internal/isa"
	"deflection/internal/policy"
)

// kind classifies an abstract register value.
type kind uint8

const (
	// kUnknown: no information; as a store address this is untracked.
	kUnknown kind = iota
	// kImm: an exact 64-bit constant (lo holds the value).
	kImm
	// kData: a pointer into the store window with possible base
	// addresses [lo, hi) — exact when hi == lo+1.
	kData
	// kWin: somewhere in the store window (a pointer widened by an
	// unknown index); as a store address it taints the whole window.
	kWin
	// kStack: RSP-relative; lo holds the signed offset from the
	// function-entry RSP (as uint64 bits).
	kStack
	// kShadow: the shadow-stack pointer (R14 at entry, preserved under
	// constant adjustment).
	kShadow
)

type val struct {
	k      kind
	lo, hi uint64
}

func (v val) delta() int64 { return int64(v.lo) }

func stackVal(d int64) val { return val{k: kStack, lo: uint64(d)} }

// joinVal merges two abstract values; the second result reports whether
// the merge differs from a.
func joinVal(a, b val) (val, bool) {
	if a == b {
		return a, false
	}
	if a.k != b.k {
		if a.k == kUnknown {
			return a, false
		}
		// Pointer-ish values that disagree only in exactness meet in the
		// window; everything else meets at unknown.
		if (a.k == kData || a.k == kWin) && (b.k == kData || b.k == kWin) {
			return val{k: kWin}, a.k != kWin
		}
		return val{k: kUnknown}, true
	}
	switch a.k {
	case kImm, kStack:
		if a.lo == b.lo {
			return a, false
		}
		return val{k: kUnknown}, true
	case kData:
		lo, hi := a.lo, a.hi
		if b.lo < lo {
			lo = b.lo
		}
		if b.hi > hi {
			hi = b.hi
		}
		return val{k: kData, lo: lo, hi: hi}, lo != a.lo || hi != a.hi
	default:
		return a, false
	}
}

// slot is one tracked 8-byte stack cell.
type slot struct {
	taint bool
	v     val
}

// slotEntry pairs a tracked cell with its offset from the entry RSP.
type slotEntry struct {
	off int64
	sl  slot
}

// slotMap is a sparse frame: entries sorted by ascending offset, offsets
// unique. A sorted slice instead of a map because the fixpoint's inner
// loop is dominated by state clone/join — with a slice those are a single
// copy and a linear two-pointer merge, no hashing, and the analysis'
// overlap and range scans become binary-search walks.
type slotMap []slotEntry

// lower returns the index of the first entry with offset >= k.
func (m slotMap) lower(k int64) int {
	lo, hi := 0, len(m)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if m[mid].off < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// get looks up the cell at offset k.
func (m slotMap) get(k int64) (slot, bool) {
	if i := m.lower(k); i < len(m) && m[i].off == k {
		return m[i].sl, true
	}
	return slot{}, false
}

// set inserts or replaces the cell at offset k.
func (m *slotMap) set(k int64, sl slot) {
	i := m.lower(k)
	if i < len(*m) && (*m)[i].off == k {
		(*m)[i].sl = sl
		return
	}
	*m = append(*m, slotEntry{})
	copy((*m)[i+1:], (*m)[i:])
	(*m)[i] = slotEntry{off: k, sl: sl}
}

// state is the abstract machine state at one program point.
type state struct {
	regs  [isa.NumRegs]val
	taint uint16
	// slots tracks the cells this function (or a callee, via its summary)
	// has written, keyed by offset from the function-entry RSP.
	slots slotMap
	smear bool // any stack address may hold taint
	wild  bool // tracked slot values may be stale (untracked clean store)
	anyT  bool // some tracked slot has carried taint
}

func newState() *state {
	return &state{}
}

func (s *state) clone() *state {
	n := *s
	n.slots = append(slotMap(nil), s.slots...)
	return &n
}

// cloneInto overwrites dst with a copy of s, reusing dst's slot storage.
func (s *state) cloneInto(dst *state) *state {
	slots := append(dst.slots[:0], s.slots...)
	*dst = *s
	dst.slots = slots
	return dst
}

func (s *state) tainted(r isa.Reg) bool { return s.taint&(1<<r) != 0 }

func (s *state) setReg(r isa.Reg, v val, t bool) {
	s.regs[r] = v
	if t {
		s.taint |= 1 << r
	} else {
		s.taint &^= 1 << r
	}
}

// join merges o into s, reporting whether s changed. Taint is unioned and
// values meet in the lattice. A slot tracked on only one side loses its
// value (the other path's content is unknown) and inherits the untracked
// side's smear taint: on that path the cell may hold smeared secret bytes.
func (s *state) join(o *state) bool {
	changed := false
	sSmear, oSmear := s.smear, o.smear
	for i := range s.regs {
		if nv, ch := joinVal(s.regs[i], o.regs[i]); ch {
			s.regs[i] = nv
			changed = true
		}
	}
	if nt := s.taint | o.taint; nt != s.taint {
		s.taint = nt
		changed = true
	}
	for _, f := range []struct {
		dst *bool
		src bool
	}{{&s.smear, o.smear}, {&s.wild, o.wild}, {&s.anyT, o.anyT}} {
		if f.src && !*f.dst {
			*f.dst = true
			changed = true
		}
	}
	ss, os := s.slots, o.slots
	// Steady state (o tracks no offset s doesn't): merge in place, no
	// allocation. This is nearly every join once the frames have formed.
	grow := false
	for i, j := 0, 0; j < len(os); {
		if i >= len(ss) || os[j].off < ss[i].off {
			grow = true
			break
		}
		if ss[i].off == os[j].off {
			j++
		}
		i++
	}
	if !grow {
		j := 0
		for i := range ss {
			for j < len(os) && os[j].off < ss[i].off {
				j++
			}
			ssl := ss[i].sl
			if j < len(os) && os[j].off == ss[i].off {
				osl := os[j].sl
				nt := ssl.taint || osl.taint
				nv, _ := joinVal(ssl.v, osl.v)
				if nt != ssl.taint || nv != ssl.v {
					ss[i].sl = slot{taint: nt, v: nv}
					changed = true
				}
			} else if nt := ssl.taint || oSmear; nt != ssl.taint || ssl.v.k != kUnknown {
				ss[i].sl = slot{taint: nt, v: val{k: kUnknown}}
				changed = true
			}
		}
		return changed
	}
	// Two-pointer merge of the sorted frames into a fresh slice.
	out := make(slotMap, 0, len(ss)+len(os))
	i, j := 0, 0
	for i < len(ss) || j < len(os) {
		switch {
		case j >= len(os) || (i < len(ss) && ss[i].off < os[j].off):
			ssl := ss[i].sl
			nt := ssl.taint || oSmear
			if nt != ssl.taint || ssl.v.k != kUnknown {
				changed = true
			}
			out = append(out, slotEntry{off: ss[i].off, sl: slot{taint: nt, v: val{k: kUnknown}}})
			i++
		case i >= len(ss) || os[j].off < ss[i].off:
			out = append(out, slotEntry{off: os[j].off, sl: slot{taint: os[j].sl.taint || sSmear, v: val{k: kUnknown}}})
			changed = true
			j++
		default:
			ssl, osl := ss[i].sl, os[j].sl
			nt := ssl.taint || osl.taint
			nv, _ := joinVal(ssl.v, osl.v)
			if nt != ssl.taint || nv != ssl.v {
				changed = true
			}
			out = append(out, slotEntry{off: ss[i].off, sl: slot{taint: nt, v: nv}})
			i++
			j++
		}
	}
	s.slots = out
	return changed
}

// smearTaint records an untracked tainted store that may alias any stack
// cell: every tracked slot becomes tainted with unknown content, and
// untracked cells are covered by the smear flag. Later strong updates can
// re-clean individual slots (which is what keeps the balanced push/pop
// annotation sequences taint-free).
func (st *state) smearTaint() {
	st.smear = true
	st.anyT = true
	for i := range st.slots {
		st.slots[i].sl = slot{taint: true, v: val{k: kUnknown}}
	}
}

// degrade drops all tracked slot values (keeping taint) after an
// untracked clean store that could have rewritten any of them.
func (s *state) degrade() {
	s.wild = true
	for i := range s.slots {
		s.slots[i].sl.v = val{k: kUnknown}
	}
}

// memTainted reports whether a load of [lo, hi) absolute may see secret
// bytes: the range overlaps a secret buffer, grown memory taint, or — when
// it reaches into the stack subrange — a smeared/tainted stack.
func (a *analysis) memTainted(st *state, lo, hi uint64) bool {
	for _, s := range a.cfg.Secrets {
		if lo < s.Hi && s.Lo < hi {
			return true
		}
	}
	a.Read(keyMem)
	if a.mem.overlaps(lo, hi) {
		return true
	}
	if lo < a.cfg.StackHi && a.cfg.StackLo < hi {
		return st.smear || st.anyT
	}
	return false
}

// addOffset shifts an abstract value by a constant.
func addOffset(v val, d int64) val {
	switch v.k {
	case kImm:
		return val{k: kImm, lo: v.lo + uint64(d)}
	case kData:
		lo, hi := v.lo+uint64(d), v.hi+uint64(d)
		if lo >= hi { // wrapped
			return val{k: kUnknown}
		}
		return val{k: kData, lo: lo, hi: hi}
	case kStack:
		return stackVal(v.delta() + d)
	default:
		// kWin stays in the window under the small constant offsets real
		// code uses; kShadow stays in the shadow region; kUnknown stays
		// unknown.
		return v
	}
}

// widenPtr is the effect of adding an unboundable index to a value.
func widenPtr(v val) val {
	switch v.k {
	case kData, kWin, kStack:
		return val{k: kWin}
	default:
		return val{k: kUnknown}
	}
}

// classifyImm types an immediate: addresses inside the store window become
// exact data pointers (constants misclassified this way only cost
// precision, never soundness — stores through them are still range-checked
// against the window).
func (a *analysis) classifyImm(imm int64) val {
	u := uint64(imm)
	if u >= a.cfg.DataLo && u < a.cfg.DataHi {
		return val{k: kData, lo: u, hi: u + 1}
	}
	return val{k: kImm, lo: u}
}

// evalAddr computes the abstract address of a memory operand and the
// taint of the registers it involves.
func (st *state) evalAddr(m isa.MemRef) (val, bool) {
	v := val{k: kImm, lo: 0}
	t := false
	if m.HasBase {
		v = st.regs[m.Base]
		t = st.tainted(m.Base)
	}
	v = addOffset(v, int64(m.Disp))
	if m.HasIndex {
		t = t || st.tainted(m.Index)
		iv := st.regs[m.Index]
		if iv.k == kImm {
			v = addOffset(v, int64(iv.lo)*int64(m.EffectiveScale()))
		} else {
			v = widenPtr(v)
		}
	}
	return v, t
}

// loadSlot reads w bytes at stack offset k, consulting tracked slots, the
// caller-frame argument taint and the smear flag. Taint is checked across
// every tracked cell overlapping the access.
func (a *analysis) loadSlot(f *fn, st *state, k int64, w int64) (val, bool) {
	t := false
	for i := st.slots.lower(k - 7); i < len(st.slots) && st.slots[i].off < k+w; i++ {
		if st.slots[i].sl.taint {
			t = true
			break
		}
	}
	if k >= 8 {
		a.Read(ctxKey(f))
		if _, ok := f.args.get(k); ok || f.argsSmr {
			t = true
		}
	}
	if sl, ok := st.slots.get(k); ok && w == 8 {
		// Fully tracked cell: the smear flag does not apply, because smear
		// events taint every tracked slot directly (smearTaint) and a later
		// full-width strong update legitimately re-establishes a clean cell
		// — that is what keeps the shadow-push annotation's return-address
		// load clean inside otherwise-smeared functions.
		return sl.v, t || sl.taint
	}
	if st.smear {
		t = true
	}
	return val{k: kUnknown}, t
}

// storeSlot writes w bytes at stack offset k. A full aligned 8-byte store
// is a strong update; anything narrower keeps existing taint sticky.
// Overlapping neighbours lose their tracked value either way.
func (st *state) storeSlot(k int64, w int64, t bool, v val) {
	if len(st.slots) > maxSlots {
		// Frame too large to track: smear (sound) rather than grow.
		if t {
			st.smearTaint()
		}
		st.degrade()
		return
	}
	for i := st.slots.lower(k - 7); i < len(st.slots) && st.slots[i].off < k+w; i++ {
		if st.slots[i].off != k {
			st.slots[i].sl.v = val{k: kUnknown}
		}
	}
	if w == 8 {
		st.slots.set(k, slot{taint: t, v: v})
	} else {
		sl, ok := st.slots.get(k)
		if !ok && st.smear {
			// The cell's other bytes are untracked and may hold smeared
			// secret bytes; a partial write cannot clean them.
			sl.taint = true
		}
		sl.taint = sl.taint || t
		sl.v = val{k: kUnknown}
		st.slots.set(k, sl)
	}
	if t {
		st.anyT = true
	}
}

// load evaluates a w-byte read through the abstract address av.
func (a *analysis) load(f *fn, st *state, av val, at bool, w int64) (val, bool) {
	switch av.k {
	case kImm:
		return val{k: kUnknown}, at || a.memTainted(st, av.lo, av.lo+uint64(w))
	case kData:
		return val{k: kUnknown}, at || a.memTainted(st, av.lo, av.hi-1+uint64(w))
	case kStack:
		v, t := a.loadSlot(f, st, av.delta(), w)
		return v, t || at
	case kShadow:
		return val{k: kUnknown}, false
	default:
		// kWin may alias the secret buffers themselves; kUnknown may
		// alias anything.
		return val{k: kUnknown}, true
	}
}

// store evaluates a w-byte write of (v, t) through the abstract address
// av. rec is nil during fixpoint iteration.
func (a *analysis) store(f *fn, st *state, av val, t bool, v val, w int64, off int64, rec *cfa.Recorder) {
	if av.k == kUnknown && a.guarded[off] {
		// The P1 guard proves this store lands inside the data window even
		// though the analysis lost the address; model it as a window store.
		av = val{k: kWin}
	}
	switch av.k {
	case kImm, kData:
		lo, hi := av.lo, av.lo+uint64(w)
		if av.k == kData {
			hi = av.hi - 1 + uint64(w)
		}
		if a.cfg.DataLo <= lo && hi <= a.cfg.DataHi {
			if t {
				if a.mem.add(lo, hi) {
					a.Mark(keyMem)
				}
				if lo < a.cfg.StackHi && a.cfg.StackLo < hi {
					st.smearTaint()
				}
			}
			return
		}
		if t {
			rec.Add(off, KindUntrackedStore, "tainted store outside the data window [%#x, %#x)", a.cfg.DataLo, a.cfg.DataHi)
			return
		}
		// Clean store to metadata (SSA slots, AEX counter): no effect on
		// taint.
	case kStack:
		k := av.delta()
		st.storeSlot(k, w, t, v)
	case kWin:
		if t {
			if a.mem.add(a.cfg.DataLo, a.cfg.DataHi) {
				a.Mark(keyMem)
			}
			st.smearTaint()
		} else {
			st.degrade()
		}
	case kShadow:
		if t {
			rec.Add(off, KindUntrackedStore, "tainted store into the shadow-stack region")
		}
	default: // kUnknown
		if t {
			rec.Add(off, KindUntrackedStore, "tainted store through an untracked address")
		} else {
			st.degrade()
		}
	}
}

// havocRegs clobbers every register value, assuming a balanced callee
// (RSP restored to the pre-call offset, R14 still the shadow pointer).
func havocRegs(st *state, taint uint16, rspDelta int64, rspKnown bool) {
	for i := range st.regs {
		st.regs[i] = val{k: kUnknown}
	}
	if rspKnown {
		st.regs[isa.RSP] = stackVal(rspDelta)
	}
	st.regs[isa.RegShadow] = val{k: kShadow}
	st.taint = taint &^ (1<<isa.RSP | 1<<isa.RegShadow)
}

// applyCall transfers state across a direct call to the function at
// target, joining the calling context into the callee and applying the
// callee's current summary (chaotic iteration refines both).
func (a *analysis) applyCall(f *fn, st *state, target int64) {
	cf := a.Func(target)
	rsp := st.regs[isa.RSP]
	if cf == nil || rsp.k != kStack {
		// Unpartitionable call or untracked RSP: assume the worst.
		st.smearTaint()
		st.degrade()
		if a.mem.add(a.cfg.DataLo, a.cfg.DataHi) {
			a.Mark(keyMem)
		}
		havocRegs(st, 0xffff, 0, false)
		return
	}
	callee := &a.fns[cf.Index]
	dc := rsp.delta()
	// The call pushes the return address at dc-8; callee offset d maps to
	// caller offset d + dc - 8.
	base := dc - 8
	st.storeSlot(base, 8, false, val{k: kUnknown})

	if nt := callee.inRegs | st.taint; nt != callee.inRegs {
		callee.inRegs = nt
		a.Mark(ctxKey(callee))
	}
	if st.smear && !callee.argsSmr {
		callee.argsSmr = true
		a.Mark(ctxKey(callee))
	}
	// Caller-frame cells at or above the post-push RSP are the callee's
	// argument space (its own positive offsets).
	for i := st.slots.lower(dc); i < len(st.slots); i++ {
		if e := st.slots[i]; e.sl.taint {
			a.addArg(callee, e.off-base)
		}
	}
	// Our own incoming argument taint is also visible to the callee,
	// farther up its frame. A recursive call grows the very list it
	// forwards, so forward a snapshot.
	a.Read(ctxKey(f))
	args := f.args[f.args.lower(dc):]
	if callee == f {
		args = append(slotMap(nil), args...)
	}
	for _, e := range args {
		a.addArg(callee, e.off-base)
	}
	if f.argsSmr && !callee.argsSmr {
		callee.argsSmr = true
		a.Mark(ctxKey(callee))
	}

	// Apply the callee's effect, in offset order.
	a.Read(sumKey(callee))
	sum := &callee.sum
	for _, w := range sum.writes {
		st.storeSlot(w.off+base, 8, w.sl.taint, val{k: kUnknown})
	}
	if sum.wild {
		st.degrade()
	}
	if sum.smear {
		st.smearTaint()
	}
	havocRegs(st, sum.retTaint, dc, true)
}

// addArg records taint of the callee-relative argument slot d.
func (a *analysis) addArg(callee *fn, d int64) {
	if _, ok := callee.args.get(d); !ok {
		callee.args.set(d, slot{taint: true})
		a.Mark(ctxKey(callee))
	}
}

// recordRet folds the state at a return instruction into the function
// summary.
func (a *analysis) recordRet(f *fn, st *state) {
	sum := &f.sum
	if nt := sum.retTaint | st.taint; nt != sum.retTaint {
		sum.retTaint = nt
		a.Mark(sumKey(f))
	}
	for i := st.slots.lower(0); i < len(st.slots); i++ {
		k, sl := st.slots[i].off, st.slots[i].sl
		old, ok := sum.writes.get(k)
		if !ok || (sl.taint && !old.taint) {
			sum.writes.set(k, slot{taint: old.taint || sl.taint, v: val{k: kUnknown}})
			a.Mark(sumKey(f))
		}
	}
	if st.wild && !sum.wild {
		sum.wild = true
		a.Mark(sumKey(f))
	}
	if st.smear && !sum.smear {
		sum.smear = true
		a.Mark(sumKey(f))
	}
}

// width returns the access size of a memory operation.
func width(op isa.Op) int64 {
	if op == isa.OpMovBRM || op == isa.OpMovBMR {
		return 1
	}
	return 8
}

// transfer interprets one basic block, mutating st into the block's
// out-state. When rec is non-nil, findings are recorded (final sweep).
func (a *analysis) transfer(f *fn, b *cfa.Block, st *state, rec *cfa.Recorder) {
	for _, din := range b.Insts {
		in := din.Inst
		switch in.Op {
		case isa.OpMovRI:
			st.setReg(in.Dst, a.classifyImm(in.Imm), false)
		case isa.OpMovRR:
			st.setReg(in.Dst, st.regs[in.Src], st.tainted(in.Src))
		case isa.OpLea:
			av, at := st.evalAddr(in.Mem)
			st.setReg(in.Dst, av, at)
		case isa.OpMovRM, isa.OpMovBRM:
			av, at := st.evalAddr(in.Mem)
			v, t := a.load(f, st, av, at, width(in.Op))
			st.setReg(in.Dst, v, t)
		case isa.OpMovMR, isa.OpMovBMR:
			av, at := st.evalAddr(in.Mem)
			a.store(f, st, av, st.tainted(in.Src), st.regs[in.Src], width(in.Op), din.Off, rec)
			_ = at // address taint is an access-pattern channel, out of P7 scope
		case isa.OpMovMI:
			av, _ := st.evalAddr(in.Mem)
			a.store(f, st, av, false, val{k: kImm, lo: uint64(in.Imm)}, 8, din.Off, rec)

		case isa.OpPush:
			rsp := st.regs[isa.RSP]
			if rsp.k == kStack {
				d := rsp.delta() - 8
				st.storeSlot(d, 8, st.tainted(in.Dst), st.regs[in.Dst])
				st.regs[isa.RSP] = stackVal(d)
			} else if st.tainted(in.Dst) {
				st.smearTaint()
			} else {
				st.degrade()
			}
		case isa.OpPop:
			rsp := st.regs[isa.RSP]
			if rsp.k == kStack {
				v, t := a.loadSlot(f, st, rsp.delta(), 8)
				st.setReg(in.Dst, v, t)
				st.regs[isa.RSP] = stackVal(rsp.delta() + 8)
			} else {
				st.setReg(in.Dst, val{k: kUnknown}, true)
			}

		case isa.OpAddRR, isa.OpSubRR, isa.OpImulRR, isa.OpIdivRR, isa.OpIremRR,
			isa.OpAndRR, isa.OpOrRR, isa.OpXorRR, isa.OpShlRR, isa.OpShrRR, isa.OpSarRR:
			if (in.Op == isa.OpXorRR || in.Op == isa.OpSubRR) && in.Dst == in.Src {
				st.setReg(in.Dst, val{k: kImm, lo: 0}, false)
				break
			}
			t := st.tainted(in.Dst) || st.tainted(in.Src)
			st.setReg(in.Dst, aluRR(in.Op, st.regs[in.Dst], st.regs[in.Src]), t)
		case isa.OpAddRI, isa.OpSubRI, isa.OpImulRI, isa.OpAndRI, isa.OpOrRI,
			isa.OpXorRI, isa.OpShlRI, isa.OpShrRI, isa.OpSarRI:
			st.setReg(in.Dst, aluRI(in.Op, st.regs[in.Dst], in.Imm), st.tainted(in.Dst))
		case isa.OpNeg, isa.OpNot,
			isa.OpFSqrt, isa.OpFNeg, isa.OpCvtIF, isa.OpCvtFI:
			st.setReg(in.Dst, val{k: kUnknown}, st.tainted(in.Dst))
		case isa.OpFAdd, isa.OpFSub, isa.OpFMul, isa.OpFDiv:
			t := st.tainted(in.Dst) || st.tainted(in.Src)
			st.setReg(in.Dst, val{k: kUnknown}, t)

		case isa.OpCmpRR, isa.OpCmpRI, isa.OpTestRR, isa.OpFCmp:
			// Flags only: explicit flows are not tracked through them
			// (documented implicit-flow limitation).

		case isa.OpCall:
			a.applyCall(f, st, disasm.DirectTarget(din))
		case isa.OpCallR, isa.OpJmpR:
			if st.tainted(in.Dst) {
				rec.Add(din.Off, KindIndirectTarget, "indirect %s through tainted %s", in.Op.String(), in.Dst)
			}
			if in.Op == isa.OpCallR {
				// The callee may be any listed target with any effect.
				st.smearTaint()
				st.degrade()
				if a.mem.add(a.cfg.DataLo, a.cfg.DataHi) {
					a.Mark(keyMem)
				}
				rsp := st.regs[isa.RSP]
				if rsp.k == kStack {
					havocRegs(st, 0xffff, rsp.delta(), true)
				} else {
					havocRegs(st, 0xffff, 0, false)
				}
			}
		case isa.OpRet:
			a.recordRet(f, st)
		case isa.OpOcall:
			a.ocall(st, in, din.Off, rec)

		case isa.OpJmp, isa.OpJcc, isa.OpBrMark, isa.OpNop, isa.OpHlt, isa.OpTrap:
			// Control transfers are handled by the block graph; HLT's
			// RAX exit value is a declared interface output, not a P7
			// sink.
		}
	}
}

// ocall applies the OCall interface model: OcallSend is the sanctioned
// sealed sink; OcallPrint (and any unrecognised index) leaks its argument
// registers; every stub clobbers RAX with a clean result.
func (a *analysis) ocall(st *state, in isa.Inst, off int64, rec *cfa.Recorder) {
	switch in.Imm {
	case policy.OcallSend:
		// Sealed output: tainted RDI/RSI are exactly what P7 permits.
	case policy.OcallRecv, policy.OcallThreadID:
	case policy.OcallPrint:
		if st.tainted(isa.RDI) {
			rec.Add(off, KindUnsealedOutput, "tainted rdi reaches unsealed ocall %d (print)", in.Imm)
		}
	default:
		if st.tainted(isa.RDI) || st.tainted(isa.RSI) {
			rec.Add(off, KindUnsealedOutput, "tainted argument reaches unknown ocall index %d", in.Imm)
		}
	}
	st.setReg(isa.RAX, val{k: kUnknown}, false)
}

// aluRR computes the abstract result of a register-register ALU op.
func aluRR(op isa.Op, d, s val) val {
	switch op {
	case isa.OpAddRR:
		if s.k == kImm {
			return addOffset(d, int64(s.lo))
		}
		if d.k == kImm {
			return addOffset(s, int64(d.lo))
		}
		if d.k == kData || d.k == kWin || d.k == kStack ||
			s.k == kData || s.k == kWin || s.k == kStack {
			return val{k: kWin}
		}
		return val{k: kUnknown}
	case isa.OpSubRR:
		if s.k == kImm {
			return addOffset(d, -int64(s.lo))
		}
		return val{k: kUnknown}
	case isa.OpImulRR, isa.OpShlRR:
		if d.k == kImm && s.k == kImm {
			if op == isa.OpImulRR {
				return val{k: kImm, lo: uint64(int64(d.lo) * int64(s.lo))}
			}
			return val{k: kImm, lo: d.lo << (s.lo & 63)}
		}
		return val{k: kUnknown}
	default:
		return val{k: kUnknown}
	}
}

// aluRI computes the abstract result of a register-immediate ALU op.
func aluRI(op isa.Op, d val, imm int64) val {
	switch op {
	case isa.OpAddRI:
		return addOffset(d, imm)
	case isa.OpSubRI:
		return addOffset(d, -imm)
	case isa.OpImulRI:
		if d.k == kImm {
			return val{k: kImm, lo: uint64(int64(d.lo) * imm)}
		}
		return val{k: kUnknown}
	case isa.OpShlRI:
		if d.k == kImm {
			return val{k: kImm, lo: d.lo << (uint64(imm) & 63)}
		}
		return val{k: kUnknown}
	default:
		return val{k: kUnknown}
	}
}
