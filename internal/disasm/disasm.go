// Package disasm implements the clipped recursive-descent disassembler of
// the bootstrap enclave (the paper's trimmed Capstone, Section V-B).
//
// Disassembly starts from the program entry and every address on the
// indirect-branch target list, follows direct control flow, and defers
// call/jump targets onto a worklist ("deferred code to be disassembled at a
// later time using the recursive descent algorithm"). Because the code
// generator resolves all indirect control flow onto the target list, the
// traversal reaches the complete control flow of a well-formed binary.
package disasm

import (
	"errors"
	"fmt"

	"deflection/internal/isa"
)

// ErrOverlap is returned when a branch target lands inside the byte span of
// a previously decoded instruction. Overlapping decodings are how annotation
// sequences could be bypassed, so the verifier treats this as rejection.
var ErrOverlap = errors.New("disasm: branch target inside another instruction")

// Inst is a decoded instruction at a known offset.
type Inst struct {
	isa.Inst
	Off int64
	Len int
}

// End returns the offset just past the instruction.
func (in Inst) End() int64 { return in.Off + int64(in.Len) }

// Result is the outcome of a disassembly pass: the instruction table. It is
// the only place that knows how instructions are indexed; every consumer
// walks Insts in address order or looks an offset up through Index/At.
type Result struct {
	// Insts holds the decoded instructions in ascending offset order; no
	// two overlap.
	Insts []Inst
	// Leader flags, per instruction, those that begin a basic block: entry
	// points, branch targets, and fall-through successors of branches.
	Leader []bool
	// at has one entry per text byte, plus one for the end of text: 1 +
	// the index in Insts of the instruction covering that byte, or 0 where
	// no instruction does.
	at []int32
}

// Blocks returns the number of discovered basic blocks (trace/report
// statistic).
func (r *Result) Blocks() int {
	n := 0
	for _, l := range r.Leader {
		if l {
			n++
		}
	}
	return n
}

// Index returns the position in Insts of the instruction decoded at off.
func (r *Result) Index(off int64) (int, bool) {
	if off < 0 || off >= int64(len(r.at)) {
		return 0, false
	}
	i := int(r.at[off]) - 1
	return i, i >= 0 && r.Insts[i].Off == off
}

// At returns the instruction decoded at off.
func (r *Result) At(off int64) (Inst, bool) {
	if i, ok := r.Index(off); ok {
		return r.Insts[i], true
	}
	return Inst{}, false
}

// DirectTarget resolves the target offset of a direct branch instruction.
func DirectTarget(in Inst) int64 { return in.End() + in.Imm }

// Disassemble decodes text starting from every offset in entries.
func Disassemble(text []byte, entries []int64) (*Result, error) {
	// While decoding, at numbers instructions in discovery order (found,
	// with leader flags in lead); the final pass renumbers it in address
	// order.
	at := make([]int32, len(text)+1)
	var found []Inst
	var lead []bool

	// Every enqueued offset begins a basic block.
	work := make([]int64, 0, len(entries))
	enqueue := func(off int64) error {
		if off < 0 || off > int64(len(text)) {
			return fmt.Errorf("disasm: branch target %#x outside text (len %d)", off, len(text))
		}
		if k := at[off] - 1; k >= 0 {
			if found[k].Off != off {
				return fmt.Errorf("%w: target %#x splits instruction at %#x", ErrOverlap, off, found[k].Off)
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
					return nil, fmt.Errorf("%w: fall-through into middle of instruction at %#x (from %#x)", ErrOverlap, found[k].Off, off)
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
			in := Inst{Inst: raw, Off: off, Len: n}
			found = append(found, in)
			lead = append(lead, leader)
			at[off] = int32(len(found))
			for b := off + 1; b < in.End(); b++ {
				// The first covered byte past off is always another
				// instruction's start: off itself was uncovered.
				if at[b] != 0 {
					return nil, fmt.Errorf("%w: instruction at %#x overlaps instruction at %#x", ErrOverlap, off, b)
				}
				at[b] = int32(len(found))
			}

			switch raw.Op {
			case isa.OpJmp:
				if err := enqueue(DirectTarget(in)); err != nil {
					return nil, err
				}
			case isa.OpJcc, isa.OpCall:
				if err := enqueue(DirectTarget(in)); err != nil {
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
	r := &Result{Insts: make([]Inst, 0, len(found)), Leader: make([]bool, 0, len(found)), at: at}
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

// Linear decodes text sequentially from offset 0, ignoring control flow.
// It is used by tooling (the disassembler CLI) rather than the verifier.
func Linear(text []byte) ([]Inst, error) {
	var out []Inst
	var off int64
	for off < int64(len(text)) {
		raw, n, err := isa.Decode(text[off:])
		if err != nil {
			return out, fmt.Errorf("disasm: at %#x: %w", off, err)
		}
		out = append(out, Inst{Inst: raw, Off: off, Len: n})
		off += int64(n)
	}
	return out, nil
}
