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
	// While decoding, at[b] holds 1 + the start offset of the instruction
	// covering byte b (0 where none does), lead flags the offsets that begin
	// a basic block, and n counts the instructions. The closing pass builds
	// the table from these in address order, with its exact size.
	at := make([]int32, len(text)+1)
	lead := make([]bool, len(text)+1)
	n := 0

	// Every enqueued offset begins a basic block.
	work := make([]int64, 0, len(entries))
	enqueue := func(off int64) error {
		if off < 0 || off > int64(len(text)) {
			return fmt.Errorf("disasm: branch target %#x outside text (len %d)", off, len(text))
		}
		switch s := int64(at[off]) - 1; {
		case s < 0:
			work = append(work, off)
		case s != off:
			return fmt.Errorf("%w: target %#x splits instruction at %#x", ErrOverlap, off, s)
		}
		lead[off] = true
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
		for {
			if s := int64(at[off]) - 1; s >= 0 {
				if s != off {
					return nil, fmt.Errorf("%w: fall-through into middle of instruction at %#x (from %#x)", ErrOverlap, s, off)
				}
				break
			}
			if off >= int64(len(text)) {
				return nil, fmt.Errorf("disasm: control flow runs past end of text at %#x", off)
			}
			raw, size, err := isa.Decode(text[off:])
			if err != nil {
				return nil, fmt.Errorf("disasm: at %#x: %w", off, err)
			}
			in := Inst{Inst: raw, Off: off, Len: size}
			n++
			span := at[off:in.End()]
			for i := range span {
				// The first covered byte past off is always another
				// instruction's start: off itself was uncovered.
				if span[i] != 0 {
					return nil, fmt.Errorf("%w: instruction at %#x overlaps instruction at %#x", ErrOverlap, off, off+int64(i))
				}
				span[i] = int32(off + 1)
			}

			// An indirect branch's successors come from the branch-target
			// list, which is already in entries; a CallR also falls through
			// on return.
			var buf [2]int64
			next := buf[:0]
			switch raw.Op {
			case isa.OpJmp:
				next = append(next, DirectTarget(in))
			case isa.OpJcc, isa.OpCall:
				next = append(next, DirectTarget(in), in.End())
			case isa.OpCallR:
				next = append(next, in.End())
			}
			for _, t := range next {
				if err := enqueue(t); err != nil {
					return nil, err
				}
			}
			if raw.Op.Terminates() {
				break
			}
			off = in.End()
		}
	}

	// One pass in address order emits the table: the first covered byte
	// after a gap or an instruction is the next instruction's start, which
	// decoded once already, and every byte it covers is renumbered to it.
	r := &Result{Insts: make([]Inst, 0, n), Leader: make([]bool, 0, n), at: at}
	for b := 0; b < len(text); {
		if at[b] == 0 {
			b++
			continue
		}
		raw, size, _ := isa.Decode(text[b:])
		r.Insts = append(r.Insts, Inst{Inst: raw, Off: int64(b), Len: size})
		r.Leader = append(r.Leader, lead[b])
		span := at[b : b+size]
		for i := range span {
			span[i] = int32(len(r.Insts))
		}
		b += size
	}
	return r, nil
}
