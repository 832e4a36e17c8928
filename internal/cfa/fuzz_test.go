package cfa_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"deflection/internal/asmtext"
	"deflection/internal/cfa"
	"deflection/internal/disasm"
	"deflection/internal/isa"
)

// genProgram turns fuzz bytes into a small multi-function program: up to
// four functions of up to eight statements each — immediates, loads and
// stores of four globals, direct and indirect calls (recursion included),
// forward and backward branches, early exits, ocalls and, rarely, a tick
// that never settles.
func genProgram(data []byte) string {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	nf := 1 + next()%4
	name := func(i int) string {
		if i == 0 {
			return "_start"
		}
		return fmt.Sprintf("f%d", i)
	}
	var sb strings.Builder
	sb.WriteString(".entry _start\n")
	target := make([]bool, nf)
	for i := 1; i < nf; i++ {
		if target[i] = next()%2 == 0; target[i] {
			fmt.Fprintf(&sb, ".target %s\n", name(i))
		}
	}
	for i := 0; i < nf; i++ {
		fmt.Fprintf(&sb, ".func %s\n", name(i))
		exit := "ret"
		if i == 0 {
			exit = "hlt"
		}
		n := 1 + next()%8
		for j := 0; j < n; j++ {
			fmt.Fprintf(&sb, "%s_%d:\n", name(i), j)
			switch op, arg := next()%10, next(); op {
			case 0:
				fmt.Fprintf(&sb, "  mov rax, %d\n", arg%16)
			case 1:
				fmt.Fprintf(&sb, "  mov rdx, [rbx+%d]\n", 8*(arg%4))
			case 2:
				fmt.Fprintf(&sb, "  mov [rbx+%d], rax\n", 8*(arg%4))
			case 3:
				fmt.Fprintf(&sb, "  call %s\n", name(arg%nf))
			case 4:
				fmt.Fprintf(&sb, "  cmp rax, 0\n  je %s_%d\n", name(i), arg%(n+1))
			case 5:
				fmt.Fprintf(&sb, "  jmp %s_%d\n", name(i), arg%(n+1))
			case 6:
				fmt.Fprintf(&sb, "  ocall %d\n", arg%16)
			case 7:
				if k := 1 + arg%4; k < nf && target[k] {
					fmt.Fprintf(&sb, "  mov rax, =%s\n  call rax\n", name(k))
				}
			case 8:
				if arg%16 == 0 {
					sb.WriteString("  add rcx, 1\n")
				}
			case 9:
				if arg%4 == 0 {
					fmt.Fprintf(&sb, "  %s\n", exit)
				}
			}
		}
		fmt.Fprintf(&sb, "%s_%d:\n  %s\n", name(i), n, exit)
	}
	return sb.String()
}

// toy is a bitmask domain whose transfers read and mark global facts the
// way taint and order do: four memory cells, a calling context and a
// summary per function, and a tick that grows on every transfer reaching
// it. The zero mask is bottom; entry states always carry bit 0.
type toy struct {
	e    *cfa.Engine[uint16]
	mem  [4]uint16
	ctx  []uint16
	sum  []uint16
	tick int
	read func(k int)
	mark func(k int)
}

const keyTick = 4

func ctxKey(f *cfa.Func) int { return 5 + 2*f.Index }
func sumKey(f *cfa.Func) int { return 6 + 2*f.Index }

func (d *toy) entry(f *cfa.Func) uint16 { return d.ctx[f.Index] | 1 }

// transfer interprets block b of function f; emit, when non-nil, receives
// every ocall whose bit the state carries.
func (d *toy) transfer(f *cfa.Func, b *cfa.Block, s uint16, emit func(off int64, bit int)) uint16 {
	for _, in := range b.Insts {
		switch in.Op {
		case isa.OpMovRI:
			s |= 1 << (in.Imm & 15)
		case isa.OpMovRM:
			g := int(in.Mem.Disp/8) & 3
			d.read(g)
			s |= d.mem[g]
		case isa.OpMovMR:
			if g := int(in.Mem.Disp/8) & 3; d.mem[g]|s != d.mem[g] {
				d.mem[g] |= s
				d.mark(g)
			}
		case isa.OpAddRI:
			d.read(keyTick)
			d.tick++
			d.mark(keyTick)
		case isa.OpOcall:
			if bit := int(in.Imm & 15); emit != nil && s&(1<<bit) != 0 {
				emit(in.Off, bit)
			}
		case isa.OpRet:
			if d.sum[f.Index]|s != d.sum[f.Index] {
				d.sum[f.Index] |= s
				d.mark(sumKey(f))
			}
		case isa.OpCall:
			c := d.e.Func(disasm.DirectTarget(in))
			if d.ctx[c.Index]|s != d.ctx[c.Index] {
				d.ctx[c.Index] |= s
				d.mark(ctxKey(c))
			}
			// A callee that has not returned yet leaves the fall-through
			// unreached.
			d.read(sumKey(c))
			if d.sum[c.Index] == 0 {
				return 0
			}
			s |= d.sum[c.Index]
		case isa.OpCallR:
			s = 0xffff
		}
	}
	return s
}

func orJoin(dst *uint16, src uint16) bool {
	if *dst|src == *dst {
		return false
	}
	*dst |= src
	return true
}

func newToy(g *cfa.Graph, b cfa.Budget) *toy {
	e := cfa.NewEngine(g, b, orJoin)
	return &toy{e: e, ctx: make([]uint16, len(e.Funcs)), sum: make([]uint16, len(e.Funcs))}
}

// outcome is what a solver computed: whether it converged within its
// budget, the final in-state of every reached (function, block) and the
// ocall findings of a replay over them.
type outcome struct {
	ok       bool
	in       map[[2]int]uint16
	findings map[int64]string
	blocks   map[int]cfa.Masks // joined over functions
}

// solveEngine runs the toy domain through the engine.
func solveEngine(g *cfa.Graph, b cfa.Budget) (outcome, int) {
	d := newToy(g, b)
	d.read, d.mark = d.e.Read, d.e.Mark
	cs := make([]*cfa.Context[uint16], len(d.e.Funcs))
	for _, f := range d.e.Funcs {
		cs[f.Index] = d.e.NewContext(f)
	}
	out := outcome{ok: d.e.Fixpoint(func(f *cfa.Func) {
		c := cs[f.Index]
		d.e.Enter(c, ctxKey(f), func() uint16 { return d.entry(f) })
		d.e.Solve(c, func(b *cfa.Block, s uint16) uint16 { return d.transfer(f, b, s, nil) })
	})}
	if !out.ok {
		return out, d.e.Steps
	}
	out.in = make(map[[2]int]uint16)
	rep := d.e.Sweep(func(f *cfa.Func) []*cfa.Context[uint16] { return []*cfa.Context[uint16]{cs[f.Index]} },
		func(f *cfa.Func, b *cfa.Block, s uint16, rec *cfa.Recorder) uint16 {
			out.in[[2]int{f.Index, b.ID}] = s
			return d.transfer(f, b, s, func(off int64, bit int) { rec.Add(off, "bit", "bit %d", bit) })
		},
		func(s uint16) uint64 { return uint64(s) })
	out.findings = make(map[int64]string)
	for _, f := range rep.Findings {
		out.findings[f.Off] = f.Msg
	}
	out.blocks = rep.Blocks
	return out, d.e.Steps
}

// refSuccs is a block's intraprocedural successors, restated here so the
// reference shares no solver code with the engine.
func refSuccs(g *cfa.Graph, b *cfa.Block) []int {
	switch last := b.Last(); last.Op {
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

// solveReference is the engine without its sparseness: every round
// re-seeds every reached block of every function, in address order, into a
// FIFO, and the fixpoint is reached when a round changes no in-state and
// marks nothing.
func solveReference(g *cfa.Graph, b cfa.Budget) outcome {
	d := newToy(g, b)
	dirty := false
	d.read, d.mark = func(int) {}, func(int) { dirty = true }
	in := make([][]uint16, len(d.e.Funcs))
	for i := range in {
		in[i] = make([]uint16, len(g.Blocks))
	}
	steps := 0
	out := outcome{}
	for round := 0; round < b.Rounds && !out.ok; round++ {
		dirty = false
		changed := false
		for _, f := range d.e.Funcs {
			fin := in[f.Index]
			changed = orJoin(&fin[f.Head], d.entry(f)) || changed
			var work []int
			queued := make([]bool, len(g.Blocks))
			for _, id := range f.Blocks {
				if fin[id] != 0 {
					work = append(work, id)
					queued[id] = true
				}
			}
			for len(work) > 0 {
				if steps++; steps > b.Steps {
					return out
				}
				id := work[0]
				work = work[1:]
				queued[id] = false
				s := d.transfer(f, g.Blocks[id], fin[id], nil)
				for _, succ := range refSuccs(g, g.Blocks[id]) {
					if orJoin(&fin[succ], s) {
						changed = true
						if !queued[succ] {
							queued[succ] = true
							work = append(work, succ)
						}
					}
				}
			}
		}
		out.ok = !changed && !dirty
	}
	if !out.ok {
		return out
	}
	out.in = make(map[[2]int]uint16)
	out.findings = make(map[int64]string)
	out.blocks = make(map[int]cfa.Masks)
	for _, f := range d.e.Funcs {
		for _, id := range f.Blocks {
			if s := in[f.Index][id]; s != 0 {
				out.in[[2]int{f.Index, id}] = s
				m := out.blocks[id]
				m.In |= uint64(s)
				m.Out |= uint64(d.transfer(f, g.Blocks[id], s, func(off int64, bit int) {
					if _, ok := out.findings[off]; !ok {
						out.findings[off] = fmt.Sprintf("bit %d", bit)
					}
				}))
				out.blocks[id] = m
			}
		}
	}
	return out
}

// FuzzEngine checks the engine's sparse re-solving against the reference
// on random programs: the same convergence verdict, the same final
// in-states, the same findings and the same block masks. A converged
// engine run must also fail when given one step fewer than it used.
func FuzzEngine(f *testing.F) {
	f.Add([]byte{})
	// Three functions: a loop storing into a global that a callee loads.
	f.Add([]byte{2, 1, 1, 4, 0, 3, 3, 1, 2, 0, 4, 1, 6, 5, 2, 1, 1, 6, 3, 1, 0, 9, 6, 2, 1, 6, 1})
	// An indirect call, recursion and a tick.
	f.Add([]byte{3, 0, 0, 5, 7, 0, 3, 1, 8, 0, 0, 3, 3, 1, 3, 2, 6, 1, 2, 6, 0, 5, 2, 1, 9, 0})
	f.Add([]byte{1, 7, 0, 3, 4, 7, 2, 1, 1, 6, 3, 5, 0, 0, 9, 4})
	budget := cfa.Budget{Rounds: 512, Steps: 1 << 18}
	f.Fuzz(func(t *testing.T, data []byte) {
		src := genProgram(data)
		o, err := asmtext.Assemble(src, 0)
		if err != nil {
			t.Fatalf("generated program does not assemble: %v\n%s", err, src)
		}
		entry, _ := o.Symbol(o.Entry)
		var targets []int64
		for _, bt := range o.BranchTargets {
			s, _ := o.Symbol(bt.Symbol)
			targets = append(targets, s.Offset)
		}
		dis, err := disasm.Disassemble(o.Text, append([]int64{entry.Offset}, targets...))
		if err != nil {
			return
		}
		g := cfa.Build(dis, entry.Offset, targets)
		got, steps := solveEngine(g, budget)
		want := solveReference(g, budget)
		if got.ok != want.ok {
			t.Fatalf("engine converged=%t, reference converged=%t\n%s", got.ok, want.ok, src)
		}
		if !got.ok {
			return
		}
		if !reflect.DeepEqual(got.in, want.in) {
			t.Fatalf("in-states differ:\nengine    %v\nreference %v\n%s", got.in, want.in, src)
		}
		if !reflect.DeepEqual(got.findings, want.findings) {
			t.Fatalf("findings differ:\nengine    %v\nreference %v\n%s", got.findings, want.findings, src)
		}
		if !reflect.DeepEqual(got.blocks, want.blocks) {
			t.Fatalf("block masks differ:\nengine    %v\nreference %v\n%s", got.blocks, want.blocks, src)
		}
		if short, _ := solveEngine(g, cfa.Budget{Rounds: budget.Rounds, Steps: steps - 1}); short.ok {
			t.Fatalf("engine converged within %d steps after using %d\n%s", steps-1, steps, src)
		}
	})
}
