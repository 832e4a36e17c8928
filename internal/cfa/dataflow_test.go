package cfa_test

import (
	"sort"
	"testing"

	"deflection/internal/cfa"
)

// callers has a direct call, an indirect call, and one listed target that
// only the indirect call can reach.
const callers = `
.entry _start
.target other
.func _start
  call fn
  mov rax, =other
  call rax
  hlt
.func fn
  cmp rax, 0
  je fn_out
  mov rbx, 2
fn_out:
  ret
.func other
  brmark
  ret
`

// reachability is the smallest domain: a block's state is whether it is
// reached, and every transfer is the identity.
func reachability(g *cfa.Graph, b cfa.Budget) (*cfa.Engine[bool], map[int][]bool) {
	e := cfa.NewEngine(g, b, func(r bool) bool { return r }, func(dst *bool, src bool) bool {
		if *dst || !src {
			return false
		}
		*dst = true
		return true
	})
	in := make(map[int][]bool)
	for _, f := range e.Funcs {
		in[f.Index] = make([]bool, len(g.Blocks))
	}
	return e, in
}

func TestEnginePartition(t *testing.T) {
	g, o := build(t, callers)
	e, _ := reachability(g, cfa.Budget{Rounds: 8, Steps: 100})
	if !e.Indirect {
		t.Error("indirect call not detected")
	}
	want := []int64{off(t, o, "_start"), off(t, o, "fn"), off(t, o, "other")}
	if len(e.Funcs) != len(want) {
		t.Fatalf("got %d functions, want %d", len(e.Funcs), len(want))
	}
	for i, f := range e.Funcs {
		if f.Index != i || f.Entry != want[i] || e.Func(f.Entry) != f {
			t.Errorf("function %d = %+v, want entry %#x", i, f, want[i])
		}
		if !sort.IntsAreSorted(f.Blocks) || f.Blocks[0] != f.Head {
			t.Errorf("function %#x blocks %v not in address order from its head", f.Entry, f.Blocks)
		}
	}
	// _start continues at each call's fall-through and never enters fn.
	start, fn := e.Funcs[0], e.Funcs[1]
	if len(start.Blocks) != 3 || len(fn.Blocks) != 3 {
		t.Errorf("_start blocks %v, fn blocks %v; want 3 each", start.Blocks, fn.Blocks)
	}
	// Without an indirect call a listed target is no function entry.
	g2, _ := build(t, `
.entry _start
.target other
.func _start
  hlt
.func other
  brmark
  ret
`)
	if e2, _ := reachability(g2, cfa.Budget{Rounds: 8, Steps: 100}); e2.Indirect || len(e2.Funcs) != 1 {
		t.Errorf("indirect=%t funcs=%d, want false/1", e2.Indirect, len(e2.Funcs))
	}
}

func TestEngineFixpointAndSweep(t *testing.T) {
	g, _ := build(t, callers)
	e, in := reachability(g, cfa.Budget{Rounds: 8, Steps: 100})
	analyze := func(f *cfa.Func) bool {
		in[f.Index][f.Head] = true
		return e.Solve(f, in[f.Index], func(_ *cfa.Block, s bool) bool { return s })
	}
	if !e.Fixpoint(analyze) {
		t.Fatal("fixpoint ran out of budget")
	}
	blocks := 0
	for _, f := range e.Funcs {
		blocks += len(f.Blocks)
		for _, id := range f.Blocks {
			if !in[f.Index][id] {
				t.Errorf("block %d of %#x unreached", id, f.Entry)
			}
		}
	}
	if e.Steps != blocks {
		t.Errorf("steps = %d, want one per block (%d)", e.Steps, blocks)
	}
	// Replays record in reverse address order, twice each: the sweep must
	// deduplicate by (offset, kind) and return address order.
	findings := e.Sweep(func(f *cfa.Func) [][]bool { return [][]bool{in[f.Index]} },
		func(_ *cfa.Func, b *cfa.Block, _ bool, rec *cfa.Recorder) {
			for i := len(b.Insts) - 1; i >= 0; i-- {
				rec.Add(b.Insts[i].Off, "inst", "first")
				rec.Add(b.Insts[i].Off, "inst", "second")
			}
		})
	if len(findings) != len(g.Dis.Offsets) {
		t.Fatalf("got %d findings, want one per instruction (%d)", len(findings), len(g.Dis.Offsets))
	}
	for i, f := range findings {
		if f.Off != g.Dis.Offsets[i] || f.Msg != "first" {
			t.Errorf("finding %d = %+v, want the first message at %#x", i, f, g.Dis.Offsets[i])
		}
	}
	var nilRec *cfa.Recorder
	nilRec.Add(0, "inst", "discarded") // a nil recorder is a no-op

	e2, in2 := reachability(g, cfa.Budget{Rounds: 8, Steps: 2})
	if e2.Fixpoint(func(f *cfa.Func) bool {
		in2[f.Index][f.Head] = true
		return e2.Solve(f, in2[f.Index], func(_ *cfa.Block, s bool) bool { return s })
	}) {
		t.Error("fixpoint succeeded past its step budget")
	}
}
