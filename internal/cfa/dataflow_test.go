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
func reachability(g *cfa.Graph, b cfa.Budget) (*cfa.Engine[bool], []*cfa.Context[bool]) {
	e := cfa.NewEngine(g, b, func(dst *bool, src bool) bool {
		if *dst || !src {
			return false
		}
		*dst = true
		return true
	})
	cs := make([]*cfa.Context[bool], len(e.Funcs))
	for _, f := range e.Funcs {
		cs[f.Index] = e.NewContext(f)
	}
	return e, cs
}

// solveReached enters each function reached and solves it under the
// identity transfer.
func solveReached(e *cfa.Engine[bool], cs []*cfa.Context[bool]) bool {
	return e.Fixpoint(func(f *cfa.Func) {
		e.Enter(cs[f.Index], -1, func() bool { return true })
		e.Solve(cs[f.Index], func(_ *cfa.Block, s bool) bool { return s })
	})
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
	e, cs := reachability(g, cfa.Budget{Rounds: 8, Steps: 100})
	if !solveReached(e, cs) {
		t.Fatal("fixpoint ran out of budget")
	}
	blocks := 0
	for _, f := range e.Funcs {
		blocks += len(f.Blocks)
	}
	if e.Steps != blocks {
		t.Errorf("steps = %d, want one per block (%d)", e.Steps, blocks)
	}
	// Replays record in reverse address order, twice each: the sweep must
	// visit every block reached, deduplicate by (offset, kind) and return
	// address order.
	replayed := 0
	rep := e.Sweep(func(f *cfa.Func) []*cfa.Context[bool] { return []*cfa.Context[bool]{cs[f.Index]} },
		func(f *cfa.Func, b *cfa.Block, in bool, rec *cfa.Recorder) bool {
			if !in {
				t.Errorf("block %d of %#x replayed unreached", b.ID, f.Entry)
			}
			replayed++
			for i := len(b.Insts) - 1; i >= 0; i-- {
				rec.Add(b.Insts[i].Off, "inst", "first")
				rec.Add(b.Insts[i].Off, "inst", "second")
			}
			return false
		},
		func(in bool) uint64 {
			if in {
				return 1
			}
			return 2
		})
	findings := rep.Findings
	if rep.Funcs != len(e.Funcs) || rep.Ctxs != len(e.Funcs) || rep.Steps != e.Steps || rep.Trivial {
		t.Errorf("report funcs=%d ctxs=%d steps=%d trivial=%t, want %d/%d/%d/false", rep.Funcs, rep.Ctxs, rep.Steps, rep.Trivial, len(e.Funcs), len(e.Funcs), e.Steps)
	}
	// Every block is reached in one context: its in-mask is the reached
	// state's, its out-mask the replay's.
	if len(rep.Blocks) != len(g.Blocks)-1 {
		t.Errorf("report masks %d blocks, want %d", len(rep.Blocks), len(g.Blocks)-1)
	}
	for id, m := range rep.Blocks {
		if m != (cfa.Masks{In: 1, Out: 2}) {
			t.Errorf("block %d masks %+v, want in 1 out 2", id, m)
		}
	}
	if len(findings) != len(g.Dis.Insts) {
		t.Fatalf("got %d findings, want one per instruction (%d)", len(findings), len(g.Dis.Insts))
	}
	for i, f := range findings {
		if f.Off != g.Dis.Insts[i].Off || f.Msg != "first" {
			t.Errorf("finding %d = %+v, want the first message at %#x", i, f, g.Dis.Insts[i].Off)
		}
	}
	if replayed != blocks {
		t.Errorf("sweep replayed %d blocks, want every block (%d)", replayed, blocks)
	}
	var nilRec *cfa.Recorder
	nilRec.Add(0, "inst", "discarded") // a nil recorder is a no-op

	if e2, cs2 := reachability(g, cfa.Budget{Rounds: 8, Steps: 2}); solveReached(e2, cs2) {
		t.Error("fixpoint succeeded past its step budget")
	}
}
