package asm

import (
	"reflect"
	"testing"

	"deflection/internal/isa"
)

func TestPruneUnreachable(t *testing.T) {
	a := NewAssembler()
	a.SetEntry("main")
	// main calls used; used references tabled via a pointer table; orphan
	// and orphan2 reference each other but nothing reaches them.
	add := func(name string, body ...Item) {
		t.Helper()
		if err := a.AddFunc(name, body); err != nil {
			t.Fatal(err)
		}
	}
	add("main",
		BranchItem(isa.Inst{Op: isa.OpCall}, "used"),
		InstItem(isa.Inst{Op: isa.OpHlt}))
	add("used",
		InstItem(isa.Inst{Op: isa.OpRet}))
	add("orphan",
		BranchItem(isa.Inst{Op: isa.OpCall}, "orphan2"),
		InstItem(isa.Inst{Op: isa.OpRet}))
	add("orphan2",
		BranchItem(isa.Inst{Op: isa.OpJmp}, "orphan"))
	add("tabled",
		InstItem(isa.Inst{Op: isa.OpRet}))
	if err := a.AddPtrTable("jt", []string{"tabled"}); err != nil {
		t.Fatal(err)
	}

	dropped := a.PruneUnreachable()
	if want := []string{"orphan", "orphan2"}; !reflect.DeepEqual(dropped, want) {
		t.Fatalf("dropped %v, want %v", dropped, want)
	}
	if want := []string{"main", "used", "tabled"}; !reflect.DeepEqual(a.Funcs(), want) {
		t.Fatalf("surviving funcs %v, want %v", a.Funcs(), want)
	}
	o, err := a.Assemble(0)
	if err != nil {
		t.Fatalf("assemble after prune: %v", err)
	}
	if _, ok := o.Symbol("orphan"); ok {
		t.Error("orphan symbol survived pruning")
	}
	if _, ok := o.Symbol("tabled"); !ok {
		t.Error("pointer-table referent was pruned")
	}
}

func TestPruneUnreachableNoEntry(t *testing.T) {
	a := NewAssembler()
	if err := a.AddFunc("lonely", []Item{InstItem(isa.Inst{Op: isa.OpRet})}); err != nil {
		t.Fatal(err)
	}
	if dropped := a.PruneUnreachable(); dropped != nil {
		t.Fatalf("prune without entry dropped %v, want nothing", dropped)
	}
}
