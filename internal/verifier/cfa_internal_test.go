package verifier

import (
	"errors"
	"testing"

	"deflection/internal/asmtext"
	"deflection/internal/cfa"
	"deflection/internal/policy"
)

// TestRSPCheckEnteredMidSequence: a jump into the middle of a P2
// stack-bounds check would run only its upper-bound half. Branch
// discipline refuses the jump first; the dominance pass refuses it on its
// own as well.
func TestRSPCheckEnteredMidSequence(t *testing.T) {
	o, err := asmtext.Assemble(`
.entry _start
.func _start
  cmp rax, 0
  jne mid
  mov rsp, rbp
  cmp rsp, 0x5FFFFFFFFFFFFFFF
  jb trapstack
mid:
  cmp rsp, 0x6FFFFFFFFFFFFFFF
  ja trapstack
  hlt
trapstack:
  trap 2
`, uint16(policy.SetP1P2))
	if err != nil {
		t.Fatal(err)
	}
	entry, _ := o.Symbol(o.Entry)
	mid, _ := o.Symbol("mid")
	var v verifier
	if err := v.setup(o.Text, Options{Required: policy.SetP1P2, EntryOffset: entry.Offset}); err != nil {
		t.Fatal(err)
	}
	if err := v.matchTemplates(); err != nil {
		t.Fatal(err)
	}
	if err := v.checkBranchDiscipline(); err == nil {
		t.Error("branch discipline accepted a jump into a stack-bounds check")
	}
	err = v.dominancePass(cfa.Build(v.dis, entry.Offset, nil), &Result{})
	var vio *Violation
	if !errors.As(err, &vio) || vio.Policy != policy.P2 || vio.Pass != "dominance" || vio.Offset != mid.Offset {
		t.Fatalf("err = %v, want a P2 dominance violation at %#x", err, mid.Offset)
	}
}
