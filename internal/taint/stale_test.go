package taint

import (
	"errors"
	"testing"

	"deflection/internal/asmtext"
	"deflection/internal/cfa"
	"deflection/internal/disasm"
	"deflection/internal/isa"
)

// assemble builds hand-written source into a CFG from its entry symbol and
// returns the text offsets of its `ocall 3` instructions.
func assemble(t *testing.T, src string) (*cfa.Graph, []int64) {
	t.Helper()
	o, err := asmtext.Assemble(src, 0)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	entry, ok := o.Symbol(o.Entry)
	if !ok {
		t.Fatalf("no entry symbol %q", o.Entry)
	}
	dis, err := disasm.Disassemble(o.Text, []int64{entry.Offset})
	if err != nil {
		t.Fatalf("disassemble: %v", err)
	}
	var prints []int64
	for _, in := range dis.Insts {
		if in.Op == isa.OpOcall && in.Imm == 3 {
			prints = append(prints, in.Off)
		}
	}
	return cfa.Build(dis, entry.Offset, nil), prints
}

// Each program leaks only through a global fact that grows after the block
// reading it was first transferred: the function doing the read comes
// first in entry order, so its first solve sees the fact still clean. The
// leaking ocall sits in a later block, so the final sweep finds the leak
// only if the reading block was transferred again on the fact's Mark and
// passed the taint on. The addresses follow testConfig: the secret buffer
// is at 0x2000 and 0x3000 is a clean global.
var staleLeaks = []struct{ name, src string }{
	{
		// _start's call block reads getkey's summary before getkey has
		// been solved; the return taint arrives one function later.
		name: "callee return taint grows",
		src: `
.entry _start
.func _start
  call getkey
  mov rdi, rax
  ocall 3
  hlt
.func getkey
  mov rcx, 0x2000
  mov rax, [rcx]
  ret
`,
	},
	{
		// reader loads the global before writer, later in entry order,
		// stores the secret into it.
		name: "memory taint grows",
		src: `
.entry _start
.func _start
  call reader
  call writer
  hlt
.func reader
  mov rcx, 0x3000
  mov rdi, [rcx]
  jmp reader_out
reader_out:
  ocall 3
  ret
.func writer
  mov rcx, 0x2000
  mov rax, [rcx]
  mov rdx, 0x3000
  mov [rdx], rax
  ret
`,
	},
	{
		// leak reads its argument slot before main, later in entry order,
		// pushes the secret and calls it. main clears rax first, so only
		// the argument slot, not the entry register taint, carries it.
		name: "argument slot context grows",
		src: `
.entry _start
.func _start
  call main
  hlt
.func leak
  mov rcx, rsp
  mov rdi, [rcx+8]
  jmp leak_out
leak_out:
  ocall 3
  ret
.func main
  mov rcx, 0x2000
  mov rax, [rcx]
  push rax
  xor rax, rax
  call leak
  pop rax
  ret
`,
	},
}

// TestStaleDependencies: a block is transferred again when a global fact
// it read is marked, so each late-growing fact still produces its leak.
func TestStaleDependencies(t *testing.T) {
	for _, tc := range staleLeaks {
		t.Run(tc.name, func(t *testing.T) {
			g, prints := assemble(t, tc.src)
			if len(prints) != 1 {
				t.Fatalf("want one ocall 3, got %d", len(prints))
			}
			rep, err := Analyze(g, testConfig())
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Findings) != 1 || rep.Findings[0].Kind != KindUnsealedOutput || rep.Findings[0].Off != prints[0] {
				t.Fatalf("findings = %+v, want one %s at %#x", rep.Findings, KindUnsealedOutput, prints[0])
			}
		})
	}
}

// TestBudgetExhaustionRejects: a self-recursive function that forwards its
// tainted argument slot grows its own calling context on every transfer of
// the call, so the fixpoint never settles and the pass must give up with
// ErrBudget rather than accept.
func TestBudgetExhaustionRejects(t *testing.T) {
	g, _ := assemble(t, `
.entry _start
.func _start
  mov rcx, 0x2000
  mov rax, [rcx]
  push rax
  call rec
  pop rax
  hlt
.func rec
  sub rsp, 16
  call rec
  add rsp, 16
  ret
`)
	if rep, err := Analyze(g, testConfig()); !errors.Is(err, ErrBudget) {
		t.Fatalf("rep=%+v err=%v, want ErrBudget", rep, err)
	}
}
