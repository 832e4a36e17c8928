package asmtext_test

import (
	"strings"
	"testing"

	"deflection/internal/apps"
	"deflection/internal/asmtext"
	"deflection/internal/cpu"
	"deflection/internal/enclave"
	"deflection/internal/isa"
	"deflection/internal/obj"
	"deflection/internal/policy"
	"deflection/internal/runtime"
	"deflection/internal/verifier"
)

// runAsm assembles source, loads it into an enclave (no policies) and runs.
func runAsm(t *testing.T, src string) cpu.Result {
	t.Helper()
	o, err := asmtext.Assemble(src, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := runtime.DefaultManifest()
	m.Policies = policy.SetNone
	b, err := runtime.New(enclave.DefaultConfig(), m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.ReceiveBinary(o.Marshal()); err != nil {
		t.Fatal(err)
	}
	res, err := b.Run(runtime.RunConfig{Gas: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	return res.CPU
}

func TestAssembleAndRun(t *testing.T) {
	src := `
; sum 1..10 into rax
.entry _start
.func _start
  mov rax, 0
  mov rbx, 10
loop:
  add rax, rbx
  sub rbx, 1
  cmp rbx, 0
  jg loop
  hlt
`
	res := runAsm(t, src)
	if res.Status != cpu.StatusHalt || res.ExitValue != 55 {
		t.Fatalf("result = %v", res)
	}
}

func TestAssembleMemoryAndData(t *testing.T) {
	src := `
.entry _start
.data greeting "AB"
.words table 7, -2, 0x10
.bss scratch 64
.func _start
  mov rbx, =greeting
  movb rax, [rbx+1]      ; 'B' = 66
  mov rcx, =table
  mov rdx, [rcx+8]       ; -2
  add rax, rdx           ; 64
  mov rsi, =scratch
  mov [rsi], rax
  mov rax, [rsi]
  hlt
`
	res := runAsm(t, src)
	if res.Status != cpu.StatusHalt || res.ExitValue != 64 {
		t.Fatalf("result = %v", res)
	}
}

func TestAssembleCallsAndFloat(t *testing.T) {
	src := `
.entry _start
.func _start
  call square_root
  cvtfi rax
  hlt
.func square_root
  mov rax, 81
  cvtif rax
  fsqrt rax
  ret
`
	res := runAsm(t, src)
	if res.ExitValue != 9 {
		t.Fatalf("result = %v", res)
	}
}

func TestAssembleIndirectWithTargets(t *testing.T) {
	src := `
.entry _start
.target fn
.func _start
  mov rax, =fn
  call rax
  hlt
.func fn
  brmark
  mov rax, 1234
  ret
`
	o, err := asmtext.Assemble(src, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(o.BranchTargets) != 1 || o.BranchTargets[0].Symbol != "fn" {
		t.Fatalf("targets = %+v", o.BranchTargets)
	}
	res := runAsm(t, src)
	if res.ExitValue != 1234 {
		t.Fatalf("result = %v", res)
	}
}

func TestAssemblePtrTable(t *testing.T) {
	src := `
.entry _start
.func _start
  mov rbx, =jt
  mov rcx, 1
  mov rax, [rbx+rcx*8]
  jmp rax
a:
  brmark
  mov rax, 10
  hlt
b:
  brmark
  mov rax, 20
  hlt
.ptrtable jt a, b
`
	res := runAsm(t, src)
	if res.ExitValue != 20 {
		t.Fatalf("result = %v", res)
	}
}

// TestHandWrittenAttackRejected demonstrates the package's purpose: craft a
// malicious binary the compiler would never produce and watch the verifier
// kill it.
func TestHandWrittenAttackRejected(t *testing.T) {
	src := `
.entry _start
.func _start
  mov rbx, 125829120   ; outside ELRANGE
  mov [rbx], rax       ; unguarded store
  hlt
`
	o, err := asmtext.Assemble(src, uint16(policy.SetP1))
	if err != nil {
		t.Fatal(err)
	}
	text, opts, err := apps.VerifyObject(o, policy.SetP1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = verifier.Verify(text, opts)
	if err == nil {
		t.Fatal("hand-written unguarded store accepted")
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []string{
		"mov rax, 1",                        // instruction outside .func
		".func f\n  bogus rax",              // unknown mnemonic
		".func f\n  mov rax",                // missing operand
		".func f\n  lea rax, rbx",           // lea needs memory
		".func f\n  push 5",                 // push needs register
		".func f\n  mov [rax+rbx+rcx], rdx", // too many registers
		".func f\n  mov rax, [rbx*3]",       // bad scale
		".func f\n  idiv rax, 3",            // no immediate form
		".func f\n  ret rax",                // operand on ret
		".func f\n  jmp",                    // hmm: empty target
		".entry",                            // missing symbol
		".bss buf",                          // missing size
		".data name notquoted",              // bad string
		".words t 1, nope",                  // bad value
		"label:",                            // label outside function
		".func f\nx:\nx:\n  ret",            // duplicate label
		".func f\n  jmp nowhere\n  ret",     // undefined target
		".unknown directive",                // unknown directive
	}
	for _, src := range cases {
		if _, err := asmtext.Assemble(src, 0); err == nil {
			t.Errorf("should fail: %q", src)
		}
	}
}

func TestAssembleRoundTripThroughDisasm(t *testing.T) {
	src := `
.entry _start
.func _start
  mov rax, [rbp-8]
  mov [rsp+rax*4+32], rbx
  movb rcx, [rsi]
  lea rdx, [rax+16]
  test rax, rax
  hlt
`
	o, err := asmtext.Assemble(src, 0)
	if err != nil {
		t.Fatal(err)
	}
	var decoded []string
	for off := 0; off < len(o.Text); {
		in, n, err := isa.Decode(o.Text[off:])
		if err != nil {
			t.Fatal(err)
		}
		decoded = append(decoded, in.String())
		off += n
	}
	joined := strings.Join(decoded, "\n")
	for _, want := range []string{"[rbp-8]", "[rsp+rax*4+32]", "movb rcx, [rsi]", "test rax, rax"} {
		if !strings.Contains(joined, want) {
			t.Errorf("decoded text missing %q:\n%s", want, joined)
		}
	}
	if _, ok := o.Symbol("_start"); !ok {
		t.Error("function symbol missing")
	}
}

func TestTrapAndOcall(t *testing.T) {
	res := runAsm(t, `
.entry _start
.func _start
  trap 10
`)
	if res.Status != cpu.StatusTrap || res.Trap != isa.TrapCode(10) {
		t.Fatalf("result = %v", res)
	}
}

func TestObjectValid(t *testing.T) {
	o, err := asmtext.Assemble(`
.entry _start
.func _start
  hlt
`, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obj.Unmarshal(o.Marshal()); err != nil {
		t.Fatal(err)
	}
}
