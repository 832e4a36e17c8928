package verifier_test

import (
	"strings"
	"testing"

	"deflection/internal/asmtext"
	"deflection/internal/enclave"
	"deflection/internal/loader"
	"deflection/internal/policy"
	"deflection/internal/runtime"
	"deflection/internal/verifier"
)

// verifyAsmTaint assembles hand-written source, loads it and runs the
// verifier with the loaded image's taint geometry (secret ranges resolved
// to absolute addresses, store window, stack bounds).
func verifyAsmTaint(t *testing.T, src string, pols policy.Set) error {
	t.Helper()
	o, err := asmtext.Assemble(src, uint16(pols))
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	e, err := enclave.New(enclave.DefaultConfig(), []byte("nearmiss-taint"))
	if err != nil {
		t.Fatal(err)
	}
	ld, err := loader.Load(e, o)
	if err != nil {
		t.Fatal(err)
	}
	text, err := ld.TextBytes()
	if err != nil {
		t.Fatal(err)
	}
	var offs []int64
	for _, bt := range ld.BranchTargets {
		offs = append(offs, int64(bt-ld.TextBase))
	}
	_, err = verifier.Verify(text, verifier.Options{
		Required:            pols,
		EntryOffset:         int64(ld.Entry - ld.TextBase),
		BranchTargetOffsets: offs,
		Taint:               runtime.TaintConfig(ld),
	})
	return err
}

// p7Only isolates the taint pass: no template annotations are required, so
// the near-miss sources stay minimal and the rejection can only come from
// the taint analysis.
var p7Only = policy.Bit(policy.P7)

const taintSealedFlowSrc = `
.entry _start
.bss key 8
.bss scratch 8
.secret key
.func _start
  mov rcx, =key
  mov rax, [rcx]
  mov rdx, =scratch
  mov [rdx], rax
  mov rbx, =scratch
  mov rdi, [rbx]
  mov rsi, 8
  ocall 1
  hlt
`

// TestTaintSealedFlowAccepted is the false-positive guard: a secret that
// flows only to the sealed-output ocall must verify P7-clean, including
// after a round trip through a scratch global.
func TestTaintSealedFlowAccepted(t *testing.T) {
	if err := verifyAsmTaint(t, taintSealedFlowSrc, p7Only); err != nil {
		t.Fatalf("sealed secret flow rejected: %v", err)
	}
}

// taintLeaks each move secret bytes toward an unsanctioned sink along a
// different route; kind is the finding the taint pass must report.
var taintLeaks = map[string]struct {
	src  string
	kind string
}{
	"secret through scratch global to print": {kind: "unsealed-output", src: `
.entry _start
.bss key 8
.bss scratch 8
.secret key
.func _start
  mov rcx, =key
  mov rax, [rcx]
  mov rdx, =scratch
  mov [rdx], rax
  mov rbx, =scratch
  mov rdi, [rbx]
  ocall 3
  hlt
`},
	"secret laundered through a stack round trip": {kind: "unsealed-output", src: `
.entry _start
.bss key 8
.secret key
.func _start
  mov rcx, =key
  mov rax, [rcx]
  push rax
  pop rdi
  ocall 3
  hlt
`},
	"partial overwrite of a tainted stack slot": {kind: "unsealed-output", src: `
.entry _start
.bss key 8
.secret key
.func _start
  mov rcx, =key
  mov rax, [rcx]
  push rax
  mov rbx, 0
  mov rcx, rsp
  movb [rcx], rbx
  pop rdi
  ocall 3
  hlt
`},
	"secret as indirect-branch target": {kind: "indirect-target", src: `
.entry _start
.bss key 8
.secret key
.func _start
  mov rcx, =key
  mov rax, [rcx]
  jmp rax
`},
	"tainted store through an untracked pointer": {kind: "untracked-store", src: `
.entry _start
.bss key 8
.bss scratch 8
.secret key
.func _start
  mov rdx, =scratch
  mov rbx, [rdx]
  mov rcx, =key
  mov rax, [rcx]
  mov [rbx], rax
  hlt
`},
	"secret to an unknown ocall index": {kind: "unsealed-output", src: `
.entry _start
.bss key 8
.secret key
.func _start
  mov rcx, =key
  mov rdi, [rcx]
  ocall 99
  hlt
`},
}

// TestTaintLeaksRejected: every taintLeaks program must be rejected by the
// taint pass with a P7 violation naming the expected finding kind.
func TestTaintLeaksRejected(t *testing.T) {
	for name, tc := range taintLeaks {
		t.Run(name, func(t *testing.T) {
			err := verifyAsmTaint(t, tc.src, p7Only)
			vio := requireViolation(t, err, policy.P7, "taint")
			if !strings.Contains(vio.Msg, tc.kind) {
				t.Errorf("violation %q does not name finding kind %q", vio.Msg, tc.kind)
			}
		})
	}
}

const taintSkippedSrc = `
.entry _start
.bss key 8
.secret key
.func _start
  mov rcx, =key
  mov rdi, [rcx]
  ocall 3
  hlt
`

// TestTaintPassSkippedWithoutP7: the same leaking program is accepted when
// the manifest does not demand P7 — taint is a policy, not a default.
func TestTaintPassSkippedWithoutP7(t *testing.T) {
	if err := verifyAsmTaint(t, taintSkippedSrc, policy.SetNone); err != nil {
		t.Fatalf("leak rejected despite P7 not being required: %v", err)
	}
	requireViolation(t, verifyAsmTaint(t, taintSkippedSrc, p7Only), policy.P7, "taint")
}

const taintInterprocSrc = `
.entry _start
.bss key 8
.secret key
.func _start
  call getkey
  mov rdi, rax
  ocall 3
  hlt
.func getkey
  mov rcx, =key
  mov rax, [rcx]
  ret
`

// TestTaintInterproceduralLeak: the secret crosses a call boundary (loaded
// in the callee, leaked by the caller through the returned register), so
// only the interprocedural summary can see the flow.
func TestTaintInterproceduralLeak(t *testing.T) {
	requireViolation(t, verifyAsmTaint(t, taintInterprocSrc, p7Only), policy.P7, "taint")
}

const taintArgSlotSrc = `
.entry _start
.bss key 8
.secret key
.func _start
  mov rcx, =key
  mov rax, [rcx]
  push rax
  call leak
  pop rax
  hlt
.func leak
  mov rcx, rsp
  mov rdi, [rcx + 8]
  ocall 3
  ret
`

// TestTaintArgumentSlotLeak: the secret is passed to the callee through a
// caller-frame stack slot and leaked inside the callee.
func TestTaintArgumentSlotLeak(t *testing.T) {
	requireViolation(t, verifyAsmTaint(t, taintArgSlotSrc, p7Only), policy.P7, "taint")
}
