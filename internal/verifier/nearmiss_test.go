package verifier_test

import (
	"errors"
	"testing"

	"deflection/internal/asmtext"
	"deflection/internal/enclave"
	"deflection/internal/loader"
	"deflection/internal/policy"
	"deflection/internal/verifier"
)

// verifyAsm assembles hand-written source and runs the verifier against the
// given policy set.
func verifyAsm(t *testing.T, src string, pols policy.Set) error {
	t.Helper()
	o, err := asmtext.Assemble(src, uint16(pols))
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	e, err := enclave.New(enclave.DefaultConfig(), []byte("nearmiss"))
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
	})
	return err
}

// goodStoreGuard is a byte-exact hand transcription of the P1 annotation
// (paper Fig. 5) guarding one store; it must verify.
const goodStoreGuard = `
.entry _start
.bss slot 8
.func _start
  mov rcx, =slot
  push rbx
  push rax
  lea rax, [rcx]
  mov rbx, 0x3FFFFFFFFFFFFFFF
  cmp rax, rbx
  jb trapstore
  mov rbx, 0x4FFFFFFFFFFFFFFF
  cmp rax, rbx
  jae trapstore
  pop rax
  pop rbx
  mov [rcx], rdx
  hlt
trapstore:
  trap 1
`

func TestHandWrittenGuardAccepted(t *testing.T) {
	if err := verifyAsm(t, goodStoreGuard, policy.SetP1); err != nil {
		t.Fatalf("correct hand-written guard rejected: %v", err)
	}
}

// nearMissGuards each perturb exactly one aspect of the valid template;
// all must be rejected.
var nearMissGuards = map[string]string{
	"wrong guard operand (lea checks a different address)": `
.entry _start
.bss slot 8
.bss other 8
.func _start
  mov rcx, =slot
  mov rdx, =other
  push rbx
  push rax
  lea rax, [rdx]
  mov rbx, 0x3FFFFFFFFFFFFFFF
  cmp rax, rbx
  jb trapstore
  mov rbx, 0x4FFFFFFFFFFFFFFF
  cmp rax, rbx
  jae trapstore
  pop rax
  pop rbx
  mov [rcx], rdx
  hlt
trapstore:
  trap 1
`,
	"inverted condition (ja instead of jae)": `
.entry _start
.bss slot 8
.func _start
  mov rcx, =slot
  push rbx
  push rax
  lea rax, [rcx]
  mov rbx, 0x3FFFFFFFFFFFFFFF
  cmp rax, rbx
  jb trapstore
  mov rbx, 0x4FFFFFFFFFFFFFFF
  cmp rax, rbx
  ja trapstore
  pop rax
  pop rbx
  mov [rcx], rdx
  hlt
trapstore:
  trap 1
`,
	"swapped pops (restores the wrong registers)": `
.entry _start
.bss slot 8
.func _start
  mov rcx, =slot
  push rbx
  push rax
  lea rax, [rcx]
  mov rbx, 0x3FFFFFFFFFFFFFFF
  cmp rax, rbx
  jb trapstore
  mov rbx, 0x4FFFFFFFFFFFFFFF
  cmp rax, rbx
  jae trapstore
  pop rbx
  pop rax
  mov [rcx], rdx
  hlt
trapstore:
  trap 1
`,
	"missing upper bound": `
.entry _start
.bss slot 8
.func _start
  mov rcx, =slot
  push rbx
  push rax
  lea rax, [rcx]
  mov rbx, 0x3FFFFFFFFFFFFFFF
  cmp rax, rbx
  jb trapstore
  pop rax
  pop rbx
  mov [rcx], rdx
  hlt
trapstore:
  trap 1
`,
	"trap with the wrong code": `
.entry _start
.bss slot 8
.func _start
  mov rcx, =slot
  push rbx
  push rax
  lea rax, [rcx]
  mov rbx, 0x3FFFFFFFFFFFFFFF
  cmp rax, rbx
  jb trapstore
  mov rbx, 0x4FFFFFFFFFFFFFFF
  cmp rax, rbx
  jae trapstore
  pop rax
  pop rbx
  mov [rcx], rdx
  hlt
trapstore:
  trap 5
`,
	"guard present but wrong placeholder bound": `
.entry _start
.bss slot 8
.func _start
  mov rcx, =slot
  push rbx
  push rax
  lea rax, [rcx]
  mov rbx, 0x1234
  cmp rax, rbx
  jb trapstore
  mov rbx, 0x4FFFFFFFFFFFFFFF
  cmp rax, rbx
  jae trapstore
  pop rax
  pop rbx
  mov [rcx], rdx
  hlt
trapstore:
  trap 1
`,
}

func TestNearMissGuardsRejected(t *testing.T) {
	for name, src := range nearMissGuards {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			err := verifyAsm(t, src, policy.SetP1)
			if !errors.Is(err, verifier.ErrViolation) {
				t.Fatalf("near-miss accepted (err = %v)", err)
			}
			// Rejections must carry structured evidence: the policy that
			// fired, the anchor offset and the disassembled instruction.
			var vio *verifier.Violation
			if !errors.As(err, &vio) {
				t.Fatalf("rejection is not a structured *Violation: %v", err)
			}
			if vio.Policy != policy.P1 {
				t.Errorf("violation policy = %v, want %v (err = %v)", vio.Policy, policy.P1, err)
			}
			if vio.Offset == 0 {
				t.Errorf("violation has no anchor offset: %v", err)
			}
			if vio.Instr == "" {
				t.Errorf("violation has no disassembled instruction: %v", err)
			}
			if vio.Msg == "" {
				t.Errorf("violation has no message: %v", err)
			}
		})
	}
}

// rspGuardGood is a hand-written two-sided P2 guard; rspGuardOneSided
// checks only the lower bound.
const rspGuardGood = `
.entry _start
.func _start
  mov rsp, rbp
  cmp rsp, 0x5FFFFFFFFFFFFFFF
  jb trapstack
  cmp rsp, 0x6FFFFFFFFFFFFFFF
  ja trapstack
  hlt
trapstack:
  trap 2
`

const rspGuardOneSided = `
.entry _start
.func _start
  mov rsp, rbp
  cmp rsp, 0x5FFFFFFFFFFFFFFF
  jb trapstack
  hlt
trapstack:
  trap 2
`

// TestRSPGuardNearMiss: a hand-written P2 guard that checks only one bound.
func TestRSPGuardNearMiss(t *testing.T) {
	// The good version still fails overall P1 requirements? No stores, so
	// P2-only is checkable with SetP1P2 minus... use P2 via SetP1P2: no
	// stores present, so P1 is trivially satisfied.
	if err := verifyAsm(t, rspGuardGood, policy.SetP1P2); err != nil {
		t.Fatalf("correct RSP guard rejected: %v", err)
	}
	err := verifyAsm(t, rspGuardOneSided, policy.SetP1P2)
	if !errors.Is(err, verifier.ErrViolation) {
		t.Fatalf("one-sided RSP guard accepted (err = %v)", err)
	}
	var vio *verifier.Violation
	if !errors.As(err, &vio) || vio.Policy != policy.P2 {
		t.Fatalf("RSP rejection not attributed to P2: %v", err)
	}
}

// TestVerifierIdempotent: verifying the same text twice yields identical
// statistics (no hidden state).
func TestVerifierIdempotent(t *testing.T) {
	o, err := asmtext.Assemble(goodStoreGuard, uint16(policy.SetP1))
	if err != nil {
		t.Fatal(err)
	}
	e, err := enclave.New(enclave.DefaultConfig(), []byte("idem"))
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
	opts := verifier.Options{Required: policy.SetP1, EntryOffset: int64(ld.Entry - ld.TextBase)}
	r1, err := verifier.Verify(text, opts)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := verifier.Verify(text, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats != r2.Stats || len(r1.AnnotRanges) != len(r2.AnnotRanges) {
		t.Fatalf("verification not idempotent: %+v vs %+v", r1.Stats, r2.Stats)
	}
}
