package verifier_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"deflection/internal/asmtext"
	"deflection/internal/isa"
	"deflection/internal/policy"
	"deflection/internal/verifier"
)

// assemble assembles hand-written source and loads it as the runtime does,
// returning the relocated text and the verifier options the load implies.
func assemble(t *testing.T, src string, pols policy.Set) ([]byte, verifier.Options) {
	t.Helper()
	o, err := asmtext.Assemble(src, uint16(pols))
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return loadObject(t, o, pols)
}

// verifyAsm assembles hand-written source and runs the verifier against the
// given policy set.
func verifyAsm(t *testing.T, src string, pols policy.Set) (*verifier.Result, error) {
	t.Helper()
	text, opts := assemble(t, src, pols)
	return verifier.Verify(text, opts)
}

// verifyErr is verifyAsm's verdict alone.
func verifyErr(t *testing.T, src string, pols policy.Set) error {
	t.Helper()
	_, err := verifyAsm(t, src, pols)
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
	if _, err := verifyAsm(t, goodStoreGuard, policy.SetP1); err != nil {
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
			_, err := verifyAsm(t, src, policy.SetP1)
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
	if _, err := verifyAsm(t, rspGuardGood, policy.SetP1P2); err != nil {
		t.Fatalf("correct RSP guard rejected: %v", err)
	}
	_, err := verifyAsm(t, rspGuardOneSided, policy.SetP1P2)
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
	text, opts := assemble(t, goodStoreGuard, policy.SetP1)
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

// targetInsideGuardSrc lists a branch target inside a valid store guard:
// an indirect branch there would skip the lower-bound check. Under P1
// alone no beacon check runs, so branch discipline is what rejects it.
const targetInsideGuardSrc = `
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
midguard:
  mov rbx, 0x4FFFFFFFFFFFFFFF
  cmp rax, rbx
  jae trapstore
  pop rax
  pop rbx
  mov [rcx], rdx
  hlt
trapstore:
  trap 1
.target midguard
`

func TestTargetInsideAnnotationRejected(t *testing.T) {
	_, err := verifyAsm(t, targetInsideGuardSrc, policy.SetP1)
	vio := requireViolation(t, err, policy.P1, "")
	if !strings.Contains(vio.Msg, "branch-target list entry inside a P1 security annotation") {
		t.Fatalf("rejected for another reason: %v", err)
	}
}

// TestIndirectBranchThroughReservedRegister: an indirect branch through
// RSP or the shadow-stack register is rejected under P5 before any CFI
// guard is looked for.
func TestIndirectBranchThroughReservedRegister(t *testing.T) {
	for _, reg := range []string{"rsp", "r14"} {
		src := `
.entry _start
.func _start
  nop
  jmp ` + reg + `
.func helper
  brmark
  hlt
.target helper
`
		_, err := verifyAsm(t, src, policy.Bit(policy.P5))
		vio := requireViolation(t, err, policy.P5, "")
		if !strings.Contains(vio.Msg, "indirect branch through reserved register") {
			t.Fatalf("jmp %s rejected for another reason: %v", reg, err)
		}
	}
}

// TestStoreGuardBilledToP3: without P1, an unguarded store violates the
// first of P3/P4 that demands store guards.
func TestStoreGuardBilledToP3(t *testing.T) {
	_, err := verifyAsm(t, `
.entry _start
.bss slot 8
.func _start
  mov rcx, =slot
  mov [rcx], rdx
  hlt
`, policy.Bit(policy.P3).With(policy.P4))
	requireViolation(t, err, policy.P3, "")
}

// TestShadowPushPerCallTarget: a function called twice carries one shadow
// push and counts once, as does a listed function called directly, whose
// push follows its beacon; the entry, which has no caller of its own,
// needs none even when the program calls it.
func TestShadowPushPerCallTarget(t *testing.T) {
	res, err := verifyAsm(t, `
.entry _start
.target listed
.func _start
  call fn
  call fn
  call listed
  call _start
  hlt
.func fn
  push rax
  mov rax, [rsp+8]
  mov [r14], rax
  add r14, 8
  pop rax
  hlt
.func listed
  brmark
  push rax
  mov rax, [rsp+8]
  mov [r14], rax
  add r14, 8
  pop rax
  hlt
`, policy.Bit(policy.P5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ShadowPushes != 2 {
		t.Errorf("shadow pushes = %d, want one each for fn and listed", res.Stats.ShadowPushes)
	}
}

// nearTargetSrc jumps to a run of n beacons in front of the program's one
// AEX check, under hand-written P6 arming.
func nearTargetSrc(n int) string {
	return fmt.Sprintf(`
.entry _start
.func _start
  mov [%#x], %#x
  mov [%#x], 0
  jmp far
far:
%[4]s  push rax
  mov rax, [%#[1]x]
  cmp rax, %#[2]x
  je aexdone
  mov rax, [%#[3]x]
  add rax, 1
  mov [%#[3]x], rax
  mov [%#[1]x], %#[2]x
  cmp rax, 5
  ja trapaex
aexdone:
  pop rax
  hlt
trapaex:
  trap %[5]d
`, policy.MagicSSAMarkerDisp, uint64(policy.SSAMarkerMagic), policy.MagicAEXCountDisp,
		strings.Repeat("  brmark\n", n), isa.TrapAEXBudget)
}

// TestNearTargetWalkBounded: the walk from a branch target to its AEX
// check crosses at most 256 beacons or annotation instructions, so a
// target 256 beacons away is refused though one 255 away is not.
func TestNearTargetWalkBounded(t *testing.T) {
	for n, accept := range map[int]bool{255: true, 256: false} {
		text, opts := assemble(t, nearTargetSrc(n), policy.Bit(policy.P6))
		opts.AEXCheckMaxGap = 1000 // the beacons count as user instructions
		_, err := verifier.Verify(text, opts)
		if accept {
			if err != nil {
				t.Errorf("%d beacons: %v", n, err)
			}
			continue
		}
		vio := requireViolation(t, err, policy.P6, "")
		if !strings.Contains(vio.Msg, "branch target lacks a nearby AEX check") {
			t.Errorf("%d beacons: rejected for %q", n, vio.Msg)
		}
	}
}
