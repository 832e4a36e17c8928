package verifier_test

import (
	"errors"
	"strings"
	"testing"

	"deflection/internal/policy"
	"deflection/internal/verifier"
)

// verifyAsmTargets is verifyAsm with a hook to tamper with the
// branch-target list handed to the verifier, for attacks on the proof's
// target list rather than on the binary itself.
func verifyAsmTargets(t *testing.T, src string, pols policy.Set, mangle func([]int64) []int64) error {
	t.Helper()
	text, opts := assemble(t, src, pols)
	if mangle != nil {
		opts.BranchTargetOffsets = mangle(opts.BranchTargetOffsets)
	}
	_, err := verifier.Verify(text, opts)
	return err
}

// requireViolation asserts a structured rejection attributed to the given
// policy and (when non-empty) CFA pass, carrying an anchor offset.
func requireViolation(t *testing.T, err error, id policy.ID, pass string) *verifier.Violation {
	t.Helper()
	if !errors.Is(err, verifier.ErrViolation) {
		t.Fatalf("near-miss accepted (err = %v)", err)
	}
	var vio *verifier.Violation
	if !errors.As(err, &vio) {
		t.Fatalf("rejection is not a structured *Violation: %v", err)
	}
	if vio.Policy != id {
		t.Errorf("violation policy = %v, want %v (err = %v)", vio.Policy, id, err)
	}
	if pass != "" && vio.Pass != pass {
		t.Errorf("violation pass = %q, want %q (err = %v)", vio.Pass, pass, err)
	}
	if vio.Offset == 0 {
		t.Errorf("violation has no anchor offset: %v", err)
	}
	return vio
}

const bypassedGuardSrc = `
.entry _start
.bss slot 8
.func _start
  mov rcx, =slot
  cmp rdx, 0
  je skip
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
skip:
  mov [rcx], rdx
  hlt
trapstore:
  trap 1
`

// TestBypassedGuardRejected plants a byte-perfect P1 annotation in front of
// the store and then conditionally jumps over it. Every local template
// check passes — the annotation is well-formed (decoded via the fall-through
// path), the store is covered, and the jump lands on the store itself,
// outside any annotation range, so branch discipline has no objection.
// Only the dominance pass sees the whole-program property: a root-to-store
// path exists that never executes the check.
func TestBypassedGuardRejected(t *testing.T) {
	_, err := verifyAsm(t, bypassedGuardSrc, policy.SetP1)
	requireViolation(t, err, policy.P1, "dominance")
}

const clobberedCheckSrc = `
.entry _start
.bss slot 8
.bss evil 8
.func _start
  mov rcx, =slot
  mov rdx, 7
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
again:
  mov [rcx], rdx
  mov rcx, =evil
  sub rdx, 1
  cmp rdx, 0
  jne again
  hlt
trapstore:
  trap 1
`

// TestClobberedCheckRejected: the guard checks rcx, the store goes through
// rcx, and the first iteration is fine — but a loop latch after the store
// redefines rcx and jumps back to the store without re-running the check.
// The check still dominates the store (every path executes it once), so
// only the reaching-definitions walk catches the stale-check window.
func TestClobberedCheckRejected(t *testing.T) {
	_, err := verifyAsm(t, clobberedCheckSrc, policy.SetP1)
	requireViolation(t, err, policy.P1, "reaching-defs")
}

const annotationAfterStoreSrc = `
.entry _start
.bss slot 8
.func _start
  mov rcx, =slot
  mov [rcx], rdx
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
  hlt
trapstore:
  trap 1
`

// TestAnnotationAfterStoreRejected: the full annotation is present but
// placed after the store it pretends to guard, so the store executes
// unchecked. The store-coverage discipline already rejects this at the
// template level; the test pins the structured evidence.
func TestAnnotationAfterStoreRejected(t *testing.T) {
	_, err := verifyAsm(t, annotationAfterStoreSrc, policy.SetP1)
	requireViolation(t, err, policy.P1, "")
}

const deadBytesSrc = `
.entry _start
.func _start
  hlt
.func orphan
  mov rax, 1
  hlt
`

// TestDeadBytesRejected: an orphan function nothing references survives
// hand assembly (only the compiler garbage-collects). Under P4 its bytes
// are unreachable text — exactly where side-loaded code would hide.
func TestDeadBytesRejected(t *testing.T) {
	pols := policy.SetP1.With(policy.P4)
	_, err := verifyAsm(t, deadBytesSrc, pols)
	requireViolation(t, err, policy.P4, "dead-byte")
}

// Target-list tampering: an entry outside text, one splitting the first
// listed instruction, and a duplicate of the first entry.
var (
	targetOutsideText    = func(offs []int64) []int64 { return append(offs, 1<<20) }
	targetMidInstruction = func(offs []int64) []int64 { return append(offs, offs[0]+1) }
	targetListedTwice    = func(offs []int64) []int64 { return append(offs, offs[0]) }
)

const targetListSrc = `
.entry _start
.target fn
.func _start
  hlt
.func fn
  brmark
  hlt
`

// TestListedTargetWithoutBeaconRejected: a listed target that decodes but
// does not start with a BRMARK beacon is refused by P5's beacon check.
func TestListedTargetWithoutBeaconRejected(t *testing.T) {
	err := verifyAsmTargets(t, `
.entry _start
.target fn
.func _start
  hlt
.func fn
  hlt
`, policy.SetP1P5, nil)
	vio := requireViolation(t, err, policy.P5, "")
	if !strings.Contains(vio.Msg, "lacks a BRMARK beacon") {
		t.Errorf("rejected for %q, want the missing beacon", vio.Msg)
	}
}

// TestBogusTargetListRejected drives the verifier with tampered target
// lists: entries outside text or mid-instruction die in the beacon check,
// duplicates survive it and must be caught by the CFA target-list pass.
func TestBogusTargetListRejected(t *testing.T) {
	if err := verifyAsmTargets(t, targetListSrc, policy.SetP1P5, nil); err != nil {
		t.Fatalf("baseline target-listed program rejected: %v", err)
	}

	t.Run("target outside text", func(t *testing.T) {
		err := verifyAsmTargets(t, targetListSrc, policy.SetP1P5, targetOutsideText)
		vio := requireViolation(t, err, policy.P5, "target-list")
		if vio.Offset != 1<<20 {
			t.Errorf("violation offset = %#x, want %#x", vio.Offset, 1<<20)
		}
	})
	t.Run("target mid-instruction", func(t *testing.T) {
		// A target splitting an instruction defeats the recursive-descent
		// decode itself; the rejection comes from the disassembler and
		// carries the colliding offsets in its message rather than a
		// single anchor offset.
		err := verifyAsmTargets(t, targetListSrc, policy.SetP1P5, targetMidInstruction)
		if !errors.Is(err, verifier.ErrViolation) {
			t.Fatalf("mid-instruction target accepted (err = %v)", err)
		}
		var vio *verifier.Violation
		if !errors.As(err, &vio) || vio.Policy != policy.P5 {
			t.Fatalf("rejection not attributed to P5: %v", err)
		}
		if vio.Pass != "decode" {
			t.Errorf("disassembly failure attributed to pass %q, want \"decode\"", vio.Pass)
		}
	})
	t.Run("target listed twice", func(t *testing.T) {
		err := verifyAsmTargets(t, targetListSrc, policy.SetP1P5, targetListedTwice)
		requireViolation(t, err, policy.P5, "target-list")
	})
}

// TestDeadBytesBilledToP5WithoutP4: with P5 required and P4 not, the
// dead-byte pass still runs and bills the side-loading risk to P5.
func TestDeadBytesBilledToP5WithoutP4(t *testing.T) {
	_, err := verifyAsm(t, deadBytesSrc, policy.Bit(policy.P5))
	requireViolation(t, err, policy.P5, "dead-byte")
}

// cleanLoopSrc is clobberedCheckSrc without the latch's redefinition of
// the checked register: the backward walk from the store meets the store
// again around the loop and stops there.
const cleanLoopSrc = `
.entry _start
.bss slot 8
.func _start
  mov rcx, =slot
  mov rdx, 7
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
again:
  mov [rcx], rdx
  sub rdx, 1
  cmp rdx, 0
  jne again
  hlt
trapstore:
  trap 1
`

func TestCleanLoopToGuardedStoreAccepted(t *testing.T) {
	res, err := verifyAsm(t, cleanLoopSrc, policy.SetP1)
	if err != nil {
		t.Fatalf("loop that keeps the checked register rejected: %v", err)
	}
	if res.CFA.Anchors != 1 {
		t.Errorf("anchors = %d, want the one store guard", res.CFA.Anchors)
	}
}

// TestClobberedIndexRejected: the checked address is computed from a base
// and an index register; a loop latch that advances only the index
// re-enters the store with an unchecked address.
func TestClobberedIndexRejected(t *testing.T) {
	_, err := verifyAsm(t, `
.entry _start
.bss slot 64
.func _start
  mov rcx, =slot
  mov rdi, 0
  push rbx
  push rax
  lea rax, [rcx+rdi*8]
  mov rbx, 0x3FFFFFFFFFFFFFFF
  cmp rax, rbx
  jb trapstore
  mov rbx, 0x4FFFFFFFFFFFFFFF
  cmp rax, rbx
  jae trapstore
  pop rax
  pop rbx
again:
  mov [rcx+rdi*8], rdx
  add rdi, 1
  cmp rdi, 8
  jne again
  hlt
trapstore:
  trap 1
`, policy.SetP1)
	vio := requireViolation(t, err, policy.P1, "reaching-defs")
	if !strings.Contains(vio.Msg, "register rdi") {
		t.Errorf("rejected for %q, want the index register named", vio.Msg)
	}
}
