package verifier_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"deflection/internal/apps"
	"deflection/internal/compiler"
	"deflection/internal/dclib"
	"deflection/internal/policy"
	"deflection/internal/taint"
	"deflection/internal/verifier"
)

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
	if err := verifyErr(t, taintSealedFlowSrc, p7Only); err != nil {
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
			err := verifyErr(t, tc.src, p7Only)
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
	if err := verifyErr(t, taintSkippedSrc, policy.SetNone); err != nil {
		t.Fatalf("leak rejected despite P7 not being required: %v", err)
	}
	requireViolation(t, verifyErr(t, taintSkippedSrc, p7Only), policy.P7, "taint")
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
	requireViolation(t, verifyErr(t, taintInterprocSrc, p7Only), policy.P7, "taint")
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
	requireViolation(t, verifyErr(t, taintArgSlotSrc, p7Only), policy.P7, "taint")
}

// TestTaintReportsDeterministic: certificate sharing needs verdicts that
// are identical in every process, so the P7 report of each secret-declaring
// app — findings, block masks and the step count — must not depend on map
// iteration order. Each app is verified 50 times from a fresh load.
func TestTaintReportsDeterministic(t *testing.T) {
	for _, a := range []struct{ name, src string }{
		{"nw", apps.NWSource},
		{"credit", apps.CreditSource},
	} {
		o, err := compiler.Compile(dclib.Program(a.src), compiler.Options{Policies: policy.SetP1P7})
		if err != nil {
			t.Fatalf("%s: compile: %v", a.name, err)
		}
		var first *taint.Report
		for i := 0; i < 50; i++ {
			text, opts := loadObject(t, o, policy.SetP1P7)
			res, err := verifier.Verify(text, opts)
			if err != nil {
				t.Fatalf("%s: run %d rejected: %v", a.name, i, err)
			}
			rep := res.Taint
			if rep == nil || rep.Trivial {
				t.Fatalf("%s: run %d: no full taint report", a.name, i)
			}
			if first == nil {
				first = rep
			} else if !reflect.DeepEqual(rep, first) {
				t.Fatalf("%s: run %d report differs: steps %d vs %d, %d vs %d findings",
					a.name, i, rep.Steps, first.Steps, len(rep.Findings), len(first.Findings))
			}
		}
	}
}

// taintBudgetSrc: rec calls itself with the caller's tainted argument slot
// in reach, so every pass over the call grows rec's own calling context by
// one more argument slot and the taint fixpoint never settles.
const taintBudgetSrc = `
.entry _start
.bss key 8
.secret key
.func _start
  mov rcx, =key
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
`

// TestTaintBudgetExhaustionRejected: running out of the analysis budget is
// a conservative P7 rejection, never an acceptance.
func TestTaintBudgetExhaustionRejected(t *testing.T) {
	err := verifyErr(t, taintBudgetSrc, p7Only)
	var vio *verifier.Violation
	if !errors.As(err, &vio) || vio.Policy != policy.P7 || vio.Pass != "taint" {
		t.Fatalf("err = %v, want a P7 taint violation", err)
	}
	if !strings.Contains(err.Error(), "budget") {
		t.Errorf("err = %v, want the budget named", err)
	}
}
