package verifier_test

import (
	"errors"
	"strings"
	"testing"

	"deflection/internal/asmtext"
	"deflection/internal/enclave"
	"deflection/internal/loader"
	"deflection/internal/policy"
	"deflection/internal/runtime"
	"deflection/internal/verifier"
)

// verifyAsmOrder assembles hand-written source, loads it and runs the
// verifier with the object's declared interface protocol, exactly as the
// runtime wires the P8 pass.
func verifyAsmOrder(t *testing.T, src string, pols policy.Set) error {
	t.Helper()
	o, err := asmtext.Assemble(src, uint16(pols))
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	e, err := enclave.New(enclave.DefaultConfig(), []byte("nearmiss-order"))
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
		Order:               runtime.OrderProtocol(ld),
	})
	return err
}

// p8Only isolates the orderliness pass: no template annotations are
// required, so the near-miss sources stay minimal and the rejection can
// only come from the order analysis.
var p8Only = policy.Bit(policy.P8)

// protoExchange is the canonical declared protocol: provision in (recv),
// then send freely from the attested state, then halt.
const protoExchange = `
.pstate init
.pstate ready attested
.pstate end attested
.pedge init 2 ready
.pedge ready 1 ready
.pedge ready -1 end
`

const orderConformingSrc = `
.entry _start
` + protoExchange + `
.func _start
  ocall 2
  mov rcx, 3
again:
  call send_one
  sub rcx, 1
  cmp rcx, 0
  jne again
  hlt
.func send_one
  ocall 1
  ret
`

// TestOrderConformingAccepted is the false-positive guard: a program that
// follows its declared protocol to the letter must verify P8-clean,
// including across calls and loops.
func TestOrderConformingAccepted(t *testing.T) {
	if err := verifyAsmOrder(t, orderConformingSrc, p8Only); err != nil {
		t.Fatalf("conforming program rejected: %v", err)
	}
}

// orderNearMisses each violate their declared interface protocol along a
// different route.
var orderNearMisses = map[string]struct {
	src  string
	want string // substring of the violation message
}{
	"output before attestation completes": {want: "event-order", src: `
.entry _start
` + protoExchange + `
.func _start
  mov rax, 0
  ocall 1
  ocall 2
  hlt
`},
	"single-shot exchange smuggled through a loop": {want: "event-order", src: `
.entry _start
.pstate init
.pstate done attested
.pstate end attested
.pedge init 2 done
.pedge done -1 end
.func _start
  mov rcx, 2
again:
  ocall 2
  sub rcx, 1
  cmp rcx, 0
  jne again
  hlt
`},
	"indirect branch skips the provisioning recv": {want: "event-order", src: `
.entry _start
.target fast_path
` + protoExchange + `
.func _start
  mov rax, =fast_path
  jmp rax
.func fast_path
  brmark
  ocall 1
  hlt
`},
	"interprocedural: helper sends before the caller provisions": {want: "event-order", src: `
.entry _start
` + protoExchange + `
.func _start
  call send_one
  ocall 2
  hlt
.func send_one
  ocall 1
  ret
`},
	"halt with the exchange incomplete": {want: "halt-order", src: `
.entry _start
.pstate init
.pstate mid attested
.pstate fin attested
.pstate end attested
.pedge init 2 mid
.pedge mid 1 fin
.pedge fin -1 end
.func _start
  ocall 2
  hlt
`},
	"event after the exchange closes": {want: "event-order", src: `
.entry _start
.pstate init
.pstate done attested
.pstate closed attested
.pstate end attested
.pedge init 2 done
.pedge done 1 closed
.pedge closed -1 end
.func _start
  ocall 2
  ocall 1
  ocall 1
  hlt
`},
}

// TestOrderNearMissesRejected: every orderNearMisses program must be
// rejected with a P8 violation from the order pass.
func TestOrderNearMissesRejected(t *testing.T) {
	for name, tc := range orderNearMisses {
		t.Run(name, func(t *testing.T) {
			err := verifyAsmOrder(t, tc.src, p8Only)
			vio := requireViolation(t, err, policy.P8, "order")
			if !strings.Contains(vio.Msg, tc.want) {
				t.Errorf("violation %q does not name finding kind %q", vio.Msg, tc.want)
			}
		})
	}
}

// tamperedProtocols each declare an automaton that fails meta-validation.
var tamperedProtocols = map[string]string{
	"output admitted in an unattested state": `
.entry _start
.pstate init
.pstate end attested
.pedge init 1 init
.pedge init -1 end
.func _start
  ocall 1
  hlt
`,
	"edge dropping attestation": `
.entry _start
.pstate init
.pstate ready attested
.pstate end attested
.pedge init 2 ready
.pedge ready 2 init
.pedge ready -1 end
.func _start
  ocall 2
  hlt
`,
	"terminal state with outgoing edges": `
.entry _start
.pstate init
.pstate ready attested
.pstate end attested
.pedge init 2 ready
.pedge ready -1 end
.pedge end 1 end
.func _start
  ocall 2
  hlt
`,
	"nondeterministic transition": `
.entry _start
.pstate init
.pstate ready attested
.pstate end attested
.pedge init 2 ready
.pedge init 2 end
.pedge ready -1 end
.func _start
  ocall 2
  hlt
`,
}

// TestOrderTamperedProtocolRejected: the protocol table is part of the
// proof, so a generator cannot weaken P8 by declaring a permissive
// automaton — meta-validation inside the TCB rejects it before any path
// analysis runs.
func TestOrderTamperedProtocolRejected(t *testing.T) {
	for name, src := range tamperedProtocols {
		t.Run(name, func(t *testing.T) {
			err := verifyAsmOrder(t, src, p8Only)
			// A tampered table has no violating instruction to anchor, so
			// assert the structured rejection directly instead of via
			// requireViolation (which demands an anchor offset).
			var vio *verifier.Violation
			if !errors.As(err, &vio) {
				t.Fatalf("tampered protocol not rejected with a structured violation: %v", err)
			}
			if vio.Policy != policy.P8 || vio.Pass != "order" {
				t.Errorf("violation policy/pass = %v/%q, want P8/order (err = %v)", vio.Policy, vio.Pass, err)
			}
			if !strings.Contains(vio.Msg, "invalid protocol") {
				t.Errorf("violation %q does not report protocol meta-validation", vio.Msg)
			}
		})
	}
}

const orderSkippedSrc = `
.entry _start
` + protoExchange + `
.func _start
  mov rax, 0
  ocall 1
  ocall 2
  hlt
`

// TestOrderPassSkippedWithoutP8: the same violating program is accepted
// when the manifest does not demand P8 — orderliness is a policy, not a
// default.
func TestOrderPassSkippedWithoutP8(t *testing.T) {
	if err := verifyAsmOrder(t, orderSkippedSrc, policy.SetNone); err != nil {
		t.Fatalf("violation rejected despite P8 not being required: %v", err)
	}
	requireViolation(t, verifyAsmOrder(t, orderSkippedSrc, p8Only), policy.P8, "order")
}

const orderAblationSrc = `
.entry _start
` + protoExchange + `
.func _start
  ocall 1
  ocall 2
  hlt
`

// TestOrderAblation: with the pass disabled the violating binary slips
// through — the pass, not some other check, is what rejects it.
func TestOrderAblation(t *testing.T) {
	o, err := asmtext.Assemble(orderAblationSrc, uint16(p8Only))
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	e, err := enclave.New(enclave.DefaultConfig(), []byte("nearmiss-order"))
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
	opts := verifier.Options{
		Required:     p8Only,
		EntryOffset:  int64(ld.Entry - ld.TextBase),
		Order:        runtime.OrderProtocol(ld),
		DisableOrder: true,
	}
	if _, err := verifier.Verify(text, opts); err != nil {
		t.Fatalf("ablated verification rejected: %v", err)
	}
	opts.DisableOrder = false
	if _, err := verifier.Verify(text, opts); err == nil {
		t.Fatal("un-ablated verification accepted a protocol violation")
	}
}
