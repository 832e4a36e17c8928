package verifier_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"deflection/internal/asm"
	"deflection/internal/disasm"
	"deflection/internal/isa"
	"deflection/internal/policy"
	"deflection/internal/verifier"
)

// templateCases pairs each annotation template with the policy that owns
// it. Each binary is compiled and verified under that policy alone, so no
// other policy's check can reject first. atMain picks the instance at
// main's entry, a direct-call target: a shadow push or AEX check that fails
// to match there is always rejected (elsewhere a failed AEX check is only
// rejected if the coverage rules notice).
var templateCases = []struct {
	name   string
	t      policy.Template
	owner  policy.ID
	atMain bool
}{
	{"store-guard", policy.StoreGuard, policy.P1, false},
	{"rsp-guard", policy.RSPGuard, policy.P2, false},
	{"cfi-guard", policy.CFIGuard, policy.P5, false},
	{"shadow-push", policy.ShadowPush, policy.P5, true},
	{"shadow-check", policy.ShadowCheck, policy.P5, false},
	{"aex-check", policy.AEXCheck, policy.P6, true},
	{"arming", policy.Arming, policy.P6, false},
}

// TestTemplateMutationsRejected perturbs, in a compiled binary, every
// field the verifier compares in every step of every template, one at a
// time, and requires a rejection under the template's owning policy. The
// table-driven matcher and the reference matchers must agree on each case.
func TestTemplateMutationsRejected(t *testing.T) {
	for _, tc := range templateCases {
		text, opts := compileText(t, guardedSrc, policy.Bit(tc.owner))
		res, err := verifier.Verify(text, opts)
		if err != nil {
			t.Fatalf("%s: unmutated binary rejected: %v", tc.name, err)
		}
		from := int64(0)
		if tc.atMain {
			from = mainEntry(t, res.Dis, opts.EntryOffset)
		}
		first := locate(res.Dis, tc.t, from)
		if first < 0 {
			t.Fatalf("%s: no instance at or after %#x", tc.name, from)
		}
		for k, s := range tc.t.Steps() {
			in := res.Dis.Insts[first+k]
			for _, m := range stepMutations(res.Dis, s, in, res.Dis.Insts[first].Off) {
				name := fmt.Sprintf("%s/step%d/%s", tc.name, k, m.field)
				mutated := bytes.Clone(text)
				enc := asm.AppendEncode(nil, &m.inst)
				if len(enc) != m.at.Len {
					t.Fatalf("%s: re-encoding changes the length %d -> %d", name, m.at.Len, len(enc))
				}
				copy(mutated[m.at.Off:], enc)
				err := verifyText(mutated, opts)
				var vio *verifier.Violation
				if !errors.As(err, &vio) || vio.Policy != tc.owner {
					t.Errorf("%s: want a %v violation, got %v", name, tc.owner, err)
				}
				if d := verifier.DiffReference(mutated, opts); d != "" {
					t.Errorf("%s: matcher and reference disagree: %s", name, d)
				}
			}
		}
	}
}

func verifyText(text []byte, opts verifier.Options) error {
	_, err := verifier.Verify(text, opts)
	return err
}

// mainEntry returns the target of the program entry's first direct call.
func mainEntry(t *testing.T, dis *disasm.Result, entry int64) int64 {
	t.Helper()
	for _, in := range dis.Insts {
		if in.Off >= entry && in.Op == isa.OpCall {
			return disasm.DirectTarget(in)
		}
	}
	t.Fatal("entry makes no direct call")
	return 0
}

// locate returns the index of the first run of contiguous instructions at
// or after off whose opcodes are the template's, or -1.
func locate(dis *disasm.Result, tmpl policy.Template, off int64) int {
	steps := tmpl.Steps()
next:
	for i := range dis.Insts {
		if dis.Insts[i].Off < off || i+len(steps) > len(dis.Insts) {
			continue
		}
		for k, s := range steps {
			in := dis.Insts[i+k]
			if in.Op != s.Op || (k > 0 && dis.Insts[i+k-1].End() != in.Off) {
				continue next
			}
		}
		return i
	}
	return -1
}

// mutation is one perturbed instruction: inst replaces the instruction at.
type mutation struct {
	field string
	at    disasm.Inst
	inst  isa.Inst
}

// stepMutations perturbs, one at a time, each field the verifier compares
// for step s, which decoded as in; start is the template's first offset.
func stepMutations(dis *disasm.Result, s policy.Step, in disasm.Inst, start int64) []mutation {
	var out []mutation
	add := func(field string, f func(*isa.Inst)) {
		m := mutation{field: field, at: in, inst: in.Inst}
		f(&m.inst)
		out = append(out, m)
	}
	if op := sameFormatOp(in.Op); op != in.Op {
		add("op", func(x *isa.Inst) { x.Op = op })
	}
	switch in.Op.Format() {
	case isa.FmtR, isa.FmtRR, isa.FmtRI, isa.FmtRM:
		add("dst", func(x *isa.Inst) { x.Dst = otherReg(x.Dst) })
	}
	switch in.Op.Format() {
	case isa.FmtRR, isa.FmtMR:
		add("src", func(x *isa.Inst) { x.Src = otherReg(x.Src) })
	}
	switch in.Op.Format() {
	case isa.FmtRI, isa.FmtMI:
		if s.Fill == policy.FillPositive {
			add("imm=0", func(x *isa.Inst) { x.Imm = 0 })
			add("imm<0", func(x *isa.Inst) { x.Imm = -1 })
		} else {
			add("imm", func(x *isa.Inst) { x.Imm++ })
		}
	}
	switch in.Op.Format() {
	case isa.FmtRM, isa.FmtMR, isa.FmtMI:
		add("disp", func(x *isa.Inst) { x.Mem.Disp += 8 })
		if in.Mem.HasBase {
			add("base", func(x *isa.Inst) { x.Mem.Base = otherReg(x.Mem.Base) })
		}
		if s.Fill == policy.FillStoreMem && !in.Mem.HasIndex {
			add("scale", func(x *isa.Inst) { x.Mem.Scale = 2 })
		}
	}
	if in.Op == isa.OpJcc {
		add("cond", func(x *isa.Inst) { x.Cond = x.Cond.Negate() })
		if s.Local {
			add("local-target", func(x *isa.Inst) { x.Imm = start - in.End() })
		}
		if s.Trap != isa.TrapNone {
			trap, _ := dis.At(disasm.DirectTarget(in))
			out = append(out, mutation{field: "trap-code", at: trap,
				inst: isa.Inst{Op: isa.OpTrap, Imm: trap.Imm + 1}})
		}
	}
	return out
}

// sameFormatOp returns the next opcode after op with the same operand
// format (op itself when there is none), so the encoding keeps its length.
func sameFormatOp(op isa.Op) isa.Op {
	for o := op + 1; o != op; o++ {
		if o.Valid() && o.Format() == op.Format() {
			return o
		}
	}
	return op
}

// otherReg returns a register other than r that is neither RSP nor the
// shadow-stack register, so a perturbed operand never trips P2 or P5 checks
// of its own.
func otherReg(r isa.Reg) isa.Reg {
	if r == isa.RDX {
		return isa.RSI
	}
	return isa.RDX
}

// aexRetargeted has two AEX checks; the first one's early-out je lands on
// the second check instead of its own final pop, so only the second
// matches. The first check then runs as ordinary code, which P6 still
// accepts: its je lands on a check and its ja on a trap.
const aexRetargeted = `
.entry _start
.func _start
  mov [0x7EE00010], 0x5AD00DFEEDFACE5A
  mov [0x7EE00018], 0
  push rax
  mov rax, [0x7EE00010]
  cmp rax, 0x5AD00DFEEDFACE5A
  je check2
  mov rax, [0x7EE00018]
  add rax, 1
  mov [0x7EE00018], rax
  mov [0x7EE00010], 0x5AD00DFEEDFACE5A
  cmp rax, 256
  ja trapaex
  pop rax
check2:
  push rax
  mov rax, [0x7EE00010]
  cmp rax, 0x5AD00DFEEDFACE5A
  je ok2
  mov rax, [0x7EE00018]
  add rax, 1
  mov [0x7EE00018], rax
  mov [0x7EE00010], 0x5AD00DFEEDFACE5A
  cmp rax, 256
  ja trapaex
ok2:
  pop rax
  hlt
trapaex:
  trap 5
`

// TestFailedAEXCheckLeavesNoTrapRange: an AEX check that fails to match
// must not leave its trap stub in AnnotRanges; the stub is listed once, for
// the check that matched.
func TestFailedAEXCheckLeavesNoTrapRange(t *testing.T) {
	res, err := verifyAsm(t, aexRetargeted, policy.Bit(policy.P6))
	if err != nil {
		t.Fatalf("rejected: %v", err)
	}
	if res.Stats.AEXChecks != 1 {
		t.Fatalf("AEXChecks = %d, want 1 (only the second check is well formed)", res.Stats.AEXChecks)
	}
	traps := 0
	for _, r := range res.AnnotRanges {
		if in, ok := res.Dis.At(r.Lo); ok && in.Op == isa.OpTrap {
			traps++
		}
	}
	if traps != 1 {
		t.Fatalf("trap stub listed %d times in %v, want once", traps, res.AnnotRanges)
	}
}

// indexedArming plants the SSA marker through [rcx*1+disp]: the address
// equals the template's absolute operand only while RCX is zero, so the
// entry arming must not match. Byte mutations in place cannot add an index
// byte, so the fuzz and mutation tests never reach this case.
const indexedArming = `
.entry _start
.func _start
  mov [rcx*1+0x7EE00010], 0x5AD00DFEEDFACE5A
  mov [0x7EE00018], 0
  push rax
  mov rax, [0x7EE00010]
  cmp rax, 0x5AD00DFEEDFACE5A
  je ok
  mov rax, [0x7EE00018]
  add rax, 1
  mov [0x7EE00018], rax
  mov [0x7EE00010], 0x5AD00DFEEDFACE5A
  cmp rax, 256
  ja trapaex
ok:
  pop rax
  hlt
trapaex:
  trap 5
`

func TestIndexedTemplateOperandRejected(t *testing.T) {
	_, err := verifyAsm(t, indexedArming, policy.Bit(policy.P6))
	var vio *verifier.Violation
	if !errors.As(err, &vio) || vio.Policy != policy.P6 || vio.Msg != "entry does not arm the SSA marker (P6)" {
		t.Fatalf("indexed arming store: want the P6 arming violation, got %v", err)
	}
}
