package verifier_test

import (
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"deflection/internal/apps"
	"deflection/internal/asm"
	"deflection/internal/compiler"
	"deflection/internal/disasm"
	"deflection/internal/isa"
	"deflection/internal/obj"
	"deflection/internal/policy"
	"deflection/internal/verifier"
)

// compileText compiles src and returns the relocated text plus verifier
// options matching the load.
func compileText(t *testing.T, src string, pols policy.Set) ([]byte, verifier.Options) {
	t.Helper()
	o, err := compiler.Compile(src, compiler.Options{Policies: pols})
	if err != nil {
		t.Fatal(err)
	}
	return loadObject(t, o, pols)
}

// loadObject loads o exactly as the runtime does and returns the relocated
// text plus the verifier options the load implies.
func loadObject(t testing.TB, o *obj.Object, pols policy.Set) ([]byte, verifier.Options) {
	t.Helper()
	text, opts, err := apps.VerifyObject(o, pols)
	if err != nil {
		t.Fatal(err)
	}
	return text, opts
}

const guardedSrc = `
int g[8];
int use(fnptr f) { return f(2); }
int twice(int x) { return 2 * x; }
int main() {
	for (int i = 0; i < 8; i++) g[i] = i;
	fnptr f = twice;
	return use(f) + g[3];
}`

func TestAcceptsWellFormedBinary(t *testing.T) {
	for _, pols := range []policy.Set{policy.SetP1, policy.SetP1P2, policy.SetP1P5, policy.SetP1P6} {
		text, opts := compileText(t, guardedSrc, pols)
		res, err := verifier.Verify(text, opts)
		if err != nil {
			t.Fatalf("policies %v: %v", pols, err)
		}
		if res.Stats.Instructions == 0 {
			t.Error("no instructions verified")
		}
		if pols.Has(policy.P1) && res.Stats.StoreGuards == 0 {
			t.Error("no store guards found")
		}
		if pols.Has(policy.P2) && res.Stats.RSPGuards == 0 {
			t.Error("no RSP guards found")
		}
		if pols.Has(policy.P5) && (res.Stats.CFIGuards == 0 || res.Stats.ShadowChecks == 0 || res.Stats.ShadowPushes == 0) {
			t.Errorf("P5 stats incomplete: %+v", res.Stats)
		}
		if pols.Has(policy.P6) && res.Stats.AEXChecks == 0 {
			t.Error("no AEX checks found")
		}
	}
}

// tamper locates the first instruction satisfying pred and mutates its
// bytes, returning the modified text.
func tamper(t *testing.T, text []byte, pred func(disasm.Inst) bool, mut func([]byte, disasm.Inst)) []byte {
	t.Helper()
	out := append([]byte(nil), text...)
	insts, _ := asm.Linear(text)
	for _, in := range insts {
		if pred(in) {
			mut(out[in.Off:in.End()], in)
			return out
		}
	}
	t.Fatal("tamper target not found")
	return nil
}

func TestRejectsTamperedStoreBound(t *testing.T) {
	text, opts := compileText(t, guardedSrc, policy.SetP1)
	// Widen the lower bound placeholder: the guard no longer matches.
	bad := tamper(t, text,
		func(in disasm.Inst) bool {
			return in.Op == isa.OpMovRI && in.Imm == policy.MagicStoreLo
		},
		func(b []byte, in disasm.Inst) {
			binary.LittleEndian.PutUint64(b[2:], 0) // bound := 0
		})
	if _, err := verifier.Verify(bad, opts); !errors.Is(err, verifier.ErrViolation) {
		t.Fatalf("tampered bound accepted: %v", err)
	}
}

func TestRejectsNeutralisedTrap(t *testing.T) {
	text, opts := compileText(t, guardedSrc, policy.SetP1)
	// Redirect the guard's trap to a benign code (defanging the check).
	bad := tamper(t, text,
		func(in disasm.Inst) bool {
			return in.Op == isa.OpTrap && in.Imm == int64(isa.TrapStoreBounds)
		},
		func(b []byte, in disasm.Inst) {
			binary.LittleEndian.PutUint64(b[1:], uint64(isa.TrapNone))
		})
	if _, err := verifier.Verify(bad, opts); !errors.Is(err, verifier.ErrViolation) {
		t.Fatalf("neutralised trap accepted: %v", err)
	}
}

func TestRejectsUnguardedStore(t *testing.T) {
	a := asm.NewAssembler()
	a.AddBSS("g", 8)
	body := []asm.Item{
		{Inst: isa.Inst{Op: isa.OpMovRI, Dst: isa.RBX}, SymRef: "g"},
		asm.InstItem(isa.Inst{Op: isa.OpMovMR, Src: isa.RAX, Mem: isa.Mem(isa.RBX, 0)}),
		asm.InstItem(isa.Inst{Op: isa.OpHlt}),
	}
	if err := a.AddFunc("_start", body); err != nil {
		t.Fatal(err)
	}
	a.SetEntry("_start")
	o, err := a.Assemble(uint16(policy.SetP1))
	if err != nil {
		t.Fatal(err)
	}
	text, opts := loadObject(t, o, policy.SetP1)
	if _, err := verifier.Verify(text, opts); !errors.Is(err, verifier.ErrViolation) {
		t.Fatalf("unguarded store accepted: %v", err)
	}
}

func TestRejectsUnguardedIndirectBranch(t *testing.T) {
	a := asm.NewAssembler()
	body := []asm.Item{
		{Inst: isa.Inst{Op: isa.OpMovRI, Dst: isa.RAX}, SymRef: "f"},
		asm.InstItem(isa.Inst{Op: isa.OpCallR, Dst: isa.RAX}),
		asm.InstItem(isa.Inst{Op: isa.OpHlt}),
	}
	if err := a.AddFunc("_start", body); err != nil {
		t.Fatal(err)
	}
	if err := a.AddFunc("f", []asm.Item{
		asm.InstItem(isa.Inst{Op: isa.OpBrMark, Imm: isa.BrMarkMagic56}),
		asm.InstItem(isa.Inst{Op: isa.OpHlt}),
	}); err != nil {
		t.Fatal(err)
	}
	a.AddBranchTarget("f")
	a.SetEntry("_start")
	o, err := a.Assemble(uint16(policy.SetP1P5))
	if err != nil {
		t.Fatal(err)
	}
	text, opts := loadObject(t, o, policy.SetP1P5)
	if _, err := verifier.Verify(text, opts); !errors.Is(err, verifier.ErrViolation) {
		t.Fatalf("unguarded indirect branch accepted: %v", err)
	}
}

func TestRejectsRetWithoutShadowCheck(t *testing.T) {
	a := asm.NewAssembler()
	hlt := isa.Inst{Op: isa.OpHlt}
	body := []asm.Item{
		asm.BranchItem(isa.Inst{Op: isa.OpCall}, "f"),
		asm.InstItem(hlt),
	}
	if err := a.AddFunc("_start", body); err != nil {
		t.Fatal(err)
	}
	if err := a.AddFunc("f", []asm.Item{asm.InstItem(isa.Inst{Op: isa.OpRet})}); err != nil {
		t.Fatal(err)
	}
	a.SetEntry("_start")
	o, err := a.Assemble(uint16(policy.SetP1P5))
	if err != nil {
		t.Fatal(err)
	}
	text, opts := loadObject(t, o, policy.SetP1P5)
	if _, err := verifier.Verify(text, opts); !errors.Is(err, verifier.ErrViolation) {
		t.Fatalf("naked ret accepted: %v", err)
	}
}

func TestRejectsStrayBeacon(t *testing.T) {
	// A beacon not on the branch-target list would let any indirect branch
	// jump there.
	a := asm.NewAssembler()
	body := []asm.Item{
		asm.InstItem(isa.Inst{Op: isa.OpBrMark, Imm: isa.BrMarkMagic56}),
		asm.InstItem(isa.Inst{Op: isa.OpHlt}),
	}
	if err := a.AddFunc("_start", body); err != nil {
		t.Fatal(err)
	}
	a.SetEntry("_start")
	o, err := a.Assemble(uint16(policy.SetP1P5))
	if err != nil {
		t.Fatal(err)
	}
	text, opts := loadObject(t, o, policy.SetP1P5)
	if _, err := verifier.Verify(text, opts); !errors.Is(err, verifier.ErrViolation) {
		t.Fatalf("stray beacon accepted: %v", err)
	}
}

func TestRejectsBeaconPatternInImmediate(t *testing.T) {
	// Hiding the beacon pattern inside a mov immediate would let indirect
	// branches target the middle of that instruction.
	a := asm.NewAssembler()
	body := []asm.Item{
		asm.InstItem(isa.Inst{Op: isa.OpMovRI, Dst: isa.RAX, Imm: int64(isa.BrMarkPattern())}),
		asm.InstItem(isa.Inst{Op: isa.OpHlt}),
	}
	if err := a.AddFunc("_start", body); err != nil {
		t.Fatal(err)
	}
	a.SetEntry("_start")
	o, err := a.Assemble(uint16(policy.SetP1P5))
	if err != nil {
		t.Fatal(err)
	}
	text, opts := loadObject(t, o, policy.SetP1P5)
	if _, err := verifier.Verify(text, opts); !errors.Is(err, verifier.ErrViolation) {
		t.Fatalf("embedded beacon pattern accepted: %v", err)
	}
}

func TestRejectsWriteToShadowRegister(t *testing.T) {
	a := asm.NewAssembler()
	body := []asm.Item{
		asm.InstItem(isa.Inst{Op: isa.OpMovRI, Dst: isa.RegShadow, Imm: 0}),
		asm.InstItem(isa.Inst{Op: isa.OpHlt}),
	}
	if err := a.AddFunc("_start", body); err != nil {
		t.Fatal(err)
	}
	a.SetEntry("_start")
	o, err := a.Assemble(uint16(policy.SetP1P5))
	if err != nil {
		t.Fatal(err)
	}
	text, opts := loadObject(t, o, policy.SetP1P5)
	if _, err := verifier.Verify(text, opts); !errors.Is(err, verifier.ErrViolation) {
		t.Fatalf("shadow-register write accepted: %v", err)
	}
}

func TestRejectsJumpIntoAnnotation(t *testing.T) {
	// Take a valid P1 binary and retarget a user jmp into the middle of a
	// store guard (right at its pops), bypassing the bounds comparison.
	text, opts := compileText(t, guardedSrc, policy.SetP1)
	insts, err := asm.Linear(text)
	if err != nil {
		t.Fatal(err)
	}
	// Locate a store guard: find a store and back off to its pops.
	var popOff int64 = -1
	for i, in := range insts {
		if in.Op.IsStore() && i >= 2 && insts[i-1].Op == isa.OpPop && insts[i-2].Op == isa.OpPop {
			popOff = insts[i-2].Off
			break
		}
	}
	if popOff < 0 {
		t.Fatal("no guard found")
	}
	bad := tamper(t, text,
		func(in disasm.Inst) bool { return in.Op == isa.OpJmp },
		func(b []byte, in disasm.Inst) {
			rel := popOff - in.End()
			binary.LittleEndian.PutUint32(b[1:], uint32(int32(rel)))
		})
	if _, err := verifier.Verify(bad, opts); !errors.Is(err, verifier.ErrViolation) {
		t.Fatalf("jump into annotation accepted: %v", err)
	}
}

func TestRejectsMissingAEXChecks(t *testing.T) {
	// A P6 claim with no checks at all.
	a := asm.NewAssembler()
	body := []asm.Item{
		asm.InstItem(isa.Inst{Op: isa.OpMovMI, Mem: isa.Abs(policy.MagicSSAMarkerDisp), Imm: policy.SSAMarkerMagic}),
		asm.InstItem(isa.Inst{Op: isa.OpMovMI, Mem: isa.Abs(policy.MagicAEXCountDisp), Imm: 0}),
		asm.InstItem(isa.Inst{Op: isa.OpHlt}),
	}
	if err := a.AddFunc("_start", body); err != nil {
		t.Fatal(err)
	}
	a.SetEntry("_start")
	o, err := a.Assemble(uint16(policy.SetP1P6))
	if err != nil {
		t.Fatal(err)
	}
	text, opts := loadObject(t, o, policy.SetP1P6)
	if _, err := verifier.Verify(text, opts); !errors.Is(err, verifier.ErrViolation) {
		t.Fatalf("missing AEX checks accepted: %v", err)
	}
}

func TestRejectsCounterResetOutsideEntry(t *testing.T) {
	// Re-arming the AEX counter mid-program would defeat the P6 budget.
	a := asm.NewAssembler()
	start := []asm.Item{
		asm.InstItem(isa.Inst{Op: isa.OpMovMI, Mem: isa.Abs(policy.MagicSSAMarkerDisp), Imm: policy.SSAMarkerMagic}),
		asm.InstItem(isa.Inst{Op: isa.OpMovMI, Mem: isa.Abs(policy.MagicAEXCountDisp), Imm: 0}),
		asm.InstItem(isa.Inst{Op: isa.OpMovMI, Mem: isa.Abs(policy.MagicAEXCountDisp), Imm: 0}), // illegal reset
		asm.InstItem(isa.Inst{Op: isa.OpHlt}),
	}
	if err := a.AddFunc("_start", start); err != nil {
		t.Fatal(err)
	}
	a.SetEntry("_start")
	o, err := a.Assemble(uint16(policy.SetP1P6))
	if err != nil {
		t.Fatal(err)
	}
	mtext, mopts := loadObject(t, o, policy.SetP1P6)
	if _, err := verifier.Verify(mtext, mopts); !errors.Is(err, verifier.ErrViolation) {
		t.Fatalf("counter reset outside entry accepted: %v", err)
	}
}

func TestRejectsUndecodableEntry(t *testing.T) {
	if _, err := verifier.Verify([]byte{0xFF, 0xFF}, verifier.Options{}); !errors.Is(err, verifier.ErrViolation) {
		t.Fatalf("undecodable text accepted: %v", err)
	}
}

func TestAnnotationRangesCoverGuards(t *testing.T) {
	text, opts := compileText(t, guardedSrc, policy.SetP1P6)
	res, err := verifier.Verify(text, opts)
	if err != nil {
		t.Fatal(err)
	}
	var annotBytes int64
	for _, r := range res.AnnotRanges {
		annotBytes += r.Hi - r.Lo
	}
	if annotBytes == 0 || annotBytes >= int64(len(text)) {
		t.Errorf("annotation bytes = %d of %d, implausible", annotBytes, len(text))
	}
}

// TestOptionsArePlainData: the verifier's inputs are data. A func-typed
// option would let untrusted code run inside verification; the reports
// come back in the Result instead.
func TestOptionsArePlainData(t *testing.T) {
	typ := reflect.TypeOf(verifier.Options{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.Type.Kind() == reflect.Func {
			t.Errorf("verifier.Options.%s is a func (%v)", f.Name, f.Type)
		}
	}
}

// TestRejectionResult pins what Verify returns with a rejection: no Result
// for a template or a decode rejection, and for a P7 or P8 rejection the
// Result built so far, whose report holds every finding (the Violation
// names the first) and which has no Audit.
func TestRejectionResult(t *testing.T) {
	for name, tc := range map[string]struct {
		src    string
		pols   policy.Set
		mangle func([]int64) []int64
	}{
		"template": {src: rspGuardOneSided, pols: policy.SetP1P2},
		"decode":   {src: targetListSrc, pols: policy.SetP1P5, mangle: targetMidInstruction},
	} {
		text, opts := assemble(t, tc.src, tc.pols)
		if tc.mangle != nil {
			opts.BranchTargetOffsets = tc.mangle(opts.BranchTargetOffsets)
		}
		if res, err := verifier.Verify(text, opts); err == nil || res != nil {
			t.Errorf("%s rejection: res=%v err=%v, want only an error", name, res, err)
		}
	}

	res, err := verifyAsm(t, `
.entry _start
.bss key 8
.secret key
.func _start
  mov rcx, =key
  mov rdi, [rcx]
  ocall 3
  ocall 3
  hlt
`, p7Only)
	vio := requireViolation(t, err, policy.P7, "taint")
	if res == nil || res.Taint == nil || res.Order != nil || res.Audit != nil {
		t.Fatalf("taint rejection: res=%+v, want the taint report alone and no audit", res)
	}
	if f := res.Taint.Findings; len(f) != 2 || f[0].Off != vio.Offset {
		t.Errorf("taint findings %+v, want both prints, the first at %#x", f, vio.Offset)
	}

	res, err = verifyAsm(t, orderNearMisses["indirect branch skips the provisioning recv"].src, p8Only)
	vio = requireViolation(t, err, policy.P8, "order")
	if res == nil || res.Order == nil || res.Taint != nil || res.Audit != nil {
		t.Fatalf("order rejection: res=%+v, want the order report alone and no audit", res)
	}
	if f := res.Order.Findings; len(f) != 2 || f[0].Off != vio.Offset {
		t.Errorf("order findings %+v, want two, the first at %#x", f, vio.Offset)
	}
}
