package loader_test

import (
	"errors"
	"testing"

	"deflection/internal/asm"
	"deflection/internal/compiler"
	"deflection/internal/disasm"
	"deflection/internal/enclave"
	"deflection/internal/isa"
	"deflection/internal/loader"
	"deflection/internal/obj"
	"deflection/internal/policy"
	"deflection/internal/runtime"
	"deflection/internal/verifier"
)

func testEnclave(t *testing.T) *enclave.Enclave {
	t.Helper()
	e, err := enclave.New(enclave.DefaultConfig(), []byte("loader-test"))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func buildObject(t *testing.T) *obj.Object {
	t.Helper()
	a := asm.NewAssembler()
	if err := a.AddData("greet", []byte("hi\x00")); err != nil {
		t.Fatal(err)
	}
	if err := a.AddBSS("scratch", 64); err != nil {
		t.Fatal(err)
	}
	body := []asm.Item{
		{Inst: isa.Inst{Op: isa.OpMovRI, Dst: isa.RBX}, SymRef: "greet"},
		asm.InstItem(isa.Inst{Op: isa.OpMovBRM, Dst: isa.RAX, Mem: isa.Mem(isa.RBX, 0)}),
		asm.BranchItem(isa.Inst{Op: isa.OpCall}, "fn"),
		asm.InstItem(isa.Inst{Op: isa.OpHlt}),
	}
	if err := a.AddFunc("_start", body); err != nil {
		t.Fatal(err)
	}
	if err := a.AddFunc("fn", []asm.Item{
		asm.InstItem(isa.Inst{Op: isa.OpBrMark, Imm: isa.BrMarkMagic56}),
		asm.InstItem(isa.Inst{Op: isa.OpRet}),
	}); err != nil {
		t.Fatal(err)
	}
	a.AddBranchTarget("fn")
	a.SetEntry("_start")
	o, err := a.Assemble(0)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestLoadPlacesSections(t *testing.T) {
	e := testEnclave(t)
	o := buildObject(t)
	ld, err := loader.Load(e, o)
	if err != nil {
		t.Fatal(err)
	}
	if ld.TextBase != e.Layout.CodeBase {
		t.Errorf("text base %#x", ld.TextBase)
	}
	if ld.DataBase != e.Layout.HeapBase {
		t.Errorf("data base %#x", ld.DataBase)
	}
	if ld.HeapFree <= ld.DataBase {
		t.Error("heap free pointer not advanced")
	}
	b, f := e.Mem.Read8(ld.Symbols["greet"])
	if f != nil || b != 'h' {
		t.Errorf("data not copied: %c %v", b, f)
	}
	if ld.Entry != ld.Symbols["_start"] {
		t.Error("entry mismatch")
	}
}

func TestLoadAppliesRelocations(t *testing.T) {
	e := testEnclave(t)
	o := buildObject(t)
	ld, err := loader.Load(e, o)
	if err != nil {
		t.Fatal(err)
	}
	text, err := ld.TextBytes()
	if err != nil {
		t.Fatal(err)
	}
	in, _, err := isa.Decode(text)
	if err != nil {
		t.Fatal(err)
	}
	if in.Op != isa.OpMovRI || uint64(in.Imm) != ld.Symbols["greet"] {
		t.Errorf("relocated imm = %#x, want %#x", in.Imm, ld.Symbols["greet"])
	}
}

func TestLoadTranslatesBranchTargets(t *testing.T) {
	e := testEnclave(t)
	o := buildObject(t)
	ld, err := loader.Load(e, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(ld.BranchTargets) != 1 || ld.BranchTargets[0] != ld.Symbols["fn"] {
		t.Fatalf("branch targets = %v", ld.BranchTargets)
	}
	// The table is published in the read-only branch-table region.
	v, f := e.Mem.Read64(e.Layout.BrTableBase)
	if f != nil || v != ld.Symbols["fn"] {
		t.Errorf("table entry = %#x %v", v, f)
	}
	if p := e.Mem.PermAt(e.Layout.BrTableBase); p != enclave.PermR {
		t.Errorf("branch table perm = %v, want r--", p)
	}
}

func TestLoadRejectsOversizedText(t *testing.T) {
	cfg := enclave.DefaultConfig()
	cfg.CodeCap = enclave.PageSize
	e, err := enclave.New(cfg, []byte("small"))
	if err != nil {
		t.Fatal(err)
	}
	o := buildObject(t)
	o.Text = make([]byte, enclave.PageSize+1)
	if _, err := loader.Load(e, o); err == nil {
		t.Fatal("oversized text must fail")
	}
}

func TestLoadRejectsOversizedBSS(t *testing.T) {
	e := testEnclave(t)
	o := buildObject(t)
	o.BSSSize = 1 << 40
	if _, err := loader.Load(e, o); err == nil {
		t.Fatal("oversized bss must fail")
	}
}

func TestLoadRejectsBranchTargetOutsideText(t *testing.T) {
	e := testEnclave(t)
	o := buildObject(t)
	o.BranchTargets = append(o.BranchTargets, obj.BranchTarget{Symbol: "greet"})
	if _, err := loader.Load(e, o); err == nil {
		t.Fatal("data-section branch target must fail")
	}
}

func TestLoadRejectsOversizedBranchTable(t *testing.T) {
	cfg := enclave.DefaultConfig()
	cfg.BrTableCap = enclave.PageSize
	e, err := enclave.New(cfg, []byte("small"))
	if err != nil {
		t.Fatal(err)
	}
	o := buildObject(t)
	for len(o.BranchTargets)*8 <= int(enclave.PageSize) {
		o.BranchTargets = append(o.BranchTargets, obj.BranchTarget{Symbol: "fn"})
	}
	if _, err := loader.Load(e, o); !errors.Is(err, loader.ErrTooLarge) {
		t.Fatalf("Load = %v, want ErrTooLarge", err)
	}
}

// TestLoadRejectsMissingEntry: obj.Validate admits an object without an
// entry symbol; the loader's entry lookup is what rejects it.
func TestLoadRejectsMissingEntry(t *testing.T) {
	o := buildObject(t)
	o.Entry = ""
	if err := o.Validate(); err != nil {
		t.Fatalf("Validate = %v, want nil", err)
	}
	if _, err := loader.Load(testEnclave(t), o); err == nil {
		t.Fatal("object without an entry symbol loaded")
	}
}

func TestRewriteImmediates(t *testing.T) {
	src := `
int g;
int main() {
	g = 7;
	return g;
}`
	o, err := compiler.Compile(src, compiler.Options{Policies: policy.SetP1P6})
	if err != nil {
		t.Fatal(err)
	}
	e := testEnclave(t)
	ld, err := loader.Load(e, o)
	if err != nil {
		t.Fatal(err)
	}
	text, err := ld.TextBytes()
	if err != nil {
		t.Fatal(err)
	}
	vr, err := verifier.Verify(text, runtime.VerifyOptions(ld, policy.SetP1P6))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := loader.RewriteImmediates(ld, vr.Dis)
	if err != nil {
		t.Fatal(err)
	}
	if stats.StoreBounds == 0 || stats.StackBounds == 0 || stats.SSASites == 0 {
		t.Fatalf("rewrite stats incomplete: %+v", stats)
	}

	// No magic placeholder may survive in the rewritten text.
	after, err := ld.TextBytes()
	if err != nil {
		t.Fatal(err)
	}
	insts, err := disasm.Linear(after)
	if err != nil {
		// Linear decode can fail on data-like padding; fall back to the
		// verified instruction set.
		insts = vr.Dis.Insts
	}
	for _, in := range insts {
		switch in.Imm {
		case policy.MagicStoreLo, policy.MagicStoreHi, policy.MagicStackLo, policy.MagicStackHi:
			t.Fatalf("placeholder immediate survives at %#x", in.Off)
		}
		if !in.Mem.HasBase && !in.Mem.HasIndex &&
			(in.Mem.Disp == policy.MagicSSAMarkerDisp || in.Mem.Disp == policy.MagicAEXCountDisp) {
			t.Fatalf("placeholder displacement survives at %#x", in.Off)
		}
	}

	// The rewritten bounds must equal the layout's store window.
	found := false
	for _, in := range insts {
		if in.Op == isa.OpMovRI && uint64(in.Imm) == e.Layout.StoreLo() {
			found = true
		}
	}
	if !found {
		t.Error("rewritten store lower bound not found")
	}
}
