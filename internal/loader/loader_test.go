package loader_test

import (
	"encoding/binary"
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

var testLayout = enclave.DefaultConfig().Layout()

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
	o := buildObject(t)
	ld, err := loader.Load(testLayout, o)
	if err != nil {
		t.Fatal(err)
	}
	if ld.TextBase != testLayout.CodeBase || ld.Layout != testLayout {
		t.Errorf("text base %#x", ld.TextBase)
	}
	if ld.DataBase != testLayout.HeapBase {
		t.Errorf("data base %#x", ld.DataBase)
	}
	if ld.HeapFree <= ld.DataBase {
		t.Error("heap free pointer not advanced")
	}
	if len(ld.Text) != len(o.Text) {
		t.Errorf("text %d bytes, object has %d", len(ld.Text), len(o.Text))
	}
	if off := ld.Symbols["greet"] - ld.DataBase; off >= uint64(len(ld.Data)) || ld.Data[off] != 'h' {
		t.Errorf("data not copied to greet's offset %d: %q", off, ld.Data)
	}
	if ld.Entry != ld.Symbols["_start"] {
		t.Error("entry mismatch")
	}
}

func TestLoadAppliesRelocations(t *testing.T) {
	o := buildObject(t)
	ld, err := loader.Load(testLayout, o)
	if err != nil {
		t.Fatal(err)
	}
	in, _, err := isa.Decode(ld.Text)
	if err != nil {
		t.Fatal(err)
	}
	if in.Op != isa.OpMovRI || uint64(in.Imm) != ld.Symbols["greet"] {
		t.Errorf("relocated imm = %#x, want %#x", in.Imm, ld.Symbols["greet"])
	}
	if in, _, _ := isa.Decode(o.Text); in.Imm == int64(ld.Symbols["greet"]) {
		t.Error("relocation applied to the object's own text, not a private copy")
	}
}

func TestLoadTranslatesBranchTargets(t *testing.T) {
	o := buildObject(t)
	ld, err := loader.Load(testLayout, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(ld.BranchTargets) != 1 || ld.BranchTargets[0] != ld.Symbols["fn"] {
		t.Fatalf("branch targets = %v", ld.BranchTargets)
	}
	// The table holds the translated targets as little-endian words.
	if len(ld.Table) != 8 || binary.LittleEndian.Uint64(ld.Table) != ld.Symbols["fn"] {
		t.Errorf("table = %x, want the word %#x", ld.Table, ld.Symbols["fn"])
	}
}

func TestLoadRejectsOversizedText(t *testing.T) {
	cfg := enclave.DefaultConfig()
	cfg.CodeCap = enclave.PageSize
	o := buildObject(t)
	o.Text = make([]byte, enclave.PageSize+1)
	if _, err := loader.Load(cfg.Layout(), o); err == nil {
		t.Fatal("oversized text must fail")
	}
}

func TestLoadRejectsOversizedBSS(t *testing.T) {
	o := buildObject(t)
	o.BSSSize = 1 << 40
	if _, err := loader.Load(testLayout, o); err == nil {
		t.Fatal("oversized bss must fail")
	}
}

func TestLoadRejectsBranchTargetOutsideText(t *testing.T) {
	o := buildObject(t)
	o.BranchTargets = append(o.BranchTargets, obj.BranchTarget{Symbol: "greet"})
	if _, err := loader.Load(testLayout, o); err == nil {
		t.Fatal("data-section branch target must fail")
	}
}

func TestLoadRejectsOversizedBranchTable(t *testing.T) {
	cfg := enclave.DefaultConfig()
	cfg.BrTableCap = enclave.PageSize
	o := buildObject(t)
	for len(o.BranchTargets)*8 <= int(enclave.PageSize) {
		o.BranchTargets = append(o.BranchTargets, obj.BranchTarget{Symbol: "fn"})
	}
	if _, err := loader.Load(cfg.Layout(), o); !errors.Is(err, loader.ErrTooLarge) {
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
	if _, err := loader.Load(testLayout, o); err == nil {
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
	ld, err := loader.Load(testLayout, o)
	if err != nil {
		t.Fatal(err)
	}
	vr, err := verifier.Verify(ld.Text, runtime.VerifyOptions(ld, policy.SetP1P6))
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
	insts, err := disasm.Linear(ld.Text)
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
		if in.Op == isa.OpMovRI && uint64(in.Imm) == testLayout.StoreLo() {
			found = true
		}
	}
	if !found {
		t.Error("rewritten store lower bound not found")
	}
}
