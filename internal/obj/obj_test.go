package obj_test

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"deflection/internal/asm"
	"deflection/internal/isa"
	"deflection/internal/obj"
)

func sampleObject(t *testing.T) *obj.Object {
	t.Helper()
	a := asm.NewAssembler()
	if err := a.AddData("greeting", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := a.AddBSS("scratch", 128); err != nil {
		t.Fatal(err)
	}
	body := []asm.Item{
		asm.InstItem(isa.Inst{Op: isa.OpMovRI, Dst: isa.RAX, Imm: 7}),
		asm.LabelItem("main.loop"),
		asm.InstItem(isa.Inst{Op: isa.OpSubRI, Dst: isa.RAX, Imm: 1}),
		asm.InstItem(isa.Inst{Op: isa.OpCmpRI, Dst: isa.RAX, Imm: 0}),
		asm.BranchItem(isa.Inst{Op: isa.OpJcc, Cond: isa.CondG}, "main.loop"),
		{Inst: isa.Inst{Op: isa.OpMovRI, Dst: isa.RBX}, SymRef: "greeting"},
		asm.BranchItem(isa.Inst{Op: isa.OpCall}, "helper"),
		asm.InstItem(isa.Inst{Op: isa.OpHlt}),
	}
	if err := a.AddFunc("main", body); err != nil {
		t.Fatal(err)
	}
	helper := []asm.Item{
		asm.InstItem(isa.Inst{Op: isa.OpBrMark, Imm: isa.BrMarkMagic56}),
		asm.InstItem(isa.Inst{Op: isa.OpRet}),
	}
	if err := a.AddFunc("helper", helper); err != nil {
		t.Fatal(err)
	}
	a.AddBranchTarget("helper")
	a.SetEntry("main")
	o, err := a.Assemble(0x3f)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestAssembleSymbols(t *testing.T) {
	o := sampleObject(t)
	mainSym, ok := o.Symbol("main")
	if !ok || mainSym.Kind != obj.SymFunc || mainSym.Offset != 0 {
		t.Fatalf("main symbol = %+v, ok=%v", mainSym, ok)
	}
	if mainSym.Size == 0 {
		t.Error("main symbol should have a size")
	}
	helper, ok := o.Symbol("helper")
	if !ok || helper.Offset != mainSym.Size {
		t.Errorf("helper offset = %d, want %d", helper.Offset, mainSym.Size)
	}
	loop, ok := o.Symbol("main.loop")
	if !ok || loop.Kind != obj.SymLabel {
		t.Errorf("main.loop symbol = %+v, ok=%v", loop, ok)
	}
	if _, ok := o.Symbol("greeting"); !ok {
		t.Error("data symbol missing")
	}
	if _, ok := o.Symbol("scratch"); !ok {
		t.Error("bss symbol missing")
	}
	if o.BSSSize < 128 {
		t.Errorf("bss size = %d, want >= 128", o.BSSSize)
	}
}

func TestAssembleBranchResolution(t *testing.T) {
	o := sampleObject(t)
	// Decode text linearly and find the jcc; its target must resolve back
	// to the loop label offset.
	loop, _ := o.Symbol("main.loop")
	var off int64
	for off < int64(len(o.Text)) {
		in, n, err := isa.Decode(o.Text[off:])
		if err != nil {
			t.Fatalf("decode at %#x: %v", off, err)
		}
		if in.Op == isa.OpJcc {
			target := off + int64(n) + in.Imm
			if target != loop.Offset {
				t.Errorf("jcc resolves to %#x, want %#x", target, loop.Offset)
			}
		}
		if in.Op == isa.OpCall {
			helper, _ := o.Symbol("helper")
			target := off + int64(n) + in.Imm
			if target != helper.Offset {
				t.Errorf("call resolves to %#x, want %#x", target, helper.Offset)
			}
		}
		off += int64(n)
	}
}

func TestAssembleRelocs(t *testing.T) {
	o := sampleObject(t)
	var found bool
	for _, r := range o.Relocs {
		if r.Symbol == "greeting" {
			found = true
			if r.Section != obj.SecText || r.Kind != obj.RelAbs64 {
				t.Errorf("greeting reloc = %+v", r)
			}
		}
	}
	if !found {
		t.Error("missing relocation for greeting")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	o := sampleObject(t)
	b := o.Marshal()
	got, err := obj.Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Entry != o.Entry || got.PolicyMask != o.PolicyMask || got.BSSSize != o.BSSSize {
		t.Error("header fields did not round trip")
	}
	if !bytes.Equal(got.Text, o.Text) || !bytes.Equal(got.Data, o.Data) {
		t.Error("sections did not round trip")
	}
	if len(got.Symbols) != len(o.Symbols) || len(got.Relocs) != len(o.Relocs) || len(got.BranchTargets) != len(o.BranchTargets) {
		t.Error("tables did not round trip")
	}
	for i := range o.Symbols {
		if got.Symbols[i] != o.Symbols[i] {
			t.Errorf("symbol %d mismatch: %+v vs %+v", i, got.Symbols[i], o.Symbols[i])
		}
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("short"),
		[]byte("XXXXXXXXwhatever"),
	}
	for _, c := range cases {
		if _, err := obj.Unmarshal(c); err == nil {
			t.Errorf("Unmarshal(%q) should fail", c)
		}
	}
	// Truncations of a valid object must all fail cleanly.
	b := sampleObject(t).Marshal()
	for cut := len(obj.Magic); cut < len(b); cut += 7 {
		if _, err := obj.Unmarshal(b[:cut]); err == nil {
			t.Errorf("truncated object (%d bytes) should fail", cut)
		}
	}
	// Trailing bytes must be rejected.
	if _, err := obj.Unmarshal(append(append([]byte{}, b...), 0)); err == nil {
		t.Error("trailing bytes should be rejected")
	}
}

// TestValidateRejectsBadTables: Unmarshal rejects every object whose tables
// disagree with its sections. The loader relies on this: it no longer
// re-checks symbol sections, relocation symbols and sites, or branch-target
// symbols.
func TestValidateRejectsBadTables(t *testing.T) {
	base := sampleObject(t).Marshal()
	for name, mutate := range map[string]func(o *obj.Object){
		"symbol out of range":       func(o *obj.Object) { o.Symbols[0].Offset = 1 << 40 },
		"symbol in invalid section": func(o *obj.Object) { o.Symbols[0].Section = obj.SecNone },
		"unknown relocation kind":   func(o *obj.Object) { o.Relocs[0].Kind = 9 },
		"relocation in .bss":        func(o *obj.Object) { o.Relocs[0].Section = obj.SecBSS },
		"relocation in no section":  func(o *obj.Object) { o.Relocs[0].Section = obj.SecNone },
		"relocation site past end":  func(o *obj.Object) { o.Relocs[0].Offset = int64(len(o.Text)) },
		"negative relocation site":  func(o *obj.Object) { o.Relocs[0].Offset = -1 },
		"undefined relocation":      func(o *obj.Object) { o.Relocs[0].Symbol = "nonexistent" },
		"addend out of range":       func(o *obj.Object) { o.Relocs[0].Addend = 1 << 31 },
		"undefined branch target":   func(o *obj.Object) { o.BranchTargets[0].Symbol = "nope" },
		"undefined entry":           func(o *obj.Object) { o.Entry = "nope" },
	} {
		o, err := obj.Unmarshal(base)
		if err != nil {
			t.Fatal(err)
		}
		mutate(o)
		if _, err := obj.Unmarshal(o.Marshal()); !errors.Is(err, obj.ErrBadObject) {
			t.Errorf("%s: Unmarshal = %v, want ErrBadObject", name, err)
		}
	}
}

func TestDuplicateLabelFails(t *testing.T) {
	a := asm.NewAssembler()
	body := []asm.Item{
		asm.LabelItem("f.x"),
		asm.LabelItem("f.x"),
		asm.InstItem(isa.Inst{Op: isa.OpRet}),
	}
	if err := a.AddFunc("f", body); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Assemble(0); err == nil {
		t.Error("duplicate label should fail assembly")
	}
}

func TestUndefinedBranchTargetFails(t *testing.T) {
	a := asm.NewAssembler()
	body := []asm.Item{asm.BranchItem(isa.Inst{Op: isa.OpJmp}, "missing")}
	if err := a.AddFunc("f", body); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Assemble(0); err == nil {
		t.Error("undefined branch target should fail assembly")
	}
}

func TestRewriteFuncs(t *testing.T) {
	a := asm.NewAssembler()
	if err := a.AddFunc("f", []asm.Item{asm.InstItem(isa.Inst{Op: isa.OpRet})}); err != nil {
		t.Fatal(err)
	}
	a.RewriteFuncs(func(name string, body []asm.Item) []asm.Item {
		if name != "f" {
			t.Errorf("unexpected function %q", name)
		}
		return append([]asm.Item{asm.InstItem(isa.Inst{Op: isa.OpNop})}, body...)
	})
	got := a.FuncBody("f")
	if len(got) != 2 || got[0].Inst.Op != isa.OpNop || got[1].Inst.Op != isa.OpRet {
		t.Errorf("rewritten body = %+v", got)
	}
}

func TestAddPtrTable(t *testing.T) {
	a := asm.NewAssembler()
	body := []asm.Item{
		asm.LabelItem("f.case0"),
		asm.InstItem(isa.Inst{Op: isa.OpRet}),
		asm.LabelItem("f.case1"),
		asm.InstItem(isa.Inst{Op: isa.OpRet}),
	}
	if err := a.AddFunc("f", body); err != nil {
		t.Fatal(err)
	}
	if err := a.AddPtrTable("f.jt", []string{"f.case0", "f.case1"}); err != nil {
		t.Fatal(err)
	}
	o, err := a.Assemble(0)
	if err != nil {
		t.Fatal(err)
	}
	jt, ok := o.Symbol("f.jt")
	if !ok || jt.Size != 16 {
		t.Fatalf("jump table symbol = %+v ok=%v", jt, ok)
	}
	var dataRelocs int
	for _, r := range o.Relocs {
		if r.Section == obj.SecData {
			dataRelocs++
		}
	}
	if dataRelocs != 2 {
		t.Errorf("data relocs = %d, want 2", dataRelocs)
	}
	if len(o.BranchTargets) != 2 {
		t.Errorf("branch targets = %d, want 2", len(o.BranchTargets))
	}
}

func TestMarshalRoundTripQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	names := []string{"a", "bb", "ccc", "_d", "e.f", "long.symbol.name"}
	f := func() bool {
		o := &obj.Object{
			PolicyMask: uint16(rng.Intn(256)),
			Text:       make([]byte, rng.Intn(64)),
			Data:       make([]byte, rng.Intn(64)),
			BSSSize:    int64(rng.Intn(512)),
		}
		rng.Read(o.Text)
		rng.Read(o.Data)
		used := map[string]bool{}
		for i := 0; i < rng.Intn(5); i++ {
			name := names[rng.Intn(len(names))]
			if used[name] {
				continue
			}
			used[name] = true
			sec := obj.Section(1 + rng.Intn(3))
			var n int64
			switch sec {
			case obj.SecText:
				n = int64(len(o.Text))
			case obj.SecData:
				n = int64(len(o.Data))
			default:
				n = o.BSSSize
			}
			if n == 0 {
				continue
			}
			off := int64(rng.Intn(int(n)))
			o.Symbols = append(o.Symbols, obj.Symbol{
				Name: name, Section: sec, Offset: off, Size: 0,
				Kind: obj.SymKind(1 + rng.Intn(3)),
			})
		}
		got, err := obj.Unmarshal(o.Marshal())
		if err != nil {
			t.Logf("unmarshal: %v", err)
			return false
		}
		if got.PolicyMask != o.PolicyMask || got.BSSSize != o.BSSSize ||
			!bytes.Equal(got.Text, o.Text) || !bytes.Equal(got.Data, o.Data) ||
			len(got.Symbols) != len(o.Symbols) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalFuzzGarbage(t *testing.T) {
	// Random bytes with a valid magic prefix must never panic.
	rng := rand.New(rand.NewSource(13))
	buf := make([]byte, 256)
	for i := 0; i < 5000; i++ {
		n := rng.Intn(len(buf))
		rng.Read(buf[:n])
		copy(buf, obj.Magic)
		_, _ = obj.Unmarshal(buf[:n]) // error or success; no panic
	}
}

// TestSecretTableRoundTrip: the P7 secret table survives the wire format,
// an object without secrets marshals byte-identically to the pre-P7 layout
// (the table is appended only when non-empty), and ill-formed tables are
// rejected at Unmarshal time.
func TestSecretTableRoundTrip(t *testing.T) {
	base := sampleObject(t)
	b0 := base.Marshal()

	o, err := obj.Unmarshal(b0)
	if err != nil {
		t.Fatal(err)
	}
	o.Secrets = []string{"greeting", "scratch"}
	got, err := obj.Unmarshal(o.Marshal())
	if err != nil {
		t.Fatalf("object with secret table rejected: %v", err)
	}
	if len(got.Secrets) != 2 || got.Secrets[0] != "greeting" || got.Secrets[1] != "scratch" {
		t.Fatalf("secret table did not round trip: %v", got.Secrets)
	}

	got.Secrets = nil
	if !bytes.Equal(got.Marshal(), b0) {
		t.Error("object without secrets must marshal byte-identically to the legacy layout")
	}

	for name, secrets := range map[string][]string{
		"duplicate entry":  {"greeting", "greeting"},
		"undefined symbol": {"ghost"},
		"function symbol":  {"main"},
	} {
		o.Secrets = secrets
		if _, err := obj.Unmarshal(o.Marshal()); err == nil {
			t.Errorf("%s in secret table should be rejected", name)
		}
	}
}

// TestAssemblerSecretValidation: AddSecret of an undefined object fails at
// Assemble time, and duplicate tags collapse to one entry.
func TestAssemblerSecretValidation(t *testing.T) {
	a := asm.NewAssembler()
	if err := a.AddBSS("key", 32); err != nil {
		t.Fatal(err)
	}
	if err := a.AddFunc("main", []asm.Item{asm.InstItem(isa.Inst{Op: isa.OpHlt})}); err != nil {
		t.Fatal(err)
	}
	a.SetEntry("main")
	a.AddSecret("key")
	a.AddSecret("key")
	o, err := a.Assemble(0xff)
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Secrets) != 1 || o.Secrets[0] != "key" {
		t.Fatalf("secret table = %v, want [key]", o.Secrets)
	}

	b := asm.NewAssembler()
	if err := b.AddFunc("main", []asm.Item{asm.InstItem(isa.Inst{Op: isa.OpHlt})}); err != nil {
		t.Fatal(err)
	}
	b.SetEntry("main")
	b.AddSecret("missing")
	if _, err := b.Assemble(0xff); err == nil {
		t.Error("secret tag on an undefined object should fail Assemble")
	}
}
