package runtime_test

import (
	"bytes"
	"errors"
	"reflect"
	"slices"
	"testing"

	"deflection/internal/compiler"
	"deflection/internal/cpu"
	"deflection/internal/dclib"
	"deflection/internal/enclave"
	"deflection/internal/obj"
	"deflection/internal/policy"
	"deflection/internal/runtime"
	"deflection/internal/verifier"
)

// imageSrc exercises every region an Image carries: initialised data
// (counter), an address-taken function (branch table + shadow-stack use),
// and a computed exit value.
const imageSrc = `
int counter = 5;
int bump() { counter = counter + 1; return counter; }
int main() { fnptr f = bump; return f(); }
`

// buildImage verifies imageSrc cold in a fresh bootstrap and snapshots it.
func buildImage(t *testing.T, pols policy.Set) (*runtime.Image, *runtime.LoadReport) {
	t.Helper()
	b := newBootstrap(t, pols)
	rep := compileAndLoad(t, b, imageSrc, pols)
	img, err := b.SnapshotImage(rep)
	if err != nil {
		t.Fatal(err)
	}
	return img, rep
}

// TestInstallImageEquivalence: a session installed from a snapshot must be
// observationally identical to the cold pipeline — same verdict evidence,
// same execution.
func TestInstallImageEquivalence(t *testing.T) {
	pols := policy.SetP1P6

	cold := newBootstrap(t, pols)
	coldRep := compileAndLoad(t, cold, imageSrc, pols)
	img, err := cold.SnapshotImage(coldRep)
	if err != nil {
		t.Fatal(err)
	}
	coldRes, err := cold.Run(runtime.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}

	warm := newBootstrap(t, pols)
	warmRep, err := warm.InstallImage(img)
	if err != nil {
		t.Fatal(err)
	}
	warmRes, err := warm.Run(runtime.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}

	if warmRes.CPU.Status != cpu.StatusHalt || warmRes.CPU.ExitValue != coldRes.CPU.ExitValue {
		t.Fatalf("warm run diverged: %+v vs cold %+v", warmRes.CPU, coldRes.CPU)
	}
	if warmRes.CPU.Insts != coldRes.CPU.Insts {
		t.Errorf("instruction counts differ: warm %d, cold %d", warmRes.CPU.Insts, coldRes.CPU.Insts)
	}
	if warmRep.BinaryHash != coldRep.BinaryHash {
		t.Error("binary hash not replayed into the warm report")
	}
	if warmRep.Stats != coldRep.Stats {
		t.Errorf("verdict stats differ: %+v vs %+v", warmRep.Stats, coldRep.Stats)
	}
	if len(warmRep.Audit) != len(coldRep.Audit) {
		t.Errorf("audit trail length %d, want %d", len(warmRep.Audit), len(coldRep.Audit))
	}
	if warmRep.Trace == nil || warmRep.Trace.Name != "install_image" {
		t.Errorf("warm load trace = %+v, want install_image stage trace", warmRep.Trace)
	}
	if len(img.BranchTargets) == 0 || len(img.BranchTable) == 0 {
		t.Fatalf("test image has no branch table (targets=%d, table=%d bytes)",
			len(img.BranchTargets), len(img.BranchTable))
	}
	// Both loads publish the table in the branch-table region and close its
	// write window again: the loaded binary must not be able to rewrite it.
	for name, b := range map[string]*runtime.Bootstrap{"ReceiveBinary": cold, "InstallImage": warm} {
		mem, l := b.Enclave().Mem, b.Enclave().Layout
		if v, f := mem.Read64(l.BrTableBase); f != nil || v != img.BranchTargets[0] {
			t.Errorf("%s: table entry = %#x %v, want %#x", name, v, f, img.BranchTargets[0])
		}
		if p := mem.PermAt(l.BrTableBase); p != enclave.PermR {
			t.Errorf("%s: branch table perm = %v, want r--", name, p)
		}
	}
}

func TestInstallImageLayoutMismatch(t *testing.T) {
	pols := policy.SetP1P2
	img, _ := buildImage(t, pols)

	cfg := enclave.DefaultConfig()
	cfg.HeapCap *= 2
	m := runtime.DefaultManifest()
	m.Policies = pols
	other, err := runtime.New(cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.InstallImage(img); !errors.Is(err, runtime.ErrLayoutMismatch) {
		t.Fatalf("install into mismatched layout: err = %v, want ErrLayoutMismatch", err)
	}
}

func TestSnapshotAndInstallRequireLoadedState(t *testing.T) {
	b := newBootstrap(t, policy.SetP1)
	if _, err := b.SnapshotImage(nil); !errors.Is(err, runtime.ErrNoLoadedImage) {
		t.Errorf("snapshot before load: err = %v, want ErrNoLoadedImage", err)
	}
	if n := b.AnnotRangeSet().Len(); n != 0 {
		t.Errorf("annotation ranges before load: %d, want none", n)
	}
	if _, err := b.InstallImage(nil); !errors.Is(err, runtime.ErrNoLoadedImage) {
		t.Errorf("install of nil image: err = %v, want ErrNoLoadedImage", err)
	}
}

// TestImageIsolationBetweenSessions is the isolation regression test: two
// sessions installed from the same cached image must not share writable
// state. One session's memory is deliberately corrupted — data section,
// shadow-stack region, branch-target table — and the sibling must observe
// none of it.
func TestImageIsolationBetweenSessions(t *testing.T) {
	pols := policy.SetP1P6
	img, _ := buildImage(t, pols)
	l := img.Layout

	victim := newBootstrap(t, pols)
	if _, err := victim.InstallImage(img); err != nil {
		t.Fatal(err)
	}
	sibling := newBootstrap(t, pols)
	if _, err := sibling.InstallImage(img); err != nil {
		t.Fatal(err)
	}

	// Corrupt the victim's writable regions the way a hostile tenant with
	// an in-enclave write primitive would.
	vm := victim.Enclave().Mem
	garbage := bytes.Repeat([]byte{0xFF}, 8)
	if f := vm.Write(img.DataBase, garbage); f != nil {
		t.Fatalf("poking victim data: %v", f)
	}
	if f := vm.Write(l.ShadowBase, garbage); f != nil {
		t.Fatalf("poking victim shadow stack: %v", f)
	}
	if err := vm.SetPerm(l.BrTableBase, l.BrTableEnd, enclave.PermRW); err != nil {
		t.Fatal(err)
	}
	if f := vm.Write(l.BrTableBase, garbage); f != nil {
		t.Fatalf("poking victim branch table: %v", f)
	}
	if err := vm.SetPerm(l.BrTableBase, l.BrTableEnd, enclave.PermR); err != nil {
		t.Fatal(err)
	}

	// The sibling's regions must be byte-identical to the pristine image.
	sm := sibling.Enclave().Mem
	data, f := sm.Read(img.DataBase, len(img.Data))
	if f != nil {
		t.Fatal(f)
	}
	if !bytes.Equal(data, img.Data) {
		t.Error("sibling data section changed by victim's writes")
	}
	table, f := sm.Read(l.BrTableBase, len(img.BranchTable))
	if f != nil {
		t.Fatal(f)
	}
	if !bytes.Equal(table, img.BranchTable) {
		t.Error("sibling branch table changed by victim's writes")
	}
	shadow, f := sm.Read(l.ShadowBase, len(garbage))
	if f != nil {
		t.Fatal(f)
	}
	if !bytes.Equal(shadow, make([]byte, len(garbage))) {
		t.Error("sibling shadow stack changed by victim's writes")
	}

	// And the shared Image itself must still be pristine: a third session
	// installed after the corruption behaves exactly like the first.
	res, err := sibling.Run(runtime.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CPU.Status != cpu.StatusHalt || res.CPU.ExitValue != 6 {
		t.Fatalf("sibling run: %+v, want clean exit 6", res.CPU)
	}
	third := newBootstrap(t, pols)
	if _, err := third.InstallImage(img); err != nil {
		t.Fatal(err)
	}
	res3, err := third.Run(runtime.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res3.CPU.ExitValue != 6 {
		t.Fatalf("third session exit = %d, want 6 — counter state leaked through the image",
			res3.CPU.ExitValue)
	}
}

// assertPristine fails unless b's code, heap and branch-table regions are
// all zero and its memory's code generation is still gen.
func assertPristine(t *testing.T, b *runtime.Bootstrap, gen uint64) {
	t.Helper()
	e := b.Enclave()
	l := e.Layout
	for _, r := range []struct {
		name   string
		lo, hi uint64
	}{
		{"code", l.CodeBase, l.CodeEnd},
		{"heap", l.HeapBase, l.HeapEnd},
		{"branch table", l.BrTableBase, l.BrTableEnd},
	} {
		got, f := e.Mem.Read(r.lo, int(r.hi-r.lo))
		if f != nil {
			t.Fatal(f)
		}
		if i := slices.IndexFunc(got, func(c byte) bool { return c != 0 }); i >= 0 {
			t.Errorf("%s region written at %#x", r.name, r.lo+uint64(i))
		}
	}
	if g := e.Mem.CodeGen(); g != gen {
		t.Errorf("code generation moved %d -> %d", gen, g)
	}
}

// TestRejectedBinaryNeverReachesEnclave: a binary is written into enclave
// memory only after its verdict, so a rejection — by a template check, by
// the P8 order pass after every template passed, or by the policy-mask
// check before loading — leaves the code, heap and branch-table regions
// zero and the code generation unmoved, and nothing runnable behind.
func TestRejectedBinaryNeverReachesEnclave(t *testing.T) {
	// Each program has initialised data and an address-taken function, so
	// an install would write all three regions.
	const body = `
int counter = 5;
int bump() { counter = counter + 1; send_int(counter); return counter; }
int main() { fnptr f = bump; return f(); }
`
	compile := func(src string, pols policy.Set) *obj.Object {
		t.Helper()
		o, err := compiler.Compile(dclib.Program(src), compiler.Options{Policies: pols})
		if err != nil {
			t.Fatal(err)
		}
		if len(o.Data) == 0 || len(o.BranchTargets) == 0 {
			t.Fatalf("fixture has %d data bytes and %d branch targets", len(o.Data), len(o.BranchTargets))
		}
		return o
	}
	unguarded := compile(body, policy.SetNone)
	unguarded.PolicyMask = uint16(policy.SetP1) // claims P1 without its guards
	// The protocol admits no send, which bump performs.
	silent := compile(`
protocol {
    state run attested;
    state end attested;
    run: hlt -> end;
}
`+body, policy.SetP1P8)
	for _, tc := range []struct {
		name string
		pols policy.Set
		o    *obj.Object
		span string // the trace's last span
		want error
	}{
		{"template", policy.SetP1, unguarded, "policy/P1", verifier.ErrViolation},
		{"order pass", policy.SetP1P8, silent, "cfa/order", verifier.ErrViolation},
		{"policy mask", policy.SetP1P6, compile(body, policy.SetP1), "policy/P0", runtime.ErrPolicyMismatch},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := newBootstrap(t, tc.pols)
			gen := b.Enclave().Mem.CodeGen()
			if _, err := b.ReceiveBinary(tc.o.Marshal()); !errors.Is(err, tc.want) {
				t.Fatalf("ReceiveBinary = %v, want %v", err, tc.want)
			}
			spans := b.LastTrace().Spans()
			if last := spans[len(spans)-1].Name; last != tc.span {
				t.Errorf("trace ends with %s, want %s", last, tc.span)
			}
			assertPristine(t, b, gen)
			if _, err := b.Run(runtime.RunConfig{}); !errors.Is(err, runtime.ErrNotLoaded) {
				t.Errorf("Run after rejection = %v, want ErrNotLoaded", err)
			}
		})
	}
}

// TestBuildImageMatchesReceiveBinary: the enclave-free entry shares
// ReceiveBinary's chain, so for the same object, manifest and layout it
// yields the very image a bootstrap's snapshot does, P0's audit detail (a
// zero pad block read as 256) included. A rejection, the rewriter's
// included, returns the trace of the attempt, and a manifest New refuses
// is refused too.
func TestBuildImageMatchesReceiveBinary(t *testing.T) {
	pols := policy.SetP1P6
	b := newBootstrap(t, pols)
	rep := compileAndLoad(t, b, imageSrc, pols)
	want, err := b.SnapshotImage(rep)
	if err != nil {
		t.Fatal(err)
	}
	o, err := compiler.Compile(imageSrc, compiler.Options{Policies: pols})
	if err != nil {
		t.Fatal(err)
	}
	m := runtime.DefaultManifest()
	m.Policies = pols
	got, tr, err := runtime.BuildImage(o.Marshal(), m, enclave.DefaultConfig().Layout())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BuildImage image differs from the snapshot:\n got %+v\nwant %+v", got, want)
	}
	if spans := tr.Spans(); tr.Name != "receive_binary" || spans[len(spans)-1].Name != "rewrite" {
		t.Errorf("trace %q ends with %+v, want receive_binary ending with rewrite", tr.Name, spans[len(spans)-1])
	}
	if uint64(len(got.Data)) != got.HeapFree-got.DataBase {
		t.Errorf("image data %d bytes, want the %d up to HeapFree", len(got.Data), got.HeapFree-got.DataBase)
	}

	// The P6 slots are rewritten into 32-bit absolute displacements, so a
	// layout that puts the SSA page above 2 GiB is refused at the rewrite
	// stage, after the verdict. It costs no memory: there is no enclave.
	far := enclave.DefaultConfig()
	far.CodeCap = 4 << 30
	_, tr, err = runtime.BuildImage(o.Marshal(), m, far.Layout())
	if spans := tr.Spans(); err == nil || spans[len(spans)-1].Name != "rewrite" {
		t.Errorf("BuildImage with a far SSA page = %v, trace ending %+v; want the rewrite stage's error", err, spans[len(spans)-1])
	}

	m.Policies = policy.SetP1P8
	if _, tr, err := runtime.BuildImage(o.Marshal(), m, enclave.DefaultConfig().Layout()); !errors.Is(err, runtime.ErrPolicyMismatch) || tr == nil {
		t.Errorf("BuildImage of an under-instrumented binary = %v (trace %v), want ErrPolicyMismatch with its trace", err, tr)
	}
	m.OutputPadBlock = -1
	if _, _, err := runtime.BuildImage(o.Marshal(), m, enclave.DefaultConfig().Layout()); err == nil {
		t.Error("BuildImage accepted a negative output pad block")
	}
}

// TestInstallImageRefusesOverrun: install writes each section only inside
// its own region, so an image whose text, data or branch table is longer
// than the region (a corrupted cache entry) faults on the page beyond it
// and is refused, its span carrying the error, with nothing runnable left.
func TestInstallImageRefusesOverrun(t *testing.T) {
	img, _ := buildImage(t, policy.SetP1P6)
	l := img.Layout
	for _, tc := range []struct {
		span  string
		forge func(*runtime.Image)
	}{
		{"install_text", func(f *runtime.Image) { f.Text = make([]byte, l.CodeEnd-l.CodeBase+1) }},
		{"install_data", func(f *runtime.Image) { f.Data = make([]byte, l.HeapEnd-l.HeapBase+1) }},
		{"install_table", func(f *runtime.Image) { f.BranchTable = make([]byte, l.BrTableEnd-l.BrTableBase+1) }},
	} {
		forged := *img
		tc.forge(&forged)
		b := newBootstrap(t, policy.SetP1P6)
		if _, err := b.InstallImage(&forged); err == nil {
			t.Fatalf("%s: overrunning image installed", tc.span)
		}
		spans := b.LastTrace().Spans()
		if last := spans[len(spans)-1]; last.Name != tc.span || len(last.Attrs) != 1 || last.Attrs[0].Key != "error" {
			t.Errorf("trace ends with %+v, want %s with its error", last, tc.span)
		}
		if _, err := b.Run(runtime.RunConfig{}); !errors.Is(err, runtime.ErrNotLoaded) {
			t.Errorf("%s: Run after a failed install = %v, want ErrNotLoaded", tc.span, err)
		}
	}
}
