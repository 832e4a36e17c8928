package verifier_test

import (
	"encoding/binary"
	"fmt"
	"testing"

	"deflection/internal/apps"
	"deflection/internal/compiler"
	"deflection/internal/dclib"
	"deflection/internal/disasm"
	"deflection/internal/nbench"
	"deflection/internal/policy"
	"deflection/internal/verifier"
)

// FuzzVerify mutates the relocated text and the proof's branch-target list
// of real compiled programs and runs the whole verifier under p1-p8. Verify
// must never panic, must be deterministic (same verdict text and Stats on
// a second run), and every accepted result must satisfy the instruction
// table's invariants, which all offset arithmetic in the passes relies on.
func FuzzVerify(f *testing.F) {
	k, _ := nbench.KernelByName("NUMERIC SORT")
	var seeds []verifier.Options
	for _, src := range []string{apps.CreditSource, k.Source} {
		o, err := compiler.Compile(dclib.Program(src), compiler.Options{Policies: policy.SetP1P8})
		if err != nil {
			f.Fatal(err)
		}
		text, opts := loadObject(f, o, policy.SetP1P8)
		f.Add(text, opts.EntryOffset, packTargets(opts.BranchTargetOffsets), uint8(len(seeds)))
		seeds = append(seeds, opts)
	}

	f.Fuzz(func(t *testing.T, text []byte, entry int64, targets []byte, seed uint8) {
		// The seed picks the P7 secret geometry and P8 protocol; entry and
		// targets come from the fuzzer.
		opts := seeds[int(seed)%len(seeds)]
		opts.EntryOffset = entry
		opts.BranchTargetOffsets = nil
		for len(targets) >= 4 {
			opts.BranchTargetOffsets = append(opts.BranchTargetOffsets, int64(int32(binary.LittleEndian.Uint32(targets))))
			targets = targets[4:]
		}
		res, err := verifier.Verify(text, opts)
		res2, err2 := verifier.Verify(text, opts)
		if v, v2 := verdict(res, err), verdict(res2, err2); v != v2 {
			t.Fatalf("nondeterministic verdict:\n%s\n%s", v, v2)
		}
		if err == nil {
			checkTable(t, res.Dis, len(text))
		}
	})
}

func packTargets(offs []int64) []byte {
	b := make([]byte, 0, 4*len(offs))
	for _, o := range offs {
		b = binary.LittleEndian.AppendUint32(b, uint32(o))
	}
	return b
}

// verdict renders what two runs of Verify must agree on.
func verdict(res *verifier.Result, err error) string {
	if err != nil {
		return "rejected: " + err.Error()
	}
	return fmt.Sprintf("accepted: %+v", res.Stats)
}

// checkTable asserts the instruction-table invariants: Insts strictly
// ascending, non-overlapping and inside text; one leader flag per
// instruction; and, for every byte, Index and At agree with a linear scan.
func checkTable(t *testing.T, dis *disasm.Result, textLen int) {
	t.Helper()
	var end int64
	for _, in := range dis.Insts {
		if in.Off < end || in.Len <= 0 || in.End() > int64(textLen) {
			t.Fatalf("instruction [%#x,%#x) overlaps the previous one (end %#x) or leaves text len %d", in.Off, in.End(), end, textLen)
		}
		end = in.End()
	}
	if len(dis.Leader) != len(dis.Insts) {
		t.Fatalf("len(Leader)=%d != len(Insts)=%d", len(dis.Leader), len(dis.Insts))
	}
	k := 0
	for off := int64(-1); off <= int64(textLen); off++ {
		for k < len(dis.Insts) && dis.Insts[k].Off < off {
			k++
		}
		want := k < len(dis.Insts) && dis.Insts[k].Off == off
		i, ok := dis.Index(off)
		in, okAt := dis.At(off)
		if ok != want || okAt != want || (want && (i != k || in != dis.Insts[k])) {
			t.Fatalf("lookup of %#x: Index=(%d,%t) At ok=%t, linear scan says %t at %d", off, i, ok, okAt, want, k)
		}
	}
}
