package verifier_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"deflection/internal/apps"
	"deflection/internal/asm"
	"deflection/internal/cfaref"
	"deflection/internal/compiler"
	"deflection/internal/dclib"
	"deflection/internal/disasm"
	"deflection/internal/isa"
	"deflection/internal/nbench"
	"deflection/internal/policy"
	"deflection/internal/verifier"
)

// FuzzVerify mutates the relocated text and the proof's branch-target list
// of real compiled programs and runs the whole verifier under p1-p8. Verify
// must never panic, must be deterministic (same verdict text and Stats on
// a second run), every accepted result must satisfy the instruction
// table's invariants, which all offset arithmetic in the passes relies on,
// and the instruction table and CFG must match the reference builders'.
func FuzzVerify(f *testing.F) {
	texts, seeds := fuzzSeeds(f)
	for i, text := range texts {
		f.Add(text, seeds[i].EntryOffset, packTargets(seeds[i].BranchTargetOffsets), uint8(i))
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
		if d := cfaref.Diff(text, opts.EntryOffset, opts.BranchTargetOffsets); d != "" {
			t.Fatal(d)
		}
	})
}

// fuzzSeeds compiles and loads the fuzz seed programs, credit and the
// numeric-sort kernel, under p1-p8.
func fuzzSeeds(f *testing.F) ([][]byte, []verifier.Options) {
	k, _ := nbench.KernelByName("NUMERIC SORT")
	var texts [][]byte
	var seeds []verifier.Options
	for _, src := range []string{apps.CreditSource, k.Source} {
		o, err := compiler.Compile(dclib.Program(src), compiler.Options{Policies: policy.SetP1P8})
		if err != nil {
			f.Fatal(err)
		}
		text, opts := loadObject(f, o, policy.SetP1P8)
		texts, seeds = append(texts, text), append(seeds, opts)
	}
	return texts, seeds
}

// FuzzTemplates is a differential fuzz of the table-driven template matcher
// against the reference matchers it replaced: it mutates bytes and
// instruction fields inside the annotation spans (trap stubs included) of
// real compiled programs and requires the two to agree on the verdict, the
// Violation, Stats, AnnotRanges and the store/RSP anchors (see
// verifier.DiffReference for the one deliberate difference). Each 5-byte
// chunk of muts is one mutation: kind, span index (2 bytes), position and
// value.
func FuzzTemplates(f *testing.F) {
	texts, seeds := fuzzSeeds(f)
	spans := make([][]verifier.Range, len(texts))
	for i, text := range texts {
		res, err := verifier.Verify(text, seeds[i])
		if err != nil {
			f.Fatal(err)
		}
		spans[i] = res.AnnotRanges
		f.Add(uint8(i), []byte{0, 3, 0, 2, 0x10})
		f.Add(uint8(i), []byte{1, 7, 0, 1, 0x0a, 1, 9, 1, 5, 0x23})
	}
	f.Fuzz(func(t *testing.T, seed uint8, muts []byte) {
		i := int(seed) % len(texts)
		text := bytes.Clone(texts[i])
		for ; len(muts) >= 5; muts = muts[5:] {
			r := spans[i][int(binary.LittleEndian.Uint16(muts[1:]))%len(spans[i])]
			mutateSpan(text, r, muts[0], muts[3], muts[4])
		}
		if d := verifier.DiffReference(text, seeds[i]); d != "" {
			t.Fatal(d)
		}
	})
}

// mutateSpan applies one mutation inside the annotation span r. An even
// kind XORs the byte at pos with val. An odd kind decodes the pos-th
// instruction of the span and perturbs one field chosen by val (opcode
// within its format, registers, condition, immediate, displacement, base,
// scale), writing it back only if the encoding keeps its length.
func mutateSpan(text []byte, r verifier.Range, kind, pos, val byte) {
	if kind%2 == 0 {
		text[r.Lo+int64(pos)%(r.Hi-r.Lo)] ^= val
		return
	}
	off := r.Lo
	for n := int(pos) % 12; ; n-- {
		_, size, err := isa.Decode(text[off:])
		if err != nil {
			return
		}
		if n == 0 || off+int64(size) >= r.Hi {
			break
		}
		off += int64(size)
	}
	in, size, _ := isa.Decode(text[off:])
	x := int64(int8(val)) >> 3
	switch val % 8 {
	case 0:
		in.Op = sameFormatOp(in.Op)
	case 1:
		in.Dst = isa.Reg(uint8(val>>3) % isa.NumRegs)
	case 2:
		in.Src = isa.Reg(uint8(val>>3) % isa.NumRegs)
	case 3:
		in.Cond = isa.Cond(1 + (val>>3)%10)
	case 4:
		in.Imm += x
	case 5:
		in.Mem.Disp += int32(x)
	case 6:
		in.Mem.Base = isa.Reg(uint8(val>>3) % isa.NumRegs)
	case 7:
		in.Mem.Scale = 1 << ((val >> 3) % 4)
	}
	if enc := asm.AppendEncode(nil, &in); len(enc) == size {
		copy(text[off:], enc)
	}
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
