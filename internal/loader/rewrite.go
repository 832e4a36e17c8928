package loader

import (
	"encoding/binary"
	"fmt"

	"deflection/internal/disasm"
	"deflection/internal/isa"
	"deflection/internal/policy"
)

// RewriteStats reports what the immediate rewriter patched.
type RewriteStats struct {
	StoreBounds int // MagicStoreLo/Hi immediates patched
	StackBounds int // MagicStackLo/Hi immediates patched
	SSASites    int // P6 marker/counter displacements patched
}

// RewriteImmediates is the paper's "Imm rewriter" (Section V-B): after the
// verifier has approved the binary, every annotation placeholder — the
// store and stack bound immediates of Fig. 5 and the P6 SSA slot
// displacements — is resolved to the real enclave addresses, in place, in
// the relocated text ld.Text.
//
// The rewriter works from the verifier's disassembly so it patches exactly
// the decoded instruction stream; placeholder values are globally unique
// 63-bit constants that cannot collide with legitimate loaded addresses.
func RewriteImmediates(ld *Loaded, dis *disasm.Result) (RewriteStats, error) {
	var stats RewriteStats
	l := ld.Layout

	imm64Map := map[int64]uint64{
		policy.MagicStoreLo: l.StoreLo(),
		policy.MagicStoreHi: l.StoreHi(),
		policy.MagicStackLo: l.StackLo,
		policy.MagicStackHi: l.StackHi,
	}
	disp32Map := map[int32]uint64{
		policy.MagicSSAMarkerDisp: l.SSAMarkerAddr(),
		policy.MagicAEXCountDisp:  l.AEXCountAddr(),
	}

	for _, in := range dis.Insts {
		if immOff := isa.ImmOffset(&in.Inst); immOff >= 0 {
			if v, hit := imm64Map[in.Imm]; hit {
				binary.LittleEndian.PutUint64(ld.Text[in.Off+int64(immOff):], v)
				switch in.Imm {
				case policy.MagicStoreLo, policy.MagicStoreHi:
					stats.StoreBounds++
				default:
					stats.StackBounds++
				}
			}
		}
		if dispOff := isa.DispOffset(&in.Inst); dispOff >= 0 && !in.Mem.HasBase && !in.Mem.HasIndex {
			if v, hit := disp32Map[in.Mem.Disp]; hit {
				if v > 0x7FFFFFFF {
					return stats, fmt.Errorf("loader: SSA slot %#x does not fit disp32", v)
				}
				binary.LittleEndian.PutUint32(ld.Text[in.Off+int64(dispOff):], uint32(v))
				stats.SSASites++
			}
		}
	}
	return stats, nil
}
