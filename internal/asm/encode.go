package asm

import (
	"encoding/binary"
	"fmt"

	"deflection/internal/isa"
)

// The encoder is the inverse of isa.Decode and follows the layout
// documented in isa. It lives here rather than next to the decoder because
// only the generators encode: the enclave decodes, and patches immediates
// in place. isa's round-trip tests and the disassembler's fuzz target keep
// the two in lockstep.

// EncodedLen returns the encoded size of the instruction in bytes.
func EncodedLen(in *isa.Inst) int {
	var buf [isa.MaxInstLen]byte
	return len(AppendEncode(buf[:0], in))
}

// AppendEncode appends the encoding of in to b and returns the extended
// slice. It panics on an invalid opcode: the generators build instructions
// from isa's opcode constants, so an invalid one is a programmer error.
func AppendEncode(b []byte, in *isa.Inst) []byte {
	if !in.Op.Valid() {
		panic(fmt.Sprintf("asm: encoding invalid opcode %d", in.Op))
	}
	b = append(b, byte(in.Op))
	switch in.Op.Format() {
	case isa.FmtNone:
	case isa.FmtR:
		b = append(b, byte(in.Dst))
	case isa.FmtRR:
		b = append(b, byte(in.Dst)<<4|byte(in.Src))
	case isa.FmtRI:
		b = append(b, byte(in.Dst))
		b = binary.LittleEndian.AppendUint64(b, uint64(in.Imm))
	case isa.FmtRM:
		b = append(b, byte(in.Dst))
		b = appendMem(b, in.Mem)
	case isa.FmtMR:
		b = append(b, byte(in.Src))
		b = appendMem(b, in.Mem)
	case isa.FmtMI:
		b = appendMem(b, in.Mem)
		b = binary.LittleEndian.AppendUint64(b, uint64(in.Imm))
	case isa.FmtI:
		b = binary.LittleEndian.AppendUint64(b, uint64(in.Imm))
	case isa.FmtRel:
		b = binary.LittleEndian.AppendUint32(b, uint32(int32(in.Imm)))
	case isa.FmtCondRel:
		b = append(b, byte(in.Cond))
		b = binary.LittleEndian.AppendUint32(b, uint32(int32(in.Imm)))
	}
	return b
}

func appendMem(b []byte, m isa.MemRef) []byte {
	var flags byte
	if m.HasBase {
		flags |= 1
	}
	if m.HasIndex {
		flags |= 2
	}
	switch m.Scale {
	case 0, 1:
	case 2:
		flags |= 1 << 2
	case 4:
		flags |= 2 << 2
	case 8:
		flags |= 3 << 2
	}
	b = append(b, flags)
	if m.HasBase {
		b = append(b, byte(m.Base))
	}
	if m.HasIndex {
		b = append(b, byte(m.Index))
	}
	return binary.LittleEndian.AppendUint32(b, uint32(m.Disp))
}
