package isa

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Encoding layout, all little-endian:
//
//	[opcode]                                  FmtNone
//	[opcode][reg]                             FmtR
//	[opcode][dst<<4|src]                      FmtRR
//	[opcode][reg][imm64]                      FmtRI
//	[opcode][reg][mem...]                     FmtRM / FmtMR
//	[opcode][mem...][imm64]                   FmtMI
//	[opcode][imm64]                           FmtI
//	[opcode][rel32]                           FmtRel
//	[opcode][cond][rel32]                     FmtCondRel
//
// Memory operand encoding:
//
//	[flags][base?][index?][disp32]
//
// flags: bit0 = has base, bit1 = has index, bits 2-3 = log2(scale).

// ErrTruncated is returned when the byte stream ends mid-instruction.
var ErrTruncated = errors.New("isa: truncated instruction")

// ErrInvalidOpcode is returned when the first byte is not a defined opcode.
var ErrInvalidOpcode = errors.New("isa: invalid opcode")

// MaxInstLen is the length in bytes of the longest encodable instruction
// (opcode + memory operand with base and index + imm64).
const MaxInstLen = 1 + 7 + 8

// BrMarkMagic56 is the 7-byte magic carried in a BRMARK instruction's
// immediate. Together with the BRMARK opcode byte it forms the 8-byte
// pattern the P5 annotation compares against at runtime.
const BrMarkMagic56 = 0x44464C4543544E // "NTCELFD" little-endian -> "DFLECTN"

// BrMarkPattern returns the 8-byte little-endian value found in memory at the
// address of a correctly placed BRMARK instruction: the opcode byte followed
// by the low seven bytes of the immediate.
func BrMarkPattern() uint64 {
	return uint64(OpBrMark) | uint64(BrMarkMagic56)<<8
}

func memLen(m MemRef) int {
	n := 1 + 4 // flags + disp32
	if m.HasBase {
		n++
	}
	if m.HasIndex {
		n++
	}
	return n
}

func decodeMem(b []byte) (MemRef, int, error) {
	if len(b) < 1 {
		return MemRef{}, 0, ErrTruncated
	}
	flags := b[0]
	if flags&^0x0f != 0 {
		return MemRef{}, 0, fmt.Errorf("isa: malformed memory operand flags %#x", flags)
	}
	var m MemRef
	m.HasBase = flags&1 != 0
	m.HasIndex = flags&2 != 0
	m.Scale = 1 << ((flags >> 2) & 3)
	i := 1
	if m.HasBase {
		if len(b) < i+1 {
			return MemRef{}, 0, ErrTruncated
		}
		m.Base = Reg(b[i])
		if !m.Base.Valid() {
			return MemRef{}, 0, fmt.Errorf("isa: invalid base register %d", b[i])
		}
		i++
	}
	if m.HasIndex {
		if len(b) < i+1 {
			return MemRef{}, 0, ErrTruncated
		}
		m.Index = Reg(b[i])
		if !m.Index.Valid() {
			return MemRef{}, 0, fmt.Errorf("isa: invalid index register %d", b[i])
		}
		i++
	}
	if len(b) < i+4 {
		return MemRef{}, 0, ErrTruncated
	}
	m.Disp = int32(binary.LittleEndian.Uint32(b[i:]))
	return m, i + 4, nil
}

// Decode decodes one instruction from the front of b. It returns the
// instruction and the number of bytes consumed.
func Decode(b []byte) (Inst, int, error) {
	if len(b) == 0 {
		return Inst{}, 0, ErrTruncated
	}
	op := Op(b[0])
	if !op.Valid() {
		return Inst{}, 0, fmt.Errorf("%w: byte %#x", ErrInvalidOpcode, b[0])
	}
	in := Inst{Op: op}
	rest := b[1:]
	n := 1
	switch op.Format() {
	case FmtNone:
	case FmtR:
		if len(rest) < 1 {
			return Inst{}, 0, ErrTruncated
		}
		in.Dst = Reg(rest[0])
		if !in.Dst.Valid() {
			return Inst{}, 0, fmt.Errorf("isa: invalid register %d", rest[0])
		}
		n++
	case FmtRR:
		if len(rest) < 1 {
			return Inst{}, 0, ErrTruncated
		}
		in.Dst = Reg(rest[0] >> 4)
		in.Src = Reg(rest[0] & 0x0f)
		n++
	case FmtRI:
		if len(rest) < 1+8 {
			return Inst{}, 0, ErrTruncated
		}
		in.Dst = Reg(rest[0])
		if !in.Dst.Valid() {
			return Inst{}, 0, fmt.Errorf("isa: invalid register %d", rest[0])
		}
		in.Imm = int64(binary.LittleEndian.Uint64(rest[1:]))
		n += 1 + 8
	case FmtRM, FmtMR:
		if len(rest) < 1 {
			return Inst{}, 0, ErrTruncated
		}
		r := Reg(rest[0])
		if !r.Valid() {
			return Inst{}, 0, fmt.Errorf("isa: invalid register %d", rest[0])
		}
		if op.Format() == FmtRM {
			in.Dst = r
		} else {
			in.Src = r
		}
		m, mn, err := decodeMem(rest[1:])
		if err != nil {
			return Inst{}, 0, err
		}
		in.Mem = m
		n += 1 + mn
	case FmtMI:
		m, mn, err := decodeMem(rest)
		if err != nil {
			return Inst{}, 0, err
		}
		in.Mem = m
		if len(rest) < mn+8 {
			return Inst{}, 0, ErrTruncated
		}
		in.Imm = int64(binary.LittleEndian.Uint64(rest[mn:]))
		n += mn + 8
	case FmtI:
		if len(rest) < 8 {
			return Inst{}, 0, ErrTruncated
		}
		in.Imm = int64(binary.LittleEndian.Uint64(rest))
		n += 8
	case FmtRel:
		if len(rest) < 4 {
			return Inst{}, 0, ErrTruncated
		}
		in.Imm = int64(int32(binary.LittleEndian.Uint32(rest)))
		n += 4
	case FmtCondRel:
		if len(rest) < 1+4 {
			return Inst{}, 0, ErrTruncated
		}
		in.Cond = Cond(rest[0])
		if in.Cond == CondInvalid || in.Cond >= numConds {
			return Inst{}, 0, fmt.Errorf("isa: invalid condition %d", rest[0])
		}
		in.Imm = int64(int32(binary.LittleEndian.Uint32(rest[1:])))
		n += 1 + 4
	}
	return in, n, nil
}

// ImmOffset returns the byte offset of the instruction's imm64 field within
// its encoding, or -1 if the instruction carries no imm64. The loader's
// immediate rewriter uses this to patch annotation placeholder bounds
// in place.
func ImmOffset(in *Inst) int {
	switch in.Op.Format() {
	case FmtRI:
		return 2
	case FmtMI:
		return 1 + memLen(in.Mem)
	case FmtI:
		return 1
	default:
		return -1
	}
}

// DispOffset returns the byte offset of the memory operand's disp32 field
// within the instruction encoding, or -1 if there is no memory operand.
func DispOffset(in *Inst) int {
	var memStart int
	switch in.Op.Format() {
	case FmtRM, FmtMR:
		memStart = 2
	case FmtMI:
		memStart = 1
	default:
		return -1
	}
	off := memStart + 1 // skip flags byte
	if in.Mem.HasBase {
		off++
	}
	if in.Mem.HasIndex {
		off++
	}
	return off
}
