package asm

import (
	"fmt"

	"deflection/internal/disasm"
	"deflection/internal/isa"
)

// Linear decodes text sequentially from offset 0, ignoring control flow,
// and stops at the first decode error. Tests use it to walk compiled text
// instruction by instruction; the verifier disassembles by recursive
// descent (disasm.Disassemble) instead.
func Linear(text []byte) ([]disasm.Inst, error) {
	var out []disasm.Inst
	var off int64
	for off < int64(len(text)) {
		raw, n, err := isa.Decode(text[off:])
		if err != nil {
			return out, fmt.Errorf("disasm: at %#x: %w", off, err)
		}
		out = append(out, disasm.Inst{Inst: raw, Off: off, Len: n})
		off += int64(n)
	}
	return out, nil
}
