// Package loader implements the bootstrap enclave's dynamic loader (paper
// Section IV-D and Fig. 6): it parses the relocatable target binary received
// through the ECall interface, rebases its symbols onto an enclave layout,
// relocates private copies of .text and .data, and translates the
// indirect-branch target list into in-enclave addresses and the branch
// table's bytes. It never touches enclave memory: the verifier checks the
// relocated text it returns, its immediate rewriter (rewrite.go) then
// patches the annotation placeholder bounds in that same text, and only the
// verified result is installed into the enclave by the runtime.
package loader

import (
	"encoding/binary"
	"errors"
	"fmt"

	"deflection/internal/enclave"
	"deflection/internal/obj"
)

// ErrTooLarge is returned when a section exceeds its enclave region.
var ErrTooLarge = errors.New("loader: section does not fit enclave region")

// Loaded describes a target binary relocated for one enclave layout.
type Loaded struct {
	// Layout is the enclave address map the binary was relocated for.
	Layout enclave.Layout

	// Entry is the absolute address of the entry symbol.
	Entry uint64
	// TextBase is where the relocated code begins.
	TextBase uint64
	// DataBase is where .data begins (followed by .bss); HeapFree is the
	// first free heap address after .bss, available to the program.
	DataBase, HeapFree uint64

	// Text is the relocated code, placed at TextBase; RewriteImmediates
	// patches it in place.
	Text []byte
	// Data is the relocated .data, placed at DataBase. The .bss that
	// follows it up to HeapFree is zero and not materialised here.
	Data []byte
	// Table is the branch-table region's content: BranchTargets as
	// little-endian words, placed at Layout.BrTableBase.
	Table []byte
	// BranchTargets are the translated in-enclave addresses of the
	// indirect-branch target list, in list order.
	BranchTargets []uint64
	// Symbols maps every object symbol to its absolute loaded address.
	Symbols map[string]uint64
	// Object is the parsed input object (its sections not relocated).
	Object *obj.Object
}

// Load relocates o for an enclave of layout l. Its precondition is a
// validated object (obj.Validate, which obj.Unmarshal and the assembler
// both run): every symbol lies in a known section, every relocation is an
// in-range 64-bit site in .text or .data against a defined symbol, and
// every branch target names a defined symbol. Load checks only what
// depends on the layout: that the sections fit their regions and that each
// branch target lies in text.
func Load(l enclave.Layout, o *obj.Object) (*Loaded, error) {
	textBase := l.CodeBase
	if textBase+uint64(len(o.Text)) > l.CodeEnd {
		return nil, fmt.Errorf("%w: text %d bytes > code region %d", ErrTooLarge, len(o.Text), l.CodeEnd-l.CodeBase)
	}
	dataBase := l.HeapBase
	bssBase := dataBase + align8(uint64(len(o.Data)))
	heapFree := bssBase + align8(uint64(o.BSSSize))
	if heapFree > l.HeapEnd {
		return nil, fmt.Errorf("%w: data+bss %d bytes > heap region %d", ErrTooLarge, heapFree-dataBase, l.HeapEnd-l.HeapBase)
	}
	if len(o.BranchTargets)*8 > int(l.BrTableEnd-l.BrTableBase) {
		return nil, fmt.Errorf("%w: %d branch targets > table region", ErrTooLarge, len(o.BranchTargets))
	}

	// Rebase symbols.
	bases := [...]uint64{obj.SecText: textBase, obj.SecData: dataBase, obj.SecBSS: bssBase}
	syms := make(map[string]uint64, len(o.Symbols))
	for _, s := range o.Symbols {
		syms[s.Name] = bases[s.Section] + uint64(s.Offset)
	}

	// Apply relocations on private copies of the sections.
	text := append([]byte(nil), o.Text...)
	data := append([]byte(nil), o.Data...)
	for _, r := range o.Relocs {
		sec := text
		if r.Section == obj.SecData {
			sec = data
		}
		binary.LittleEndian.PutUint64(sec[r.Offset:], syms[r.Symbol]+uint64(r.Addend))
	}

	// Translate the branch-target list to in-enclave addresses and the
	// words of the read-only branch table.
	targets := make([]uint64, 0, len(o.BranchTargets))
	table := make([]byte, 0, 8*len(o.BranchTargets))
	for _, bt := range o.BranchTargets {
		addr := syms[bt.Symbol]
		if addr < textBase || addr >= textBase+uint64(len(text)) {
			return nil, fmt.Errorf("loader: branch target %q outside text", bt.Symbol)
		}
		targets = append(targets, addr)
		table = binary.LittleEndian.AppendUint64(table, addr)
	}

	entry, ok := syms[o.Entry]
	if !ok {
		return nil, fmt.Errorf("loader: entry symbol %q undefined", o.Entry)
	}

	return &Loaded{
		Layout:        l,
		Entry:         entry,
		TextBase:      textBase,
		DataBase:      dataBase,
		HeapFree:      heapFree,
		Text:          text,
		Data:          data,
		Table:         table,
		BranchTargets: targets,
		Symbols:       syms,
		Object:        o,
	}, nil
}

func align8(v uint64) uint64 { return (v + 7) &^ 7 }
