// Package loader implements the bootstrap enclave's dynamic loader (paper
// Section IV-D and Fig. 6): it parses the relocatable target binary received
// through the ECall interface, rebases its symbols, copies the sections into
// the enclave's RWX code region and RW heap, translates the indirect-branch
// target list into in-enclave addresses, and reserves the shadow stack and
// guard pages. After verification, its immediate rewriter (rewrite.go)
// patches the annotation placeholder bounds with the real enclave addresses.
package loader

import (
	"errors"
	"fmt"

	"deflection/internal/enclave"
	"deflection/internal/obj"
)

// ErrTooLarge is returned when a section exceeds its enclave region.
var ErrTooLarge = errors.New("loader: section does not fit enclave region")

// Loaded describes a target binary after relocation into an enclave.
type Loaded struct {
	Enclave *enclave.Enclave

	// Entry is the absolute address of the entry symbol.
	Entry uint64
	// TextBase/TextEnd delimit the relocated code.
	TextBase, TextEnd uint64
	// DataBase is where .data begins (followed by .bss); HeapFree is the
	// first free heap address after .bss, available to the program.
	DataBase, HeapFree uint64
	// BranchTargets are the translated in-enclave addresses of the
	// indirect-branch target list, in list order. They are also written
	// to the enclave's read-only branch-table region.
	BranchTargets []uint64
	// Symbols maps every object symbol to its absolute loaded address.
	Symbols map[string]uint64
	// Object is the parsed input object (text NOT relocated; the
	// authoritative relocated bytes live in enclave memory).
	Object *obj.Object
}

// TextBytes reads the relocated text back out of enclave memory.
func (ld *Loaded) TextBytes() ([]byte, error) {
	b, f := ld.Enclave.Mem.Read(ld.TextBase, int(ld.TextEnd-ld.TextBase))
	if f != nil {
		return nil, f
	}
	return b, nil
}

// Load relocates o into e. Its precondition is a validated object
// (obj.Validate, which obj.Unmarshal and the assembler both run): every
// symbol lies in a known section, every relocation is an in-range 64-bit
// site in .text or .data against a defined symbol, and every branch target
// names a defined symbol. Load checks only what depends on the enclave
// layout: that the sections fit their regions and that each branch target
// lies in text.
func Load(e *enclave.Enclave, o *obj.Object) (*Loaded, error) {
	l := e.Layout

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
		putU64(sec[r.Offset:], syms[r.Symbol]+uint64(r.Addend))
	}

	// Copy sections into the enclave. Code pages are RWX under SGXv1; the
	// heap region holds .data followed by zeroed .bss.
	if f := e.Mem.Write(textBase, text); f != nil {
		return nil, fmt.Errorf("loader: writing text: %w", f)
	}
	if len(data) > 0 {
		if f := e.Mem.Write(dataBase, data); f != nil {
			return nil, fmt.Errorf("loader: writing data: %w", f)
		}
	}

	// Translate the branch-target list to in-enclave addresses and publish
	// it in the read-only branch-table region (permissions are fixed after
	// launch, so the region was mapped R and we write through a raw view).
	targets := make([]uint64, 0, len(o.BranchTargets))
	var table []byte
	for _, bt := range o.BranchTargets {
		addr := syms[bt.Symbol]
		if addr < textBase || addr >= textBase+uint64(len(text)) {
			return nil, fmt.Errorf("loader: branch target %q outside text", bt.Symbol)
		}
		targets = append(targets, addr)
		var buf [8]byte
		putU64(buf[:], addr)
		table = append(table, buf[:]...)
	}
	if len(table) > 0 {
		if err := e.Mem.SetPerm(l.BrTableBase, l.BrTableEnd, enclave.PermRW); err != nil {
			return nil, err
		}
		if f := e.Mem.Write(l.BrTableBase, table); f != nil {
			return nil, fmt.Errorf("loader: writing branch table: %w", f)
		}
		if err := e.Mem.SetPerm(l.BrTableBase, l.BrTableEnd, enclave.PermR); err != nil {
			return nil, err
		}
	}

	entry, ok := syms[o.Entry]
	if !ok {
		return nil, fmt.Errorf("loader: entry symbol %q undefined", o.Entry)
	}

	return &Loaded{
		Enclave:       e,
		Entry:         entry,
		TextBase:      textBase,
		TextEnd:       textBase + uint64(len(text)),
		DataBase:      dataBase,
		HeapFree:      heapFree,
		BranchTargets: targets,
		Symbols:       syms,
		Object:        o,
	}, nil
}

func align8(v uint64) uint64 { return (v + 7) &^ 7 }

func putU64(b []byte, v uint64) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}
