// Package asm is the code generator's assembler: it resolves the labels of
// instruction streams, encodes them and builds the obj.Object that crosses
// into the bootstrap enclave, and prunes code nothing can reach before
// encoding. Only the untrusted generators (the compiler and asmtext) use
// it; the enclave links obj's wire-format parser, never this package.
package asm

import (
	"fmt"
	"sort"

	"deflection/internal/isa"
	"deflection/internal/obj"
	"deflection/internal/policy"
)

// Item is one element of a function body under assembly: either a label
// definition or an instruction. Branch instructions refer to labels
// symbolically through Target until Assemble resolves them; instructions
// whose 64-bit immediate must hold the loaded absolute address of a symbol
// carry the symbol name in SymRef and become relocation entries.
//
// The instrumentation passes of the code generator transform []Item streams,
// which mirrors how the paper's LLVM backend passes rewrite MachineInstr
// sequences before encoding.
type Item struct {
	IsLabel bool
	Label   string // label name when IsLabel

	Inst   isa.Inst
	Target string // symbolic branch target for OpJmp/OpJcc/OpCall
	SymRef string // symbol whose absolute address belongs in Imm (RelAbs64)

	// Annot marks items inserted by instrumentation passes. It exists only
	// to keep later passes from re-instrumenting annotation code (e.g. P1
	// guarding the shadow-stack stores P5 inserted); it is not serialised
	// and carries no trust — the verifier rediscovers annotations by
	// pattern matching the machine code.
	Annot bool
}

// LabelItem returns a label-definition item.
func LabelItem(name string) Item { return Item{IsLabel: true, Label: name} }

// InstItem returns a plain instruction item.
func InstItem(in isa.Inst) Item { return Item{Inst: in} }

// BranchItem returns a branch instruction targeting a label.
func BranchItem(in isa.Inst, target string) Item { return Item{Inst: in, Target: target} }

// Assembler builds an Object from instruction streams and data definitions.
// The zero value is not usable; call NewAssembler.
type Assembler struct {
	items  []Item
	funcs  []funcSpan
	data   []byte
	bss    int64
	syms   []obj.Symbol
	symset map[string]bool

	dataRelocs    []obj.Reloc
	branchTargets []string
	btSet         map[string]bool
	secrets       []string
	secretSet     map[string]bool
	protocol      *policy.Protocol

	entry string
}

type funcSpan struct {
	name       string
	start, end int // item index range
}

// NewAssembler returns an empty assembler.
func NewAssembler() *Assembler {
	return &Assembler{
		symset:    make(map[string]bool),
		btSet:     make(map[string]bool),
		secretSet: make(map[string]bool),
	}
}

// SetEntry records the entry symbol.
func (a *Assembler) SetEntry(name string) { a.entry = name }

// SetProtocol records the declared interface protocol (the P8 proof). The
// assembler stores it as given; structural validation happens in Assemble
// via Object.Validate.
func (a *Assembler) SetProtocol(p *policy.Protocol) { a.protocol = p }

func (a *Assembler) addSym(s obj.Symbol) error {
	if a.symset[s.Name] {
		return fmt.Errorf("asm: duplicate symbol %q", s.Name)
	}
	a.symset[s.Name] = true
	a.syms = append(a.syms, s)
	return nil
}

// AddFunc appends a function body. The function's entry point is a SymFunc
// symbol named name; a label item inside body named exactly name is not
// required. Labels used in body must be unique across the whole object
// (callers mangle them as "func.label").
func (a *Assembler) AddFunc(name string, body []Item) error {
	start := len(a.items)
	a.items = append(a.items, LabelItem(name))
	a.items = append(a.items, body...)
	a.funcs = append(a.funcs, funcSpan{name: name, start: start, end: len(a.items)})
	return nil
}

// Funcs returns the names of all functions added so far, in order.
func (a *Assembler) Funcs() []string {
	names := make([]string, len(a.funcs))
	for i, f := range a.funcs {
		names[i] = f.name
	}
	return names
}

// FuncBody returns a copy of the item stream of a previously added function
// (excluding the synthetic entry label) for inspection in tests.
func (a *Assembler) FuncBody(name string) []Item {
	for _, f := range a.funcs {
		if f.name == name {
			body := make([]Item, f.end-f.start-1)
			copy(body, a.items[f.start+1:f.end])
			return body
		}
	}
	return nil
}

// RewriteFuncs applies fn to each function body (excluding the entry label),
// replacing it with the returned stream. Instrumentation passes use this.
func (a *Assembler) RewriteFuncs(fn func(name string, body []Item) []Item) {
	var out []Item
	var spans []funcSpan
	for _, f := range a.funcs {
		body := a.items[f.start+1 : f.end]
		newBody := fn(f.name, body)
		start := len(out)
		out = append(out, LabelItem(f.name))
		out = append(out, newBody...)
		spans = append(spans, funcSpan{name: f.name, start: start, end: len(out)})
	}
	a.items = out
	a.funcs = spans
}

// AddData defines an initialised data symbol and returns nothing; the loader
// later places .data at its own base.
func (a *Assembler) AddData(name string, b []byte) error {
	off := int64(len(a.data))
	a.data = append(a.data, b...)
	// Keep .data 8-byte aligned so pointer tables stay aligned.
	for len(a.data)%8 != 0 {
		a.data = append(a.data, 0)
	}
	return a.addSym(obj.Symbol{Name: name, Section: obj.SecData, Offset: off, Size: int64(len(b)), Kind: obj.SymObj})
}

// AddBSS defines a zero-initialised data symbol of the given size.
func (a *Assembler) AddBSS(name string, size int64) error {
	off := a.bss
	a.bss += size
	for a.bss%8 != 0 {
		a.bss++
	}
	return a.addSym(obj.Symbol{Name: name, Section: obj.SecBSS, Offset: off, Size: size, Kind: obj.SymObj})
}

// AddPtrTable defines a .data table of code addresses, one 8-byte slot per
// label, each backed by a RelAbs64 relocation. Switch statements compile to
// indirect jumps through such tables, so every label in the table is also
// registered as a legitimate indirect-branch target.
func (a *Assembler) AddPtrTable(name string, labels []string) error {
	off := int64(len(a.data))
	for i, l := range labels {
		a.data = append(a.data, make([]byte, 8)...)
		a.dataRelocs = append(a.dataRelocs, obj.Reloc{
			Section: obj.SecData,
			Offset:  off + int64(i)*8,
			Symbol:  l,
			Kind:    obj.RelAbs64,
		})
		a.AddBranchTarget(l)
	}
	return a.addSym(obj.Symbol{Name: name, Section: obj.SecData, Offset: off, Size: int64(len(labels) * 8), Kind: obj.SymObj})
}

// AddBranchTarget registers a label as a legitimate indirect-branch target
// (an entry of the proof's branch-target list).
func (a *Assembler) AddBranchTarget(label string) {
	if !a.btSet[label] {
		a.btSet[label] = true
		a.branchTargets = append(a.branchTargets, label)
	}
}

// BranchTargetSet reports whether label is already registered.
func (a *Assembler) BranchTargetSet(label string) bool { return a.btSet[label] }

// AddSecret tags a previously defined data/bss object as a P7 taint source.
func (a *Assembler) AddSecret(name string) {
	if !a.secretSet[name] {
		a.secretSet[name] = true
		a.secrets = append(a.secrets, name)
	}
}

// Assemble resolves labels and produces the final object. policyMask
// declares which policies the generator instrumented.
func (a *Assembler) Assemble(policyMask uint16) (*obj.Object, error) {
	// Pass 1: assign offsets. Instruction lengths do not depend on label
	// values (branches always use rel32), so one sizing pass suffices.
	offsets := make(map[string]int64, len(a.items))
	itemOff := make([]int64, len(a.items))
	var pc int64
	for i := range a.items {
		it := &a.items[i]
		itemOff[i] = pc
		if it.IsLabel {
			if _, dup := offsets[it.Label]; dup {
				return nil, fmt.Errorf("asm: duplicate label %q", it.Label)
			}
			offsets[it.Label] = pc
			continue
		}
		pc += int64(EncodedLen(&it.Inst))
	}

	// Pass 2: encode.
	text := make([]byte, 0, pc)
	var relocs []obj.Reloc
	for i := range a.items {
		it := &a.items[i]
		if it.IsLabel {
			continue
		}
		in := it.Inst
		if it.Target != "" {
			toff, ok := offsets[it.Target]
			if !ok {
				return nil, fmt.Errorf("asm: undefined branch target %q", it.Target)
			}
			next := itemOff[i] + int64(EncodedLen(&in))
			in.Imm = toff - next
		}
		if it.SymRef != "" {
			immOff := isa.ImmOffset(&in)
			if immOff < 0 {
				return nil, fmt.Errorf("asm: SymRef on instruction %s without imm64", in.Op)
			}
			relocs = append(relocs, obj.Reloc{
				Section: obj.SecText,
				Offset:  itemOff[i] + int64(immOff),
				Symbol:  it.SymRef,
				Addend:  in.Imm, // addend rides in the immediate field
				Kind:    obj.RelAbs64,
			})
			in.Imm = 0
		}
		text = AppendEncode(text, &in)
	}

	// Function and label symbols.
	syms := make([]obj.Symbol, 0, len(a.syms)+len(a.funcs)+len(offsets))
	syms = append(syms, a.syms...)
	funcNames := make(map[string]bool, len(a.funcs))
	for _, f := range a.funcs {
		funcNames[f.name] = true
		start := offsets[f.name]
		var end int64 = pc
		if f.end < len(a.items) {
			end = itemOff[f.end]
		}
		syms = append(syms, obj.Symbol{Name: f.name, Section: obj.SecText, Offset: start, Size: end - start, Kind: obj.SymFunc})
	}
	// Label symbols in sorted order: map iteration order would otherwise
	// leak into the serialised symbol table and make the object bytes —
	// and every downstream content hash and verdict-cache key — differ
	// between runs that compiled identical source.
	labels := make([]string, 0, len(offsets))
	for name := range offsets {
		if !funcNames[name] {
			labels = append(labels, name)
		}
	}
	sort.Strings(labels)
	for _, name := range labels {
		syms = append(syms, obj.Symbol{Name: name, Section: obj.SecText, Offset: offsets[name], Kind: obj.SymLabel})
	}

	o := &obj.Object{
		Entry:      a.entry,
		PolicyMask: policyMask,
		Text:       text,
		Data:       append([]byte(nil), a.data...),
		BSSSize:    a.bss,
		Symbols:    syms,
		Relocs:     append(relocs, a.dataRelocs...),
	}
	for _, bt := range a.branchTargets {
		if _, ok := offsets[bt]; !ok {
			return nil, fmt.Errorf("asm: branch target %q is not a code label", bt)
		}
		o.BranchTargets = append(o.BranchTargets, obj.BranchTarget{Symbol: bt})
	}
	for _, s := range a.secrets {
		if !a.symset[s] {
			return nil, fmt.Errorf("asm: secret %q is not a defined data object", s)
		}
		o.Secrets = append(o.Secrets, s)
	}
	o.Protocol = a.protocol
	if err := o.Validate(); err != nil {
		return nil, err
	}
	return o, nil
}
