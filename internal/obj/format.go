// Package obj defines the relocatable object format exchanged between the
// untrusted code generator and the bootstrap enclave. It is the first
// trusted code to touch the code provider's bytes; the assembler that
// produces objects lives outside the trusted set, in internal/asm.
//
// An Object is the paper's "target binary together with its proof": machine
// code and data sections, a symbol table, relocation entries (the generator
// performs static linking outside the enclave and leaves only relocation for
// the in-enclave loader, Section IV-C of the paper), and the indirect-branch
// target list the verifier uses to drive just-enough disassembly and the
// loader translates to in-enclave addresses (Section IV-D).
package obj

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"deflection/internal/policy"
)

// Section identifies which section an offset refers to.
type Section uint8

// Sections of an object file.
const (
	SecNone Section = iota
	SecText
	SecData
	SecBSS
)

// String names the section.
func (s Section) String() string {
	switch s {
	case SecText:
		return ".text"
	case SecData:
		return ".data"
	case SecBSS:
		return ".bss"
	default:
		return "none"
	}
}

// SymKind classifies a symbol.
type SymKind uint8

// Symbol kinds.
const (
	SymNone  SymKind = iota
	SymFunc          // function entry
	SymObj           // data object
	SymLabel         // code label (function-local, mangled "func.label")
)

// Symbol is a named location in a section.
type Symbol struct {
	Name    string
	Section Section
	Offset  int64
	Size    int64
	Kind    SymKind
}

// RelocKind identifies how a relocation patches its site.
type RelocKind uint8

// Relocation kinds.
const (
	// RelAbs64 stores the 64-bit absolute loaded address of Symbol+Addend
	// at the site.
	RelAbs64 RelocKind = iota + 1
)

// Reloc asks the loader to patch Section[Offset:] with the resolved address
// of Symbol+Addend.
type Reloc struct {
	Section Section
	Offset  int64
	Symbol  string
	Addend  int64
	Kind    RelocKind
}

// BranchTarget is one entry of the indirect-branch target list ("the proof"):
// the symbol name is the hint the verifier uses (paper Section IV-D), and
// after loading the loader translates it to an in-enclave address.
type BranchTarget struct {
	Symbol string
}

// Object is a relocatable target binary plus its proof.
type Object struct {
	// Entry is the symbol where execution starts.
	Entry string
	// PolicyMask declares which policies the generator instrumented
	// (a bitmask of 1<<policy for P1..P8). The verifier checks the claim.
	// The wire format stores the low byte in the fixed header; the high
	// byte rides in the optional extension tail so pre-P8 objects keep
	// their exact historical encoding (and digests/cache keys).
	PolicyMask uint16

	Text    []byte
	Data    []byte
	BSSSize int64

	Symbols       []Symbol
	Relocs        []Reloc
	BranchTargets []BranchTarget

	// Secrets names the data/bss objects whose contents are secret inputs
	// (the P7 taint sources). The verifier's taint pass proves they can
	// only leave the enclave through the sealed-output routine. The table
	// is part of the proof: omitting a tag weakens nothing for the
	// provider (the manifest's P7 bit still forces the pass), it only
	// changes which buffers count as sources.
	Secrets []string

	// Protocol is the declared interface protocol (the P8 proof), or nil
	// when the generator declared none.
	Protocol *policy.Protocol
}

// Symbol returns the named symbol, if present.
func (o *Object) Symbol(name string) (Symbol, bool) {
	for _, s := range o.Symbols {
		if s.Name == name {
			return s, true
		}
	}
	return Symbol{}, false
}

const (
	objMagic   = "DFLOBJ01"
	maxSection = 64 << 20 // 64 MiB cap on any one section
	maxEntries = 1 << 20  // cap on table lengths
)

// ErrBadObject is returned when parsing malformed object bytes.
var ErrBadObject = errors.New("obj: malformed object file")

type writer struct {
	buf bytes.Buffer
}

func (w *writer) u8(v uint8)   { w.buf.WriteByte(v) }
func (w *writer) u64(v uint64) { w.buf.Write(binary.LittleEndian.AppendUint64(nil, v)) }
func (w *writer) i64(v int64)  { w.u64(uint64(v)) }

func (w *writer) str(s string) {
	w.u64(uint64(len(s)))
	w.buf.WriteString(s)
}

func (w *writer) bytes(b []byte) {
	w.u64(uint64(len(b)))
	w.buf.Write(b)
}

type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrBadObject, fmt.Sprintf(format, args...))
	}
}

func (r *reader) u8() uint8 {
	if r.err != nil {
		return 0
	}
	if r.off+1 > len(r.b) {
		r.fail("truncated at byte %d", r.off)
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.b) {
		r.fail("truncated at byte %d", r.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *reader) i64() int64 { return int64(r.u64()) }

func (r *reader) count(what string) int {
	n := r.u64()
	if n > maxEntries {
		r.fail("%s count %d exceeds limit", what, n)
		return 0
	}
	return int(n)
}

func (r *reader) str() string {
	n := r.u64()
	if r.err != nil {
		return ""
	}
	if n > maxSection || r.off+int(n) > len(r.b) {
		r.fail("string length %d out of range", n)
		return ""
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

func (r *reader) blob(what string) []byte {
	n := r.u64()
	if r.err != nil {
		return nil
	}
	if n > maxSection || r.off+int(n) > len(r.b) {
		r.fail("%s length %d out of range", what, n)
		return nil
	}
	b := make([]byte, n)
	copy(b, r.b[r.off:])
	r.off += int(n)
	return b
}

// Marshal serialises the object to its wire format.
func (o *Object) Marshal() []byte {
	var w writer
	w.buf.WriteString(objMagic)
	w.str(o.Entry)
	w.u8(uint8(o.PolicyMask))
	w.bytes(o.Text)
	w.bytes(o.Data)
	w.i64(o.BSSSize)

	w.u64(uint64(len(o.Symbols)))
	for _, s := range o.Symbols {
		w.str(s.Name)
		w.u8(uint8(s.Section))
		w.i64(s.Offset)
		w.i64(s.Size)
		w.u8(uint8(s.Kind))
	}
	w.u64(uint64(len(o.Relocs)))
	for _, rl := range o.Relocs {
		w.u8(uint8(rl.Section))
		w.i64(rl.Offset)
		w.str(rl.Symbol)
		w.i64(rl.Addend)
		w.u8(uint8(rl.Kind))
	}
	w.u64(uint64(len(o.BranchTargets)))
	for _, bt := range o.BranchTargets {
		w.str(bt.Symbol)
	}
	// The optional tails are appended only when needed so older objects
	// keep the exact byte encoding of the previous format revisions (and
	// their digests/cache keys). Layout: [secrets] [extension]. The
	// extension (policy-mask high byte + protocol table) forces the secret
	// count out even when zero, so a parser can tell the tails apart by
	// position alone.
	ext := o.PolicyMask > 0xff || o.Protocol != nil
	if len(o.Secrets) > 0 || ext {
		w.u64(uint64(len(o.Secrets)))
		for _, s := range o.Secrets {
			w.str(s)
		}
	}
	if ext {
		w.u8(uint8(o.PolicyMask >> 8))
		if p := o.Protocol; p != nil {
			w.u64(uint64(len(p.States)))
			w.i64(p.Start)
			for _, st := range p.States {
				w.str(st.Name)
				if st.Attested {
					w.u8(1)
				} else {
					w.u8(0)
				}
			}
			w.u64(uint64(len(p.Edges)))
			for _, e := range p.Edges {
				w.i64(e.From)
				w.i64(e.Event)
				w.i64(e.To)
			}
		} else {
			w.u64(0)
		}
	}
	return w.buf.Bytes()
}

// Unmarshal parses an object from its wire format, validating structural
// limits. It does not validate policy compliance; that is the verifier's job.
func Unmarshal(b []byte) (*Object, error) {
	if len(b) < len(objMagic) || string(b[:len(objMagic)]) != objMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadObject)
	}
	r := &reader{b: b, off: len(objMagic)}
	o := &Object{}
	o.Entry = r.str()
	o.PolicyMask = uint16(r.u8())
	o.Text = r.blob(".text")
	o.Data = r.blob(".data")
	o.BSSSize = r.i64()
	if o.BSSSize < 0 || o.BSSSize > maxSection {
		r.fail("bss size %d out of range", o.BSSSize)
	}

	nsym := r.count("symbol")
	if r.err == nil {
		o.Symbols = make([]Symbol, 0, nsym)
	}
	for i := 0; i < nsym && r.err == nil; i++ {
		var s Symbol
		s.Name = r.str()
		s.Section = Section(r.u8())
		s.Offset = r.i64()
		s.Size = r.i64()
		s.Kind = SymKind(r.u8())
		o.Symbols = append(o.Symbols, s)
	}
	nrel := r.count("reloc")
	if r.err == nil {
		o.Relocs = make([]Reloc, 0, nrel)
	}
	for i := 0; i < nrel && r.err == nil; i++ {
		var rl Reloc
		rl.Section = Section(r.u8())
		rl.Offset = r.i64()
		rl.Symbol = r.str()
		rl.Addend = r.i64()
		rl.Kind = RelocKind(r.u8())
		o.Relocs = append(o.Relocs, rl)
	}
	nbt := r.count("branch target")
	if r.err == nil {
		o.BranchTargets = make([]BranchTarget, 0, nbt)
	}
	for i := 0; i < nbt && r.err == nil; i++ {
		o.BranchTargets = append(o.BranchTargets, BranchTarget{Symbol: r.str()})
	}
	if r.err == nil && r.off < len(b) {
		nsec := r.count("secret")
		if r.err == nil && nsec > 0 {
			o.Secrets = make([]string, 0, nsec)
		}
		for i := 0; i < nsec && r.err == nil; i++ {
			o.Secrets = append(o.Secrets, r.str())
		}
	}
	if r.err == nil && r.off < len(b) {
		o.PolicyMask |= uint16(r.u8()) << 8
		nst := r.count("protocol state")
		if r.err == nil && nst > 0 {
			p := &policy.Protocol{Start: r.i64()}
			p.States = make([]policy.State, 0, nst)
			for i := 0; i < nst && r.err == nil; i++ {
				var st policy.State
				st.Name = r.str()
				st.Attested = r.u8() != 0
				p.States = append(p.States, st)
			}
			ne := r.count("protocol edge")
			if r.err == nil {
				p.Edges = make([]policy.Edge, 0, ne)
			}
			for i := 0; i < ne && r.err == nil; i++ {
				var e policy.Edge
				e.From = r.i64()
				e.Event = r.i64()
				e.To = r.i64()
				p.Edges = append(p.Edges, e)
			}
			o.Protocol = p
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(b) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadObject, len(b)-r.off)
	}
	if err := o.Validate(); err != nil {
		return nil, err
	}
	return o, nil
}

// Validate checks that the object's tables are consistent with its
// sections: symbols, relocations, branch targets, the secret table and the
// protocol all refer to defined, in-range entries. Unmarshal runs it on
// every object it parses; the assembler runs it on every object it builds.
func (o *Object) Validate() error {
	secLen := func(s Section) int64 {
		switch s {
		case SecText:
			return int64(len(o.Text))
		case SecData:
			return int64(len(o.Data))
		case SecBSS:
			return o.BSSSize
		default:
			return -1
		}
	}
	for _, s := range o.Symbols {
		n := secLen(s.Section)
		if n < 0 {
			return fmt.Errorf("%w: symbol %q in invalid section", ErrBadObject, s.Name)
		}
		if s.Offset < 0 || s.Size < 0 || s.Offset > n || s.Offset+s.Size > n {
			return fmt.Errorf("%w: symbol %q range [%d,%d) outside %s", ErrBadObject, s.Name, s.Offset, s.Offset+s.Size, s.Section)
		}
	}
	for _, rl := range o.Relocs {
		if rl.Kind != RelAbs64 {
			return fmt.Errorf("%w: unknown relocation kind %d", ErrBadObject, rl.Kind)
		}
		n := secLen(rl.Section)
		if rl.Section == SecBSS || n < 0 {
			return fmt.Errorf("%w: relocation in invalid section %s", ErrBadObject, rl.Section)
		}
		if rl.Offset < 0 || rl.Offset+8 > n {
			return fmt.Errorf("%w: relocation site %d outside %s", ErrBadObject, rl.Offset, rl.Section)
		}
		if _, ok := o.Symbol(rl.Symbol); !ok {
			return fmt.Errorf("%w: relocation against undefined symbol %q", ErrBadObject, rl.Symbol)
		}
		if rl.Addend < math.MinInt32 || rl.Addend > math.MaxInt32 {
			return fmt.Errorf("%w: relocation addend %d out of range", ErrBadObject, rl.Addend)
		}
	}
	for _, bt := range o.BranchTargets {
		if _, ok := o.Symbol(bt.Symbol); !ok {
			return fmt.Errorf("%w: branch target references undefined symbol %q", ErrBadObject, bt.Symbol)
		}
	}
	if o.Entry != "" {
		if _, ok := o.Symbol(o.Entry); !ok {
			return fmt.Errorf("%w: entry symbol %q undefined", ErrBadObject, o.Entry)
		}
	}
	seen := make(map[string]bool, len(o.Secrets))
	for _, name := range o.Secrets {
		if seen[name] {
			return fmt.Errorf("%w: secret %q listed twice", ErrBadObject, name)
		}
		seen[name] = true
		s, ok := o.Symbol(name)
		if !ok {
			return fmt.Errorf("%w: secret references undefined symbol %q", ErrBadObject, name)
		}
		if s.Kind != SymObj || (s.Section != SecData && s.Section != SecBSS) {
			return fmt.Errorf("%w: secret %q is not a data object", ErrBadObject, name)
		}
	}
	if p := o.Protocol; p != nil {
		// Structural rules only: the meta-rules (determinism, attestation
		// monotonicity, output gating) belong to the verifier's order pass.
		if err := p.Validate(); err != nil {
			return fmt.Errorf("%w: %v", ErrBadObject, err)
		}
	}
	return nil
}
