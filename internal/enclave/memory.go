// Package enclave models the SGX memory and lifecycle semantics the
// DEFLECTION design depends on: an ELRANGE of protected memory with
// page-granular R/W/X permissions (fixed after launch, as under SGXv1),
// state-save areas written by asynchronous enclave exits, guard pages, and a
// measured launch that anchors remote attestation.
//
// Untrusted memory outside ELRANGE is part of the same address space and is
// freely readable and writable — writing enclave secrets there is
// exactly the leak channel policies P1-P5 exist to close, so the model must
// allow such writes at the architectural level and rely on verified
// annotations to prevent them.
package enclave

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// PageSize is the granularity of memory permissions.
const PageSize = 4096

// Perm is a page permission bitmask.
type Perm uint8

// Page permissions.
const (
	PermR Perm = 1 << iota
	PermW
	PermX

	PermRW  = PermR | PermW
	PermRX  = PermR | PermX
	PermRWX = PermR | PermW | PermX
)

// String renders the permission as "rwx" flags.
func (p Perm) String() string {
	b := []byte("---")
	if p&PermR != 0 {
		b[0] = 'r'
	}
	if p&PermW != 0 {
		b[1] = 'w'
	}
	if p&PermX != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// Access is the kind of memory access that faulted.
type Access uint8

// Access kinds.
const (
	AccessRead Access = iota + 1
	AccessWrite
	AccessExec
)

// String names the access kind.
func (a Access) String() string {
	switch a {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	case AccessExec:
		return "exec"
	default:
		return "access"
	}
}

// Fault describes a failed memory access.
type Fault struct {
	Addr   uint64
	Access Access
	Size   int
}

// Error implements error.
func (f *Fault) Error() string {
	return fmt.Sprintf("enclave: %s fault at %#x (size %d)", f.Access, f.Addr, f.Size)
}

// Memory is a page-permissioned address space starting at Base, backed by a
// demand-paged table: a page stays nil, and reads as zeros, until the first
// write that stores a non-zero byte into it materialises it — the software
// analogue of SGX2/EDMM adding an EPC page (EAUG) on first use instead of
// committing the whole ELRANGE at launch. Permissions, bounds and faults do
// not depend on whether a page is materialised. The zero value is not
// usable; construct with NewMemory.
type Memory struct {
	base  uint64
	pages []*[PageSize]byte // nil = all zeros
	perms []Perm

	// codeGen counts events that may invalidate decoded instructions: a
	// successful write overlapping an executable page, and every SetPerm.
	// A CPU caching decodings compares it against its own copy.
	codeGen uint64
}

// zeroPage backs reads of unmaterialised pages and is the reference for
// zero-chunk tests. It is never written.
var zeroPage [PageSize]byte

// NewMemory creates size bytes of unmapped memory based at base. base and
// size must be page aligned.
func NewMemory(base, size uint64) (*Memory, error) {
	if base%PageSize != 0 || size%PageSize != 0 {
		return nil, fmt.Errorf("enclave: base %#x / size %#x not page aligned", base, size)
	}
	if size == 0 {
		return nil, fmt.Errorf("enclave: zero-size memory")
	}
	return &Memory{
		base:  base,
		pages: make([]*[PageSize]byte, size/PageSize),
		perms: make([]Perm, size/PageSize),
	}, nil
}

// Base returns the lowest mapped address.
func (m *Memory) Base() uint64 { return m.base }

// End returns one past the highest mapped address.
func (m *Memory) End() uint64 { return m.base + uint64(len(m.perms))*PageSize }

// CodeGen returns the code-write generation: it changes whenever a write
// overlaps an executable page or any page permission is set, so a decoded
// instruction cached under an older generation may be stale.
func (m *Memory) CodeGen() uint64 { return m.codeGen }

// SetPerm sets the permission of all pages overlapping [lo, hi).
func (m *Memory) SetPerm(lo, hi uint64, p Perm) error {
	if lo < m.base || hi > m.End() || lo > hi {
		return fmt.Errorf("enclave: SetPerm range [%#x,%#x) outside memory", lo, hi)
	}
	for pg := (lo - m.base) / PageSize; pg < (hi-m.base+PageSize-1)/PageSize; pg++ {
		m.perms[pg] = p
	}
	m.codeGen++
	return nil
}

// PermAt returns the permission of the page containing addr.
func (m *Memory) PermAt(addr uint64) Perm {
	if addr < m.base || addr >= m.End() {
		return 0
	}
	return m.perms[(addr-m.base)/PageSize]
}

func (m *Memory) check(addr uint64, size int, want Perm, acc Access) *Fault {
	if size <= 0 || addr < m.base || addr+uint64(size) > m.End() || addr+uint64(size) < addr {
		return &Fault{Addr: addr, Access: acc, Size: size}
	}
	first := (addr - m.base) / PageSize
	last := (addr + uint64(size) - 1 - m.base) / PageSize
	for pg := first; pg <= last; pg++ {
		if m.perms[pg]&want != want {
			return &Fault{Addr: addr, Access: acc, Size: size}
		}
	}
	return nil
}

// load copies memory at offset off (from base) into out; the range must
// already be checked.
func (m *Memory) load(off uint64, out []byte) {
	for len(out) > 0 {
		pg, in := off/PageSize, off%PageSize
		n := copy(out, zeroPage[in:])
		if p := m.pages[pg]; p != nil {
			copy(out[:n], p[in:])
		}
		out, off = out[n:], off+uint64(n)
	}
}

// store copies b into memory at offset off (from base); the range must
// already be checked. A zero chunk aimed at an unmaterialised page is
// skipped, so zero-filled regions such as .bss never allocate.
func (m *Memory) store(off uint64, b []byte) {
	code := false
	for len(b) > 0 {
		pg, in := off/PageSize, off%PageSize
		n := min(len(b), PageSize-int(in))
		code = code || m.perms[pg]&PermX != 0
		p := m.pages[pg]
		if p == nil && !bytes.Equal(b[:n], zeroPage[:n]) {
			p = new([PageSize]byte)
			m.pages[pg] = p
		}
		if p != nil {
			copy(p[in:], b[:n])
		}
		b, off = b[n:], off+uint64(n)
	}
	if code {
		m.codeGen++
	}
}

// Read copies size bytes at addr into a fresh slice.
func (m *Memory) Read(addr uint64, size int) ([]byte, *Fault) {
	if f := m.check(addr, size, PermR, AccessRead); f != nil {
		return nil, f
	}
	out := make([]byte, size)
	m.load(addr-m.base, out)
	return out, nil
}

// Write copies b into memory at addr.
func (m *Memory) Write(addr uint64, b []byte) *Fault {
	if f := m.check(addr, len(b), PermW, AccessWrite); f != nil {
		return f
	}
	m.store(addr-m.base, b)
	return nil
}

// Read8 loads one byte.
func (m *Memory) Read8(addr uint64) (uint8, *Fault) {
	if f := m.check(addr, 1, PermR, AccessRead); f != nil {
		return 0, f
	}
	off := addr - m.base
	if p := m.pages[off/PageSize]; p != nil {
		return p[off%PageSize], nil
	}
	return 0, nil
}

// Write8 stores one byte.
func (m *Memory) Write8(addr uint64, v uint8) *Fault {
	if f := m.check(addr, 1, PermW, AccessWrite); f != nil {
		return f
	}
	m.store(addr-m.base, []byte{v})
	return nil
}

// Read64 loads a little-endian 64-bit word.
func (m *Memory) Read64(addr uint64) (uint64, *Fault) {
	// Fast path: the word lies inside one page. off wraps for addr < base,
	// which fails the page bound and falls through to the checked path.
	off := addr - m.base
	if pg, in := off/PageSize, off%PageSize; in <= PageSize-8 && pg < uint64(len(m.perms)) {
		if m.perms[pg]&PermR == 0 {
			return 0, &Fault{Addr: addr, Access: AccessRead, Size: 8}
		}
		if p := m.pages[pg]; p != nil {
			return binary.LittleEndian.Uint64(p[in : in+8]), nil
		}
		return 0, nil
	}
	if f := m.check(addr, 8, PermR, AccessRead); f != nil {
		return 0, f
	}
	var buf [8]byte
	m.load(off, buf[:])
	return binary.LittleEndian.Uint64(buf[:]), nil
}

// Write64 stores a little-endian 64-bit word.
func (m *Memory) Write64(addr uint64, v uint64) *Fault {
	off := addr - m.base
	if pg, in := off/PageSize, off%PageSize; in <= PageSize-8 && pg < uint64(len(m.perms)) {
		perm := m.perms[pg]
		if perm&PermW == 0 {
			return &Fault{Addr: addr, Access: AccessWrite, Size: 8}
		}
		if perm&PermX != 0 {
			m.codeGen++
		}
		p := m.pages[pg]
		if p == nil {
			if v == 0 {
				return nil
			}
			p = new([PageSize]byte)
			m.pages[pg] = p
		}
		binary.LittleEndian.PutUint64(p[in:in+8], v)
		return nil
	}
	if f := m.check(addr, 8, PermW, AccessWrite); f != nil {
		return f
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	m.store(off, buf[:])
	return nil
}

// FetchWindow returns up to size bytes of executable memory starting at
// addr, for instruction decoding. A window inside one page aliases memory
// (or the shared zero page) and must not be written; a window straddling a
// page boundary is a copy.
func (m *Memory) FetchWindow(addr uint64, size int) ([]byte, *Fault) {
	if addr < m.base || addr >= m.End() {
		return nil, &Fault{Addr: addr, Access: AccessExec, Size: size}
	}
	if m.PermAt(addr)&PermX == 0 {
		return nil, &Fault{Addr: addr, Access: AccessExec, Size: size}
	}
	end := addr + uint64(size)
	if end > m.End() {
		end = m.End()
	}
	// Clamp the window at the first non-executable page so decoding cannot
	// read across an X boundary.
	for pg := addr/PageSize + 1; pg*PageSize < end; pg++ {
		if m.PermAt(pg*PageSize)&PermX == 0 {
			end = pg * PageSize
			break
		}
	}
	off, n := addr-m.base, end-addr
	if in := off % PageSize; in+n <= PageSize {
		if p := m.pages[off/PageSize]; p != nil {
			return p[in : in+n], nil
		}
		return zeroPage[in : in+n], nil
	}
	win := make([]byte, n)
	m.load(off, win)
	return win, nil
}
