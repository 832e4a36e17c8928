package enclave

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"slices"
	"testing"
)

// residentPages counts materialised pages.
func (m *Memory) residentPages() int {
	n := 0
	for _, p := range m.pages {
		if p != nil {
			n++
		}
	}
	return n
}

// flatMemory is the reference model for FuzzMemory: one flat byte slice
// with the semantics Memory had before it was demand-paged. gen follows
// the code-write generation contract: it moves on every successful write
// overlapping an executable page and on every successful SetPerm. dirty
// marks the pages a successful write has stored a non-zero byte into: the
// pages Memory must have materialised, and no others.
type flatMemory struct {
	base  uint64
	data  []byte
	perms []Perm
	gen   uint64
	dirty []bool
}

func (m *flatMemory) end() uint64 { return m.base + uint64(len(m.data)) }

func (m *flatMemory) permAt(addr uint64) Perm {
	if addr < m.base || addr >= m.end() {
		return 0
	}
	return m.perms[(addr-m.base)/PageSize]
}

func (m *flatMemory) setPerm(lo, hi uint64, p Perm) bool {
	if lo < m.base || hi > m.end() || lo > hi {
		return false
	}
	for pg := (lo - m.base) / PageSize; pg < (hi-m.base+PageSize-1)/PageSize; pg++ {
		m.perms[pg] = p
	}
	m.gen++
	return true
}

func (m *flatMemory) check(addr uint64, size int, want Perm, acc Access) *Fault {
	if size <= 0 || addr < m.base || addr+uint64(size) > m.end() || addr+uint64(size) < addr {
		return &Fault{Addr: addr, Access: acc, Size: size}
	}
	for pg := (addr - m.base) / PageSize; pg <= (addr+uint64(size)-1-m.base)/PageSize; pg++ {
		if m.perms[pg]&want != want {
			return &Fault{Addr: addr, Access: acc, Size: size}
		}
	}
	return nil
}

func (m *flatMemory) read(addr uint64, size int) ([]byte, *Fault) {
	if f := m.check(addr, size, PermR, AccessRead); f != nil {
		return nil, f
	}
	return append([]byte(nil), m.data[addr-m.base:addr-m.base+uint64(size)]...), nil
}

func (m *flatMemory) write(addr uint64, b []byte) *Fault {
	if f := m.check(addr, len(b), PermW, AccessWrite); f != nil {
		return f
	}
	copy(m.data[addr-m.base:], b)
	code := false
	for i, v := range b {
		a := addr + uint64(i)
		code = code || m.permAt(a)&PermX != 0
		if v != 0 {
			m.dirty[(a-m.base)/PageSize] = true
		}
	}
	if code {
		m.gen++
	}
	return nil
}

func (m *flatMemory) fetchWindow(addr uint64, size int) ([]byte, *Fault) {
	if addr < m.base || addr >= m.end() || m.permAt(addr)&PermX == 0 {
		return nil, &Fault{Addr: addr, Access: AccessExec, Size: size}
	}
	end := addr + uint64(size)
	if end > m.end() {
		end = m.end()
	}
	for pg := addr/PageSize + 1; pg*PageSize < end; pg++ {
		if m.permAt(pg*PageSize)&PermX == 0 {
			end = pg * PageSize
			break
		}
	}
	return m.data[addr-m.base : end-m.base], nil
}

// fuzzOps decodes a fuzz input into memory operations; it yields zeros once
// the input is exhausted.
type fuzzOps struct {
	in    []byte
	base  uint64
	pages int
}

func (r *fuzzOps) byte() byte {
	if len(r.in) == 0 {
		return 0
	}
	b := r.in[0]
	r.in = r.in[1:]
	return b
}

func (r *fuzzOps) u64() uint64 {
	var b [8]byte
	for i := range b {
		b[i] = r.byte()
	}
	return binary.LittleEndian.Uint64(b[:])
}

// addr picks an address biased to page edges: a page from one below the
// memory to one past it (or the top of the address space, for overflow),
// then an offset at the start, at the end or anywhere in that page.
func (r *fuzzOps) addr() uint64 {
	sel, o := int(r.byte()), uint64(r.byte())
	var off uint64
	switch o % 4 {
	case 0:
		off = (o >> 2) % 8
	case 1:
		off = PageSize - 1 - (o>>2)%8
	case 2:
		off = PageSize/2 + o>>2
	default:
		off = uint64(r.byte())<<4 | o>>4
	}
	pg := sel%(r.pages+3) - 1
	if pg == r.pages+1 {
		return ^uint64(0) - (o>>2)%16
	}
	return r.base + uint64(pg)*PageSize + off
}

// size picks an access size: mostly short, sometimes spanning pages,
// occasionally zero or negative.
func (r *fuzzOps) size() int {
	s := int(r.byte())
	switch {
	case s == 0xff:
		return -1
	case s&0x80 != 0:
		return (s & 0x7f) * 97
	default:
		return s & 0x1f
	}
}

// data builds a write payload: all zeros, one repeated byte, or bytes drawn
// from the input.
func (r *fuzzOps) data(n int) []byte {
	b := make([]byte, max(n, 0))
	switch r.byte() % 3 {
	case 1:
		v := r.byte()
		for i := range b {
			b[i] = v
		}
	case 2:
		for i := range b {
			b[i] = r.byte()
		}
	}
	return b
}

func sameFault(a, b *Fault) bool {
	if a == nil || b == nil {
		return a == b
	}
	return *a == *b
}

// FuzzMemory runs one random operation sequence against Memory and the
// flat reference model and requires identical values, windows, faults,
// code-write generations and final contents.
func FuzzMemory(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 2, 1, 1, 0, 0, 0, 0, 0, 0, 0, 9, 2, 2, 1, 1})
	f.Add([]byte{1, 3, 5, 0x85, 1, 7, 0, 3, 5, 0x85, 6, 3, 5, 9})
	f.Add(bytes.Repeat([]byte{5, 4, 1, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88}, 4))
	f.Add([]byte{7, 2, 0, 0x82, 7, 0, 3, 1, 0xff, 8, 6, 1, 16})
	f.Fuzz(func(t *testing.T, in []byte) {
		const base, npages = 16 * PageSize, 6
		m, err := NewMemory(base, npages*PageSize)
		if err != nil {
			t.Fatal(err)
		}
		ref := &flatMemory{
			base:  base,
			data:  make([]byte, npages*PageSize),
			perms: make([]Perm, npages),
			dirty: make([]bool, npages),
		}
		// R, RW, RWX, unmapped, RWX, RW: every permission boundary kind
		// appears, including two code pages split by an unmapped one.
		for pg, p := range []Perm{PermR, PermRW, PermRWX, 0, PermRWX, PermRW} {
			lo := base + uint64(pg)*PageSize
			if err := m.SetPerm(lo, lo+PageSize, p); err != nil {
				t.Fatal(err)
			}
			ref.setPerm(lo, lo+PageSize, p)
		}
		r := &fuzzOps{in: in, base: base, pages: npages}
		for step := 0; len(r.in) > 0 && step < 256; step++ {
			op, addr := r.byte()%8, r.addr()
			switch op {
			case 0:
				n := r.size()
				got, gf := m.Read(addr, n)
				want, wf := ref.read(addr, n)
				if !sameFault(gf, wf) || !bytes.Equal(got, want) {
					t.Fatalf("step %d: Read(%#x, %d) = %v, %v; want %v, %v", step, addr, n, got, gf, want, wf)
				}
			case 1:
				b := r.data(r.size())
				if gf, wf := m.Write(addr, b), ref.write(addr, b); !sameFault(gf, wf) {
					t.Fatalf("step %d: Write(%#x, %d bytes) = %v, want %v", step, addr, len(b), gf, wf)
				}
			case 2:
				got, gf := m.Read8(addr)
				want, wf := ref.read(addr, 1)
				if !sameFault(gf, wf) || (wf == nil && got != want[0]) {
					t.Fatalf("step %d: Read8(%#x) = %d, %v; want %v, %v", step, addr, got, gf, want, wf)
				}
			case 3:
				v := r.byte() * (r.byte() & 1)
				if gf, wf := m.Write8(addr, v), ref.write(addr, []byte{v}); !sameFault(gf, wf) {
					t.Fatalf("step %d: Write8(%#x) = %v, want %v", step, addr, gf, wf)
				}
			case 4:
				got, gf := m.Read64(addr)
				want, wf := ref.read(addr, 8)
				if !sameFault(gf, wf) || (wf == nil && got != binary.LittleEndian.Uint64(want)) {
					t.Fatalf("step %d: Read64(%#x) = %#x, %v; want %x, %v", step, addr, got, gf, want, wf)
				}
			case 5:
				var v uint64
				if r.byte()&1 != 0 {
					v = r.u64()
				}
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], v)
				if gf, wf := m.Write64(addr, v), ref.write(addr, b[:]); !sameFault(gf, wf) {
					t.Fatalf("step %d: Write64(%#x) = %v, want %v", step, addr, gf, wf)
				}
			case 6:
				n := max(r.size(), 0)
				got, gf := m.FetchWindow(addr, n)
				want, wf := ref.fetchWindow(addr, n)
				if !sameFault(gf, wf) || len(got) != len(want) || !bytes.Equal(got, want) {
					t.Fatalf("step %d: FetchWindow(%#x, %d) = %x, %v; want %x, %v", step, addr, n, got, gf, want, wf)
				}
			case 7:
				hi, p := addr+uint64(r.size()), Perm(r.byte()%8)
				if gerr, ok := m.SetPerm(addr, hi, p), ref.setPerm(addr, hi, p); (gerr == nil) != ok {
					t.Fatalf("step %d: SetPerm(%#x, %#x, %v) = %v, reference ok %v", step, addr, hi, p, gerr, ok)
				}
			}
			if m.CodeGen() != ref.gen {
				t.Fatalf("step %d (op %d at %#x): code generation %d, want %d", step, op, addr, m.CodeGen(), ref.gen)
			}
		}
		all := make([]byte, npages*PageSize)
		m.load(0, all)
		if !bytes.Equal(all, ref.data) {
			t.Fatal("final contents differ from the reference")
		}
		if !slices.Equal(m.perms, ref.perms) {
			t.Fatalf("final permissions %v, want %v", m.perms, ref.perms)
		}
		for pg, p := range m.pages {
			if (p != nil) != ref.dirty[pg] {
				t.Fatalf("page %d materialised = %v, but a non-zero byte was stored into it = %v", pg, p != nil, ref.dirty[pg])
			}
		}
	})
}

func TestMemory64AtPageEdges(t *testing.T) {
	e := newTestEnclave(t)
	for k := uint64(PageSize - 8); k < PageSize; k++ {
		// One fresh heap page pair per offset; k = PageSize-8 is the last
		// in-page word, the others straddle into the next page.
		addr := e.Layout.HeapBase + 2*(k-(PageSize-8))*PageSize + k
		v := 0x0102030405060708 * (k + 1)
		if f := e.Mem.Write64(addr, v); f != nil {
			t.Fatalf("offset %d: write: %v", k, f)
		}
		if got, f := e.Mem.Read64(addr); f != nil || got != v {
			t.Fatalf("offset %d: Read64 = %#x, %v; want %#x", k, got, f, v)
		}
		got, f := e.Mem.Read(addr-1, 10)
		var want [10]byte
		binary.LittleEndian.PutUint64(want[1:9], v)
		if f != nil || !bytes.Equal(got, want[:]) {
			t.Fatalf("offset %d: bytes around the word = %x, %v; want %x", k, got, f, want)
		}
		for i := uint64(0); i < 8; i++ {
			if b, f := e.Mem.Read8(addr + i); f != nil || b != want[1+i] {
				t.Fatalf("offset %d: Read8(+%d) = %d, %v", k, i, b, f)
			}
		}
	}
	// A word straddling the last heap page into the guard page faults with
	// the exact address, kind and size, and materialises nothing.
	before := e.Mem.residentPages()
	for k := uint64(PageSize - 7); k < PageSize; k++ {
		addr := e.Layout.HeapEnd - PageSize + k
		if f := e.Mem.Write64(addr, 1); f == nil || *f != (Fault{Addr: addr, Access: AccessWrite, Size: 8}) {
			t.Fatalf("offset %d: straddling write into guard = %v", k, f)
		}
		if _, f := e.Mem.Read64(addr); f == nil || *f != (Fault{Addr: addr, Access: AccessRead, Size: 8}) {
			t.Fatalf("offset %d: straddling read into guard = %v", k, f)
		}
	}
	if after := e.Mem.residentPages(); after != before {
		t.Fatalf("faulting writes materialised %d pages", after-before)
	}
}

func TestZeroWritesMaterialiseNoPage(t *testing.T) {
	e := newTestEnclave(t)
	l := e.Layout
	// The shape of an installed image: a large all-zero .bss.
	if f := e.Mem.Write(l.HeapBase+8, make([]byte, 3_900_000)); f != nil {
		t.Fatal(f)
	}
	if f := e.Mem.Write64(l.StackHi-8, 0); f != nil {
		t.Fatal(f)
	}
	if f := e.Mem.Write64(l.CodeBase+PageSize-4, 0); f != nil {
		t.Fatal(f)
	}
	if f := e.Mem.Write8(l.UntrustedBase, 0); f != nil {
		t.Fatal(f)
	}
	if n := e.Mem.residentPages(); n != 0 {
		t.Fatalf("all-zero writes materialised %d pages", n)
	}
	if f := e.Mem.Write8(l.HeapBase+5, 1); f != nil {
		t.Fatal(f)
	}
	if n := e.Mem.residentPages(); n != 1 {
		t.Fatalf("one non-zero byte materialised %d pages, want 1", n)
	}
	// A zero store into a materialised page still lands.
	if f := e.Mem.Write8(l.HeapBase+5, 0); f != nil {
		t.Fatal(f)
	}
	if b, f := e.Mem.Read8(l.HeapBase + 5); f != nil || b != 0 {
		t.Fatalf("zero store lost: %d, %v", b, f)
	}
}

func TestUntouchedMemoryReadsZero(t *testing.T) {
	e := newTestEnclave(t)
	l := e.Layout
	if f := e.Mem.Write64(l.HeapBase+PageSize, ^uint64(0)); f != nil {
		t.Fatal(f)
	}
	for _, r := range []struct{ lo, n uint64 }{
		{l.CodeBase, 3 * PageSize},
		{l.HeapBase, PageSize},
		{l.HeapBase + 2*PageSize, 3 * PageSize},
		{l.StackHi - 2*PageSize, 2 * PageSize},
		{l.UntrustedBase, PageSize + 16},
	} {
		got, f := e.Mem.Read(r.lo, int(r.n))
		if f != nil || !bytes.Equal(got, make([]byte, r.n)) {
			t.Fatalf("untouched [%#x,+%d) not zero (fault %v)", r.lo, r.n, f)
		}
		if v, f := e.Mem.Read64(r.lo + r.n - 8); f != nil || v != 0 {
			t.Fatalf("Read64 at %#x = %#x, %v", r.lo+r.n-8, v, f)
		}
	}
	for _, addr := range []uint64{l.CodeBase, l.CodeBase + PageSize - 5} {
		win, f := e.Mem.FetchWindow(addr, 16)
		if f != nil || !bytes.Equal(win, make([]byte, 16)) {
			t.Fatalf("FetchWindow(%#x) = %x, %v", addr, win, f)
		}
	}
}

func TestFetchWindowAcrossPages(t *testing.T) {
	e := newTestEnclave(t)
	edge := e.Layout.CodeBase + PageSize
	code := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if f := e.Mem.Write(edge-4, code); f != nil {
		t.Fatal(f)
	}
	if win, f := e.Mem.FetchWindow(edge-4, len(code)); f != nil || !bytes.Equal(win, code) {
		t.Fatalf("straddling window = %x, %v; want %x", win, f, code)
	}
	if win, f := e.Mem.FetchWindow(edge+2, 4); f != nil || !bytes.Equal(win, code[6:]) {
		t.Fatalf("in-page window = %x, %v; want %x", win, f, code[6:])
	}
}

func TestCodeGenTracksCodeWrites(t *testing.T) {
	e := newTestEnclave(t)
	l := e.Layout
	gen := e.Mem.CodeGen()
	if e.Mem.Write64(l.HeapBase, 7); e.Mem.CodeGen() != gen {
		t.Fatal("a data write moved the code generation")
	}
	if f := e.Mem.Write64(l.BrTableBase, 7); f == nil || e.Mem.CodeGen() != gen {
		t.Fatal("a faulting write moved the code generation")
	}
	if e.Mem.Write8(l.CodeEnd-1, 0); e.Mem.CodeGen() == gen {
		t.Fatal("a write to a code page left the code generation unchanged")
	}
	gen = e.Mem.CodeGen()
	if err := e.Mem.SetPerm(l.CodeBase, l.CodeEnd, PermRX); err != nil || e.Mem.CodeGen() == gen {
		t.Fatalf("SetPerm left the code generation unchanged (err %v)", err)
	}
}

func TestNewAllocatesLittle(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e, err := New(DefaultConfig(), []byte("alloc"))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 64<<10 {
		t.Fatalf("New(DefaultConfig()) allocated %d bytes, want < 64 KiB", n)
	}
	runtime.KeepAlive(e)
}
