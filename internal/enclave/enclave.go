package enclave

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
)

// Config sizes the regions of an enclave. All sizes are rounded up to page
// multiples. The zero value is not usable; start from DefaultConfig or
// PaperConfig.
type Config struct {
	CodeCap      uint64 // capacity reserved for the relocated target binary
	BrTableCap   uint64 // capacity for the indirect-branch target table
	ShadowCap    uint64 // capacity for the shadow stack(s)
	StackCap     uint64 // capacity for the target program's stack(s)
	HeapCap      uint64 // capacity for globals + heap
	UntrustedCap uint64 // untrusted (out-of-ELRANGE) memory to model

	// Threads is the number of enclave threads (TCS slots) to provision
	// (0 or 1 = single-threaded). The stack and shadow-stack regions are
	// carved into per-thread sub-regions separated by guard pages, and one
	// SSA frame is mapped per thread — the multi-threading extension of
	// the paper's Section VII.
	Threads int

	// SGXv2 enables EDMM-style dynamic page permissions: code pages stay
	// RW until the verified, rewritten binary is installed and are then
	// sealed RX, so DEP is enforced in hardware and P4's software
	// check becomes belt-and-braces (paper Section VII, citing [64]).
	SGXv2 bool
}

// DefaultConfig is a laptop-friendly configuration used by tests and
// examples.
func DefaultConfig() Config {
	return Config{
		CodeCap:      2 << 20,
		BrTableCap:   256 << 10,
		ShadowCap:    256 << 10,
		StackCap:     1 << 20,
		HeapCap:      8 << 20,
		UntrustedCap: 1 << 20,
	}
}

// PaperConfig mirrors the memory budget reported in Section V-B of the
// paper: a 96 MB bootstrap enclave with 1 MB shadow stack, 1 MB indirect
// branch table, 64 MB data and 28 MB service binary code.
func PaperConfig() Config {
	return Config{
		CodeCap:      28 << 20,
		BrTableCap:   1 << 20,
		ShadowCap:    1 << 20,
		StackCap:     4 << 20,
		HeapCap:      60 << 20,
		UntrustedCap: 8 << 20,
	}
}

// Layout is the resolved address map of a launched enclave.
//
// Region order (ascending addresses):
//
//	code | branch table | guard | shadow stack | guard | SSA | guard |
//	heap/globals | guard | stack | guard || untrusted
//
// The contiguous [StoreLo, StoreHi) range spans heap + stack (with the guard
// page between them closed by page permissions); everything security-critical
// — code (P4), branch table, shadow stack and SSA (P3) — lies below StoreLo,
// and everything outside ELRANGE (P1) lies at or above StoreHi. A single
// lower/upper bound pair in the store annotation therefore enforces P1, P3
// and P4 at once, which is why the paper reports P3/P4 as free once P1/P2
// are paid for.
type Layout struct {
	ELRBase uint64
	ELREnd  uint64

	CodeBase uint64
	CodeEnd  uint64

	BrTableBase uint64
	BrTableEnd  uint64

	ShadowBase uint64
	ShadowEnd  uint64

	SSABase uint64
	SSAEnd  uint64

	HeapBase uint64
	HeapEnd  uint64

	StackLo uint64
	StackHi uint64

	UntrustedBase uint64
	UntrustedEnd  uint64

	// Threads is the number of provisioned enclave threads (>= 1). The
	// stack, shadow-stack and SSA regions above are carved evenly into
	// per-thread sub-regions; use the *For accessors.
	Threads int

	// SGXv2 records whether dynamic page permissions are available.
	SGXv2 bool
}

// StoreLo returns the lowest address the target program may store to.
func (l Layout) StoreLo() uint64 { return l.HeapBase }

// StoreHi returns one past the highest address the target program may store
// to.
func (l Layout) StoreHi() uint64 { return l.StackHi }

// SSAMarkerAddr is where the P6 annotation plants its marker: the slot the
// hardware overwrites with RAX on an asynchronous exit.
func (l Layout) SSAMarkerAddr() uint64 { return l.SSABase }

// SSARegAddr returns the SSA save slot of general purpose register r.
func (l Layout) SSARegAddr(r int) uint64 { return l.SSABase + uint64(r)*8 }

// SSARIPAddr is the SSA save slot of the interrupted RIP.
func (l Layout) SSARIPAddr() uint64 { return l.SSABase + 16*8 }

// AEXCountAddr is the in-SSA-page slot where the P6 annotation accumulates
// the observed AEX count. It lies after the architectural save area, so
// hardware AEX writes never clobber it.
func (l Layout) AEXCountAddr() uint64 { return l.SSABase + 17*8 }

// StackHiFor returns the initial stack pointer of thread i. Each thread's
// stack slot begins with a guard page (stacks grow down into it on
// overflow).
func (l Layout) StackHiFor(i int) uint64 {
	if l.Threads <= 1 {
		return l.StackHi
	}
	slot := (l.StackHi - l.StackLo) / uint64(l.Threads) / PageSize * PageSize
	return l.StackLo + uint64(i+1)*slot
}

// StackLoFor returns the lowest usable stack address of thread i (just
// above the slot's guard page).
func (l Layout) StackLoFor(i int) uint64 {
	if l.Threads <= 1 {
		return l.StackLo
	}
	slot := (l.StackHi - l.StackLo) / uint64(l.Threads) / PageSize * PageSize
	return l.StackLo + uint64(i)*slot + PageSize
}

// ShadowBaseFor returns the shadow-stack base of thread i. Each thread's
// shadow slot ends with a guard page (shadow stacks grow up into it on
// overflow).
func (l Layout) ShadowBaseFor(i int) uint64 {
	if l.Threads <= 1 {
		return l.ShadowBase
	}
	slot := (l.ShadowEnd - l.ShadowBase) / uint64(l.Threads) / PageSize * PageSize
	return l.ShadowBase + uint64(i)*slot
}

// SSABaseFor returns the SSA frame of thread i (one page per thread).
func (l Layout) SSABaseFor(i int) uint64 { return l.SSABase + uint64(i)*PageSize }

func pages(n uint64) uint64 { return (n + PageSize - 1) / PageSize * PageSize }

// Enclave is a launched enclave instance: its memory, its address map and
// its launch-time measurement.
type Enclave struct {
	Mem    *Memory
	Layout Layout

	measurement [32]byte
}

// ELRBaseDefault is where ELRANGE begins in the simulated address space.
const ELRBaseDefault = 0x0100_0000

// Layout resolves the address map an enclave of this configuration gets:
// the region arithmetic of New without allocating any memory, so a binary
// can be relocated and verified for an enclave before (or without) one
// being launched.
func (cfg Config) Layout() Layout {
	var l Layout
	l.Threads = max(cfg.Threads, 1)
	l.SGXv2 = cfg.SGXv2
	cur := uint64(ELRBaseDefault)
	l.ELRBase = cur

	take := func(n uint64) (lo, hi uint64) {
		lo = cur
		cur += pages(n)
		return lo, cur
	}
	guard := func() { cur += PageSize }

	l.CodeBase, l.CodeEnd = take(cfg.CodeCap)
	l.BrTableBase, l.BrTableEnd = take(cfg.BrTableCap)
	guard()
	l.ShadowBase, l.ShadowEnd = take(cfg.ShadowCap)
	guard()
	l.SSABase, l.SSAEnd = take(uint64(l.Threads) * PageSize)
	guard()
	l.HeapBase, l.HeapEnd = take(cfg.HeapCap)
	guard()
	l.StackLo, l.StackHi = take(cfg.StackCap)
	guard()
	l.ELREnd = cur
	l.UntrustedBase, l.UntrustedEnd = take(cfg.UntrustedCap)
	return l
}

// New builds an enclave: maps all regions of cfg.Layout(), applies SGXv1
// page permissions (code pages RWX because permissions cannot change after
// launch and the target binary is loaded dynamically — the reason software
// DEP/P4 exists), and computes the launch measurement over the consumer
// identity and the layout.
func New(cfg Config, consumerIdentity []byte) (*Enclave, error) {
	l := cfg.Layout()
	mem, err := NewMemory(l.ELRBase, l.UntrustedEnd-l.ELRBase)
	if err != nil {
		return nil, fmt.Errorf("enclave: %w", err)
	}
	set := func(lo, hi uint64, p Perm) {
		if err2 := mem.SetPerm(lo, hi, p); err == nil && err2 != nil {
			err = err2
		}
	}
	codePerm := PermRWX // SGXv1: loaded code needs RWX
	if cfg.SGXv2 {
		codePerm = PermRW // sealed RX when the verified binary is installed
	}
	set(l.CodeBase, l.CodeEnd, codePerm)
	set(l.BrTableBase, l.BrTableEnd, PermR)
	set(l.ShadowBase, l.ShadowEnd, PermRW)
	set(l.SSABase, l.SSAEnd, PermRW)
	set(l.HeapBase, l.HeapEnd, PermRW)
	set(l.StackLo, l.StackHi, PermRW)
	set(l.UntrustedBase, l.UntrustedEnd, PermRW)
	// Per-thread guard pages: below each thread's stack slot and above
	// each thread's shadow slot.
	if l.Threads > 1 {
		for i := 0; i < l.Threads; i++ {
			set(l.StackLoFor(i)-PageSize, l.StackLoFor(i), 0)
			shadowSlot := (l.ShadowEnd - l.ShadowBase) / uint64(l.Threads) / PageSize * PageSize
			guardLo := l.ShadowBaseFor(i) + shadowSlot - PageSize
			set(guardLo, guardLo+PageSize, 0)
		}
	}
	if err != nil {
		return nil, err
	}

	e := &Enclave{Mem: mem, Layout: l}
	e.measurement = measure(consumerIdentity, l)
	return e, nil
}

// measure computes MRENCLAVE-style launch measurement: a hash over the
// consumer's identity (its code, configuration and policy manifest) and the
// initial memory layout. The target binary is deliberately NOT part of the
// measurement — it is loaded after attestation, which is the whole point of
// the DEFLECTION model.
func measure(consumerIdentity []byte, l Layout) [32]byte {
	h := sha256.New()
	h.Write([]byte("DEFLECTION-MRENCLAVE-v1"))
	h.Write(consumerIdentity)
	var buf [8]byte
	v2 := uint64(0)
	if l.SGXv2 {
		v2 = 1
	}
	for _, v := range []uint64{
		l.ELRBase, l.ELREnd, l.CodeBase, l.CodeEnd, l.BrTableBase,
		l.ShadowBase, l.SSABase, l.HeapBase, l.StackLo, l.StackHi,
		uint64(l.Threads), v2,
	} {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// Measurement returns the launch measurement (MRENCLAVE analogue).
func (e *Enclave) Measurement() [32]byte { return e.measurement }

// InELRANGE reports whether addr lies inside the protected range.
func (e *Enclave) InELRANGE(addr uint64) bool {
	return addr >= e.Layout.ELRBase && addr < e.Layout.ELREnd
}
