// Package vplane is the verification service plane: the layer that makes
// repeat-traffic verification cost scale sublinearly in the number of
// sessions. The verification verdict of the DEFLECTION pipeline is a pure
// function of (object bytes, policy manifest, enclave layout) — the same
// binary submitted by a thousand sessions verifies identically every time —
// so the plane amortises it the way an inference stack amortises kernel
// compilation:
//
//   - a content-addressed verdict Cache (LRU, bounded by a byte budget)
//     maps a SHA-256 Key over (object, manifest fingerprint, layout) to the
//     verified, rewritten Image plus the verdict evidence — including
//     negative verdicts, so a binary that was rejected with a structured
//     verifier.Violation is re-rejected from cache without re-parsing;
//   - single-flight admission deduplicates concurrent misses: N sessions
//     submitting the same bytes trigger exactly one pipeline run while the
//     other N-1 block on the in-flight result;
//   - a bounded worker Pool with a FIFO admission queue caps verification
//     CPU independently of the session cap, sheds load with an explicit
//     overload rejection when the queue is full, and cancels jobs whose
//     waiters have all abandoned them.
//
// Sessions on the hit path call runtime.Bootstrap.InstallImage, which
// copies the cached image into the session's private enclave memory — no
// writable state is aliased between tenants.
package vplane

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"hash"

	"deflection/internal/enclave"
	"deflection/internal/runtime"
)

// Key is the content address of a verification verdict: a SHA-256 over the
// object bytes, the canonical manifest fingerprint and every layout
// parameter that the rewritten image's absolute addresses depend on.
type Key [32]byte

// ComputeKey derives the cache key for verifying objBytes under manifest m
// inside an enclave with layout l.
func ComputeKey(objBytes []byte, m runtime.Manifest, l enclave.Layout) Key {
	h := sha256.New()
	h.Write([]byte("deflection-vplane-key-v1\x00"))

	obj := sha256.Sum256(objBytes)
	h.Write(obj[:])

	fp := m.Fingerprint()
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(fp)))
	h.Write(n[:])
	h.Write(fp)

	hashLayout(h, l)

	var k Key
	h.Sum(k[:0])
	return k
}

// hashLayout feeds every layout parameter that the rewritten image's
// absolute addresses depend on into h, in a fixed order. Shared by the
// cache key and the verdict-certificate image digest so both bind the
// exact same address map.
func hashLayout(h hash.Hash, l enclave.Layout) {
	sgxv2 := uint64(0)
	if l.SGXv2 {
		sgxv2 = 1
	}
	var n [8]byte
	for _, v := range []uint64{
		l.ELRBase, l.ELREnd,
		l.CodeBase, l.CodeEnd,
		l.BrTableBase, l.BrTableEnd,
		l.ShadowBase, l.ShadowEnd,
		l.SSABase, l.SSAEnd,
		l.HeapBase, l.HeapEnd,
		l.StackLo, l.StackHi,
		l.UntrustedBase, l.UntrustedEnd,
		uint64(l.Threads), sgxv2,
	} {
		binary.LittleEndian.PutUint64(n[:], v)
		h.Write(n[:])
	}
}

// Verdict is one cached verification outcome. Exactly one of Image and
// Reject is set: a positive verdict carries the installable image with its
// verdict evidence; a negative verdict carries the structured rejection the
// pipeline produced. Verdicts are immutable and shared across sessions.
type Verdict struct {
	// Key is the verdict's content address.
	Key Key
	// Image is the verified, rewritten, installable artifact (nil when the
	// binary was rejected).
	Image *runtime.Image
	// Reject is the deterministic rejection (a verifier.Violation or policy
	// mismatch) when the binary failed verification.
	Reject error
}

// SizeBytes estimates the verdict's retained memory for cache accounting.
func (v *Verdict) SizeBytes() int64 {
	const overhead = 256
	switch {
	case v.Image != nil:
		return overhead + v.Image.SizeBytes()
	case v.Reject != nil:
		return overhead + int64(len(v.Reject.Error()))
	default:
		return overhead
	}
}

// Source says how a Verify call obtained its verdict.
type Source int

// Verdict sources.
const (
	// SourceCold means this call led the single pipeline run.
	SourceCold Source = iota
	// SourceCache means the verdict was served from the cache.
	SourceCache
	// SourceJoined means the call joined another session's in-flight run.
	SourceJoined
	// SourceCertified means the verdict was admitted from a peer enclave's
	// attested verdict certificate — no local pipeline run was paid.
	SourceCertified
)

// String names the source.
func (s Source) String() string {
	switch s {
	case SourceCold:
		return "cold"
	case SourceCache:
		return "cache"
	case SourceJoined:
		return "joined"
	case SourceCertified:
		return "certified"
	default:
		return "unknown"
	}
}

// ErrOverloaded is returned when the admission queue is full; the caller
// should shed the request (an authenticated busy rejection in CCaaS) and
// let the client retry with backoff.
var ErrOverloaded = errors.New("vplane: verification queue full")

// ErrClosed is returned by submissions to a closed plane or pool.
var ErrClosed = errors.New("vplane: closed")
