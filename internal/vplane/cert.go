package vplane

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"sync"

	"deflection/attest"
	"deflection/internal/runtime"
)

// This file is the fleet half of the verification plane: attested verdict
// certificates. A backend that pays a cold verification publishes the
// verified image together with an attest.VerdictCert signed by its platform
// attestation key; a peer backend that misses its local cache consults the
// shared CertStore first and — after checking the signature, its own
// measurement, its manifest fingerprint, the cache key and the image digest
// — installs the certified image instead of re-running the pipeline. Each
// unique binary is then verified once per fleet, not once per process, and
// a backend failure degrades a warm cache into a cheap certificate replay
// rather than a cold re-verification storm.
//
// The store itself is untrusted (it may live on the gateway host, outside
// any enclave): nothing read from it is used before the certificate chain
// of checks passes, and a tampered image fails the digest comparison.

// CertStore is the fleet-wide exchange point for verdict certificates and
// their verified images. Implementations must be safe for concurrent use.
// MemCertStore serves a single process; the gateway package provides an
// HTTP client/server pair for multi-process fleets.
type CertStore interface {
	// PutCert publishes a certificate and the image it vouches for.
	PutCert(cert *attest.VerdictCert, img *runtime.Image) error
	// GetCert returns the certificate and image stored under key, or
	// ok=false when the fleet has none.
	GetCert(key Key) (cert *attest.VerdictCert, img *runtime.Image, ok bool)
}

// MemCertStore is an in-process CertStore for fleets whose backends share
// one address space (tests, the gateway's -spawn mode).
type MemCertStore struct {
	mu sync.Mutex
	m  map[Key]memCertEntry
}

type memCertEntry struct {
	cert *attest.VerdictCert
	img  *runtime.Image
}

// NewMemCertStore returns an empty in-memory store.
func NewMemCertStore() *MemCertStore {
	return &MemCertStore{m: make(map[Key]memCertEntry)}
}

// PutCert stores the certificate, overwriting a previous one for the key
// (certificates for the same key vouch for the same content, so last write
// wins is safe).
func (s *MemCertStore) PutCert(cert *attest.VerdictCert, img *runtime.Image) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[Key(cert.Key)] = memCertEntry{cert: cert, img: img}
	return nil
}

// GetCert returns the stored certificate for key.
func (s *MemCertStore) GetCert(key Key) (*attest.VerdictCert, *runtime.Image, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.m[key]
	if !ok {
		return nil, nil, false
	}
	return e.cert, e.img, true
}

// Len reports the number of stored certificates.
func (s *MemCertStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// ImageDigest computes the content digest a verdict certificate binds: a
// domain-separated SHA-256 over every field of the verified image — the
// verdict evidence (Stats, Rewrites, Audit) a cache hit replays to the
// client included — and the enclave layout its absolute addresses were
// rewritten for.
func ImageDigest(img *runtime.Image) [32]byte {
	h := sha256.New()
	h.Write([]byte("deflection-image-digest-v2\x00"))
	h.Write(img.BinaryHash[:])
	var n [8]byte
	put := func(vs ...uint64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(n[:], v)
			h.Write(n[:])
		}
	}
	putBytes := func(b []byte) {
		put(uint64(len(b)))
		h.Write(b)
	}
	put(img.Entry, img.TextBase, img.TextEnd, img.DataBase, img.HeapFree)
	putBytes(img.Text)
	putBytes(img.Data)
	putBytes(img.BranchTable)
	put(uint64(len(img.BranchTargets)))
	put(img.BranchTargets...)
	put(uint64(len(img.AnnotRanges)))
	for _, r := range img.AnnotRanges {
		put(uint64(r.Lo), uint64(r.Hi))
	}
	st, rw := img.Stats, img.Rewrites
	for _, v := range []int{st.StoreGuards, st.RSPGuards, st.CFIGuards, st.ShadowPushes, st.ShadowChecks,
		st.AEXChecks, st.Beacons, st.Instructions, rw.StoreBounds, rw.StackBounds, rw.SSASites, len(img.Audit)} {
		put(uint64(v))
	}
	for _, a := range img.Audit {
		var flags uint64
		if a.Required {
			flags |= 1
		}
		if a.Passed {
			flags |= 2
		}
		put(uint64(a.Policy), flags, uint64(a.Checks))
		putBytes([]byte(a.Detail))
	}
	hashLayout(h, img.Layout)
	var d [32]byte
	h.Sum(d[:0])
	return d
}

// CertConfig wires a plane into the fleet certificate exchange.
type CertConfig struct {
	// Measurement is this backend's bootstrap-enclave measurement. Peer
	// certificates are only admitted when they carry the same measurement:
	// a certificate proves what *that* verifier build concluded, so the
	// acceptor must be running the identical build.
	Measurement [32]byte
	// Sign signs certificates for verdicts this backend produced
	// (typically attest.Platform.SignVerdict). Nil disables issuing.
	Sign func(*attest.VerdictCert) error
	// Check validates a peer certificate's platform signature (typically
	// attest.Service.VerifyVerdictCert). Nil disables admission.
	Check func(*attest.VerdictCert) error
	// Store is the fleet exchange point. Nil disables both directions.
	Store CertStore
}

// EnableCerts joins the plane to a fleet certificate exchange. Must be
// called before the plane starts serving Verify traffic.
func (p *Plane) EnableCerts(cc CertConfig) {
	p.mu.Lock()
	p.certs = &cc
	p.mu.Unlock()
}

// certConfig returns the current certificate wiring (nil when disabled).
func (p *Plane) certConfig() *CertConfig {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.certs
}

// tryCertified consults the fleet store for a certificate covering key and
// runs the full admission chain. It returns a cache-ready verdict when the
// certificate is sound, and (nil, false) on a store miss or any failed
// check — the caller then falls back to a cold verification. Admission
// failures are counted and logged but never fatal: a bad certificate must
// degrade to a cold run, not an outage.
func (p *Plane) tryCertified(key Key, m runtime.Manifest) (*Verdict, bool) {
	cc := p.certConfig()
	if cc == nil || cc.Store == nil || cc.Check == nil {
		return nil, false
	}
	cert, img, ok := cc.Store.GetCert(key)
	if !ok {
		p.m.Counter("vplane_cert_misses_total").Inc()
		return nil, false
	}
	reject := func(reason string, err error) (*Verdict, bool) {
		p.m.Counter("vplane_cert_rejected_total").Inc()
		p.log("vplane_cert_rejected", "key", keyPrefix(key), "reason", reason, "err", err)
		return nil, false
	}
	if cert == nil || img == nil {
		return reject("incomplete entry", nil)
	}
	if err := cc.Check(cert); err != nil {
		return reject("signature", err)
	}
	if cert.Measurement != cc.Measurement {
		return reject("measurement mismatch", nil)
	}
	if Key(cert.Key) != key {
		return reject("key mismatch", nil)
	}
	if !bytes.Equal(cert.ManifestFP, m.Fingerprint()) {
		return reject("manifest fingerprint mismatch", nil)
	}
	if cert.BinaryHash != img.BinaryHash {
		return reject("binary hash mismatch", nil)
	}
	if ImageDigest(img) != cert.ImageDigest {
		return reject("image digest mismatch", nil)
	}
	p.m.Counter("vplane_cert_hits_total").Inc()
	p.log("vplane_cert_admitted", "key", keyPrefix(key), "platform", cert.PlatformID)
	return &Verdict{Key: key, Image: img}, true
}

// publishCert signs and publishes a certificate for a positive verdict this
// backend just produced. Negative verdicts are not certified: a rejection
// is an error string, not an installable artifact, and replaying one
// cross-enclave adds attack surface for no verification savings on the
// accept path. Publication failures are logged and dropped — the verdict
// is already cached locally, so the fleet merely loses the amortisation.
// It reports whether a certificate was actually issued (span attribution).
func (p *Plane) publishCert(v *Verdict, m runtime.Manifest) bool {
	cc := p.certConfig()
	if cc == nil || cc.Store == nil || cc.Sign == nil || v.Image == nil {
		return false
	}
	cert := &attest.VerdictCert{
		Measurement: cc.Measurement,
		Key:         [32]byte(v.Key),
		BinaryHash:  v.Image.BinaryHash,
		ManifestFP:  m.Fingerprint(),
		ImageDigest: ImageDigest(v.Image),
	}
	if err := cc.Sign(cert); err != nil {
		p.log("vplane_cert_sign_failed", "key", keyPrefix(v.Key), "err", err)
		return false
	}
	if err := cc.Store.PutCert(cert, v.Image); err != nil {
		p.m.Counter("vplane_cert_publish_failures_total").Inc()
		p.log("vplane_cert_publish_failed", "key", keyPrefix(v.Key), "err", err)
		return false
	}
	p.m.Counter("vplane_certs_issued_total").Inc()
	p.log("vplane_cert_issued", "key", keyPrefix(v.Key))
	return true
}
