// Package attest is the untrusted side of the SGX attestation trust chain
// the DEFLECTION protocol rests on (paper Sections III-A and V-B): a
// platform attestation key signs Quotes over the bootstrap enclave's
// measurement, an Attestation Service (the IAS analogue) verifies Quotes
// for remote parties, and each party runs its side of the RA-TLS-style
// handshake against the enclave's side in package ra. None of this runs in
// the bootstrap enclave: the platform key belongs to the hardware vendor's
// TCB, the service and the parties sit outside the enclave.
package attest

import (
	"crypto/ecdh"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"

	"deflection/internal/ra"
)

// Role and the two parties that attest the bootstrap enclave, as named by
// callers that hold only this package.
type Role = ra.Role

const (
	RoleDataOwner    = ra.RoleDataOwner
	RoleCodeProvider = ra.RoleCodeProvider
)

// quoteDigest is what a platform signs over a quote.
func quoteDigest(q *ra.Quote) []byte {
	h := sha256.New()
	h.Write([]byte("DEFLECTION-QUOTE-v1|"))
	h.Write([]byte(q.PlatformID))
	h.Write([]byte{'|'})
	h.Write(q.Measurement[:])
	h.Write(q.ReportData[:])
	return h.Sum(nil)
}

// Platform holds the platform attestation key (the analogue of the
// EPID/DCAP key provisioned by the hardware vendor).
type Platform struct {
	id   string
	priv *ecdsa.PrivateKey
}

// NewPlatform provisions a platform with a fresh attestation key.
func NewPlatform(id string) (*Platform, error) {
	priv, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("attest: %w", err)
	}
	return &Platform{id: id, priv: priv}, nil
}

// ID returns the platform identifier.
func (p *Platform) ID() string { return p.id }

// PublicKey returns the attestation verification key.
func (p *Platform) PublicKey() *ecdsa.PublicKey { return &p.priv.PublicKey }

// Quote signs an attestation statement for an enclave with the given
// measurement; reportData (at most 64 bytes) is caller-bound data, here the
// hash of the enclave's ephemeral key-exchange public key.
func (p *Platform) Quote(measurement [32]byte, reportData []byte) (*ra.Quote, error) {
	if len(reportData) > ra.ReportDataSize {
		return nil, fmt.Errorf("attest: report data %d bytes > %d", len(reportData), ra.ReportDataSize)
	}
	q := &ra.Quote{PlatformID: p.id, Measurement: measurement}
	copy(q.ReportData[:], reportData)
	sig, err := ecdsa.SignASN1(rand.Reader, p.priv, quoteDigest(q))
	if err != nil {
		return nil, fmt.Errorf("attest: %w", err)
	}
	q.Sig = sig
	return q, nil
}

// Service is the Attestation Service (IAS analogue): it knows the
// attestation public keys of genuine platforms and verifies Quotes on
// behalf of remote parties. Safe for concurrent use: verification sessions
// read the key registry while provisioning may still be adding platforms.
type Service struct {
	mu    sync.RWMutex
	known map[string]*ecdsa.PublicKey
}

// NewService returns an empty attestation service.
func NewService() *Service {
	return &Service{known: make(map[string]*ecdsa.PublicKey)}
}

// Register records a platform's attestation public key (the provisioning
// step a hardware vendor performs).
func (s *Service) Register(p *Platform) {
	s.mu.Lock()
	s.known[p.ID()] = p.PublicKey()
	s.mu.Unlock()
}

// lookup returns the registered key for a platform ID.
func (s *Service) lookup(id string) (*ecdsa.PublicKey, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	pub, ok := s.known[id]
	return pub, ok
}

// ErrUnknownPlatform is returned for quotes from unregistered platforms.
var ErrUnknownPlatform = errors.New("attest: unknown platform")

// ErrBadQuote is returned when a quote's signature fails.
var ErrBadQuote = errors.New("attest: quote signature invalid")

// Verify checks the quote's signature against the registered platform key.
func (s *Service) Verify(q *ra.Quote) error {
	pub, ok := s.lookup(q.PlatformID)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownPlatform, q.PlatformID)
	}
	if !ecdsa.VerifyASN1(pub, quoteDigest(q), q.Sig) {
		return ErrBadQuote
	}
	return nil
}

// ErrMeasurementMismatch is returned when the attested enclave is not the
// one the party expected.
var ErrMeasurementMismatch = errors.New("attest: measurement mismatch")

// ErrKeyNotBound is returned when the enclave's KEX key is not bound into
// the quote's report data.
var ErrKeyNotBound = errors.New("attest: key-exchange key not bound to quote")

// PartyHandshake performs the remote party's side over rw: read the hello,
// verify the quote at the attestation service against the expected
// bootstrap measurement, reply with the party key and confirmation, and
// return the session key plus an authenticated channel.
func PartyHandshake(rw io.ReadWriter, as *Service, expected [32]byte, role ra.Role) ([]byte, *ra.Channel, error) {
	payload, err := ra.ReadFrame(rw)
	if err != nil {
		return nil, nil, err
	}
	return PartyHandshakeHello(payload, rw, as, expected, role)
}

// PartyHandshakeHello is PartyHandshake for a caller that already read the
// first frame off the wire (a client behind a gateway must inspect it for
// an unauthenticated busy reply before treating it as the enclave hello).
func PartyHandshakeHello(payload []byte, rw io.ReadWriter, as *Service, expected [32]byte, role ra.Role) ([]byte, *ra.Channel, error) {
	var msg ra.Hello
	if err := json.Unmarshal(payload, &msg); err != nil {
		return nil, nil, fmt.Errorf("attest: %w", err)
	}
	if len(msg.Measurement) != 32 || len(msg.ReportData) != ra.ReportDataSize {
		return nil, nil, errors.New("attest: malformed hello")
	}
	q := &ra.Quote{PlatformID: msg.PlatformID, Sig: msg.Sig}
	copy(q.Measurement[:], msg.Measurement)
	copy(q.ReportData[:], msg.ReportData)
	if err := as.Verify(q); err != nil {
		return nil, nil, err
	}
	if q.Measurement != expected {
		return nil, nil, fmt.Errorf("%w: got %x", ErrMeasurementMismatch, q.Measurement[:8])
	}
	if [32]byte(q.ReportData[:32]) != sha256.Sum256(msg.KexPub) {
		return nil, nil, ErrKeyNotBound
	}
	enclavePub, err := ecdh.P256().NewPublicKey(msg.KexPub)
	if err != nil {
		return nil, nil, fmt.Errorf("attest: enclave public key: %w", err)
	}
	priv, err := ecdh.P256().GenerateKey(rand.Reader)
	if err != nil {
		return nil, nil, fmt.Errorf("attest: %w", err)
	}
	shared, err := priv.ECDH(enclavePub)
	if err != nil {
		return nil, nil, fmt.Errorf("attest: %w", err)
	}
	partyPub := priv.PublicKey().Bytes()
	key := ra.SessionKey(shared, msg.KexPub, partyPub, role)
	out, err := json.Marshal(ra.Reply{
		Role:     string(role),
		PartyPub: partyPub,
		Confirm:  ra.ConfirmMAC(key, role, msg.KexPub, partyPub),
	})
	if err != nil {
		return nil, nil, fmt.Errorf("attest: %w", err)
	}
	if err := ra.WriteFrame(rw, out); err != nil {
		return nil, nil, err
	}
	ch, err := ra.NewChannel(key)
	if err != nil {
		return nil, nil, err
	}
	return key, ch, nil
}
