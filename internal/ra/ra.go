// Package ra is the bootstrap enclave's side of remote attestation (paper
// Section III-A): the enclave's ephemeral ECDH key, bound into a Quote's
// report data, and the handshake that gives each remote party (data owner
// or code provider, distinguished by Role) an authenticated session key
// shared only with the measured enclave. It is in the trusted set.
//
// Quoting, quote verification and the party's side of the handshake run
// outside the enclave, in package attest, which imports this one: the
// enclave's code cannot reach back into them.
//
// The handshake as a wire protocol:
//
//  1. the enclave sends a Hello: its Quote (the measurement signed by the
//     platform, with the hash of the ECDH key in the report data) plus the
//     raw key;
//  2. the party verifies the Quote at the attestation service, checks the
//     measurement against the public bootstrap build, derives the
//     role-separated session key and answers with a Reply: its own public
//     key plus a key-confirmation MAC;
//  3. the enclave derives the same key, checks the confirmation, and both
//     ends hold an authenticated Channel.
//
// All messages are length-prefixed JSON frames.
package ra

import (
	"crypto/ecdh"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// Role distinguishes the two remote parties of the DEFLECTION model; it is
// mixed into the session-key derivation so the enclave can tell the
// channels apart.
type Role string

// The two parties that attest the bootstrap enclave.
const (
	RoleDataOwner    Role = "data-owner"
	RoleCodeProvider Role = "code-provider"
)

// ReportDataSize is the free-form field bound into a Quote (64 bytes, as on
// SGX).
const ReportDataSize = 64

// Quote is a signed attestation statement: this measurement, with this
// report data, runs on the platform identified by PlatformID.
type Quote struct {
	PlatformID  string
	Measurement [32]byte
	ReportData  [ReportDataSize]byte
	Sig         []byte // ASN.1 ECDSA signature
}

const maxFrame = 1 << 20

// WriteFrame writes one length-prefixed message.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("ra: frame of %d bytes exceeds limit", len(payload))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("ra: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("ra: %w", err)
	}
	return nil
}

// ReadFrame reads one length-prefixed message.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("ra: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("ra: frame of %d bytes exceeds limit", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("ra: %w", err)
	}
	return buf, nil
}

// Hello is the enclave's opening message.
type Hello struct {
	PlatformID  string `json:"platform_id"`
	Measurement []byte `json:"measurement"`
	ReportData  []byte `json:"report_data"`
	Sig         []byte `json:"sig"`
	KexPub      []byte `json:"kex_pub"`
}

// Reply is the party's handshake answer.
type Reply struct {
	Role     string `json:"role"`
	PartyPub []byte `json:"party_pub"`
	Confirm  []byte `json:"confirm"`
}

// SessionKey derives the 32-byte session key over the ECDH shared secret
// and the protocol transcript (both public keys and the party role).
func SessionKey(shared, enclavePub, partyPub []byte, role Role) []byte {
	h := sha256.New()
	h.Write([]byte("DEFLECTION-SESSION-v1|"))
	h.Write([]byte(role))
	h.Write([]byte{'|'})
	h.Write(shared)
	h.Write(enclavePub)
	h.Write(partyPub)
	return h.Sum(nil)
}

// ConfirmMAC is the party's key-confirmation MAC under the session key.
func ConfirmMAC(key []byte, role Role, enclavePub, partyPub []byte) []byte {
	mac := hmac.New(sha256.New, key)
	mac.Write([]byte("DEFLECTION-CONFIRM-v1|"))
	mac.Write([]byte(role))
	mac.Write([]byte{'|'})
	mac.Write(enclavePub)
	mac.Write(partyPub)
	return mac.Sum(nil)
}

// EnclaveSession drives the enclave side of the handshake for any number of
// parties (the paper's two: data owner and code provider) over one
// ephemeral ECDH key.
type EnclaveSession struct {
	priv *ecdh.PrivateKey
	keys map[Role][]byte
}

// NewEnclaveSession generates the enclave's ephemeral key-exchange key.
func NewEnclaveSession() *EnclaveSession {
	priv, _ := ecdh.P256().GenerateKey(rand.Reader) // cannot fail: crypto/rand.Reader never returns an error
	return &EnclaveSession{priv: priv, keys: make(map[Role][]byte)}
}

// ReportData returns the value the platform must bind into the session's
// Quote: the hash of the key-exchange public key, padded to the
// report-data size.
func (s *EnclaveSession) ReportData() []byte {
	h := sha256.Sum256(s.priv.PublicKey().Bytes())
	out := make([]byte, ReportDataSize)
	copy(out, h[:])
	return out
}

// Key returns the session key negotiated with the party of the given role
// (available after a successful Accept), e.g. for installing into the
// bootstrap enclave's output-sealing stub.
func (s *EnclaveSession) Key(role Role) ([]byte, error) {
	k, ok := s.keys[role]
	if !ok {
		return nil, fmt.Errorf("ra: no completed handshake for role %q", role)
	}
	return append([]byte(nil), k...), nil
}

// SendHello writes the attestation hello to a party connection. q is the
// platform's Quote over ReportData, obtained by the host as SGX's quoting
// enclave would.
func (s *EnclaveSession) SendHello(w io.Writer, q *Quote) error {
	// Marshal cannot fail: Hello holds only strings and byte slices.
	payload, _ := json.Marshal(Hello{
		PlatformID:  q.PlatformID,
		Measurement: q.Measurement[:],
		ReportData:  q.ReportData[:],
		Sig:         q.Sig,
		KexPub:      s.priv.PublicKey().Bytes(),
	})
	return WriteFrame(w, payload)
}

// ErrBadConfirmation is returned when a party's key-confirmation MAC fails.
var ErrBadConfirmation = errors.New("ra: key confirmation failed")

// Accept reads a party's reply, derives the session key, verifies the
// confirmation MAC and returns the party's role plus the secure channel.
func (s *EnclaveSession) Accept(r io.Reader) (Role, *Channel, error) {
	payload, err := ReadFrame(r)
	if err != nil {
		return "", nil, err
	}
	var msg Reply
	if err := json.Unmarshal(payload, &msg); err != nil {
		return "", nil, fmt.Errorf("ra: %w", err)
	}
	role := Role(msg.Role)
	if role != RoleDataOwner && role != RoleCodeProvider {
		return "", nil, fmt.Errorf("ra: unknown role %q", msg.Role)
	}
	pub, err := ecdh.P256().NewPublicKey(msg.PartyPub)
	if err != nil {
		return "", nil, fmt.Errorf("ra: peer public key: %w", err)
	}
	// ECDH cannot fail: pub is a valid P-256 point and P-256 has cofactor 1.
	shared, _ := s.priv.ECDH(pub)
	enclavePub := s.priv.PublicKey().Bytes()
	key := SessionKey(shared, enclavePub, msg.PartyPub, role)
	if !hmac.Equal(ConfirmMAC(key, role, enclavePub, msg.PartyPub), msg.Confirm) {
		return "", nil, ErrBadConfirmation
	}
	ch, _ := NewChannel(key) // cannot fail: key is a 32-byte SHA-256 sum
	s.keys[role] = key
	return role, ch, nil
}
