package attest_test

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/ecdsa"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"sort"
	"strings"
	"testing"

	"deflection/attest"
)

// The handshake's known answers. A fixed enclave key and a fixed party key
// give one session key per role, one confirmation MAC per role and, with a
// fixed platform ID and measurement, one quote digest. The spec functions
// below derive them from the protocol's written rules; the live checks in
// TestHandshakeKnownAnswers tie the package's own derivation to the same
// rules, so a change to any label, field order or input of the key
// schedule fails here.
const (
	katPlatformID  = "kat-platform"
	katMeasurement = "kat-bootstrap-measurement"

	katQuoteDigest = "f2c0b22391c68260f44fc194c8047f120ac0910eff3f717963c33ca24d2ab786"
)

var katSessionKey = map[attest.Role]string{
	attest.RoleDataOwner:    "1425175a2963173d88357d24e53ef8f6b77f90898d8652fa6d3256accae90651",
	attest.RoleCodeProvider: "e2edfc783dc1de0686dc503623dd218fa9ffee4cfa87035e7ab8b2ab5b4e6bf6",
}

var katConfirm = map[attest.Role]string{
	attest.RoleDataOwner:    "f1d8bcbfff2c98d57a3b4b4858d83c157764bfa5e803b853fc4f41fa113e03fc",
	attest.RoleCodeProvider: "ac64ec2f255067cea6b6b3879be449e21afd2d697ea211ee23a78e6b2de788c7",
}

// katKey returns a fixed P-256 key whose scalar is SHA-256 of the label.
func katKey(t *testing.T, label string) *ecdh.PrivateKey {
	t.Helper()
	d := sha256.Sum256([]byte(label))
	k, err := ecdh.P256().NewPrivateKey(d[:])
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// specQuoteDigest is the digest a platform signs over a quote.
func specQuoteDigest(platformID string, meas [32]byte, reportData [64]byte) []byte {
	h := sha256.New()
	h.Write([]byte("DEFLECTION-QUOTE-v1|" + platformID + "|"))
	h.Write(meas[:])
	h.Write(reportData[:])
	return h.Sum(nil)
}

// specSessionKey is the role-separated session key over the ECDH secret
// and both public keys.
func specSessionKey(shared, enclavePub, partyPub []byte, role attest.Role) []byte {
	h := sha256.New()
	h.Write([]byte("DEFLECTION-SESSION-v1|" + string(role) + "|"))
	h.Write(shared)
	h.Write(enclavePub)
	h.Write(partyPub)
	return h.Sum(nil)
}

// specConfirm is the party's key-confirmation MAC.
func specConfirm(key []byte, role attest.Role, enclavePub, partyPub []byte) []byte {
	m := hmac.New(sha256.New, key)
	m.Write([]byte("DEFLECTION-CONFIRM-v1|" + string(role) + "|"))
	m.Write(enclavePub)
	m.Write(partyPub)
	return m.Sum(nil)
}

// specSeal is the channel's first sealed message: AES-256-GCM under the
// session key with a zero 12-byte nonce whose last eight bytes carry the
// sequence number.
func specSeal(t *testing.T, key, msg []byte) []byte {
	t.Helper()
	block, err := aes.NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		t.Fatal(err)
	}
	return aead.Seal(nil, make([]byte, aead.NonceSize()), msg, nil)
}

func fieldNames(t *testing.T, payload []byte) string {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(payload, &m); err != nil {
		t.Fatal(err)
	}
	var names []string
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}

func TestHandshakeKnownAnswers(t *testing.T) {
	encl, party := katKey(t, "kat-enclave"), katKey(t, "kat-party")
	enclPub, partyPub := encl.PublicKey().Bytes(), party.PublicKey().Bytes()
	shared, err := encl.ECDH(party.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	var meas [32]byte
	copy(meas[:], katMeasurement)
	var reportData [64]byte
	bound := sha256.Sum256(enclPub)
	copy(reportData[:], bound[:])

	// The pinned answers, derived by the spec.
	digest := specQuoteDigest(katPlatformID, meas, reportData)
	if got := hex.EncodeToString(digest); got != katQuoteDigest {
		t.Errorf("quote digest = %s, want %s", got, katQuoteDigest)
	}
	for _, role := range []attest.Role{attest.RoleDataOwner, attest.RoleCodeProvider} {
		key := specSessionKey(shared, enclPub, partyPub, role)
		if got := hex.EncodeToString(key); got != katSessionKey[role] {
			t.Errorf("%s session key = %s, want %s", role, got, katSessionKey[role])
		}
		mac := specConfirm(key, role, enclPub, partyPub)
		if got := hex.EncodeToString(mac); got != katConfirm[role] {
			t.Errorf("%s confirmation = %s, want %s", role, got, katConfirm[role])
		}
	}

	// The package signs quotes over the spec digest.
	p, err := attest.NewPlatform(katPlatformID)
	if err != nil {
		t.Fatal(err)
	}
	as := attest.NewService()
	as.Register(p)
	q, err := p.Quote(meas, reportData[:])
	if err != nil {
		t.Fatal(err)
	}
	if !ecdsa.VerifyASN1(p.PublicKey(), digest, q.Sig) {
		t.Fatal("quote signature does not cover the spec digest")
	}

	// The party side of the package reads a hello with these field names
	// from the fixed enclave key and answers with the spec's key and
	// confirmation for its own key.
	hello, err := json.Marshal(struct {
		PlatformID  string `json:"platform_id"`
		Measurement []byte `json:"measurement"`
		ReportData  []byte `json:"report_data"`
		Sig         []byte `json:"sig"`
		KexPub      []byte `json:"kex_pub"`
	}{katPlatformID, meas[:], reportData[:], q.Sig, enclPub})
	if err != nil {
		t.Fatal(err)
	}
	for _, role := range []attest.Role{attest.RoleDataOwner, attest.RoleCodeProvider} {
		var wire bytes.Buffer
		key, ch, err := attest.PartyHandshakeHello(hello, &wire, as, meas, role)
		if err != nil {
			t.Fatalf("%s: %v", role, err)
		}
		raw := wire.Bytes()
		if len(raw) < 4 || int(binary.BigEndian.Uint32(raw)) != len(raw)-4 {
			t.Fatalf("%s: reply is not one big-endian length-prefixed frame", role)
		}
		reply := raw[4:]
		if got := fieldNames(t, reply); got != "confirm,party_pub,role" {
			t.Fatalf("%s: reply fields %s", role, got)
		}
		var msg struct {
			Role     string `json:"role"`
			PartyPub []byte `json:"party_pub"`
			Confirm  []byte `json:"confirm"`
		}
		if err := json.Unmarshal(reply, &msg); err != nil {
			t.Fatal(err)
		}
		if msg.Role != string(role) {
			t.Errorf("%s: reply role %q", role, msg.Role)
		}
		peer, err := ecdh.P256().NewPublicKey(msg.PartyPub)
		if err != nil {
			t.Fatal(err)
		}
		s, err := encl.ECDH(peer)
		if err != nil {
			t.Fatal(err)
		}
		want := specSessionKey(s, enclPub, msg.PartyPub, role)
		if !bytes.Equal(key, want) {
			t.Errorf("%s: session key %x, spec %x", role, key, want)
		}
		if mac := specConfirm(want, role, enclPub, msg.PartyPub); !bytes.Equal(msg.Confirm, mac) {
			t.Errorf("%s: confirmation %x, spec %x", role, msg.Confirm, mac)
		}
		if got, spec := ch.Seal([]byte("kat")), specSeal(t, want, []byte("kat")); !bytes.Equal(got, spec) {
			t.Errorf("%s: first sealed message %x, spec %x", role, got, spec)
		}
	}
}
