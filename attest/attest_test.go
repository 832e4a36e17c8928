package attest

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"deflection/internal/ra"
)

func setup(t *testing.T) (*Platform, *Service) {
	t.Helper()
	p, err := NewPlatform("sgx-platform-1")
	if err != nil {
		t.Fatal(err)
	}
	s := NewService()
	s.Register(p)
	return p, s
}

func TestQuoteVerifies(t *testing.T) {
	p, s := setup(t)
	var m [32]byte
	copy(m[:], "measurement-of-bootstrap")
	q, err := p.Quote(m, []byte("report"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(q); err != nil {
		t.Fatal(err)
	}
}

func TestQuoteTamperDetected(t *testing.T) {
	p, s := setup(t)
	var m [32]byte
	q, err := p.Quote(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	q.Measurement[0] ^= 1
	if err := s.Verify(q); !errors.Is(err, ErrBadQuote) {
		t.Fatalf("tampered quote: %v", err)
	}
	q.Measurement[0] ^= 1
	q.ReportData[5] ^= 1
	if err := s.Verify(q); !errors.Is(err, ErrBadQuote) {
		t.Fatalf("tampered report data: %v", err)
	}
}

func TestUnknownPlatformRejected(t *testing.T) {
	p, _ := setup(t)
	s2 := NewService() // does not know p
	var m [32]byte
	q, err := p.Quote(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Verify(q); !errors.Is(err, ErrUnknownPlatform) {
		t.Fatalf("unknown platform: %v", err)
	}
}

func TestForgedPlatformRejected(t *testing.T) {
	_, s := setup(t)
	rogue, err := NewPlatform("sgx-platform-1") // same ID, different key
	if err != nil {
		t.Fatal(err)
	}
	var m [32]byte
	q, err := rogue.Quote(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(q); !errors.Is(err, ErrBadQuote) {
		t.Fatalf("forged platform quote: %v", err)
	}
}

func TestOversizedReportDataRejected(t *testing.T) {
	p, _ := setup(t)
	var m [32]byte
	if _, err := p.Quote(m, make([]byte, ra.ReportDataSize+1)); err == nil {
		t.Fatal("oversized report data accepted")
	}
}

// hello returns the hello frame a fresh enclave session sends under a quote
// over meas, and the session.
func hello(t *testing.T, p *Platform, meas [32]byte) ([]byte, *ra.EnclaveSession) {
	t.Helper()
	sess := ra.NewEnclaveSession()
	q, err := p.Quote(meas, sess.ReportData())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sess.SendHello(&buf, q); err != nil {
		t.Fatal(err)
	}
	payload, err := ra.ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return payload, sess
}

func TestKeyExchangeBothRoles(t *testing.T) {
	p, s := setup(t)
	var m [32]byte
	copy(m[:], "bootstrap-v1")
	payload, sess := hello(t, p, m)

	// One enclave key serves both parties.
	for _, role := range []ra.Role{ra.RoleDataOwner, ra.RoleCodeProvider} {
		var reply bytes.Buffer
		partyKey, _, err := PartyHandshakeHello(payload, &reply, s, m, role)
		if err != nil {
			t.Fatal(err)
		}
		if got, _, err := sess.Accept(&reply); err != nil || got != role {
			t.Fatalf("role %s: accept %q, %v", role, got, err)
		}
		enclaveKey, err := sess.Key(role)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(partyKey, enclaveKey) {
			t.Fatalf("role %s: keys disagree", role)
		}
	}

	// Different roles must yield different keys for the same transcript.
	shared, a, b := []byte("shared"), []byte("enclave"), []byte("party")
	if bytes.Equal(ra.SessionKey(shared, a, b, ra.RoleDataOwner), ra.SessionKey(shared, a, b, ra.RoleCodeProvider)) {
		t.Error("roles must separate keys")
	}
}

func TestKeyExchangeRejectsWrongMeasurement(t *testing.T) {
	p, s := setup(t)
	var m, other [32]byte
	copy(m[:], "real")
	copy(other[:], "expected-something-else")
	payload, _ := hello(t, p, m)
	var reply bytes.Buffer
	if _, _, err := PartyHandshakeHello(payload, &reply, s, other, ra.RoleDataOwner); !errors.Is(err, ErrMeasurementMismatch) {
		t.Fatalf("wrong measurement: %v", err)
	}
	if reply.Len() != 0 {
		t.Error("party replied to a hello it rejected")
	}
}

func TestKeyExchangeRejectsUnboundKey(t *testing.T) {
	// A man-in-the-middle substituting his own KEX key must be caught by
	// the report-data binding.
	p, s := setup(t)
	var m [32]byte
	real, _ := hello(t, p, m)
	mitm, _ := hello(t, p, m)
	var msg, other ra.Hello
	if err := json.Unmarshal(real, &msg); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(mitm, &other); err != nil {
		t.Fatal(err)
	}
	msg.KexPub = other.KexPub
	forged, err := json.Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	var reply bytes.Buffer
	if _, _, err := PartyHandshakeHello(forged, &reply, s, m, ra.RoleDataOwner); !errors.Is(err, ErrKeyNotBound) {
		t.Fatalf("unbound key: %v", err)
	}
}

func TestChannelRoundTrip(t *testing.T) {
	key := make([]byte, 32)
	for i := range key {
		key[i] = byte(i)
	}
	a, err := ra.NewChannel(key)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ra.NewChannel(key)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		msg := []byte{byte(i), 1, 2, 3}
		ct := a.Seal(msg)
		got, err := b.Open(ct)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("message %d corrupted", i)
		}
	}
}

func TestChannelDetectsReplayAndTamper(t *testing.T) {
	key := make([]byte, 32)
	a, _ := ra.NewChannel(key)
	b, _ := ra.NewChannel(key)
	ct := a.Seal([]byte("msg0"))
	if _, err := b.Open(ct); err != nil {
		t.Fatal(err)
	}
	// Replay of msg0 arrives with sequence 1 — must fail.
	if _, err := b.Open(ct); !errors.Is(err, ra.ErrReplay) {
		t.Fatalf("replay: %v", err)
	}
	ct2 := a.Seal([]byte("msg1"))
	ct2[0] ^= 1
	if _, err := b.Open(ct2); !errors.Is(err, ra.ErrReplay) {
		t.Fatalf("tamper: %v", err)
	}
}

func TestChannelBadKey(t *testing.T) {
	if _, err := ra.NewChannel([]byte("short")); err == nil {
		t.Fatal("short key accepted")
	}
}
