package ra

import (
	"bytes"
	"crypto/ecdh"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"sort"
	"strings"
	"testing"
)

// katSession returns an enclave session over the fixed key whose scalar is
// SHA-256("kat-enclave"), and the fixed party key for SHA-256("kat-party"):
// the keys of attest's TestHandshakeKnownAnswers.
func katSession(t *testing.T) (*EnclaveSession, *ecdh.PrivateKey) {
	t.Helper()
	key := func(label string) *ecdh.PrivateKey {
		d := sha256.Sum256([]byte(label))
		k, err := ecdh.P256().NewPrivateKey(d[:])
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	return &EnclaveSession{priv: key("kat-enclave"), keys: make(map[Role][]byte)}, key("kat-party")
}

func replyFrame(t *testing.T, r Reply) *bytes.Buffer {
	t.Helper()
	payload, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, payload); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// TestEnclaveKnownAnswers: with both keys fixed, the enclave accepts the
// pinned confirmation MAC and derives the pinned session key for each
// role, and its hello carries the pinned field names.
func TestEnclaveKnownAnswers(t *testing.T) {
	cases := []struct {
		role         Role
		key, confirm string
	}{
		{RoleDataOwner,
			"1425175a2963173d88357d24e53ef8f6b77f90898d8652fa6d3256accae90651",
			"f1d8bcbfff2c98d57a3b4b4858d83c157764bfa5e803b853fc4f41fa113e03fc"},
		{RoleCodeProvider,
			"e2edfc783dc1de0686dc503623dd218fa9ffee4cfa87035e7ab8b2ab5b4e6bf6",
			"ac64ec2f255067cea6b6b3879be449e21afd2d697ea211ee23a78e6b2de788c7"},
	}
	sess, party := katSession(t)
	for _, c := range cases {
		confirm, _ := hex.DecodeString(c.confirm)
		r := Reply{Role: string(c.role), PartyPub: party.PublicKey().Bytes(), Confirm: confirm}
		role, ch, err := sess.Accept(replyFrame(t, r))
		if err != nil || role != c.role || ch == nil {
			t.Fatalf("%s: accept %q, %v", c.role, role, err)
		}
		key, err := sess.Key(c.role)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(key); got != c.key {
			t.Errorf("%s: session key %s, want %s", c.role, got, c.key)
		}
	}

	var buf bytes.Buffer
	if err := sess.SendHello(&buf, &Quote{PlatformID: "p"}); err != nil {
		t.Fatal(err)
	}
	payload, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(payload, &fields); err != nil {
		t.Fatal(err)
	}
	var names []string
	for k := range fields {
		names = append(names, k)
	}
	sort.Strings(names)
	if got := strings.Join(names, ","); got != "kex_pub,measurement,platform_id,report_data,sig" {
		t.Errorf("hello fields %s", got)
	}
	want := sha256.Sum256(sess.priv.PublicKey().Bytes())
	if rd := sess.ReportData(); len(rd) != ReportDataSize || !bytes.Equal(rd[:32], want[:]) || !bytes.Equal(rd[32:], make([]byte, 32)) {
		t.Errorf("report data %x does not bind the key-exchange key", rd)
	}
}

// TestKeyOnlyAfterHandshake: no key is released for a role whose handshake
// has not completed, and a returned key is a copy.
func TestKeyOnlyAfterHandshake(t *testing.T) {
	sess, party := katSession(t)
	if _, err := sess.Key(RoleDataOwner); err == nil {
		t.Fatal("key released before any handshake")
	}
	shared, err := party.ECDH(sess.priv.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	enclPub, partyPub := sess.priv.PublicKey().Bytes(), party.PublicKey().Bytes()
	key := SessionKey(shared, enclPub, partyPub, RoleDataOwner)
	r := Reply{Role: string(RoleDataOwner), PartyPub: partyPub, Confirm: ConfirmMAC(key, RoleDataOwner, enclPub, partyPub)}
	if _, _, err := sess.Accept(replyFrame(t, r)); err != nil {
		t.Fatal(err)
	}
	got, err := sess.Key(RoleDataOwner)
	if err != nil || !bytes.Equal(got, key) {
		t.Fatalf("key after handshake = %x, %v; want %x", got, err, key)
	}
	got[0] ^= 1
	if again, _ := sess.Key(RoleDataOwner); !bytes.Equal(again, key) {
		t.Error("Key returned the session's own buffer")
	}
	if _, err := sess.Key(RoleCodeProvider); err == nil {
		t.Error("key released for the role that never completed a handshake")
	}
}

// TestAcceptRejects: every malformed reply is refused and leaves no key
// (attest's TestAcceptRejectsUnknownRole covers an unknown role).
func TestAcceptRejects(t *testing.T) {
	sess, party := katSession(t)
	pub := party.PublicKey().Bytes()
	frame := func(payload string) *bytes.Buffer {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, []byte(payload)); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	cases := []struct {
		name string
		in   *bytes.Buffer
		want error
	}{
		{"no frame", &bytes.Buffer{}, nil},
		{"malformed JSON", frame(`{"role":`), nil},
		{"party key not a P-256 point", replyFrame(t, Reply{Role: string(RoleDataOwner), PartyPub: append([]byte{4}, bytes.Repeat([]byte{1}, 64)...)}), nil},
		{"wrong confirmation", replyFrame(t, Reply{Role: string(RoleDataOwner), PartyPub: pub, Confirm: make([]byte, 32)}), ErrBadConfirmation},
	}
	for _, c := range cases {
		role, ch, err := sess.Accept(c.in)
		if err == nil || role != "" || ch != nil {
			t.Errorf("%s: accepted (%q, %v)", c.name, role, err)
		}
		if c.want != nil && !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
	if len(sess.keys) != 0 {
		t.Errorf("rejected replies left keys for %d roles", len(sess.keys))
	}
}

type failingWriter struct{ after int }

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.after == 0 {
		return 0, errors.New("link down")
	}
	w.after--
	return len(p), nil
}

// TestWriteFrameFailingWriter: a failing writer's error is returned for the
// header and for the payload. attest's TestFrameLimits covers the size
// limit.
func TestWriteFrameFailingWriter(t *testing.T) {
	for after := 0; after < 2; after++ {
		if err := WriteFrame(&failingWriter{after: after}, []byte("x")); err == nil || !strings.Contains(err.Error(), "link down") {
			t.Errorf("writer failing after %d writes: err = %v", after, err)
		}
	}
}
