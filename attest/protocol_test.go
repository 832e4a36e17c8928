package attest

import (
	"bytes"
	"errors"
	"net"
	"testing"

	"deflection/internal/ra"
)

// session starts an enclave session and gets its quote over meas.
func session(t *testing.T, p *Platform, meas [32]byte) (*ra.EnclaveSession, *ra.Quote) {
	t.Helper()
	sess := ra.NewEnclaveSession()
	q, err := p.Quote(meas, sess.ReportData())
	if err != nil {
		t.Fatal(err)
	}
	return sess, q
}

// handshake runs the full two-sided protocol over an in-memory connection.
func handshake(t *testing.T, role ra.Role, expected [32]byte, meas [32]byte) (*ra.Channel, *ra.Channel, error) {
	t.Helper()
	p, s := setup(t)
	sess, q := session(t, p, meas)
	cEncl, cParty := net.Pipe()
	defer cEncl.Close()
	defer cParty.Close()

	type partyRes struct {
		ch  *ra.Channel
		err error
	}
	done := make(chan partyRes, 1)
	go func() {
		_, ch, err := PartyHandshake(cParty, s, expected, role)
		if err != nil {
			// Unblock the enclave side, which is waiting for a reply that
			// will never come.
			cParty.Close()
		}
		done <- partyRes{ch: ch, err: err}
	}()

	if err := sess.SendHello(cEncl, q); err != nil {
		t.Fatal(err)
	}
	gotRole, enclCh, enclErr := sess.Accept(cEncl)
	pr := <-done
	if pr.err != nil {
		return nil, nil, pr.err // the party's verdict is the interesting one
	}
	if enclErr != nil {
		return nil, nil, enclErr
	}
	if gotRole != role {
		t.Fatalf("enclave saw role %q, want %q", gotRole, role)
	}
	return enclCh, pr.ch, nil
}

func TestProtocolHandshake(t *testing.T) {
	var meas [32]byte
	copy(meas[:], "bootstrap-build-1")
	for _, role := range []ra.Role{ra.RoleDataOwner, ra.RoleCodeProvider} {
		encl, party, err := handshake(t, role, meas, meas)
		if err != nil {
			t.Fatalf("role %s: %v", role, err)
		}
		// Channels interoperate in both directions (fresh channel per
		// direction in real use; same key here).
		ct := encl.Seal([]byte("to-party"))
		msg, err := party.Open(ct)
		if err != nil || !bytes.Equal(msg, []byte("to-party")) {
			t.Fatalf("role %s: party open: %q %v", role, msg, err)
		}
	}
}

func TestProtocolRejectsWrongMeasurement(t *testing.T) {
	var meas, other [32]byte
	copy(meas[:], "actual")
	copy(other[:], "expected-other")
	_, _, err := handshake(t, ra.RoleDataOwner, other, meas)
	if !errors.Is(err, ErrMeasurementMismatch) {
		t.Fatalf("err = %v, want measurement mismatch", err)
	}
}

func TestProtocolRejectsTamperedConfirmation(t *testing.T) {
	p, s := setup(t)
	var meas [32]byte
	sess, q := session(t, p, meas)
	cEncl, cParty := net.Pipe()
	defer cEncl.Close()
	defer cParty.Close()

	errCh := make(chan error, 1)
	go func() {
		// A MITM relays the hello but flips a byte of the confirmation.
		payload, err := ra.ReadFrame(cParty)
		if err != nil {
			errCh <- err
			return
		}
		var buf bytes.Buffer
		rw := &readWriter{r: bytes.NewReader(prefixFrame(payload)), w: &buf}
		if _, _, err := PartyHandshake(rw, s, meas, ra.RoleDataOwner); err != nil {
			errCh <- err
			return
		}
		reply := buf.Bytes()
		reply[len(reply)-10] ^= 1 // corrupt inside the confirm MAC
		if _, err := cParty.Write(reply); err != nil {
			errCh <- err
			return
		}
		errCh <- nil
	}()

	if err := sess.SendHello(cEncl, q); err != nil {
		t.Fatal(err)
	}
	_, _, acceptErr := sess.Accept(cEncl)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if acceptErr == nil {
		t.Fatal("tampered confirmation accepted")
	}
}

type readWriter struct {
	r *bytes.Reader
	w *bytes.Buffer
}

func (rw *readWriter) Read(p []byte) (int, error)  { return rw.r.Read(p) }
func (rw *readWriter) Write(p []byte) (int, error) { return rw.w.Write(p) }

func prefixFrame(payload []byte) []byte {
	out := make([]byte, 4+len(payload))
	out[0] = byte(len(payload) >> 24)
	out[1] = byte(len(payload) >> 16)
	out[2] = byte(len(payload) >> 8)
	out[3] = byte(len(payload))
	copy(out[4:], payload)
	return out
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := ra.WriteFrame(&buf, []byte("hello frames")); err != nil {
		t.Fatal(err)
	}
	got, err := ra.ReadFrame(&buf)
	if err != nil || string(got) != "hello frames" {
		t.Fatalf("got %q, %v", got, err)
	}
}

func TestFrameLimits(t *testing.T) {
	// One byte over the 1 MiB frame limit is refused before anything is
	// written.
	var buf bytes.Buffer
	if err := ra.WriteFrame(&buf, make([]byte, 1<<20+1)); err == nil || buf.Len() != 0 {
		t.Errorf("oversized frame: err = %v, %d bytes written", err, buf.Len())
	}
	// A forged oversized header must be rejected before allocation.
	bad := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := ra.ReadFrame(bytes.NewReader(bad)); err == nil {
		t.Error("oversized header accepted")
	}
	if _, err := ra.ReadFrame(bytes.NewReader([]byte{0, 0, 0, 9, 'x'})); err == nil {
		t.Error("truncated frame accepted")
	}
}

func TestAcceptRejectsUnknownRole(t *testing.T) {
	p, _ := setup(t)
	var meas [32]byte
	sess, _ := session(t, p, meas)
	var buf bytes.Buffer
	if err := ra.WriteFrame(&buf, []byte(`{"role":"eavesdropper","party_pub":"","confirm":""}`)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.Accept(&buf); err == nil {
		t.Fatal("unknown role accepted")
	}
}
