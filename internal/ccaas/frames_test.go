package ccaas_test

import (
	"encoding/binary"
	"net"
	"strings"
	"testing"

	"deflection/attest"
	"deflection/internal/ccaas"
	"deflection/internal/policy"
	"deflection/internal/ra"
)

// rawSession completes the party handshake and hands back the raw transport
// plus the sealed channel, so tests can craft hostile post-handshake bytes.
func rawSession(t *testing.T, srv *ccaas.Server, as *attest.Service, meas [32]byte) (net.Conn, *ra.Channel, chan error) {
	t.Helper()
	serverConn, clientConn := net.Pipe()
	errc := make(chan error, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer serverConn.Close()
		errc <- srv.Handle(serverConn)
	}()
	t.Cleanup(func() {
		clientConn.Close()
		<-done // session goroutine must exit; errc stays readable (buffered)
	})
	_, ch, err := attest.PartyHandshake(clientConn, as, meas, ra.RoleDataOwner)
	if err != nil {
		t.Fatal(err)
	}
	return clientConn, ch, errc
}

// TestMalformedTraffic drives hostile post-handshake bytes at the server
// and asserts each attack ends the session with a descriptive error.
func TestMalformedTraffic(t *testing.T) {
	cases := []struct {
		name string
		send func(t *testing.T, conn net.Conn, ch *ra.Channel)
		want string
	}{
		{
			name: "unknown-tag",
			send: func(t *testing.T, conn net.Conn, ch *ra.Channel) {
				if err := ra.WriteFrame(conn, ch.Seal([]byte{'Z'})); err != nil {
					t.Fatal(err)
				}
			},
			want: "unknown message tag",
		},
		{
			name: "empty-message",
			send: func(t *testing.T, conn net.Conn, ch *ra.Channel) {
				if err := ra.WriteFrame(conn, ch.Seal(nil)); err != nil {
					t.Fatal(err)
				}
			},
			want: "empty message",
		},
		{
			name: "garbage-ciphertext",
			send: func(t *testing.T, conn net.Conn, ch *ra.Channel) {
				junk := make([]byte, 40)
				for i := range junk {
					junk[i] = 0xFF
				}
				if err := ra.WriteFrame(conn, junk); err != nil {
					t.Fatal(err)
				}
			},
			want: "authentication failed",
		},
		{
			name: "truncated-frame",
			send: func(t *testing.T, conn net.Conn, _ *ra.Channel) {
				var hdr [4]byte
				binary.BigEndian.PutUint32(hdr[:], 1000)
				if _, err := conn.Write(hdr[:]); err != nil {
					t.Fatal(err)
				}
				if _, err := conn.Write(make([]byte, 10)); err != nil {
					t.Fatal(err)
				}
				conn.Close() // frame promised 1000 bytes, delivered 10
			},
			want: "EOF",
		},
		{
			name: "oversized-frame-header",
			send: func(t *testing.T, conn net.Conn, _ *ra.Channel) {
				var hdr [4]byte
				binary.BigEndian.PutUint32(hdr[:], 1<<30)
				if _, err := conn.Write(hdr[:]); err != nil {
					t.Fatal(err)
				}
			},
			want: "exceeds limit",
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			srv, as, meas := newServerCfg(t, policy.SetP1, nil)
			conn, ch, errc := rawSession(t, srv, as, meas)
			tc.send(t, conn, ch)
			err := waitErr(t, errc, "server session")
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("session error = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestOversizedDataRejectedWithAck(t *testing.T) {
	srv, as, meas := newServerCfg(t, policy.SetP1, func(c *ccaas.ServerConfig) {
		c.MaxInputSize = 16
	})
	client := session(t, srv, as, meas, ra.RoleDataOwner)
	err := client.SendData(make([]byte, 64))
	if err == nil || !strings.Contains(err.Error(), "exceeds the 16-byte cap") {
		t.Fatalf("oversized SendData = %v, want structured cap rejection", err)
	}
	// The rejection is a reply, not a session teardown: the session and
	// sequence numbers stay intact.
	if err := client.SendData([]byte{1, 2, 3}); err != nil {
		t.Fatalf("in-cap SendData after rejection: %v", err)
	}
	if _, _, err := client.SendBinary(chaosBinary(t)); err != nil {
		t.Fatal(err)
	}
	rr, err := client.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rr.Exit != 6 {
		t.Fatalf("exit = %d, want 6 (only the accepted upload queued)", rr.Exit)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
}
