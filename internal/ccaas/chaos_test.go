package ccaas_test

import (
	"bytes"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"deflection"
	"deflection/attest"
	"deflection/internal/ccaas"
	"deflection/internal/faultnet"
	"deflection/internal/policy"
	"deflection/internal/ra"
)

// newServerCfg is newServer with a config mutator for the robustness knobs.
func newServerCfg(t *testing.T, pols policy.Set, mut func(*ccaas.ServerConfig)) (*ccaas.Server, *attest.Service, [32]byte) {
	t.Helper()
	platform, err := attest.NewPlatform("ccaas-chaos-platform")
	if err != nil {
		t.Fatal(err)
	}
	as := attest.NewService()
	as.Register(platform)
	cfg := ccaas.ServerConfig{Platform: platform, Policies: pols}
	if mut != nil {
		mut(&cfg)
	}
	srv, err := ccaas.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	meas, err := srv.Measurement()
	if err != nil {
		t.Fatal(err)
	}
	return srv, as, meas
}

// chaosBinary compiles the shared test service once (P1-only, matching the
// chaos servers) and reuses the object bytes across subtests.
var chaosBin struct {
	once sync.Once
	obj  []byte
	err  error
}

func chaosBinary(t *testing.T) []byte {
	t.Helper()
	chaosBin.once.Do(func() {
		bin, err := deflection.Generate(serviceSrc, deflection.GeneratorOptions{Policies: deflection.PolicyP1})
		if err != nil {
			chaosBin.err = err
			return
		}
		chaosBin.obj = bin.Bytes()
	})
	if chaosBin.err != nil {
		t.Fatal(chaosBin.err)
	}
	return chaosBin.obj
}

// midBinaryOffset returns a client-stream byte offset that lands inside the
// sealed binary-delivery frame whatever size the compiled service binary
// has: past the ~190-byte handshake, well before the frame ends.
func midBinaryOffset(t *testing.T) int64 {
	return int64(256 + len(chaosBinary(t))/2)
}

// runSessionBody drives SendBinary→SendData→Run over an attested session,
// leaving the Close to the caller (Retry sends its own Bye).
func runSessionBody(t *testing.T, conn *ccaas.Client) error {
	t.Helper()
	if _, _, err := conn.SendBinary(chaosBinary(t)); err != nil {
		return err
	}
	if err := conn.SendData([]byte{5, 10, 15}); err != nil {
		return err
	}
	rr, err := conn.Run()
	if err != nil {
		return err
	}
	if rr.Trapped || rr.Exit != 30 {
		t.Errorf("healthy session reply = %+v", rr)
	}
	return nil
}

// runFullSession is runSessionBody plus the closing Bye.
func runFullSession(t *testing.T, conn *ccaas.Client) error {
	t.Helper()
	if err := runSessionBody(t, conn); err != nil {
		return err
	}
	return conn.Close()
}

// healthySession runs a full clean session against srv on a fresh pipe.
func healthySession(t *testing.T, srv *ccaas.Server, as *attest.Service, meas [32]byte) error {
	t.Helper()
	serverConn, clientConn := net.Pipe()
	defer clientConn.Close()
	done := make(chan error, 1)
	go func() {
		defer serverConn.Close()
		done <- srv.Handle(serverConn)
	}()
	client, err := ccaas.Dial(clientConn, as, meas, ra.RoleDataOwner)
	if err != nil {
		return err
	}
	if err := runFullSession(t, client); err != nil {
		return err
	}
	return <-done
}

func waitErr(t *testing.T, ch <-chan error, who string) error {
	t.Helper()
	select {
	case err := <-ch:
		return err
	case <-time.After(15 * time.Second):
		t.Fatalf("%s never finished", who)
		return nil
	}
}

// TestChaosFaults injects every faultnet fault mode into a live session and
// asserts the affected session dies with a descriptive error — no panic
// escapes — while a concurrent healthy session on the same server
// completes successfully.
func TestChaosFaults(t *testing.T) {
	cases := []struct {
		name      string
		cfg       faultnet.Config
		ioTimeout time.Duration
		// wantErr: substrings, any of which may describe the session error
		// (seen on the server or the client side).
		wantErr []string
	}{
		{
			// Client writes stall for 1s per op; the server's 300ms read
			// deadline must fire rather than hang the session forever.
			name:      "latency-exceeds-io-timeout",
			cfg:       faultnet.Config{WriteLatency: time.Second},
			ioTimeout: 300 * time.Millisecond,
			wantErr:   []string{"timeout", "deadline"},
		},
		{
			// Transport dies 64 bytes into the handshake reply.
			name:    "drop-during-handshake",
			cfg:     faultnet.Config{DropAfterBytes: 64},
			wantErr: []string{"EOF", "closed"},
		},
		{
			// A binary-delivery frame lands only partially before the
			// transport dies: a short write the frame layer must surface.
			name:    "partial-write-mid-binary",
			cfg:     faultnet.Config{DropAfterBytes: midBinaryOffset(t)},
			wantErr: []string{"EOF", "closed"},
		},
		{
			// One flipped bit inside a sealed frame must fail AEAD
			// authentication, never decode to garbage.
			name:    "bitflip-corrupts-sealed-frame",
			cfg:     faultnet.Config{CorruptAtByte: midBinaryOffset(t), Seed: 11},
			wantErr: []string{"authentication failed"},
		},
		{
			// The client freezes mid-frame without closing; only the
			// server's I/O deadline can reclaim the session.
			name:      "stall-mid-frame",
			cfg:       faultnet.Config{StallAfterBytes: 1500},
			ioTimeout: 300 * time.Millisecond,
			wantErr:   []string{"timeout", "deadline"},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			srv, as, meas := newServerCfg(t, policy.SetP1, func(c *ccaas.ServerConfig) {
				c.IOTimeout = tc.ioTimeout
			})

			serverConn, clientConn := net.Pipe()
			fc := faultnet.Wrap(clientConn, tc.cfg)
			t.Cleanup(func() { fc.Close() })

			serverErr := make(chan error, 1)
			go func() {
				defer serverConn.Close()
				serverErr <- srv.Handle(serverConn)
			}()
			clientErr := make(chan error, 1)
			go func() {
				client, err := ccaas.Dial(fc, as, meas, ra.RoleCodeProvider)
				if err != nil {
					clientErr <- err
					return
				}
				clientErr <- runFullSession(t, client)
			}()
			healthyErr := make(chan error, 1)
			go func() { healthyErr <- healthySession(t, srv, as, meas) }()

			if err := waitErr(t, healthyErr, "healthy session"); err != nil {
				t.Errorf("concurrent healthy session failed: %v", err)
			}
			serr := waitErr(t, serverErr, "faulted server session")
			fc.Close() // unblock a stalled client write
			cerr := waitErr(t, clientErr, "faulted client session")

			if serr == nil && cerr == nil {
				t.Fatal("fault injected but both sides completed cleanly")
			}
			matched := false
			for _, e := range []error{serr, cerr} {
				if e == nil {
					continue
				}
				if strings.Contains(e.Error(), "panic") {
					t.Fatalf("panic escaped as session error: %v", e)
				}
				for _, want := range tc.wantErr {
					if strings.Contains(strings.ToLower(e.Error()), strings.ToLower(want)) {
						matched = true
					}
				}
			}
			if !matched {
				t.Fatalf("no descriptive error:\n  server: %v\n  client: %v\n  want one of %q",
					serr, cerr, tc.wantErr)
			}
		})
	}
}

// TestChaosPartialWritesReassemble: chunked delivery is a network condition
// the frame layer must absorb, not an error.
func TestChaosPartialWritesReassemble(t *testing.T) {
	srv, as, meas := newServerCfg(t, policy.SetP1, nil)
	serverConn, clientConn := net.Pipe()
	fc := faultnet.Wrap(clientConn, faultnet.Config{PartialWrites: true, Seed: 5})
	defer fc.Close()
	serverErr := make(chan error, 1)
	go func() {
		defer serverConn.Close()
		serverErr <- srv.Handle(serverConn)
	}()
	client, err := ccaas.Dial(fc, as, meas, ra.RoleDataOwner)
	if err != nil {
		t.Fatal(err)
	}
	if err := runFullSession(t, client); err != nil {
		t.Fatal(err)
	}
	if err := waitErr(t, serverErr, "server session"); err != nil {
		t.Fatal(err)
	}
}

// TestChaosNothingUnsealedOnWire records both directions of a complete
// session and asserts that neither the uploaded secret nor any plaintext of
// the server's JSON replies ever crosses the wire unsealed.
func TestChaosNothingUnsealedOnWire(t *testing.T) {
	srv, as, meas := newServerCfg(t, policy.SetP1, nil)
	serverConn, clientConn := net.Pipe()
	sc := faultnet.Wrap(serverConn, faultnet.Config{RecordTranscript: true})
	cc := faultnet.Wrap(clientConn, faultnet.Config{RecordTranscript: true, PartialWrites: true, Seed: 13})
	defer cc.Close()

	serverErr := make(chan error, 1)
	go func() {
		defer sc.Close()
		serverErr <- srv.Handle(sc)
	}()
	client, err := ccaas.Dial(cc, as, meas, ra.RoleDataOwner)
	if err != nil {
		t.Fatal(err)
	}
	secret := []byte("TOP-SECRET-INPUT-0xDEADBEEF")
	if _, _, err := client.SendBinary(chaosBinary(t)); err != nil {
		t.Fatal(err)
	}
	if err := client.SendData(secret); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Run(); err != nil {
		t.Fatal(err)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if err := waitErr(t, serverErr, "server session"); err != nil {
		t.Fatal(err)
	}

	clientWire, serverWire := cc.Transcript(), sc.Transcript()
	if len(clientWire) == 0 || len(serverWire) == 0 {
		t.Fatal("empty transcripts")
	}
	if bytes.Contains(clientWire, secret) {
		t.Fatal("secret input crossed the wire in plaintext")
	}
	for _, token := range [][]byte{[]byte(`"outputs"`), []byte(`"binary_hash"`), []byte(`"ok"`)} {
		if bytes.Contains(serverWire, token) {
			t.Fatalf("server reply plaintext %q crossed the wire unsealed", token)
		}
	}
}
