package ccaas

import (
	"net"
	"strings"
	"testing"

	"deflection/attest"
	"deflection/internal/policy"
	"deflection/internal/ra"
)

// TestHandleRecoversSessionPanic injects a panic into the session loop (in
// place of a verifier/emulator crash) and asserts it surfaces as that
// session's error — and that the server keeps serving new sessions.
func TestHandleRecoversSessionPanic(t *testing.T) {
	platform, err := attest.NewPlatform("ccaas-panic-platform")
	if err != nil {
		t.Fatal(err)
	}
	as := attest.NewService()
	as.Register(platform)
	srv, err := NewServer(ServerConfig{Platform: platform, Policies: policy.SetP1})
	if err != nil {
		t.Fatal(err)
	}
	meas, err := srv.Measurement()
	if err != nil {
		t.Fatal(err)
	}

	runHook = func() { panic("emulator blew up") }
	defer func() { runHook = nil }()

	serverConn, clientConn := net.Pipe()
	defer clientConn.Close()
	done := make(chan error, 1)
	go func() {
		defer serverConn.Close()
		done <- srv.Handle(serverConn)
	}()
	client, err := Dial(clientConn, as, meas, ra.RoleDataOwner)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Run(); err == nil {
		t.Fatal("client survived a server-side panic without an error")
	}
	serr := <-done
	if serr == nil || !strings.Contains(serr.Error(), "session panic: emulator blew up") {
		t.Fatalf("session error = %v, want recovered panic", serr)
	}
	if srv.ActiveSessions() != 0 {
		t.Fatalf("%d sessions leaked past the panic", srv.ActiveSessions())
	}

	// The server itself survived: a fresh session works.
	runHook = nil
	serverConn2, clientConn2 := net.Pipe()
	defer clientConn2.Close()
	done2 := make(chan error, 1)
	go func() {
		defer serverConn2.Close()
		done2 <- srv.Handle(serverConn2)
	}()
	client2, err := Dial(clientConn2, as, meas, ra.RoleDataOwner)
	if err != nil {
		t.Fatal(err)
	}
	if err := client2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done2; err != nil {
		t.Fatalf("post-panic session = %v", err)
	}
}
