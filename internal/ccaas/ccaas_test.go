package ccaas_test

import (
	"encoding/binary"
	"net"
	"strings"
	"testing"

	"deflection"
	"deflection/attest"
	"deflection/internal/ccaas"
	"deflection/internal/policy"
	"deflection/internal/ra"
	"deflection/internal/runtime"
)

const serviceSrc = `
char buf[64];
int main() {
	int n = __ocall_recv(buf, 64);
	int s = 0;
	for (int i = 0; i < n; i++) s += (int)buf[i];
	send_int(s);
	return s;
}`

func newServer(t *testing.T, pols policy.Set) (*ccaas.Server, *attest.Service, [32]byte) {
	t.Helper()
	platform, err := attest.NewPlatform("ccaas-platform")
	if err != nil {
		t.Fatal(err)
	}
	as := attest.NewService()
	as.Register(platform)
	srv, err := ccaas.NewServer(ccaas.ServerConfig{Platform: platform, Policies: pols})
	if err != nil {
		t.Fatal(err)
	}
	meas, err := srv.Measurement()
	if err != nil {
		t.Fatal(err)
	}
	return srv, as, meas
}

func session(t *testing.T, srv *ccaas.Server, as *attest.Service, meas [32]byte, role ra.Role) *ccaas.Client {
	t.Helper()
	serverConn, clientConn := net.Pipe()
	done := make(chan error, 1)
	go func() {
		defer serverConn.Close()
		done <- srv.Handle(serverConn)
	}()
	t.Cleanup(func() {
		clientConn.Close()
		<-done // session goroutine must exit
	})
	client, err := ccaas.Dial(clientConn, as, meas, role)
	if err != nil {
		t.Fatal(err)
	}
	return client
}

func TestCCaaSSession(t *testing.T) {
	srv, as, meas := newServer(t, policy.SetP1P6)
	client := session(t, srv, as, meas, ra.RoleCodeProvider)

	bin, err := deflection.Generate(serviceSrc, deflection.GeneratorOptions{Policies: deflection.PolicyP1P6})
	if err != nil {
		t.Fatal(err)
	}
	hash, guards, err := client.SendBinary(bin.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(hash) != 32 || guards == 0 {
		t.Fatalf("hash %d bytes, guards %d", len(hash), guards)
	}
	if err := client.SendData([]byte{5, 10, 15}); err != nil {
		t.Fatal(err)
	}
	rr, err := client.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rr.Trapped || rr.Exit != 30 {
		t.Fatalf("reply = %+v", rr)
	}
	if len(rr.Outputs) != 1 {
		t.Fatalf("outputs = %d", len(rr.Outputs))
	}
	msg, err := runtime.Unpad(rr.Outputs[0])
	if err != nil {
		t.Fatal(err)
	}
	if got := int64(binary.LittleEndian.Uint64(msg)); got != 30 {
		t.Fatalf("output = %d", got)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCCaaSRejectsUnderInstrumented(t *testing.T) {
	srv, as, meas := newServer(t, policy.SetP1P5)
	client := session(t, srv, as, meas, ra.RoleCodeProvider)
	bin, err := deflection.Generate(serviceSrc, deflection.GeneratorOptions{Policies: deflection.PolicyP1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := client.SendBinary(bin.Bytes()); err == nil {
		t.Fatal("under-instrumented binary accepted")
	} else if !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("unexpected error: %v", err)
	}
	// The session survives a rejection: a proper binary still loads.
	good, err := deflection.Generate(serviceSrc, deflection.GeneratorOptions{Policies: deflection.PolicyP1P5})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := client.SendBinary(good.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCCaaSRejectsWrongMeasurement(t *testing.T) {
	srv, as, _ := newServer(t, policy.SetP1)
	var wrong [32]byte
	copy(wrong[:], "some-other-bootstrap-build")
	serverConn, clientConn := net.Pipe()
	go func() {
		defer serverConn.Close()
		_ = srv.Handle(serverConn)
	}()
	defer clientConn.Close()
	if _, err := ccaas.Dial(clientConn, as, wrong, ra.RoleDataOwner); err == nil {
		t.Fatal("wrong measurement accepted")
	}
}

func TestCCaaSMultipleRunsPerSession(t *testing.T) {
	srv, as, meas := newServer(t, policy.SetP1)
	client := session(t, srv, as, meas, ra.RoleDataOwner)
	bin, err := deflection.Generate(serviceSrc, deflection.GeneratorOptions{Policies: deflection.PolicyP1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := client.SendBinary(bin.Bytes()); err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 3; round++ {
		if err := client.SendData([]byte{byte(round)}); err != nil {
			t.Fatal(err)
		}
		rr, err := client.Run()
		if err != nil {
			t.Fatal(err)
		}
		if rr.Exit != int64(round) {
			t.Fatalf("round %d: exit %d", round, rr.Exit)
		}
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCCaaSOverTCP(t *testing.T) {
	srv, as, meas := newServer(t, policy.SetP1)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() { _ = srv.Serve(l) }()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	client, err := ccaas.Dial(conn, as, meas, ra.RoleDataOwner)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := deflection.Generate(`int main() { return 123; }`,
		deflection.GeneratorOptions{Policies: deflection.PolicyP1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := client.SendBinary(bin.Bytes()); err != nil {
		t.Fatal(err)
	}
	rr, err := client.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rr.Exit != 123 {
		t.Fatalf("exit = %d", rr.Exit)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCCaaSServerValidation(t *testing.T) {
	if _, err := ccaas.NewServer(ccaas.ServerConfig{}); err == nil {
		t.Fatal("nil platform accepted")
	}
}
