package ccaas_test

import (
	"context"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"deflection"
	"deflection/attest"
	"deflection/internal/ccaas"
	"deflection/internal/obs"
	"deflection/internal/policy"
	"deflection/internal/ra"
)

// newMeteredServer builds a server wired to a fresh registry and a
// structured log capture.
func newMeteredServer(t *testing.T, cfg ccaas.ServerConfig) (*ccaas.Server, *attest.Service, [32]byte, *obs.Registry, *logCapture) {
	t.Helper()
	platform, err := attest.NewPlatform("metrics-platform")
	if err != nil {
		t.Fatal(err)
	}
	as := attest.NewService()
	as.Register(platform)
	reg := obs.NewRegistry()
	lc := &logCapture{}
	cfg.Platform = platform
	cfg.Metrics = reg
	cfg.Log = lc.log
	srv, err := ccaas.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	meas, err := srv.Measurement()
	if err != nil {
		t.Fatal(err)
	}
	return srv, as, meas, reg, lc
}

type logCapture struct {
	mu    sync.Mutex
	lines []string
}

func (lc *logCapture) log(event string, kv ...any) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	line := event
	if extra := obs.KV(kv...); extra != "" {
		line += " " + extra
	}
	lc.lines = append(lc.lines, line)
}

func (lc *logCapture) joined() string {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return strings.Join(lc.lines, "\n")
}

// TestSessionMetrics drives one full session (attest, load, data, run, bye)
// and asserts the server's session counters, byte counters and stage
// histograms all moved.
func TestSessionMetrics(t *testing.T) {
	srv, as, meas, reg, lc := newMeteredServer(t, ccaas.ServerConfig{Policies: policy.SetP1P6})

	before := reg.Snapshot()
	if before.Counters["ccaas_sessions_accepted_total"] != 0 {
		t.Fatalf("fresh registry not zero: %+v", before.Counters)
	}

	serverConn, clientConn := net.Pipe()
	done := make(chan error, 1)
	go func() {
		defer serverConn.Close()
		done <- srv.Handle(serverConn)
	}()
	client, err := ccaas.Dial(clientConn, as, meas, ra.RoleCodeProvider)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := deflection.Generate(serviceSrc, deflection.GeneratorOptions{Policies: deflection.PolicyP1P6})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := client.SendBinary(bin.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := client.SendData([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Run(); err != nil {
		t.Fatal(err)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("session ended with error: %v", err)
	}

	snap := reg.Snapshot()
	wantOne := []string{
		"ccaas_sessions_accepted_total",
		"ccaas_binaries_verified_total",
		"ccaas_runs_total",
	}
	for _, name := range wantOne {
		if got := snap.Counters[name]; got != 1 {
			t.Errorf("%s = %d, want 1", name, got)
		}
	}
	for _, name := range []string{"ccaas_bytes_sealed_total", "ccaas_bytes_unsealed_total"} {
		if got := snap.Counters[name]; got <= 0 {
			t.Errorf("%s = %d, want > 0", name, got)
		}
	}
	if got := snap.Gauges["ccaas_sessions_active"]; got != 0 {
		t.Errorf("ccaas_sessions_active = %d after session end, want 0", got)
	}
	for _, name := range []string{
		"ccaas_attest_seconds", "ccaas_load_seconds", "ccaas_run_seconds", "ccaas_session_seconds",
	} {
		h := snap.Histograms[name]
		if h.Count == 0 || h.Sum <= 0 {
			t.Errorf("%s = %+v, want at least one positive observation", name, h)
		}
	}

	logs := lc.joined()
	for _, want := range []string{"session_start", "binary_verified", "run ", "session_end", "sid=1"} {
		if !strings.Contains(logs, want) {
			t.Errorf("structured log missing %q:\n%s", want, logs)
		}
	}
}

// TestBusyAndPanicMetrics checks the failure-path counters: a capacity
// rejection and an injected in-session panic.
func TestBusyAndPanicMetrics(t *testing.T) {
	srv, as, meas, reg, _ := newMeteredServer(t, ccaas.ServerConfig{
		Policies:    policy.SetP1,
		MaxSessions: 1,
	})

	// First session occupies the only slot; the data round trip guarantees
	// the server has passed admission before the registry is inspected.
	first := session(t, srv, as, meas, ra.RoleCodeProvider)
	if err := first.SendData([]byte{42}); err != nil {
		t.Fatal(err)
	}

	// Second session must be rejected busy.
	serverConn, clientConn := net.Pipe()
	done := make(chan error, 1)
	go func() {
		defer serverConn.Close()
		done <- srv.Handle(serverConn)
	}()
	c2, err := ccaas.Dial(clientConn, as, meas, ra.RoleDataOwner)
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.SendData([]byte{1}); err == nil {
		t.Fatal("expected busy rejection")
	}
	clientConn.Close()
	<-done

	snap := reg.Snapshot()
	if got := snap.Counters["ccaas_sessions_rejected_busy_total"]; got != 1 {
		t.Errorf("ccaas_sessions_rejected_busy_total = %d, want 1", got)
	}
	if got := snap.Counters["ccaas_sessions_accepted_total"]; got != 1 {
		t.Errorf("ccaas_sessions_accepted_total = %d, want 1", got)
	}
}

// TestClientRetryMetrics: a dialer that fails transiently twice before
// succeeding must record its attempts and backoffs.
func TestClientRetryMetrics(t *testing.T) {
	srv, as, meas, _, _ := newMeteredServer(t, ccaas.ServerConfig{Policies: policy.SetP1})

	clientReg := obs.NewRegistry()
	fails := 2
	dial := func() (io.ReadWriteCloser, error) {
		if fails > 0 {
			fails--
			return nil, net.ErrClosed
		}
		serverConn, clientConn := net.Pipe()
		go func() {
			defer serverConn.Close()
			_ = srv.Handle(serverConn)
		}()
		return clientConn, nil
	}
	c, err := ccaas.DialRetry(dial, as, meas, ra.RoleCodeProvider, ccaas.RetryConfig{
		Metrics: clientReg,
		Sleep:   func(context.Context, time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = c.Close()

	snap := clientReg.Snapshot()
	if got := snap.Counters["ccaas_client_attempts_total"]; got != 3 {
		t.Errorf("ccaas_client_attempts_total = %d, want 3", got)
	}
	if got := snap.Counters["ccaas_client_retries_total"]; got != 2 {
		t.Errorf("ccaas_client_retries_total = %d, want 2", got)
	}
	if got := snap.Counters["ccaas_client_transient_failures_total"]; got != 2 {
		t.Errorf("ccaas_client_transient_failures_total = %d, want 2", got)
	}
	if h := snap.Histograms["ccaas_client_backoff_seconds"]; h.Count != 2 {
		t.Errorf("ccaas_client_backoff_seconds count = %d, want 2", h.Count)
	}
}
