package gateway

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deflection/internal/ccaas"
	"deflection/internal/obs"
	"deflection/internal/ra"
)

// fakeBackend is a minimal stand-in for a deflection-serve process: on
// every accepted connection it immediately writes a hello frame naming
// itself (mirroring the enclave's unprompted attestation hello), then
// echoes frames until the peer hangs up.
type fakeBackend struct {
	id string
	ln net.Listener

	mu       sync.Mutex
	sessions int64
	closed   bool
	wg       sync.WaitGroup
}

type fakeHello struct {
	Backend string `json:"backend"`
}

func newFakeBackend(t *testing.T, id string) *fakeBackend {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	b := &fakeBackend{id: id, ln: ln}
	b.wg.Add(1)
	go b.serve()
	t.Cleanup(b.stop)
	return b
}

func (b *fakeBackend) addr() string { return b.ln.Addr().String() }

func (b *fakeBackend) serve() {
	defer b.wg.Done()
	for {
		conn, err := b.ln.Accept()
		if err != nil {
			return
		}
		b.mu.Lock()
		b.sessions++
		b.mu.Unlock()
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			defer conn.Close()
			hello, _ := json.Marshal(fakeHello{Backend: b.id})
			if err := ra.WriteFrame(conn, hello); err != nil {
				return
			}
			for {
				frame, err := ra.ReadFrame(conn)
				if err != nil {
					return
				}
				if err := ra.WriteFrame(conn, frame); err != nil {
					return
				}
			}
		}()
	}
}

func (b *fakeBackend) sessionCount() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sessions
}

func (b *fakeBackend) stop() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	b.mu.Unlock()
	b.ln.Close()
	b.wg.Wait()
}

// startGateway serves cfg on a fresh listener and returns the gateway plus
// its address. Probing defaults off unless cfg enables it.
func startGateway(t *testing.T, cfg Config) (*Gateway, string) {
	t.Helper()
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = -1
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	var served sync.WaitGroup
	served.Add(1)
	go func() {
		defer served.Done()
		_ = g.Serve(ln)
	}()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = g.Shutdown(ctx)
		served.Wait()
	})
	return g, ln.Addr().String()
}

// runSession dials the gateway, sends the preamble, and completes one
// echo round-trip. It returns the id of the backend that served it.
func runSession(t *testing.T, addr string, route []byte) (string, error) {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return "", err
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := WritePreamble(conn, route); err != nil {
		return "", err
	}
	frame, err := ra.ReadFrame(conn)
	if err != nil {
		return "", err
	}
	var gs ccaas.GatewayStatus
	if err := json.Unmarshal(frame, &gs); err == nil && gs.GatewayBusy {
		return "", fmt.Errorf("%w: %s", ccaas.ErrGatewayBusy, gs.Error)
	}
	var hello fakeHello
	if err := json.Unmarshal(frame, &hello); err != nil || hello.Backend == "" {
		return "", fmt.Errorf("unexpected first frame %q", frame)
	}
	if err := ra.WriteFrame(conn, []byte("ping")); err != nil {
		return "", err
	}
	echo, err := ra.ReadFrame(conn)
	if err != nil {
		return "", err
	}
	if string(echo) != "ping" {
		return "", fmt.Errorf("echo %q", echo)
	}
	return hello.Backend, nil
}

func routeKey(s string) []byte {
	h := sha256.Sum256([]byte(s))
	return h[:]
}

func TestGatewayRoutesConsistently(t *testing.T) {
	backends := []*fakeBackend{
		newFakeBackend(t, "b0"), newFakeBackend(t, "b1"), newFakeBackend(t, "b2"),
	}
	_, addr := startGateway(t, Config{
		Backends: []string{backends[0].addr(), backends[1].addr(), backends[2].addr()},
	})
	route := routeKey("some-binary")
	first, err := runSession(t, addr, route)
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	for i := 0; i < 8; i++ {
		got, err := runSession(t, addr, route)
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		if got != first {
			t.Fatalf("session %d landed on %s, first on %s — routing is not sticky", i, got, first)
		}
	}
	// Different binaries spread: with 40 distinct routes across 3 backends
	// at least two backends must serve traffic.
	served := map[string]bool{}
	for i := 0; i < 40; i++ {
		got, err := runSession(t, addr, routeKey(fmt.Sprintf("bin-%d", i)))
		if err != nil {
			t.Fatalf("spread session %d: %v", i, err)
		}
		served[got] = true
	}
	if len(served) < 2 {
		t.Fatalf("40 distinct routes all landed on %v", served)
	}
}

func TestGatewayUnroutedPrefersLeastLoaded(t *testing.T) {
	b0, b1 := newFakeBackend(t, "b0"), newFakeBackend(t, "b1")
	g, addr := startGateway(t, Config{Backends: []string{b0.addr(), b1.addr()}})

	// Occupy b0 with a held session so its in-flight count is 1.
	hold, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer hold.Close()
	if err := WritePreamble(hold, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ra.ReadFrame(hold); err != nil {
		t.Fatal(err)
	}
	// The held session went to b0 (identity order at equal load). Wait for
	// its inflight to be visible.
	deadline := time.Now().Add(2 * time.Second)
	for {
		st := g.BackendStates()
		if st[0].Inflight == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("held session not visible in %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	got, err := runSession(t, addr, nil)
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	if got != "b1" {
		t.Fatalf("unrouted session went to loaded backend %s", got)
	}
}

func TestGatewayFailover(t *testing.T) {
	backends := []*fakeBackend{
		newFakeBackend(t, "b0"), newFakeBackend(t, "b1"), newFakeBackend(t, "b2"),
	}
	reg := obs.NewRegistry()
	_, addr := startGateway(t, Config{
		Backends: []string{backends[0].addr(), backends[1].addr(), backends[2].addr()},
		Metrics:  reg,
		Breaker:  BreakerConfig{Threshold: 100}, // keep breakers out of this test
	})
	route := routeKey("failover-binary")
	primary, err := runSession(t, addr, route)
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	for _, b := range backends {
		if b.id == primary {
			b.stop()
		}
	}
	got, err := runSession(t, addr, route)
	if err != nil {
		t.Fatalf("session after primary death: %v", err)
	}
	if got == primary {
		t.Fatalf("session landed on dead backend %s", got)
	}
	if n := reg.Counter("gateway_failovers_total").Value(); n < 1 {
		t.Fatalf("gateway_failovers_total = %d, want >= 1", n)
	}
	// Same route keeps landing on the same survivor: ring failover order is
	// deterministic, so the survivor's warm cache is reused too.
	again, err := runSession(t, addr, route)
	if err != nil {
		t.Fatalf("repeat session: %v", err)
	}
	if again != got {
		t.Fatalf("failover not sticky: %s then %s", got, again)
	}
}

func TestGatewayBreakerOpensAndSkips(t *testing.T) {
	dead := newFakeBackend(t, "dead")
	live := newFakeBackend(t, "live")
	deadAddr := dead.addr()
	dead.stop()
	reg := obs.NewRegistry()
	g, addr := startGateway(t, Config{
		Backends: []string{deadAddr, live.addr()},
		Metrics:  reg,
		Breaker:  BreakerConfig{Threshold: 1, OpenFor: time.Hour},
	})
	// First unrouted session tries the dead backend (identity order), fails,
	// opens its breaker, and completes on the live one.
	if got, err := runSession(t, addr, nil); err != nil || got != "live" {
		t.Fatalf("session: backend=%q err=%v", got, err)
	}
	st := g.BackendStates()
	if st[0].Breaker != "open" {
		t.Fatalf("dead backend breaker %q, want open (states %+v)", st[0].Breaker, st)
	}
	// Subsequent sessions skip the open breaker without dialing.
	if _, err := runSession(t, addr, nil); err != nil {
		t.Fatalf("second session: %v", err)
	}
	if n := reg.Counter("gateway_breaker_skips_total").Value(); n < 1 {
		t.Fatalf("gateway_breaker_skips_total = %d, want >= 1", n)
	}
	if n := reg.Counter("gateway_connect_failures_total").Value(); n != 1 {
		t.Fatalf("gateway_connect_failures_total = %d, want exactly 1 (no redial of open breaker)", n)
	}
}

func TestGatewayProbeRecovery(t *testing.T) {
	flaky := newFakeBackend(t, "flaky")
	flakyAddr := flaky.addr()
	reg := obs.NewRegistry()
	g, _ := startGateway(t, Config{
		Backends:      []string{flakyAddr},
		Metrics:       reg,
		Breaker:       BreakerConfig{Threshold: 1, OpenFor: 30 * time.Millisecond},
		ProbeInterval: 10 * time.Millisecond,
		ProbeTimeout:  500 * time.Millisecond,
	})
	waitState := func(want string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			st := g.BackendStates()
			if st[0].Breaker == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("breaker stuck at %q, want %q", st[0].Breaker, want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	flaky.stop()
	waitState("open")
	// Resurrect the backend on the same address; a half-open probe must
	// close the breaker without any live session involved.
	ln, err := net.Listen("tcp", flakyAddr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", flakyAddr, err)
	}
	revived := &fakeBackend{id: "flaky", ln: ln}
	revived.wg.Add(1)
	go revived.serve()
	t.Cleanup(revived.stop)
	waitState("closed")
	if n := reg.Counter("gateway_breaker_recoveries_total").Value(); n < 1 {
		t.Fatalf("gateway_breaker_recoveries_total = %d, want >= 1", n)
	}
	if g.m.Gauge("gateway_backends_healthy").Value() != 1 {
		t.Fatal("healthy gauge not restored")
	}
}

func TestGatewayBusyWhenNoBackend(t *testing.T) {
	gone := newFakeBackend(t, "gone")
	goneAddr := gone.addr()
	gone.stop()
	reg := obs.NewRegistry()
	_, addr := startGateway(t, Config{
		Backends: []string{goneAddr},
		Metrics:  reg,
		Breaker:  BreakerConfig{Threshold: 100},
	})
	_, err := runSession(t, addr, nil)
	if err == nil {
		t.Fatal("session succeeded with no live backend")
	}
	if !containsBusy(err) {
		t.Fatalf("error %v, want gateway-busy", err)
	}
	if n := reg.Counter("gateway_no_backend_total").Value(); n != 1 {
		t.Fatalf("gateway_no_backend_total = %d", n)
	}
}

func containsBusy(err error) bool { return errors.Is(err, ccaas.ErrGatewayBusy) }

func TestGatewayRejectsWithoutPreamble(t *testing.T) {
	b := newFakeBackend(t, "b0")
	reg := obs.NewRegistry()
	_, addr := startGateway(t, Config{Backends: []string{b.addr()}, Metrics: reg})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := ra.WriteFrame(conn, []byte(`{"not":"a preamble"}`)); err != nil {
		t.Fatal(err)
	}
	frame, err := ra.ReadFrame(conn)
	if err != nil {
		t.Fatalf("no reply to bad preamble: %v", err)
	}
	var gs ccaas.GatewayStatus
	if err := json.Unmarshal(frame, &gs); err != nil || !gs.GatewayBusy {
		t.Fatalf("reply %q, want busy status", frame)
	}
	if n := reg.Counter("gateway_preamble_errors_total").Value(); n != 1 {
		t.Fatalf("gateway_preamble_errors_total = %d", n)
	}
	if b.sessionCount() != 0 {
		t.Fatal("bad preamble still reached a backend")
	}
}

func TestGatewayMaxSessions(t *testing.T) {
	b := newFakeBackend(t, "b0")
	_, addr := startGateway(t, Config{Backends: []string{b.addr()}, MaxSessions: 1})
	hold, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer hold.Close()
	if err := WritePreamble(hold, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ra.ReadFrame(hold); err != nil {
		t.Fatal(err)
	}
	_, err = runSession(t, addr, nil)
	if err == nil || !containsBusy(err) {
		t.Fatalf("second session error %v, want gateway-busy", err)
	}
	// Releasing the held session frees the slot.
	hold.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := runSession(t, addr, nil); err == nil {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("slot never freed: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestGatewayDrainWaitsForSessions(t *testing.T) {
	b := newFakeBackend(t, "b0")
	g, addr := startGateway(t, Config{Backends: []string{b.addr()}})
	hold, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer hold.Close()
	if err := WritePreamble(hold, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ra.ReadFrame(hold); err != nil {
		t.Fatal(err)
	}

	var drainErr atomic.Value
	done := make(chan struct{})
	go func() {
		defer close(done)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := g.Shutdown(ctx); err != nil {
			drainErr.Store(err)
		}
	}()
	select {
	case <-done:
		t.Fatal("Shutdown returned while a session was still held")
	case <-time.After(100 * time.Millisecond):
	}
	if !g.Draining() {
		t.Fatal("gateway not draining")
	}
	// New sessions are refused during drain.
	if _, err := runSession(t, addr, nil); err == nil {
		t.Fatal("new session admitted during drain")
	}
	hold.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not finish after the session ended")
	}
	if e := drainErr.Load(); e != nil {
		t.Fatalf("Shutdown: %v", e)
	}
}

func TestGatewayShutdownForceClosesOnDeadline(t *testing.T) {
	b := newFakeBackend(t, "b0")
	g, addr := startGateway(t, Config{Backends: []string{b.addr()}})
	hold, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer hold.Close()
	if err := WritePreamble(hold, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ra.ReadFrame(hold); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := g.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
	}
	if g.ActiveSessions() != 0 {
		t.Fatalf("%d sessions survived force close", g.ActiveSessions())
	}
}
