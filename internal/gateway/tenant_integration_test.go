package gateway

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"deflection/internal/ccaas"
	"deflection/internal/ra"
	"deflection/internal/tenant"
)

// tenantRegistry parses conf and wraps it in a registry, failing the test
// on error.
func tenantRegistry(t *testing.T, conf string) *tenant.Registry {
	t.Helper()
	cfg, err := tenant.ParseConfig(strings.NewReader(conf))
	if err != nil {
		t.Fatalf("tenant config: %v", err)
	}
	return tenant.NewRegistry(cfg)
}

// holdTenantSession opens a session as the given tenant and keeps it open:
// preamble sent, hello consumed, slot held until the conn closes.
func holdTenantSession(t *testing.T, addr, token string) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := WritePreambleTagged(conn, nil, 0, token); err != nil {
		conn.Close()
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	frame, err := ra.ReadFrame(conn)
	if err != nil {
		conn.Close()
		t.Fatal(err)
	}
	var gs ccaas.GatewayStatus
	if err := json.Unmarshal(frame, &gs); err == nil && gs.GatewayBusy {
		conn.Close()
		t.Fatalf("hold session for %q shed: %s", token, gs.Error)
	}
	_ = conn.SetReadDeadline(time.Time{})
	return conn
}

// runTenantSession completes one echo round-trip as the given tenant. On a
// busy reply it returns the parsed GatewayStatus so callers can assert on
// the retry hint.
func runTenantSession(t *testing.T, addr, token string) (*ccaas.GatewayStatus, error) {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	if err := WritePreambleTagged(conn, nil, 0, token); err != nil {
		return nil, err
	}
	frame, err := ra.ReadFrame(conn)
	if err != nil {
		return nil, err
	}
	var gs ccaas.GatewayStatus
	if err := json.Unmarshal(frame, &gs); err == nil && gs.GatewayBusy {
		return &gs, fmt.Errorf("%w: %s", ccaas.ErrGatewayBusy, gs.Error)
	}
	if err := ra.WriteFrame(conn, []byte("ping")); err != nil {
		return nil, err
	}
	if echo, err := ra.ReadFrame(conn); err != nil {
		return nil, err
	} else if string(echo) != "ping" {
		return nil, fmt.Errorf("echo %q", echo)
	}
	return nil, nil
}

// TestGatewayStalledPreambleHoldsNoSlot is the regression test for the
// admission-before-preamble bug: a client that connects and never sends its
// routing preamble used to count against MaxSessions, so one idle socket
// could block the whole gateway. Admission now happens after the preamble
// parse, so the stalled client holds nothing.
func TestGatewayStalledPreambleHoldsNoSlot(t *testing.T) {
	b := newFakeBackend(t, "b0")
	g, addr := startGateway(t, Config{
		Backends:    []string{b.addr()},
		MaxSessions: 1,
		// Long enough that the stalled conn is still mid-preamble while the
		// real session runs.
		PreambleTimeout: 30 * time.Second,
	})

	stalled, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	// Give the gateway a moment to accept and start waiting on the
	// preamble that never comes.
	time.Sleep(50 * time.Millisecond)

	if g.ActiveSessions() != 0 {
		t.Fatalf("stalled preamble consumed a session slot (active=%d)", g.ActiveSessions())
	}
	if _, err := runSession(t, addr, nil); err != nil {
		t.Fatalf("session behind a stalled preamble failed: %v", err)
	}
}

// TestGatewayTenantConcurrencyCap: a tier's max_sessions bounds one tenant
// without affecting another, and the shed reply carries a retry hint.
func TestGatewayTenantConcurrencyCap(t *testing.T) {
	b := newFakeBackend(t, "b0")
	reg := tenantRegistry(t, `
tier small weight=1 max_sessions=1
tier default weight=1
tenant capped small
default default
`)
	_, addr := startGateway(t, Config{Backends: []string{b.addr()}, Tenants: reg})

	hold := holdTenantSession(t, addr, "capped")
	defer hold.Close()

	gs, err := runTenantSession(t, addr, "capped")
	if err == nil || !errors.Is(err, ccaas.ErrGatewayBusy) {
		t.Fatalf("second capped session: %v, want busy", err)
	}
	if gs == nil || gs.RetryAfterMS <= 0 {
		t.Fatalf("shed reply %+v carries no retry_after_ms hint", gs)
	}
	// Another tenant is untouched by capped's limit.
	if _, err := runTenantSession(t, addr, "someone-else"); err != nil {
		t.Fatalf("unrelated tenant shed: %v", err)
	}
}

// TestGatewayTenantQueueDrains: at MaxSessions, a queueing tier's session
// waits instead of shedding and is admitted when the slot frees.
func TestGatewayTenantQueueDrains(t *testing.T) {
	b := newFakeBackend(t, "b0")
	reg := tenantRegistry(t, "tier default weight=1 queue_deadline=5s\n")
	g, addr := startGateway(t, Config{
		Backends:    []string{b.addr()},
		MaxSessions: 1,
		Tenants:     reg,
	})

	hold := holdTenantSession(t, addr, "first")
	done := make(chan error, 1)
	go func() {
		_, err := runTenantSession(t, addr, "second")
		done <- err
	}()

	// The second session must queue, not shed.
	deadline := time.Now().Add(2 * time.Second)
	for g.QueuedSessions() == 0 {
		select {
		case err := <-done:
			t.Fatalf("queued session returned early: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("second session never queued")
		}
		time.Sleep(5 * time.Millisecond)
	}

	hold.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("queued session failed after slot freed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued session never drained")
	}

	stats := g.TenantStats()
	byTenant := map[string]tenant.Stat{}
	for _, s := range stats {
		byTenant[s.Tenant] = s
	}
	if byTenant["second"].QueuedTotal != 1 || byTenant["second"].Admitted != 1 {
		t.Fatalf("second's stats %+v, want queued_total=1 admitted=1", byTenant["second"])
	}
}

// TestGatewayTenantRateLimit: the token bucket sheds a flood with
// "rate exceeded" while leaving the first burst admitted.
func TestGatewayTenantRateLimit(t *testing.T) {
	b := newFakeBackend(t, "b0")
	reg := tenantRegistry(t, "tier default weight=1 rate=0.001 burst=2\n")
	_, addr := startGateway(t, Config{Backends: []string{b.addr()}, Tenants: reg})

	for i := 0; i < 2; i++ {
		if _, err := runTenantSession(t, addr, "burst"); err != nil {
			t.Fatalf("burst session %d: %v", i, err)
		}
	}
	gs, err := runTenantSession(t, addr, "burst")
	if err == nil || !errors.Is(err, ccaas.ErrGatewayBusy) {
		t.Fatalf("over-rate session: %v, want busy", err)
	}
	if gs == nil || gs.RetryAfterMS <= 0 {
		t.Fatalf("rate-limit reply %+v carries no retry hint", gs)
	}
}

// TestGatewayAnonymousTenantDefaults: sessions without a tenant label (the
// plain v1 preamble) draw from the default tier under the anonymous label.
func TestGatewayAnonymousTenantDefaults(t *testing.T) {
	b := newFakeBackend(t, "b0")
	reg := tenantRegistry(t, "tier default weight=1\n")
	g, addr := startGateway(t, Config{Backends: []string{b.addr()}, Tenants: reg})

	if _, err := runSession(t, addr, nil); err != nil {
		t.Fatalf("unlabelled session: %v", err)
	}
	for _, s := range g.TenantStats() {
		if s.Tenant == tenant.AnonymousTenant && s.Admitted == 1 {
			return
		}
	}
	t.Fatalf("no anonymous admission in stats %+v", g.TenantStats())
}
