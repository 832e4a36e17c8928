package gateway_test

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net"
	goruntime "runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deflection/internal/ccaas"
	"deflection/internal/gateway"
	"deflection/internal/obs"
	"deflection/internal/ra"
	"deflection/internal/tenant"
)

// gwTenantDialer is gwDialer with a tenant admission label in the preamble.
func gwTenantDialer(addr string, route []byte, token string) ccaas.Dialer {
	return func() (io.ReadWriteCloser, error) {
		conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err != nil {
			return nil, err
		}
		if err := gateway.WritePreambleTagged(conn, route, 0, token); err != nil {
			conn.Close()
			return nil, err
		}
		return conn, nil
	}
}

// TestTenantStarvation is the mixed-tier overload scenario: one premium
// tenant shares a gateway at MaxSessions with eight free tenants flooding
// it. The acceptance bar: the premium tenant completes every session with
// ZERO busy rejections (weighted-fair queueing drains premium first and
// eviction never reaches a higher tier), the free tiers shed and every
// shed is counted, the admission metrics account for every session the
// clients observed, and draining the stack leaks no goroutines.
func TestTenantStarvation(t *testing.T) {
	before := goruntime.NumGoroutine()

	func() {
		f := newFleet(t, 2)
		gwReg := obs.NewRegistry()

		tcfg, err := tenant.ParseConfig(strings.NewReader(`
tier premium weight=8 queue_deadline=30s queue_depth=64
tier free weight=1 queue_deadline=250ms queue_depth=4
tenant vip premium
default free
`))
		if err != nil {
			t.Fatal(err)
		}
		g, err := gateway.New(gateway.Config{
			Backends:       f.addrs(),
			Metrics:        gwReg,
			Tenants:        tenant.NewRegistry(tcfg),
			MaxSessions:    4,
			AdmissionQueue: 32,
			HelloTimeout:   5 * time.Second,
			DialTimeout:    time.Second,
			ProbeInterval:  -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		served := make(chan error, 1)
		go func() { served <- g.Serve(ln) }()
		addr := ln.Addr().String()

		obj := fleetBinary(t)
		digest := sha256.Sum256(obj)
		route := digest[:]
		oneShot := ccaas.RetryConfig{Attempts: 1}

		// Seed: pay the fleet's one cold verification before the overload so
		// flood sessions are uniformly fast.
		if err := ccaas.Retry(gwTenantDialer(addr, route, "vip"), f.as, f.meas,
			ra.RoleCodeProvider, oneShot, fleetSession(t, obj, []byte{1, 2}, 3)); err != nil {
			t.Fatalf("seed session: %v", err)
		}

		const (
			premiumSessions = 20
			freeTenants     = 8
			freePerTenant   = 15
		)
		var (
			wg           sync.WaitGroup
			freeOK       atomic.Int64
			freeBusy     atomic.Int64
			premiumOK    atomic.Int64
			otherErrs    atomic.Int64
			premiumFails = make(chan error, premiumSessions)
		)
		// Free flood: 8 tenants hammering concurrently, no retries — every
		// busy reply is a shed we expect the gateway to have counted.
		for ft := 0; ft < freeTenants; ft++ {
			wg.Add(1)
			go func(ft int) {
				defer wg.Done()
				token := fmt.Sprintf("free-%d", ft)
				for i := 0; i < freePerTenant; i++ {
					err := ccaas.Retry(gwTenantDialer(addr, route, token), f.as, f.meas,
						ra.RoleCodeProvider, oneShot, fleetSession(t, obj, []byte{1, 1}, 2))
					switch {
					case err == nil:
						freeOK.Add(1)
					case errors.Is(err, ccaas.ErrGatewayBusy):
						freeBusy.Add(1)
					default:
						otherErrs.Add(1)
						t.Errorf("free tenant %s session %d: %v", token, i, err)
					}
				}
			}(ft)
		}
		// Premium: sequential sessions through the same overload, single
		// attempt each — a busy reply is an immediate failure.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < premiumSessions; i++ {
				err := ccaas.Retry(gwTenantDialer(addr, route, "vip"), f.as, f.meas,
					ra.RoleCodeProvider, oneShot, fleetSession(t, obj, []byte{3, 4}, 7))
				if err != nil {
					premiumFails <- fmt.Errorf("premium session %d: %w", i, err)
					return
				}
				premiumOK.Add(1)
			}
		}()
		wg.Wait()
		close(premiumFails)
		for err := range premiumFails {
			t.Error(err)
		}
		if premiumOK.Load() != premiumSessions {
			t.Errorf("premium completed %d/%d sessions", premiumOK.Load(), premiumSessions)
		}
		if freeBusy.Load() == 0 {
			t.Error("free tiers were never shed — the gateway was not actually overloaded")
		}

		// Accounting: every session a client observed appears in the tenant
		// stats, sheds match busy replies, and the premium tenant shed zero.
		stats := g.TenantStats()
		var admitted, shed, rateLimited int64
		for _, s := range stats {
			admitted += s.Admitted
			shed += s.Shed
			rateLimited += s.RateLimited
			if s.Tier == "premium" && s.Shed != 0 {
				t.Errorf("premium tenant %s shed %d sessions, want 0", s.Tenant, s.Shed)
			}
			if s.Tenant == "vip" && s.Admitted != premiumSessions+1 {
				t.Errorf("vip admitted = %d, want %d", s.Admitted, premiumSessions+1)
			}
		}
		wantAdmitted := premiumOK.Load() + freeOK.Load() + 1 // +1 seed
		if admitted != wantAdmitted {
			t.Errorf("stats admitted = %d, clients completed %d", admitted, wantAdmitted)
		}
		if shed != freeBusy.Load() {
			t.Errorf("stats shed = %d, clients saw %d busy replies", shed, freeBusy.Load())
		}
		if rateLimited != 0 {
			t.Errorf("rate_limited = %d with no rate configured", rateLimited)
		}
		// The aggregate counters agree with the per-tenant stats.
		if n := gwReg.Counter("gateway_tenant_admitted_total").Value(); n != admitted {
			t.Errorf("gateway_tenant_admitted_total = %d, stats sum %d", n, admitted)
		}
		if n := gwReg.Counter("gateway_tenant_shed_total").Value(); n != shed {
			t.Errorf("gateway_tenant_shed_total = %d, stats sum %d", n, shed)
		}
		if n := gwReg.Counter("gateway_tenant_vip_shed_total").Value(); n != 0 {
			t.Errorf("gateway_tenant_vip_shed_total = %d, want 0", n)
		}

		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := g.Shutdown(ctx); err != nil {
			t.Fatalf("gateway drain: %v", err)
		}
		<-served
		if n := g.QueuedSessions(); n != 0 {
			t.Errorf("queued sessions after drain = %d", n)
		}
		f.stopAll()
	}()

	deadline := time.Now().Add(10 * time.Second)
	for {
		if goruntime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	var buf strings.Builder
	_ = pprof.Lookup("goroutine").WriteTo(&truncWriter{&buf}, 1)
	t.Fatalf("goroutines leaked: %d before, %d after\n%s",
		before, goruntime.NumGoroutine(), buf.String())
}
