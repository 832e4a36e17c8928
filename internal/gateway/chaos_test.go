package gateway_test

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"net"
	goruntime "runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"deflection"
	"deflection/attest"
	"deflection/internal/ccaas"
	"deflection/internal/gateway"
	"deflection/internal/obs"
	"deflection/internal/policy"
	"deflection/internal/ra"
	"deflection/internal/vplane"
)

// This file is the gateway's end-to-end chaos suite: a fleet of REAL ccaas
// backends (full attestation, verification plane, certificate exchange)
// behind a real gateway, with backends killed and stalled mid-burst. The
// acceptance bar from the failure model: every in-flight session completes
// via failover, a binary certified on one backend installs on its peers
// with zero cold re-verification, breakers open and recover, and draining
// the whole stack leaks no goroutines.

const fleetSvcSrc = `
char buf[64];
int main() {
	int n = __ocall_recv(buf, 64);
	int s = 0;
	for (int i = 0; i < n; i++) s += (int)buf[i];
	send_int(s);
	return s;
}`

var fleetBin struct {
	once sync.Once
	obj  []byte
	err  error
}

func fleetBinary(t *testing.T) []byte {
	t.Helper()
	fleetBin.once.Do(func() {
		bin, err := deflection.Generate(fleetSvcSrc, deflection.GeneratorOptions{Policies: deflection.PolicyP1})
		if err != nil {
			fleetBin.err = err
			return
		}
		fleetBin.obj = bin.Bytes()
	})
	if fleetBin.err != nil {
		t.Fatal(fleetBin.err)
	}
	return fleetBin.obj
}

// fleetBackend is one live deflection-serve-equivalent: attested ccaas
// server + verification plane joined to the fleet certificate exchange.
type fleetBackend struct {
	id       string
	platform *attest.Platform
	plane    *vplane.Plane
	srv      *ccaas.Server
	reg      *obs.Registry
	spans    *obs.Collector
	ln       net.Listener
	served   chan error
}

type fleet struct {
	t        *testing.T
	backends []*fleetBackend
	as       *attest.Service // party trust root (quote verification)
	certSvc  *attest.Service // certificate key registry
	store    *vplane.MemCertStore
	meas     [32]byte
}

func newFleet(t *testing.T, n int) *fleet {
	t.Helper()
	f := &fleet{
		t:       t,
		as:      attest.NewService(),
		certSvc: attest.NewService(),
		store:   vplane.NewMemCertStore(),
	}
	for i := 0; i < n; i++ {
		f.backends = append(f.backends, f.startBackend(i, ""))
	}
	f.meas = mustMeasurement(t, f.backends[0].srv)
	t.Cleanup(func() { f.stopAll() })
	return f
}

func mustMeasurement(t *testing.T, srv *ccaas.Server) [32]byte {
	t.Helper()
	meas, err := srv.Measurement()
	if err != nil {
		t.Fatal(err)
	}
	return meas
}

// startBackend builds and serves backend i; addr != "" rebinds a specific
// address (backend resurrection).
func (f *fleet) startBackend(i int, addr string) *fleetBackend {
	t := f.t
	t.Helper()
	platform, err := attest.NewPlatform(fmt.Sprintf("fleet-platform-%d", i))
	if err != nil {
		t.Fatal(err)
	}
	f.as.Register(platform)
	f.certSvc.RegisterKey(platform.ID(), platform.PublicKey())

	reg := obs.NewRegistry()
	spans := obs.NewCollector(obs.CollectorConfig{Role: "backend", Proc: fmt.Sprintf("fleet-platform-%d", i)})
	plane := vplane.New(vplane.Config{CacheBytes: 1 << 20, Workers: 2, QueueDepth: 8, Metrics: reg, Spans: spans})
	srv, err := ccaas.NewServer(ccaas.ServerConfig{
		Platform: platform,
		Policies: policy.SetP1,
		Metrics:  reg,
		Spans:    spans,
		Verify:   plane,
	})
	if err != nil {
		t.Fatal(err)
	}
	meas := mustMeasurement(t, srv)
	plane.EnableCerts(vplane.CertConfig{
		Measurement: meas,
		Sign:        platform.SignVerdict,
		Check:       f.certSvc.VerifyVerdictCert,
		Store:       f.store,
	})
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("listen %s: %v", addr, err)
	}
	b := &fleetBackend{
		id:       fmt.Sprintf("backend-%d", i),
		platform: platform,
		plane:    plane,
		srv:      srv,
		reg:      reg,
		spans:    spans,
		ln:       ln,
		served:   make(chan error, 1),
	}
	go func() { b.served <- serveConns(srv, ln) }()
	return b
}

// serveConns accepts and handles sessions like cmd/deflection-serve does.
func serveConns(srv *ccaas.Server, ln net.Listener) error {
	return srv.Serve(ln)
}

// kill tears backend i down hard: listener closed, in-flight sessions
// force-dropped after a short grace.
func (f *fleet) kill(i int) {
	b := f.backends[i]
	b.ln.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_ = b.srv.Shutdown(ctx)
	<-b.served
}

func (f *fleet) stopAll() {
	for i, b := range f.backends {
		if b.srv.Draining() {
			continue
		}
		f.kill(i)
	}
	for _, b := range f.backends {
		b.plane.Close()
	}
}

func (f *fleet) addrs() []string {
	out := make([]string, len(f.backends))
	for i, b := range f.backends {
		out[i] = b.ln.Addr().String()
	}
	return out
}

// verifyRuns sums cold pipeline runs across the fleet.
func (f *fleet) verifyRuns() int64 {
	var n int64
	for _, b := range f.backends {
		n += b.reg.Counter("vplane_verify_runs_total").Value()
	}
	return n
}

func (f *fleet) certHits() int64 {
	var n int64
	for _, b := range f.backends {
		n += b.reg.Counter("vplane_cert_hits_total").Value()
	}
	return n
}

// startChaosGateway serves a gateway over the fleet with fast probes and
// tight breakers suited to chaos timing.
func startChaosGateway(t *testing.T, f *fleet, reg *obs.Registry) (*gateway.Gateway, string) {
	t.Helper()
	g, err := gateway.New(gateway.Config{
		Backends:      f.addrs(),
		Metrics:       reg,
		Breaker:       gateway.BreakerConfig{Threshold: 2, OpenFor: 100 * time.Millisecond},
		ProbeInterval: 25 * time.Millisecond,
		ProbeTimeout:  time.Second,
		HelloTimeout:  5 * time.Second,
		DialTimeout:   time.Second,
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
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = g.Shutdown(ctx)
		<-served
	})
	return g, ln.Addr().String()
}

// gwDialer dials the gateway and sends the routing preamble, yielding a
// transport ready for the ccaas handshake.
func gwDialer(addr string, route []byte) ccaas.Dialer {
	return func() (io.ReadWriteCloser, error) {
		conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err != nil {
			return nil, err
		}
		if err := gateway.WritePreamble(conn, route); err != nil {
			conn.Close()
			return nil, err
		}
		return conn, nil
	}
}

// fleetSession is the full service interaction: deliver binary, send an
// input, run, check the sum comes back.
func fleetSession(t *testing.T, obj []byte, input []byte, want int64) func(*ccaas.Client) error {
	return func(c *ccaas.Client) error {
		if _, _, err := c.SendBinary(obj); err != nil {
			return err
		}
		if err := c.SendData(input); err != nil {
			return err
		}
		rr, err := c.Run()
		if err != nil {
			return err
		}
		if rr.Trapped || rr.Exit != want {
			t.Errorf("run reply = %+v, want exit %d", rr, want)
		}
		return nil
	}
}

// TestGatewayChaosKillPrimaryMidBurst is the headline scenario: a binary is
// verified (cold) and certified on its ring-primary backend; that backend
// is killed in the middle of a burst of sessions; every session completes
// on the survivors, which install the binary from its verdict certificate
// — the fleet never pays a second cold verification.
func TestGatewayChaosKillPrimaryMidBurst(t *testing.T) {
	f := newFleet(t, 3)
	gwReg := obs.NewRegistry()
	_, addr := startChaosGateway(t, f, gwReg)

	obj := fleetBinary(t)
	digest := sha256.Sum256(obj)
	route := digest[:]
	rc := func(seed int64) ccaas.RetryConfig {
		return ccaas.RetryConfig{Attempts: 8, BaseDelay: 25 * time.Millisecond, MaxDelay: 250 * time.Millisecond, Seed: seed}
	}

	// Seed session: pays the one and only cold verification and publishes
	// the certificate.
	if err := ccaas.Retry(gwDialer(addr, route), f.as, f.meas, ra.RoleCodeProvider,
		rc(1), fleetSession(t, obj, []byte{5, 10, 15}, 30)); err != nil {
		t.Fatalf("seed session: %v", err)
	}
	if n := f.verifyRuns(); n != 1 {
		t.Fatalf("verify runs after seed = %d, want 1", n)
	}
	if f.store.Len() != 1 {
		t.Fatalf("certificate not published (store len %d)", f.store.Len())
	}
	primary := -1
	for i, b := range f.backends {
		if b.reg.Counter("vplane_verify_runs_total").Value() == 1 {
			primary = i
		}
	}
	if primary < 0 {
		t.Fatal("no backend recorded the cold run")
	}

	// Burst: 8 concurrent sessions on the same route, primary killed while
	// they are in flight.
	const burst = 8
	errs := make(chan error, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			input := []byte{byte(i + 1), byte(i + 2)}
			want := int64(input[0]) + int64(input[1])
			errs <- ccaas.Retry(gwDialer(addr, route), f.as, f.meas, ra.RoleCodeProvider,
				rc(int64(i+2)), fleetSession(t, obj, input, want))
		}(i)
	}
	time.Sleep(2 * time.Millisecond) // let part of the burst take flight
	f.kill(primary)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Errorf("burst session failed despite failover: %v", err)
		}
	}

	// The whole burst may have beaten the kill; these sessions cannot —
	// the primary is gone, so they must complete on a survivor, installing
	// from the certificate.
	for i := 0; i < 2; i++ {
		if err := ccaas.Retry(gwDialer(addr, route), f.as, f.meas, ra.RoleCodeProvider,
			rc(int64(100+i)), fleetSession(t, obj, []byte{7, 7}, 14)); err != nil {
			t.Fatalf("post-kill session %d: %v", i, err)
		}
	}

	// The survivors served their sessions from the certificate, never the
	// cold pipeline.
	if n := f.verifyRuns(); n != 1 {
		t.Fatalf("fleet-wide verify runs = %d after failover, want 1 (cert replay only)", n)
	}
	if n := f.certHits(); n < 1 {
		t.Fatalf("vplane_cert_hits_total = %d, want >= 1", n)
	}
	for i, b := range f.backends {
		if i == primary {
			continue
		}
		if n := b.reg.Counter("vplane_cert_rejected_total").Value(); n != 0 {
			t.Errorf("%s rejected %d certificates", b.id, n)
		}
	}
}

// TestGatewayChaosStalledBackendFailover: a backend that accepts TCP but
// never answers with its attestation hello (stalled enclave / partitioned
// host) must burn only the gateway's hello timeout, not the session.
func TestGatewayChaosStalledBackendFailover(t *testing.T) {
	stall, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stall.Close()
	go func() {
		for {
			conn, err := stall.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // hold the socket open, never write
		}
	}()

	f := newFleet(t, 1)
	gwReg := obs.NewRegistry()
	g, err := gateway.New(gateway.Config{
		Backends:      []string{stall.Addr().String(), f.addrs()[0]},
		Metrics:       gwReg,
		HelloTimeout:  200 * time.Millisecond,
		ProbeInterval: -1,
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
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = g.Shutdown(ctx)
		<-served
	}()

	obj := fleetBinary(t)
	start := time.Now()
	err = ccaas.Retry(gwDialer(ln.Addr().String(), nil), f.as, f.meas, ra.RoleCodeProvider,
		ccaas.RetryConfig{Attempts: 3, BaseDelay: 10 * time.Millisecond},
		fleetSession(t, obj, []byte{1, 2, 3}, 6))
	if err != nil {
		t.Fatalf("session through stalled backend: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("failover took %v — hello timeout did not bound the stall", elapsed)
	}
	if n := gwReg.Counter("gateway_failovers_total").Value(); n < 1 {
		t.Fatalf("gateway_failovers_total = %d, want >= 1", n)
	}
}

// TestGatewayChaosBreakerRecoversAfterRestart: killing a backend opens its
// breaker; restarting it on the same address lets a half-open probe close
// the breaker and traffic resumes — with the restarted (cold) backend
// installing certified binaries instead of re-verifying them.
func TestGatewayChaosBreakerRecoversAfterRestart(t *testing.T) {
	f := newFleet(t, 2)
	gwReg := obs.NewRegistry()
	g, addr := startChaosGateway(t, f, gwReg)

	obj := fleetBinary(t)
	digest := sha256.Sum256(obj)
	route := digest[:]
	run := func(seed int64) error {
		return ccaas.Retry(gwDialer(addr, route), f.as, f.meas, ra.RoleCodeProvider,
			ccaas.RetryConfig{Attempts: 8, BaseDelay: 25 * time.Millisecond, Seed: seed},
			fleetSession(t, obj, []byte{2, 3}, 5))
	}
	if err := run(1); err != nil {
		t.Fatalf("seed: %v", err)
	}

	victim := 0
	victimAddr := f.backends[victim].ln.Addr().String()
	f.kill(victim)

	waitBreaker := func(idx int, want string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			st := g.BackendStates()
			if st[idx].Breaker == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("backend %d breaker stuck at %q, want %q", idx, st[idx].Breaker, want)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	waitBreaker(victim, "open")

	// Sessions keep completing on the survivor while the victim is down.
	if err := run(2); err != nil {
		t.Fatalf("session during outage: %v", err)
	}

	// Resurrect the backend on its old address: fresh process, empty
	// caches, same measurement. The probe closes the breaker.
	revived := f.startBackend(len(f.backends), victimAddr)
	f.backends = append(f.backends, revived)
	waitBreaker(victim, "closed")
	if n := gwReg.Counter("gateway_breaker_recoveries_total").Value(); n < 1 {
		t.Fatalf("gateway_breaker_recoveries_total = %d, want >= 1", n)
	}

	// Route traffic until the revived backend serves it (ring primary may
	// be either backend; the route's owner is deterministic, so just check
	// fleet invariants: no new cold runs, certificates do the work).
	runsBefore := f.verifyRuns()
	for i := 0; i < 4; i++ {
		if err := run(int64(10 + i)); err != nil {
			t.Fatalf("post-recovery session %d: %v", i, err)
		}
	}
	if n := f.verifyRuns(); n != runsBefore {
		t.Fatalf("cold verify runs grew from %d to %d after restart — certificate replay failed", runsBefore, n)
	}
}

// TestGatewayChaosDrainNoGoroutineLeaks drains the entire stack — gateway
// and backends — after healthy, stalled and failed sessions, and asserts
// every goroutine exits.
func TestGatewayChaosDrainNoGoroutineLeaks(t *testing.T) {
	before := goruntime.NumGoroutine()

	func() {
		f := newFleet(t, 2)
		gwReg := obs.NewRegistry()
		g, addr := startChaosGateway(t, f, gwReg)

		obj := fleetBinary(t)
		digest := sha256.Sum256(obj)
		for i := 0; i < 3; i++ {
			if err := ccaas.Retry(gwDialer(addr, digest[:]), f.as, f.meas, ra.RoleCodeProvider,
				ccaas.RetryConfig{Attempts: 4, BaseDelay: 20 * time.Millisecond, Seed: int64(i + 1)},
				fleetSession(t, obj, []byte{1, 1}, 2)); err != nil {
				t.Fatalf("session %d: %v", i, err)
			}
		}
		// A client that sends its preamble and then walks away mid-session.
		if conn, err := net.Dial("tcp", addr); err == nil {
			_ = gateway.WritePreamble(conn, digest[:])
			time.Sleep(20 * time.Millisecond)
			conn.Close()
		}
		// A client that never sends a preamble at all, then hangs up.
		if conn, err := net.Dial("tcp", addr); err == nil {
			time.Sleep(20 * time.Millisecond)
			conn.Close()
		}
		// Kill one backend so its splice paths unwind too.
		f.kill(0)

		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := g.Shutdown(ctx); err != nil {
			t.Fatalf("gateway drain: %v", err)
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

// truncWriter truncates the goroutine dump to keep failures readable.
type truncWriter struct{ b *strings.Builder }

func (w *truncWriter) Write(p []byte) (int, error) {
	if w.b.Len() < 8192 {
		w.b.Write(p)
	}
	return len(p), nil
}
