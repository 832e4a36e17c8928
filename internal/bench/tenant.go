package bench

import (
	"context"
	"fmt"
	"net"
	"strings"
	"time"

	"deflection/internal/gateway"
	"deflection/internal/obs"
	"deflection/internal/ra"
	"deflection/internal/tenant"
)

// TenantResult prices tenant admission control on the gateway's session
// path: the same loopback echo session through a gateway with admission
// off (nil registry, the pre-tenant fast path) versus a configured
// multi-tier registry with token buckets and per-tenant metrics. The two
// configurations are interleaved so machine drift hits both equally. The
// budget is < 2% on the end-to-end session median — admission is a mutex,
// a map lookup and a bucket refill, not a scheduler.
type TenantResult struct {
	Iters int
	// Base is the median end-to-end session latency with no tenant config.
	Base time.Duration
	// Admitted is the median with tiers, buckets and per-tenant metrics on.
	Admitted time.Duration
	// OverheadPct is (Admitted - Base) / Base in percent (negative = noise).
	OverheadPct float64
	// Decision is the median latency of one bare Acquire+release pair on a
	// loaded controller — the admission layer's intrinsic cost.
	Decision time.Duration
}

const tenantBenchConf = `
tier premium weight=8 max_sessions=256 rate=1000000 burst=1000000 queue_deadline=5s
tier standard weight=2 max_sessions=128 rate=1000000 burst=1000000 queue_deadline=1s
tier free weight=1 max_sessions=32
tenant bench-client premium
default free
`

// echoBackend is a minimal fake deflection-serve: hello frame on accept,
// then echo frames until the peer hangs up. The gateway only needs the
// hello to consider it healthy.
func echoBackend() (net.Listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				if err := ra.WriteFrame(conn, []byte(`{"backend":"bench"}`)); err != nil {
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
	}()
	return ln, nil
}

// benchGateway serves one gateway over the backend with the given tenant
// registry (nil = admission off).
func benchGateway(backendAddr string, reg *tenant.Registry) (*gateway.Gateway, net.Listener, error) {
	g, err := gateway.New(gateway.Config{
		Backends:      []string{backendAddr},
		Tenants:       reg,
		MaxSessions:   1024,
		ProbeInterval: -1,
		Metrics:       obs.NewRegistry(),
	})
	if err != nil {
		return nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	go func() { _ = g.Serve(ln) }()
	return g, ln, nil
}

// oneSession runs a full preamble+hello+echo round trip and returns its
// wall-clock latency.
func oneSession(addr, token string) (time.Duration, error) {
	start := time.Now()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	if err := gateway.WritePreambleTagged(conn, nil, 0, token); err != nil {
		return 0, err
	}
	if _, err := ra.ReadFrame(conn); err != nil { // hello
		return 0, err
	}
	if err := ra.WriteFrame(conn, []byte("ping")); err != nil {
		return 0, err
	}
	if _, err := ra.ReadFrame(conn); err != nil { // echo
		return 0, err
	}
	return time.Since(start), nil
}

// TenantOverhead measures the admission layer's cost on the session path.
func TenantOverhead(quick bool) (*TenantResult, error) {
	iters := 600
	if quick {
		iters = 150
	}

	backend, err := echoBackend()
	if err != nil {
		return nil, err
	}
	defer backend.Close()

	tcfg, err := tenant.ParseConfig(strings.NewReader(tenantBenchConf))
	if err != nil {
		return nil, err
	}

	gBase, lnBase, err := benchGateway(backend.Addr().String(), nil)
	if err != nil {
		return nil, err
	}
	defer shutdownGateway(gBase)
	defer lnBase.Close()
	gTen, lnTen, err := benchGateway(backend.Addr().String(), tenant.NewRegistry(tcfg))
	if err != nil {
		return nil, err
	}
	defer shutdownGateway(gTen)
	defer lnTen.Close()

	// Warm both paths (TCP stacks, first-touch allocations, the tenant's
	// metric series) before measuring.
	for i := 0; i < 10; i++ {
		if _, err := oneSession(lnBase.Addr().String(), ""); err != nil {
			return nil, fmt.Errorf("bench: tenant warmup (base): %w", err)
		}
		if _, err := oneSession(lnTen.Addr().String(), "bench-client"); err != nil {
			return nil, fmt.Errorf("bench: tenant warmup (admitted): %w", err)
		}
	}

	base := make([]time.Duration, 0, iters)
	admitted := make([]time.Duration, 0, iters)
	for i := 0; i < iters; i++ {
		d, err := oneSession(lnBase.Addr().String(), "")
		if err != nil {
			return nil, fmt.Errorf("bench: tenant base session %d: %w", i, err)
		}
		base = append(base, d)
		d, err = oneSession(lnTen.Addr().String(), "bench-client")
		if err != nil {
			return nil, fmt.Errorf("bench: tenant admitted session %d: %w", i, err)
		}
		admitted = append(admitted, d)
	}
	res := &TenantResult{
		Iters:    iters,
		Base:     median(base),
		Admitted: median(admitted),
	}
	if res.Base > 0 {
		res.OverheadPct = float64(res.Admitted-res.Base) / float64(res.Base) * 100
	}

	// Intrinsic decision cost, isolated from the network: one
	// Acquire+release pair on a controller already tracking the tenant.
	ctrl := tenant.NewController(tenant.NewRegistry(tcfg), tenant.ControllerConfig{
		Capacity: 1024, Metrics: obs.NewRegistry(),
	})
	decIters := 5000
	if quick {
		decIters = 1000
	}
	decs := make([]time.Duration, 0, decIters)
	for i := 0; i < decIters; i++ {
		start := time.Now()
		_, release, err := ctrl.Acquire(context.Background(), "bench-client")
		if err != nil {
			return nil, fmt.Errorf("bench: tenant decision %d: %w", i, err)
		}
		release()
		decs = append(decs, time.Since(start))
	}
	res.Decision = median(decs)
	return res, nil
}

func shutdownGateway(g *gateway.Gateway) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = g.Shutdown(ctx)
}

// String renders the overhead comparison and the budget verdict.
func (r *TenantResult) String() string {
	t := &table{header: []string{"path", "median"}}
	t.add("session, admission off", r.Base.Round(time.Microsecond).String())
	t.add("session, tiers+buckets+metrics", r.Admitted.Round(time.Microsecond).String())
	t.add("bare admission decision", r.Decision.Round(100*time.Nanosecond).String())
	return fmt.Sprintf("Tenant admission overhead on the gateway session path (%d iters/config)\n%s"+
		"session overhead: %+.2f%% (budget: < 2%%)\n",
		r.Iters, t.String(), r.OverheadPct)
}
