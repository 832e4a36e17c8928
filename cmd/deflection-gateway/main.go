// Command deflection-gateway fronts a fleet of deflection-serve backends
// with the session router from internal/gateway: consistent-hash routing on
// the session's binary digest (repeat binaries hit the backend whose
// verification plane is already warm), active attestation-hello health
// probes, per-backend circuit breakers with probe-driven recovery, failover
// within a per-session retry budget, and graceful drain of the whole stack.
//
// The gateway also hosts the fleet certificate store: backends publish
// attested verdict certificates to it so each unique binary is
// cold-verified once per fleet. The store (served under the metrics
// address, /certs/...) is untrusted and holds no platform keys — backends
// verify certificates against their own vendor-provisioned trust roots
// (deflection-serve -trusted-keys; spawned backends are provisioned
// in-process).
//
// Backends come from two sources, freely mixed:
//
//   - -backend addr        an externally managed deflection-serve (repeatable)
//   - -spawn N             N in-process backends, for demos and smoke tests
//
// Usage:
//
//	deflection-gateway                                  # 3 in-process backends + demo
//	deflection-gateway -spawn 0 -demo=false \
//	    -backend 10.0.0.1:7055 -backend 10.0.0.2:7055   # pure router
//	deflection-gateway -metrics-addr 127.0.0.1:9090
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"deflection"
	"deflection/attest"
	"deflection/internal/ccaas"
	"deflection/internal/fleet"
	"deflection/internal/gateway"
	"deflection/internal/obs"
	"deflection/internal/ra"
	"deflection/internal/tenant"
	"deflection/internal/vplane"
)

const demoService = `
char buf[256];
int main() {
	int n = __ocall_recv(buf, 256);
	int sum = 0;
	for (int i = 0; i < n; i++) sum += (int)buf[i];
	send_int(sum);
	return sum;
}`

func main() {
	os.Exit(run())
}

// spawnedBackend is one in-process fleet member. Each gets its OWN metrics
// registry, span collector and metrics listener: fleet aggregation at the
// gateway works by genuinely scraping each backend over HTTP, exactly the
// path externally managed deflection-serve processes exercise.
type spawnedBackend struct {
	srv       *ccaas.Server
	plane     *vplane.Plane
	reg       *obs.Registry
	spans     *obs.Collector
	ln        net.Listener
	metricsLn net.Listener
	done      chan error
}

func run() int {
	var backendAddrs []string
	flag.Func("backend", "address of an externally managed backend (repeatable)", func(s string) error {
		backendAddrs = append(backendAddrs, s)
		return nil
	})
	var (
		addr        = flag.String("addr", "127.0.0.1:0", "gateway listen address")
		spawn       = flag.Int("spawn", 3, "number of in-process backends to spawn (0 = none)")
		policies    = flag.String("policies", "p1-p6", "required policy set for spawned backends and the demo")
		demo        = flag.Bool("demo", true, "run demo sessions through the gateway (requires spawned backends)")
		maxSessions = flag.Int("max-sessions", 1024, "concurrent proxied-session cap (0 = unlimited)")
		retryBudget = flag.Int("retry-budget", 3, "backends tried per session before a busy reply")
		probeEvery  = flag.Duration("probe-interval", 500*time.Millisecond, "health-probe period (negative = off)")
		brkFails    = flag.Int("breaker-threshold", 3, "consecutive failures that open a backend's breaker")
		brkOpenFor  = flag.Duration("breaker-open-for", 2*time.Second, "open-breaker window before a half-open trial")
		helloWait   = flag.Duration("hello-timeout", 5*time.Second, "wait for a backend's attestation hello")
		drain       = flag.Duration("drain", 15*time.Second, "graceful-shutdown drain budget")
		tenantsConf = flag.String("tenants", "", "tenant admission config (tiers, tokens, default tier); empty = one unlimited tier. SIGHUP reloads it without dropping sessions")
		admissionQ  = flag.Int("admission-queue", 256, "max sessions queued for capacity across all tiers")
		metricsAddr = flag.String("metrics-addr", "", "serve metrics (JSON/Prometheus), /fleet, /traces and the fleet cert store on this address (empty = off)")
		scrapeEvery = flag.Duration("fleet-scrape-interval", time.Second, "fleet telemetry scrape period")
		traceLog    = flag.String("trace-log", "", "append every gateway span as one JSON line to this file (empty = off)")
		traceSlow   = flag.Duration("trace-slow", time.Second, "auto-log any span at least this slow (0 = off)")
		pprofOn     = flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ on the metrics address")
	)
	flag.Parse()

	logger := obs.NewLogger(os.Stderr)
	reg := obs.NewRegistry()

	var sink io.Writer
	if *traceLog != "" {
		f, err := os.OpenFile(*traceLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer f.Close()
		sink = f
	}
	spans := obs.NewCollector(obs.CollectorConfig{
		Role:          "gateway",
		Proc:          "deflection-gateway",
		Sink:          sink,
		SlowThreshold: *traceSlow,
		Log:           logger.Log,
	})

	pols, err := deflection.ParsePolicies(*policies)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if *spawn == 0 && len(backendAddrs) == 0 {
		fmt.Fprintln(os.Stderr, "deflection-gateway: no backends (-spawn 0 and no -backend)")
		return 2
	}
	if *demo && *spawn == 0 {
		fmt.Fprintln(os.Stderr, "deflection-gateway: -demo needs spawned backends (their attestation roots are in-process)")
		return 2
	}

	// The certificate exchange: server side lives here on the gateway host;
	// it is untrusted by the backends, which re-check everything they admit.
	certSrv := gateway.NewCertServer(reg)

	// Metrics + cert store endpoint. It must be up before backends spawn so
	// their HTTP cert stores have somewhere to publish.
	var metricsLn net.Listener
	if *metricsAddr != "" {
		metricsLn, err = net.Listen("tcp", *metricsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer metricsLn.Close()
	}

	// Trust roots for spawned backends and the demo parties. certCheck is
	// the in-process analogue of a vendor-provisioned trusted-keys file:
	// every spawned platform key is registered into it directly, before any
	// backend serves traffic — the untrusted cert store never contributes a
	// key. External backends provision theirs via deflection-serve
	// -trusted-keys instead.
	as := attest.NewService()
	certCheck := attest.NewService()

	// Spawn the in-process fleet. With a metrics endpoint up, backends use
	// the HTTP store (the same path external backends exercise via
	// deflection-serve -cert-store); otherwise they share an in-memory one.
	var memStore *vplane.MemCertStore
	if metricsLn == nil {
		memStore = vplane.NewMemCertStore()
	}

	// Fleet telemetry: backends (spawned and external alike) register their
	// metrics addresses here; the aggregator scrapes them and serves /fleet.
	registrar := fleet.NewRegistrar(nil)

	var spawned []*spawnedBackend
	var meas [32]byte
	for i := 0; i < *spawn; i++ {
		platform, err := attest.NewPlatform(fmt.Sprintf("gateway-backend-%d", i))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		as.Register(platform)
		certCheck.RegisterKey(platform.ID(), platform.PublicKey())

		breg := obs.NewRegistry()
		bspans := obs.NewCollector(obs.CollectorConfig{
			Role:          "backend",
			Proc:          platform.ID(),
			SlowThreshold: *traceSlow,
			Log:           logger.Log,
		})
		plane := vplane.New(vplane.Config{Metrics: breg, Spans: bspans, Log: logger.Log})
		srv, err := ccaas.NewServer(ccaas.ServerConfig{
			Platform:    platform,
			Policies:    pols,
			MaxSessions: 256,
			IOTimeout:   30 * time.Second,
			Log:         logger.Log,
			Metrics:     breg,
			Spans:       bspans,
			Verify:      plane,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if meas, err = srv.Measurement(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		cc := vplane.CertConfig{Measurement: meas, Sign: platform.SignVerdict}
		if memStore != nil {
			cc.Store = memStore
			cc.Check = certCheck.VerifyVerdictCert
		} else {
			hs := gateway.NewHTTPCertStore("http://"+metricsLn.Addr().String(), certCheck)
			cc.Store = hs
			cc.Check = hs.Check
		}
		plane.EnableCerts(cc)

		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		// The backend's own metrics endpoint, scraped by the aggregator over
		// real HTTP — the same contract external deflection-serve backends
		// serve on -metrics-addr.
		mln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		bmux := http.NewServeMux()
		bmux.Handle("/metrics", breg.Handler())
		bmux.Handle("/traces", bspans.Handler())
		go func() { _ = http.Serve(mln, bmux) }()
		if err := registrar.Register(fleet.Registration{
			Addr:        ln.Addr().String(),
			MetricsAddr: mln.Addr().String(),
		}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}

		b := &spawnedBackend{srv: srv, plane: plane, reg: breg, spans: bspans,
			ln: ln, metricsLn: mln, done: make(chan error, 1)}
		go func() { b.done <- srv.Serve(ln) }()
		spawned = append(spawned, b)
		backendAddrs = append(backendAddrs, ln.Addr().String())
		logger.Log("backend_spawned", "addr", ln.Addr(), "metrics_addr", mln.Addr(), "platform", platform.ID())
	}
	defer func() {
		for _, b := range spawned {
			ctx, cancel := context.WithTimeout(context.Background(), *drain)
			_ = b.srv.Shutdown(ctx)
			cancel()
			b.ln.Close()
			b.metricsLn.Close()
			<-b.done
			b.plane.Close()
		}
	}()

	// Tenant admission: tiers and token buckets resolved from -tenants.
	// The registry is swappable, which is what makes SIGHUP reloads safe:
	// live sessions keep their slots, only future lookups see new policy.
	var tenantReg *tenant.Registry
	if *tenantsConf != "" {
		tcfg, err := tenant.LoadConfig(*tenantsConf)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		tenantReg = tenant.NewRegistry(tcfg)
		logger.Log("tenants_loaded", "path", *tenantsConf, "tiers", tcfg.TierNames())
	}

	gw, err := gateway.New(gateway.Config{
		Backends:       backendAddrs,
		MaxSessions:    *maxSessions,
		RetryBudget:    *retryBudget,
		ProbeInterval:  *probeEvery,
		HelloTimeout:   *helloWait,
		Breaker:        gateway.BreakerConfig{Threshold: *brkFails, OpenFor: *brkOpenFor},
		Tenants:        tenantReg,
		AdmissionQueue: *admissionQ,
		Metrics:        reg,
		Spans:          spans,
		Log:            logger.Log,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	// SIGHUP swaps the tenant config in place. A broken file is rejected
	// with the old policy left running — reloads must never be able to take
	// the gateway down.
	if tenantReg != nil {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		defer signal.Stop(hup)
		go func() {
			for range hup {
				tcfg, err := tenant.LoadConfig(*tenantsConf)
				if err != nil {
					logger.Log("tenants_reload_failed", "path", *tenantsConf, "err", err)
					continue
				}
				gen := tenantReg.Swap(tcfg)
				logger.Log("tenants_reloaded", "path", *tenantsConf, "generation", gen,
					"tiers", tcfg.TierNames())
			}
		}()
	}
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer l.Close()
	logger.Log("gateway_listening", "addr", l.Addr(),
		"backends", len(backendAddrs),
		"retry_budget", *retryBudget,
		"probe_interval", *probeEvery,
		"breaker_threshold", *brkFails)

	// The aggregator joins routing health (breaker states, in-flight
	// counts) into the scraped telemetry via a callback, so the fleet
	// package never needs to import the gateway.
	agg, err := fleet.NewAggregator(fleet.AggregatorConfig{
		Registrar: registrar,
		BackendHealth: func() []fleet.BackendHealth {
			states := gw.BackendStates()
			out := make([]fleet.BackendHealth, len(states))
			for i, s := range states {
				out[i] = fleet.BackendHealth{Addr: s.Addr, Healthy: s.Healthy,
					Breaker: s.Breaker, Inflight: s.Inflight}
			}
			return out
		},
		TenantStats: func() []fleet.TenantReport {
			stats := gw.TenantStats()
			out := make([]fleet.TenantReport, len(stats))
			for i, s := range stats {
				out[i] = fleet.TenantReport{Tenant: s.Tenant, Tier: s.Tier,
					Active: s.Active, Queued: s.Queued, Admitted: s.Admitted,
					QueuedTotal: s.QueuedTotal, Shed: s.Shed, RateLimited: s.RateLimited}
			}
			return out
		},
		Interval: *scrapeEvery,
		Metrics:  reg,
		Log:      logger.Log,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	if metricsLn != nil {
		aggCtx, aggStop := context.WithCancel(context.Background())
		defer aggStop()
		go agg.Run(aggCtx)

		mux := http.NewServeMux()
		mux.Handle("/metrics", reg.Handler())
		mux.Handle("/traces", spans.Handler())
		mux.Handle("/fleet", agg.Handler())
		mux.Handle("/fleet/register", registrar.Handler())
		mux.Handle("/certs/", certSrv)
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
			status := "ok"
			if gw.Draining() {
				status = "draining"
			}
			w.Header().Set("Cache-Control", "no-store")
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(map[string]any{
				"status":          status,
				"active_sessions": gw.ActiveSessions(),
				"queued_sessions": gw.QueuedSessions(),
				"backends":        gw.BackendStates(),
			})
		})
		if *pprofOn {
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		}
		go func() { _ = http.Serve(metricsLn, mux) }()
		logger.Log("metrics_listening", "addr", metricsLn.Addr(), "pprof", *pprofOn)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- gw.Serve(l) }()

	waitAndDrain := func() int {
		select {
		case err := <-serveErr:
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			return 0
		case <-ctx.Done():
			stop()
			logger.Log("draining", "budget", *drain)
			sctx, cancel := context.WithTimeout(context.Background(), *drain)
			defer cancel()
			if err := gw.Shutdown(sctx); err != nil {
				logger.Log("forced_shutdown", "after", *drain, "err", err)
				<-serveErr
				return 1
			}
			<-serveErr
			logger.Log("stopped", "drained", true)
			return 0
		}
	}

	if !*demo {
		return waitAndDrain()
	}

	// ---- Demo: two sessions with the same private binary through the
	// gateway. The first pays the fleet's one cold verification; the second
	// rides the routed backend's warm plane.
	bin, err := deflection.Generate(demoService, deflection.GeneratorOptions{Policies: pols})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	digest := sha256.Sum256(bin.Bytes())
	// Each demo session carries its own trace ID: in the cleartext routing
	// preamble for the gateway's spans, and through the sealed channel (the
	// gateway cannot inject bytes into the attested stream) for the
	// backend's. Both processes then expose the same ID on /traces.
	var tid obs.TraceID
	dial := func() (io.ReadWriteCloser, error) {
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			return nil, err
		}
		// The demo labels itself: with a -tenants config in play it draws
		// from whichever tier "demo" maps to (default tier otherwise).
		if err := gateway.WritePreambleTagged(conn, digest[:], tid, "demo"); err != nil {
			conn.Close()
			return nil, err
		}
		return conn, nil
	}
	for i := 0; i < 2; i++ {
		tid = obs.NewTraceID()
		fmt.Printf("[party] session %d trace id %s\n", i+1, tid)
		err := ccaas.Retry(dial, as, meas, ra.RoleCodeProvider,
			ccaas.RetryConfig{Metrics: reg}, func(c *ccaas.Client) error {
				if err := c.SendTrace(tid); err != nil {
					return err
				}
				if _, _, err := c.SendBinary(bin.Bytes()); err != nil {
					return err
				}
				if err := c.SendData([]byte{1, 2, 3, 4, 5}); err != nil {
					return err
				}
				rr, err := c.Run()
				if err != nil {
					return err
				}
				if rr.Trapped {
					return fmt.Errorf("service aborted by policy: %s", rr.TrapReason)
				}
				fmt.Printf("[party] session %d: exit %d after %d instructions\n", i+1, rr.Exit, rr.Insts)
				return nil
			})
		if err != nil {
			fmt.Fprintf(os.Stderr, "demo session %d failed: %v\n", i+1, err)
			return 1
		}
	}
	// Verification counters now live in the per-backend registries; the
	// fleet view is their sum (what /fleet serves as totals).
	sumCounter := func(name string) int64 {
		var n int64
		for _, b := range spawned {
			n += b.reg.Counter(name).Value()
		}
		return n
	}
	fmt.Printf("[fleet] cold verifications: %d, cache hits: %d, certificates issued: %d\n",
		sumCounter("vplane_verify_runs_total"),
		sumCounter("vplane_cache_hits_total"),
		sumCounter("vplane_certs_issued_total"))
	logger.Log("demo_complete", "metrics", reg.Summary())

	if metricsLn != nil {
		return waitAndDrain()
	}
	sctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := gw.Shutdown(sctx); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	<-serveErr
	return 0
}
