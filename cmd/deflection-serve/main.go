// Command deflection-serve runs the full CCaaS deployment of the paper's
// Fig. 1 over TCP: a host serving attested bootstrap enclaves, plus (in the
// default demo mode) an in-process code provider and data owner exercising
// a complete session — attestation, key agreement, private binary delivery,
// compliance verification, data upload and sealed results.
//
// The host runs with production lifecycle defaults: per-message I/O
// timeouts, a whole-session deadline, a concurrent-session cap, and a
// graceful drain on SIGINT/SIGTERM. All server-side events go through one
// structured key=value logger with session IDs; -metrics-addr exposes the
// live metrics registry as JSON (plus /healthz) and a periodic summary
// line. With both -demo and -metrics-addr set, the server keeps serving
// after the demo session so the endpoint can be scraped.
//
// Usage:
//
//	deflection-serve                            # demo: server + both parties
//	deflection-serve -addr :7055 -demo=false    # server only
//	deflection-serve -metrics-addr 127.0.0.1:9090
package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"deflection"
	"deflection/attest"
	"deflection/internal/ccaas"
	"deflection/internal/fleet"
	"deflection/internal/gateway"
	"deflection/internal/obs"
	"deflection/internal/ra"
	"deflection/internal/runtime"
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

// loadOrCreatePlatform resolves the backend's platform attestation
// identity: from a persisted PEM key when keyFile exists, otherwise a
// fresh key (persisted to keyFile when one is named, so the identity —
// and the validity of certificates it signed — survives restarts).
func loadOrCreatePlatform(id, keyFile string) (*attest.Platform, error) {
	if keyFile != "" {
		pemBytes, err := os.ReadFile(keyFile)
		if err == nil {
			return attest.LoadPlatform(id, pemBytes)
		}
		if !os.IsNotExist(err) {
			return nil, err
		}
	}
	p, err := attest.NewPlatform(id)
	if err != nil {
		return nil, err
	}
	if keyFile != "" {
		pemBytes, err := p.MarshalPrivateKey()
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(keyFile, pemBytes, 0o600); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func run() int {
	var (
		addr            = flag.String("addr", "127.0.0.1:0", "listen address")
		policies        = flag.String("policies", "p1-p6", "required policy set")
		demo            = flag.Bool("demo", true, "run an in-process client session against the server")
		maxSessions     = flag.Int("max-sessions", 256, "concurrent session cap (0 = unlimited)")
		ioTimeout       = flag.Duration("io-timeout", 30*time.Second, "per-message read/write timeout (0 = none)")
		sessionTimeout  = flag.Duration("session-timeout", 5*time.Minute, "whole-session deadline (0 = none)")
		drain           = flag.Duration("drain", 15*time.Second, "graceful-shutdown drain budget before force-closing sessions")
		metricsAddr     = flag.String("metrics-addr", "", "serve metrics on this address (/metrics with JSON/Prometheus content negotiation, /healthz, /traces; empty = off)")
		metricsInterval = flag.Duration("metrics-interval", time.Minute, "period of the metrics summary log line")
		traceLog        = flag.String("trace-log", "", "append every span as one JSON line to this file (empty = off)")
		traceSlow       = flag.Duration("trace-slow", time.Second, "auto-log any span at least this slow (0 = off)")
		pprofEnabled    = flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ on the metrics address")
		fleetReport     = flag.String("fleet-report", "", "base URL of a deflection-gateway metrics endpoint to self-register "+
			"this backend's metrics address with (POST /fleet/register; empty = off)")
		fleetInterval = flag.Duration("fleet-interval", 10*time.Second, "re-announce period for -fleet-report")

		verifyCacheBytes = flag.Int64("verify-cache-bytes", vplane.DefaultCacheBytes,
			"verification-plane verdict/image cache budget in bytes (0 = disable the plane, verify per session)")
		verifyWorkers = flag.Int("verify-workers", 0,
			"verification worker pool size (0 = half the CPUs, min 1)")
		verifyQueue = flag.Int("verify-queue", vplane.DefaultQueueDepth,
			"verification admission queue depth; submissions beyond it get an authenticated busy rejection")

		certStore = flag.String("cert-store", "",
			"base URL of the fleet certificate store (a deflection-gateway metrics address); "+
				"verdicts are published as attested certificates and peer certificates are admitted "+
				"after signature/measurement/digest checks (empty = off)")
		platformID = flag.String("platform-id", "deflection-serve-platform",
			"attestation platform identity; must be unique per backend when joining a fleet cert store")
		platformKeyFile = flag.String("platform-key", "",
			"PEM file holding this backend's platform attestation private key; loaded if it exists, "+
				"created (0600) otherwise, so the platform identity survives restarts (empty = fresh key per start)")
		trustedKeys = flag.String("trusted-keys", "",
			"trusted-keys file of peer platform public keys (one '<id> <base64 PKIX key>' line each), "+
				"the vendor-provisioned trust root for admitting fleet verdict certificates; "+
				"without it peer certificates are rejected and every binary is cold-verified locally")
		exportPlatformKey = flag.String("export-platform-key", "",
			"write this backend's trusted-keys line to the given file and continue serving, "+
				"so operators can assemble the fleet's -trusted-keys file")
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
		Role:          "backend",
		Proc:          *platformID,
		Sink:          sink,
		SlowThreshold: *traceSlow,
		Log:           logger.Log,
	})

	pols, err := deflection.ParsePolicies(*policies)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	platform, err := loadOrCreatePlatform(*platformID, *platformKeyFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	as := attest.NewService()
	as.Register(platform)

	if *exportPlatformKey != "" {
		var line strings.Builder
		if err := platform.TrustedKey(&line); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := os.WriteFile(*exportPlatformKey, []byte(line.String()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		logger.Log("platform_key_exported", "file", *exportPlatformKey, "platform", *platformID)
	}

	var plane *vplane.Plane
	if *verifyCacheBytes > 0 {
		plane = vplane.New(vplane.Config{
			CacheBytes: *verifyCacheBytes,
			Workers:    *verifyWorkers,
			QueueDepth: *verifyQueue,
			Metrics:    reg,
			Spans:      spans,
			Log:        logger.Log,
		})
		defer plane.Close()
	}

	srv, err := ccaas.NewServer(ccaas.ServerConfig{
		Platform:       platform,
		Policies:       pols,
		MaxSessions:    *maxSessions,
		IOTimeout:      *ioTimeout,
		SessionTimeout: *sessionTimeout,
		Log:            logger.Log,
		Metrics:        reg,
		Spans:          spans,
		Verify:         plane,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	meas, err := srv.Measurement()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	// Join the fleet certificate exchange: publish certificates for
	// verdicts this backend produces, and admit peer certificates (after
	// the full signature/measurement/digest chain) so a binary already
	// verified elsewhere in the fleet installs without a cold
	// re-verification. The trust root for peer signatures is provisioned
	// out of band via -trusted-keys — never learned from the store, which
	// is untrusted; with no trusted keys, peer certificates are simply
	// rejected and every binary cold-verifies locally.
	if *certStore != "" {
		if plane == nil {
			fmt.Fprintln(os.Stderr, "deflection-serve: -cert-store requires the verification plane (-verify-cache-bytes > 0)")
			return 2
		}
		certRoot := attest.NewService()
		certRoot.Register(platform) // a restarted backend re-admits its own persisted-key certificates
		peerKeys := 0
		if *trustedKeys != "" {
			f, err := os.Open(*trustedKeys)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			peerKeys, err = certRoot.LoadTrustedKeys(f)
			f.Close()
			if err != nil {
				fmt.Fprintf(os.Stderr, "loading trusted keys %s: %v\n", *trustedKeys, err)
				return 1
			}
		}
		hs := gateway.NewHTTPCertStore(*certStore, certRoot)
		plane.EnableCerts(vplane.CertConfig{
			Measurement: meas,
			Sign:        platform.SignVerdict,
			Check:       hs.Check,
			Store:       hs,
		})
		logger.Log("cert_store_joined", "url", *certStore,
			"platform", *platformID, "trusted_peer_keys", peerKeys)
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer l.Close()
	logger.Log("listening", "addr", l.Addr(),
		"measurement", fmt.Sprintf("%x", meas[:8]),
		"policies", pols,
		"max_sessions", *maxSessions,
		"io_timeout", *ioTimeout,
		"session_timeout", *sessionTimeout,
		"verify_cache_bytes", *verifyCacheBytes,
		"verify_workers", *verifyWorkers,
		"verify_queue", *verifyQueue)

	if *metricsAddr != "" {
		ml, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer ml.Close()
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg.Handler())
		mux.Handle("/traces", spans.Handler())
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
			status := "ok"
			if srv.Draining() {
				status = "draining"
			}
			w.Header().Set("Cache-Control", "no-store")
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(map[string]any{
				"status":          status,
				"active_sessions": srv.ActiveSessions(),
			})
		})
		if *pprofEnabled {
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		}
		go func() { _ = http.Serve(ml, mux) }()
		logger.Log("metrics_listening", "addr", ml.Addr(), "pprof", *pprofEnabled)

		// Self-register with the gateway's fleet registrar so the /fleet
		// view can scrape this backend; re-announce periodically so a
		// restarted gateway re-learns the fleet without operator action.
		if *fleetReport != "" {
			announce := func() {
				actx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				defer cancel()
				err := fleet.Announce(actx, nil, strings.TrimRight(*fleetReport, "/"), fleet.Registration{
					Addr:        l.Addr().String(),
					MetricsAddr: ml.Addr().String(),
				})
				if err != nil {
					logger.Log("fleet_announce_failed", "gateway", *fleetReport, "err", err)
				}
			}
			announce()
			go func() {
				ticker := time.NewTicker(*fleetInterval)
				defer ticker.Stop()
				for range ticker.C {
					announce()
				}
			}()
			logger.Log("fleet_reporting", "gateway", *fleetReport, "interval", *fleetInterval)
		}
	} else if *fleetReport != "" {
		fmt.Fprintln(os.Stderr, "deflection-serve: -fleet-report requires -metrics-addr (the address the gateway scrapes)")
		return 2
	}

	if *metricsInterval > 0 {
		ticker := time.NewTicker(*metricsInterval)
		defer ticker.Stop()
		go func() {
			for range ticker.C {
				logger.Log("metrics_summary", "metrics", reg.Summary())
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()

	// waitAndDrain blocks until the server dies or a signal arrives, then
	// drains gracefully.
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
			if err := srv.Shutdown(sctx); err != nil {
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

	// ---- Demo session: code provider + data owner on one connection,
	// dialed through the retry/backoff path a real party would use.
	dial := func() (io.ReadWriteCloser, error) {
		return net.Dial("tcp", l.Addr().String())
	}
	client, err := ccaas.DialRetry(dial, as, meas, ra.RoleCodeProvider, ccaas.RetryConfig{Metrics: reg})
	if err != nil {
		fmt.Fprintf(os.Stderr, "attestation failed: %v\n", err)
		return 1
	}
	fmt.Println("[party] attested the enclave, session channel established")

	tid := obs.NewTraceID()
	if err := client.SendTrace(tid); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("[party] session trace id %s (see /traces?trace=%s)\n", tid, tid)

	bin, err := deflection.Generate(demoService, deflection.GeneratorOptions{Policies: pols})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	hash, guards, err := client.SendBinary(bin.Bytes())
	if err != nil {
		fmt.Fprintf(os.Stderr, "binary rejected: %v\n", err)
		return 1
	}
	fmt.Printf("[party] private binary verified by the enclave (hash %x..., %d annotations)\n", hash[:6], guards)

	if err := client.SendData([]byte{1, 2, 3, 4, 5}); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println("[party] input accepted by the enclave")
	rr, err := client.Run()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if rr.Trapped {
		fmt.Printf("[party] service aborted by policy: %s\n", rr.TrapReason)
		return 3
	}
	fmt.Printf("[party] service completed: exit %d after %d instructions\n", rr.Exit, rr.Insts)
	for _, out := range rr.Outputs {
		msg, err := runtime.Unpad(out)
		if err != nil {
			continue
		}
		fmt.Printf("[party] result message: %d\n", int64(binary.LittleEndian.Uint64(msg)))
	}
	if err := client.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println("[party] session closed")
	logger.Log("demo_complete", "metrics", reg.Summary())

	// With a metrics endpoint up, stay alive after the demo so the
	// registry can be scraped; shut down on SIGINT/SIGTERM.
	if *metricsAddr != "" {
		return waitAndDrain()
	}

	sctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	<-serveErr
	return 0
}
