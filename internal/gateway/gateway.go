// Package gateway is the fleet front door of the CCaaS deployment: a
// session router in front of a pool of bootstrap-enclave backends
// (deflection-serve processes). The paper's model binds one bootstrap
// enclave per service process; serving fleet-scale traffic means surviving
// backend crashes, stalls and overload without dropping sessions or
// re-paying cold verification — which is exactly what the gateway adds:
//
//   - consistent-hash routing on the session's binary digest, so repeat
//     submissions of the same binary land on the backend whose verification
//     plane already holds the warm verdict (sessions without a route hint
//     go to the least-loaded backend);
//   - active health probes that complete a real attestation-hello exchange
//     with each backend, so "healthy" means "can mint quotes", not just
//     "accepts TCP";
//   - a per-backend circuit breaker (closed / open / half-open) whose
//     recovery is probe-driven: a dead backend stops receiving sessions
//     after a handful of failures and is re-admitted only after a probe
//     succeeds through the half-open window;
//   - failover with a per-session retry budget: a session whose primary
//     backend is down is re-placed on the next backend in its ring order
//     before the client ever notices;
//   - graceful drain mirroring the backends' own Shutdown contract.
//
// The gateway is deliberately OUTSIDE the trust boundary. It proxies the
// attested channel end-to-end and can neither read nor forge a single
// session byte: parties attest the backend enclave *through* it, and the
// only frame the gateway ever originates is the unauthenticated busy reply
// (ccaas.GatewayStatus), which clients treat as a transport failure. The
// TCB import lint enforces that no verification package can ever depend on
// this one.
package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"deflection/internal/ccaas"
	"deflection/internal/obs"
	"deflection/internal/ra"
	"deflection/internal/tenant"
)

// preambleMagic identifies the gateway routing preamble frame. The
// preamble is the one extra message of the gateway wire protocol: the
// client sends it first (the gateway strips it), then the ordinary
// attested-session byte stream follows unchanged.
const preambleMagic = "deflection-gateway-v1"

// preamble is the routing hint a client sends a gateway before the
// attestation handshake. Route is typically the SHA-256 of the binary the
// session will submit; it reveals only *which* binary (by opaque digest),
// never its contents, and buys warm-cache affinity in exchange.
//
// Trace is an optional observability-only trace ID (16 hex chars) that
// lets operators correlate the gateway's spans with the backend's. Both
// directions tolerate its absence — v1 peers that predate the field
// simply never see it (encoding/json ignores unknown fields and omitempty
// elides empty ones), so the wire protocol version string is unchanged.
//
// Tenant is an optional admission-shaping label with the same
// version-tolerance contract. It travels in cleartext before any
// attestation, so it is NOT an identity: the gateway uses it only to pick
// which admission budget (tier) the session draws from, and the tier
// policy bounds the damage any one label can do. Forging someone else's
// label buys an attacker nothing better than that tenant's own limits.
type preamble struct {
	Magic  string `json:"gw"`
	Route  []byte `json:"route,omitempty"`
	Trace  string `json:"trace,omitempty"`
	Tenant string `json:"tenant,omitempty"`
}

// WritePreamble sends the gateway routing preamble on a fresh connection.
// Dialers that connect through a deflection-gateway must call it before
// the ccaas handshake; route may be nil for least-loaded placement.
func WritePreamble(w io.Writer, route []byte) error {
	return WritePreambleTraced(w, route, 0)
}

// WritePreambleTraced is WritePreamble carrying a client-minted trace ID.
// A zero ID elides the field, producing the exact v1 preamble.
func WritePreambleTraced(w io.Writer, route []byte, id obs.TraceID) error {
	return WritePreambleTagged(w, route, id, "")
}

// WritePreambleTagged is the full preamble: route hint, trace ID and
// tenant admission label. Empty fields are elided, so every combination
// down to the bare v1 preamble stays on the same wire version.
func WritePreambleTagged(w io.Writer, route []byte, id obs.TraceID, tenantToken string) error {
	p := preamble{Magic: preambleMagic, Route: route, Tenant: tenantToken}
	if id != 0 {
		p.Trace = id.String()
	}
	payload, err := json.Marshal(p)
	if err != nil {
		return fmt.Errorf("gateway: %w", err)
	}
	return ra.WriteFrame(w, payload)
}

// ErrNotPreamble is returned when a connection's first frame is not a
// gateway preamble.
var ErrNotPreamble = errors.New("gateway: connection did not start with a routing preamble")

// readPreamble consumes the preamble frame from a new client connection.
// A malformed trace field is ignored rather than fatal: the trace ID is
// observability-only and must never be able to break routing. The tenant
// label is returned raw; admission normalises it (empty → anonymous,
// overlong → truncated) so a hostile label cannot grow state.
func readPreamble(r io.Reader) ([]byte, obs.TraceID, string, error) {
	frame, err := ra.ReadFrame(r)
	if err != nil {
		return nil, 0, "", err
	}
	var p preamble
	if err := json.Unmarshal(frame, &p); err != nil || p.Magic != preambleMagic {
		return nil, 0, "", ErrNotPreamble
	}
	tid, err := obs.ParseTraceID(p.Trace)
	if err != nil {
		tid = 0
	}
	return p.Route, tid, p.Tenant, nil
}

// Config parameterises a Gateway.
type Config struct {
	// Backends are the pool addresses (ccaas servers reachable by Dial).
	Backends []string
	// Dial opens a connection to one backend (nil = TCP with DialTimeout).
	Dial func(ctx context.Context, addr string) (net.Conn, error)
	// DialTimeout bounds one backend connection attempt (0 = 2s).
	DialTimeout time.Duration
	// HelloTimeout bounds the wait for the backend's attestation hello
	// after connecting — the gateway's readiness check (0 = 5s).
	HelloTimeout time.Duration
	// PreambleTimeout bounds the wait for a client's routing preamble
	// (0 = 10s). A client that never sends one cannot hold a slot forever.
	PreambleTimeout time.Duration
	// RetryBudget is the number of backends one session may be attempted
	// on before the gateway gives up with a busy reply (0 = 3, capped at
	// the pool size).
	RetryBudget int
	// MaxSessions caps concurrently proxied sessions (0 = unlimited).
	MaxSessions int
	// Tenants resolves preamble tenant labels to tiers for admission
	// control. Nil gives every session one unlimited, non-queueing default
	// tier — exactly the pre-tenant gateway behaviour.
	Tenants *tenant.Registry
	// AdmissionQueue bounds queued (waiting-for-capacity) sessions across
	// all tiers (0 = 256). Only meaningful with MaxSessions > 0 and tiers
	// that declare a queue deadline.
	AdmissionQueue int
	// RetryHint is the retry_after_ms handed to shed sessions whose tier
	// carries no better estimate (0 = 500ms).
	RetryHint time.Duration
	// Replicas is the virtual-node count per backend on the hash ring
	// (0 = 64).
	Replicas int
	// Breaker tunes the per-backend circuit breakers.
	Breaker BreakerConfig
	// ProbeInterval is the active health-probe period (0 = 500ms,
	// negative = probing disabled).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe's dial+hello exchange (0 = 2s).
	ProbeTimeout time.Duration
	// Metrics receives gateway_* counters/gauges. Nil is valid.
	Metrics *obs.Registry
	// Spans receives route/dial/splice span records tagged with each
	// session's trace ID (when the client's preamble carries one). Nil is
	// valid: tracing is off and costs nothing.
	Spans *obs.Collector
	// Log, if set, receives structured events with key/value pairs.
	Log func(event string, kv ...any)
	// Clock overrides time.Now for the breakers (tests).
	Clock func() time.Time
}

// backend is one pool member's live state.
type backend struct {
	addr     string
	breaker  *Breaker
	inflight atomic.Int64
	healthy  atomic.Bool
}

// BackendState is a point-in-time snapshot of one backend, for health
// endpoints and tests.
type BackendState struct {
	Addr     string `json:"addr"`
	Healthy  bool   `json:"healthy"`
	Breaker  string `json:"breaker"`
	Inflight int64  `json:"inflight"`
}

// ErrGatewayClosed is returned by Serve on a gateway that has been shut
// down.
var ErrGatewayClosed = errors.New("gateway: closed")

// Gateway routes attested sessions across the backend pool.
type Gateway struct {
	cfg       Config
	m         *obs.Registry
	backends  []*backend
	ring      *ring
	admission *tenant.Controller

	sessionSeq atomic.Int64

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	draining  bool
	wg        sync.WaitGroup

	probeWG    sync.WaitGroup
	stopProbes chan struct{}
	stopOnce   sync.Once
}

// New validates the configuration, builds the pool and starts the health
// probers. Call Shutdown to stop them.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("gateway: at least one backend required")
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.HelloTimeout <= 0 {
		cfg.HelloTimeout = 5 * time.Second
	}
	if cfg.PreambleTimeout <= 0 {
		cfg.PreambleTimeout = 10 * time.Second
	}
	if cfg.RetryBudget <= 0 {
		cfg.RetryBudget = 3
	}
	if cfg.RetryBudget > len(cfg.Backends) {
		cfg.RetryBudget = len(cfg.Backends)
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 500 * time.Millisecond
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 2 * time.Second
	}
	if cfg.Dial == nil {
		cfg.Dial = func(ctx context.Context, addr string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	g := &Gateway{
		cfg:        cfg,
		m:          cfg.Metrics,
		ring:       newRing(len(cfg.Backends), cfg.Replicas),
		listeners:  make(map[net.Listener]struct{}),
		conns:      make(map[net.Conn]struct{}),
		stopProbes: make(chan struct{}),
	}
	g.admission = tenant.NewController(cfg.Tenants, tenant.ControllerConfig{
		Capacity:  cfg.MaxSessions,
		MaxQueue:  cfg.AdmissionQueue,
		RetryHint: cfg.RetryHint,
		Clock:     cfg.Clock,
		Metrics:   cfg.Metrics,
		Log:       cfg.Log,
	})
	for _, addr := range cfg.Backends {
		b := &backend{addr: addr, breaker: NewBreaker(cfg.Breaker, cfg.Clock)}
		b.healthy.Store(true) // innocent until a probe or session says otherwise
		g.backends = append(g.backends, b)
	}
	g.publishHealth()
	if cfg.ProbeInterval > 0 {
		for _, b := range g.backends {
			g.probeWG.Add(1)
			go g.probeLoop(b)
		}
	}
	return g, nil
}

func (g *Gateway) log(event string, kv ...any) {
	if g.cfg.Log != nil {
		g.cfg.Log(event, kv...)
	}
}

// BackendStates snapshots the pool (health endpoint, tests).
func (g *Gateway) BackendStates() []BackendState {
	out := make([]BackendState, 0, len(g.backends))
	for _, b := range g.backends {
		out = append(out, BackendState{
			Addr:     b.addr,
			Healthy:  b.healthy.Load(),
			Breaker:  b.breaker.State().String(),
			Inflight: b.inflight.Load(),
		})
	}
	return out
}

// ActiveSessions reports how many sessions are currently proxied.
func (g *Gateway) ActiveSessions() int { return g.admission.Active() }

// QueuedSessions reports how many sessions are waiting for capacity.
func (g *Gateway) QueuedSessions() int { return g.admission.Queued() }

// TenantStats snapshots per-tenant admission accounting (/fleet rollups).
func (g *Gateway) TenantStats() []tenant.Stat { return g.admission.Stats() }

// Draining reports whether Shutdown has begun.
func (g *Gateway) Draining() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.draining
}

// publishHealth recomputes the healthy-backend gauge.
func (g *Gateway) publishHealth() {
	n := int64(0)
	for _, b := range g.backends {
		if b.healthy.Load() {
			n++
		}
	}
	g.m.Gauge("gateway_backends_healthy").Set(n)
	g.m.Gauge("gateway_backends_total").Set(int64(len(g.backends)))
}

// connect dials one backend and waits for its attestation hello — the
// gateway's notion of "up" is an enclave that answers with a quote, not a
// socket that accepts. The hello frame is returned for forwarding.
func (g *Gateway) connect(b *backend, helloTimeout time.Duration) (net.Conn, []byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), g.cfg.DialTimeout)
	defer cancel()
	conn, err := g.cfg.Dial(ctx, b.addr)
	if err != nil {
		return nil, nil, err
	}
	_ = conn.SetReadDeadline(time.Now().Add(helloTimeout))
	hello, err := ra.ReadFrame(conn)
	if err != nil {
		conn.Close()
		return nil, nil, fmt.Errorf("gateway: backend hello: %w", err)
	}
	_ = conn.SetReadDeadline(time.Time{})
	return conn, hello, nil
}

// markFailure records a failed backend interaction on breaker + health.
func (g *Gateway) markFailure(b *backend, err error) {
	b.healthy.Store(false)
	if b.breaker.Failure() {
		g.m.Counter("gateway_breaker_opens_total").Inc()
		g.log("breaker_open", "backend", b.addr, "err", err)
	}
	g.publishHealth()
}

// markSuccess records a healthy backend interaction.
func (g *Gateway) markSuccess(b *backend) {
	b.healthy.Store(true)
	if b.breaker.Success() {
		g.m.Counter("gateway_breaker_recoveries_total").Inc()
		g.log("breaker_recovered", "backend", b.addr)
	}
	g.publishHealth()
}

// probeLoop actively probes one backend until Shutdown. Probes drive
// breaker recovery: an open breaker's half-open trial slot is claimed by
// the next probe after the window, and a successful probe closes it.
func (g *Gateway) probeLoop(b *backend) {
	defer g.probeWG.Done()
	ticker := time.NewTicker(g.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-g.stopProbes:
			return
		case <-ticker.C:
		}
		if !b.breaker.Allow() {
			continue // open and the window has not elapsed yet
		}
		g.m.Counter("gateway_probes_total").Inc()
		conn, _, err := g.connect(b, g.cfg.ProbeTimeout)
		if err != nil {
			g.m.Counter("gateway_probe_failures_total").Inc()
			g.markFailure(b, err)
			continue
		}
		conn.Close()
		g.markSuccess(b)
	}
}

// track registers a connection for shutdown bookkeeping (drain wait +
// force-close), WITHOUT consuming an admission slot: slots are granted by
// the tenant controller only after the preamble has been read, so a client
// that stalls its preamble can never hold MaxSessions capacity. ok=false
// means the gateway is draining.
func (g *Gateway) track(conn net.Conn) (untrack func(), ok bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.draining {
		return func() {}, false
	}
	g.wg.Add(1)
	g.conns[conn] = struct{}{}
	var once sync.Once
	return func() {
		once.Do(func() {
			g.mu.Lock()
			delete(g.conns, conn)
			g.mu.Unlock()
			g.wg.Done()
		})
	}, true
}

// replyBusy sends the unauthenticated gateway status frame. Clients
// classify it as transient and retry with backoff; retryAfter > 0 becomes
// the retry_after_ms shaping hint (a floor on the client's next backoff).
func (g *Gateway) replyBusy(conn net.Conn, reason string, retryAfter time.Duration) {
	payload, err := json.Marshal(ccaas.GatewayStatus{
		GatewayBusy:  true,
		Error:        reason,
		RetryAfterMS: retryAfter.Milliseconds(),
	})
	if err != nil {
		return
	}
	_ = conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
	_ = ra.WriteFrame(conn, payload)
	_ = conn.SetWriteDeadline(time.Time{})
}

// pickOrder returns the backend indices to try for a session, best first:
// ring order for routed sessions (primary owner, then its failover
// successors), ascending in-flight load for unrouted ones.
func (g *Gateway) pickOrder(route []byte) []int {
	order := g.ring.sequence(route)
	if len(route) == 0 {
		sort.SliceStable(order, func(a, b int) bool {
			return g.backends[order[a]].inflight.Load() < g.backends[order[b]].inflight.Load()
		})
	}
	return order
}

// Handle places one client connection on a backend and proxies the session
// to completion.
func (g *Gateway) Handle(conn net.Conn) error {
	sid := g.sessionSeq.Add(1)
	start := time.Now()
	g.m.Counter("gateway_sessions_total").Inc()

	untrack, accepting := g.track(conn)
	defer untrack()
	if !accepting {
		g.m.Counter("gateway_sessions_rejected_busy_total").Inc()
		// Drain the routing preamble before replying: closing a socket with
		// unread bytes in its receive buffer turns the close into a RST,
		// which can discard the busy frame before the client reads it.
		_ = conn.SetReadDeadline(time.Now().Add(g.cfg.PreambleTimeout))
		_, _, _, _ = readPreamble(conn)
		_ = conn.SetReadDeadline(time.Time{})
		g.replyBusy(conn, "gateway is shutting down", 0)
		return fmt.Errorf("gateway: session %d rejected: gateway is shutting down", sid)
	}

	// Read the preamble BEFORE taking an admission slot: a client that
	// stalls mid-preamble holds only its own socket, never MaxSessions
	// capacity that paying sessions need.
	_ = conn.SetReadDeadline(time.Now().Add(g.cfg.PreambleTimeout))
	route, tid, tenantTok, err := readPreamble(conn)
	if err != nil {
		g.m.Counter("gateway_preamble_errors_total").Inc()
		g.replyBusy(conn, "bad routing preamble", 0)
		return fmt.Errorf("gateway: session %d preamble: %w", sid, err)
	}
	_ = conn.SetReadDeadline(time.Time{})

	dec, release, err := g.admission.Acquire(context.Background(), tenant.Normalize(tenantTok))
	if err != nil {
		g.m.Counter("gateway_sessions_rejected_busy_total").Inc()
		reason, retryAfter := "gateway busy", time.Duration(0)
		var shed *tenant.ShedError
		if errors.As(err, &shed) {
			reason, retryAfter = shed.Reason, shed.RetryAfter
		}
		g.replyBusy(conn, reason, retryAfter)
		return fmt.Errorf("gateway: session %d rejected: %w", sid, err)
	}
	defer release()
	if dec.Queued {
		g.m.Histogram("gateway_admission_wait_seconds").ObserveDuration(dec.Wait)
	}
	g.m.Gauge("gateway_sessions_active").Add(1)
	defer func() {
		g.m.Gauge("gateway_sessions_active").Add(-1)
		g.m.Histogram("gateway_session_seconds").ObserveDuration(time.Since(start))
		g.cfg.Spans.Observe(tid, "gateway/session", start, time.Since(start),
			"sid", sid, "tenant", dec.Tenant, "tier", dec.Tier)
	}()

	routeStart := time.Now()
	var (
		lastErr error
		tried   int
	)
	for _, idx := range g.pickOrder(route) {
		if tried >= g.cfg.RetryBudget {
			break
		}
		b := g.backends[idx]
		if !b.breaker.Allow() {
			g.m.Counter("gateway_breaker_skips_total").Inc()
			continue
		}
		tried++
		if tried > 1 {
			g.m.Counter("gateway_failovers_total").Inc()
			g.log("session_failover", "sid", sid, "to", b.addr, "attempt", tried, "prev_err", lastErr)
		}
		dialStart := time.Now()
		upstream, hello, err := g.connect(b, g.cfg.HelloTimeout)
		g.cfg.Spans.Observe(tid, "gateway/dial", dialStart, time.Since(dialStart),
			"sid", sid, "backend", b.addr, "ok", err == nil)
		if err != nil {
			g.m.Counter("gateway_connect_failures_total").Inc()
			g.markFailure(b, err)
			lastErr = err
			continue
		}
		g.markSuccess(b)
		g.cfg.Spans.Observe(tid, "gateway/route", routeStart, time.Since(routeStart),
			"sid", sid, "backend", b.addr, "routed", len(route) > 0, "attempt", tried)
		g.log("session_routed", "sid", sid, "backend", b.addr, "routed", len(route) > 0,
			"attempt", tried, "trace", tid)
		return g.splice(sid, tid, b, conn, upstream, hello)
	}

	g.m.Counter("gateway_no_backend_total").Inc()
	msg := "no backend available"
	if lastErr != nil {
		msg = fmt.Sprintf("%s: %v", msg, lastErr)
	}
	// Hint the probe interval: a backend cannot be re-admitted faster than
	// the next successful probe, so retrying sooner is wasted work.
	g.replyBusy(conn, msg, g.cfg.ProbeInterval)
	return fmt.Errorf("gateway: session %d: %s", sid, msg)
}

// splice forwards the buffered backend hello to the client, then copies
// bytes in both directions until either side ends. The first error or EOF
// tears the pair down; the gateway never interprets another byte of the
// (sealed) stream.
func (g *Gateway) splice(sid int64, tid obs.TraceID, b *backend, client, upstream net.Conn, hello []byte) error {
	spliceStart := time.Now()
	b.inflight.Add(1)
	defer b.inflight.Add(-1)
	g.mu.Lock()
	g.conns[upstream] = struct{}{}
	g.mu.Unlock()
	defer func() {
		g.mu.Lock()
		delete(g.conns, upstream)
		g.mu.Unlock()
		upstream.Close()
	}()

	if err := ra.WriteFrame(client, hello); err != nil {
		return fmt.Errorf("gateway: session %d forwarding hello: %w", sid, err)
	}

	type done struct {
		n   int64
		err error
	}
	up := make(chan done, 1)    // client -> backend
	downC := make(chan done, 1) // backend -> client
	go func() {
		n, err := io.Copy(upstream, client)
		up <- done{n, err}
	}()
	go func() {
		n, err := io.Copy(client, upstream)
		downC <- done{n, err}
	}()

	// Whichever direction finishes first decides the session is over; close
	// both so the other copy unblocks, then collect it.
	var first done
	select {
	case first = <-up:
	case first = <-downC:
	}
	client.Close()
	upstream.Close()
	var second done
	select {
	case second = <-up:
	case second = <-downC:
	}
	g.m.Counter("gateway_bytes_proxied_total").Add(first.n + second.n)
	g.cfg.Spans.Observe(tid, "gateway/splice", spliceStart, time.Since(spliceStart),
		"sid", sid, "backend", b.addr, "bytes", first.n+second.n)
	g.log("session_done", "sid", sid, "backend", b.addr, "bytes", first.n+second.n)
	return nil
}

// isTemporaryAcceptErr mirrors the ccaas server's accept-retry policy.
func isTemporaryAcceptErr(err error) bool {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	var te interface{ Temporary() bool }
	return errors.As(err, &te) && te.Temporary()
}

// Serve accepts client sessions until the listener closes or Shutdown is
// called. Each session proxies on its own goroutine.
func (g *Gateway) Serve(l net.Listener) error {
	g.mu.Lock()
	if g.draining {
		g.mu.Unlock()
		return ErrGatewayClosed
	}
	g.listeners[l] = struct{}{}
	g.mu.Unlock()
	defer func() {
		g.mu.Lock()
		delete(g.listeners, l)
		g.mu.Unlock()
	}()

	const maxBackoff = time.Second
	var backoff time.Duration
	for {
		conn, err := l.Accept()
		if err != nil {
			if g.Draining() || errors.Is(err, net.ErrClosed) {
				return nil
			}
			if isTemporaryAcceptErr(err) {
				if backoff == 0 {
					backoff = 5 * time.Millisecond
				} else if backoff *= 2; backoff > maxBackoff {
					backoff = maxBackoff
				}
				g.m.Counter("gateway_accept_retries_total").Inc()
				time.Sleep(backoff)
				continue
			}
			return fmt.Errorf("gateway: accept: %w", err)
		}
		backoff = 0
		go func() {
			defer conn.Close()
			if err := g.Handle(conn); err != nil {
				g.log("session_error", "err", err)
			}
		}()
	}
}

// Shutdown stops accepting sessions, halts the probers, waits for in-flight
// proxied sessions to drain, and force-closes the rest when ctx expires.
func (g *Gateway) Shutdown(ctx context.Context) error {
	g.mu.Lock()
	g.draining = true
	for l := range g.listeners {
		_ = l.Close()
	}
	g.mu.Unlock()
	// Shed queued waiters first: they hold no backend connection, and their
	// Handle goroutines must unblock for the drain wait below to finish.
	// Admitted sessions are untouched and drain normally.
	g.admission.Close()
	g.stopOnce.Do(func() { close(g.stopProbes) })
	g.probeWG.Wait()

	done := make(chan struct{})
	go func() {
		g.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	g.mu.Lock()
	for c := range g.conns {
		_ = c.Close()
	}
	g.mu.Unlock()
	<-done
	return ctx.Err()
}
