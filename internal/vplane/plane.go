package vplane

import (
	"context"
	"errors"
	goruntime "runtime"
	"sync"
	"time"

	"deflection/internal/enclave"
	"deflection/internal/obs"
	"deflection/internal/runtime"
	"deflection/internal/verifier"
)

// Defaults for Config zero values.
const (
	DefaultCacheBytes = 256 << 20
	DefaultQueueDepth = 64
)

// DefaultWorkers is the worker count used when Config.Workers is zero:
// half the CPUs, at least one — verification is CPU-bound, and the other
// half is left for session service.
func DefaultWorkers() int {
	n := goruntime.NumCPU() / 2
	if n < 1 {
		n = 1
	}
	return n
}

// Config parameterises a Plane.
type Config struct {
	// CacheBytes bounds the verdict cache (0 = DefaultCacheBytes).
	CacheBytes int64
	// Workers bounds concurrent verifications (0 = DefaultWorkers()).
	Workers int
	// QueueDepth bounds queued verifications beyond the running ones;
	// submissions past it are rejected with ErrOverloaded
	// (0 = DefaultQueueDepth).
	QueueDepth int
	// Metrics receives hit/miss/dedup/eviction counters, the queue-depth
	// gauge and latency histograms. A nil registry is valid.
	Metrics *obs.Registry
	// Spans, if set, receives plane-level span records (cache hits,
	// single-flight joins, queue waits, certificate fetch/publish, cold
	// verifier stage traces) tagged with the trace ID carried on the
	// caller's context (obs.ContextWithTrace). Nil disables collection.
	Spans *obs.Collector
	// Log, if set, receives structured events (cold runs, negative
	// verdicts, overloads) with alternating key/value pairs.
	Log func(event string, kv ...any)
}

// flight is one in-progress verification that concurrent submitters of the
// same key attach to.
type flight struct {
	done    chan struct{} // closed after verdict/err/src are set
	verdict *Verdict
	err     error
	src     Source // how the flight obtained its verdict (certified or cold)
	waiters int    // guarded by Plane.mu; 0 ⇒ cancel the job
	ctx     context.Context
	cancel  context.CancelFunc
}

// Plane is the verification service plane: cache + single-flight admission
// + bounded worker pool. Safe for concurrent use by any number of sessions.
type Plane struct {
	cfg   Config
	m     *obs.Registry
	cache *Cache
	pool  *Pool

	mu      sync.Mutex
	flights map[Key]*flight
	certs   *CertConfig // fleet certificate wiring; nil = disabled

	// verifyHook, when set, runs at the top of every cold pipeline run —
	// tests use it to hold a verification open while waiters pile up.
	verifyHook func()
}

// New builds a Plane; call Close to stop its workers.
func New(cfg Config) *Plane {
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = DefaultCacheBytes
	}
	if cfg.Workers <= 0 {
		cfg.Workers = DefaultWorkers()
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	return &Plane{
		cfg:     cfg,
		m:       cfg.Metrics,
		cache:   NewCache(cfg.CacheBytes, cfg.Metrics),
		pool:    NewPool(cfg.Workers, cfg.QueueDepth, cfg.Metrics),
		flights: make(map[Key]*flight),
	}
}

// Cache exposes the verdict cache (for invalidation and introspection).
func (p *Plane) Cache() *Cache { return p.cache }

// Close stops the worker pool. In-flight verifications finish; queued ones
// are abandoned with ErrClosed.
func (p *Plane) Close() { p.pool.Close() }

func (p *Plane) log(event string, kv ...any) {
	if p.cfg.Log != nil {
		p.cfg.Log(event, kv...)
	}
}

// Verify returns the verification verdict for objBytes under manifest m and
// layout l: from the cache when possible, by joining an in-flight run of
// the same key otherwise, and by admitting one cold pipeline run through
// the worker pool only when neither exists. The returned error is a
// transport-level failure (overload, cancellation, closed plane) — a
// *rejected binary* is a successful Verify whose Verdict.Reject is set.
func (p *Plane) Verify(ctx context.Context, objBytes []byte, m runtime.Manifest, l enclave.Layout) (*Verdict, Source, error) {
	start := time.Now()
	tid := obs.TraceFromContext(ctx)
	key := ComputeKey(objBytes, m, l)
	if v, ok := p.cache.Get(key); ok {
		if v.Reject != nil {
			p.m.Counter("vplane_cache_negative_hits_total").Inc()
		} else {
			p.m.Counter("vplane_cache_hits_total").Inc()
		}
		p.m.Histogram("vplane_verify_cached_seconds").ObserveDuration(time.Since(start))
		p.cfg.Spans.Observe(tid, "vplane/cache_hit", start, time.Since(start), "key", keyPrefix(key))
		return v, SourceCache, nil
	}

	p.mu.Lock()
	if f, ok := p.flights[key]; ok {
		f.waiters++
		p.mu.Unlock()
		p.m.Counter("vplane_dedup_joins_total").Inc()
		v, src, err := p.wait(ctx, f, true)
		p.cfg.Spans.Observe(tid, "vplane/join", start, time.Since(start), "key", keyPrefix(key))
		return v, src, err
	}
	fctx, cancel := context.WithCancel(context.Background())
	f := &flight{done: make(chan struct{}), waiters: 1, ctx: fctx, cancel: cancel}
	p.flights[key] = f
	p.mu.Unlock()

	// The flight runs detached from the leader's context: its lifetime is
	// governed by the waiter refcount, so a leader that gives up does not
	// kill a job other sessions are still waiting on. Fleet certificate
	// admission happens inside the flight, so N concurrent misses on the
	// same key cost one store lookup, not N. The leader's trace ID rides
	// along purely for span attribution: joiners see the same spans the
	// leader's flight emitted, under the leader's ID.
	go p.runFlight(f, tid, key, append([]byte(nil), objBytes...), m, l)
	v, src, err := p.wait(ctx, f, false)
	p.cfg.Spans.Observe(tid, "vplane/verify", start, time.Since(start),
		"key", keyPrefix(key), "source", src)
	return v, src, err
}

// wait blocks on a flight until it completes or ctx expires. The leader
// reports the flight's own source (certified or cold); joiners report
// SourceJoined. An expired waiter decrements the flight's refcount; the
// last one to leave cancels the job (a queued job is then dropped before
// it ever runs).
func (p *Plane) wait(ctx context.Context, f *flight, joined bool) (*Verdict, Source, error) {
	select {
	case <-f.done:
		if joined {
			return f.verdict, SourceJoined, f.err
		}
		return f.verdict, f.src, f.err
	case <-ctx.Done():
		p.mu.Lock()
		f.waiters--
		if f.waiters == 0 {
			f.cancel()
		}
		p.mu.Unlock()
		p.m.Counter("vplane_waits_abandoned_total").Inc()
		src := SourceCold
		if joined {
			src = SourceJoined
		}
		return nil, src, ctx.Err()
	}
}

// runFlight resolves one single-flight verification: first by consulting
// the fleet certificate store (one lookup per flight, so concurrent misses
// do not multiply store traffic), then by admitting a cold pipeline run
// through the pool. The verdict is cached and published to every waiter.
func (p *Plane) runFlight(f *flight, tid obs.TraceID, key Key, objBytes []byte, m runtime.Manifest, l enclave.Layout) {
	finish := func(v *Verdict, verr error, src Source) {
		p.mu.Lock()
		delete(p.flights, key)
		f.verdict, f.err, f.src = v, verr, src
		p.mu.Unlock()
		close(f.done)
		f.cancel()
	}

	// Fleet certificate admission: before paying a cold pipeline run, ask
	// the shared store whether a peer enclave already certified this key.
	// An admitted certificate becomes an ordinary cache entry, so repeat
	// submissions hit the local cache without touching the store again.
	certStart := time.Now()
	if v, ok := p.tryCertified(key, m); ok {
		p.cache.Put(v)
		p.m.Histogram("vplane_verify_certified_seconds").ObserveDuration(time.Since(certStart))
		p.cfg.Spans.Observe(tid, "vplane/cert_fetch", certStart, time.Since(certStart),
			"key", keyPrefix(key), "admitted", true)
		finish(v, nil, SourceCertified)
		return
	}
	if p.certs != nil {
		p.cfg.Spans.Observe(tid, "vplane/cert_fetch", certStart, time.Since(certStart),
			"key", keyPrefix(key), "admitted", false)
	}

	p.m.Counter("vplane_cache_misses_total").Inc()
	var (
		v    *Verdict
		verr error
	)
	queueStart := time.Now()
	err := p.pool.Do(f.ctx, func() {
		p.cfg.Spans.Observe(tid, "vplane/queue_wait", queueStart, time.Since(queueStart),
			"key", keyPrefix(key))
		v, verr = p.runVerify(tid, key, objBytes, m, l)
	})
	if err != nil {
		v, verr = nil, err
	}
	if v != nil {
		p.cache.Put(v)
		// A fresh positive verdict is fleet news: sign and publish it so
		// peer backends can admit the image without a cold run of their own.
		pubStart := time.Now()
		if p.publishCert(v, m) {
			p.cfg.Spans.Observe(tid, "vplane/cert_publish", pubStart, time.Since(pubStart),
				"key", keyPrefix(key))
		}
	}
	finish(v, verr, SourceCold)
}

// runVerify executes the full parse→load→disasm→verify→rewrite pipeline
// for layout l, without an enclave, and converts the outcome into a
// cacheable verdict. Deterministic rejections (structured verifier
// violations and policy-mask mismatches) become negative verdicts; anything
// else (corrupt objects, undersized enclaves mid-reconfiguration) is
// reported as an error and left uncached.
func (p *Plane) runVerify(tid obs.TraceID, key Key, objBytes []byte, m runtime.Manifest, l enclave.Layout) (*Verdict, error) {
	if hook := p.verifyHook; hook != nil {
		hook()
	}
	start := time.Now()
	img, tr, err := runtime.BuildImage(objBytes, m, l)
	p.m.Histogram("vplane_verify_cold_seconds").ObserveDuration(time.Since(start))
	p.m.Counter("vplane_verify_runs_total").Inc()
	// Export the pipeline's stage trace (parse → disasm → policy → cfa →
	// rewrite) under the single-flight leader's trace ID, so the verifier's
	// internal timeline shows up in /traces correlated with the session
	// that triggered the cold run.
	p.cfg.Spans.AddTrace(tid, tr)
	if err != nil {
		if errors.Is(err, verifier.ErrViolation) || errors.Is(err, runtime.ErrPolicyMismatch) {
			p.m.Counter("vplane_negative_verdicts_total").Inc()
			p.log("vplane_negative_verdict", "key", keyPrefix(key), "err", err)
			return &Verdict{Key: key, Reject: err}, nil
		}
		return nil, err
	}
	p.log("vplane_cold_verify", "key", keyPrefix(key),
		"text_bytes", len(img.Text), "dur", time.Since(start))
	return &Verdict{Key: key, Image: img}, nil
}

// Load is the session-facing fast path: verify objBytes through the plane
// (cache → single-flight → pool) under boot's own manifest and layout, then
// install the verified image into boot's private enclave memory. On a cache
// hit the parse/disasm/verify/rewrite pipeline is skipped entirely.
func (p *Plane) Load(ctx context.Context, boot *runtime.Bootstrap, objBytes []byte) (*runtime.LoadReport, Source, error) {
	v, src, err := p.Verify(ctx, objBytes, boot.Manifest(), boot.Enclave().Layout)
	if err != nil {
		return nil, src, err
	}
	if v.Reject != nil {
		return nil, src, v.Reject
	}
	rep, err := boot.InstallImage(v.Image)
	return rep, src, err
}

// keyPrefix renders the first bytes of a key for log lines.
func keyPrefix(k Key) string {
	const hexdigits = "0123456789abcdef"
	out := make([]byte, 16)
	for i := 0; i < 8; i++ {
		out[2*i] = hexdigits[k[i]>>4]
		out[2*i+1] = hexdigits[k[i]&0xf]
	}
	return string(out)
}
