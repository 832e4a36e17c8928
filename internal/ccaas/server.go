package ccaas

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"deflection/attest"
	"deflection/internal/enclave"
	"deflection/internal/obs"
	"deflection/internal/policy"
	"deflection/internal/runtime"
	"deflection/internal/vplane"
)

// DefaultMaxInputSize caps one data upload when ServerConfig.MaxInputSize
// is zero. The frame layer independently caps whole messages at 1 MiB.
const DefaultMaxInputSize = 256 << 10

// ServerConfig parameterises a CCaaS host.
type ServerConfig struct {
	// Platform signs the attestation quotes.
	Platform *attest.Platform
	// Policies is the manifest's required policy set.
	Policies policy.Set
	// Enclave is the per-session enclave sizing (zero value = default).
	Enclave enclave.Config
	// Gas bounds each service execution (0 = default).
	Gas uint64
	// MaxSessions caps concurrently admitted sessions; excess connections
	// are rejected with an authenticated busy reply (0 = unlimited).
	MaxSessions int
	// SessionTimeout bounds a whole session from accept to close (0 = none).
	SessionTimeout time.Duration
	// IOTimeout bounds each read/write on the transport (0 = none). Only
	// enforced when the transport is a net.Conn.
	IOTimeout time.Duration
	// MaxInputSize caps one tagData upload (0 = DefaultMaxInputSize).
	MaxInputSize int
	// Log, if set, receives structured events with alternating key/value
	// pairs (session IDs, durations, outcomes).
	Log func(event string, kv ...any)
	// Metrics, if set, receives session/byte/timing metrics. A nil registry
	// is valid: instrumentation then updates throwaway metrics.
	Metrics *obs.Registry
	// Spans, if set, receives per-session phase spans (attest, load, run)
	// and — on the in-session cold path — the verifier's stage trace, all
	// tagged with the session's trace ID when the party attached one via
	// the sealed trace message. Nil disables span collection.
	Spans *obs.Collector
	// Verify, if set, routes binary deliveries through the verification
	// service plane: verdicts are cached content-addressed, concurrent
	// submissions of the same binary collapse to one pipeline run, and
	// verification CPU is capped by the plane's worker pool. Sessions on
	// the cache-hit path install a private copy of the verified image and
	// skip parse/disasm/verify entirely. Nil keeps the per-session cold
	// pipeline.
	Verify *vplane.Plane
}

// ErrServerBusy is the authenticated rejection a party receives when the
// server is at its session cap or draining. It is transient: retrying
// later (see DialRetry / Retry) is the expected response.
var ErrServerBusy = errors.New("ccaas: server busy")

// ErrServerClosed is returned by Serve on a server that has been shut down.
var ErrServerClosed = errors.New("ccaas: server closed")

// Server hosts one bootstrap enclave per admitted session.
type Server struct {
	cfg ServerConfig

	measOnce sync.Once
	meas     [32]byte
	measErr  error

	sessionSeq atomic.Int64 // monotonically increasing session IDs

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[io.Closer]struct{}
	active    int
	draining  bool
	wg        sync.WaitGroup
}

// NewServer validates the configuration and returns a server.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Platform == nil {
		return nil, errors.New("ccaas: platform required")
	}
	if cfg.Enclave == (enclave.Config{}) {
		cfg.Enclave = enclave.DefaultConfig()
	}
	if cfg.MaxInputSize <= 0 {
		cfg.MaxInputSize = DefaultMaxInputSize
	}
	return &Server{
		cfg:       cfg,
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[io.Closer]struct{}),
	}, nil
}

func (s *Server) manifest() runtime.Manifest {
	m := runtime.DefaultManifest()
	m.Policies = s.cfg.Policies
	return m
}

// Measurement returns the launch measurement every session enclave will
// have (the value parties must expect during attestation).
func (s *Server) Measurement() ([32]byte, error) {
	s.measOnce.Do(func() {
		b, err := runtime.New(s.cfg.Enclave, s.manifest())
		if err != nil {
			s.measErr = err
			return
		}
		s.meas = b.Measurement()
	})
	return s.meas, s.measErr
}

// ActiveSessions reports how many sessions are currently admitted.
func (s *Server) ActiveSessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.active
}

// log emits one structured event to the configured sink, if any.
func (s *Server) log(event string, kv ...any) {
	if s.cfg.Log != nil {
		s.cfg.Log(event, kv...)
	}
}

// metrics returns the configured registry (nil is a valid registry that
// hands out throwaway metrics).
func (s *Server) metrics() *obs.Registry { return s.cfg.Metrics }

// isTimeoutErr classifies an I/O error as a deadline expiry.
func isTimeoutErr(err error) bool {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Draining reports whether Shutdown has begun (useful for health probes:
// a draining server rejects new sessions but still serves in-flight ones).
func (s *Server) Draining() bool { return s.isDraining() }

// acquire registers a session. admit=false means the server is at capacity
// or draining; the caller must still complete attestation and deliver a
// sealed busy rejection so the party gets an authenticated answer.
func (s *Server) acquire(conn io.ReadWriter) (release func(), admit bool, reason string, draining bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return func() {}, false, "server is shutting down", true
	}
	s.wg.Add(1)
	var cl io.Closer
	if c, ok := conn.(io.Closer); ok {
		cl = c
		s.conns[cl] = struct{}{}
	}
	admit = s.cfg.MaxSessions <= 0 || s.active < s.cfg.MaxSessions
	if admit {
		s.active++
	} else {
		reason = fmt.Sprintf("session limit of %d reached", s.cfg.MaxSessions)
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			s.mu.Lock()
			if admit {
				s.active--
			}
			if cl != nil {
				delete(s.conns, cl)
			}
			s.mu.Unlock()
			s.wg.Done()
		})
	}, admit, reason, false
}

// isTemporaryAcceptErr reports whether an Accept failure is worth retrying
// (timeouts and transient resource exhaustion such as EMFILE).
func isTemporaryAcceptErr(err error) bool {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	var te interface{ Temporary() bool }
	return errors.As(err, &te) && te.Temporary()
}

// Serve accepts sessions until the listener closes or Shutdown is called.
// Each session runs on its own goroutine and its own enclave. Temporary
// accept errors are retried with exponential backoff instead of killing
// the server.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return ErrServerClosed
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
	}()

	const maxBackoff = time.Second
	var backoff time.Duration
	for {
		conn, err := l.Accept()
		if err != nil {
			if s.isDraining() || errors.Is(err, net.ErrClosed) {
				return nil
			}
			if isTemporaryAcceptErr(err) {
				if backoff == 0 {
					backoff = 5 * time.Millisecond
				} else if backoff *= 2; backoff > maxBackoff {
					backoff = maxBackoff
				}
				s.metrics().Counter("ccaas_accept_retries_total").Inc()
				s.log("accept_retry", "err", err, "backoff", backoff)
				time.Sleep(backoff)
				continue
			}
			return fmt.Errorf("ccaas: accept: %w", err)
		}
		backoff = 0
		go func() {
			defer conn.Close()
			if err := s.Handle(conn); err != nil {
				s.log("session_error", "remote", conn.RemoteAddr(), "err", err)
			}
		}()
	}
}

// Shutdown stops accepting new sessions, waits for in-flight sessions to
// drain, and force-closes the remaining connections when ctx expires. It
// returns nil when every session drained cleanly, or ctx.Err() after a
// forced close.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	for l := range s.listeners {
		_ = l.Close()
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	s.mu.Lock()
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	<-done
	return ctx.Err()
}
