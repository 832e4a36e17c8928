package ccaas

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"time"

	"deflection/attest"
	"deflection/internal/obs"
	"deflection/internal/ra"
)

// Dialer opens a fresh transport to a CCaaS host. Each retry attempt gets
// its own connection; the retry helpers close it when the attempt fails.
type Dialer func() (io.ReadWriteCloser, error)

// RetryConfig tunes the exponential backoff used by DialRetry and Retry.
// The zero value gives 4 attempts starting at 50ms, doubling to a 2s
// ceiling, with 50% jitter from a fixed seed (deterministic schedules).
type RetryConfig struct {
	// Attempts is the total number of attempts, including the first.
	Attempts int
	// BaseDelay is the backoff before the second attempt.
	BaseDelay time.Duration
	// MaxDelay caps the backoff growth.
	MaxDelay time.Duration
	// Jitter in (0,1] randomises each delay down by up to that fraction.
	Jitter float64
	// Seed makes the jitter reproducible (0 is treated as 1).
	Seed int64
	// Sleep replaces the backoff wait in tests. It is called synchronously
	// with the retry loop's context and must return promptly when the
	// context is cancelled — the loop aborts as soon as it returns with the
	// context dead.
	Sleep func(context.Context, time.Duration)
	// Metrics, if set, receives ccaas_client_* attempt/retry/backoff
	// counters. A nil registry is valid (throwaway metrics).
	Metrics *obs.Registry
}

type retrier struct {
	RetryConfig
	rng *rand.Rand
}

func (rc RetryConfig) norm() *retrier {
	if rc.Attempts <= 0 {
		rc.Attempts = 4
	}
	if rc.BaseDelay <= 0 {
		rc.BaseDelay = 50 * time.Millisecond
	}
	if rc.MaxDelay <= 0 {
		rc.MaxDelay = 2 * time.Second
	}
	if rc.Jitter <= 0 || rc.Jitter > 1 {
		rc.Jitter = 0.5
	}
	seed := rc.Seed
	if seed == 0 {
		seed = 1
	}
	return &retrier{RetryConfig: rc, rng: rand.New(rand.NewSource(seed))}
}

// delay computes the backoff after `failed` failed attempts (1-based).
// floor is the server-supplied retry_after hint: jittered exponential
// backoff still applies, but never schedules the retry before the gateway
// said capacity could exist again (retrying earlier is a guaranteed shed).
func (r *retrier) delay(failed int, floor time.Duration) time.Duration {
	d := r.BaseDelay
	for i := 1; i < failed && d < r.MaxDelay; i++ {
		d *= 2
	}
	if d > r.MaxDelay {
		d = r.MaxDelay
	}
	d = time.Duration(float64(d) * (1 - r.Jitter*r.rng.Float64()))
	if d < floor {
		d = floor
	}
	return d
}

// retryFloor extracts the gateway's retry_after hint from a failed
// attempt's error (0 when the error carries none).
func retryFloor(err error) time.Duration {
	var be *BusyError
	if errors.As(err, &be) {
		return be.RetryAfter
	}
	return 0
}

// backoff sleeps the computed delay, records retry/backoff metrics, and
// aborts early with the context error when ctx is cancelled mid-wait — a
// caller with a 100ms budget must not sit out a 2s backoff.
func (r *retrier) backoff(ctx context.Context, failed int, floor time.Duration) error {
	d := r.delay(failed, floor)
	r.Metrics.Counter("ccaas_client_retries_total").Inc()
	r.Metrics.Histogram("ccaas_client_backoff_seconds").ObserveDuration(d)
	if r.Sleep != nil {
		// A replaced clock (tests) gets the context so it can abort its own
		// wait; calling it synchronously means no goroutine outlives the
		// retry loop even if the clock ignores cancellation.
		r.Sleep(ctx, d)
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// classify records the outcome of one attempt.
func (r *retrier) classify(err error) {
	switch {
	case err == nil:
	case errors.Is(err, ErrServerBusy), errors.Is(err, ErrGatewayBusy):
		r.Metrics.Counter("ccaas_client_busy_total").Inc()
	case !IsTransient(err):
		r.Metrics.Counter("ccaas_client_permanent_failures_total").Inc()
	default:
		r.Metrics.Counter("ccaas_client_transient_failures_total").Inc()
	}
}

// IsTransient reports whether err looks like a transient transport failure
// worth retrying: connection errors and timeouts, truncated or corrupted
// frames, or a server-busy rejection. Attestation failures (unknown
// platform, bad quote, measurement mismatch, bad key confirmation) are
// permanent: retrying would only re-attest the same untrusted enclave.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	switch {
	case errors.Is(err, attest.ErrUnknownPlatform),
		errors.Is(err, attest.ErrBadQuote),
		errors.Is(err, attest.ErrMeasurementMismatch),
		errors.Is(err, ra.ErrBadConfirmation):
		return false
	case errors.Is(err, ErrServerBusy),
		errors.Is(err, ErrGatewayBusy),
		errors.Is(err, ra.ErrReplay),
		errors.Is(err, io.EOF),
		errors.Is(err, io.ErrUnexpectedEOF),
		errors.Is(err, io.ErrClosedPipe),
		errors.Is(err, net.ErrClosed):
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// ctxAbort wraps a cancellation that interrupted a retry loop, preserving
// the last attempt's failure for the caller's diagnostics.
func ctxAbort(what string, ctxErr, lastErr error) error {
	if lastErr == nil {
		return fmt.Errorf("ccaas: %s aborted: %w", what, ctxErr)
	}
	return fmt.Errorf("ccaas: %s aborted (%w); last attempt: %v", what, ctxErr, lastErr)
}

// DialRetry dials and attests with exponential backoff + jitter. Transient
// failures re-dial a fresh transport; permanent failures abort immediately.
func DialRetry(dial Dialer, as *attest.Service, expected [32]byte, role ra.Role, rc RetryConfig) (*Client, error) {
	return DialRetryContext(context.Background(), dial, as, expected, role, rc)
}

// DialRetryContext is DialRetry under a context: cancellation aborts the
// loop immediately, including mid-backoff — not only at attempt boundaries.
func DialRetryContext(ctx context.Context, dial Dialer, as *attest.Service, expected [32]byte, role ra.Role, rc RetryConfig) (*Client, error) {
	r := rc.norm()
	var lastErr error
	for attempt := 1; attempt <= r.Attempts; attempt++ {
		if attempt > 1 {
			if err := r.backoff(ctx, attempt-1, retryFloor(lastErr)); err != nil {
				return nil, ctxAbort("dial", err, lastErr)
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, ctxAbort("dial", err, lastErr)
		}
		r.Metrics.Counter("ccaas_client_attempts_total").Inc()
		conn, err := dial()
		if err == nil {
			var c *Client
			if c, err = Dial(conn, as, expected, role); err == nil {
				return c, nil
			}
			_ = conn.Close()
		}
		r.classify(err)
		if !IsTransient(err) {
			return nil, err
		}
		lastErr = err
	}
	return nil, fmt.Errorf("ccaas: dial failed after %d attempts: %w", r.Attempts, lastErr)
}

// Retry runs one full session — dial, handshake, then fn (typically the
// SendBinary→SendData→Run sequence) — and re-runs it from scratch on a
// transient failure. This is safe to repeat because a session mutates
// nothing outside its own enclave, and every attempt gets a fresh enclave.
func Retry(dial Dialer, as *attest.Service, expected [32]byte, role ra.Role, rc RetryConfig, fn func(*Client) error) error {
	return RetryContext(context.Background(), dial, as, expected, role, rc, fn)
}

// RetryContext is Retry under a context: cancellation aborts the loop
// immediately, including mid-backoff. A session attempt already in flight
// is not interrupted (the transport owns its own timeouts); the context
// governs the retry schedule.
func RetryContext(ctx context.Context, dial Dialer, as *attest.Service, expected [32]byte, role ra.Role, rc RetryConfig, fn func(*Client) error) error {
	r := rc.norm()
	var lastErr error
	for attempt := 1; attempt <= r.Attempts; attempt++ {
		if attempt > 1 {
			if err := r.backoff(ctx, attempt-1, retryFloor(lastErr)); err != nil {
				return ctxAbort("session", err, lastErr)
			}
		}
		if err := ctx.Err(); err != nil {
			return ctxAbort("session", err, lastErr)
		}
		r.Metrics.Counter("ccaas_client_attempts_total").Inc()
		err := func() error {
			conn, err := dial()
			if err != nil {
				return err
			}
			defer conn.Close()
			c, err := Dial(conn, as, expected, role)
			if err != nil {
				return err
			}
			if err := fn(c); err != nil {
				return err
			}
			return c.Close()
		}()
		r.classify(err)
		if err == nil {
			return nil
		}
		if !IsTransient(err) {
			return err
		}
		lastErr = err
	}
	return fmt.Errorf("ccaas: session failed after %d attempts: %w", r.Attempts, lastErr)
}
