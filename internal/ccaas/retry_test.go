package ccaas_test

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"deflection/attest"
	"deflection/internal/ccaas"
	"deflection/internal/faultnet"
	"deflection/internal/policy"
	"deflection/internal/ra"
)

// pipeDialer returns a Dialer that spawns a fresh srv.Handle per dial,
// optionally wrapping the client side per attempt.
func pipeDialer(t *testing.T, srv *ccaas.Server, wrap func(attempt int, c net.Conn) io.ReadWriteCloser) (ccaas.Dialer, *int) {
	t.Helper()
	attempts := new(int)
	var mu sync.Mutex
	return func() (io.ReadWriteCloser, error) {
		mu.Lock()
		*attempts++
		n := *attempts
		mu.Unlock()
		serverConn, clientConn := net.Pipe()
		go func() {
			defer serverConn.Close()
			_ = srv.Handle(serverConn)
		}()
		t.Cleanup(func() { clientConn.Close() })
		if wrap != nil {
			return wrap(n, clientConn), nil
		}
		return clientConn, nil
	}, attempts
}

// noSleep records backoff delays instead of sleeping.
func noSleep(delays *[]time.Duration) func(context.Context, time.Duration) {
	var mu sync.Mutex
	return func(_ context.Context, d time.Duration) {
		mu.Lock()
		*delays = append(*delays, d)
		mu.Unlock()
	}
}

func TestDialRetryRecoversFromTransientFailures(t *testing.T) {
	srv, as, meas := newServerCfg(t, policy.SetP1, nil)
	var delays []time.Duration
	dialerOK, _ := pipeDialer(t, srv, nil)
	calls := 0
	dial := func() (io.ReadWriteCloser, error) {
		calls++
		if calls <= 2 {
			return nil, &net.OpError{Op: "dial", Err: errors.New("connection refused")}
		}
		return dialerOK()
	}
	client, err := ccaas.DialRetry(dial, as, meas, ra.RoleDataOwner,
		ccaas.RetryConfig{Seed: 42, Sleep: noSleep(&delays)})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Fatalf("dial calls = %d, want 3", calls)
	}
	if len(delays) != 2 {
		t.Fatalf("backoff sleeps = %d, want 2", len(delays))
	}
	if err := runFullSession(t, client); err != nil {
		t.Fatal(err)
	}
}

func TestDialRetryGivesUpAfterAttempts(t *testing.T) {
	_, as, _ := newServerCfg(t, policy.SetP1, nil)
	var delays []time.Duration
	dial := func() (io.ReadWriteCloser, error) {
		return nil, &net.OpError{Op: "dial", Err: errors.New("connection refused")}
	}
	_, err := ccaas.DialRetry(dial, as, [32]byte{}, ra.RoleDataOwner,
		ccaas.RetryConfig{Attempts: 3, Seed: 7, Sleep: noSleep(&delays)})
	if err == nil || len(delays) != 2 {
		t.Fatalf("err = %v, sleeps = %d", err, len(delays))
	}
	var ne net.Error
	if !errors.As(err, &ne) {
		t.Fatalf("final error does not wrap the dial failure: %v", err)
	}
}

func TestDialRetryStopsOnPermanentError(t *testing.T) {
	srv, as, _ := newServerCfg(t, policy.SetP1, nil)
	dial, attempts := pipeDialer(t, srv, nil)
	var wrong [32]byte
	copy(wrong[:], "some-other-bootstrap-build")
	_, err := ccaas.DialRetry(dial, as, wrong, ra.RoleDataOwner,
		ccaas.RetryConfig{Sleep: func(context.Context, time.Duration) { t.Fatal("slept on a permanent error") }})
	if !errors.Is(err, attest.ErrMeasurementMismatch) {
		t.Fatalf("err = %v, want measurement mismatch", err)
	}
	if *attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (no retry of attestation failures)", *attempts)
	}
}

func TestRetryRerunsFullSession(t *testing.T) {
	srv, as, meas := newServerCfg(t, policy.SetP1, nil)
	// First attempt dies mid-binary-upload; second runs clean.
	dial, attempts := pipeDialer(t, srv, func(attempt int, c net.Conn) io.ReadWriteCloser {
		if attempt == 1 {
			return faultnet.Wrap(c, faultnet.Config{DropAfterBytes: midBinaryOffset(t)})
		}
		return c
	})
	var delays []time.Duration
	err := ccaas.Retry(dial, as, meas, ra.RoleCodeProvider,
		ccaas.RetryConfig{Seed: 1, Sleep: noSleep(&delays)},
		func(c *ccaas.Client) error { return runSessionBody(t, c) })
	if err != nil {
		t.Fatal(err)
	}
	if *attempts != 2 {
		t.Fatalf("attempts = %d, want 2", *attempts)
	}
}

func TestBackoffScheduleDeterministicAndBounded(t *testing.T) {
	run := func(seed int64) []time.Duration {
		var delays []time.Duration
		dial := func() (io.ReadWriteCloser, error) {
			return nil, &net.OpError{Op: "dial", Err: errors.New("down")}
		}
		_, err := ccaas.DialRetry(dial, attest.NewService(), [32]byte{}, ra.RoleDataOwner,
			ccaas.RetryConfig{
				Attempts:  6,
				BaseDelay: 10 * time.Millisecond,
				MaxDelay:  80 * time.Millisecond,
				Seed:      seed,
				Sleep:     noSleep(&delays),
			})
		if err == nil {
			t.Fatal("expected exhaustion error")
		}
		return delays
	}
	a, b := run(99), run(99)
	if len(a) != 5 {
		t.Fatalf("sleeps = %d, want 5", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different schedule at %d: %v vs %v", i, a[i], b[i])
		}
		if a[i] <= 0 || a[i] > 80*time.Millisecond {
			t.Fatalf("delay %d = %v outside (0, MaxDelay]", i, a[i])
		}
	}
	// Exponential growth dominates the jitter floor: the last delay must
	// draw from a strictly larger envelope than the first.
	if a[4] <= a[0]/2 && a[4] < 20*time.Millisecond {
		t.Fatalf("no backoff growth: first %v, last %v", a[0], a[4])
	}
}

func TestIsTransient(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"eof", io.EOF, true},
		{"unexpected-eof", io.ErrUnexpectedEOF, true},
		{"closed-pipe", io.ErrClosedPipe, true},
		{"net-closed", net.ErrClosed, true},
		{"net-op", &net.OpError{Op: "read", Err: errors.New("reset")}, true},
		{"server-busy", ccaas.ErrServerBusy, true},
		{"replay", ra.ErrReplay, true},
		{"faultnet-stall", faultnet.ErrStalled, true},
		{"measurement", attest.ErrMeasurementMismatch, false},
		{"bad-quote", attest.ErrBadQuote, false},
		{"bad-confirmation", ra.ErrBadConfirmation, false},
		{"unknown-platform", attest.ErrUnknownPlatform, false},
		{"app-error", errors.New("binary rejected"), false},
	}
	for _, tc := range cases {
		if got := ccaas.IsTransient(tc.err); got != tc.want {
			t.Errorf("%s: IsTransient = %v, want %v", tc.name, got, tc.want)
		}
	}
}
