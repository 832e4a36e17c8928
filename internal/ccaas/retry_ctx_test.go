package ccaas

import (
	"context"
	"errors"
	"fmt"
	"io"
	goruntime "runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"deflection/attest"
	"deflection/internal/ra"
)

// failDialer always fails transiently and counts its invocations.
func failDialer(calls *atomic.Int64) Dialer {
	return func() (io.ReadWriteCloser, error) {
		calls.Add(1)
		return nil, io.ErrUnexpectedEOF
	}
}

func TestDialRetryContextCancelMidBackoff(t *testing.T) {
	var calls atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := DialRetryContext(ctx, failDialer(&calls), attest.NewService(), [32]byte{}, ra.RoleDataOwner, RetryConfig{
		Attempts:  3,
		BaseDelay: time.Hour, // without cancellation this test would hang
		MaxDelay:  time.Hour,
	})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v — backoff was not interrupted", elapsed)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in chain", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("dialer called %d times, want 1 (cancelled during first backoff)", calls.Load())
	}
	// The last attempt's failure is preserved for diagnostics.
	if want := io.ErrUnexpectedEOF.Error(); err != nil && !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not mention last attempt failure %q", err, want)
	}
}

func TestDialRetryContextPreCancelled(t *testing.T) {
	var calls atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := DialRetryContext(ctx, failDialer(&calls), attest.NewService(), [32]byte{}, ra.RoleDataOwner, RetryConfig{Attempts: 3})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls.Load() != 0 {
		t.Fatalf("dialer called %d times on a dead context", calls.Load())
	}
}

func TestRetryContextCancelMidBackoff(t *testing.T) {
	var calls atomic.Int64
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := RetryContext(ctx, failDialer(&calls), attest.NewService(), [32]byte{}, ra.RoleDataOwner, RetryConfig{
		Attempts:  4,
		BaseDelay: time.Hour,
		MaxDelay:  time.Hour,
	}, func(c *Client) error { return nil })
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v — backoff was not interrupted", elapsed)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded in chain", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("dialer called %d times, want 1", calls.Load())
	}
}

func TestRetryContextBackgroundUnchanged(t *testing.T) {
	// The non-context entry points still exhaust all attempts.
	var calls atomic.Int64
	err := Retry(failDialer(&calls), attest.NewService(), [32]byte{}, ra.RoleDataOwner, RetryConfig{
		Attempts:  3,
		BaseDelay: time.Microsecond,
		MaxDelay:  time.Microsecond,
	}, func(c *Client) error { return nil })
	if err == nil {
		t.Fatal("expected failure")
	}
	if calls.Load() != 3 {
		t.Fatalf("dialer called %d times, want 3", calls.Load())
	}
}

func TestGatewayBusyIsTransient(t *testing.T) {
	if !IsTransient(ErrGatewayBusy) {
		t.Fatal("bare ErrGatewayBusy not transient")
	}
	wrapped := fmt.Errorf("%w: pool exhausted", ErrGatewayBusy)
	if !IsTransient(wrapped) {
		t.Fatal("wrapped ErrGatewayBusy not transient")
	}
}

func TestDialRetryContextCustomSleepStillCancellable(t *testing.T) {
	// A replaced Sleep (deterministic tests) receives the loop's context; a
	// clock that honours it aborts the retry schedule mid-backoff, and the
	// loop calls it synchronously, so no goroutine outlives the loop.
	var calls atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	before := goruntime.NumGoroutine()
	cfg := RetryConfig{
		Attempts:  3,
		BaseDelay: 10 * time.Millisecond,
		Sleep: func(ctx context.Context, _ time.Duration) {
			cancel()
			<-ctx.Done() // a cancellation-aware clock wakes up immediately
		},
	}
	done := make(chan error, 1)
	go func() {
		_, err := DialRetryContext(ctx, failDialer(&calls), attest.NewService(), [32]byte{}, ra.RoleDataOwner, cfg)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("custom Sleep blocked cancellation")
	}
	if calls.Load() != 1 {
		t.Fatalf("dialer called %d times, want 1 (cancelled during first backoff)", calls.Load())
	}
	// No helper goroutine may be left behind running the replaced clock.
	deadline := time.Now().Add(2 * time.Second)
	for goruntime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d > %d before the retry: backoff leaked one", goruntime.NumGoroutine(), before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
