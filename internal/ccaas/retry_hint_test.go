package ccaas

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"deflection/attest"
	"deflection/internal/ra"
)

// busyConn replays a canned gateway busy frame as the first (and only)
// thing a dialed transport yields.
type busyConn struct {
	frame []byte
	off   int
}

func newBusyConn(t *testing.T, gs GatewayStatus) *busyConn {
	t.Helper()
	payload, err := json.Marshal(gs)
	if err != nil {
		t.Fatal(err)
	}
	var framed []byte
	w := writerFunc(func(p []byte) (int, error) {
		framed = append(framed, p...)
		return len(p), nil
	})
	if err := ra.WriteFrame(w, payload); err != nil {
		t.Fatal(err)
	}
	return &busyConn{frame: framed}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func (c *busyConn) Read(p []byte) (int, error) {
	if c.off >= len(c.frame) {
		return 0, io.EOF
	}
	n := copy(p, c.frame[c.off:])
	c.off += n
	return n, nil
}
func (c *busyConn) Write(p []byte) (int, error) { return len(p), nil }
func (c *busyConn) Close() error                { return nil }

// TestDialSurfacesRetryAfterHint: a busy reply carrying retry_after_ms
// becomes a BusyError with the parsed hint, still matching ErrGatewayBusy.
func TestDialSurfacesRetryAfterHint(t *testing.T) {
	conn := newBusyConn(t, GatewayStatus{GatewayBusy: true, Error: "shed", RetryAfterMS: 250})
	_, err := Dial(conn, attest.NewService(), [32]byte{}, ra.RoleCodeProvider)
	var be *BusyError
	if !errors.As(err, &be) {
		t.Fatalf("Dial err = %v, want BusyError", err)
	}
	if be.RetryAfter != 250*time.Millisecond {
		t.Fatalf("RetryAfter = %v, want 250ms", be.RetryAfter)
	}
	if !errors.Is(err, ErrGatewayBusy) {
		t.Fatal("BusyError does not match ErrGatewayBusy")
	}
	if !IsTransient(err) {
		t.Fatal("busy reply with hint not classified transient")
	}
}

// TestDialClampsHostileRetryAfter: the hint rides an unauthenticated frame,
// so absurd values are clamped rather than honored.
func TestDialClampsHostileRetryAfter(t *testing.T) {
	for _, ms := range []int64{int64(24 * time.Hour / time.Millisecond), -5} {
		conn := newBusyConn(t, GatewayStatus{GatewayBusy: true, RetryAfterMS: ms})
		_, err := Dial(conn, attest.NewService(), [32]byte{}, ra.RoleCodeProvider)
		var be *BusyError
		if !errors.As(err, &be) {
			t.Fatalf("Dial err = %v", err)
		}
		if be.RetryAfter < 0 || be.RetryAfter > MaxRetryAfter {
			t.Fatalf("retry_after_ms=%d surfaced as %v, outside [0, %v]", ms, be.RetryAfter, MaxRetryAfter)
		}
	}
}

// TestRetryHonorsRetryAfterFloor: the backoff before the retry following a
// hinted busy reply must be at least the hint, even when the schedule's
// computed delay is smaller.
func TestRetryHonorsRetryAfterFloor(t *testing.T) {
	const hint = 400 * time.Millisecond
	var slept []time.Duration
	dials := 0
	dial := func() (io.ReadWriteCloser, error) {
		dials++
		return newBusyConn(t, GatewayStatus{
			GatewayBusy:  true,
			Error:        "at capacity",
			RetryAfterMS: hint.Milliseconds(),
		}), nil
	}
	rc := RetryConfig{
		Attempts:  3,
		BaseDelay: time.Millisecond, // far below the hint
		MaxDelay:  2 * time.Millisecond,
		Sleep:     func(_ context.Context, d time.Duration) { slept = append(slept, d) },
	}
	err := RetryContext(context.Background(), dial, attest.NewService(), [32]byte{},
		ra.RoleCodeProvider, rc, func(*Client) error { return nil })
	if !errors.Is(err, ErrGatewayBusy) {
		t.Fatalf("err = %v, want gateway busy after exhausted attempts", err)
	}
	if dials != 3 {
		t.Fatalf("dials = %d, want 3", dials)
	}
	if len(slept) != 2 {
		t.Fatalf("backoffs = %d, want 2", len(slept))
	}
	for i, d := range slept {
		if d < hint {
			t.Errorf("backoff %d = %v, below the %v retry_after floor", i, d, hint)
		}
	}
}

// TestDialRetryHonorsRetryAfterFloor covers the dial-level loop too.
func TestDialRetryHonorsRetryAfterFloor(t *testing.T) {
	const hint = 300 * time.Millisecond
	var slept []time.Duration
	dial := func() (io.ReadWriteCloser, error) {
		return newBusyConn(t, GatewayStatus{GatewayBusy: true, RetryAfterMS: hint.Milliseconds()}), nil
	}
	rc := RetryConfig{
		Attempts:  2,
		BaseDelay: time.Millisecond,
		MaxDelay:  2 * time.Millisecond,
		Sleep:     func(_ context.Context, d time.Duration) { slept = append(slept, d) },
	}
	_, err := DialRetryContext(context.Background(), dial, attest.NewService(), [32]byte{},
		ra.RoleCodeProvider, rc)
	if !errors.Is(err, ErrGatewayBusy) {
		t.Fatalf("err = %v", err)
	}
	if len(slept) != 1 || slept[0] < hint {
		t.Fatalf("backoffs = %v, want one wait >= %v", slept, hint)
	}
}

// TestRetryFloorAbsentKeepsScheduledBackoff: errors without a hint keep the
// configured (smaller) schedule — the floor must not inflate ordinary
// transport retries.
func TestRetryFloorAbsentKeepsScheduledBackoff(t *testing.T) {
	var slept []time.Duration
	dial := func() (io.ReadWriteCloser, error) {
		return nil, fmt.Errorf("connect: %w", io.EOF)
	}
	rc := RetryConfig{
		Attempts:  2,
		BaseDelay: 5 * time.Millisecond,
		MaxDelay:  5 * time.Millisecond,
		Sleep:     func(_ context.Context, d time.Duration) { slept = append(slept, d) },
	}
	_, err := DialRetryContext(context.Background(), dial, attest.NewService(), [32]byte{},
		ra.RoleCodeProvider, rc)
	if err == nil {
		t.Fatal("dial somehow succeeded")
	}
	if len(slept) != 1 || slept[0] > 5*time.Millisecond {
		t.Fatalf("backoffs = %v, want one wait <= 5ms", slept)
	}
}
