package ccaas_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	goruntime "runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"deflection/attest"
	"deflection/internal/ccaas"
	"deflection/internal/faultnet"
	"deflection/internal/policy"
	"deflection/internal/ra"
)

// holdSession opens a session and keeps it alive until the returned stop
// function is called (which closes it with a proper Bye).
func holdSession(t *testing.T, srv *ccaas.Server, as *attest.Service, meas [32]byte) (stop func()) {
	t.Helper()
	serverConn, clientConn := net.Pipe()
	done := make(chan error, 1)
	go func() {
		defer serverConn.Close()
		done <- srv.Handle(serverConn)
	}()
	client, err := ccaas.Dial(clientConn, as, meas, ra.RoleDataOwner)
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	stop = func() {
		once.Do(func() {
			_ = client.Close()
			<-done
			clientConn.Close()
		})
	}
	t.Cleanup(stop)
	return stop
}

func TestShutdownDrainsInFlightSessions(t *testing.T) {
	srv, as, meas := newServerCfg(t, policy.SetP1, nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	client, err := ccaas.Dial(conn, as, meas, ra.RoleCodeProvider)
	if err != nil {
		t.Fatal(err)
	}

	shutdownErr := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go func() { shutdownErr <- srv.Shutdown(ctx) }()

	// Shutdown must wait for the in-flight session...
	select {
	case err := <-shutdownErr:
		t.Fatalf("Shutdown returned %v with a session still active", err)
	case <-time.After(100 * time.Millisecond):
	}
	// ...which keeps full service during the drain.
	if _, _, err := client.SendBinary(chaosBinary(t)); err != nil {
		t.Fatalf("in-flight session broken during drain: %v", err)
	}
	rr, err := client.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rr.Exit != 0 {
		t.Fatalf("exit = %d", rr.Exit)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}

	if err := waitErr(t, shutdownErr, "Shutdown"); err != nil {
		t.Fatalf("drained shutdown returned %v", err)
	}
	if err := waitErr(t, serveErr, "Serve"); err != nil {
		t.Fatalf("Serve returned %v after shutdown", err)
	}
	// The listener is gone and the server refuses further Serve calls.
	if _, err := net.DialTimeout("tcp", l.Addr().String(), time.Second); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
	if err := srv.Serve(l); !errors.Is(err, ccaas.ErrServerClosed) {
		t.Fatalf("Serve after shutdown = %v, want ErrServerClosed", err)
	}
}

func TestShutdownForceClosesOnDeadline(t *testing.T) {
	srv, as, meas := newServerCfg(t, policy.SetP1, nil)
	serverConn, clientConn := net.Pipe()
	defer clientConn.Close()
	done := make(chan error, 1)
	go func() {
		defer serverConn.Close()
		done <- srv.Handle(serverConn)
	}()
	if _, err := ccaas.Dial(clientConn, as, meas, ra.RoleDataOwner); err != nil {
		t.Fatal(err)
	}
	// The client goes silent: only the force-close deadline reclaims it.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
	}
	if err := waitErr(t, done, "forced session"); err == nil {
		t.Fatal("force-closed session returned nil error")
	}
	if srv.ActiveSessions() != 0 {
		t.Fatalf("%d sessions still registered", srv.ActiveSessions())
	}
}

func TestMaxSessionsRejectsOverAttestedChannel(t *testing.T) {
	srv, as, meas := newServerCfg(t, policy.SetP1, func(c *ccaas.ServerConfig) {
		c.MaxSessions = 1
	})
	stop := holdSession(t, srv, as, meas)

	// Second session: the handshake still completes (the rejection is
	// authenticated), then the first request reports busy.
	serverConn, clientConn := net.Pipe()
	t.Cleanup(func() { clientConn.Close() })
	done := make(chan error, 1)
	go func() {
		defer serverConn.Close()
		done <- srv.Handle(serverConn)
	}()
	client, err := ccaas.Dial(clientConn, as, meas, ra.RoleCodeProvider)
	if err != nil {
		t.Fatalf("handshake refused instead of authenticated rejection: %v", err)
	}
	_, _, err = client.SendBinary(chaosBinary(t))
	if !errors.Is(err, ccaas.ErrServerBusy) {
		t.Fatalf("SendBinary = %v, want ErrServerBusy", err)
	}
	if !strings.Contains(err.Error(), "session limit") {
		t.Fatalf("busy error lacks reason: %v", err)
	}
	if err := waitErr(t, done, "rejected session"); !errors.Is(err, ccaas.ErrServerBusy) {
		t.Fatalf("server session = %v, want ErrServerBusy", err)
	}

	// Once the first session ends, the slot frees up.
	stop()
	if err := healthySession(t, srv, as, meas); err != nil {
		t.Fatalf("session after slot freed: %v", err)
	}
}

func TestDrainingRejectsNewSessions(t *testing.T) {
	srv, as, meas := newServerCfg(t, policy.SetP1, nil)
	stop := holdSession(t, srv, as, meas)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- srv.Shutdown(ctx) }()
	// Wait until the drain is underway.
	deadline := time.Now().Add(2 * time.Second)
	for !srv.Draining() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	serverConn, clientConn := net.Pipe()
	t.Cleanup(func() { clientConn.Close() })
	done := make(chan error, 1)
	go func() {
		defer serverConn.Close()
		done <- srv.Handle(serverConn)
	}()
	client, err := ccaas.Dial(clientConn, as, meas, ra.RoleDataOwner)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.SendData([]byte{1}); !errors.Is(err, ccaas.ErrServerBusy) {
		t.Fatalf("SendData during drain = %v, want ErrServerBusy", err)
	}
	if err := waitErr(t, done, "rejected session"); !strings.Contains(fmt.Sprint(err), "shutting down") {
		t.Fatalf("server session = %v, want shutting-down rejection", err)
	}

	stop()
	if err := waitErr(t, shutdownErr, "Shutdown"); err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
}

// flakyListener fails its first Accept calls with a temporary error, then
// hands out queued connections.
type flakyListener struct {
	mu       sync.Mutex
	fails    int
	failWith error
	conns    chan net.Conn
	closed   chan struct{}
	once     sync.Once
}

type tempErr struct{}

func (tempErr) Error() string   { return "simulated temporary accept failure" }
func (tempErr) Timeout() bool   { return false }
func (tempErr) Temporary() bool { return true }

func newFlakyListener(fails int, failWith error) *flakyListener {
	return &flakyListener{fails: fails, failWith: failWith, conns: make(chan net.Conn, 4), closed: make(chan struct{})}
}

func (l *flakyListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	if l.fails > 0 {
		l.fails--
		err := l.failWith
		l.mu.Unlock()
		return nil, err
	}
	l.mu.Unlock()
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *flakyListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *flakyListener) Addr() net.Addr { return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)} }

func TestServeRetriesTemporaryAcceptErrors(t *testing.T) {
	srv, as, meas := newServerCfg(t, policy.SetP1, nil)
	l := newFlakyListener(3, tempErr{})
	defer l.Close()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()

	serverConn, clientConn := net.Pipe()
	defer clientConn.Close()
	l.conns <- serverConn
	client, err := ccaas.Dial(clientConn, as, meas, ra.RoleDataOwner)
	if err != nil {
		t.Fatalf("session after temporary accept failures: %v", err)
	}
	if err := runFullSession(t, client); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if err := waitErr(t, serveErr, "Serve"); err != nil {
		t.Fatalf("Serve = %v", err)
	}
}

func TestServeStopsOnPermanentAcceptError(t *testing.T) {
	srv, _, _ := newServerCfg(t, policy.SetP1, nil)
	l := newFlakyListener(1, errors.New("socket melted"))
	defer l.Close()
	err := srv.Serve(l)
	if err == nil || !strings.Contains(err.Error(), "socket melted") {
		t.Fatalf("Serve = %v, want the permanent accept error", err)
	}
}

// TestNoGoroutineLeaks runs healthy, faulted, trapped and rejected sessions
// and asserts every session goroutine (and drain helper) exits.
func TestNoGoroutineLeaks(t *testing.T) {
	before := goruntime.NumGoroutine()

	srv, as, meas := newServerCfg(t, policy.SetP1, func(c *ccaas.ServerConfig) {
		c.MaxSessions = 4
		c.IOTimeout = 200 * time.Millisecond
	})
	// Healthy sessions.
	for i := 0; i < 3; i++ {
		if err := healthySession(t, srv, as, meas); err != nil {
			t.Fatal(err)
		}
	}
	// A session killed mid-frame.
	func() {
		serverConn, clientConn := net.Pipe()
		fc := faultnet.Wrap(clientConn, faultnet.Config{DropAfterBytes: midBinaryOffset(t)})
		defer fc.Close()
		done := make(chan error, 1)
		go func() {
			defer serverConn.Close()
			done <- srv.Handle(serverConn)
		}()
		client, err := ccaas.Dial(fc, as, meas, ra.RoleCodeProvider)
		if err == nil {
			_, _, err = client.SendBinary(chaosBinary(t))
		}
		if err == nil {
			t.Fatal("dropped session completed")
		}
		waitErr(t, done, "dropped session")
	}()
	// A stalled session reclaimed by the I/O deadline.
	func() {
		serverConn, clientConn := net.Pipe()
		fc := faultnet.Wrap(clientConn, faultnet.Config{StallAfterBytes: 1500})
		done := make(chan error, 1)
		go func() {
			defer serverConn.Close()
			done <- srv.Handle(serverConn)
		}()
		go func() {
			client, err := ccaas.Dial(fc, as, meas, ra.RoleCodeProvider)
			if err == nil {
				_, _, _ = client.SendBinary(chaosBinary(t))
			}
		}()
		waitErr(t, done, "stalled session")
		fc.Close()
	}()
	// Busy-rejected sessions (exercises the drain goroutine).
	stops := make([]func(), 0, 4)
	for i := 0; i < 4; i++ {
		stops = append(stops, holdSession(t, srv, as, meas))
	}
	func() {
		serverConn, clientConn := net.Pipe()
		defer clientConn.Close()
		done := make(chan error, 1)
		go func() {
			defer serverConn.Close()
			done <- srv.Handle(serverConn)
		}()
		client, err := ccaas.Dial(clientConn, as, meas, ra.RoleDataOwner)
		if err != nil {
			t.Fatal(err)
		}
		if err := client.SendData([]byte{1}); !errors.Is(err, ccaas.ErrServerBusy) {
			t.Fatalf("over-cap session = %v", err)
		}
		waitErr(t, done, "rejected session")
	}()
	for _, stop := range stops {
		stop()
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		if goruntime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	var buf strings.Builder
	_ = pprof.Lookup("goroutine").WriteTo(&struncWriter{&buf}, 1)
	t.Fatalf("goroutines leaked: %d before, %d after\n%s",
		before, goruntime.NumGoroutine(), buf.String())
}

// struncWriter truncates the goroutine dump to keep failures readable.
type struncWriter struct{ b *strings.Builder }

func (w *struncWriter) Write(p []byte) (int, error) {
	if w.b.Len() < 8192 {
		w.b.Write(p)
	}
	return len(p), nil
}
