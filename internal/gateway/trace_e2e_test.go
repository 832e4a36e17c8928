package gateway_test

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"deflection/internal/ccaas"
	"deflection/internal/gateway"
	"deflection/internal/obs"
	"deflection/internal/ra"
)

// TestTraceCorrelationEndToEnd is the tracing acceptance case: a client
// mints one trace ID and carries it through a real gateway (cleartext
// routing preamble) and into a real backend (sealed ccaas message). Both
// processes must then expose spans for that one ID on their /traces
// endpoints — the gateway's routing/splice spans and the backend's session
// phases plus the verifier's stage trace — so an operator can follow a
// single session across the fleet.
func TestTraceCorrelationEndToEnd(t *testing.T) {
	f := newFleet(t, 2)

	gwReg := obs.NewRegistry()
	gwSpans := obs.NewCollector(obs.CollectorConfig{Role: "gateway", Proc: "gw-e2e"})
	g, err := gateway.New(gateway.Config{
		Backends:     f.addrs(),
		Metrics:      gwReg,
		Spans:        gwSpans,
		HelloTimeout: 5 * time.Second,
		DialTimeout:  time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- g.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = g.Shutdown(ctx)
		<-served
	}()

	obj := fleetBinary(t)
	digest := sha256.Sum256(obj)
	tid := obs.NewTraceID()
	dial := func() (io.ReadWriteCloser, error) {
		conn, err := net.DialTimeout("tcp", ln.Addr().String(), 2*time.Second)
		if err != nil {
			return nil, err
		}
		if err := gateway.WritePreambleTraced(conn, digest[:], tid); err != nil {
			conn.Close()
			return nil, err
		}
		return conn, nil
	}
	err = ccaas.Retry(dial, f.as, f.meas, ra.RoleCodeProvider, ccaas.RetryConfig{},
		func(c *ccaas.Client) error {
			if err := c.SendTrace(tid); err != nil {
				return err
			}
			return fleetSession(t, obj, []byte{1, 2, 3}, 6)(c)
		})
	if err != nil {
		t.Fatalf("traced session: %v", err)
	}

	// Session spans flush when each side finishes tearing the session down,
	// which races the client's return: poll both collectors briefly.
	spanNames := func(spans []obs.SpanRecord) map[string]bool {
		names := make(map[string]bool, len(spans))
		for _, s := range spans {
			names[s.Name] = true
		}
		return names
	}
	var gwNames, beNames map[string]bool
	deadline := time.Now().Add(5 * time.Second)
	for {
		gwNames = spanNames(gwSpans.Snapshot(tid))
		beNames = map[string]bool{}
		for _, b := range f.backends {
			for n := range spanNames(b.spans.Snapshot(tid)) {
				beNames[n] = true
			}
		}
		if gwNames["gateway/session"] && beNames["session"] {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("spans never flushed: gateway=%v backends=%v", gwNames, beNames)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, want := range []string{"gateway/dial", "gateway/route", "gateway/splice", "gateway/session"} {
		if !gwNames[want] {
			t.Errorf("gateway span %s missing for trace %s (have %v)", want, tid, gwNames)
		}
	}
	for _, want := range []string{
		"session", "session/attest", "session/load", "session/run",
		"vplane/verify", "receive_binary/parse", "receive_binary/disasm",
	} {
		if !beNames[want] {
			t.Errorf("backend span %s missing for trace %s (have %v)", want, tid, beNames)
		}
	}

	// The same correlation through the HTTP surface: both /traces endpoints
	// answer a ?trace= filter for the one ID with non-empty span sets. The
	// backend is whichever fleet member actually hosted the session.
	var hosting *fleetBackend
	for _, b := range f.backends {
		if len(b.spans.Snapshot(tid)) > 0 {
			hosting = b
		}
	}
	if hosting == nil {
		t.Fatal("no backend recorded spans for the trace")
	}
	for _, tc := range []struct {
		role string
		col  *obs.Collector
	}{
		{"gateway", gwSpans},
		{"backend", hosting.spans},
	} {
		srv := httptest.NewServer(tc.col.Handler())
		resp, err := http.Get(srv.URL + "/traces?trace=" + tid.String())
		if err != nil {
			srv.Close()
			t.Fatal(err)
		}
		if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
			t.Errorf("%s /traces Cache-Control = %q, want no-store", tc.role, cc)
		}
		var doc struct {
			Role  string `json:"role"`
			Spans []struct {
				Trace string `json:"trace"`
				Name  string `json:"name"`
			} `json:"spans"`
		}
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		srv.Close()
		if err != nil {
			t.Fatalf("%s /traces is not JSON: %v", tc.role, err)
		}
		if doc.Role != tc.role {
			t.Errorf("/traces role = %q, want %q", doc.Role, tc.role)
		}
		if len(doc.Spans) == 0 {
			t.Errorf("%s /traces?trace=%s returned no spans", tc.role, tid)
		}
		for _, s := range doc.Spans {
			if s.Trace != tid.String() {
				t.Errorf("%s /traces filter leaked foreign trace %s (span %s)", tc.role, s.Trace, s.Name)
			}
		}
	}

	// A bogus filter is a client error, not an empty document.
	srv := httptest.NewServer(gwSpans.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/traces?trace=not-hex")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad trace filter answered %d, want 400", resp.StatusCode)
	}
}
