package ccaas_test

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"deflection"
	"deflection/attest"
	"deflection/internal/ccaas"
	"deflection/internal/obs"
	"deflection/internal/policy"
	"deflection/internal/ra"
	"deflection/internal/runtime"
	"deflection/internal/vplane"
)

// newPlaneServer builds a server whose binary deliveries go through a
// verification plane, sharing one metrics registry with it.
func newPlaneServer(t *testing.T, pols policy.Set, planeCfg vplane.Config) (*ccaas.Server, *attest.Service, [32]byte, *vplane.Plane, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	planeCfg.Metrics = reg
	plane := vplane.New(planeCfg)
	t.Cleanup(plane.Close)

	platform, err := attest.NewPlatform("ccaas-vplane-platform")
	if err != nil {
		t.Fatal(err)
	}
	as := attest.NewService()
	as.Register(platform)
	srv, err := ccaas.NewServer(ccaas.ServerConfig{
		Platform: platform,
		Policies: pols,
		Metrics:  reg,
		Verify:   plane,
	})
	if err != nil {
		t.Fatal(err)
	}
	meas, err := srv.Measurement()
	if err != nil {
		t.Fatal(err)
	}
	return srv, as, meas, plane, reg
}

// TestCCaaSPlaneCachedSession: the second session delivering the same binary
// is served from the verdict cache — one pipeline run total — and still
// executes the service correctly from its privately installed image.
func TestCCaaSPlaneCachedSession(t *testing.T) {
	srv, as, meas, _, reg := newPlaneServer(t, policy.SetP1P6,
		vplane.Config{CacheBytes: 1 << 20, Workers: 1, QueueDepth: 4})

	bin, err := deflection.Generate(serviceSrc, deflection.GeneratorOptions{Policies: deflection.PolicyP1P6})
	if err != nil {
		t.Fatal(err)
	}

	runSession := func(input []byte, wantExit int64) {
		t.Helper()
		client := session(t, srv, as, meas, ra.RoleCodeProvider)
		if _, _, err := client.SendBinary(bin.Bytes()); err != nil {
			t.Fatal(err)
		}
		if err := client.SendData(input); err != nil {
			t.Fatal(err)
		}
		rr, err := client.Run()
		if err != nil {
			t.Fatal(err)
		}
		if rr.Trapped || rr.Exit != wantExit {
			t.Fatalf("run reply = %+v, want exit %d", rr, wantExit)
		}
		msg, err := runtime.Unpad(rr.Outputs[0])
		if err != nil {
			t.Fatal(err)
		}
		if got := int64(binary.LittleEndian.Uint64(msg)); got != wantExit {
			t.Fatalf("output = %d, want %d", got, wantExit)
		}
		if err := client.Close(); err != nil {
			t.Fatal(err)
		}
	}

	runSession([]byte{5, 10, 15}, 30)
	if got := reg.Counter("vplane_cache_misses_total").Value(); got != 1 {
		t.Fatalf("misses after first session = %d, want 1", got)
	}

	// Different input through the same cached binary: per-session writable
	// state must be private, and the pipeline must not run again.
	runSession([]byte{1, 2, 3, 4}, 10)
	if got := reg.Counter("vplane_cache_hits_total").Value(); got != 1 {
		t.Errorf("hits after second session = %d, want 1", got)
	}
	if got := reg.Counter("vplane_verify_runs_total").Value(); got != 1 {
		t.Fatalf("pipeline ran %d times across two sessions, want 1", got)
	}
	snap := reg.Snapshot()
	if n := snap.Histograms["ccaas_load_cold_seconds"].Count; n != 1 {
		t.Errorf("cold load observations = %d, want 1", n)
	}
	if n := snap.Histograms["ccaas_load_cached_seconds"].Count; n != 1 {
		t.Errorf("cached load observations = %d, want 1", n)
	}
}

// TestCCaaSPlaneNegativeCache: a rejected binary is re-rejected from the
// verdict cache without a second pipeline run, for a different session.
func TestCCaaSPlaneNegativeCache(t *testing.T) {
	srv, as, meas, _, reg := newPlaneServer(t, policy.SetP1P5,
		vplane.Config{CacheBytes: 1 << 20, Workers: 1, QueueDepth: 4})

	bad, err := deflection.Generate(serviceSrc, deflection.GeneratorOptions{Policies: deflection.PolicyP1})
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 2; i++ {
		client := session(t, srv, as, meas, ra.RoleCodeProvider)
		if _, _, err := client.SendBinary(bad.Bytes()); err == nil {
			t.Fatalf("session %d: under-instrumented binary accepted", i)
		} else if !strings.Contains(err.Error(), "rejected") {
			t.Fatalf("session %d: unexpected error: %v", i, err)
		}
		if err := client.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Counter("vplane_verify_runs_total").Value(); got != 1 {
		t.Fatalf("rejected binary verified %d times, want 1", got)
	}
	if got := reg.Counter("vplane_cache_negative_hits_total").Value(); got != 1 {
		t.Errorf("negative hits = %d, want 1", got)
	}
	if got := reg.Counter("ccaas_binaries_rejected_total").Value(); got != 2 {
		t.Errorf("rejections seen by sessions = %d, want 2", got)
	}
}

// TestCCaaSPlaneShedsAsBusy: when the plane cannot take the job, the party
// receives an authenticated transient busy rejection and the session stays
// alive.
func TestCCaaSPlaneShedsAsBusy(t *testing.T) {
	srv, as, meas, plane, reg := newPlaneServer(t, policy.SetP1P6,
		vplane.Config{CacheBytes: 1 << 20, Workers: 1, QueueDepth: 1})
	plane.Close() // all submissions now shed with ErrClosed

	bin, err := deflection.Generate(serviceSrc, deflection.GeneratorOptions{Policies: deflection.PolicyP1P6})
	if err != nil {
		t.Fatal(err)
	}
	client := session(t, srv, as, meas, ra.RoleCodeProvider)
	if _, _, err := client.SendBinary(bin.Bytes()); !errors.Is(err, ccaas.ErrServerBusy) {
		t.Fatalf("SendBinary on shed plane: err = %v, want ErrServerBusy", err)
	}
	if got := reg.Counter("ccaas_verify_overloaded_total").Value(); got != 1 {
		t.Errorf("verify_overloaded = %d, want 1", got)
	}
	// The shed is per-request, not fatal: the session closes cleanly.
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
}
