package vplane_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"deflection/internal/asmtext"
	"deflection/internal/compiler"
	"deflection/internal/enclave"
	"deflection/internal/obs"
	"deflection/internal/policy"
	"deflection/internal/runtime"
	"deflection/internal/verifier"
	"deflection/internal/vplane"
)

func compileObj(t *testing.T, src string, pols policy.Set) []byte {
	t.Helper()
	o, err := compiler.Compile(src, compiler.Options{Policies: pols})
	if err != nil {
		t.Fatal(err)
	}
	return o.Marshal()
}

func manifestFor(pols policy.Set) runtime.Manifest {
	m := runtime.DefaultManifest()
	m.Policies = pols
	return m
}

func defaultLayout(t *testing.T) enclave.Layout {
	t.Helper()
	return enclave.DefaultConfig().Layout()
}

func waitCounter(t *testing.T, reg *obs.Registry, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for reg.Counter(name).Value() != want {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s to reach %d (have %d)",
				name, want, reg.Counter(name).Value())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSingleFlightDedup is the acceptance scenario: N simultaneous
// submissions of the same binary under the same manifest and layout perform
// exactly one pipeline run; the other N-1 join the in-flight verification.
func TestSingleFlightDedup(t *testing.T) {
	const N = 8
	reg := obs.NewRegistry()
	p := vplane.New(vplane.Config{CacheBytes: 1 << 20, Workers: 2, QueueDepth: 16, Metrics: reg})
	defer p.Close()

	hold := make(chan struct{})
	p.SetVerifyHook(func() { <-hold })

	obj := compileObj(t, "int main() { return 42; }", policy.SetP1)
	m := manifestFor(policy.SetP1)
	l := defaultLayout(t)

	verdicts := make([]*vplane.Verdict, N)
	sources := make([]vplane.Source, N)
	errs := make([]error, N)
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			verdicts[i], sources[i], errs[i] = p.Verify(context.Background(), obj, m, l)
		}(i)
	}

	// The hook is holding the single cold run open; wait until all other
	// submitters have attached to it, then let it finish.
	waitCounter(t, reg, "vplane_dedup_joins_total", N-1)
	close(hold)
	wg.Wait()

	var cold, joined int
	for i := 0; i < N; i++ {
		if errs[i] != nil {
			t.Fatalf("Verify[%d]: %v", i, errs[i])
		}
		if verdicts[i] == nil || verdicts[i] != verdicts[0] {
			t.Fatalf("Verify[%d] returned a different verdict object", i)
		}
		switch sources[i] {
		case vplane.SourceCold:
			cold++
		case vplane.SourceJoined:
			joined++
		default:
			t.Fatalf("Verify[%d] source = %v", i, sources[i])
		}
	}
	if cold != 1 || joined != N-1 {
		t.Fatalf("sources: %d cold + %d joined, want 1 + %d", cold, joined, N-1)
	}
	if verdicts[0].Image == nil || verdicts[0].Reject != nil {
		t.Fatalf("verdict not positive: %+v", verdicts[0])
	}
	if got := reg.Counter("vplane_verify_runs_total").Value(); got != 1 {
		t.Fatalf("pipeline ran %d times for %d submissions, want exactly 1", got, N)
	}
	if got := reg.Counter("vplane_cache_misses_total").Value(); got != 1 {
		t.Errorf("misses = %d, want 1", got)
	}

	// A later submission of the same key is a pure cache hit: no new run.
	v, src, err := p.Verify(context.Background(), obj, m, l)
	if err != nil || src != vplane.SourceCache || v != verdicts[0] {
		t.Fatalf("post-flight Verify: v=%p src=%v err=%v", v, src, err)
	}
	if got := reg.Counter("vplane_cache_hits_total").Value(); got != 1 {
		t.Errorf("hits = %d, want 1", got)
	}
	if got := reg.Counter("vplane_verify_runs_total").Value(); got != 1 {
		t.Errorf("cache hit reran the pipeline (runs = %d)", got)
	}
}

// TestLoadCacheHitSkipsPipeline drives the session-facing path end to end:
// the second session's load comes from the cache, skips the pipeline, and
// still executes identically.
func TestLoadCacheHitSkipsPipeline(t *testing.T) {
	reg := obs.NewRegistry()
	p := vplane.New(vplane.Config{CacheBytes: 1 << 20, Workers: 1, QueueDepth: 4, Metrics: reg})
	defer p.Close()

	pols := policy.SetP1P6
	obj := compileObj(t, "int main() { return 7; }", pols)
	m := manifestFor(pols)

	run := func() (*runtime.LoadReport, vplane.Source) {
		t.Helper()
		boot, err := runtime.New(enclave.DefaultConfig(), m)
		if err != nil {
			t.Fatal(err)
		}
		rep, src, err := p.Load(context.Background(), boot, obj)
		if err != nil {
			t.Fatalf("Load: %v", err)
		}
		res, err := boot.Run(runtime.RunConfig{})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if res.CPU.ExitValue != 7 {
			t.Fatalf("exit = %d, want 7", res.CPU.ExitValue)
		}
		return rep, src
	}

	rep1, src1 := run()
	if src1 != vplane.SourceCold {
		t.Fatalf("first load source = %v, want cold", src1)
	}
	rep2, src2 := run()
	if src2 != vplane.SourceCache {
		t.Fatalf("second load source = %v, want cache", src2)
	}
	if got := reg.Counter("vplane_verify_runs_total").Value(); got != 1 {
		t.Fatalf("pipeline ran %d times across two sessions, want 1", got)
	}
	if rep2.BinaryHash != rep1.BinaryHash {
		t.Error("cached load reports a different binary hash")
	}
	if rep2.Stats != rep1.Stats {
		t.Errorf("cached verdict evidence differs: %+v vs %+v", rep2.Stats, rep1.Stats)
	}
	if rep2.Trace == nil {
		t.Error("cached load has no install trace")
	}
}

// TestKeySensitivity: changing the enclave layout or the required policy set
// must force a fresh verification even for identical object bytes.
func TestKeySensitivity(t *testing.T) {
	reg := obs.NewRegistry()
	p := vplane.New(vplane.Config{CacheBytes: 1 << 20, Workers: 1, QueueDepth: 8, Metrics: reg})
	defer p.Close()

	obj := compileObj(t, "int main() { return 3; }", policy.SetP1P2)
	m := manifestFor(policy.SetP1P2)
	l := defaultLayout(t)

	runs := func() int64 { return reg.Counter("vplane_verify_runs_total").Value() }
	mustVerify := func(m runtime.Manifest, l enclave.Layout) vplane.Source {
		t.Helper()
		v, src, err := p.Verify(context.Background(), obj, m, l)
		if err != nil {
			t.Fatal(err)
		}
		if v.Reject != nil {
			t.Fatalf("unexpected rejection: %v", v.Reject)
		}
		return src
	}

	if src := mustVerify(m, l); src != vplane.SourceCold {
		t.Fatalf("first verify source = %v", src)
	}
	if src := mustVerify(m, l); src != vplane.SourceCache {
		t.Fatalf("repeat verify source = %v", src)
	}
	if runs() != 1 {
		t.Fatalf("runs = %d after repeat, want 1", runs())
	}

	// Same bytes, smaller required policy set (still covered by the
	// binary's claims) — different key, fresh verification.
	if src := mustVerify(manifestFor(policy.SetP1), l); src != vplane.SourceCold {
		t.Fatalf("policy-set change served from cache (source %v)", src)
	}
	if runs() != 2 {
		t.Fatalf("runs = %d after policy change, want 2", runs())
	}

	// Same bytes and manifest, different enclave geometry.
	cfg := enclave.DefaultConfig()
	cfg.HeapCap *= 2
	if src := mustVerify(m, cfg.Layout()); src != vplane.SourceCold {
		t.Fatalf("layout change served from cache (source %v)", src)
	}
	if runs() != 3 {
		t.Fatalf("runs = %d after layout change, want 3", runs())
	}

	// The keys themselves must all differ.
	k1 := vplane.ComputeKey(obj, m, l)
	k2 := vplane.ComputeKey(obj, manifestFor(policy.SetP1), l)
	k3 := vplane.ComputeKey(obj, m, cfg.Layout())
	if k1 == k2 || k1 == k3 || k2 == k3 {
		t.Fatalf("cache keys collide: %x %x %x", k1[:8], k2[:8], k3[:8])
	}
}

// unguardedStore claims P1 instrumentation but stores without the guard —
// the verifier rejects it with a structured, deterministic Violation.
const unguardedStore = `
.entry _start
.bss slot 8
.func _start
  mov rcx, =slot
  mov [rcx], rdx
  hlt
`

func TestNegativeVerdictCached(t *testing.T) {
	reg := obs.NewRegistry()
	p := vplane.New(vplane.Config{CacheBytes: 1 << 20, Workers: 1, QueueDepth: 4, Metrics: reg})
	defer p.Close()

	o, err := asmtext.Assemble(unguardedStore, uint16(policy.SetP1))
	if err != nil {
		t.Fatal(err)
	}
	obj := o.Marshal()
	m := manifestFor(policy.SetP1)
	l := defaultLayout(t)

	v1, src1, err := p.Verify(context.Background(), obj, m, l)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if src1 != vplane.SourceCold || v1.Reject == nil || v1.Image != nil {
		t.Fatalf("first verdict: src=%v verdict=%+v", src1, v1)
	}
	if !errors.Is(v1.Reject, verifier.ErrViolation) {
		t.Fatalf("rejection is not a verifier violation: %v", v1.Reject)
	}

	v2, src2, err := p.Verify(context.Background(), obj, m, l)
	if err != nil {
		t.Fatal(err)
	}
	if src2 != vplane.SourceCache || v2 != v1 {
		t.Fatalf("negative verdict not served from cache: src=%v", src2)
	}
	if got := reg.Counter("vplane_verify_runs_total").Value(); got != 1 {
		t.Fatalf("rejected binary re-verified (runs = %d)", got)
	}
	if got := reg.Counter("vplane_cache_negative_hits_total").Value(); got != 1 {
		t.Errorf("negative_hits = %d, want 1", got)
	}
	if got := reg.Counter("vplane_negative_verdicts_total").Value(); got != 1 {
		t.Errorf("negative_verdicts = %d, want 1", got)
	}

	// The session-facing Load surfaces the cached rejection as its error.
	boot, err := runtime.New(enclave.DefaultConfig(), m)
	if err != nil {
		t.Fatal(err)
	}
	rep, src, err := p.Load(context.Background(), boot, obj)
	if rep != nil || src != vplane.SourceCache || !errors.Is(err, verifier.ErrViolation) {
		t.Fatalf("Load of rejected binary: rep=%v src=%v err=%v", rep, src, err)
	}
}

// TestPolicyMismatchCached: an under-claiming binary is a deterministic
// rejection too, and must be negatively cached.
func TestPolicyMismatchCached(t *testing.T) {
	reg := obs.NewRegistry()
	p := vplane.New(vplane.Config{CacheBytes: 1 << 20, Workers: 1, QueueDepth: 4, Metrics: reg})
	defer p.Close()

	obj := compileObj(t, "int main() { return 1; }", policy.SetP1)
	m := manifestFor(policy.SetP1P2) // requires more than the binary claims
	l := defaultLayout(t)

	v1, _, err := p.Verify(context.Background(), obj, m, l)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(v1.Reject, runtime.ErrPolicyMismatch) {
		t.Fatalf("Reject = %v, want ErrPolicyMismatch", v1.Reject)
	}
	_, src2, err := p.Verify(context.Background(), obj, m, l)
	if err != nil {
		t.Fatal(err)
	}
	if src2 != vplane.SourceCache {
		t.Fatalf("mismatch verdict not cached (source %v)", src2)
	}
	if got := reg.Counter("vplane_verify_runs_total").Value(); got != 1 {
		t.Fatalf("runs = %d, want 1", got)
	}
}

// TestOverloadSheds: with one worker busy and the queue full, a third
// distinct submission is rejected immediately with ErrOverloaded.
func TestOverloadSheds(t *testing.T) {
	reg := obs.NewRegistry()
	p := vplane.New(vplane.Config{CacheBytes: 1 << 20, Workers: 1, QueueDepth: 1, Metrics: reg})
	defer p.Close()

	entered := make(chan struct{}, 3)
	hold := make(chan struct{})
	// Registered after p.Close, so it runs first: a failing check cannot
	// leave Close waiting on the worker held in the hook.
	release := sync.OnceFunc(func() { close(hold) })
	defer release()
	p.SetVerifyHook(func() { entered <- struct{}{}; <-hold })

	obj := compileObj(t, "int main() { return 5; }", policy.SetP1)
	l := defaultLayout(t)
	// Distinct manifests give the three submissions distinct cache keys.
	mfor := func(gap int) runtime.Manifest {
		m := manifestFor(policy.SetP1)
		m.AEXCheckMaxGap = gap
		return m
	}

	var wg sync.WaitGroup
	submit := func(gap int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := p.Verify(context.Background(), obj, mfor(gap), l); err != nil {
				t.Errorf("Verify(gap=%d): %v", gap, err)
			}
		}()
	}
	submit(10)
	<-entered // the first job occupies the only worker
	submit(20)
	deadline := time.Now().Add(10 * time.Second)
	for reg.Gauge("vplane_queue_depth").Value() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second job never queued")
		}
		time.Sleep(time.Millisecond)
	}

	v, _, err := p.Verify(context.Background(), obj, mfor(30), l)
	if v != nil || !errors.Is(err, vplane.ErrOverloaded) {
		t.Fatalf("overflow Verify: v=%v err=%v, want ErrOverloaded", v, err)
	}
	if got := reg.Counter("vplane_overload_rejections_total").Value(); got != 1 {
		t.Errorf("overload_rejections = %d, want 1", got)
	}

	release()
	wg.Wait()
	if got := reg.Counter("vplane_verify_runs_total").Value(); got != 2 {
		t.Errorf("runs = %d, want 2", got)
	}
}

// TestAbandonedFlightIsCancelled: when every waiter of a queued flight gives
// up, the job is cancelled before it ever occupies a worker.
func TestAbandonedFlightIsCancelled(t *testing.T) {
	reg := obs.NewRegistry()
	p := vplane.New(vplane.Config{CacheBytes: 1 << 20, Workers: 1, QueueDepth: 4, Metrics: reg})
	defer p.Close()

	entered := make(chan struct{}, 2)
	hold := make(chan struct{})
	p.SetVerifyHook(func() { entered <- struct{}{}; <-hold })

	objA := compileObj(t, "int main() { return 1; }", policy.SetP1)
	objB := compileObj(t, "int main() { return 2; }", policy.SetP1)
	m := manifestFor(policy.SetP1)
	l := defaultLayout(t)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, _, err := p.Verify(context.Background(), objA, m, l); err != nil {
			t.Errorf("Verify(A): %v", err)
		}
	}()
	<-entered // A occupies the worker

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := p.Verify(ctx, objB, m, l)
		errc <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for reg.Gauge("vplane_queue_depth").Value() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("B never queued")
		}
		time.Sleep(time.Millisecond)
	}

	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned Verify: err = %v, want context.Canceled", err)
	}
	if got := reg.Counter("vplane_waits_abandoned_total").Value(); got != 1 {
		t.Errorf("waits_abandoned = %d, want 1", got)
	}

	close(hold)
	wg.Wait()
	waitCounter(t, reg, "vplane_jobs_cancelled_total", 1)
	if got := reg.Counter("vplane_verify_runs_total").Value(); got != 1 {
		t.Errorf("cancelled flight still ran (runs = %d, want 1)", got)
	}
}

func TestVerifyOnClosedPlane(t *testing.T) {
	p := vplane.New(vplane.Config{CacheBytes: 1 << 20, Workers: 1, QueueDepth: 1})
	p.Close()
	obj := compileObj(t, "int main() { return 0; }", policy.SetP1)
	_, _, err := p.Verify(context.Background(), obj, manifestFor(policy.SetP1), defaultLayout(t))
	if !errors.Is(err, vplane.ErrClosed) {
		t.Fatalf("Verify on closed plane: err = %v, want ErrClosed", err)
	}
}

// TestCacheInvalidationForcesReverify: explicit invalidation is the
// operator's lever after rotating a policy configuration.
func TestCacheInvalidationForcesReverify(t *testing.T) {
	reg := obs.NewRegistry()
	p := vplane.New(vplane.Config{CacheBytes: 1 << 20, Workers: 1, QueueDepth: 4, Metrics: reg})
	defer p.Close()

	obj := compileObj(t, "int main() { return 9; }", policy.SetP1)
	m := manifestFor(policy.SetP1)
	l := defaultLayout(t)

	if _, _, err := p.Verify(context.Background(), obj, m, l); err != nil {
		t.Fatal(err)
	}
	if !p.Cache().Invalidate(vplane.ComputeKey(obj, m, l)) {
		t.Fatal("Invalidate found nothing")
	}
	_, src, err := p.Verify(context.Background(), obj, m, l)
	if err != nil {
		t.Fatal(err)
	}
	if src != vplane.SourceCold {
		t.Fatalf("post-invalidation source = %v, want cold", src)
	}
	if got := reg.Counter("vplane_verify_runs_total").Value(); got != 2 {
		t.Fatalf("runs = %d, want 2", got)
	}
}
