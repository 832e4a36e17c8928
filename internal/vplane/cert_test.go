package vplane_test

import (
	"context"
	"reflect"
	"slices"
	"sync"
	"testing"

	"deflection/attest"
	"deflection/internal/asmtext"
	"deflection/internal/enclave"
	"deflection/internal/obs"
	"deflection/internal/policy"
	"deflection/internal/runtime"
	"deflection/internal/verifier"
	"deflection/internal/vplane"
)

// certFleet builds a two-backend fleet: planes A and B with private caches,
// one shared cert store, one attestation platform/service pair, and the
// same bootstrap measurement.
type certFleet struct {
	store    *vplane.MemCertStore
	platform *attest.Platform
	as       *attest.Service
	meas     [32]byte
	regA     *obs.Registry
	regB     *obs.Registry
	a, b     *vplane.Plane
}

func newCertFleet(t *testing.T) *certFleet {
	t.Helper()
	platform, err := attest.NewPlatform("cert-fleet-platform")
	if err != nil {
		t.Fatal(err)
	}
	as := attest.NewService()
	as.Register(platform)
	f := &certFleet{
		store:    vplane.NewMemCertStore(),
		platform: platform,
		as:       as,
		meas:     [32]byte{0xAA, 0xBB},
		regA:     obs.NewRegistry(),
		regB:     obs.NewRegistry(),
	}
	newPlane := func(reg *obs.Registry) *vplane.Plane {
		p := vplane.New(vplane.Config{CacheBytes: 1 << 20, Workers: 1, QueueDepth: 4, Metrics: reg})
		p.EnableCerts(vplane.CertConfig{
			Measurement: f.meas,
			Sign:        platform.SignVerdict,
			Check:       as.VerifyVerdictCert,
			Store:       f.store,
		})
		return p
	}
	f.a, f.b = newPlane(f.regA), newPlane(f.regB)
	t.Cleanup(func() { f.a.Close(); f.b.Close() })
	return f
}

// TestCertFleetReplay is the core fleet-economics property: a binary
// verified cold on backend A installs on backend B purely from A's verdict
// certificate — zero pipeline runs on B — and the certified image executes
// identically.
func TestCertFleetReplay(t *testing.T) {
	f := newCertFleet(t)
	obj := compileObj(t, "int main() { return 6; }", policy.SetP1)
	m := manifestFor(policy.SetP1)
	l := defaultLayout(t)

	vA, srcA, err := f.a.Verify(context.Background(), obj, m, l)
	if err != nil {
		t.Fatal(err)
	}
	if srcA != vplane.SourceCold || vA.Image == nil {
		t.Fatalf("A: src=%v verdict=%+v", srcA, vA)
	}
	if got := f.regA.Counter("vplane_certs_issued_total").Value(); got != 1 {
		t.Fatalf("A issued %d certificates, want 1", got)
	}
	if f.store.Len() != 1 {
		t.Fatalf("store holds %d entries, want 1", f.store.Len())
	}

	vB, srcB, err := f.b.Verify(context.Background(), obj, m, l)
	if err != nil {
		t.Fatal(err)
	}
	if srcB != vplane.SourceCertified {
		t.Fatalf("B source = %v, want certified", srcB)
	}
	if got := f.regB.Counter("vplane_verify_runs_total").Value(); got != 0 {
		t.Fatalf("B ran the pipeline %d times, want 0 (certificate replay)", got)
	}
	if got := f.regB.Counter("vplane_cert_hits_total").Value(); got != 1 {
		t.Fatalf("B cert hits = %d, want 1", got)
	}
	if vB.Image.BinaryHash != vA.Image.BinaryHash {
		t.Fatal("certified image differs from the original")
	}

	// The admitted verdict is an ordinary cache entry from now on.
	_, srcB2, err := f.b.Verify(context.Background(), obj, m, l)
	if err != nil || srcB2 != vplane.SourceCache {
		t.Fatalf("B repeat: src=%v err=%v, want cache", srcB2, err)
	}

	// And the certified image actually runs: install + execute on B's side.
	boot, err := runtime.New(enclave.DefaultConfig(), m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := boot.InstallImage(vB.Image); err != nil {
		t.Fatal(err)
	}
	res, err := boot.Run(runtime.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CPU.ExitValue != 6 {
		t.Fatalf("certified image exit = %d, want 6", res.CPU.ExitValue)
	}
}

// TestCertTamperedImageFallsBackCold: a store (it is untrusted) that serves
// a modified image must fail the digest check; B pays a cold run instead of
// installing the tampered bytes.
func TestCertTamperedImageFallsBackCold(t *testing.T) {
	f := newCertFleet(t)
	obj := compileObj(t, "int main() { return 8; }", policy.SetP1)
	m := manifestFor(policy.SetP1)
	l := defaultLayout(t)

	if _, _, err := f.a.Verify(context.Background(), obj, m, l); err != nil {
		t.Fatal(err)
	}
	key := vplane.ComputeKey(obj, m, l)
	cert, img, ok := f.store.GetCert(key)
	if !ok {
		t.Fatal("no certificate published")
	}
	evil := *img
	evil.Text = append([]byte(nil), img.Text...)
	evil.Text[len(evil.Text)/2] ^= 0x41 // patch an instruction byte
	if err := f.store.PutCert(cert, &evil); err != nil {
		t.Fatal(err)
	}

	_, src, err := f.b.Verify(context.Background(), obj, m, l)
	if err != nil {
		t.Fatal(err)
	}
	if src != vplane.SourceCold {
		t.Fatalf("B admitted a tampered image (source %v)", src)
	}
	if got := f.regB.Counter("vplane_cert_rejected_total").Value(); got != 1 {
		t.Errorf("cert_rejected = %d, want 1", got)
	}
	if got := f.regB.Counter("vplane_verify_runs_total").Value(); got != 1 {
		t.Errorf("B runs = %d, want 1 (cold fallback)", got)
	}
}

// TestCertWrongMeasurementRejected: a certificate from a different verifier
// build (different measurement) must not be admitted, even with a valid
// platform signature.
func TestCertWrongMeasurementRejected(t *testing.T) {
	f := newCertFleet(t)
	obj := compileObj(t, "int main() { return 4; }", policy.SetP1)
	m := manifestFor(policy.SetP1)
	l := defaultLayout(t)

	if _, _, err := f.a.Verify(context.Background(), obj, m, l); err != nil {
		t.Fatal(err)
	}

	// C runs a different bootstrap build.
	regC := obs.NewRegistry()
	c := vplane.New(vplane.Config{CacheBytes: 1 << 20, Workers: 1, QueueDepth: 4, Metrics: regC})
	defer c.Close()
	c.EnableCerts(vplane.CertConfig{
		Measurement: [32]byte{0xDE, 0xAD},
		Sign:        f.platform.SignVerdict,
		Check:       f.as.VerifyVerdictCert,
		Store:       f.store,
	})
	_, src, err := c.Verify(context.Background(), obj, m, l)
	if err != nil {
		t.Fatal(err)
	}
	if src != vplane.SourceCold {
		t.Fatalf("foreign-measurement cert admitted (source %v)", src)
	}
	if got := regC.Counter("vplane_cert_rejected_total").Value(); got != 1 {
		t.Errorf("cert_rejected = %d, want 1", got)
	}
}

// TestCertUnknownPlatformRejected: a backend whose attestation service does
// not know the issuing platform must reject the signature and fall back.
func TestCertUnknownPlatformRejected(t *testing.T) {
	f := newCertFleet(t)
	obj := compileObj(t, "int main() { return 2; }", policy.SetP1)
	m := manifestFor(policy.SetP1)
	l := defaultLayout(t)

	if _, _, err := f.a.Verify(context.Background(), obj, m, l); err != nil {
		t.Fatal(err)
	}

	regC := obs.NewRegistry()
	c := vplane.New(vplane.Config{CacheBytes: 1 << 20, Workers: 1, QueueDepth: 4, Metrics: regC})
	defer c.Close()
	c.EnableCerts(vplane.CertConfig{
		Measurement: f.meas,
		Check:       attest.NewService().VerifyVerdictCert, // knows no platforms
		Store:       f.store,
	})
	_, src, err := c.Verify(context.Background(), obj, m, l)
	if err != nil {
		t.Fatal(err)
	}
	if src != vplane.SourceCold {
		t.Fatalf("unknown-platform cert admitted (source %v)", src)
	}
	if got := regC.Counter("vplane_cert_rejected_total").Value(); got != 1 {
		t.Errorf("cert_rejected = %d, want 1", got)
	}
}

// TestCertForgedManifestRejected: an attacker who controls the store cannot
// bind a certificate for one manifest to a submission under another — the
// fingerprint comparison catches it even though the signature verifies.
func TestCertForgedManifestRejected(t *testing.T) {
	f := newCertFleet(t)
	obj := compileObj(t, "int main() { return 3; }", policy.SetP1)
	m := manifestFor(policy.SetP1)
	l := defaultLayout(t)

	if _, _, err := f.a.Verify(context.Background(), obj, m, l); err != nil {
		t.Fatal(err)
	}
	key := vplane.ComputeKey(obj, m, l)
	cert, img, _ := f.store.GetCert(key)
	forged := *cert
	forged.ManifestFP = []byte("not-the-real-manifest")
	if err := f.platform.SignVerdict(&forged); err != nil { // honestly signed, wrong claim
		t.Fatal(err)
	}
	if err := f.store.PutCert(&forged, img); err != nil {
		t.Fatal(err)
	}

	_, src, err := f.b.Verify(context.Background(), obj, m, l)
	if err != nil {
		t.Fatal(err)
	}
	if src != vplane.SourceCold {
		t.Fatalf("forged-manifest cert admitted (source %v)", src)
	}
	if got := f.regB.Counter("vplane_cert_rejected_total").Value(); got != 1 {
		t.Errorf("cert_rejected = %d, want 1", got)
	}
}

// TestNegativeVerdictsNotCertified: rejections stay local — the fleet store
// only ever carries installable, positively verified images.
func TestNegativeVerdictsNotCertified(t *testing.T) {
	f := newCertFleet(t)
	o, err := asmtext.Assemble(unguardedStore, uint16(policy.SetP1))
	if err != nil {
		t.Fatal(err)
	}
	obj := o.Marshal()
	m := manifestFor(policy.SetP1)
	l := defaultLayout(t)

	v, _, err := f.a.Verify(context.Background(), obj, m, l)
	if err != nil {
		t.Fatal(err)
	}
	if v.Reject == nil {
		t.Fatal("expected a rejection")
	}
	if f.store.Len() != 0 {
		t.Fatalf("store holds %d entries after a rejection, want 0", f.store.Len())
	}
	if got := f.regA.Counter("vplane_certs_issued_total").Value(); got != 0 {
		t.Errorf("certs_issued = %d, want 0", got)
	}
}

// blockingCountingStore wraps a CertStore, counting GetCert calls and
// holding each one until released.
type blockingCountingStore struct {
	inner   vplane.CertStore
	mu      sync.Mutex
	gets    int
	entered chan struct{} // one send per GetCert call, before it blocks
	release chan struct{}
}

func (s *blockingCountingStore) PutCert(cert *attest.VerdictCert, img *runtime.Image) error {
	return s.inner.PutCert(cert, img)
}

func (s *blockingCountingStore) GetCert(key vplane.Key) (*attest.VerdictCert, *runtime.Image, bool) {
	s.mu.Lock()
	s.gets++
	s.mu.Unlock()
	s.entered <- struct{}{}
	<-s.release
	return s.inner.GetCert(key)
}

// TestCertLookupSingleFlight: N concurrent cache misses for the same key
// cost ONE store lookup, not N — the certificate consultation runs inside
// the single-flight, so a slow or down store cannot multiply fleet traffic
// or stall more than the one flight leader.
func TestCertLookupSingleFlight(t *testing.T) {
	const N = 8
	f := newCertFleet(t)
	obj := compileObj(t, "int main() { return 9; }", policy.SetP1)
	m := manifestFor(policy.SetP1)
	l := defaultLayout(t)

	// A certifies the binary; C then sees a populated fleet store through a
	// blocking, call-counting wrapper.
	if _, _, err := f.a.Verify(context.Background(), obj, m, l); err != nil {
		t.Fatal(err)
	}
	store := &blockingCountingStore{
		inner:   f.store,
		entered: make(chan struct{}, N),
		release: make(chan struct{}),
	}
	regC := obs.NewRegistry()
	c := vplane.New(vplane.Config{CacheBytes: 1 << 20, Workers: 2, QueueDepth: 16, Metrics: regC})
	defer c.Close()
	c.EnableCerts(vplane.CertConfig{
		Measurement: f.meas,
		Check:       f.as.VerifyVerdictCert,
		Store:       store,
	})

	sources := make([]vplane.Source, N)
	errs := make([]error, N)
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, sources[i], errs[i] = c.Verify(context.Background(), obj, m, l)
		}(i)
	}

	// The leader's lookup is in flight (blocked in the store); wait for the
	// other N-1 submitters to join it, then let the lookup finish.
	<-store.entered
	waitCounter(t, regC, "vplane_dedup_joins_total", N-1)
	close(store.release)
	wg.Wait()

	var certified, joined int
	for i := 0; i < N; i++ {
		if errs[i] != nil {
			t.Fatalf("Verify[%d]: %v", i, errs[i])
		}
		switch sources[i] {
		case vplane.SourceCertified:
			certified++
		case vplane.SourceJoined:
			joined++
		default:
			t.Fatalf("Verify[%d] source = %v", i, sources[i])
		}
	}
	if certified != 1 || joined != N-1 {
		t.Fatalf("sources: %d certified + %d joined, want 1 + %d", certified, joined, N-1)
	}
	store.mu.Lock()
	gets := store.gets
	store.mu.Unlock()
	if gets != 1 {
		t.Fatalf("store lookups = %d for %d concurrent misses, want 1 (single-flight)", gets, N)
	}
	if got := regC.Counter("vplane_verify_runs_total").Value(); got != 0 {
		t.Fatalf("pipeline ran %d times, want 0 (certificate replay)", got)
	}
}

// TestImageDigestCoversLayout: an image differing from another only in its
// layout, or in any one field of the verdict evidence a cache hit replays
// to the client (Stats, Rewrites, an Audit entry), must digest differently
// — the digest must pin the address map the text was rewritten for, and an
// untrusted cert store must not be able to alter the evidence.
func TestImageDigestCoversLayout(t *testing.T) {
	img := &runtime.Image{
		Text:   []byte{1, 2, 3},
		Layout: defaultLayout(t),
		Audit:  []verifier.PolicyAudit{{Policy: policy.P1, Required: true, Passed: true, Checks: 2, Detail: "2 stores"}},
	}
	mutations := map[string]func(*runtime.Image){
		"Layout": func(m *runtime.Image) { m.Layout.HeapEnd += 4096 },
	}
	// Every field of each evidence struct, so a field added later is
	// covered without touching this test.
	evidence := map[string]func(*runtime.Image) reflect.Value{
		"Stats":    func(m *runtime.Image) reflect.Value { return reflect.ValueOf(&m.Stats).Elem() },
		"Rewrites": func(m *runtime.Image) reflect.Value { return reflect.ValueOf(&m.Rewrites).Elem() },
		"Audit[0]": func(m *runtime.Image) reflect.Value { return reflect.ValueOf(&m.Audit[0]).Elem() },
	}
	for name, struc := range evidence {
		typ := struc(img).Type()
		for i := 0; i < typ.NumField(); i++ {
			mutations[name+"."+typ.Field(i).Name] = func(m *runtime.Image) {
				switch f := struc(m).Field(i); f.Kind() {
				case reflect.Bool:
					f.SetBool(!f.Bool())
				case reflect.String:
					f.SetString(f.String() + "!")
				case reflect.Int, reflect.Int64:
					f.SetInt(f.Int() + 1)
				case reflect.Uint8:
					f.SetUint(f.Uint() + 1)
				default:
					t.Fatalf("%s.%s: no mutation for kind %v", name, typ.Field(i).Name, f.Kind())
				}
			}
		}
	}
	for name, mutate := range mutations {
		other := *img
		other.Audit = slices.Clone(img.Audit)
		mutate(&other)
		if vplane.ImageDigest(img) == vplane.ImageDigest(&other) {
			t.Errorf("image digest ignores %s", name)
		}
	}
}
