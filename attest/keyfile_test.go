package attest_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"deflection/attest"
)

func newTestPlatform(t *testing.T, id string) *attest.Platform {
	t.Helper()
	p, err := attest.NewPlatform(id)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestTrustedKeysRoundTrip: keys exported line-by-line load back into a
// fresh service, which then verifies certificates from those platforms.
func TestTrustedKeysRoundTrip(t *testing.T) {
	a := newTestPlatform(t, "backend-a")
	b := newTestPlatform(t, "backend-b")

	var file strings.Builder
	file.WriteString("# fleet trust root\n\n")
	if err := a.TrustedKey(&file); err != nil {
		t.Fatal(err)
	}
	if err := b.TrustedKey(&file); err != nil {
		t.Fatal(err)
	}

	svc := attest.NewService()
	n, err := svc.LoadTrustedKeys(strings.NewReader(file.String()))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("loaded %d keys, want 2", n)
	}
	for _, p := range []*attest.Platform{a, b} {
		cert := &attest.VerdictCert{Measurement: [32]byte{1}}
		if err := p.SignVerdict(cert); err != nil {
			t.Fatal(err)
		}
		if err := svc.VerifyVerdictCert(cert); err != nil {
			t.Fatalf("cert from %s rejected after LoadTrustedKeys: %v", p.ID(), err)
		}
	}
}

// TestTrustedKeysMalformedLineAborts: a corrupted trust root must not load
// partially and silently.
func TestTrustedKeysMalformedLineAborts(t *testing.T) {
	a := newTestPlatform(t, "backend-a")
	var file strings.Builder
	if err := a.TrustedKey(&file); err != nil {
		t.Fatal(err)
	}
	file.WriteString("just-an-id-no-key\n")

	svc := attest.NewService()
	if _, err := svc.LoadTrustedKeys(strings.NewReader(file.String())); err == nil {
		t.Fatal("malformed trusted-keys file loaded without error")
	}
}

// TestTrustedKeyRejectsUnrepresentableID: IDs that would corrupt the
// line-oriented format are refused at write time.
func TestTrustedKeyRejectsUnrepresentableID(t *testing.T) {
	p := newTestPlatform(t, "has space")
	if err := p.TrustedKey(&strings.Builder{}); err == nil {
		t.Fatal("whitespace platform ID accepted")
	}
}

// TestPlatformKeyPersistence: a platform reloaded from its persisted
// private key keeps signing under the same public identity.
func TestPlatformKeyPersistence(t *testing.T) {
	p := newTestPlatform(t, "backend-a")
	svc := attest.NewService()
	svc.Register(p)

	pemBytes, err := p.MarshalPrivateKey()
	if err != nil {
		t.Fatal(err)
	}
	restarted, err := attest.LoadPlatform("backend-a", pemBytes)
	if err != nil {
		t.Fatal(err)
	}
	cert := &attest.VerdictCert{Measurement: [32]byte{2}}
	if err := restarted.SignVerdict(cert); err != nil {
		t.Fatal(err)
	}
	if err := svc.VerifyVerdictCert(cert); err != nil {
		t.Fatalf("post-restart cert rejected under pre-restart trust root: %v", err)
	}

	if _, err := attest.LoadPlatform("backend-a", []byte("not pem")); err == nil {
		t.Fatal("garbage platform key loaded without error")
	}
}

// TestServiceConcurrentProvisioning: registration may race verification
// (fleet provisioning while sessions verify certificates); run under
// -race this pins the Service lock.
func TestServiceConcurrentProvisioning(t *testing.T) {
	svc := attest.NewService()
	base := newTestPlatform(t, "platform-0")
	svc.Register(base)
	cert := &attest.VerdictCert{Measurement: [32]byte{3}}
	if err := base.SignVerdict(cert); err != nil {
		t.Fatal(err)
	}
	quote, err := base.Quote([32]byte{4}, nil)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			p := newTestPlatform(t, fmt.Sprintf("platform-%d", i+1))
			svc.RegisterKey(p.ID(), p.PublicKey())
		}(i)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if err := svc.VerifyVerdictCert(cert); err != nil {
					t.Error(err)
					return
				}
				if err := svc.Verify(quote); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
