package apps

import (
	"testing"

	"deflection/internal/compiler"
	"deflection/internal/dclib"
	"deflection/internal/nbench"
	"deflection/internal/policy"
)

// verifyClean compiles src with pols instrumentation and pushes it through
// the full ReceiveBinary pipeline (load, verify, rewrite) under a manifest
// demanding the same set.
func verifyClean(t *testing.T, name, src string, pols policy.Set) {
	t.Helper()
	l, err := Load(name, src, RunConfig{Policies: pols})
	if err != nil {
		t.Fatalf("%s rejected under %v: %v", name, pols, err)
	}
	for _, a := range l.Report.Audit {
		if a.Policy == policy.P7 && !a.Passed {
			t.Errorf("%s: P7 audit entry not passed", name)
		}
	}
}

// TestNoTaintFalsePositives sweeps every application and benchmark kernel
// through verification with P7 required: programs whose secrets flow only
// to the sealed output must stay accepted, and untagged programs must ride
// the trivial fast path unchanged.
func TestNoTaintFalsePositives(t *testing.T) {
	apps := map[string]string{
		"nw":      NWSource,     // secret seqa/seqb
		"credit":  CreditSource, // secret w1/w2
		"seqgen":  SeqGenSource,
		"httpsrv": HTTPSHandlerSource,
	}
	for _, pols := range []policy.Set{policy.SetP1P7, policy.SetAll} {
		for name, src := range apps {
			verifyClean(t, name, src, pols)
		}
	}
	for _, k := range nbench.Kernels() {
		verifyClean(t, k.Name, k.Source, policy.SetP1P7)
	}
}

// TestSecretTableEmitted: the compiler forwards the `secret` qualifier
// into the object's proof.
func TestSecretTableEmitted(t *testing.T) {
	o, err := compiler.Compile(dclib.Program(NWSource), compiler.Options{Policies: policy.SetP1P7})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"seqa": true, "seqb": true}
	if len(o.Secrets) != len(want) {
		t.Fatalf("secret table %v, want seqa+seqb", o.Secrets)
	}
	for _, s := range o.Secrets {
		if !want[s] {
			t.Errorf("unexpected secret %q", s)
		}
	}
}
