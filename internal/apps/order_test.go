package apps

import (
	"strings"
	"testing"

	"deflection/internal/nbench"
	"deflection/internal/policy"
)

// permissiveProtocol admits every interface event the DC builtins can emit
// from a single attested state — declaring it exercises the full product
// fixpoint over a real program while conforming by construction.
const permissiveProtocol = `
protocol {
    state run attested;
    state end attested;
    run: send -> run;
    run: recv -> run;
    run: print -> run;
    run: tid -> run;
    run: hlt -> end;
}
`

// verifyOrderClean pushes src through the full pipeline under a P8-demanding
// manifest and asserts the P8 audit entry passed with the expected detail.
func verifyOrderClean(t *testing.T, name, src string, pols policy.Set, wantDetail string) {
	t.Helper()
	l, err := Load(name, src, RunConfig{Policies: pols})
	if err != nil {
		t.Fatalf("%s rejected under %v: %v", name, pols, err)
	}
	found := false
	for _, a := range l.Report.Audit {
		if a.Policy != policy.P8 {
			continue
		}
		found = true
		if !a.Passed {
			t.Errorf("%s: P8 audit entry not passed", name)
		}
		if !strings.Contains(a.Detail, wantDetail) {
			t.Errorf("%s: P8 audit detail %q does not contain %q", name, a.Detail, wantDetail)
		}
	}
	if !found {
		t.Errorf("%s: no P8 audit entry", name)
	}
}

// TestNoOrderFalsePositives sweeps every application and benchmark kernel
// through verification with P8 required: none declares a protocol, so all
// must ride the trivial fast path and stay accepted.
func TestNoOrderFalsePositives(t *testing.T) {
	apps := map[string]string{
		"nw":      NWSource,
		"credit":  CreditSource,
		"seqgen":  SeqGenSource,
		"httpsrv": HTTPSHandlerSource,
	}
	for _, pols := range []policy.Set{policy.SetP1P8, policy.SetAll} {
		for name, src := range apps {
			verifyOrderClean(t, name, src, pols, "trivially")
		}
	}
	for _, k := range nbench.Kernels() {
		verifyOrderClean(t, k.Name, k.Source, policy.SetP1P8, "trivially")
	}
}

// TestDeclaredProtocolAccepted: the same applications with a declared
// permissive protocol run the real product fixpoint and must still verify
// P8-clean — the pass rejects protocol violations, not protocol use.
func TestDeclaredProtocolAccepted(t *testing.T) {
	apps := map[string]string{
		"nw":      NWSource,
		"credit":  CreditSource,
		"seqgen":  SeqGenSource,
		"httpsrv": HTTPSHandlerSource,
	}
	for name, src := range apps {
		verifyOrderClean(t, name+"-proto", permissiveProtocol+src, policy.SetP1P8,
			"every interface event admitted")
	}
}
