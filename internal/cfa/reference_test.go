package cfa_test

import (
	"testing"

	"deflection/internal/apps"
	"deflection/internal/cfaref"
	"deflection/internal/nbench"
	"deflection/internal/policy"
)

// TestBuildMatchesReference requires the instruction table and the CFG of
// every application and benchmark kernel, compiled and loaded under P1-P6
// and under P1-P8, to match the reference builders' in every field.
func TestBuildMatchesReference(t *testing.T) {
	srcs := []struct{ name, src string }{
		{"nw", apps.NWSource},
		{"credit", apps.CreditSource},
		{"seqgen", apps.SeqGenSource},
		{"httpsrv", apps.HTTPSHandlerSource},
	}
	for _, k := range nbench.Kernels() {
		srcs = append(srcs, struct{ name, src string }{k.Name, k.Source})
	}
	for _, pols := range []policy.Set{policy.SetP1P6, policy.SetP1P8} {
		for _, s := range srcs {
			text, opts, err := apps.VerifyInput(s.name, s.src, pols)
			if err != nil {
				t.Fatalf("%s under %v: %v", s.name, pols, err)
			}
			if d := cfaref.Diff(text, opts.EntryOffset, opts.BranchTargetOffsets); d != "" {
				t.Errorf("%s under %v: %s", s.name, pols, d)
			}
		}
	}
}
