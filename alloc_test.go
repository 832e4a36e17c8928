package deflection_test

import (
	"testing"

	"deflection/internal/disasm"
	"deflection/internal/verifier"
)

// TestVerifyAllocs pins the allocations of one verification of
// BenchmarkVerifier's input: verifier.Verify and disasm.Disassemble size
// their tables from the input, so their allocation counts are fixed
// figures that do not drift with the host. The bounds are the measured
// counts (79 and 14) plus a small margin. Under the race detector sync.Pool
// drops cached fmt printers at random, which adds up to about ten
// allocations to a Verify; raceSlack allows for them.
func TestVerifyAllocs(t *testing.T) {
	text, opts := verifyInputs(t)
	entries := append([]int64{opts.EntryOffset}, opts.BranchTargetOffsets...)
	for _, c := range []struct {
		name  string
		limit float64
		run   func() error
	}{
		{"verifier.Verify", 84, func() error { _, err := verifier.Verify(text, opts); return err }},
		{"disasm.Disassemble", 16, func() error { _, err := disasm.Disassemble(text, entries); return err }},
	} {
		var err error
		if n := testing.AllocsPerRun(10, func() { err = c.run() }); err != nil || n > c.limit+raceSlack {
			t.Errorf("%s: %v allocations per run, limit %v (err %v)", c.name, n, c.limit+raceSlack, err)
		}
	}
}

// raceSlack is raised in a race-detector build (race_test.go).
var raceSlack float64
