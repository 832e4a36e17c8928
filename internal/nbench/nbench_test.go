package nbench

import (
	"testing"

	"deflection/internal/apps"
	"deflection/internal/cpu"
	"deflection/internal/policy"
)

// small per-kernel parameters keeping unit tests fast.
var smallParams = map[string][]int64{
	"NUMERIC SORT":     {256, 1},
	"STRING SORT":      {64, 1},
	"BITFIELD":         {400},
	"FP EMULATION":     {2000},
	"FOURIER":          {4, 24},
	"ASSIGNMENT":       {12, 1},
	"IDEA":             {256},
	"HUFFMAN":          {512},
	"NEURAL NET":       {8},
	"LU DECOMPOSITION": {12, 1},
}

// run executes kernel k at its small parameters under pols through the
// evaluation harness.
func run(t *testing.T, k Kernel, pols policy.Set) *apps.Result {
	t.Helper()
	var inputs [][]byte
	for _, p := range smallParams[k.Name] {
		inputs = append(inputs, apps.Param(p))
	}
	res, err := apps.Run(k.Name, k.Source, apps.RunConfig{Policies: pols}, inputs...)
	if err != nil {
		t.Fatalf("%v: %v", pols, err)
	}
	return res
}

func TestKernelsRunAndSelfValidate(t *testing.T) {
	for _, k := range Kernels() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			m := run(t, k, policy.SetNone)
			if m.Status != cpu.StatusHalt {
				t.Fatalf("status = %v", m.Status)
			}
			if m.Exit < 0 {
				t.Fatalf("self-validation failed: exit = %d", m.Exit)
			}
			if m.Insts == 0 || m.Cycles <= 0 {
				t.Error("no work measured")
			}
		})
	}
}

func TestKernelsInvariantUnderInstrumentation(t *testing.T) {
	// The same kernel must compute the same checksum under every policy
	// set — instrumentation must be semantically transparent.
	sets := []policy.Set{policy.SetNone, policy.SetP1, policy.SetP1P2, policy.SetP1P5, policy.SetP1P6}
	for _, k := range Kernels() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			var want int64
			for i, pols := range sets {
				m := run(t, k, pols)
				if m.Status != cpu.StatusHalt {
					t.Fatalf("%v: status %v", pols, m.Status)
				}
				if i == 0 {
					want = m.Exit
				} else if m.Exit != want {
					t.Errorf("%v: exit %d, want %d", pols, m.Exit, want)
				}
			}
		})
	}
}

func TestKernelByName(t *testing.T) {
	if _, ok := KernelByName("NO SUCH"); ok {
		t.Error("bogus name found")
	}
	if len(Kernels()) != 10 {
		t.Errorf("kernel count = %d, want 10", len(Kernels()))
	}
}
