package bench

import (
	"fmt"

	"deflection/internal/compiler"
	"deflection/internal/dclib"
	"deflection/internal/enclave"
	"deflection/internal/loader"
	"deflection/internal/policy"
	"deflection/internal/runtime"
	"deflection/internal/verifier"
)

// VerifyInput compiles a DC program under pols, loads it into a fresh
// enclave exactly as the runtime does, and returns the relocated text with
// the verifier options that load implies: entry, branch-target list, the P7
// secret geometry and the P8 protocol (each ignored unless pols requires
// it). The experiments and benchmarks that time verifier.Verify directly
// share it.
func VerifyInput(name, src string, pols policy.Set) ([]byte, verifier.Options, error) {
	o, err := compiler.Compile(dclib.Program(src), compiler.Options{Policies: pols})
	if err != nil {
		return nil, verifier.Options{}, fmt.Errorf("bench: %s: %w", name, err)
	}
	e, err := enclave.New(enclave.DefaultConfig(), []byte("bench-verify"))
	if err != nil {
		return nil, verifier.Options{}, err
	}
	ld, err := loader.Load(e, o)
	if err != nil {
		return nil, verifier.Options{}, fmt.Errorf("bench: %s: %w", name, err)
	}
	text, err := ld.TextBytes()
	if err != nil {
		return nil, verifier.Options{}, err
	}
	return text, runtime.VerifyOptions(ld, pols), nil
}
