// Package deflection is a from-scratch Go reproduction of DEFLECTION —
// "Practical and Efficient in-Enclave Verification of Privacy Compliance"
// (DSN 2021): a Proof-Carrying-Code-style model for confidential computing
// where an untrusted code generator instruments a private service binary
// with security annotations, and a small, attestable bootstrap enclave
// statically verifies the annotations before running the binary under
// policies P0-P6 (interface control, store bounds, stack-pointer bounds,
// critical-data protection, software DEP, control-flow integrity and
// AEX-frequency side-channel mitigation).
//
// This package is the public facade. The typical flow is:
//
//	// Code provider (untrusted side): compile + instrument the service.
//	bin, err := deflection.Generate(source, deflection.GeneratorOptions{
//		Policies: deflection.PolicyFull,
//	})
//
//	// Host: launch the bootstrap enclave with a manifest.
//	encl, err := deflection.NewEnclave(deflection.EnclaveOptions{
//		Policies: deflection.PolicyFull,
//	})
//
//	// (Data owner attests encl.Measurement() via deflection/attest.)
//
//	// Load (parse + relocate + verify + rewrite) and run.
//	report, err := encl.Load(bin)
//	encl.Send(inputData)
//	result, err := encl.Run(deflection.RunOptions{})
//
// The substrates live in internal packages: the DC language frontend and
// instrumenting compiler (the paper's LLVM analogue), the virtual
// x64-flavoured ISA and relocatable object format, the recursive-descent
// disassembler, the SGX-semantics enclave model and CPU emulator, the
// loader/verifier/imm-rewriter trio that forms the in-enclave TCB, the
// attestation substrate, and the full evaluation harness (internal/bench)
// that regenerates every table and figure of the paper. See DESIGN.md.
package deflection

import (
	"crypto/aes"
	"crypto/cipher"
	"errors"
	"fmt"

	"deflection/internal/compiler"
	"deflection/internal/cpu"
	"deflection/internal/dclib"
	"deflection/internal/enclave"
	"deflection/internal/policy"
	"deflection/internal/runtime"
)

// Policies is a set of the paper's security policies.
type Policies = policy.Set

// Policy sets matching the paper's evaluation columns.
const (
	PolicyNone Policies = policy.SetNone
	PolicyP1   Policies = policy.SetP1
	PolicyP1P2 Policies = policy.SetP1P2
	PolicyP1P5 Policies = policy.SetP1P5
	PolicyP1P6 Policies = policy.SetP1P6
	// PolicyP1P7 adds the P7 secret-taint pass on top of P1-P6.
	PolicyP1P7 Policies = policy.SetP1P7
	// PolicyP1P8 adds the P8 interface-orderliness pass on top of P1-P7.
	PolicyP1P8 Policies = policy.SetP1P8
	// PolicyFull is P0-P8: everything, including the interface policies.
	PolicyFull Policies = policy.SetAll
)

// ParsePolicies parses a policy-set name as used by the CLI tools:
// "none", "p1", "p1+p2", "p1-p5", "p1-p6", "p1-p7", "p1-p8" or "full".
func ParsePolicies(s string) (Policies, error) {
	return policy.ParseSet(s)
}

// GeneratorOptions configures the untrusted code generator.
type GeneratorOptions struct {
	// Policies to instrument for (the binary's claimed policy mask).
	Policies Policies
	// AEXThreshold is the P6 abort budget (0 = default).
	AEXThreshold int64
	// AEXCheckInterval is q, the in-block SSA check spacing (0 = default).
	AEXCheckInterval int
	// WithoutStdlib skips linking the DC support library (PRNG, string
	// helpers, math, parameter I/O).
	WithoutStdlib bool
}

// TargetBinary is an instrumented relocatable service binary plus its proof
// (the indirect-branch target list), ready for delivery to a bootstrap
// enclave.
type TargetBinary struct {
	bytes []byte
}

// Bytes returns the serialised object (what crosses the wire).
func (b *TargetBinary) Bytes() []byte { return append([]byte(nil), b.bytes...) }

// Size returns the serialised size in bytes.
func (b *TargetBinary) Size() int { return len(b.bytes) }

// Generate compiles DC source and instruments it with security annotations
// — the code-provider side of the DEFLECTION model.
func Generate(source string, opts GeneratorOptions) (*TargetBinary, error) {
	src := source
	if !opts.WithoutStdlib {
		src = dclib.Program(source)
	}
	o, err := compiler.Compile(src, compiler.Options{
		Policies:         opts.Policies,
		AEXThreshold:     opts.AEXThreshold,
		AEXCheckInterval: opts.AEXCheckInterval,
	})
	if err != nil {
		return nil, err
	}
	return &TargetBinary{bytes: o.Marshal()}, nil
}

// EnclaveOptions configures a bootstrap enclave.
type EnclaveOptions struct {
	// Policies the manifest requires of loaded binaries.
	Policies Policies
	// Paper selects the paper's 96 MB memory budget instead of the default
	// laptop-friendly one.
	Paper bool
	// OutputBudgetBits caps total plaintext output entropy (P0; 0 = off).
	OutputBudgetBits int
	// Threads provisions enclave threads with private stacks and shadow
	// stacks (Section VII multi-threading extension; 0 or 1 = one thread).
	Threads int
	// SGXv2 enables EDMM-style dynamic page permissions: code pages become
	// RX (hardware DEP) after verification instead of staying RWX.
	SGXv2 bool
	// TimePadQuantumCycles pads every run's modelled time to a multiple of
	// this quantum (Section VII processing-time covert-channel mitigation;
	// 0 = off).
	TimePadQuantumCycles float64
}

// Enclave is a launched bootstrap enclave.
type Enclave struct {
	b *Bootstrap
}

// Bootstrap is the underlying bootstrap-enclave runtime; exposed for
// advanced use (attestation glue, custom manifests).
type Bootstrap = runtime.Bootstrap

// LoadReport summarises a successful load: verification statistics, rewrite
// counts and the binary hash the data owner checks.
type LoadReport = runtime.LoadReport

// NewEnclave launches a bootstrap enclave.
func NewEnclave(opts EnclaveOptions) (*Enclave, error) {
	cfg := enclave.DefaultConfig()
	if opts.Paper {
		cfg = enclave.PaperConfig()
	}
	cfg.Threads = opts.Threads
	cfg.SGXv2 = opts.SGXv2
	m := runtime.DefaultManifest()
	m.Policies = opts.Policies
	m.OutputBudgetBits = opts.OutputBudgetBits
	m.TimePadQuantum = opts.TimePadQuantumCycles
	b, err := runtime.New(cfg, m)
	if err != nil {
		return nil, err
	}
	return &Enclave{b: b}, nil
}

// Bootstrap exposes the underlying runtime for attestation and advanced
// configuration.
func (e *Enclave) Bootstrap() *Bootstrap { return e.b }

// Measurement returns the enclave's launch measurement (what remote parties
// verify through attestation).
func (e *Enclave) Measurement() [32]byte { return e.b.Measurement() }

// Load receives, relocates, verifies and rewrites a target binary (the
// ecall_receive_binary path). It fails if any required annotation is
// missing or malformed.
func (e *Enclave) Load(bin *TargetBinary) (*LoadReport, error) {
	if bin == nil || len(bin.bytes) == 0 {
		return nil, errors.New("deflection: empty target binary")
	}
	return e.b.ReceiveBinary(bin.bytes)
}

// Send queues input data for the service (the ecall_receive_userdata path).
func (e *Enclave) Send(data []byte) { e.b.ReceiveData(data) }

// SendInt queues one 8-byte little-endian integer parameter (the format the
// DC stdlib's read_param consumes).
func (e *Enclave) SendInt(v int64) {
	var buf [8]byte
	for i := range buf {
		buf[i] = byte(v >> (8 * i))
	}
	e.b.ReceiveData(buf[:])
}

// RunOptions tunes one execution.
type RunOptions struct {
	// Gas bounds retired instructions (0 = default).
	Gas uint64
	// AEXInterval injects an asynchronous exit roughly every this many
	// instructions (0 = none), for P6 experiments.
	AEXInterval uint64
	// AEXSeed seeds AEX jitter.
	AEXSeed int64
}

// Result is the outcome of a service execution.
type Result struct {
	// ExitValue is the service's return value.
	ExitValue int64
	// Trapped reports whether a policy check aborted the run; TrapReason
	// names the policy that fired.
	Trapped    bool
	TrapReason string
	// Outputs are the padded (and, with a session key, sealed) messages
	// the service sent to the data owner.
	Outputs [][]byte
	// Insts and Cycles are the dynamic instruction count and modelled
	// cycle cost.
	Insts  uint64
	Cycles float64
	// AEXCount is the number of asynchronous exits observed.
	AEXCount uint64
}

// Run transfers control to the verified service.
func (e *Enclave) Run(opts RunOptions) (*Result, error) {
	res, err := e.b.Run(runtime.RunConfig{
		Gas:         opts.Gas,
		AEXInterval: opts.AEXInterval,
		AEXSeed:     opts.AEXSeed,
	})
	if err != nil {
		return nil, err
	}
	out := &Result{
		ExitValue: res.CPU.ExitValue,
		Outputs:   res.Outputs,
		Insts:     res.CPU.Insts,
		Cycles:    res.CPU.Cycles,
		AEXCount:  res.CPU.AEXCount,
	}
	switch res.CPU.Status {
	case cpu.StatusHalt:
	case cpu.StatusTrap:
		out.Trapped = true
		out.TrapReason = res.CPU.Trap.String()
	case cpu.StatusFault:
		out.Trapped = true
		out.TrapReason = fmt.Sprintf("memory fault: %v", res.CPU.Fault)
	}
	return out, nil
}

// ThreadResult is one thread's outcome in a multi-threaded run.
type ThreadResult struct {
	Thread int
	Result
}

// RunThreads executes the verified service on n enclave threads (requires
// EnclaveOptions.Threads >= n): each thread enters the program with its own
// stack and shadow stack, sharing code, globals and heap; the DC builtin
// __tid() returns the thread index. See runtime.Bootstrap.RunThreads for
// scheduling semantics.
func (e *Enclave) RunThreads(n int, opts RunOptions) ([]ThreadResult, error) {
	rs, err := e.b.RunThreads(n, runtime.RunConfig{
		Gas:         opts.Gas,
		AEXInterval: opts.AEXInterval,
		AEXSeed:     opts.AEXSeed,
	}, 0)
	if err != nil {
		return nil, err
	}
	out := make([]ThreadResult, 0, len(rs))
	for _, r := range rs {
		tr := ThreadResult{Thread: r.Thread}
		tr.ExitValue = r.CPU.ExitValue
		tr.Insts = r.CPU.Insts
		tr.Cycles = r.CPU.Cycles
		tr.AEXCount = r.CPU.AEXCount
		switch r.CPU.Status {
		case cpu.StatusHalt:
		case cpu.StatusTrap:
			tr.Trapped = true
			tr.TrapReason = r.CPU.Trap.String()
		case cpu.StatusFault:
			tr.Trapped = true
			tr.TrapReason = fmt.Sprintf("memory fault: %v", r.CPU.Fault)
		}
		out = append(out, tr)
	}
	return out, nil
}

// ResetIO clears queued inputs and collected outputs between runs.
func (e *Enclave) ResetIO() { e.b.ResetIO() }

// OpenOutput unpads (and with a key, AES-GCM decrypts) an output message
// on the data-owner side: the inverse of the bootstrap's output sealing.
func OpenOutput(key, sealed []byte) ([]byte, error) {
	if key == nil {
		return runtime.Unpad(sealed)
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("deflection: %w", err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("deflection: %w", err)
	}
	if len(sealed) < gcm.NonceSize() {
		return nil, errors.New("deflection: sealed message too short")
	}
	padded, err := gcm.Open(nil, sealed[:gcm.NonceSize()], sealed[gcm.NonceSize():], nil)
	if err != nil {
		return nil, fmt.Errorf("deflection: %w", err)
	}
	return runtime.Unpad(padded)
}
