// Package runtime implements the bootstrap enclave (paper Section V-B): the
// public, attestable control layer that receives the target binary and user
// data through its ECall interface, runs the loader and verifier, rewrites
// annotation immediates, and supervises execution behind P0-enforcing OCall
// stubs (interface restriction, output encryption, padding and entropy
// control).
package runtime

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"deflection/internal/cpu"
	"deflection/internal/enclave"
	"deflection/internal/isa"
	"deflection/internal/loader"
	"deflection/internal/obj"
	"deflection/internal/policy"
	"deflection/internal/stage"
	"deflection/internal/taint"
	"deflection/internal/verifier"
)

// Version identifies the bootstrap enclave build; it is part of the
// measured identity.
const Version = "deflection-bootstrap-1.0"

// Manifest is the enclave configuration (the paper's EDL-file analogue): it
// fixes the required policy set and the P0 interface constraints, and is
// part of the enclave's measured identity so remote parties can attest it.
type Manifest struct {
	// Policies the target binary must be instrumented for.
	Policies policy.Set
	// AllowedOcalls whitelists OCall indices (P0 interface restriction).
	AllowedOcalls []int64
	// OutputPadBlock pads every outbound message to a multiple of this
	// size (P0 covert-channel mitigation); 0 selects 256 bytes.
	OutputPadBlock int
	// OutputBudgetBits caps the total plaintext bits the service may send
	// out (P0 entropy control); 0 means unlimited.
	OutputBudgetBits int
	// AEXCheckMaxGap is handed to the verifier (0 = default).
	AEXCheckMaxGap int
	// TimePadQuantum, when non-zero, pads every execution's modelled cycle
	// cost up to the next multiple of this quantum before results are
	// released — the "on-demand aligning/blurring processing time"
	// mitigation for processing-time covert channels the paper discusses
	// in Section VII.
	TimePadQuantum float64
}

// DefaultManifest returns a manifest enforcing the full policy set.
func DefaultManifest() Manifest {
	return Manifest{
		Policies:      policy.SetAll,
		AllowedOcalls: []int64{policy.OcallSend, policy.OcallRecv, policy.OcallPrint, policy.OcallThreadID},
	}
}

// Fingerprint returns the canonical serialisation of the manifest — the
// same bytes that enter the measured identity. The verification plane keys
// its verdict cache on it: two manifests with equal fingerprints demand
// identical verification of any given binary. Zero-value defaults are
// normalised first (New applies the same normalisation before measuring),
// so a manifest compares equal to its launched form.
func (m Manifest) Fingerprint() []byte {
	if m.OutputPadBlock == 0 {
		m.OutputPadBlock = defaultOutputPadBlock
	}
	return m.identity()
}

// identity serialises the manifest into the measured identity.
func (m Manifest) identity() []byte {
	id := fmt.Sprintf("%s|policies=%s|ocalls=%v|pad=%d|budget=%d|gap=%d|tpad=%g",
		Version, m.Policies, m.AllowedOcalls, m.OutputPadBlock, m.OutputBudgetBits, m.AEXCheckMaxGap, m.TimePadQuantum)
	return []byte(id)
}

// LoadReport summarises a successful load+verify+rewrite cycle; the
// bootstrap enclave sends the binary hash to the data owner so she can
// recognise the service she expects (Section III-A key agreement).
type LoadReport struct {
	BinaryHash [32]byte
	Stats      verifier.Stats
	Rewrites   loader.RewriteStats
	TextSize   int
	// Trace is the stage trace of this load: parse, P0 interface audit,
	// load, the verifier's phases (disasm, per-policy template checks,
	// discipline closure, CFA passes), rewrite, and the install into
	// enclave memory (install_text, install_data, install_table, and
	// edmm_seal under SGXv2).
	Trace *stage.Trace
	// Audit is the per-policy verdict trail, P0 first then the verifier's
	// P1-P8 entries.
	Audit []verifier.PolicyAudit
}

// RunResult is the outcome of executing the loaded service.
type RunResult struct {
	CPU cpu.Result
	// Outputs are the messages sent through the send stub, after padding
	// (and encryption when a session key is set).
	Outputs [][]byte
	// Debug collects __ocall_print values (development aid; disabled when
	// the manifest omits OcallPrint).
	Debug []int64
}

// Bootstrap is a bootstrap enclave instance.
//
// Not safe for concurrent use: it models a single enclave thread.
type Bootstrap struct {
	manifest Manifest
	encl     *enclave.Enclave

	// loaded is the record of the binary installed in the enclave, nil
	// before the first successful load. Its Data may stop at the end of
	// .data: the .bss beyond it is zero in enclave memory.
	loaded *Image

	sessionKey []byte // 16/24/32-byte AES key; nil = plaintext outputs

	inputs   [][]byte
	inputPos int

	outputs  [][]byte
	debug    []int64
	sentBits int

	allowed map[int64]bool
	// tids maps CPUs to thread indices during a RunThreads execution.
	tids map[*cpu.CPU]int

	// traceClock, when set, replaces the wall clock for every span of the
	// stage traces, the verifier's included (deterministic traces in tests).
	traceClock func() time.Time

	// traceMu guards lastTrace: loads run one at a time per Bootstrap, but
	// the verification plane's worker pool inspects traces from other
	// goroutines, so the handoff must be race-clean.
	traceMu   sync.Mutex
	lastTrace *stage.Trace
}

// SetTraceClock installs a deterministic clock for stage traces (tests).
func (b *Bootstrap) SetTraceClock(clock func() time.Time) { b.traceClock = clock }

// LastTrace returns the stage trace of the most recent ReceiveBinary or
// InstallImage call (including a failed one), or nil before the first call.
// Safe to call from a goroutine other than the one loading.
func (b *Bootstrap) LastTrace() *stage.Trace {
	b.traceMu.Lock()
	defer b.traceMu.Unlock()
	return b.lastTrace
}

// setLastTrace records the trace of an in-progress load.
func (b *Bootstrap) setLastTrace(tr *stage.Trace) {
	b.traceMu.Lock()
	b.lastTrace = tr
	b.traceMu.Unlock()
}

// ErrNotLoaded is returned when Run is called before a successful load.
var ErrNotLoaded = errors.New("runtime: no verified binary loaded")

// ErrPolicyMismatch is returned when the binary does not claim the policies
// the manifest requires.
var ErrPolicyMismatch = errors.New("runtime: binary policy mask does not cover manifest")

// defaultOutputPadBlock is the output padding applied when the manifest
// leaves OutputPadBlock zero.
const defaultOutputPadBlock = 256

// launched checks m and applies its zero-value defaults, as New does
// before measuring it.
func (m Manifest) launched() (Manifest, error) {
	if m.OutputPadBlock < 0 {
		return m, fmt.Errorf("runtime: negative output pad block %d", m.OutputPadBlock)
	}
	if m.OutputPadBlock == 0 {
		m.OutputPadBlock = defaultOutputPadBlock
	}
	return m, nil
}

// New launches a bootstrap enclave with the given memory configuration and
// manifest.
func New(cfg enclave.Config, m Manifest) (*Bootstrap, error) {
	m, err := m.launched()
	if err != nil {
		return nil, err
	}
	e, err := enclave.New(cfg, m.identity())
	if err != nil {
		return nil, err
	}
	b := &Bootstrap{
		manifest: m,
		encl:     e,
		allowed:  make(map[int64]bool, len(m.AllowedOcalls)),
	}
	for _, idx := range m.AllowedOcalls {
		b.allowed[idx] = true
	}
	return b, nil
}

// Enclave exposes the underlying enclave (measurement, layout).
func (b *Bootstrap) Enclave() *enclave.Enclave { return b.encl }

// Measurement returns the launch measurement used in attestation quotes.
func (b *Bootstrap) Measurement() [32]byte { return b.encl.Measurement() }

// Manifest returns the enclave's (immutable) manifest.
func (b *Bootstrap) Manifest() Manifest { return b.manifest }

// SetSessionKey installs the AES key negotiated during attestation; outputs
// are then AES-GCM sealed.
func (b *Bootstrap) SetSessionKey(key []byte) error {
	switch len(key) {
	case 16, 24, 32:
		b.sessionKey = append([]byte(nil), key...)
		return nil
	default:
		return fmt.Errorf("runtime: invalid session key length %d", len(key))
	}
}

// ReceiveBinary is the ecall_receive_binary analogue: parse, load, verify
// and rewrite the target binary, then install it. The code provider never
// exposes source; only this object and its proof cross the boundary. A
// rejected binary never reaches enclave memory.
func (b *Bootstrap) ReceiveBinary(objBytes []byte) (*LoadReport, error) {
	tr := stage.NewTraceWithClock("receive_binary", b.traceClock)
	b.setLastTrace(tr) // kept even on rejection, so failures can be examined
	img, err := build(objBytes, b.manifest, b.encl.Layout, tr)
	if err != nil {
		return nil, err
	}
	return b.install(img, tr)
}

// BuildImage is ReceiveBinary without an enclave: it verifies objBytes
// under m for an enclave of layout l and returns the installable Image,
// .bss included, with the receive_binary stage trace of the attempt (also
// on rejection). m is normalised as New normalises it, so the image's
// evidence is what a bootstrap launched with m and l would report.
func BuildImage(objBytes []byte, m Manifest, l enclave.Layout) (*Image, *stage.Trace, error) {
	tr := stage.NewTraceWithClock("receive_binary", nil)
	m, err := m.launched()
	if err != nil {
		return nil, tr, err
	}
	img, err := build(objBytes, m, l, tr)
	if err != nil {
		return nil, tr, err
	}
	return img.withBSS(), tr, nil
}

// build runs the bootstrap's chain up to the verdict — parse, the P0
// audit, relocation for l, verification and immediate rewriting — timing
// each stage into tr. It never touches enclave memory. The image it
// returns holds .data without the zeroed .bss.
func build(objBytes []byte, m Manifest, l enclave.Layout, tr *stage.Trace) (*Image, error) {
	tm := tr.Start("parse")
	o, err := obj.Unmarshal(objBytes)
	if err != nil {
		tm.End("error", err.Error())
		return nil, err
	}
	tm.End("obj_bytes", len(objBytes), "policy_mask", policy.Set(o.PolicyMask).String())

	// P0 is enforced by the bootstrap enclave itself — interface
	// restriction, output sealing and entropy budget — so its audit entry
	// is produced here, not by the verifier.
	tm = tr.Start("policy/P0")
	instrumented := m.Policies &^ policy.Bit(policy.P0) // P0 is enclave config, not code
	maskOK := policy.Set(o.PolicyMask)&instrumented == instrumented
	p0 := verifier.PolicyAudit{
		Policy:   policy.P0,
		Required: m.Policies.Has(policy.P0),
		Passed:   maskOK,
		Checks:   1 + len(m.AllowedOcalls),
		Detail: fmt.Sprintf("interface restricted to %d whitelisted ocalls, outputs padded to %d-byte blocks, entropy budget %d bits",
			len(m.AllowedOcalls), m.OutputPadBlock, m.OutputBudgetBits),
	}
	tm.End("ocalls", len(m.AllowedOcalls), "passed", maskOK)
	if !maskOK {
		return nil, fmt.Errorf("%w: binary claims %s, manifest requires %s",
			ErrPolicyMismatch, policy.Set(o.PolicyMask), instrumented)
	}

	tm = tr.Start("load")
	ld, err := loader.Load(l, o)
	if err != nil {
		tm.End("error", err.Error())
		return nil, err
	}
	tm.End("text_bytes", len(ld.Text), "branch_targets", len(ld.BranchTargets))

	opts := VerifyOptions(ld, instrumented)
	opts.AEXCheckMaxGap = m.AEXCheckMaxGap
	opts.Trace = tr
	vr, err := verifier.Verify(ld.Text, opts)
	if err != nil {
		return nil, err
	}

	tm = tr.Start("rewrite")
	rw, err := loader.RewriteImmediates(ld, vr.Dis)
	if err != nil {
		tm.End("error", err.Error())
		return nil, err
	}
	tm.End("store_bounds", rw.StoreBounds, "stack_bounds", rw.StackBounds, "ssa_sites", rw.SSASites)
	return &Image{
		BinaryHash:    sha256.Sum256(objBytes),
		Entry:         ld.Entry,
		TextBase:      ld.TextBase,
		TextEnd:       ld.TextBase + uint64(len(ld.Text)),
		DataBase:      ld.DataBase,
		HeapFree:      ld.HeapFree,
		Text:          ld.Text,
		Data:          ld.Data,
		BranchTable:   ld.Table,
		BranchTargets: ld.BranchTargets,
		AnnotRanges:   vr.AnnotRanges,
		Stats:         vr.Stats,
		Rewrites:      rw,
		Audit:         append([]verifier.PolicyAudit{p0}, vr.Audit...),
		Layout:        l,
	}, nil
}

// ReceiveData is the ecall_receive_userdata analogue: queue an input buffer
// for the service to consume through its recv stub.
func (b *Bootstrap) ReceiveData(data []byte) {
	b.inputs = append(b.inputs, append([]byte(nil), data...))
}

// ResetIO clears queued inputs and collected outputs between runs.
func (b *Bootstrap) ResetIO() {
	b.inputs = nil
	b.inputPos = 0
	b.outputs = nil
	b.debug = nil
	b.sentBits = 0
}

// RunConfig tunes one execution.
type RunConfig struct {
	Gas         uint64
	AEXInterval uint64
	AEXSeed     int64
	// Timing overrides the default cycle model when non-zero.
	Timing cpu.TimingModel
	// FlatAnnotationCost withholds the verifier's annotation ranges from
	// the timing model, charging annotation instructions at their full
	// class costs — the ablation of DESIGN.md §5 quantifying what the
	// out-of-order discount is worth.
	FlatAnnotationCost bool
	// Trace observes every retired instruction (debugging aid).
	Trace func(rip uint64, in isa.Inst)
}

// VerifyOptions builds the verifier's inputs for a loaded binary under the
// required policy set req: the entry and the branch-target list as text
// offsets, the P7 taint geometry (the secret table resolved to absolute
// ranges, the store window and its stack subrange) and the declared P8
// protocol. ReceiveBinary adds only the manifest's AEX gap and its trace;
// tools and benchmarks that call the verifier directly on a loaded binary
// use it unchanged.
func VerifyOptions(ld *loader.Loaded, req policy.Set) verifier.Options {
	l := ld.Layout
	opts := verifier.Options{
		Required:            req,
		EntryOffset:         int64(ld.Entry - ld.TextBase),
		BranchTargetOffsets: make([]int64, 0, len(ld.BranchTargets)),
		Taint: taint.Config{
			DataLo:  l.StoreLo(),
			DataHi:  l.StoreHi(),
			StackLo: l.StackLo,
			StackHi: l.StackHi,
		},
		Order: ld.Object.Protocol,
	}
	for _, t := range ld.BranchTargets {
		opts.BranchTargetOffsets = append(opts.BranchTargetOffsets, int64(t-ld.TextBase))
	}
	for _, name := range ld.Object.Secrets {
		// Unmarshal validated that every secret names a defined data
		// object; a zero-size range is rejected later by Config.validate.
		s, _ := ld.Object.Symbol(name)
		base := ld.Symbols[name]
		opts.Taint.Secrets = append(opts.Taint.Secrets, taint.Range{Lo: base, Hi: base + uint64(s.Size)})
	}
	return opts
}

// AnnotRangeSet converts the verifier's annotation spans to absolute
// addresses for the CPU timing model.
func (b *Bootstrap) AnnotRangeSet() cpu.RangeSet {
	if b.loaded == nil {
		return cpu.NewRangeSet(nil)
	}
	rs := make([]cpu.Range, 0, len(b.loaded.AnnotRanges))
	for _, r := range b.loaded.AnnotRanges {
		rs = append(rs, cpu.Range{
			Lo: b.loaded.TextBase + uint64(r.Lo),
			Hi: b.loaded.TextBase + uint64(r.Hi),
		})
	}
	return cpu.NewRangeSet(rs)
}

// Run transfers control to the verified service binary.
func (b *Bootstrap) Run(rc RunConfig) (*RunResult, error) {
	if b.loaded == nil {
		return nil, ErrNotLoaded
	}
	l := b.encl.Layout
	return b.result(b.newCPU(rc, l.StackHi, l.ShadowBase, rc.AEXSeed).Run()), nil
}

// newCPU binds a CPU to the enclave at the program entry, configured by rc,
// with the given stack top, shadow-stack base and AEX seed. Run and every
// RunThreads thread are built here, so each honours all of rc.
func (b *Bootstrap) newCPU(rc RunConfig, stackHi, shadowBase uint64, aexSeed int64) *cpu.CPU {
	annot := b.AnnotRangeSet()
	if rc.FlatAnnotationCost {
		annot = cpu.NewRangeSet(nil)
	}
	c := cpu.New(b.encl, cpu.Config{
		Gas:         rc.Gas,
		Timing:      rc.Timing,
		AnnotRanges: annot,
		AEXInterval: rc.AEXInterval,
		AEXSeed:     aexSeed,
		Ocall:       b.ocall,
		Trace:       rc.Trace,
	})
	c.RIP = b.loaded.Entry
	c.Regs[isa.RSP] = stackHi
	c.Regs[isa.RegShadow] = shadowBase
	return c
}

// result pads the run's modelled time and collects its outputs.
func (b *Bootstrap) result(res cpu.Result) *RunResult {
	b.padTime(&res)
	return &RunResult{CPU: res, Outputs: b.outputs, Debug: b.debug}
}

// padTime rounds the modelled execution time up to the manifest's quantum,
// hiding fine-grained processing-time variation from the host.
func (b *Bootstrap) padTime(res *cpu.Result) {
	q := b.manifest.TimePadQuantum
	if q <= 0 {
		return
	}
	blocks := math.Ceil(res.Cycles / q)
	res.Cycles = blocks * q
}

// ThreadResult is one thread's outcome in a multi-threaded run.
type ThreadResult struct {
	Thread int
	CPU    cpu.Result
}

// RunThreads executes the loaded service on n enclave threads (paper
// Section VII): every thread enters the program entry with its own stack,
// shadow stack and SSA frame, sharing code, globals and heap. Execution is
// interleaved deterministically (round-robin time slices of sliceInsts
// instructions, default 1000), so runs reproduce bit-for-bit given the same
// inputs — the harness's stand-in for true parallel TCS scheduling.
//
// P6 is single-thread state (one marker per SSA frame but one rewritten
// marker address), so multi-threaded runs should use policy sets up to
// P1-P5; this mirrors the paper, which leaves multi-threaded side-channel
// monitoring as future work.
func (b *Bootstrap) RunThreads(n int, rc RunConfig, sliceInsts uint64) ([]ThreadResult, error) {
	return b.runThreads(n, rc, sliceInsts, (*cpu.CPU).RunUntil)
}

// runThreads is RunThreads with each time slice executed by slice, which
// runs a CPU until it has retired end instructions in all or stops, and
// returns what cpu.CPU.Result then returns.
func (b *Bootstrap) runThreads(n int, rc RunConfig, sliceInsts uint64, slice func(c *cpu.CPU, end uint64) (cpu.Result, bool)) ([]ThreadResult, error) {
	if b.loaded == nil {
		return nil, ErrNotLoaded
	}
	l := b.encl.Layout
	if n < 1 || n > l.Threads {
		return nil, fmt.Errorf("runtime: %d threads requested, %d provisioned", n, l.Threads)
	}
	if sliceInsts == 0 {
		sliceInsts = 1000
	}
	cpus := make([]*cpu.CPU, n)
	tids := make(map[*cpu.CPU]int, n)
	for i := 0; i < n; i++ {
		c := b.newCPU(rc, l.StackHiFor(i), l.ShadowBaseFor(i), rc.AEXSeed+int64(i))
		cpus[i] = c
		tids[c] = i
	}
	b.tids = tids
	defer func() { b.tids = nil }()

	results := make([]ThreadResult, n)
	done := make([]bool, n)
	remaining := n
	for remaining > 0 {
		for i, c := range cpus {
			if done[i] {
				continue
			}
			if res, over := slice(c, c.Insts()+sliceInsts); over {
				b.padTime(&res)
				results[i] = ThreadResult{Thread: i, CPU: res}
				done[i] = true
				remaining--
			}
		}
	}
	return results, nil
}

// maxIOSize bounds a single OCall transfer.
const maxIOSize = 1 << 20

// ocall is the OCall stub table (P0): only whitelisted indices are
// serviceable, send output is padded/encrypted and budgeted, recv input is
// copied into enclave memory by the trusted wrapper.
func (b *Bootstrap) ocall(c *cpu.CPU, index int64) (isa.TrapCode, error) {
	if !b.allowed[index] {
		return isa.TrapOcallDenied, nil
	}
	switch index {
	case policy.OcallSend:
		ptr, n := c.Regs[isa.RDI], int64(c.Regs[isa.RSI])
		if n < 0 || n > maxIOSize {
			return isa.TrapOcallDenied, nil
		}
		if b.manifest.OutputBudgetBits > 0 && b.sentBits+int(n)*8 > b.manifest.OutputBudgetBits {
			return isa.TrapOcallDenied, nil
		}
		buf, f := c.Mem.Read(ptr, int(n))
		if f != nil {
			return isa.TrapPageFault, nil
		}
		b.sentBits += int(n) * 8
		msg, err := b.seal(buf)
		if err != nil {
			return 0, err
		}
		b.outputs = append(b.outputs, msg)
		c.Regs[isa.RAX] = uint64(n)
		return 0, nil

	case policy.OcallRecv:
		ptr, capN := c.Regs[isa.RDI], int64(c.Regs[isa.RSI])
		if capN < 0 || capN > maxIOSize {
			return isa.TrapOcallDenied, nil
		}
		if b.inputPos >= len(b.inputs) {
			c.Regs[isa.RAX] = 0
			return 0, nil
		}
		in := b.inputs[b.inputPos]
		b.inputPos++
		if int64(len(in)) > capN {
			in = in[:capN]
		}
		if f := c.Mem.Write(ptr, in); f != nil {
			return isa.TrapPageFault, nil
		}
		c.Regs[isa.RAX] = uint64(len(in))
		return 0, nil

	case policy.OcallPrint:
		b.debug = append(b.debug, int64(c.Regs[isa.RDI]))
		return 0, nil

	case policy.OcallThreadID:
		c.Regs[isa.RAX] = uint64(b.tids[c]) // 0 for single-threaded runs
		return 0, nil

	default:
		return isa.TrapOcallDenied, nil
	}
}

// seal pads the message to the manifest's block size (so message length
// leaks at most the block count) and AES-GCM encrypts it under the session
// key when one is set.
func (b *Bootstrap) seal(msg []byte) ([]byte, error) {
	padded := padToBlock(msg, b.manifest.OutputPadBlock)
	if b.sessionKey == nil {
		return padded, nil
	}
	block, err := aes.NewCipher(b.sessionKey)
	if err != nil {
		return nil, fmt.Errorf("runtime: %w", err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, gcm.NonceSize())
	if _, err := rand.Read(nonce); err != nil {
		return nil, fmt.Errorf("runtime: %w", err)
	}
	return gcm.Seal(nonce, nonce, padded, nil), nil
}

// padToBlock frames msg with a length prefix and pads the frame to a block
// multiple, so all outputs of similar size are indistinguishable.
func padToBlock(msg []byte, block int) []byte {
	frame := make([]byte, 4+len(msg))
	frame[0] = byte(len(msg))
	frame[1] = byte(len(msg) >> 8)
	frame[2] = byte(len(msg) >> 16)
	frame[3] = byte(len(msg) >> 24)
	copy(frame[4:], msg)
	rem := len(frame) % block
	if rem != 0 {
		frame = append(frame, make([]byte, block-rem)...)
	}
	return frame
}

// Unpad recovers the message from a padded frame.
func Unpad(frame []byte) ([]byte, error) {
	if len(frame) < 4 {
		return nil, errors.New("runtime: frame too short")
	}
	n := int(frame[0]) | int(frame[1])<<8 | int(frame[2])<<16 | int(frame[3])<<24
	if n < 0 || 4+n > len(frame) {
		return nil, errors.New("runtime: corrupt frame length")
	}
	return frame[4 : 4+n], nil
}
