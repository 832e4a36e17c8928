package apps

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"deflection/internal/compiler"
	"deflection/internal/cpu"
	"deflection/internal/dclib"
	"deflection/internal/enclave"
	"deflection/internal/loader"
	"deflection/internal/obj"
	"deflection/internal/policy"
	"deflection/internal/runtime"
	"deflection/internal/verifier"
)

// Result is the outcome of one application execution.
type Result struct {
	Exit    int64
	Status  cpu.Status
	Trap    string
	Insts   uint64
	Cycles  float64
	Outputs [][]byte
	// Stats are the verifier's counts for the binary that ran.
	Stats verifier.Stats
}

// Ok reports whether the run halted normally with a non-negative exit.
func (r *Result) Ok() bool { return r.Status == cpu.StatusHalt && r.Exit >= 0 }

// RunConfig tunes an application execution. The zero value runs the
// uninstrumented baseline on the default enclave and cycle model.
type RunConfig struct {
	Policies    policy.Set
	AEXInterval uint64
	Gas         uint64
	Config      enclave.Config  // zero value selects the default config
	Timing      cpu.TimingModel // zero value selects the default model
	// FlatAnnotationCost charges annotation instructions at their full
	// class costs (runtime.RunConfig.FlatAnnotationCost).
	FlatAnnotationCost bool
	// AEXCheckInterval is the generator's q, the most instructions between
	// P6 SSA checks (0 = the compiler default). A non-zero q also sets the
	// manifest's AEXCheckMaxGap to 2q+64.
	AEXCheckInterval int
}

// objKey is everything a compiled object depends on: the source and each
// compiler option the harness sets.
type objKey struct {
	src  string
	pols policy.Set
	q    int
}

// objCache compiles each (source, options) once and keeps the marshalled
// object.
type objCache struct {
	mu   sync.Mutex
	objs map[objKey][]byte
}

var objects = &objCache{objs: make(map[objKey][]byte)}

func (c *objCache) compile(name, src string, rc RunConfig) ([]byte, error) {
	key := objKey{src, rc.Policies, rc.AEXCheckInterval}
	c.mu.Lock()
	defer c.mu.Unlock()
	if b, ok := c.objs[key]; ok {
		return b, nil
	}
	o, err := compiler.Compile(dclib.Program(src), compiler.Options{Policies: rc.Policies, AEXCheckInterval: rc.AEXCheckInterval})
	if err != nil {
		return nil, fmt.Errorf("apps: compiling %s: %w", name, err)
	}
	b := o.Marshal()
	c.objs[key] = b
	return b, nil
}

// Loaded is a compiled application verified into a fresh bootstrap
// enclave, ready to run once.
type Loaded struct {
	rc RunConfig
	b  *runtime.Bootstrap
	// Report is the bootstrap's load report: verifier stats and the stage
	// trace.
	Report *runtime.LoadReport
	// LoadTime is the wall time of the ReceiveBinary call alone.
	LoadTime time.Duration
}

// Load compiles src under rc (cached) and loads it into a fresh bootstrap
// enclave whose manifest requires rc.Policies.
func Load(name, src string, rc RunConfig) (*Loaded, error) {
	objBytes, err := objects.compile(name, src, rc)
	if err != nil {
		return nil, err
	}
	cfg := rc.Config
	if cfg == (enclave.Config{}) {
		cfg = enclave.DefaultConfig()
	}
	m := runtime.DefaultManifest()
	m.Policies = rc.Policies
	if q := rc.AEXCheckInterval; q != 0 {
		m.AEXCheckMaxGap = 2*q + 64
	}
	b, err := runtime.New(cfg, m)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	rep, err := b.ReceiveBinary(objBytes)
	if err != nil {
		return nil, fmt.Errorf("apps: loading %s: %w", name, err)
	}
	return &Loaded{rc: rc, b: b, Report: rep, LoadTime: time.Since(start)}, nil
}

// Run feeds the given input messages to the loaded application and
// executes it.
func (l *Loaded) Run(inputs ...[]byte) (*Result, error) {
	for _, in := range inputs {
		l.b.ReceiveData(in)
	}
	res, err := l.b.Run(runtime.RunConfig{Gas: l.rc.Gas, AEXInterval: l.rc.AEXInterval, AEXSeed: 1,
		Timing: l.rc.Timing, FlatAnnotationCost: l.rc.FlatAnnotationCost})
	if err != nil {
		return nil, err
	}
	out := &Result{
		Exit:    res.CPU.ExitValue,
		Status:  res.CPU.Status,
		Insts:   res.CPU.Insts,
		Cycles:  res.CPU.Cycles,
		Outputs: res.Outputs,
		Stats:   l.Report.Stats,
	}
	if res.CPU.Status == cpu.StatusTrap {
		out.Trap = res.CPU.Trap.String()
	}
	return out, nil
}

// Run compiles (with caching), loads and executes a DC application,
// feeding it the given input messages. It is the evaluation tooling's one
// compile→load→run path.
func Run(name, src string, rc RunConfig, inputs ...[]byte) (*Result, error) {
	l, err := Load(name, src, rc)
	if err != nil {
		return nil, err
	}
	return l.Run(inputs...)
}

// VerifyInput compiles src under pols (cached) and returns what
// VerifyObject returns for it.
func VerifyInput(name, src string, pols policy.Set) ([]byte, verifier.Options, error) {
	objBytes, err := objects.compile(name, src, RunConfig{Policies: pols})
	if err != nil {
		return nil, verifier.Options{}, err
	}
	o, err := obj.Unmarshal(objBytes)
	if err != nil {
		return nil, verifier.Options{}, err
	}
	return VerifyObject(o, pols)
}

// VerifyObject relocates o for the default enclave layout exactly as the
// runtime does and returns the relocated text with the verifier options
// that load implies under pols: entry, branch-target list, the P7 secret
// geometry and the P8 protocol. Tools and benchmarks that call
// verifier.Verify directly share it.
func VerifyObject(o *obj.Object, pols policy.Set) ([]byte, verifier.Options, error) {
	ld, err := loader.Load(enclave.DefaultConfig().Layout(), o)
	if err != nil {
		return nil, verifier.Options{}, fmt.Errorf("load: %w", err)
	}
	return ld.Text, runtime.VerifyOptions(ld, pols), nil
}

// Param encodes an integer parameter message for read_param.
func Param(v int64) []byte {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(v))
	return buf[:]
}

// AlignGenomes runs Needleman–Wunsch alignment of a and b (each at most
// 700 bases) under the given configuration and returns the result; the
// alignment score is Exit (masked non-negative) and is also sent through
// the P0 output channel.
func AlignGenomes(rc RunConfig, a, b []byte) (*Result, error) {
	if len(a) == 0 || len(b) == 0 || len(a) > 700 || len(b) > 700 {
		return nil, fmt.Errorf("apps: sequence lengths %d/%d out of range", len(a), len(b))
	}
	return Run("nw", NWSource, rc, a, b)
}

// GenerateSequence produces length nucleotides, streamed out in chunks.
func GenerateSequence(rc RunConfig, length int64, seed int64) (*Result, error) {
	return Run("seqgen", SeqGenSource, rc, Param(length), Param(seed))
}

// CreditScore trains and scores the given number of applicant records.
func CreditScore(rc RunConfig, records int64) (*Result, error) {
	return Run("credit", CreditSource, rc, Param(records))
}

// RandomSequence generates a deterministic synthetic FASTA-style sequence
// (substitute for the paper's 1000 Genomes inputs; Needleman–Wunsch cost
// depends only on length).
func RandomSequence(n int, seed uint64) []byte {
	const alphabet = "ACGT"
	out := make([]byte, n)
	state := seed*6364136223846793005 + 1442695040888963407
	for i := range out {
		state = state*6364136223846793005 + 1442695040888963407
		out[i] = alphabet[(state>>33)&3]
	}
	return out
}
