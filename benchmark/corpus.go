package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"deflection/internal/apps"
	"deflection/internal/compiler"
	"deflection/internal/dclib"
	"deflection/internal/nbench"
	"deflection/internal/policy"
	"deflection/internal/runtime"
)

// permissiveProtocol admits every interface event from one attested state:
// the P8 pass runs its full fixpoint and accepts.
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

// strictProtocol has no send edge. Every app sends its result, so the P8
// order pass rejects it after the whole pipeline has run.
const strictProtocol = `
protocol {
    state run attested;
    state end attested;
    run: recv -> run;
    run: print -> run;
    run: tid -> run;
    run: hlt -> end;
}
`

// app is one of the four macro-benchmark services.
type app struct {
	name, src string
}

var appList = []app{
	{"seqgen", apps.SeqGenSource},
	{"credit", apps.CreditSource},
	{"httpsrv", apps.HTTPSHandlerSource},
	{"nw", apps.NWSource},
}

// execKernels are the nBench kernels exec-heavy runs at their Table II
// parameters.
var execKernels = []string{"NUMERIC SORT", "FOURIER", "ASSIGNMENT", "IDEA", "HUFFMAN"}

// aexInterval is the Table II benign interrupt cadence.
const aexInterval = 400_000

// program is one compiled target binary.
type program struct {
	name string
	obj  []byte
}

// compileStats collects the compiler layer's per-call cost during set-up.
type compileStats struct {
	mu    sync.Mutex
	durs  []time.Duration
	bytes []int
}

func (c *compileStats) add(d time.Duration, n int) {
	c.mu.Lock()
	c.durs = append(c.durs, d)
	c.bytes = append(c.bytes, n)
	c.mu.Unlock()
}

// compile builds src (plus the DC support library) under pols.
func compile(cs *compileStats, name, src string, pols policy.Set) (program, error) {
	start := time.Now()
	o, err := compiler.Compile(dclib.Program(src), compiler.Options{Policies: pols})
	if err != nil {
		return program{}, fmt.Errorf("compiling %s: %w", name, err)
	}
	b := o.Marshal()
	cs.add(time.Since(start), len(b))
	return program{name: name, obj: b}, nil
}

// variantTag appends an unused initialised global. The compiler keeps it,
// so each variant hashes distinctly while executing the same instructions.
func variantTag(src string, v int) string {
	return src + fmt.Sprintf("\nint bench_variant_tag = %d;\n", v+1)
}

// job is one execution request: a binary, the messages the data owner
// uploads, and how to judge the outputs.
type job struct {
	// key names the job in expected.json and in the exact-count tables;
	// jobs with equal keys must retire equal instruction counts.
	key    string
	bin    program
	inputs [][]byte
	// nw, when set, holds the two aligned sequences: the result is judged
	// by the Needleman–Wunsch oracle instead of expected.json.
	nw *[2][]byte
}

// param encodes one read_param message.
func param(v int64) []byte { return apps.Param(v) }

// expectation is the committed answer for a job with fixed inputs.
type expectation struct {
	Exit  int64  `json:"exit"`
	Insts uint64 `json:"insts"`
	// Outputs is the SHA-256 of the unpadded output messages, each
	// prefixed with its 4-byte little-endian length.
	Outputs string `json:"outputs_sha256"`
}

//go:embed testdata/expected.json
var expectedJSON []byte

// loadExpected parses the committed answers.
func loadExpected() (map[string]expectation, error) {
	var m map[string]expectation
	if err := json.Unmarshal(expectedJSON, &m); err != nil {
		return nil, fmt.Errorf("testdata/expected.json: %w", err)
	}
	return m, nil
}

// outputsDigest hashes unpadded output messages.
func outputsDigest(outs [][]byte) string {
	h := sha256.New()
	for _, o := range outs {
		var n [4]byte
		binary.LittleEndian.PutUint32(n[:], uint32(len(o)))
		h.Write(n[:])
		h.Write(o)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// unpadAll strips the P0 output framing from every message.
func unpadAll(outs [][]byte) ([][]byte, error) {
	res := make([][]byte, len(outs))
	for i, o := range outs {
		m, err := runtime.Unpad(o)
		if err != nil {
			return nil, fmt.Errorf("output %d: %w", i, err)
		}
		res[i] = m
	}
	return res, nil
}

// nwScore is the Go oracle for the NW app: global alignment score with
// match +2, mismatch -1, gap -2.
func nwScore(a, b []byte) int64 {
	prev := make([]int64, len(b)+1)
	cur := make([]int64, len(b)+1)
	for j := range prev {
		prev[j] = -2 * int64(j)
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = -2 * int64(i)
		for j := 1; j <= len(b); j++ {
			s := int64(-1)
			if a[i-1] == b[j-1] {
				s = 2
			}
			best := prev[j-1] + s
			if up := prev[j] - 2; up > best {
				best = up
			}
			if left := cur[j-1] - 2; left > best {
				best = left
			}
			cur[j] = best
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// checkJob judges one execution. outs are the unpadded messages.
func checkJob(j *job, want map[string]expectation, exit int64, insts uint64, outs [][]byte) error {
	if j.nw != nil {
		score := nwScore(j.nw[0], j.nw[1])
		if exit != score&0x3FFFFFFF {
			return fmt.Errorf("%s: exit %d, oracle score %d", j.key, exit, score)
		}
		if len(outs) != 1 || len(outs[0]) != 8 || int64(binary.LittleEndian.Uint64(outs[0])) != score {
			return fmt.Errorf("%s: output does not carry oracle score %d", j.key, score)
		}
		return nil
	}
	e, ok := want[j.key]
	if !ok {
		return fmt.Errorf("%s: no entry in testdata/expected.json", j.key)
	}
	if exit != e.Exit || insts != e.Insts {
		return fmt.Errorf("%s: exit %d insts %d, want exit %d insts %d", j.key, exit, insts, e.Exit, e.Insts)
	}
	if d := outputsDigest(outs); d != e.Outputs {
		return fmt.Errorf("%s: outputs digest %s, want %s", j.key, d[:16], e.Outputs[:16])
	}
	return nil
}

// nwJob builds an alignment job over two seeded sequences of lengths n, m.
func nwJob(key string, bin program, n, m int, r *rand.Rand) job {
	a := apps.RandomSequence(n, r.Uint64())
	b := apps.RandomSequence(m, r.Uint64())
	return job{key: key, bin: bin, inputs: [][]byte{a, b}, nw: &[2][]byte{a, b}}
}

// sessionJob is the short job a session runs on app a's binary bin. The NW
// sequences come from r and are told apart by idx; every other job has
// fixed inputs.
func sessionJob(a string, idx int, bin program, r *rand.Rand) job {
	switch a {
	case "nw":
		return nwJob(fmt.Sprintf("nw-16x16#%d", idx), bin, 16, 16, r)
	case "credit":
		return job{key: "credit-50@p1-p8", bin: bin, inputs: [][]byte{param(50)}}
	case "seqgen":
		return job{key: "seqgen-200@p1-p8", bin: bin, inputs: [][]byte{param(200), param(7)}}
	case "httpsrv":
		return job{key: "httpsrv-4096@p1-p8", bin: bin, inputs: [][]byte{param(4096)}}
	}
	panic("unknown app " + a)
}

// kernelJob builds an nBench kernel job under P1-P6 at its Table II
// parameters.
func kernelJob(cs *compileStats, name string) (job, error) {
	k, ok := nbench.KernelByName(name)
	if !ok {
		return job{}, fmt.Errorf("unknown kernel %q", name)
	}
	bin, err := compile(cs, name, k.Source, policy.SetP1P6)
	if err != nil {
		return job{}, err
	}
	j := job{key: name + "@p1-p6", bin: bin}
	for _, p := range k.Params {
		j.inputs = append(j.inputs, param(p))
	}
	return j, nil
}

// shuffled returns a seeded permutation of 0..n-1.
func shuffled(r *rand.Rand, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// cycleSchedule repeats seeded shuffles of 0..n-1 to length l, so every
// window of n consecutive ops from a cycle start covers the corpus once.
func cycleSchedule(r *rand.Rand, n, l int) []int {
	out := make([]int, 0, l)
	for len(out) < l {
		out = append(out, shuffled(r, n)...)
	}
	return out[:l]
}
