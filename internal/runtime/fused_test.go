package runtime_test

import (
	"bytes"
	"reflect"
	"testing"

	"deflection/internal/apps"
	"deflection/internal/compiler"
	"deflection/internal/dclib"
	"deflection/internal/enclave"
	"deflection/internal/isa"
	"deflection/internal/nbench"
	"deflection/internal/policy"
	"deflection/internal/runtime"
)

// retired folds a retired-instruction stream into a count and a hash, so
// that runs of millions of instructions compare without keeping them.
type retired struct{ n, sum uint64 }

// add is a cpu.Config.Trace hook: it folds rip and every field of in into
// the hash, a word at a time.
func (r *retired) add(rip uint64, in isa.Inst) {
	m := &in.Mem
	regs := uint64(in.Op) | uint64(in.Dst)<<8 | uint64(in.Src)<<16 | uint64(in.Cond)<<24 |
		uint64(m.Base)<<32 | uint64(m.Index)<<40 | uint64(m.Scale)<<48
	if m.HasBase {
		regs |= 1 << 56
	}
	if m.HasIndex {
		regs |= 1 << 57
	}
	for _, w := range [...]uint64{rip, regs, uint64(in.Imm), uint64(uint32(m.Disp))} {
		r.sum = (r.sum ^ w) * 1099511628211
	}
	r.n++
}

// sameMemory reports the first page whose permission or readable contents
// differ between a and b, which have the same layout.
func sameMemory(t *testing.T, a, b *enclave.Memory) {
	t.Helper()
	for pg := a.Base(); pg < a.End(); pg += enclave.PageSize {
		pa, pb := a.PermAt(pg), b.PermAt(pg)
		if pa != pb {
			t.Fatalf("page %#x: permission %v, stepped %v", pg, pa, pb)
		}
		if pa&enclave.PermR == 0 {
			continue
		}
		ba, _ := a.Read(pg, enclave.PageSize)
		bb, _ := b.Read(pg, enclave.PageSize)
		if !bytes.Equal(ba, bb) {
			t.Fatalf("page %#x differs from the stepped run", pg)
		}
	}
}

// equivalenceProgram is a real program with its inputs, sized to run in a
// fraction of a second.
type equivalenceProgram struct {
	name   string
	src    string
	inputs [][]byte
}

func equivalencePrograms() []equivalenceProgram {
	params := map[string][]int64{
		"NUMERIC SORT":     {256, 1},
		"STRING SORT":      {64, 1},
		"BITFIELD":         {4},
		"FP EMULATION":     {400},
		"FOURIER":          {4, 24},
		"ASSIGNMENT":       {16, 1},
		"IDEA":             {256},
		"HUFFMAN":          {512},
		"NEURAL NET":       {1},
		"LU DECOMPOSITION": {12, 1},
	}
	var progs []equivalenceProgram
	for _, k := range nbench.Kernels() {
		p := equivalenceProgram{name: k.Name, src: k.Source}
		for _, v := range params[k.Name] {
			p.inputs = append(p.inputs, apps.Param(v))
		}
		progs = append(progs, p)
	}
	return append(progs,
		equivalenceProgram{"nw", apps.NWSource, [][]byte{apps.RandomSequence(30, 1), apps.RandomSequence(40, 2)}},
		equivalenceProgram{"seqgen", apps.SeqGenSource, [][]byte{apps.Param(600), apps.Param(5)}},
		equivalenceProgram{"credit", apps.CreditSource, [][]byte{apps.Param(4)}},
		equivalenceProgram{"https", apps.HTTPSHandlerSource, [][]byte{apps.Param(2048), apps.Param(512), apps.Param(0)}},
	)
}

// TestRunMatchesStepLoop runs every nBench kernel and application under
// P1-P6 and P1-P8 at the Table II AEX cadence, and under P1-P6 also at a
// dense cadence that clobbers the SSA marker until P6 traps, once through Run
// (which executes recognised annotation templates as one handler each) and
// once through a Step loop. Result, outputs, the retired (rip, inst) stream
// and the final enclave memory must be identical.
func TestRunMatchesStepLoop(t *testing.T) {
	for _, p := range equivalencePrograms() {
		for _, pols := range []policy.Set{policy.SetP1P6, policy.SetP1P8} {
			o, err := compiler.Compile(dclib.Program(p.src), compiler.Options{Policies: pols})
			if err != nil {
				t.Fatalf("%s: %v", p.name, err)
			}
			bin := o.Marshal()
			cadences := []uint64{400_000}
			if pols == policy.SetP1P6 {
				cadences = append(cadences, 997)
			}
			for _, aex := range cadences {
				var stream [2]retired
				var res [2]*runtime.RunResult
				var boots [2]*runtime.Bootstrap
				for i := range boots {
					m := runtime.DefaultManifest()
					m.Policies = pols
					b, err := runtime.New(enclave.DefaultConfig(), m)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := b.ReceiveBinary(bin); err != nil {
						t.Fatalf("%s under %v: %v", p.name, pols, err)
					}
					for _, in := range p.inputs {
						b.ReceiveData(in)
					}
					rc := runtime.RunConfig{AEXInterval: aex, AEXSeed: 1, Trace: stream[i].add}
					run := b.Run
					if i == 1 {
						run = b.RunStepped
					}
					if res[i], err = run(rc); err != nil {
						t.Fatal(err)
					}
					boots[i] = b
				}
				where := p.name + " " + pols.String()
				if !reflect.DeepEqual(res[0].CPU, res[1].CPU) {
					t.Fatalf("%s aex %d: Run %+v, Step loop %+v", where, aex, res[0].CPU, res[1].CPU)
				}
				if !reflect.DeepEqual(res[0].Outputs, res[1].Outputs) || !reflect.DeepEqual(res[0].Debug, res[1].Debug) {
					t.Fatalf("%s aex %d: outputs differ from the Step loop", where, aex)
				}
				if stream[0].n != res[0].CPU.Insts || stream[0] != stream[1] {
					t.Fatalf("%s aex %d: retired stream (%d, %#x), Step loop (%d, %#x)",
						where, aex, stream[0].n, stream[0].sum, stream[1].n, stream[1].sum)
				}
				sameMemory(t, boots[0].Enclave().Mem, boots[1].Enclave().Mem)
			}
		}
	}
}
