package deflection_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"deflection"
	"deflection/internal/apps"
	"deflection/internal/bench"
	"deflection/internal/compiler"
	"deflection/internal/dclib"
	"deflection/internal/disasm"
	"deflection/internal/enclave"
	"deflection/internal/loader"
	"deflection/internal/nbench"
	"deflection/internal/obj"
	"deflection/internal/obs"
	"deflection/internal/policy"
	"deflection/internal/runtime"
	"deflection/internal/taint"
	"deflection/internal/verifier"
)

// Each BenchmarkTable*/BenchmarkFig* regenerates one table or figure of the
// paper's evaluation and prints its rows once. The experiments are
// deterministic, so b.N iterations re-measure the same pipeline.

var printOnce sync.Map

func printResult(b *testing.B, key string, s fmt.Stringer) {
	b.Helper()
	if _, done := printOnce.LoadOrStore(key, true); !done {
		fmt.Printf("\n%s\n", s)
	}
}

func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.TableI()
		if err != nil {
			b.Fatal(err)
		}
		printResult(b, "table1", res)
	}
}

func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.TableII(bench.Table2Options{})
		if err != nil {
			b.Fatal(err)
		}
		printResult(b, "table2", res)
	}
}

func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.Fig7(nil)
		if err != nil {
			b.Fatal(err)
		}
		printResult(b, "fig7", res)
	}
}

func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.Fig8(nil)
		if err != nil {
			b.Fatal(err)
		}
		printResult(b, "fig8", res)
	}
}

func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.Fig9(nil)
		if err != nil {
			b.Fatal(err)
		}
		printResult(b, "fig9", res)
	}
}

func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.Fig10(nil, 0, 10*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		printResult(b, "fig10", res)
	}
}

func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.Fig11(nil)
		if err != nil {
			b.Fatal(err)
		}
		printResult(b, "fig11", res)
	}
}

func BenchmarkColocation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := bench.Coloc(200_000)
		printResult(b, "coloc", res)
	}
}

func BenchmarkMicroLoadVerify(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.Micro()
		if err != nil {
			b.Fatal(err)
		}
		printResult(b, "micro", res)
	}
}

func BenchmarkCachePlane(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.CacheBench(false)
		if err != nil {
			b.Fatal(err)
		}
		printResult(b, "cache", res)
	}
}

// ---- component micro-benchmarks ----

func benchSource() string {
	k, _ := nbench.KernelByName("NUMERIC SORT")
	return dclib.Program(k.Source)
}

func BenchmarkCompileP1P6(b *testing.B) {
	src := benchSource()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := compiler.Compile(src, compiler.Options{Policies: policy.SetP1P6}); err != nil {
			b.Fatal(err)
		}
	}
}

func compiledObject(b *testing.B) *obj.Object {
	b.Helper()
	o, err := compiler.Compile(benchSource(), compiler.Options{Policies: policy.SetP1P6})
	if err != nil {
		b.Fatal(err)
	}
	return o
}

func BenchmarkLoaderRelocate(b *testing.B) {
	o := compiledObject(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := enclave.New(enclave.DefaultConfig(), []byte("bench"))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := loader.Load(e, o); err != nil {
			b.Fatal(err)
		}
	}
}

// verifyInputs returns the benchmark kernel's relocated text with the
// P1-P6 verifier options its load implies.
func verifyInputs(b *testing.B) ([]byte, verifier.Options) {
	b.Helper()
	k, _ := nbench.KernelByName("NUMERIC SORT")
	text, opts, err := bench.VerifyInput(k.Name, k.Source, policy.SetP1P6)
	if err != nil {
		b.Fatal(err)
	}
	return text, opts
}

func BenchmarkVerifier(b *testing.B) {
	text, opts := verifyInputs(b)
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := verifier.Verify(text, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTaintPass verifies the two secret-declaring apps under P1-P7 and
// reports the P7 taint pass on its own: its time (the cfa/taint span of a
// stage trace) and its block transfers (Report.Steps) per verification.
func BenchmarkTaintPass(b *testing.B) {
	for _, w := range []struct{ name, src string }{
		{"credit-secret", apps.CreditSource},
		{"nw-secret", apps.NWSource},
	} {
		b.Run(w.name, func(b *testing.B) {
			text, opts, err := bench.VerifyInput(w.name, w.src, policy.SetP1P7)
			if err != nil {
				b.Fatal(err)
			}
			var steps int
			opts.TaintObserver = func(r *taint.Report) { steps += r.Steps }
			var pass time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				opts.Trace = obs.NewTrace(w.name)
				if _, err := verifier.Verify(text, opts); err != nil {
					b.Fatal(err)
				}
				pass += obs.Dur(opts.Trace, "cfa/taint")
			}
			b.ReportMetric(float64(pass.Nanoseconds())/float64(b.N), "taint-ns/op")
			b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
		})
	}
}

// BenchmarkDisassembler times the verifier's recursive-descent decode from
// the real entry point and branch-target list.
func BenchmarkDisassembler(b *testing.B) {
	text, opts := verifyInputs(b)
	entries := append([]int64{opts.EntryOffset}, opts.BranchTargetOffsets...)
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := disasm.Disassemble(text, entries); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEmulator(b *testing.B) {
	// Emulator throughput in instructions/sec over a full verified run.
	benchmarkEmulator(b, policy.SetP1, runtime.RunConfig{})
}

func BenchmarkEmulatorP1P6(b *testing.B) {
	// The same under P1-P6 at the Table II AEX cadence: about half of the
	// retired instructions are annotation templates, most of which Run
	// executes as one handler each.
	benchmarkEmulator(b, policy.SetP1P6, runtime.RunConfig{AEXInterval: 400_000, AEXSeed: 1})
}

// benchmarkEmulator times whole runs of BITFIELD (4000 ops) compiled and
// verified under pols, and reports retired instructions per second.
func benchmarkEmulator(b *testing.B, pols policy.Set, rc runtime.RunConfig) {
	m := runtime.DefaultManifest()
	m.Policies = pols
	k, _ := nbench.KernelByName("BITFIELD")
	o, err := compiler.Compile(dclib.Program(k.Source), compiler.Options{Policies: pols})
	if err != nil {
		b.Fatal(err)
	}
	objBytes := o.Marshal()
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		bt, err := runtime.New(enclave.DefaultConfig(), m)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := bt.ReceiveBinary(objBytes); err != nil {
			b.Fatal(err)
		}
		var buf [8]byte
		buf[0] = 0xA0
		buf[1] = 0x0F // 4000 ops
		bt.ReceiveData(buf[:])
		res, err := bt.Run(rc)
		if err != nil {
			b.Fatal(err)
		}
		insts += res.CPU.Insts
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "Minst/s")
}

// memSink keeps the enclave benchmarks' results live.
var memSink uint64

func BenchmarkEnclaveNew(b *testing.B) {
	// Per-session enclave creation: layout, page table, permissions and
	// measurement under the default configuration.
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e, err := enclave.New(enclave.DefaultConfig(), []byte("bench"))
		if err != nil {
			b.Fatal(err)
		}
		memSink += e.Layout.ELREnd
	}
}

func BenchmarkMemory64(b *testing.B) {
	// In-page 64-bit stores and loads over a 64 KiB heap window and the top
	// 64 KiB of the stack: the memory path of the emulator's loads, stores,
	// pushes and pops.
	e, err := enclave.New(enclave.DefaultConfig(), []byte("bench"))
	if err != nil {
		b.Fatal(err)
	}
	const window = 64 << 10
	heap, stack := e.Layout.HeapBase, e.Layout.StackHi-window
	b.ReportAllocs()
	b.ResetTimer()
	var sum uint64
	for i := 0; i < b.N; i++ {
		off := uint64(i) * 8 % window
		if f := e.Mem.Write64(heap+off, uint64(i)); f != nil {
			b.Fatal(f)
		}
		if f := e.Mem.Write64(stack+off, uint64(i)); f != nil {
			b.Fatal(f)
		}
		v, f := e.Mem.Read64(heap + off)
		if f != nil {
			b.Fatal(f)
		}
		w, f := e.Mem.Read64(stack + off)
		if f != nil {
			b.Fatal(f)
		}
		sum += v + w
	}
	memSink = sum
}

func BenchmarkEndToEnd(b *testing.B) {
	// Full pipeline through the public API: generate, load+verify, run.
	src := `
int data[64];
int main() {
	for (int i = 0; i < 64; i++) data[i] = i * i;
	int s = 0;
	for (int i = 0; i < 64; i++) s += data[i];
	return s & 1023;
}`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bin, err := deflection.Generate(src, deflection.GeneratorOptions{Policies: deflection.PolicyP1P6})
		if err != nil {
			b.Fatal(err)
		}
		encl, err := deflection.NewEnclave(deflection.EnclaveOptions{Policies: deflection.PolicyP1P6})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := encl.Load(bin); err != nil {
			b.Fatal(err)
		}
		res, err := encl.Run(deflection.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Trapped {
			b.Fatalf("trapped: %s", res.TrapReason)
		}
	}
}

func BenchmarkAblationAnnotationCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.AnnotCostAblation(false)
		if err != nil {
			b.Fatal(err)
		}
		printResult(b, "ablation-annot", res)
	}
}

func BenchmarkAblationAEXInterval(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.QSweep(nil, false)
		if err != nil {
			b.Fatal(err)
		}
		printResult(b, "ablation-q", res)
	}
}
