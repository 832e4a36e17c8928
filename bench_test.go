package deflection_test

import (
	"testing"
	"time"

	"deflection"
	"deflection/internal/apps"
	"deflection/internal/compiler"
	"deflection/internal/dclib"
	"deflection/internal/disasm"
	"deflection/internal/enclave"
	"deflection/internal/loader"
	"deflection/internal/nbench"
	"deflection/internal/obj"
	"deflection/internal/obs"
	"deflection/internal/policy"
	"deflection/internal/verifier"
)

// Component micro-benchmarks: compiler, loader, verifier, taint pass,
// disassembler, emulator, enclave, memory and the public API end to end.
// The paper's tables and figures are regenerated by cmd/deflection-bench.

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
	l := enclave.DefaultConfig().Layout()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := loader.Load(l, o); err != nil {
			b.Fatal(err)
		}
	}
}

// verifyInputs returns the benchmark kernel's relocated text with the
// P1-P6 verifier options its load implies.
func verifyInputs(b testing.TB) ([]byte, verifier.Options) {
	b.Helper()
	k, _ := nbench.KernelByName("NUMERIC SORT")
	text, opts, err := apps.VerifyInput(k.Name, k.Source, policy.SetP1P6)
	if err != nil {
		b.Fatal(err)
	}
	return text, opts
}

// BenchmarkVerifier times one P1-P6 verification. The heap-churn case
// allocates and drops 1 MiB, untimed, before each Verify, so a
// verification whose cost depends on the heap state it runs in, not only
// on its input, reads slower there than in the plain case.
func BenchmarkVerifier(b *testing.B) {
	text, opts := verifyInputs(b)
	for _, churn := range []bool{false, true} {
		name := "plain"
		if churn {
			name = "heap-churn"
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(text)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if churn {
					b.StopTimer()
					churnSink = make([]byte, 1<<20)
					churnSink = nil
					b.StartTimer()
				}
				if _, err := verifier.Verify(text, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// churnSink keeps BenchmarkVerifier's churn allocation on the heap.
var churnSink []byte

// BenchmarkTaintPass verifies the two secret-declaring apps under P1-P7 and
// reports the P7 taint pass on its own: its time (the cfa/taint span of a
// stage trace) and its block transfers (Report.Steps) per verification.
func BenchmarkTaintPass(b *testing.B) {
	for _, w := range []struct{ name, src string }{
		{"credit-secret", apps.CreditSource},
		{"nw-secret", apps.NWSource},
	} {
		b.Run(w.name, func(b *testing.B) {
			text, opts, err := apps.VerifyInput(w.name, w.src, policy.SetP1P7)
			if err != nil {
				b.Fatal(err)
			}
			var steps int
			var pass time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				opts.Trace = obs.NewTrace(w.name)
				res, err := verifier.Verify(text, opts)
				if err != nil {
					b.Fatal(err)
				}
				steps += res.Taint.Steps
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
	benchmarkEmulator(b, apps.RunConfig{Policies: policy.SetP1})
}

func BenchmarkEmulatorP1P6(b *testing.B) {
	// The same under P1-P6 at the Table II AEX cadence: about half of the
	// retired instructions are annotation templates, most of which Run
	// executes as one handler each.
	benchmarkEmulator(b, apps.RunConfig{Policies: policy.SetP1P6, AEXInterval: 400_000})
}

// benchmarkEmulator times whole loads and runs of BITFIELD (4000 ops)
// compiled under pols, and reports retired instructions per second.
func benchmarkEmulator(b *testing.B, rc apps.RunConfig) {
	k, _ := nbench.KernelByName("BITFIELD")
	if _, err := apps.Run(k.Name, k.Source, rc, apps.Param(4000)); err != nil { // compile outside the timer
		b.Fatal(err)
	}
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		res, err := apps.Run(k.Name, k.Source, rc, apps.Param(4000))
		if err != nil {
			b.Fatal(err)
		}
		insts += res.Insts
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
