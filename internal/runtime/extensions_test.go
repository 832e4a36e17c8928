package runtime_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"deflection/internal/asm"
	"deflection/internal/asmtext"
	"deflection/internal/compiler"
	"deflection/internal/cpu"
	"deflection/internal/dclib"
	"deflection/internal/enclave"
	"deflection/internal/isa"
	"deflection/internal/policy"
	"deflection/internal/runtime"
)

// threadedSrc has every thread fill its own slice of a shared global and
// return a thread-specific value.
const threadedSrc = `
int results[16];

int work(int tid) {
	int acc = 0;
	for (int i = 0; i < 200 + tid * 50; i++) acc += i ^ tid;
	return acc;
}

int main() {
	int tid = __tid();
	results[tid] = work(tid);
	return tid * 1000 + (results[tid] & 255);
}
`

func multiThreadBootstrap(t *testing.T, threads int, pols policy.Set, src string) *runtime.Bootstrap {
	t.Helper()
	cfg := enclave.DefaultConfig()
	cfg.Threads = threads
	m := runtime.DefaultManifest()
	m.Policies = pols
	b, err := runtime.New(cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	o, err := compiler.Compile(dclib.Program(src), compiler.Options{Policies: pols})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.ReceiveBinary(o.Marshal()); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMultiThreadedRun(t *testing.T) {
	const threads = 4
	b := multiThreadBootstrap(t, threads, policy.SetP1P5, threadedSrc)
	results, err := b.RunThreads(threads, runtime.RunConfig{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != threads {
		t.Fatalf("results = %d", len(results))
	}
	for i, r := range results {
		if r.CPU.Status != cpu.StatusHalt {
			t.Fatalf("thread %d: %v", i, r.CPU)
		}
		if r.CPU.ExitValue/1000 != int64(i) {
			t.Errorf("thread %d returned tid %d", i, r.CPU.ExitValue/1000)
		}
	}
	// Every thread's slot in the shared global must be filled (threads
	// really did share the heap).
	ld := b.Enclave().Layout
	_ = ld
}

// sharedSrc has every thread update a shared counter and array in a
// guarded loop and send a thread-specific sum, so that any change in the
// interleaving changes the results, the outputs or the memory.
const sharedSrc = `
int counter;
int data[64];

int main() {
	int tid = __tid();
	int acc = 0;
	for (int i = 0; i < 300; i++) {
		data[(i + tid) % 64] += i * (tid + 1);
		counter++;
		acc += data[(i * 7) % 64] ^ counter;
	}
	send_int(acc);
	return tid * 1000 + (acc & 255);
}
`

// TestRunThreadsMatchesStepSlices: RunThreads runs each time slice through
// cpu.RunUntil, which retires linked stretches and runs annotation
// templates as one handler, stepping through a template that straddles the
// slice's end. At slice lengths that cut templates, and at a dense AEX
// cadence, the results, the sealed outputs and the final enclave memory
// must equal those of slices run one Step at a time.
func TestRunThreadsMatchesStepSlices(t *testing.T) {
	for _, pols := range []policy.Set{policy.SetP1P5, policy.SetP1P6} {
		for _, slice := range []uint64{1, 7, 97, 1000} {
			var rs [2][]runtime.ThreadResult
			var boots [2]*runtime.Bootstrap
			for i := range boots {
				b := multiThreadBootstrap(t, 3, pols, sharedSrc)
				run := b.RunThreads
				if i == 1 {
					run = b.RunThreadsStepped
				}
				var err error
				if rs[i], err = run(3, runtime.RunConfig{AEXInterval: 997, AEXSeed: 1}, slice); err != nil {
					t.Fatal(err)
				}
				boots[i] = b
			}
			where := fmt.Sprintf("%v slice %d", pols, slice)
			if !reflect.DeepEqual(rs[0], rs[1]) {
				t.Fatalf("%s: RunThreads %+v, Step slices %+v", where, rs[0], rs[1])
			}
			if pols == policy.SetP1P5 {
				for _, r := range rs[0] {
					if r.CPU.Status != cpu.StatusHalt || r.CPU.ExitValue/1000 != int64(r.Thread) {
						t.Fatalf("%s: thread %d: %v", where, r.Thread, r.CPU)
					}
				}
			}
			if out := boots[0].Outputs(); len(out) != 3 && pols == policy.SetP1P5 || !reflect.DeepEqual(out, boots[1].Outputs()) {
				t.Fatalf("%s: %d outputs, differing from the Step slices' %d", where, len(out), len(boots[1].Outputs()))
			}
			sameMemory(t, boots[0].Enclave().Mem, boots[1].Enclave().Mem)
		}
	}
}

func TestMultiThreadedDeterministic(t *testing.T) {
	run := func() []runtime.ThreadResult {
		b := multiThreadBootstrap(t, 3, policy.SetP1P5, threadedSrc)
		rs, err := b.RunThreads(3, runtime.RunConfig{}, 500)
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	a, bb := run(), run()
	for i := range a {
		if a[i].CPU != bb[i].CPU {
			t.Fatalf("thread %d: runs differ: %+v vs %+v", i, a[i].CPU, bb[i].CPU)
		}
	}
}

func TestMultiThreadedStackIsolation(t *testing.T) {
	// Deep recursion in one thread must hit ITS guard page, not silently
	// run into a sibling's stack.
	src := `
int deep(int n) {
	int pad[32];
	pad[0] = n;
	if (n <= 0) return pad[0];
	return deep(n - 1) + 1;
}
int main() {
	if (__tid() == 1) return deep(1000000); // overflows
	return 7;
}
`
	b := multiThreadBootstrap(t, 2, policy.SetP1, src)
	results, err := b.RunThreads(2, runtime.RunConfig{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].CPU.Status != cpu.StatusHalt || results[0].CPU.ExitValue != 7 {
		t.Fatalf("thread 0 should be unaffected: %v", results[0].CPU)
	}
	r1 := results[1].CPU
	if r1.Status == cpu.StatusHalt {
		t.Fatalf("thread 1 should have overflowed, got %v", r1)
	}
	switch r1.Trap {
	case isa.TrapStackOverflow, isa.TrapPageFault, isa.TrapStoreBounds:
		// Any of these means containment: the guard page or the bounds
		// check stopped the overflow before it corrupted a sibling.
	default:
		t.Fatalf("unexpected trap %v", r1.Trap)
	}
}

func TestCodeWriteReachesSiblingThreadICache(t *testing.T) {
	// Thread 1 runs patchme once (warming its decoded-instruction cache),
	// then waits; thread 0 rewrites patchme's immediate from 1 to 2 and
	// releases it. Thread 1's second call must see the new code: exit 12,
	// not the stale 11.
	one := isa.Inst{Op: isa.OpMovRI, Dst: isa.RAX, Imm: 1}
	two := isa.Inst{Op: isa.OpMovRI, Dst: isa.RAX, Imm: 2}
	enc1, enc2 := asm.AppendEncode(nil, &one), asm.AppendEncode(nil, &two)
	immOff := 0
	for enc1[immOff] == enc2[immOff] {
		immOff++
	}
	src := fmt.Sprintf(`
.entry _start
.bss warm 8
.bss release 8
.func _start
  ocall %d
  cmp rax, 0
  jne reader
  mov rbx, =warm
wait_warm:
  mov rcx, [rbx]
  cmp rcx, 0
  je wait_warm
  mov rbx, =patchme
  mov rcx, %d
  movb [rbx+%d], rcx
  mov rbx, =release
  mov rcx, 1
  mov [rbx], rcx
  mov rax, 0
  hlt
reader:
  call patchme
  mov rdx, rax
  mov rbx, =warm
  mov rcx, 1
  mov [rbx], rcx
  mov rbx, =release
wait_release:
  mov rcx, [rbx]
  cmp rcx, 0
  je wait_release
  call patchme
  imul rdx, 10
  add rax, rdx
  hlt
.func patchme
  mov rax, 1
  ret
`, policy.OcallThreadID, enc2[immOff], immOff)
	o, err := asmtext.Assemble(src, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := enclave.DefaultConfig()
	cfg.Threads = 2
	m := runtime.DefaultManifest()
	m.Policies = policy.SetNone
	b, err := runtime.New(cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.ReceiveBinary(o.Marshal()); err != nil {
		t.Fatal(err)
	}
	rs, err := b.RunThreads(2, runtime.RunConfig{Gas: 1_000_000}, 50)
	if err != nil {
		t.Fatal(err)
	}
	if r := rs[0].CPU; r.Status != cpu.StatusHalt || r.ExitValue != 0 {
		t.Fatalf("writer thread: %v", r)
	}
	if r := rs[1].CPU; r.Status != cpu.StatusHalt || r.ExitValue != 12 {
		t.Fatalf("reader thread: %v, want exit 12 (11 means a stale decoding ran)", r)
	}
}

// TestRunThreadsHonoursTrace: RunThreads builds its CPUs like Run, so a
// RunConfig.Trace sees every instruction a thread retires.
func TestRunThreadsHonoursTrace(t *testing.T) {
	b := multiThreadBootstrap(t, 1, policy.SetP1P5, threadedSrc)
	var calls uint64
	rs, err := b.RunThreads(1, runtime.RunConfig{Trace: func(uint64, isa.Inst) { calls++ }}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r := rs[0].CPU; r.Status != cpu.StatusHalt || r.Insts == 0 {
		t.Fatalf("thread 0: %v", r)
	}
	if calls != rs[0].CPU.Insts {
		t.Fatalf("Trace saw %d instructions, thread retired %d", calls, rs[0].CPU.Insts)
	}
}

// TestRunThreadsFlatAnnotationCost: FlatAnnotationCost changes a one-thread
// RunThreads' cycles exactly as it changes Run's. On a one-thread enclave
// both start from the same stack, shadow stack and AEX seed, so the cycle
// counts agree with and without the flag.
func TestRunThreadsFlatAnnotationCost(t *testing.T) {
	cycles := func(flat, threads bool) float64 {
		b := multiThreadBootstrap(t, 1, policy.SetP1P5, threadedSrc)
		rc := runtime.RunConfig{FlatAnnotationCost: flat}
		if threads {
			rs, err := b.RunThreads(1, rc, 0)
			if err != nil {
				t.Fatal(err)
			}
			return rs[0].CPU.Cycles
		}
		res, err := b.Run(rc)
		if err != nil {
			t.Fatal(err)
		}
		return res.CPU.Cycles
	}
	run, runFlat := cycles(false, false), cycles(true, false)
	if runFlat <= run {
		t.Fatalf("Run: flat annotation cost %v cycles, discounted %v; want flat > discounted", runFlat, run)
	}
	if got := cycles(false, true); got != run {
		t.Errorf("RunThreads cycles %v, Run %v", got, run)
	}
	if got := cycles(true, true); got != runFlat {
		t.Errorf("RunThreads flat cycles %v, Run flat %v", got, runFlat)
	}
}

func TestRunThreadsValidation(t *testing.T) {
	b := multiThreadBootstrap(t, 2, policy.SetP1, threadedSrc)
	if _, err := b.RunThreads(5, runtime.RunConfig{}, 0); err == nil {
		t.Fatal("over-provisioned thread count accepted")
	}
	m := runtime.DefaultManifest()
	m.Policies = policy.SetNone
	empty, err := runtime.New(enclave.DefaultConfig(), m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := empty.RunThreads(1, runtime.RunConfig{}, 0); err == nil {
		t.Fatal("RunThreads before load accepted")
	}
}

func TestSGXv2HardwareDEP(t *testing.T) {
	// Under SGXv2 the code pages are RX once the verified binary is
	// installed, by a cold load or from an image: an un-instrumented
	// self-modifying binary (no P4 annotations to stop it) faults on the
	// store itself. The sealed enclave then refuses a second install,
	// leaving nothing runnable.
	cfg := enclave.DefaultConfig()
	cfg.SGXv2 = true
	m := runtime.DefaultManifest()
	m.Policies = policy.SetNone
	l := cfg.Layout()
	src := `
int main() {
	char *code = (char*)` + uitoa(l.CodeBase) + `;
	code[0] = 144;
	return 0;
}`
	o, err := compiler.Compile(dclib.Program(src), compiler.Options{Policies: policy.SetNone})
	if err != nil {
		t.Fatal(err)
	}
	img, _, err := runtime.BuildImage(o.Marshal(), m, l)
	if err != nil {
		t.Fatal(err)
	}
	for name, load := range map[string]func(*runtime.Bootstrap) (*runtime.LoadReport, error){
		"ReceiveBinary": func(b *runtime.Bootstrap) (*runtime.LoadReport, error) { return b.ReceiveBinary(o.Marshal()) },
		"InstallImage":  func(b *runtime.Bootstrap) (*runtime.LoadReport, error) { return b.InstallImage(img) },
	} {
		b, err := runtime.New(cfg, m)
		if err != nil {
			t.Fatal(err)
		}
		if p := b.Enclave().Mem.PermAt(l.CodeBase); p != enclave.PermRW {
			t.Fatalf("%s: code perm before load = %v, want rw-", name, p)
		}
		rep, err := load(b)
		if err != nil {
			t.Fatal(err)
		}
		if p := b.Enclave().Mem.PermAt(l.CodeBase); p != enclave.PermRX {
			t.Fatalf("%s: code perm after SGXv2 load = %v, want r-x", name, p)
		}
		if spans := rep.Trace.Spans(); spans[len(spans)-1].Name != "edmm_seal" {
			t.Errorf("%s: trace ends with %s, want edmm_seal", name, spans[len(spans)-1].Name)
		}
		res, err := b.Run(runtime.RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if res.CPU.Status != cpu.StatusFault {
			t.Fatalf("%s: self-modification under SGXv2 should fault, got %v", name, res.CPU)
		}

		if _, err := load(b); err == nil {
			t.Fatalf("%s: second load into sealed code pages accepted", name)
		}
		spans := b.LastTrace().Spans()
		if last := spans[len(spans)-1]; last.Name != "install_text" || len(last.Attrs) != 1 || last.Attrs[0].Key != "error" {
			t.Errorf("%s: trace ends with %+v, want install_text with its error", name, last)
		}
		if _, err := b.Run(runtime.RunConfig{}); !errors.Is(err, runtime.ErrNotLoaded) {
			t.Errorf("%s: Run after a failed install = %v, want ErrNotLoaded", name, err)
		}
	}
}

func TestSGXv2StillRunsVerifiedCode(t *testing.T) {
	cfg := enclave.DefaultConfig()
	cfg.SGXv2 = true
	m := runtime.DefaultManifest()
	m.Policies = policy.SetP1P6
	b, err := runtime.New(cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	o, err := compiler.Compile(dclib.Program(`int main() { return 11; }`),
		compiler.Options{Policies: policy.SetP1P6})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.ReceiveBinary(o.Marshal()); err != nil {
		t.Fatal(err)
	}
	res, err := b.Run(runtime.RunConfig{})
	if err != nil || res.CPU.ExitValue != 11 {
		t.Fatalf("res=%v err=%v", res.CPU, err)
	}
}

func TestTimePadQuantum(t *testing.T) {
	m := runtime.DefaultManifest()
	m.Policies = policy.SetP1
	m.TimePadQuantum = 1_000_000
	b, err := runtime.New(enclave.DefaultConfig(), m)
	if err != nil {
		t.Fatal(err)
	}
	src := `
int main() {
	int s = 0;
	for (int i = 0; i < read_param(); i++) s += i;
	return s & 255;
}`
	o, err := compiler.Compile(dclib.Program(src), compiler.Options{Policies: policy.SetP1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.ReceiveBinary(o.Marshal()); err != nil {
		t.Fatal(err)
	}
	// Two very different workloads must report identical padded time as
	// long as they fit the same quantum count.
	cycles := func(n int64) float64 {
		t.Helper()
		b.ResetIO()
		var buf [8]byte
		buf[0] = byte(n)
		buf[1] = byte(n >> 8)
		b.ReceiveData(buf[:])
		res, err := b.Run(runtime.RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return res.CPU.Cycles
	}
	c1 := cycles(100)
	c2 := cycles(5000)
	if c1 != m.TimePadQuantum {
		t.Errorf("small run padded to %v, want %v", c1, m.TimePadQuantum)
	}
	if c2 != c1 {
		t.Errorf("processing-time channel visible: %v vs %v", c1, c2)
	}
}

func TestThreadIDSingleThread(t *testing.T) {
	b := multiThreadBootstrap(t, 1, policy.SetP1, `int main() { return __tid() + 40; }`)
	res, err := b.Run(runtime.RunConfig{})
	if err != nil || res.CPU.ExitValue != 40 {
		t.Fatalf("res=%v err=%v", res.CPU, err)
	}
}

func TestMeasurementBindsThreadsAndSGXv2(t *testing.T) {
	mk := func(threads int, v2 bool) [32]byte {
		cfg := enclave.DefaultConfig()
		cfg.Threads = threads
		cfg.SGXv2 = v2
		b, err := runtime.New(cfg, runtime.DefaultManifest())
		if err != nil {
			t.Fatal(err)
		}
		return b.Measurement()
	}
	base := mk(1, false)
	if mk(4, false) == base {
		t.Error("thread count must change the measurement")
	}
	if mk(1, true) == base {
		t.Error("SGXv2 mode must change the measurement")
	}
}
