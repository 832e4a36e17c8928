package runtime_test

import (
	"math/rand"
	"reflect"
	"testing"

	"deflection/internal/apps"
	"deflection/internal/compiler"
	"deflection/internal/cpu"
	"deflection/internal/dclib"
	"deflection/internal/enclave"
	"deflection/internal/obj"
	"deflection/internal/policy"
	"deflection/internal/runtime"
)

// TestMutatedBinariesNeverLeak is the repository's core security property
// as a mutation-fuzz test: take a correctly instrumented binary, flip bytes
// in its text section, and require that every mutant is either rejected by
// the verifier or — if it still verifies and runs — cannot write a single
// byte of untrusted memory.
func TestMutatedBinariesNeverLeak(t *testing.T) {
	src := `
int data[32];
int main() {
	int s = 0;
	for (int i = 0; i < 32; i++) data[i] = i * 3;
	for (int i = 0; i < 32; i++) s += data[i];
	return s;
}`
	o, err := compiler.Compile(dclib.Program(src), compiler.Options{Policies: policy.SetP1P6})
	if err != nil {
		t.Fatal(err)
	}
	pristine := o.Marshal()

	rng := rand.New(rand.NewSource(1234))
	const mutants = 300
	accepted, rejected := 0, 0
	for i := 0; i < mutants; i++ {
		mo, err := obj.Unmarshal(pristine)
		if err != nil {
			t.Fatal(err)
		}
		// Flip 1-4 random bytes of text.
		for n := 1 + rng.Intn(4); n > 0; n-- {
			pos := rng.Intn(len(mo.Text))
			mo.Text[pos] ^= byte(1 + rng.Intn(255))
		}

		m := runtime.DefaultManifest()
		m.Policies = policy.SetP1P6
		b, err := runtime.New(enclave.DefaultConfig(), m)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.ReceiveBinary(mo.Marshal()); err != nil {
			rejected++
			continue
		}
		accepted++
		res, err := b.Run(runtime.RunConfig{Gas: 3_000_000})
		if err != nil {
			t.Fatalf("mutant %d: %v", i, err)
		}
		_ = res
		// Whatever happened (halt, trap, fault, gas-out), untrusted memory
		// must be untouched.
		l := b.Enclave().Layout
		buf, f := b.Enclave().Mem.Read(l.UntrustedBase, int(l.UntrustedEnd-l.UntrustedBase))
		if f != nil {
			t.Fatalf("mutant %d: reading untrusted region: %v", i, f)
		}
		for off, v := range buf {
			if v != 0 {
				t.Fatalf("mutant %d LEAKED: untrusted byte at +%#x = %#x (run: %v)", i, off, v, res.CPU)
			}
		}
	}
	t.Logf("mutants: %d rejected, %d accepted-and-contained", rejected, accepted)
	if rejected == 0 {
		t.Error("no mutants rejected — verifier not exercised")
	}
}

// TestVerifiedRunNeverWritesUntrusted confirms the same invariant for the
// unmutated binary across all policy levels that include P1.
func TestVerifiedRunNeverWritesUntrusted(t *testing.T) {
	src := `
char buf[64];
int main() {
	int n = __ocall_recv(buf, 64);
	for (int i = 0; i < n; i++) buf[i] = buf[i] ^ 255;
	__ocall_send(buf, n);
	return n;
}`
	for _, pols := range []policy.Set{policy.SetP1, policy.SetP1P2, policy.SetP1P5, policy.SetP1P6} {
		o, err := compiler.Compile(dclib.Program(src), compiler.Options{Policies: pols})
		if err != nil {
			t.Fatal(err)
		}
		m := runtime.DefaultManifest()
		m.Policies = pols
		b, err := runtime.New(enclave.DefaultConfig(), m)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.ReceiveBinary(o.Marshal()); err != nil {
			t.Fatalf("%v: %v", pols, err)
		}
		b.ReceiveData([]byte("sensitive"))
		res, err := b.Run(runtime.RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if res.CPU.Status != cpu.StatusHalt {
			t.Fatalf("%v: %v", pols, res.CPU)
		}
		l := b.Enclave().Layout
		buf, f := b.Enclave().Mem.Read(l.UntrustedBase, int(l.UntrustedEnd-l.UntrustedBase))
		if f != nil {
			t.Fatal(f)
		}
		for off, v := range buf {
			if v != 0 {
				t.Fatalf("%v: untrusted byte at +%#x = %#x", pols, off, v)
			}
		}
	}
}

// receiveConfig is a small enclave, so that the memories of accepted
// inputs compare quickly.
var receiveConfig = enclave.Config{
	CodeCap: 64 << 10, BrTableCap: 4 << 10, ShadowCap: 16 << 10,
	StackCap: 64 << 10, HeapCap: 64 << 10, UntrustedCap: 16 << 10,
}

// receiveSeed is a P1-P8 program with a secret global whose value reaches
// only the sealed output.
const receiveSeed = `
secret int key[4];
int main() {
	int n = read_param();
	for (int i = 0; i < 4; i++) key[i] = n * (i + 3);
	int s = 0;
	for (int i = 0; i < 4; i++) s += key[i];
	send_int(s);
	return 0;
}`

// receive loads bin into a fresh P1-P8 bootstrap enclave.
func receive(t *testing.T, bin []byte) (*runtime.Bootstrap, error) {
	m := runtime.DefaultManifest()
	m.Policies = policy.SetP1P8
	b, err := runtime.New(receiveConfig, m)
	if err != nil {
		t.Fatal(err)
	}
	_, err = b.ReceiveBinary(bin)
	return b, err
}

// FuzzReceiveBinary feeds arbitrary bytes to the bootstrap enclave as the
// code provider's binary under P1-P8: nothing may panic, and an accepted
// binary must run alike through Run and a Step loop within a small gas
// bound (result, outputs, retired stream and memory).
func FuzzReceiveBinary(f *testing.F) {
	o, err := compiler.Compile(dclib.Program(receiveSeed), compiler.Options{Policies: policy.SetP1P8})
	if err != nil {
		f.Fatal(err)
	}
	if len(o.Secrets) == 0 {
		f.Fatal("seed program declares no secret")
	}
	seed := o.Marshal()
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var boots [2]*runtime.Bootstrap
		for i := range boots {
			b, err := receive(t, data)
			if err != nil {
				if i == 1 {
					t.Fatalf("accepted once, then rejected: %v", err)
				}
				return
			}
			boots[i] = b
		}
		var stream [2]retired
		var res [2]*runtime.RunResult
		for i, b := range boots {
			b.ReceiveData(apps.Param(11))
			rc := runtime.RunConfig{Gas: 20_000, AEXInterval: 997, AEXSeed: 1, Trace: stream[i].add}
			run := b.Run
			if i == 1 {
				run = b.RunStepped
			}
			var err error
			if res[i], err = run(rc); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(res[0], res[1]) {
			t.Fatalf("Run %+v, Step loop %+v", res[0].CPU, res[1].CPU)
		}
		if stream[0] != stream[1] {
			t.Fatalf("retired stream (%d, %#x), Step loop (%d, %#x)", stream[0].n, stream[0].sum, stream[1].n, stream[1].sum)
		}
		sameMemory(t, boots[0].Enclave().Mem, boots[1].Enclave().Mem)
	})
}
