package runtime_test

import (
	"fmt"
	"strings"
	"testing"

	"deflection"
	"deflection/internal/asmtext"
	"deflection/internal/compiler"
	"deflection/internal/cpu"
	"deflection/internal/enclave"
	"deflection/internal/isa"
	"deflection/internal/policy"
	"deflection/internal/runtime"
)

func newBootstrap(t *testing.T, pols policy.Set) *runtime.Bootstrap {
	t.Helper()
	m := runtime.DefaultManifest()
	m.Policies = pols
	b, err := runtime.New(enclave.DefaultConfig(), m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func compileAndLoad(t *testing.T, b *runtime.Bootstrap, src string, pols policy.Set) *runtime.LoadReport {
	t.Helper()
	o, err := compiler.Compile(src, compiler.Options{Policies: pols})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := b.ReceiveBinary(o.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// leakSrc writes a secret to untrusted memory through a forged pointer.
// The untrusted region follows ELRANGE; its base depends only on the layout.
func leakSrc(addr uint64) string {
	return `
int main() {
	int *out = (int*)` + uitoa(addr) + `;
	*out = 12345;    // exfiltrate
	return 7;
}`
}

func uitoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// TestLeakSucceedsWithoutP1 demonstrates the attack the paper defends
// against: with no policy enforcement the enclave program freely writes
// plaintext to untrusted memory.
func TestLeakSucceedsWithoutP1(t *testing.T) {
	b := newBootstrap(t, policy.SetNone)
	l := b.Enclave().Layout
	compileAndLoad(t, b, leakSrc(l.UntrustedBase), policy.SetNone)
	res, err := b.Run(runtime.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CPU.Status != cpu.StatusHalt {
		t.Fatalf("unprotected run should succeed: %v", res.CPU)
	}
	v, f := b.Enclave().Mem.Read64(l.UntrustedBase)
	if f != nil || v != 12345 {
		t.Fatalf("leak did not land: v=%d f=%v", v, f)
	}
}

// TestLeakTrappedByP1 shows the same binary instrumented under P1 aborts at
// the offending store.
func TestLeakTrappedByP1(t *testing.T) {
	b := newBootstrap(t, policy.SetP1)
	l := b.Enclave().Layout
	compileAndLoad(t, b, leakSrc(l.UntrustedBase), policy.SetP1)
	res, err := b.Run(runtime.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CPU.Status != cpu.StatusTrap || res.CPU.Trap != isa.TrapStoreBounds {
		t.Fatalf("expected store-bounds trap, got %v", res.CPU)
	}
	if v, _ := b.Enclave().Mem.Read64(l.UntrustedBase); v == 12345 {
		t.Fatal("secret leaked despite P1")
	}
}

// TestStoreToCodeTrappedByP4: self-modification attempts trap on the store
// bounds (code pages are below the writable window).
func TestStoreToCodeTrappedByP4(t *testing.T) {
	b := newBootstrap(t, policy.SetP1P5)
	l := b.Enclave().Layout
	src := `
int main() {
	char *code = (char*)` + uitoa(l.CodeBase) + `;
	code[0] = 144;
	return 0;
}`
	compileAndLoad(t, b, src, policy.SetP1P5)
	res, err := b.Run(runtime.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CPU.Status != cpu.StatusTrap || res.CPU.Trap != isa.TrapStoreBounds {
		t.Fatalf("expected store-bounds trap, got %v", res.CPU)
	}
}

// TestShadowStackWriteTrappedByP3: the shadow stack is security-critical
// data; stores targeting it must trap.
func TestShadowStackWriteTrappedByP3(t *testing.T) {
	b := newBootstrap(t, policy.SetP1P5)
	l := b.Enclave().Layout
	src := `
int main() {
	int *ss = (int*)` + uitoa(l.ShadowBase) + `;
	*ss = 666;
	return 0;
}`
	compileAndLoad(t, b, src, policy.SetP1P5)
	res, err := b.Run(runtime.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CPU.Status != cpu.StatusTrap || res.CPU.Trap != isa.TrapStoreBounds {
		t.Fatalf("expected store-bounds trap, got %v", res.CPU)
	}
}

// TestReturnSmashTrappedByShadowStack: overwriting the saved return address
// through an in-bounds stack store is caught by the P5 shadow check.
func TestReturnSmashTrappedByShadowStack(t *testing.T) {
	b := newBootstrap(t, policy.SetP1P5)
	src := `
int gadget() { return 1; }
int victim(int x) {
	int buf[2];
	// Overflow: the slots above the locals hold the saved RBP, the
	// callee-saved registers and the return address; spray them all.
	for (int i = 2; i < 6; i++) buf[i] = x;
	return buf[0];
}
int main() {
	fnptr g = gadget;  // force gadget to be a listed target
	int dummy = g();
	return victim(12345) + dummy;
}`
	compileAndLoad(t, b, src, policy.SetP1P5)
	res, err := b.Run(runtime.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CPU.Status != cpu.StatusTrap || res.CPU.Trap != isa.TrapShadowStack {
		t.Fatalf("expected shadow-stack trap, got %v", res.CPU)
	}
}

// TestAEXStormTrappedByP6: a hostile scheduler inducing frequent AEXes must
// drive the P6 budget check to abort.
func TestAEXStormTrappedByP6(t *testing.T) {
	b := newBootstrap(t, policy.SetP1P6)
	src := `
int main() {
	int s = 0;
	for (int i = 0; i < 2000000; i++) s += i;
	return s;
}`
	o, err := compiler.Compile(src, compiler.Options{Policies: policy.SetP1P6, AEXThreshold: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.ReceiveBinary(o.Marshal()); err != nil {
		t.Fatal(err)
	}
	res, err := b.Run(runtime.RunConfig{AEXInterval: 2000, AEXSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.CPU.Status != cpu.StatusTrap || res.CPU.Trap != isa.TrapAEXBudget {
		t.Fatalf("expected AEX-budget trap, got %v", res.CPU)
	}
	if res.CPU.AEXCount < 64 {
		t.Errorf("AEX count %d below threshold", res.CPU.AEXCount)
	}
}

// TestBenignAEXRateSurvivesP6: normal timer-interrupt rates stay under the
// threshold and the program completes.
func TestBenignAEXRateSurvivesP6(t *testing.T) {
	b := newBootstrap(t, policy.SetP1P6)
	src := `
int main() {
	int s = 0;
	for (int i = 0; i < 200000; i++) s += i & 7;
	return s & 1023;
}`
	o, err := compiler.Compile(src, compiler.Options{Policies: policy.SetP1P6, AEXThreshold: policy.DefaultAEXThreshold})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.ReceiveBinary(o.Marshal()); err != nil {
		t.Fatal(err)
	}
	res, err := b.Run(runtime.RunConfig{AEXInterval: 200000, AEXSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.CPU.Status != cpu.StatusHalt {
		t.Fatalf("benign run should complete: %v", res.CPU)
	}
}

// TestPolicyMaskEnforced: the bootstrap rejects binaries that do not claim
// the manifest's policy set.
func TestPolicyMaskEnforced(t *testing.T) {
	b := newBootstrap(t, policy.SetP1P5)
	o, err := compiler.Compile(`int main() { return 0; }`, compiler.Options{Policies: policy.SetP1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.ReceiveBinary(o.Marshal()); err == nil {
		t.Fatal("under-instrumented binary must be rejected")
	}
}

// TestForgedPolicyMaskCaughtByVerifier: claiming policies without carrying
// the annotations is caught statically.
func TestForgedPolicyMaskCaughtByVerifier(t *testing.T) {
	b := newBootstrap(t, policy.SetP1P5)
	o, err := compiler.Compile(`
int g;
int main() { g = 1; return g; }`, compiler.Options{Policies: policy.SetNone})
	if err != nil {
		t.Fatal(err)
	}
	o.PolicyMask = uint16(policy.SetP1P5) // forge the claim
	if _, err := b.ReceiveBinary(o.Marshal()); err == nil {
		t.Fatal("forged policy mask must fail verification")
	}
}

func TestOcallDeniedByManifest(t *testing.T) {
	m := runtime.DefaultManifest()
	m.Policies = policy.SetP1
	m.AllowedOcalls = []int64{policy.OcallSend} // no recv
	b, err := runtime.New(enclave.DefaultConfig(), m)
	if err != nil {
		t.Fatal(err)
	}
	compileAndLoad(t, b, `
char buf[8];
int main() { return __ocall_recv(buf, 8); }`, policy.SetP1)
	res, err := b.Run(runtime.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CPU.Status != cpu.StatusTrap || res.CPU.Trap != isa.TrapOcallDenied {
		t.Fatalf("expected OCall denial, got %v", res.CPU)
	}
}

func TestOutputEntropyBudget(t *testing.T) {
	m := runtime.DefaultManifest()
	m.Policies = policy.SetP1
	m.OutputBudgetBits = 8 // one byte, as in the paper's example
	b, err := runtime.New(enclave.DefaultConfig(), m)
	if err != nil {
		t.Fatal(err)
	}
	compileAndLoad(t, b, `
char buf[16] = "AB";
int main() {
	__ocall_send(buf, 1);
	__ocall_send(buf, 1); // second byte exceeds the budget
	return 0;
}`, policy.SetP1)
	res, err := b.Run(runtime.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CPU.Status != cpu.StatusTrap || res.CPU.Trap != isa.TrapOcallDenied {
		t.Fatalf("expected entropy-budget denial, got %v", res.CPU)
	}
	if len(res.Outputs) != 1 {
		t.Errorf("exactly one output should have left the enclave, got %d", len(res.Outputs))
	}
}

func TestSessionSealedOutputs(t *testing.T) {
	b := newBootstrap(t, policy.SetP1)
	key := []byte("0123456789abcdef")
	if err := b.SetSessionKey(key); err != nil {
		t.Fatal(err)
	}
	compileAndLoad(t, b, `
char buf[16] = "secret!";
int main() { __ocall_send(buf, 7); return 0; }`, policy.SetP1)
	res, err := b.Run(runtime.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != 1 {
		t.Fatalf("outputs = %d", len(res.Outputs))
	}
	if strings.Contains(string(res.Outputs[0]), "secret!") {
		t.Fatal("output left enclave in plaintext")
	}
	msg, err := deflection.OpenOutput(key, res.Outputs[0])
	if err != nil {
		t.Fatal(err)
	}
	if string(msg) != "secret!" {
		t.Errorf("decrypted = %q", msg)
	}
	if _, err := deflection.OpenOutput([]byte("FFFFFFFFFFFFFFFF"), res.Outputs[0]); err == nil {
		t.Error("wrong key must fail authentication")
	}
}

func TestRunWithoutLoadFails(t *testing.T) {
	b := newBootstrap(t, policy.SetNone)
	if _, err := b.Run(runtime.RunConfig{}); err == nil {
		t.Fatal("Run before load must fail")
	}
}

func TestMeasurementBindsManifest(t *testing.T) {
	m1 := runtime.DefaultManifest()
	m2 := runtime.DefaultManifest()
	m2.OutputBudgetBits = 8
	b1, err := runtime.New(enclave.DefaultConfig(), m1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := runtime.New(enclave.DefaultConfig(), m2)
	if err != nil {
		t.Fatal(err)
	}
	if b1.Measurement() == b2.Measurement() {
		t.Fatal("different manifests must yield different measurements")
	}
}

// TestFingerprintBindsPolicySet: the manifest fingerprint keys the verdict
// cache, so toggling P7 (or any policy) must change it — otherwise a
// binary accepted under P1-P6 would satisfy a P1-P7 manifest from cache.
func TestFingerprintBindsPolicySet(t *testing.T) {
	seen := map[string]policy.Set{}
	for _, pols := range []policy.Set{policy.SetP1P6, policy.SetP1P7, policy.SetAll} {
		m := runtime.DefaultManifest()
		m.Policies = pols
		fp := string(m.Fingerprint())
		if prev, dup := seen[fp]; dup {
			t.Errorf("policy sets %v and %v share a fingerprint", prev, pols)
		}
		seen[fp] = pols
	}
}

func TestGasBoundedRun(t *testing.T) {
	b := newBootstrap(t, policy.SetNone)
	compileAndLoad(t, b, `int main() { while (1) {} return 0; }`, policy.SetNone)
	res, err := b.Run(runtime.RunConfig{Gas: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if res.CPU.Status != cpu.StatusTrap || res.CPU.Trap != isa.TrapOutOfGas {
		t.Fatalf("expected gas exhaustion, got %v", res.CPU)
	}
}

func TestResetIO(t *testing.T) {
	b := newBootstrap(t, policy.SetP1)
	compileAndLoad(t, b, `
char buf[8];
int main() { int n = __ocall_recv(buf, 8); __ocall_send(buf, n); return n; }`, policy.SetP1)
	b.ReceiveData([]byte("xy"))
	res, err := b.Run(runtime.RunConfig{})
	if err != nil || res.CPU.ExitValue != 2 {
		t.Fatalf("first run: %v %v", res.CPU, err)
	}
	b.ResetIO()
	b.ReceiveData([]byte("z"))
	res, err = b.Run(runtime.RunConfig{})
	if err != nil || res.CPU.ExitValue != 1 {
		t.Fatalf("second run: %v %v", res.CPU, err)
	}
	if len(res.Outputs) != 1 {
		t.Errorf("outputs after reset = %d", len(res.Outputs))
	}
}

func TestUnpadRejectsCorrupt(t *testing.T) {
	if _, err := runtime.Unpad([]byte{1, 2}); err == nil {
		t.Error("short frame must fail")
	}
	if _, err := runtime.Unpad([]byte{255, 255, 255, 127}); err == nil {
		t.Error("oversized length must fail")
	}
}

// TestNegativeOutputPadBlockRejected: a negative pad block would make the
// send stub's padding allocate a negative length, so New refuses it.
func TestNegativeOutputPadBlockRejected(t *testing.T) {
	m := runtime.DefaultManifest()
	m.OutputPadBlock = -256
	if _, err := runtime.New(enclave.DefaultConfig(), m); err == nil {
		t.Fatal("New accepted a negative output pad block")
	}
}

// TestOcallStubRefusals drives the send and recv stubs with the arguments a
// hostile service would pass: transfers over the 1 MiB cap, buffers that
// fault, an oversized input, and an index the manifest allows but no stub
// serves.
func TestOcallStubRefusals(t *testing.T) {
	const unmapped = 1 << 60
	cases := []struct {
		name     string
		rdi      string // buffer address operand
		rsi      int64  // length or capacity
		index    int64
		input    string
		trap     isa.TrapCode // 0: the program must halt
		exit     int64
		received string // buffer contents after a halt
	}{
		{name: "send over 1 MiB", rdi: "=buf", rsi: 1<<20 + 1, index: policy.OcallSend, trap: isa.TrapOcallDenied},
		{name: "recv over 1 MiB", rdi: "=buf", rsi: 1<<20 + 1, index: policy.OcallRecv, trap: isa.TrapOcallDenied},
		{name: "send faulting buffer", rdi: fmt.Sprint(unmapped), rsi: 8, index: policy.OcallSend, trap: isa.TrapPageFault},
		{name: "recv faulting buffer", rdi: fmt.Sprint(unmapped), rsi: 8, index: policy.OcallRecv, input: "data", trap: isa.TrapPageFault},
		{name: "recv truncated to capacity", rdi: "=buf", rsi: 5, index: policy.OcallRecv, input: "hello, world", exit: 5, received: "hello"},
		{name: "allowed unknown index", rdi: "=buf", rsi: 8, index: 99, trap: isa.TrapOcallDenied},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o, err := asmtext.Assemble(fmt.Sprintf(`
.entry _start
.bss buf 16
.func _start
  mov rdi, %s
  mov rsi, %d
  ocall %d
  hlt
`, tc.rdi, tc.rsi, tc.index), 0)
			if err != nil {
				t.Fatal(err)
			}
			m := runtime.DefaultManifest()
			m.Policies = policy.SetNone
			m.AllowedOcalls = append(m.AllowedOcalls, 99)
			b, err := runtime.New(enclave.DefaultConfig(), m)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := b.ReceiveBinary(o.Marshal()); err != nil {
				t.Fatal(err)
			}
			if tc.input != "" {
				b.ReceiveData([]byte(tc.input))
			}
			res, err := b.Run(runtime.RunConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if tc.trap != 0 {
				if res.CPU.Status != cpu.StatusTrap || res.CPU.Trap != tc.trap {
					t.Fatalf("got %v, want trap %v", res.CPU, tc.trap)
				}
				if len(res.Outputs) != 0 {
					t.Errorf("%d outputs left the enclave", len(res.Outputs))
				}
				return
			}
			if res.CPU.Status != cpu.StatusHalt || res.CPU.ExitValue != tc.exit {
				t.Fatalf("got %v, want halt with %d", res.CPU, tc.exit)
			}
			// buf is the object's only data, so it starts at the heap base.
			got, f := b.Enclave().Mem.Read(b.Enclave().Layout.HeapBase, len(tc.received)+1)
			if f != nil {
				t.Fatal(f)
			}
			if string(got) != tc.received+"\x00" {
				t.Errorf("buffer = %q, want %q", got, tc.received)
			}
		})
	}
}

// TestOpenOutputErrors: the data owner's unsealing (deflection.OpenOutput)
// refuses a bad key length, a message shorter than the nonce, and a forged
// tag; the enclave refuses a session key of a length AES does not take.
func TestOpenOutputErrors(t *testing.T) {
	if err := newBootstrap(t, policy.SetNone).SetSessionKey(make([]byte, 5)); err == nil {
		t.Error("SetSessionKey accepted a 5-byte key")
	}
	key := []byte("0123456789abcdef")
	for name, tc := range map[string]struct{ key, sealed []byte }{
		"bad key length": {key[:5], make([]byte, 64)},
		"too short":      {key, make([]byte, 4)},
		"forged tag":     {key, make([]byte, 64)},
	} {
		if _, err := deflection.OpenOutput(tc.key, tc.sealed); err == nil {
			t.Errorf("%s: OpenOutput accepted it", name)
		}
	}
}
