package vplane_test

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"deflection/internal/apps"
	"deflection/internal/dclib"
	"deflection/internal/obj"
	"deflection/internal/policy"
	"deflection/internal/verifier"
	"deflection/internal/vplane"
)

// determinismSrc is a P1-P8 program with a secret global, so the taint and
// order passes both run.
const determinismSrc = `
secret int key[4];
int main() {
	int n = read_param();
	for (int i = 0; i < 4; i++) key[i] = n * (i + 3);
	int s = 0;
	for (int i = 0; i < 4; i++) s += key[i];
	send_int(s);
	return 0;
}`

// Environment of a child run of TestVerdictDeterministicAcrossProcesses:
// the object to verify and the file to write its fingerprint to.
const (
	envDeterminismObj = "DEFLECTION_DETERMINISM_OBJ"
	envDeterminismOut = "DEFLECTION_DETERMINISM_OUT"
)

// verdictFingerprint verifies objBytes under P1-P8 and renders what peers
// compare when they share verdicts: the cache key, the digest of the
// verified image and the verifier's Result.
func verdictFingerprint(t *testing.T, objBytes []byte) []byte {
	t.Helper()
	m, l := manifestFor(policy.SetP1P8), defaultLayout(t)
	p := vplane.New(vplane.Config{CacheBytes: 1 << 20, Workers: 1})
	defer p.Close()
	v, _, err := p.Verify(context.Background(), objBytes, m, l)
	if err != nil || v.Image == nil {
		t.Fatalf("Verify: %v, %v", v, err)
	}

	o, err := obj.Unmarshal(objBytes)
	if err != nil {
		t.Fatal(err)
	}
	text, opts, err := apps.VerifyObject(o, policy.SetP1P8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := verifier.Verify(text, opts)
	if err != nil {
		t.Fatal(err)
	}
	rendered, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Appendf(nil, "key %x\nimage %x\nresult %s\n", vplane.ComputeKey(objBytes, m, l), vplane.ImageDigest(v.Image), rendered)
}

// TestVerdictDeterministicAcrossProcesses: certificate sharing assumes that
// every process verifying the same binary reaches the same bytes. The test
// re-runs its own binary twice on one compiled P1-P8 object and requires
// the cache key, the image digest and the rendered Result of both runs, and
// of this process, to be byte-identical.
func TestVerdictDeterministicAcrossProcesses(t *testing.T) {
	if path := os.Getenv(envDeterminismObj); path != "" {
		objBytes, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(os.Getenv(envDeterminismOut), verdictFingerprint(t, objBytes), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if testing.Short() {
		t.Skip("re-executes the test binary")
	}

	dir := t.TempDir()
	objPath := filepath.Join(dir, "p1p8.obj")
	objBytes := compileObj(t, dclib.Program(determinismSrc), policy.SetP1P8)
	if err := os.WriteFile(objPath, objBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	want := verdictFingerprint(t, objBytes)
	for i := 0; i < 2; i++ {
		out := filepath.Join(dir, fmt.Sprintf("child%d", i))
		cmd := exec.Command(os.Args[0], "-test.run=^TestVerdictDeterministicAcrossProcesses$", "-test.count=1")
		cmd.Env = append(os.Environ(), envDeterminismObj+"="+objPath, envDeterminismOut+"="+out)
		if log, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("child %d: %v\n%s", i, err, log)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("child %d fingerprint differs from this process:\n got %.300s\nwant %.300s", i, got, want)
		}
	}
}
