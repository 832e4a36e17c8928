package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"deflection/internal/apps"
	"deflection/internal/compiler"
	"deflection/internal/dclib"
	"deflection/internal/policy"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens")

// runMainEnv makes the test binary act as the command itself, so the tests
// exercise the real flag parsing, stdout/stderr split and exit status.
const runMainEnv = "DEFLECTION_DISASM_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// strictProtocol demands exactly one sealed send between the provisioning
// recv and the halt, which the credit app's early-exit path violates: the
// -order rendering therefore carries a finding, the -taint one (credit's
// weights are secret but only reach the sealed output) carries masks.
const strictProtocol = `
protocol {
    state init;
    state ready attested;
    state sent attested;
    state end attested;
    init: recv -> ready;
    ready: send -> sent;
    sent: hlt -> end;
}
`

// TestCFGGolden pins every -cfg rendering (text and dot, plain and
// annotated with the P7 or the P8 pass) of an app that declares both
// secrets and an interface protocol, byte for byte, together with the
// verdict line and exit status of each and of -verify p1-p8. Regenerate with
// `go test ./cmd/deflection-disasm/ -update`.
func TestCFGGolden(t *testing.T) {
	o, err := compiler.Compile(dclib.Program(strictProtocol+apps.CreditSource), compiler.Options{Policies: policy.SetP1P8})
	if err != nil {
		t.Fatal(err)
	}
	dfo := filepath.Join(t.TempDir(), "credit.dfo")
	if err := os.WriteFile(dfo, o.Marshal(), 0o644); err != nil {
		t.Fatal(err)
	}
	var verdicts strings.Builder
	for _, pass := range []string{"", "taint", "order"} {
		for _, format := range []string{"text", "dot"} {
			args := []string{"-cfg", format}
			name := "credit.cfg." + format
			if pass != "" {
				args = append(args, "-"+pass)
				name = "credit." + pass + "." + format
			}
			stdout, stderr, code := runCommand(t, append(args, dfo)...)
			fmt.Fprintf(&verdicts, "%s: exit %d\n%s", name, code, stderr)
			checkGolden(t, name+".golden", stdout)
		}
	}
	// -verify builds the verifier's inputs as the runtime does, secret
	// table and protocol included, so it reaches the runtime's P8 verdict.
	stdout, _, code := runCommand(t, "-d=false", "-verify", "p1-p8", dfo)
	fmt.Fprintf(&verdicts, "credit.verify.p1-p8: exit %d\n", code)
	for _, line := range strings.Split(stdout, "\n") {
		if strings.HasPrefix(line, "verifier: ") {
			fmt.Fprintln(&verdicts, line)
		}
	}
	checkGolden(t, "credit.verdicts.golden", verdicts.String())
}

// runCommand runs the command with args and returns its stdout, stderr and
// exit status.
func runCommand(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return stdout.String(), stderr.String(), 0
	case errors.As(err, &exit):
		return stdout.String(), stderr.String(), exit.ExitCode()
	default:
		t.Fatalf("running %v: %v", args, err)
		return "", "", 0
	}
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range gl {
		if i >= len(wl) || gl[i] != wl[i] {
			w := "<EOF>"
			if i < len(wl) {
				w = wl[i]
			}
			t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], w)
		}
	}
	t.Fatalf("%s: output ends at line %d, golden has %d lines", path, len(gl), len(wl))
}
