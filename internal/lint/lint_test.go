package lint

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestRepoTCBHygiene lints the real repository: the verification TCB must
// be free of service-plane, net and os imports. This is the same check
// `make lint` gates the build on.
func TestRepoTCBHygiene(t *testing.T) {
	rep, err := Check(DefaultConfig("../.."))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range rep.Findings {
		t.Errorf("%s", f)
	}
	// The TCB roots plus their first-party closure (cpu, obj, stage).
	if len(rep.Packages) < len(DefaultConfig(".").TCB) {
		t.Fatalf("lint visited only %d packages: %v", len(rep.Packages), rep.Packages)
	}
	for _, pkg := range HardwareModels {
		if !slices.Contains(rep.Packages, rep.Module+"/"+pkg) {
			t.Errorf("hardware model %s is not in the walked trusted closure %v", pkg, rep.Packages)
		}
	}
	// Quoting, quote verification and the parties' handshake run outside
	// the enclave; the trusted set holds only internal/ra.
	if slices.Contains(rep.Packages, rep.Module+"/attest") {
		t.Errorf("the untrusted attest package is in the walked trusted closure %v", rep.Packages)
	}
}

// write lays out a synthetic module for violation tests.
func write(t *testing.T, root, rel, content string) {
	t.Helper()
	path := filepath.Join(root, filepath.FromSlash(rel))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestDetectsForbiddenImports(t *testing.T) {
	root := t.TempDir()
	write(t, root, "go.mod", "module example.test\n\ngo 1.22\n")
	write(t, root, "internal/verifier/v.go", `package verifier

import (
	"fmt"
	"net"

	"example.test/internal/util"
)

var _ = fmt.Sprint
var _ = net.IPv4len
var _ = util.X
`)
	write(t, root, "internal/util/u.go", `package util

import "example.test/internal/obs"

var X = obs.Y
`)
	write(t, root, "internal/obs/o.go", "package obs\n\nvar Y = 1\n")

	cfg := DefaultConfig(root)
	cfg.TCB = []string{"internal/verifier"}
	rep, err := Check(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) != 2 {
		t.Fatalf("findings = %d, want 2: %v", len(rep.Findings), rep.Findings)
	}
	var sawNet, sawObs bool
	for _, f := range rep.Findings {
		switch f.Import {
		case "net":
			sawNet = true
			if len(f.Chain) != 1 || f.Chain[0] != "example.test/internal/verifier" {
				t.Errorf("net chain = %v", f.Chain)
			}
		case "example.test/internal/obs":
			sawObs = true
			// The chain must expose the indirection through util.
			want := "example.test/internal/verifier -> example.test/internal/util"
			if got := strings.Join(f.Chain, " -> "); got != want {
				t.Errorf("obs chain = %q, want %q", got, want)
			}
		default:
			t.Errorf("unexpected finding: %s", f)
		}
		if !strings.Contains(f.Pos, ".go:") {
			t.Errorf("finding lacks file:line position: %s", f.Pos)
		}
	}
	if !sawNet || !sawObs {
		t.Fatalf("missing findings (net=%v obs=%v): %v", sawNet, sawObs, rep.Findings)
	}
}

// TestDetectsGatewayImport: the session gateway is service-plane code; a
// TCB package importing it (even indirectly) must be flagged.
func TestDetectsGatewayImport(t *testing.T) {
	root := t.TempDir()
	write(t, root, "go.mod", "module example.test\n\ngo 1.22\n")
	write(t, root, "internal/policy/p.go", `package policy

import _ "example.test/internal/gateway"
`)
	write(t, root, "internal/gateway/g.go", "package gateway\n")
	cfg := DefaultConfig(root)
	cfg.TCB = []string{"internal/policy"}
	rep, err := Check(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) != 1 || rep.Findings[0].Import != "example.test/internal/gateway" {
		t.Fatalf("findings = %v, want one internal/gateway", rep.Findings)
	}
}

// TestForbiddenListPinned: the default forbidden set must cover every
// service-plane package, including the fleet telemetry transport — losing
// an entry here silently re-opens the TCB to the network stack.
func TestForbiddenListPinned(t *testing.T) {
	cfg := DefaultConfig(".")
	want := []string{
		"internal/obs", "internal/ccaas", "internal/vplane",
		"internal/gateway", "internal/fleet", "internal/tenant",
		"internal/asm", "net", "os",
	}
	have := make(map[string]bool, len(cfg.Forbidden))
	for _, f := range cfg.Forbidden {
		have[f] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("DefaultConfig.Forbidden is missing %q", w)
		}
	}
}

// TestDetectsFleetImport: the fleet aggregation package speaks HTTP to
// every backend; a TCB package reaching it must be flagged.
func TestDetectsFleetImport(t *testing.T) {
	root := t.TempDir()
	write(t, root, "go.mod", "module example.test\n\ngo 1.22\n")
	write(t, root, "internal/disasm/d.go", `package disasm

import _ "example.test/internal/fleet"
`)
	write(t, root, "internal/fleet/f.go", "package fleet\n")
	cfg := DefaultConfig(root)
	cfg.TCB = []string{"internal/disasm"}
	rep, err := Check(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) != 1 || rep.Findings[0].Import != "example.test/internal/fleet" {
		t.Fatalf("findings = %v, want one internal/fleet", rep.Findings)
	}
}

// TestSubtreeMatch: "os" must also reject "os/exec" but not "osquery"-style
// prefixes of unrelated packages.
func TestSubtreeMatch(t *testing.T) {
	root := t.TempDir()
	write(t, root, "go.mod", "module example.test\n")
	write(t, root, "internal/verifier/v.go", `package verifier

import _ "os/exec"
`)
	cfg := DefaultConfig(root)
	cfg.TCB = []string{"internal/verifier"}
	rep, err := Check(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) != 1 || rep.Findings[0].Import != "os/exec" {
		t.Fatalf("findings = %v, want one os/exec", rep.Findings)
	}
}

// TestIgnoresTestFiles: _test.go files may import anything.
func TestIgnoresTestFiles(t *testing.T) {
	root := t.TempDir()
	write(t, root, "go.mod", "module example.test\n")
	write(t, root, "internal/verifier/v.go", "package verifier\n")
	write(t, root, "internal/verifier/v_test.go", `package verifier

import _ "net/http"
`)
	cfg := DefaultConfig(root)
	cfg.TCB = []string{"internal/verifier"}
	rep, err := Check(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) != 0 {
		t.Fatalf("test-file imports flagged: %v", rep.Findings)
	}
}

// TestTCBRootsPinned: the default TCB roots are the one declaration of the
// trusted set, so they are pinned exactly: the bootstrap runtime, every
// verification-plane package, the enclave model and attestation. Dropping
// internal/order (or any other pass) here would let the P8 automaton
// analysis silently grow service-plane or network dependencies; dropping
// internal/runtime would let the enclave link the observability plane
// again. The hardware-model list, which Table I lists but does not sum,
// is pinned alongside.
func TestTCBRootsPinned(t *testing.T) {
	cfg := DefaultConfig(".")
	want := []string{
		"internal/runtime", "internal/verifier", "internal/cfa",
		"internal/taint", "internal/order", "internal/disasm",
		"internal/loader", "internal/isa", "internal/policy",
		"internal/enclave", "internal/ra",
	}
	if !slices.Equal(cfg.TCB, want) {
		t.Errorf("DefaultConfig.TCB = %q, want %q", cfg.TCB, want)
	}
	if want := []string{"internal/cpu", "internal/enclave"}; !slices.Equal(HardwareModels, want) {
		t.Errorf("HardwareModels = %q, want %q", HardwareModels, want)
	}
}

// TestDetectsOrderPassImport: the P8 order pass is in-enclave code; an
// observability import reached from it must be flagged.
func TestDetectsOrderPassImport(t *testing.T) {
	root := t.TempDir()
	write(t, root, "go.mod", "module example.test\n\ngo 1.22\n")
	write(t, root, "internal/order/o.go", `package order

import _ "example.test/internal/obs"
`)
	write(t, root, "internal/obs/m.go", "package obs\n")
	cfg := DefaultConfig(root)
	cfg.TCB = []string{"internal/order"}
	rep, err := Check(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) != 1 || rep.Findings[0].Import != "example.test/internal/obs" {
		t.Fatalf("findings = %v, want one internal/obs", rep.Findings)
	}
}

// TestDetectsAssemblerImport: the assembler runs only in the untrusted
// generator; a verifier package that imports it to encode instructions must
// be flagged, since the decoder in internal/isa is all the enclave needs.
func TestDetectsAssemblerImport(t *testing.T) {
	root := t.TempDir()
	write(t, root, "go.mod", "module example.test\n\ngo 1.22\n")
	write(t, root, "internal/verifier/v.go", `package verifier

import _ "example.test/internal/asm"
`)
	write(t, root, "internal/asm/a.go", "package asm\n")
	cfg := DefaultConfig(root)
	cfg.TCB = []string{"internal/verifier"}
	rep, err := Check(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) != 1 || rep.Findings[0].Import != "example.test/internal/asm" {
		t.Fatalf("findings = %v, want one internal/asm", rep.Findings)
	}
}

// TestDetectsRuntimeObsImport: the bootstrap runtime is a TCB root; an
// observability import reached from it, even through a helper package,
// must be flagged. The stage-trace types the runtime records live outside
// internal/obs for exactly this reason.
func TestDetectsRuntimeObsImport(t *testing.T) {
	root := t.TempDir()
	write(t, root, "go.mod", "module example.test\n\ngo 1.22\n")
	write(t, root, "internal/runtime/r.go", `package runtime

import _ "example.test/internal/trace"
`)
	write(t, root, "internal/trace/t.go", `package trace

import _ "example.test/internal/obs/render"
`)
	write(t, root, "internal/obs/render/r.go", "package render\n")
	cfg := DefaultConfig(root)
	cfg.TCB = []string{"internal/runtime"}
	rep, err := Check(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) != 1 || rep.Findings[0].Import != "example.test/internal/obs/render" {
		t.Fatalf("findings = %v, want one internal/obs/render", rep.Findings)
	}
	want := "example.test/internal/runtime -> example.test/internal/trace"
	if got := strings.Join(rep.Findings[0].Chain, " -> "); got != want {
		t.Errorf("chain = %q, want %q", got, want)
	}
}
