// Package lint declares the trusted computing base and enforces its import
// hygiene.
//
// The whole DEFLECTION argument rests on the in-enclave code staying small
// enough to audit: the bootstrap runtime, the loader, the verifier with its
// disassembler, template matchers and CFG passes, and the enclave's side of
// remote attestation (internal/ra; quoting, quote verification and the
// parties' side live in the untrusted attest package).
// DefaultConfig's roots are the one declaration of that set: the lint
// walks their first-party import closure, Table I counts exactly the
// packages the walk visits (less the HardwareModels), and make tcb-cover
// measures their test coverage. The easiest way to lose auditability is an
// innocent-looking import — a metrics hook, a logging helper, a
// convenience call into the service plane — that silently drags the
// network stack or the host OS interface into the attested image.
//
// The lint walks the import graph of the TCB root packages with go/parser
// (ImportsOnly, no type checking, no build system) and rejects any chain
// that reaches a forbidden package: the observability and service planes
// (internal/obs, internal/ccaas, internal/vplane), the assembler
// (internal/asm, which only the untrusted generator runs) and anything under
// the net or os standard-library trees. Only first-party packages are
// traversed; the standard library below permitted imports (fmt, errors,
// crypto/sha256, ...) is out of scope, exactly like the paper's TCB
// accounting.
//
// Test files (_test.go) are ignored: they are not linked into the enclave
// image and routinely import the service plane to drive end-to-end cases.
package lint

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Config names the module under lint, the TCB roots and the forbidden
// import prefixes. TCB entries are module-relative. Forbidden entries
// beginning with "internal/" are module-relative; anything else matches
// standard-library paths.
type Config struct {
	Root      string   // module root directory (holds go.mod)
	Module    string   // module path; read from go.mod when empty
	TCB       []string // TCB root packages, module-relative
	Forbidden []string // forbidden import prefixes
}

// DefaultConfig returns the repository's TCB rules: the in-enclave
// packages — the bootstrap runtime, the verification packages, the
// enclave model and the enclave's side of remote attestation — may not
// reach the observability plane, the service plane (including the session
// gateway), the assembler, or the net/os standard-library trees.
func DefaultConfig(root string) Config {
	return Config{
		Root: root,
		TCB: []string{
			"internal/runtime",
			"internal/verifier",
			"internal/cfa",
			"internal/taint",
			"internal/order",
			"internal/disasm",
			"internal/loader",
			"internal/isa",
			"internal/policy",
			"internal/enclave",
			"internal/ra",
		},
		Forbidden: []string{
			"internal/obs",
			"internal/ccaas",
			"internal/vplane",
			"internal/gateway",
			"internal/fleet",
			"internal/tenant",
			"internal/asm",
			"net",
			"os",
		},
	}
}

// HardwareModels are the trusted-closure packages that stand in for SGX
// hardware rather than enclave software: the CPU emulator and the enclave
// memory model. On real hardware they are the processor, so Table I lists
// them but does not add them to the software TCB. Module-relative.
var HardwareModels = []string{"internal/cpu", "internal/enclave"}

// Finding is one forbidden import, with the full chain that reaches it
// from a TCB root and the file:line of the offending import spec.
type Finding struct {
	Chain  []string // TCB root -> ... -> importing package
	Import string   // the forbidden import path
	Pos    string   // file:line of the import spec
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: TCB package imports forbidden %q via %s",
		f.Pos, f.Import, strings.Join(f.Chain, " -> "))
}

// Report is the outcome of a lint run.
type Report struct {
	Findings []Finding
	Module   string   // module path the packages are qualified with
	Packages []string // first-party packages visited, sorted
}

type importSpec struct {
	path string
	pos  string
}

// Check walks the import graph from the configured TCB roots and returns
// every forbidden import it can reach, each with its offending chain.
func Check(cfg Config) (*Report, error) {
	module := cfg.Module
	if module == "" {
		m, err := modulePath(cfg.Root)
		if err != nil {
			return nil, err
		}
		module = m
	}

	// Forbidden prefixes in fully-qualified form.
	var forbidden []string
	for _, f := range cfg.Forbidden {
		if strings.HasPrefix(f, "internal/") {
			f = module + "/" + f
		}
		forbidden = append(forbidden, f)
	}
	isForbidden := func(imp string) bool {
		for _, f := range forbidden {
			if imp == f || strings.HasPrefix(imp, f+"/") {
				return true
			}
		}
		return false
	}

	rep := &Report{Module: module}
	imports := make(map[string][]importSpec) // package path -> parsed imports
	visited := make(map[string]bool)

	var walk func(pkg string, chain []string) error
	walk = func(pkg string, chain []string) error {
		chain = append(chain, pkg)
		specs, ok := imports[pkg]
		if !ok {
			var err error
			specs, err = parseImports(cfg.Root, module, pkg)
			if err != nil {
				return err
			}
			imports[pkg] = specs
		}
		for _, s := range specs {
			if isForbidden(s.path) {
				rep.Findings = append(rep.Findings, Finding{
					Chain:  append([]string(nil), chain...),
					Import: s.path,
					Pos:    s.pos,
				})
				continue
			}
			if !strings.HasPrefix(s.path, module+"/") {
				continue // standard library or external: not traversed
			}
			if visited[s.path] {
				continue
			}
			visited[s.path] = true
			if err := walk(s.path, chain); err != nil {
				return err
			}
		}
		return nil
	}

	for _, tcb := range cfg.TCB {
		pkg := module + "/" + tcb
		if visited[pkg] {
			continue
		}
		visited[pkg] = true
		if err := walk(pkg, nil); err != nil {
			return nil, err
		}
	}

	for pkg := range visited {
		rep.Packages = append(rep.Packages, pkg)
	}
	sort.Strings(rep.Packages)
	sort.Slice(rep.Findings, func(i, j int) bool { return rep.Findings[i].Pos < rep.Findings[j].Pos })
	return rep, nil
}

// parseImports reads every non-test .go file of a package directory with
// parser.ImportsOnly and returns the import paths in deterministic order.
func parseImports(root, module, pkg string) ([]importSpec, error) {
	dir := filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(pkg, module+"/")))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: package %s: %w", pkg, err)
	}
	fset := token.NewFileSet()
	var specs []importSpec
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ImportsOnly)
		if err != nil {
			return nil, fmt.Errorf("lint: %s: %w", filepath.Join(dir, name), err)
		}
		for _, imp := range f.Imports {
			p, err := strconvUnquote(imp.Path.Value)
			if err != nil {
				return nil, fmt.Errorf("lint: %s: bad import %s", name, imp.Path.Value)
			}
			specs = append(specs, importSpec{path: p, pos: fset.Position(imp.Pos()).String()})
		}
	}
	sort.Slice(specs, func(i, j int) bool { return specs[i].path < specs[j].path })
	return specs, nil
}

// strconvUnquote strips the quotes of an import path literal.
func strconvUnquote(s string) (string, error) {
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		return s[1 : len(s)-1], nil
	}
	return "", fmt.Errorf("not a quoted string: %s", s)
}

// modulePath extracts the module path from go.mod at root.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("lint: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s/go.mod", root)
}
