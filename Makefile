GO ?= go

.PHONY: check build fmt vet lint tcb-cover metric-lint fuzz-disasm fuzz-verify fuzz-templates fuzz-engine fuzz-taint fuzz-order fuzz-memory fuzz-cpu fuzz-receive test race race-vplane race-gateway race-tenant race-dataflow chaos bench bench-smoke metrics-smoke

# Tier-1 gate: what CI must keep green. race is the full -race sweep and
# subsumes race-vplane/race-gateway/race-tenant/race-dataflow; the focused
# targets exist for fast iteration. bench-smoke runs the benchmark module's
# own tests, which the root go test ./... does not reach.
check: build fmt vet lint tcb-cover metric-lint race race-vplane race-gateway race-tenant race-dataflow fuzz-disasm fuzz-verify fuzz-templates fuzz-engine fuzz-taint fuzz-order fuzz-memory fuzz-cpu fuzz-receive bench-smoke

build:
	$(GO) build ./...

# gofmt -l prints offending files; fail if it prints anything.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# TCB import hygiene: the trusted set declared in internal/lint (the
# bootstrap runtime, the verification packages, the enclave model and the
# enclave's side of remote attestation, with their first-party import
# closure) must not import the observability or service planes, the
# assembler, nor anything under net/ or os/. Fails with the offending
# import chain; on success prints the walked packages.
lint:
	$(GO) run ./cmd/deflection-lint -root .

# Statement coverage of the trusted set: the packages the TCB lint walks,
# which are also the packages Table I counts. Runs the whole suite with
# -coverpkg over them, counts a statement covered if any test binary ran
# it, prints per-package and aggregate coverage, and fails when the
# aggregate drops below TCB_COVER_FLOOR or a package drops below its entry
# in TCB_COVER_PKG_FLOORS (a walked package without an entry has no floor
# of its own). The floors are the figures last recorded, rounded down to
# 0.1%: a ratchet, raised as coverage grows, never lowered to pass.
TCB_COVER_FLOOR = 97.8
TCB_COVER_PKG_FLOORS = \
	deflection/internal/cfa=99.4 \
	deflection/internal/cpu=98.8 \
	deflection/internal/disasm=100.0 \
	deflection/internal/enclave=96.3 \
	deflection/internal/isa=98.5 \
	deflection/internal/loader=100.0 \
	deflection/internal/obj=98.6 \
	deflection/internal/order=100.0 \
	deflection/internal/policy=100.0 \
	deflection/internal/ra=100.0 \
	deflection/internal/runtime=98.0 \
	deflection/internal/stage=100.0 \
	deflection/internal/taint=91.9 \
	deflection/internal/verifier=100.0
tcb-cover:
	@pkgs=$$($(GO) run ./cmd/deflection-lint -root . | grep -v '^deflection-lint:' | paste -sd, -) && \
	prof=$$(mktemp) && trap 'rm -f "$$prof" "$$prof.log"' EXIT && \
	{ $(GO) test -count=1 -coverpkg="$$pkgs" -coverprofile="$$prof" ./... >"$$prof.log" 2>&1 || { cat "$$prof.log"; exit 1; }; } && \
	awk -v floor=$(TCB_COVER_FLOOR) -v pkgfloors="$(strip $(TCB_COVER_PKG_FLOORS))" ' \
		BEGIN { n = split(pkgfloors, kv, " "); for (i = 1; i <= n; i++) { split(kv[i], f, "="); pf[f[1]] = f[2] + 0 } } \
		/^mode:/ { next } \
		{ stmts[$$1] = $$2; if ($$3 > 0) hit[$$1] = 1 } \
		END { \
			for (b in stmts) { \
				pkg = b; sub(/\/[^\/]*$$/, "", pkg); \
				all[pkg] += stmts[b]; total += stmts[b]; \
				if (b in hit) { cov[pkg] += stmts[b]; covered += stmts[b] } \
			} \
			for (p in all) { \
				pct = 100*cov[p]/all[p]; \
				if (p in pf && pct < pf[p]) low = low " " p; \
				printf "%-28s %6.1f%%  %4d of %4d statements uncovered (floor %s)\n", p, pct, all[p]-cov[p], all[p], ((p in pf) ? sprintf("%.1f%%", pf[p]) : "none") | "sort"; \
			} \
			close("sort"); \
			pct = 100*covered/total; \
			printf "%-28s %6.2f%%  %4d of %4d statements uncovered (floor %.2f%%)\n", "trusted set", pct, total-covered, total, floor; \
			if (low != "") { print "tcb-cover: coverage below the package floor:" low; exit 1 } \
			if (pct < floor) { print "tcb-cover: aggregate coverage below the floor"; exit 1 } \
		}' "$$prof"

# Metric-name hygiene: every literal Counter/Gauge/Histogram name must be
# lowercase snake_case and no name may be registered as two metric types
# (Prometheus would reject the exposition).
metric-lint:
	$(GO) run ./cmd/deflection-lint -metrics -root .

# Short coverage-guided smoke of the instruction decoder; FUZZTIME can be
# raised for a real fuzzing session (e.g. make fuzz-disasm FUZZTIME=10m).
FUZZTIME ?= 5s
fuzz-disasm:
	$(GO) test -fuzz=FuzzDisassemble -fuzztime=$(FUZZTIME) -run '^$$' ./internal/disasm/

# Short coverage-guided smoke of the whole verifier over mutated compiled
# programs and branch-target lists (no panics, deterministic verdicts, the
# instruction-table invariants on every acceptance). Inputs are whole
# binaries, so minimizing a new corpus entry is capped at a few executions.
fuzz-verify:
	$(GO) test -fuzz=FuzzVerify -fuzztime=$(FUZZTIME) -fuzzminimizetime=10x -run '^$$' ./internal/verifier/

# Short differential smoke of the table-driven annotation-template matcher
# against the hand-written reference matchers it replaced (same verdict,
# Violation, Stats, annotation ranges and anchors) over byte and
# instruction mutations inside the annotation spans of compiled programs.
# Inputs are whole binaries, so minimizing a new corpus entry is capped at a
# few executions.
fuzz-templates:
	$(GO) test -fuzz=FuzzTemplates -fuzztime=$(FUZZTIME) -fuzzminimizetime=10x -run '^$$' ./internal/verifier/

# Short differential smoke of the shared dataflow engine against a
# reference solver that re-transfers every reached block each round (same
# convergence verdict, final in-states and findings) over random
# multi-function programs whose transfers read and mark global facts.
# Inputs are whole programs, so minimizing a new corpus entry is capped at
# a few executions.
fuzz-engine:
	$(GO) test -fuzz=FuzzEngine -fuzztime=$(FUZZTIME) -fuzzminimizetime=10x -run '^$$' ./internal/cfa/

# Short coverage-guided smoke of the P7 taint pass over arbitrary decodable
# machine code (no panics, declared errors only, deterministic reports).
fuzz-taint:
	$(GO) test -fuzz=FuzzTaintPass -fuzztime=$(FUZZTIME) -run '^$$' ./internal/taint/

# Short coverage-guided smoke of the P8 order pass over perturbed protocol
# automata (no panics, declared errors only, deterministic reports).
fuzz-order:
	$(GO) test -fuzz=FuzzOrderPass -fuzztime=$(FUZZTIME) -run '^$$' ./internal/order/

# Short differential smoke of the demand-paged enclave memory against a flat
# reference model (values, fetch windows, faults, code-write generations and
# which pages get materialised must all agree). Inputs are operation
# sequences; minimizing each new corpus entry at the default 60 s would use
# the whole smoke, so it is capped at a few executions.
fuzz-memory:
	$(GO) test -fuzz=FuzzMemory -fuzztime=$(FUZZTIME) -fuzzminimizetime=10x -run '^$$' ./internal/enclave/

# Short differential smoke of the CPU's linked instruction table and fused
# annotation handlers against a stepper that decodes at RIP on every
# instruction (retired stream, final registers, Result and enclave memory
# must agree) over random programs that branch, call, return, rewrite their
# own code, change code permissions and run annotation templates, intact,
# mutated or sent off their common path. Inputs are whole programs, so
# minimizing a new corpus entry is capped at a few executions.
fuzz-cpu:
	$(GO) test -fuzz=FuzzStep -fuzztime=$(FUZZTIME) -fuzzminimizetime=10x -run '^$$' ./internal/cpu/

# Short smoke of the bootstrap enclave on arbitrary wire bytes under P1-P8
# (no panics; an accepted binary runs alike through Run and a Step loop),
# seeded with a compiled P1-P8 object that has a secret global. Inputs are
# whole binaries, so minimizing a new corpus entry is capped at a few
# executions.
fuzz-receive:
	$(GO) test -fuzz=FuzzReceiveBinary -fuzztime=$(FUZZTIME) -fuzzminimizetime=10x -run '^$$' ./internal/runtime/

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Focused race gate for the concurrency-heavy verification-plane layers
# (single-flight, worker pool, session wiring); runs twice to shake out
# scheduling-dependent interleavings faster than the full -race sweep.
race-vplane:
	$(GO) test -race -count=2 ./internal/vplane/ ./internal/ccaas/

# Focused race gate for the session gateway (splice goroutines, breaker
# state machine, probe loops, failover under concurrent bursts).
race-gateway:
	$(GO) test -race -count=2 ./internal/gateway/

# Focused race gate for tenant admission (token buckets, weighted-fair
# queue grants/evictions/timeouts racing releases, config reloads, and the
# mixed-tier starvation scenario end to end).
race-tenant:
	$(GO) test -race -count=2 ./internal/tenant/
	$(GO) test -race -count=2 -run 'TestTenant|TestGatewayTenant|TestGatewayStalled' ./internal/gateway/

# Focused race gate for the shared dataflow engine, the P7 taint and P8
# order passes over it, and their verifier/runtime wiring (the analyses are
# pure, but concurrent verifications share them).
race-dataflow:
	$(GO) test -race -count=2 ./internal/cfa/ ./internal/taint/ ./internal/order/ ./internal/verifier/ ./internal/apps/

# The fault-injection suite on its own (always runs under -race: the point
# is that injected faults surface as clean errors, not data races).
chaos:
	$(GO) test -race -run 'TestChaos|TestMalformed|TestNoGoroutineLeaks|TestShutdown|TestMaxSessions|TestDraining|TestServe|TestTenantStarvation' ./internal/ccaas/ ./internal/faultnet/ ./internal/gateway/

bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# The benchmark is a nested module: its oracles and quick smoke of every
# workload run only from inside it.
bench-smoke:
	cd benchmark && $(GO) test ./...

# Boots the real deflection-serve binary with -metrics-addr, scrapes
# /metrics and /healthz after the demo session, and checks a clean drain.
metrics-smoke:
	$(GO) test -v -run TestMetricsSmoke ./cmd/deflection-serve/
