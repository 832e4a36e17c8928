GO ?= go

.PHONY: check build fmt vet lint metric-lint fuzz-disasm fuzz-taint fuzz-order test race race-vplane race-gateway race-tenant race-dataflow chaos bench bench-smoke metrics-smoke

# Tier-1 gate: what CI must keep green. race is the full -race sweep and
# subsumes race-vplane/race-gateway/race-tenant/race-dataflow; the focused
# targets exist for fast iteration. bench-smoke runs the benchmark module's
# own tests, which the root go test ./... does not reach.
check: build fmt vet lint metric-lint race race-vplane race-gateway race-tenant race-dataflow fuzz-disasm fuzz-taint fuzz-order bench-smoke

build:
	$(GO) build ./...

# gofmt -l prints offending files; fail if it prints anything.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# TCB import hygiene: the verification packages (verifier, cfa, taint,
# order, disasm, loader, isa, policy) must not import the observability or
# service planes,
# nor anything under net/ or os/. Fails with the offending import chain.
lint:
	$(GO) run ./cmd/deflection-lint -root .

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

# Short coverage-guided smoke of the P7 taint pass over arbitrary decodable
# machine code (no panics, declared errors only, deterministic reports).
fuzz-taint:
	$(GO) test -fuzz=FuzzTaintPass -fuzztime=$(FUZZTIME) -run '^$$' ./internal/taint/

# Short coverage-guided smoke of the P8 order pass over perturbed protocol
# automata (no panics, declared errors only, deterministic reports).
fuzz-order:
	$(GO) test -fuzz=FuzzOrderPass -fuzztime=$(FUZZTIME) -run '^$$' ./internal/order/

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
