GO ?= go

# Wall-clock budget for the full lint suite; the lint target warns when
# exceeded so future PRs notice a regression.
LINT_BUDGET_SECONDS ?= 60

.PHONY: all build test short race race-harness vet lint simlint bench san-test san-suite fuzz

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

short:
	$(GO) test -short ./...

# The experiment warm pool, matrix singleflight, and workload
# generators all run concurrently under the race detector here.
race:
	$(GO) test -race ./...

# Focused race pass for quick iteration on the harness; CI runs the full
# `race` target (./...) on every push.
race-harness:
	$(GO) test -race ./internal/harness/

vet:
	$(GO) vet ./...

# simlint is the project-specific invariant suite (determinism,
# address-unit safety, shared-state contracts, sanitizer gating,
# parameter hygiene, error handling); see README.md "Static analysis &
# invariants". The allocation-free hot path and telemetry purity are
# checked by tests that run the simulator (`make test`).
# -unused-suppressions reports //lint: directives that no longer
# suppress anything, so stale suppressions cannot accumulate.
simlint:
	$(GO) run ./cmd/simlint -unused-suppressions ./...

# lint runs every static gate: go vet, simlint, and — when installed —
# staticcheck and govulncheck (the repo carries no dependency on either;
# CI installs them, laptops may not). The elapsed wall time is printed so
# regressions past the budget are visible in every run's output.
lint:
	@start=$$(date +%s); \
	set -e; \
	echo ">> go vet ./..."; \
	$(GO) vet ./...; \
	echo ">> simlint -unused-suppressions ./..."; \
	$(GO) run ./cmd/simlint -unused-suppressions ./...; \
	if command -v staticcheck >/dev/null 2>&1; then \
		echo ">> staticcheck ./..."; staticcheck ./...; \
	else echo ">> staticcheck not installed; skipping"; fi; \
	if command -v govulncheck >/dev/null 2>&1; then \
		echo ">> govulncheck ./..."; govulncheck ./...; \
	else echo ">> govulncheck not installed; skipping"; fi; \
	end=$$(date +%s); dur=$$((end - start)); \
	echo "lint completed in $${dur}s (budget: $(LINT_BUDGET_SECONDS)s)"; \
	if [ $$dur -gt $(LINT_BUDGET_SECONDS) ]; then \
		echo "WARNING: make lint exceeded its $(LINT_BUDGET_SECONDS)s budget — investigate before it rots"; \
	fi

# simsan: the whole test suite with the runtime invariant sanitizer
# compiled in and enabled (see internal/san and DESIGN.md's invariant
# catalog). Default builds carry none of its cost.
san-test:
	$(GO) build -tags=san ./...
	$(GO) test -tags=san ./...

# Fast-budget experiment suite under the sanitizer, then a byte-diff of
# its stdout against the untagged binary: the sanitizer must observe,
# never steer.
san-suite:
	$(GO) run -tags=san ./cmd/experiments -exp all -fast -quiet > /tmp/bingo-san.out
	$(GO) run ./cmd/experiments -exp all -fast -quiet > /tmp/bingo-nosan.out
	cmp /tmp/bingo-san.out /tmp/bingo-nosan.out
	@echo "san-suite: sanitized output is byte-identical to unsanitized"

# Short-budget fuzz pass over the parser, address-geometry and cell-label
# targets; CI runs the same set on every push.
FUZZ_TIME ?= 15s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzTraceReader -fuzztime $(FUZZ_TIME) ./internal/trace/
	$(GO) test -run '^$$' -fuzz FuzzGzipAutoReader -fuzztime $(FUZZ_TIME) ./internal/trace/
	$(GO) test -run '^$$' -fuzz FuzzAddrHelpers -fuzztime $(FUZZ_TIME) ./internal/mem/
	$(GO) test -run '^$$' -fuzz FuzzRegionGeometry -fuzztime $(FUZZ_TIME) ./internal/mem/
	$(GO) test -run '^$$' -fuzz FuzzDirectiveParser -fuzztime $(FUZZ_TIME) ./internal/lint/analysis/
	$(GO) test -run '^$$' -fuzz FuzzCellRunner -fuzztime $(FUZZ_TIME) ./internal/harness/

bench:
	$(GO) test -bench=. -benchmem ./...
