# Single source of truth for build/test/bench/lint invocations: CI jobs
# (.github/workflows/ci.yml) and local runs call the same targets.

GO             ?= go
BENCH_OUT      ?= BENCH_local.json
BENCH_BASELINE ?= BENCH_baseline.json
BENCH_HEAD     ?= BENCH_head.json
BENCH_GATE     ?= BENCH_gate.json

# The hot-path allowlist the benchmark gate enforces (everything else
# stays advisory via benchcmp). Names are post-GOMAXPROCS-strip; the $$
# doubling is Makefile escaping for a literal $.
GATE_ALLOW     ?= ^(BenchmarkIngestBatch|BenchmarkQueryInvalidated|BenchmarkStreamIngest256|BenchmarkSnapshotIncremental/keys=16384|BenchmarkClusterQuery|BenchmarkScatterGather/cluster-64k-3nodes|BenchmarkScatterGather/single-16k|BenchmarkSyncDeadNode)$$
# The matching `go test -bench` selectors. Two because go's slash-
# segmented pattern treats a two-segment regex as sub-benchmark-only: a
# leaf benchmark (no b.Run) never reports under it. The cluster pair
# runs separately: its package boots in-process HTTP clusters, so its
# benchmarks stay out of the engine/server/store selector.
GATE_BENCH     ?= ^(BenchmarkIngestBatch|BenchmarkQueryInvalidated|BenchmarkStreamIngest256)$$
GATE_BENCH_SUB ?= ^BenchmarkSnapshotIncremental$$/^keys=16384$$
GATE_BENCH_CLUSTER ?= ^(BenchmarkClusterQuery|BenchmarkScatterGather|BenchmarkSyncDeadNode)$$
GATE_MAX       ?= 1.30

.PHONY: build test race fuzz bench bench-baseline benchcmp benchgate e2e chaos lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Every Fuzz* target of the two packages that decode bytes from outside
# the process (frames, state artifacts, JSON requests) — "every decoder
# fails closed" exercised on every push, not only locally — and of
# internal/funcs, whose closed-form L* is held to quadrature of formula
# (31); 5s each. go test -fuzz takes one target and one package per run,
# hence the loop.
fuzz:
	@for pkg in ./internal/store/ ./internal/server/ ./internal/funcs/; do \
		for target in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "fuzz $$pkg $$target"; \
			$(GO) test -run xxx -fuzz "^$$target$$" -fuzztime 5s $$pkg || exit 1; \
		done; \
	done

# One iteration per benchmark, emitted as test2json lines: cheap enough
# for every push, structured enough to accumulate a perf trajectory from
# the uploaded BENCH_<sha>.json artifacts.
bench:
	$(GO) test -json -run xxx -bench . -benchtime 1x ./internal/engine/ ./internal/server/ ./internal/store/ ./internal/cluster/ > $(BENCH_OUT)
	@echo "benchmark results written to $(BENCH_OUT)"

# Regenerates the committed baseline: the full 1-iteration sweep plus
# stable (100x, 3-count) samples of the gated hot paths appended to the
# same artifact — benchtext takes the per-name minimum across all
# samples, so the gate compares against the stable ones.
bench-baseline:
	$(MAKE) bench BENCH_OUT=$(BENCH_BASELINE)
	$(GO) test -json -run xxx -bench '$(GATE_BENCH)' -benchtime 100x -count 3 ./internal/engine/ ./internal/server/ >> $(BENCH_BASELINE)
	$(GO) test -json -run xxx -bench '$(GATE_BENCH_SUB)' -benchtime 100x -count 3 ./internal/engine/ >> $(BENCH_BASELINE)
	$(GO) test -json -run xxx -bench '$(GATE_BENCH_CLUSTER)' -benchtime 100x -count 3 ./internal/cluster/ >> $(BENCH_BASELINE)
	@echo "baseline regenerated in $(BENCH_BASELINE)"

# Compares a bench run against the committed baseline
# (BENCH_baseline.json), so the BENCH_* trajectory is comparable
# PR-over-PR. Runs the suite unless BENCH_HEAD points at an existing
# artifact (CI passes the BENCH_<sha>.json it just produced, avoiding a
# duplicate run and making the comparison describe the uploaded
# artifact). Uses benchstat when installed
# (go install golang.org/x/perf/cmd/benchstat@latest); falls back to a
# plain diff otherwise. cmd/benchtext converts the test2json artifacts
# into the text format benchstat reads. Advisory: nothing fails here.
benchcmp:
ifeq ($(BENCH_HEAD),BENCH_head.json)
	$(MAKE) bench BENCH_OUT=$(BENCH_HEAD)
endif
	$(GO) run ./cmd/benchtext $(BENCH_BASELINE) > BENCH_baseline.txt
	$(GO) run ./cmd/benchtext $(BENCH_HEAD) > BENCH_head.txt
	@if command -v benchstat >/dev/null 2>&1; then \
		benchstat BENCH_baseline.txt BENCH_head.txt; \
	else \
		echo "benchstat not found; install with: go install golang.org/x/perf/cmd/benchstat@latest"; \
		echo "--- baseline vs head (plain diff) ---"; \
		diff -u BENCH_baseline.txt BENCH_head.txt || true; \
	fi

# The gated comparison: reruns the allowlisted hot-path benchmarks with
# enough iterations to be stable (100x, 3 counts; benchtext -gate takes
# the per-name minimum) and FAILS when any regresses beyond GATE_MAX
# against the committed baseline.
benchgate:
	$(GO) test -json -run xxx -bench '$(GATE_BENCH)' -benchtime 100x -count 3 ./internal/engine/ ./internal/server/ > $(BENCH_GATE)
	$(GO) test -json -run xxx -bench '$(GATE_BENCH_SUB)' -benchtime 100x -count 3 ./internal/engine/ >> $(BENCH_GATE)
	$(GO) test -json -run xxx -bench '$(GATE_BENCH_CLUSTER)' -benchtime 100x -count 3 ./internal/cluster/ >> $(BENCH_GATE)
	$(GO) run ./cmd/benchtext -gate -allow '$(GATE_ALLOW)' -max-regress $(GATE_MAX) $(BENCH_BASELINE) $(BENCH_GATE)

# Full-wire end-to-end: builds monestd + loadgen, boots the daemon with a
# data dir, streams binary ingest, verifies SSE pushes against /v1/query,
# and exercises graceful drain. Build-tagged so plain `make test` skips it.
e2e:
	$(GO) test -tags e2e -count=1 -v ./e2e/

# Failure-domain end-to-end: a 3-node cluster under quorum=2 with a
# fault proxy in front of one node — verified load through injected
# client faults, a partition served as labeled degraded reads, heal, and
# a bit-identity check against a never-partitioned strict coordinator.
# CHAOS_SEED=<n> replays a specific fault schedule.
chaos:
	$(GO) test -tags e2e -race -count=1 -run TestChaos -v ./e2e/

# gofmt + vet always; staticcheck and govulncheck when installed (CI
# installs both, so they gate there; locally they are skipped with a
# note rather than forcing an install).
lint:
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then \
		echo "gofmt -l found unformatted files:"; echo "$$fmt_out"; exit 1; fi
	$(GO) vet ./...
	$(GO) vet -tags e2e ./e2e/
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not found; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not found; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi
