# Single source of truth for build/test/bench/lint invocations: CI jobs
# (.github/workflows/ci.yml) and local runs call the same targets.

GO             ?= go
BENCH_OUT      ?= BENCH_local.json

.PHONY: build test race fuzz bench benchgate e2e chaos lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Every Fuzz* target of the two packages that decode bytes from outside
# the process (frames, state artifacts, JSON requests) — "every decoder
# fails closed" exercised on every push, not only locally — plus every
# checkpoint file recovery reads (FuzzReadCheckpoint) and the store's
# crash, damage and restart streams held to its model harness
# (FuzzStoreMatchesModel); of internal/funcs, whose closed-form L* is
# held to quadrature of formula (31) and whose DataLB kernels to Lower of
# the sampled outcome (FuzzDataLBKernel); and of internal/engine, whose
# snapshot rebuild is held to the batch reduction and whose op streams
# (ingest, replay, merge, re-sync, restore) to the model harness
# (FuzzEngineMatchesModel); 5s each. go test -fuzz takes one target and
# one package per run, hence the loop.
fuzz:
	@for pkg in ./internal/store/ ./internal/server/ ./internal/funcs/ ./internal/engine/; do \
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

# The paired hot-path gate: builds the gated benchmarks from the working
# tree and from a base revision (HEAD when tracked files have uncommitted
# changes, else HEAD^1), runs both sides alternately on this host, and
# FAILS when a gated benchmark's median head/base ratio exceeds the bound
# in cmd/benchgate.
benchgate:
	$(GO) run ./cmd/benchgate

# Full-wire end-to-end: builds monestd and the loadgen wire verifier,
# boots the daemon with a data dir, streams binary ingest, verifies SSE
# pushes against /v1/query, and exercises graceful drain. Build-tagged so
# plain `make test` skips it. Load numbers come from `go run ./bench`.
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
