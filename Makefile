# Development entry points. The repo is pure Go with no dependencies
# outside the standard library, so every target is a thin go-tool
# wrapper kept here for discoverability. `make ci` runs the exact steps
# of .github/workflows/ci.yml, so the gate is reproducible locally.

GO ?= go
FUZZTIME ?= 10s
# Pinned staticcheck version, run via `go run` so nothing is installed
# into the toolchain; bump deliberately alongside Go upgrades.
STATICCHECK_VERSION ?= 2025.1.1

.PHONY: check ci build vet test race race-stress fmt-check perfbench perfbench-smoke staticcheck cover \
	fuzz-smoke bench-smoke bench-capture bench-compare bench-gate loc clean

## check: the full pre-commit gate — identical to CI (vet, fmt, build,
## test, race, benchmarks once, fuzz smoke, staticcheck, bench gate).
check: ci

## ci: mirror of the GitHub workflow jobs, step for step.
ci: vet fmt-check build test race race-stress perfbench perfbench-smoke bench-smoke fuzz-smoke staticcheck bench-gate

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# -shuffle=on randomizes test order every run so inter-test state
# dependencies surface in CI instead of in production.
test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race -shuffle=on ./...

## race-stress: the registry, sampler and JSONL sink tests, the
## ledger's one-cut state captures, the request decoder's pooled
## buffers, and the per-area slot lock (an observe storm racing stats
## updates, and one racing snapshots), under the race detector ten
## times over. Several goroutines reach that state at once (counter
## creation beside family sums, writers racing Close, settles beside a
## ledger capture, buffers passing between requests, an observe's
## re-tune beside a stats update or a snapshot of the same area), and a
## single -race pass rarely hits the risky interleavings.
race-stress:
	$(GO) test -race -count=10 -run 'Registry|SumCounter|Sampler|JSONL|Rotating' ./internal/obs
	$(GO) test -race -count=10 -run 'StateIsOneCut' ./internal/ledger
	$(GO) test -race -count=10 -run 'DecodeConcurrent|ObserveRacingStatsUpdate|SnapshotDuringObserveStorm' ./internal/server

## perfbench: vet and test the benchmark module. It is a nested Go
## module, so `go build ./...` above never compiles it; this step fails
## when a refactor breaks a name the benchmark imports.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

## perfbench-smoke: run the benchmark's two serving workloads end to end
## for 2 s each, then paper_all for 1 s at its recorded seed (about 40 s
## together on 2 vCPUs, plus the build), so its own checks run on every
## change: the probe digest, the reply byte check, the exact counters,
## zero sink drops, the audit replay, and the digest of every report
## `idlereduce all` renders. A failed check exits non-zero; each run's
## full standard output and error stay in the log.
perfbench-smoke:
	bash perfbench/run.sh --workload hot_decide --seed 1 --seconds 2 --trace 0
	bash perfbench/run.sh --workload fleet_100k --seed 1 --seconds 2 --trace 0
	bash perfbench/run.sh --workload paper_all --seed 20140601 --seconds 1 --trace 0

## fmt-check: fail when any file needs gofmt (CI's formatting gate).
fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

## staticcheck: honnef.co/go/tools at the pinned version (downloads on
## first run; requires network, so it is its own CI job rather than a
## tier-1 gate).
staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

## cover: the test suite with coverage, writing coverage.out (uploaded
## by CI as an artifact) and printing the per-package summary. Asserts
## the load-bearing subsystems are actually exercised — a suite that
## silently stopped importing internal/policy, the adaptive estimators,
## or the per-area strategy cache and state plane would otherwise pass
## while covering nothing.
cover:
	$(GO) test -coverprofile=coverage.out -covermode=atomic ./...
	$(GO) tool cover -func=coverage.out | tail -1
	@for probe in \
		'^idlereduce/internal/policy/' \
		'^idlereduce/internal/predict/' \
		'^idlereduce/internal/adaptive/' \
		'^idlereduce/internal/ledger/' \
		'^idlereduce/internal/server/cache\.go' \
		'^idlereduce/internal/server/observe\.go' \
		'^idlereduce/internal/server/snapshot\.go'; do \
		grep "$$probe" coverage.out | grep -qv ' 0$$' \
			|| { echo "cover: $$probe has no covered statements"; exit 1; }; \
		echo "cover: $$probe exercised"; \
	done

## fuzz-smoke: run every Fuzz* target for FUZZTIME (default 10s) as a
## quick regression sweep; the corpus findings become seed cases.
fuzz-smoke:
	@set -e; \
	for pkg in $$($(GO) list ./...); do \
		for target in $$($(GO) test -list '^Fuzz' $$pkg 2>/dev/null | grep '^Fuzz' || true); do \
			echo "fuzz $$pkg $$target ($(FUZZTIME))"; \
			$(GO) test -run '^$$' -fuzz "^$$target$$" -fuzztime $(FUZZTIME) $$pkg; \
		done; \
	done

## bench-smoke: every Go benchmark in the module for one iteration, so
## a benchmark whose code stopped compiling or started failing breaks
## the build. It measures nothing; the perf trajectory is bench-gate's
## and the end-to-end numbers are perfbench's.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# The perf trajectory (docs/BENCHMARKS.md): BENCH_BASELINE is the
# newest committed BENCH_NNNN.json; the head capture is written to
# BENCH_head.json (named so the wildcard never picks it up as a
# baseline). BENCH_SCALE trades capture time for noise; BENCH_RUNS is
# the min-of-N noise filter depth (5 here — deeper than the CLI's
# default 3 — because gate captures run on busy CI machines).
BENCH_BASELINE ?= $(lastword $(sort $(wildcard BENCH_[0-9]*.json)))
BENCH_HEAD ?= BENCH_head.json
BENCH_SCALE ?= 1
BENCH_RUNS ?= 5
BENCH_MAX_REGRESS ?= 10%

## bench-capture: capture the structured benchmark suites into
## $(BENCH_HEAD) via `idlectl bench run`.
bench-capture:
	$(GO) run ./cmd/idlectl bench run -runs $(BENCH_RUNS) -scale $(BENCH_SCALE) -out $(BENCH_HEAD)

## bench-compare: diff the head capture against the committed baseline
## and fail on any regression beyond tolerance.
bench-compare:
	$(GO) run ./cmd/idlectl bench compare -base $(BENCH_BASELINE) -head $(BENCH_HEAD) -max-regress $(BENCH_MAX_REGRESS)

## bench-gate: the CI regression gate — capture, then compare against
## the newest committed BENCH_NNNN.json. Skips gracefully (with a
## visible note) when no baseline is committed, so forks and fresh
## branches are not blocked.
bench-gate:
ifeq ($(BENCH_BASELINE),)
	@echo "bench-gate: no committed BENCH_NNNN.json baseline; skipping"
else
	$(MAKE) bench-capture
	$(MAKE) bench-compare
endif

## loc: non-test Go lines per package and their total, the LoC delta
## CHANGES.md records (not part of ci). Run it at two commits and
## compare.
loc:
	@$(GO) list -f '{{.ImportPath}}{{range .GoFiles}} {{$$.Dir}}/{{.}}{{end}}' ./... | \
	while read -r pkg files; do \
		[ -n "$$files" ] || continue; \
		printf '%7d %s\n' "$$(cat $$files | wc -l)" "$$pkg"; \
	done | awk '{ print; total += $$1 } END { printf "%7d total\n", total }'

clean:
	rm -f coverage.out cpu.pprof mem.pprof trace.out $(BENCH_HEAD)
