GO ?= go

.PHONY: all build test race lint vet bench bench-compare storm-bench shard-bench ci experiments examples clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The repository's own static-analysis suite (see internal/analysis):
# determinism, secretflow, atomiccounter, ctxcarry, stripemap, hotalloc,
# planeboundary, poolowner, lockorder. Exits non-zero on any
# unsuppressed finding. govulncheck runs when the host has it installed
# (CI does); locally it is skipped rather than fetched, keeping the
# target usable in network-free build environments.
lint:
	$(GO) run ./tools/shieldlint ./...
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (CI runs it)"; \
	fi

race:
	$(GO) test -race ./...

# Static checks plus a focused race pass over the fault-injection,
# mass-registration, and enclave-runtime paths (parallel drivers,
# injector, resilience layer, overload limiter + admission buckets,
# keep-alive sessions, TCS pool, switchless ring + dispatcher).
vet:
	$(GO) vet ./...
	$(GO) test -race ./internal/chaos/ ./internal/sbi/ ./internal/gnb/ ./internal/deploy/ ./internal/paka/ ./internal/admission/ ./internal/topology/ ./internal/nf/nrf/topo/ ./internal/hmee/sgx/ ./internal/hmee/gramine/

bench:
	BENCH_JSON=$(CURDIR)/BENCH_parallel_registration.json \
	BENCH_CHAOS_JSON=$(CURDIR)/BENCH_chaos_registration.json \
	BENCH_BATCHED_JSON=$(CURDIR)/BENCH_batched_transitions.json \
	BENCH_HOTPATH_JSON=$(CURDIR)/BENCH_hotpath_allocs.json \
	$(GO) test -bench=. -benchmem ./...

# Allocation-regression gate: one deterministic iteration of the hot-path
# benchmark, diffed against the committed baseline. Only virtual-time and
# allocation metrics are in the report, so the comparison is stable
# across machines; benchdiff fails on a >10% regression in any
# lower-is-better metric (allocs/reg, bytes/reg, transitions/reg) or
# >10% drop in any higher-is-better one (virtual regs/s).
bench-compare:
	BENCH_HOTPATH_JSON=$(CURDIR)/BENCH_hotpath_allocs.candidate.json \
	$(GO) test -run '^$$' -bench BenchmarkRegisterManyBatched -benchtime 1x .
	$(GO) run ./tools/benchdiff testdata/bench/BENCH_hotpath_allocs.baseline.json \
	    $(CURDIR)/BENCH_hotpath_allocs.candidate.json
	rm -f $(CURDIR)/BENCH_hotpath_allocs.candidate.json

# Regenerate the committed storm-survival artifact: the signaling-storm
# sweep's per-class goodput/p99 comparison with the limiter on vs off at
# 10x overload (acceptance: >=2x emergency goodput, <5% overhead at 1x).
storm-bench:
	BENCH_STORM_JSON=$(CURDIR)/BENCH_storm_goodput.json \
	$(GO) run ./cmd/experiments -seed 7 -iterations 240 storm

# Regenerate the committed shard-scaling artifact: the replica sweep's
# fleet throughput, speedup, and allocs/reg at 1/2/4/8 replicas on the
# full fast path (acceptance: >=3x fleet speedup at 8 replicas, <100
# allocs/reg at every point, deterministic same-seed replay).
shard-bench:
	BENCH_SHARD_JSON=$(CURDIR)/BENCH_shard_scaling.json \
	$(GO) run ./cmd/experiments -seed 7 -iterations 160 shardscale

# What CI runs: lint first (cheapest signal, fails fastest), then build,
# the plain (uninstrumented, uncached) test suite — the only run where
# the allocation budgets are asserted, since the race detector's shadow
# allocations skip them — the race-enabled test suite, static checks, a
# single-iteration smoke of the boundary-amortization benchmark (its
# >=40% transition-reduction assertion runs on deterministic virtual
# counts, so one iteration is a stable gate), a short-horizon
# signaling-storm smoke through the gnbsim CLI (open-loop replay,
# limiter armed — exercises the overload stack end to end in under a
# second), a short fuzz pass over the binary SBI frame parser, a
# sharded-core smoke through the gnbsim CLI (4 replicas behind
# SUPI-affinity routing with the full fast path on), a switchless-ring
# smoke through the gnbsim CLI (ring-served ECALLs on the same fast
# path), and the batched and shard-scaling allocation/throughput-
# regression gates — blocking, so a repeat of the PR-5-era batched
# inversion fails the pipeline instead of landing silently.
ci: build
	$(MAKE) lint
	$(GO) test -count=1 ./...
	$(GO) test -race ./...
	$(MAKE) vet
	$(GO) test -run '^$$' -bench RegisterManyBatched -benchtime=1x .
	$(GO) run ./cmd/gnbsim -n 40 -storm 10 -limiter -seed 7
	$(GO) run ./cmd/gnbsim -n 32 -shards 4 -batch 8 -avpool 8 -seed 9
	$(GO) run ./cmd/gnbsim -n 32 -switchless -batch 8 -avpool 8 -seed 11
	$(GO) test -run '^$$' -fuzz '^FuzzFramePayload$$' -fuzztime 5s ./internal/sbi/codec
	$(MAKE) bench-compare
	BENCH_SHARD_JSON=$(CURDIR)/BENCH_shard_scaling.candidate.json \
	$(GO) run ./cmd/experiments -seed 7 -iterations 160 shardscale
	$(GO) run ./tools/benchdiff testdata/bench/BENCH_shard_scaling.baseline.json \
	    $(CURDIR)/BENCH_shard_scaling.candidate.json
	rm -f $(CURDIR)/BENCH_shard_scaling.candidate.json

# Regenerate every table and figure of the paper (500 samples each).
experiments:
	$(GO) run ./cmd/experiments all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/slicebench
	$(GO) run ./examples/introspection
	$(GO) run ./examples/attestation
	$(GO) run ./examples/ota

clean:
	$(GO) clean ./...
