GO ?= go

.PHONY: all build test race race-obs race-dist bench bench-all bench-gate fmt vet lint fuzz-smoke docs-check check

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The engine and searchers are the concurrency-heavy packages; the full
# tree under -race is the release gate.
race:
	$(GO) test -race ./...

# Fast race signal on the observability layer and the server that exercises
# it concurrently (atomic histograms, span recorder, job gauges); CI runs
# this as a dedicated early step.
race-obs:
	$(GO) test -race ./internal/obs/... ./internal/server/...

# Distributed-determinism gate: the multi-worker integration tests (3-worker
# fleet vs single-node reference, deterministic mid-shard worker kill,
# kill-then-resume from a persisted plan state) under the race detector.
race-dist:
	$(GO) test -race ./internal/dist/...

# Evaluation-kernel microbenchmarks (compiled plan, engine worker,
# sampler pipeline, delta-evaluation neighbor steps, cost attribution and
# guided-mapper convergence), persisted as BENCH_eval.json and appended as a
# dated record to BENCH_history.jsonl to track the perf trajectory across
# PRs. `bench-all` runs the full suite once.
BENCH_PATTERN = BenchmarkEvaluate|BenchmarkEngine|BenchmarkSample|BenchmarkNeighbor|BenchmarkAttribute|BenchmarkGuidedConverge|BenchmarkFused
bench:
	$(GO) test -run xxx -bench '$(BENCH_PATTERN)' -benchtime 2s . \
		| $(GO) run ./tools/benchjson -o BENCH_eval.json -history BENCH_history.jsonl

# CI perf gate: rerun the microbenchmarks against the committed snapshot and
# fail on a >20% ns/op regression of the gated kernels, any allocation where
# the snapshot was allocation-free (the hot-path evaluate/sample/attribute
# loops), or a >20% growth in the guided mapper's evals-to-convergence or
# allocations per search.
# Does not rewrite the committed snapshot or history.
BENCH_GATE = BenchmarkEvaluateCompiled,BenchmarkEvaluateConv,BenchmarkSampleEvaluatePipeline,BenchmarkAttribute,BenchmarkGuidedConverge:convergence_evals,BenchmarkGuidedConverge:allocs/op
bench-gate:
	$(GO) test -run xxx -bench '$(BENCH_PATTERN)' -benchtime 2s . \
		| $(GO) run ./tools/benchjson -o '' -baseline BENCH_eval.json -gate '$(BENCH_GATE)'

bench-all:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Project-invariant static analysis (determinism, hot-path allocation
# freedom, context discipline, atomic counter access). See tools/README.md.
lint:
	$(GO) run ./tools/rubylint ./...

# Short fuzz pass over every fuzz target; CI runs this as a smoke test.
# Override FUZZTIME for longer local sessions.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzFactorChains -fuzztime $(FUZZTIME) ./internal/factor
	$(GO) test -run xxx -fuzz FuzzCheckpointRoundTrip -fuzztime $(FUZZTIME) ./internal/checkpoint
	$(GO) test -run xxx -fuzz FuzzConfigParse -fuzztime $(FUZZTIME) ./internal/config
	$(GO) test -run xxx -fuzz FuzzMoveDelta -fuzztime $(FUZZTIME) ./internal/nest
	$(GO) test -run xxx -fuzz FuzzAllowDirective -fuzztime $(FUZZTIME) ./internal/analysis/lint
	$(GO) test -run xxx -fuzz FuzzNetworkEdges -fuzztime $(FUZZTIME) ./internal/workload

# Documentation hygiene: every relative markdown link must resolve, and the
# source must be gofmt-clean and vet-clean (doc drift usually rides along
# with code drift).
docs-check: fmt vet
	$(GO) run ./tools/linkcheck

check: fmt vet build lint docs-check test race-dist race
