# bioenrich build/verify/bench entry points.
#
#   make verify   tier-1 gate: build + vet + lint + race-enabled tests
#   make test     plain test run (what CI's quick loop wants)
#   make lint     in-repo analyzers (cmd/biolint): determinism/context/obs/lock/snapshot/goroutine/envelope/metric invariants
#   make lint-bench   serial-vs-parallel lint driver wall-clock -> LINTBENCH_<timestamp>.txt
#   make fuzz-smoke   10s native-fuzz passes over the tokenizer, canonical keys, batched and inverted cosines, corpus reader, clone lineages, step IV's neighbour scan and WAL
#   make bench    full benchmark sweep -> BENCH_<timestamp>.json
#   make bench-enricher   perfbench's enrich job in process (small/top3) and the worker-pool speedup pair
#   make perf-smoke   short read + enrich runs of the repository benchmark (perfbench/)

GO ?= go

.PHONY: verify build vet test race race-gate-check lint lint-bench fuzz-smoke staticcheck bench bench-enricher bench-ingest perf-smoke restart-test

build:
	$(GO) build ./...

# perfbench/ is its own module, so ./... never compiles it; vetting it
# here turns an internal API break into a vet failure instead of a
# broken benchmark run.
vet:
	$(GO) vet ./...
	$(GO) -C perfbench vet ./...

test:
	$(GO) test ./...

# The race detector is the proof obligation for the enricher worker
# pool (including its cancellation paths), the linkage context-vector
# cache, sense induction's context-aware entry points, the obs metrics
# registry, the snapshot store's epoch-checked commits, the async job
# manager's lifecycle and the server's snapshot-isolated serving;
# these packages are where the concurrency lives, the rest ride along
# for free. internal/storage joins the gate because the disk backend's
# mutex serializes WAL appends against checkpoints; internal/corpus
# for its tokenize worker pool and its Derived slot; internal/termex
# because every step I call on a corpus shares the candidate table
# kept in that slot; internal/lint for the parallel load/analyze
# driver. CI (.github/workflows/ci.yml) runs this target,
# so this is the one raced list, and scripts/race_gate_check.sh proves
# it plus its documented exemptions cover ./internal/... exactly. The
# job manager runs ten more times: its runners start and exit with the
# queue, and one run rarely hits the interleavings of that handoff.
race:
	$(GO) test -race ./internal/core ./internal/server ./internal/linkage ./internal/obs ./internal/senseind ./internal/state ./internal/jobs ./internal/storage ./internal/registry ./internal/classify ./internal/recommend ./internal/batch ./internal/corpus ./internal/termex ./internal/lint
	$(GO) test -race -count=10 ./internal/jobs

race-gate-check:
	./scripts/race_gate_check.sh

# biolint is the repo's own analyzer suite (internal/lint, stdlib-only):
# it mechanically enforces the determinism, context-propagation, obs
# nil-safety, lock-discipline, snapshot-immutability, goroutine-join,
# error-envelope and metric-naming invariants the earlier PRs
# introduced. Exits non-zero on any finding; suppressions require an
# annotated reason (//biolint:allow <rule> <reason>) and stale
# suppressions are themselves findings. Machine-readable output:
# go run ./cmd/biolint -json ./... (CI uploads it as an artifact).
# See DESIGN.md.
lint:
	$(GO) run ./cmd/biolint ./...

# Records the parallel driver's wall-clock against the serial baseline
# on the live module, into a timestamped file so the speedup is
# tracked per change. Two pairs: Lint* is end-to-end (includes the
# fixed-cost `go list` exec, so its speedup is Amdahl-bounded);
# CheckAnalyze* times just the parse/type-check/analyze phase the
# worker pool parallelizes. The parallel legs run GOMAXPROCS workers —
# on a single-CPU host they degenerate to the serial numbers.
lint-bench:
	$(GO) test -run '^$$' -bench 'Benchmark(Lint|CheckAnalyze)(Serial|Parallel)' -benchtime 3x ./internal/lint | tee LINTBENCH_$$(date +%Y%m%d_%H%M%S).txt

# Short native-fuzz passes over the untrusted-input parsers, the
# canonical-key invariant the stopword and ontology lookups rely on,
# the bit-identity to Cosine of Cosines, which step IV relies on, and
# of InvertedCosines, which classify relies on, the corpus clones'
# shared arrays, which every ingest relies on, and step IV's
# per-document neighbour scan against the per-occurrence one. CI's
# fuzz-smoke job runs this target, so this is the one list of fuzz
# targets; longer local sessions just raise -fuzztime.
fuzz-smoke:
	$(GO) test -fuzz 'FuzzTokenize' -fuzztime 10s ./internal/textutil
	$(GO) test -fuzz 'FuzzCanonicalKeys' -fuzztime 10s ./internal/textutil
	$(GO) test -fuzz 'FuzzCosines' -fuzztime 10s ./internal/sparse
	$(GO) test -fuzz 'FuzzInvertedCosines' -fuzztime 10s ./internal/sparse
	$(GO) test -fuzz 'FuzzReadJSONL' -fuzztime 10s ./internal/corpus
	$(GO) test -fuzz 'FuzzCloneLineages' -fuzztime 10s ./internal/corpus
	$(GO) test -fuzz 'FuzzMeshNeighbors' -fuzztime 10s ./internal/linkage
	$(GO) test -fuzz 'FuzzWALReplay' -fuzztime 10s ./internal/storage

# End-to-end crash recovery: serve -> ingest -> SIGKILL -> serve again
# from the data dir alone -> verify the exact pre-kill epoch and doc
# count came back. scripts/restart_test.sh drives the real binary; the
# same scenario runs in-process as TestRestartAfterSIGKILL.
restart-test:
	./scripts/restart_test.sh

# staticcheck is advisory locally (skipped when the binary is absent);
# CI pins a version and enforces it. The if/else keeps a real
# staticcheck failure fatal — an && || chain would mask it behind the
# "not installed" fallback.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI enforces it)"; \
	fi

verify: build vet lint test race-gate-check race

# Bench trajectory: one JSON-lines file per invocation (test2json
# stream), named so successive runs accumulate side by side.
bench:
	$(GO) test -run '^$$' -bench . -benchmem -json . > BENCH_$$(date +%Y%m%d_%H%M%S).json

bench-enricher:
	$(GO) test -run '^$$' -bench 'BenchmarkEnricherRun' -benchmem .

bench-ingest:
	$(GO) test -run '^$$' -bench 'BenchmarkIngestThroughput' -benchmem .

# Smoke of the repository benchmark (perfbench/, see its README): each
# run boots the real cmd/serve and exits non-zero when a byte-exact
# probe or report check fails. Enrich keeps its full 20 s window,
# because a shorter one finishes no job inside a segment and the run
# then reports too few gated metrics. Churn is left out: its validity
# gate (open-loop writer p99 lateness under 50 ms) measures the host's
# load, and restart-test already drives ingest and SIGKILL.
perf-smoke:
	bash perfbench/run.sh --workload read --seed 1 --seconds 2 --trace 0
	bash perfbench/run.sh --workload enrich --seed 1 --seconds 20 --trace 0
