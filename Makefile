# Standard checks for the gqr repo. `make check` is the pre-commit
# gate: vet + full tests + race over the whole module + the named -race
# suites (trace stress, durability, lifecycle, batch) + a one-iteration
# run of every benchmark + the benchmark/ module's own vet and tests +
# a cross-build of the architecture this host does not run.
GO ?= go

.PHONY: check build vet cross test race trace-stress durability lifecycle batch-stress fuzz-smoke bench bench-smoke bench-harness bench-json

check: vet cross test race trace-stress durability lifecycle batch-stress bench-smoke bench-harness

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The distance, nearest-centroid and ADC row kernels and the candidate
# prefetch are assembly on amd64 and plain Go elsewhere, and no test on
# an amd64 host compiles the elsewhere: build the module for arm64 and
# vet the two packages there (vet on amd64, above, is what checks the
# assembly against its Go declarations).
cross:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/vecmath ./internal/query

test:
	$(GO) test ./...

# The query hot path is lock-free (snapshot-based concurrent search),
# so the whole module must stay race-clean, not just the HTTP layer:
# the root package's Add+Search+batch stress test is the regression
# gate for the snapshot design.
race:
	$(GO) test -race ./...

# Flight-recorder stress under the race detector: concurrent traced
# searches and ring-buffer captures racing against /debug/querytrace
# readers and Chrome exports. The ring is lock-free (atomic pointer
# publication), so this is the regression gate for that design.
trace-stress:
	$(GO) test -race -run 'TraceStress' . ./internal/trace ./internal/server

# Crash-recovery suite under the race detector: WAL round-trips and
# torn tails at every byte offset, segment-file corruption, and the
# graceful/crash recover paths. This is the regression gate for the
# Add durability contract (acknowledged Adds are never silently lost).
durability:
	$(GO) test -race -run 'WAL|Durable|Durability|SaveFileAtomic|LoadRejects' . ./internal/wal

# Corpus-lifecycle oracle suite under the race detector: random
# Add/Delete/Update interleavings across seal/merge/crash-recovery
# boundaries must return search results identical to a fresh index
# over only the live vectors (all five query methods), and Compact
# must fold tombstones to the canonical saved form. This is the
# regression gate for the delete/update path (DESIGN.md §8f).
lifecycle:
	$(GO) test -race -run 'Lifecycle' .

# Batch gate under the race detector: the batch-vs-sequential oracle
# (every querying method × rerank/tombstones/filter/tagmask/duplicates
# must return bit-identical neighbors AND work counters) and
# the concurrent Add/Delete/seal stress of the batch fan-out's one
# snapshot per batch and its pooled searchers (DESIGN.md §8h).
batch-stress:
	$(GO) test -race -run 'TestBatch' .

# Short fuzz runs over the two untrusted-input parsers: the index
# loader (GQRPUB1/GQRIDX3 streams, seeded with tombstone bitmaps and
# metadata slabs) and the WAL replayer (add, meta-add and delete
# frames). Ten seconds each — enough to catch a panic or an unbounded
# allocation from a hostile length field without stalling CI. The third
# holds the assembly distance kernel to its Go definition bit for bit
# over fuzzer-chosen components, offsets and bounds; the fourth holds
# the blocked nearest-centroid kernel (AVX2 and its Go fallback) to
# ArgNearest, index and distance bits, over fuzzer-chosen components,
# widths and centroid counts; the fifth holds the ADC row kernel (AVX2
# and its Go fallback) to its serial definition bit for bit, and to the
# row's bounds, over the same; the sixth holds GQR's queue generator to
# its slice model and the paper's heap form over fuzzer-chosen code
# lengths and costs. The last two are the server's:
# its request scanner-or-fallback against encoding/json on arbitrary
# bytes (same acceptance, same error text, same values to the bit, for
# all four request types), and arbitrary method/path/body against the
# whole handler (no panic, no 5xx, nothing read past the body cap).
fuzz-smoke:
	$(GO) test -fuzz=FuzzLoad -fuzztime=10s -run '^$$' .
	$(GO) test -fuzz=FuzzReplay -fuzztime=10s -run '^$$' ./internal/wal
	$(GO) test -fuzz=FuzzSquaredL2Bounded -fuzztime=10s -run '^$$' ./internal/vecmath
	$(GO) test -fuzz=FuzzNearestCentroid -fuzztime=10s -run '^$$' ./internal/vecmath
	$(GO) test -fuzz=FuzzADCRow -fuzztime=10s -run '^$$' ./internal/vecmath
	$(GO) test -fuzz=FuzzGQRSequence -fuzztime=10s -run '^$$' ./internal/query
	$(GO) test -fuzz=FuzzDecodeRequest -fuzztime=10s -run '^$$' ./internal/server
	$(GO) test -fuzz=FuzzHandlers -fuzztime=10s -run '^$$' ./internal/server

bench:
	$(GO) test -bench=. -benchmem -run='^$$' .

# Compile-and-run-once smoke over every benchmark in the module, so a
# refactor can't silently break bench code that only full `make bench`
# runs would have compiled (benchtime=1x keeps it to seconds).
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# benchmark/ is its own module (it replaces gqr with ../), so the root
# `go vet ./...` and `go test ./...` never see it — yet it binds to
# internal/server, internal/trace, internal/vecmath and internal/wal,
# and a refactor there can break it. Vet it and run its smoke test
# (5 s of one workload plus the planted-fault check).
bench-harness:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Machine-readable ns/op + allocs/op for the evaluation-stage hot path
# (per-method Search at budget 1000, plain and re-ranked), the vecmath
# kernels and the build pipeline (whole-build plus train/code/freeze
# stages per learner, at p=1 and p=GOMAXPROCS), written as JSON for
# cross-commit perf diffing, plus the quantized re-ranking sweep
# (m × rerank-factor grid: recall@10, latency, ADC work per query).
# The documents embed host/run metadata (Go version, GOMAXPROCS, CPU
# count, commit, whether re-ranking ran) so snapshots are comparable
# across machines. BENCH_PR9.json, BENCH_PR9_d128.json (the
# evaluation-heavy d=128 regime) and BENCH_PR9_micro.json in the repo
# root are the committed snapshots from the re-ranking PR
# (BENCH_PR6.json: flight-recorder PR, BENCH_PR5.json: parallel-build
# overhaul, BENCH_PR4.json: evaluation-kernel snapshot).
bench-json:
	$(GO) run ./cmd/gqr-bench -json BENCH_PR9_micro.json
	@cat BENCH_PR9_micro.json
	$(GO) run ./cmd/gqr-bench -nq 50 -k 10 -rerank BENCH_PR9.json
	@cat BENCH_PR9.json
	$(GO) run ./cmd/gqr-bench -nq 50 -k 10 -rerank-dim 128 -rerank BENCH_PR9_d128.json
	@cat BENCH_PR9_d128.json
