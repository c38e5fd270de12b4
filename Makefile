# Tier-1 verification lives behind `make check`: vet plus the full test
# suite under the race detector, which guards the parallel batch engine
# (internal/runner, hdpat.RunBatch, the experiments Session's batches)
# against data races.

GO ?= go
BENCH ?= BenchmarkBatch3x3|BenchmarkBatchSetupTableI|BenchmarkCompare|BenchmarkScale|BenchmarkBuildTableI
BENCHTIME ?= 3x
# The tlb, cache and vm layer microbenchmarks run beside the root-package
# legs at a fixed iteration count large enough that ns/op is not dominated
# by set-up; the page-table build leg (a whole Table I placement per op)
# runs at its own, smaller count. BENCH narrows only the root-package legs;
# the layer set always runs (a few seconds).
BENCH_RUN = { $(GO) test -run '^$$' -bench '$(BENCH)' -benchtime $(BENCHTIME) -benchmem . ; \
	$(GO) test -run '^$$' -bench 'BenchmarkTLBLookup|BenchmarkMSHR|BenchmarkCacheAccess' \
		-benchtime 1000000x -benchmem ./internal/tlb ./internal/cache ; \
	$(GO) test -run '^$$' -bench 'BenchmarkPageTable/(global|view)' -benchtime 1000000x -benchmem ./internal/vm ; \
	$(GO) test -run '^$$' -bench 'BenchmarkPageTable/build' -benchtime 20x -benchmem ./internal/vm ; }

.PHONY: build test race vet staticcheck check bench bench-check bench-all report service-smoke scale-check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Static analysis beyond vet. The version is pinned so local runs and CI
# agree on the finding set; offline sandboxes without the binary skip with a
# notice rather than failing the whole gate (CI always installs it, against
# the shared Go module cache).
STATICCHECK_VERSION ?= 2025.1
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not found; skipping (install: go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

check: vet staticcheck race

# Machine-readable benchmark run: the batch-engine benchmarks (override
# with BENCH=...) and the tlb, cache and vm layer microbenchmarks, with
# allocation stats, teed to results/bench.txt and
# parsed into results/bench.json for regression diffing. Set BENCHJSON_NOTE
# to annotate the JSON (e.g. "baseline at <commit>").
bench:
	@mkdir -p results
	$(GO) build -o /tmp/benchjson ./cmd/benchjson
	$(BENCH_RUN) | tee results/bench.txt | /tmp/benchjson > results/bench.json
	@echo "wrote results/bench.txt and results/bench.json"

# Bench-regression gate: rerun the hot-path benchmarks and compare against
# the committed baseline results/bench.json on three metrics. Wall time
# (ns/op) and the derived events/sec throughput get wide slack because
# shared runners are noisy; allocs/op is nearly deterministic, so its
# tolerance only absorbs map-growth and runtime-internal jitter — one real
# new allocation per op on the Compare path trips it. CI runs this on every
# push.
BENCH_TOLERANCE ?= 0.15
ALLOC_TOLERANCE ?= 0.10
EVENTS_TOLERANCE ?= 0.15
BYTES_TOLERANCE ?= 0.20
# Extra benchmarks to diff but never gate on (regexp). Deflection-routed
# legs are automatically informational when the run used a single CPU.
BENCH_INFORMATIONAL ?=
bench-check:
	$(GO) build -o /tmp/benchjson ./cmd/benchjson
	$(BENCH_RUN) | /tmp/benchjson > /tmp/bench-new.json
	/tmp/benchjson -compare -tolerance $(BENCH_TOLERANCE) \
		-alloc-tolerance $(ALLOC_TOLERANCE) -events-tolerance $(EVENTS_TOLERANCE) \
		-bytes-tolerance $(BYTES_TOLERANCE) \
		-informational '$(BENCH_INFORMATIONAL)' \
		results/bench.json /tmp/bench-new.json

# Giant-wafer memory-scaling gate: the 30x30 bounded-memory and digest
# tests and the lazy-GPM construction-cost ratio (CI's conformance job runs
# the 30x30 invariant legs just before it). Bytes/GPM regressions in the
# bench baseline are caught by bench-check through the bytes/GPM metric
# (BYTES_TOLERANCE slack).
scale-check:
	$(GO) test -run 'TestScale30x30' -count=1 .
	$(GO) test -run 'TestLazyGPMsAtLeast5xCheaper|TestStatReadersDoNotMaterialize' -count=1 ./internal/gpm/

# One iteration of every paper-artifact benchmark plus the batch-engine
# serial/parallel comparison.
bench-all:
	$(GO) test -bench=. -benchtime 1x

# Service smoke (run by CI): build hdpatd, start it, submit a compare job
# over HTTP, poll to completion and check every served artifact's bytes
# hash to the digest a direct in-process run of the same spec prints
# (hdpatd -digest). See docs/service.md.
service-smoke:
	bash scripts/service-smoke.sh

# Latency-attribution run report (Markdown breakdowns + NoC heatmap CSVs)
# for REPORT_SCHEME vs baseline on REPORT_BENCH, written under
# results/report/ (gitignored). Override the knobs for other comparisons:
#   make report REPORT_SCHEME=transfw REPORT_BENCH=SPMV,PR,KM
REPORT_SCHEME ?= hdpat
REPORT_BENCH ?= SPMV,PR
report:
	$(GO) run ./cmd/report -scheme $(REPORT_SCHEME) -bench $(REPORT_BENCH) -o results/report
