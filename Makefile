# Local entry points mirroring .github/workflows/ci.yml, so a green
# `make ci` means a green CI run.

GO ?= go

.PHONY: build test race race-runner lint escape-rebaseline fmt bench bench-runner bench-core bench-cmp obs-bench perfbench-smoke audit diff-fuzz diff-fuzz-long ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-runner: the parallel experiment runner's determinism contract —
# All() on an 8-worker pool must render the same bytes as the serial
# runner — plus the sharded trace-gen / chunked-replay pipeline
# (ReplayAll at 1/2/4/8 workers byte-identical to serial, shared trace
# generation, tail-gap accounting), pool panic latching, and the
# singleflight, observer, and probe/trace machinery, under -race.
race-runner:
	$(GO) test -race -count=1 -run 'TestParallel|TestSingleflight|TestPrefetch|TestSerialPrefetch|TestReplayAll|TestReplayTrace|TestTraceStream|TestExtractTrace|TestRunPool|TestRunPanic|TestPaperRunSet|TestTextObserver|TestObserver|TestClock|TestProbe|TestTrace' ./internal/sim/

# lint = custom analyzers (determinism, panicstyle, statsreg, hotpath,
# probeorder, snapshotdet + the directives meta-check) + go vet via the
# multichecker, the compiler escape-analysis gate against the committed
# lint_escape_baseline.json, and a gofmt cleanliness check.
lint:
	$(GO) run ./cmd/nurapidlint ./...
	$(GO) run ./cmd/nurapidlint -escapecheck ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# escape-rebaseline: refresh lint_escape_baseline.json after a deliberate
# hot-path change; review and commit the diff.
escape-rebaseline:
	$(GO) run ./cmd/nurapidlint -escapecheck -rebaseline ./...

fmt:
	gofmt -w .

# bench smoke: one iteration per benchmark, to catch bit-rot without
# waiting for real measurements.
bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# bench-runner: sweep the sharded trace-gen + chunked-replay pipeline
# at 1/2/4/8/16 workers (byte-identity enforced at every width), time
# serial vs parallel Fig6 regeneration, and record the scaling curve
# with per-width efficiency in BENCH_runner.json. The >=0.5-efficiency
# gate at 4 workers is enforced only when GOMAXPROCS >= 4; single-proc
# hosts record the gate as skipped instead of faking a speedup.
bench-runner:
	BENCH_RUNNER_JSON=$(CURDIR)/BENCH_runner.json $(GO) test -count=1 -run '^TestBenchRunnerSmoke$$' -v .

# bench-core: run the core access-path benchmark suite, measure the
# headline steady-state NuRAPID ns/access, verify the path is still
# allocation-free, and write BENCH_core.json. Fails when ns/access
# regresses >10% against the committed BENCH_core.json baseline.
bench-core:
	$(GO) test -run='^$$' -bench='^BenchmarkCore' -benchtime=1x .
	BENCH_CORE_JSON=$(CURDIR)/BENCH_core.json $(GO) test -count=1 -run '^TestBenchCoreSmoke$$' -v .

# bench-cmp: measure the CMP front end's aggregate shared-L2 throughput
# (accesses per second of host time) at 1/2/4/8 cores and write
# BENCH_cmp.json. Fails when any core count regresses >15% against the
# committed baseline.
bench-cmp:
	BENCH_CMP_JSON=$(CURDIR)/BENCH_cmp.json $(GO) test -count=1 -run '^TestBenchCmpSmoke$$' -v .

# obs-bench: measure the disabled-probe overhead of the observability
# layer on the Fig6 workload and on the 2-core shared-L2 CMP experiment
# (probe-free vs nil-probe factory vs full Collector+Sampler probes),
# assert the rendered output stays byte-identical, and record wall
# times + overhead ratios in BENCH_obs.json. The queued CMP path adds
# the Enqueue/Issue/Inval emission sites; its <3% disabled-probe budget
# is asserted by the test itself.
obs-bench:
	BENCH_OBS_JSON=$(CURDIR)/BENCH_obs.json $(GO) test -count=1 -run '^TestBenchObsSmoke$$' -v .

# perfbench-smoke: a short traced run of each perfbench workload. The
# traced pass steps every core cycle by cycle and checks its result
# against the untraced run, which skips idle cycles, so this proves the
# skip exact. Fails on a non-zero exit or a result line that is not
# "correct": true with no failed simulations.
PERFBENCH_WORKLOADS = fig6 l2-replay cmp-shared

perfbench-smoke:
	@for w in $(PERFBENCH_WORKLOADS); do \
		echo "perfbench-smoke: $$w"; \
		out=$$(python3 perfbench/run.py --workload $$w --seconds 5 --trace 1) || { echo "$$out"; exit 1; }; \
		echo "$$out" | tail -n 1 | python3 -c 'import json, sys; r = json.loads(sys.stdin.read()); sys.exit(0 if r["correct"] and r["failed"] == 0 else 1)' \
			|| { echo "$$out"; exit 1; }; \
	done

# audit: the randomized invariant storm at full length.
audit:
	$(GO) test ./internal/nurapid/ -run TestAuditedAccessStorm -v

# diff-fuzz: the differential oracle at CI depth — every policy-matrix
# cell (placements x promotions x distance policies x triggers x two
# geometries) runs every adversarial workload for >=10k accesses against
# both the fast implementation and the executable spec, under -race.
# Divergences are shrunk and dumped as JSONL into $(DIFF_FUZZ_ARTIFACTS)
# (defaults to the test's temp dir).
diff-fuzz:
	DIFF_FUZZ=1 $(GO) test -race -count=1 -v -run 'TestDifferentialMatrix|TestSeededFault' ./internal/refmodel/difftest/

# diff-fuzz-long: the nightly soak (100k accesses per cell). Set
# DIFF_FUZZ_ARTIFACTS to keep shrunk reproducers outside the temp dir.
diff-fuzz-long:
	DIFF_FUZZ_LONG=1 $(GO) test -count=1 -timeout 60m -v -run TestDifferentialMatrix ./internal/refmodel/difftest/

ci: build test race race-runner lint bench bench-runner bench-core bench-cmp obs-bench perfbench-smoke diff-fuzz
