GO ?= go

.PHONY: build test race race-matrix vet fmt dead bench-build check benchmark bench-pairs fuzz fuzz-smoke bench bench-kernel bench-diff serve-smoke dist-smoke soak soak-cluster cover loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt fails on any file gofmt would rewrite (bench/ included).
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# dead enforces the reachability rule (cmd/deadcode): a package-level
# function, method, type, variable or constant under internal/ exists only
# if a non-test file of this module or of bench/ reaches it. It prints what
# nothing reaches and fails; cmd/deadcode/allow.txt lists, with the reason,
# the symbols another package's tests or an interface need, and a stale
# line there fails too.
dead:
	$(GO) run ./cmd/deadcode -allow cmd/deadcode/allow.txt . bench

# bench-build vets the nested casvm/bench module, which the root module's
# ./... does not reach, so a root API change that breaks the benchmark fails
# the gate instead of the benchmark driver. Offline: bench/ has no external
# dependencies.
bench-build:
	cd bench && $(GO) vet ./...

# benchmark runs the repository's benchmark (BENCHMARK.json, bench/README.md):
# all six workloads, untraced. Arguments go through BENCH_ARGS, e.g.
# `make benchmark BENCH_ARGS="--workload cluster-remote --trace 1"`.
benchmark:
	bash bench/run.sh $(BENCH_ARGS)

# bench-pairs is how a performance claim is made (bench/README.md § Citing):
# PAIRS alternating runs of PARENT and of this working tree per workload, and
# a markdown table of medians, quartiles, Δ and "change better in k/n" per
# workload × end-to-end metric, e.g.
# `make bench-pairs PARENT=HEAD~1 WORKLOADS="casvm-dense" ARGS="--seed 7"`.
PARENT ?= HEAD
PAIRS ?= 10
bench-pairs:
	bash scripts/bench-pairs.sh $(PARENT) $(PAIRS) $(WORKLOADS) -- $(ARGS)

race:
	$(GO) test -race ./...

# race-matrix re-runs the concurrency-heavy packages under the race
# detector at 1 and 4 CPUs — single-CPU scheduling serializes goroutines
# differently and has caught interleavings the default run missed.
race-matrix:
	$(GO) test -race -cpu 1,4 ./internal/mpi ./internal/tcpmpi \
		./internal/faults ./internal/core ./internal/pool ./internal/trace \
		./internal/cluster ./internal/kernel ./internal/la ./internal/serve \
		./internal/telemetry ./internal/telemetry/fleet ./internal/smo

# fuzz-smoke runs every fuzz target's seed corpus (no exploration) so the
# corpora cannot rot; `make fuzz` does the time-boxed exploration.
fuzz-smoke:
	$(GO) test -run 'Fuzz' ./internal/data ./internal/tcpmpi ./internal/trace \
		./internal/serve ./internal/cluster ./internal/la ./internal/model

# serve-smoke boots the live telemetry server against a real training run
# held mid-flight (TestServeSmoke) and against a cluster coordinator with
# per-job namespaces (TestServeClusterNamespaces), scraping /metrics,
# /report, /events, /jobs and /debug/pprof — plus the whole inference-plane
# suite (HTTP smoke, batched-vs-sequential equivalence, hot-reload torn-model
# hammering) under the race detector.
serve-smoke:
	$(GO) test -race -count=1 -run 'TestServe' ./internal/telemetry
	$(GO) test -race -count=1 ./internal/serve

# dist-smoke runs the multi-process example end to end: four forked workers
# train Dis-SMO and RA-CA over a real TCP mesh with the shared per-rank
# driver, and rank 0 must report both models on the hash of the in-process
# core.Train reference (~5 s).
DIST_BIN = .bench_build/dist-smoke
dist-smoke:
	@mkdir -p .bench_build
	$(GO) build -o $(DIST_BIN) ./examples/distributed
	@out=$$($(DIST_BIN) -launch -p 4) || { echo "$$out"; echo "dist-smoke: launcher failed"; exit 1; }; \
	n=$$(echo "$$out" | grep -c '== in-process core.Train'); \
	if [ "$$n" -ne 2 ]; then echo "$$out"; \
		echo "dist-smoke: $$n of 2 methods reported the reference hash"; exit 1; fi; \
	echo "$$out" | grep 'rank 0:'

# check is the full verification gate: gofmt, vet (root module and bench/),
# the reachability gate, the whole suite under the race detector (which includes the TestChaosMatrix fault smoke: six methods ×
# crash/drop+delay/corrupt under respawn recovery), the 1/4-CPU race matrix
# over the concurrency-heavy packages, the fuzz seed corpora, the
# live-server smoke run, and the multi-process example.
check: fmt vet dead bench-build race race-matrix fuzz-smoke serve-smoke dist-smoke

# soak is the randomized chaos soak: seeded random fault schedules over
# every method family and both recovery policies, each run checked for
# deadlock-freedom, bounded retries and convergence. Any failure log prints
# the schedule seed, which alone reproduces the run.
soak:
	CASVM_SOAK=1 $(GO) test -count=1 -run TestChaosSoak -v ./internal/core

# soak-cluster churns a live coordinator for ~20s: six concurrent jobs over
# six workers while a chaos goroutine revokes and re-registers leases every
# 150ms. Every job must terminate (no hangs), at least half must complete,
# and completed jobs must still converge to accurate models. Then 4,000
# healthy Remote jobs run beside a loopback port churner and every one must
# finish in exactly one generation. The remote
# soak then repeats the exercise with real executor processes — Remote jobs
# train on forked workers while the churn loop kill -9s and replaces them,
# and every completed job must land on its fault-free ModelHash. The fleet
# soak then forks the real 4-process examples/distributed launcher with an
# injected straggler and asserts the merged fleet trace is produced, parses
# strictly, and analyzes end-to-end.
soak-cluster:
	CASVM_SOAK_CLUSTER=1 $(GO) test -count=1 -timeout 300s -run 'TestClusterSoak|TestRemoteGenerationsExactlyOne|TestRemoteSoak' -v ./internal/cluster
	CASVM_SOAK_CLUSTER=1 $(GO) test -count=1 -timeout 300s -run TestFleetSoak -v ./internal/telemetry/fleet

# bench runs the SMO hot-path benchmark suite at 1 and 4 threads and
# records ns/op + allocs/op in BENCH_smo.json (via cmd/benchjson).
# BenchmarkSolveInstrumented vs BenchmarkSolve prices the live-timeline
# overhead; the disabled path is pinned to 0 allocs/op by test.
# BenchmarkTrainDisSMO is the whole distributed-SMO job of the repository
# benchmark's dissmo-dense workload (ns/op, allocs/op, msgs/op), ungated.
# BenchmarkModelHash, BenchmarkLoadSet and BenchmarkShardCodec (root package)
# price the text and binary model formats on the cluster-remote job's set.
bench: bench-kernel
	{ $(GO) test ./internal/smo ./internal/kernel ./internal/la ./internal/core \
		-run '^$$' -bench 'BenchmarkSolve$$|BenchmarkSolveInstrumented$$|BenchmarkSolveCheckpointed$$|UpdateScanFused|RowCache|BenchmarkDot|BenchmarkSpDotFill|BenchmarkTrainDisSMO$$' \
		-benchmem -cpu 1,4; \
	  $(GO) test . -run '^$$' -bench 'BenchmarkModelHash$$|BenchmarkLoadSet$$|BenchmarkShardCodec' \
		-benchmem -cpu 1,4; } | $(GO) run ./cmd/benchjson > BENCH_smo.json
	@echo wrote BENCH_smo.json

# bench-kernel records the tile-engine suite in BENCH_kernel.json: blocked
# MulTile vs the row loop, CrossTile vs per-element Eval, batched
# PredictAll vs the per-row loop it replaced (the mixed-storage cases are
# the headline: the row path re-densifies the sparse side per support
# vector), and the two LIBSVM readers.
KERNEL_BENCH = BenchmarkMulTile|BenchmarkCrossTile|BenchmarkPredictAll|BenchmarkLoadLIBSVM
KERNEL_BENCH_PKGS = ./internal/la ./internal/kernel ./internal/model ./internal/data
bench-kernel:
	$(GO) test $(KERNEL_BENCH_PKGS) -run '^$$' -bench '$(KERNEL_BENCH)' \
		-benchmem | $(GO) run ./cmd/benchjson > BENCH_kernel.json
	@echo wrote BENCH_kernel.json

# bench-diff re-runs the tile-engine suite and exits nonzero when any
# benchmark's ns/op regressed past the threshold ratio against the committed
# baseline (0.5 = 50%, generous because single-iteration wall timings are
# noisy — algorithmic regressions are far larger). End-to-end training and
# serving are gated by the repository benchmark (`make benchmark`), not here.
BENCH_DIFF_THRESHOLD ?= 0.5
bench-diff:
	$(GO) test $(KERNEL_BENCH_PKGS) -run '^$$' -bench '$(KERNEL_BENCH)' \
		-benchmem | $(GO) run ./cmd/benchjson > BENCH_kernel.new.json
	$(GO) run ./cmd/benchjson -diff -threshold $(BENCH_DIFF_THRESHOLD) \
		BENCH_kernel.json BENCH_kernel.new.json
	@rm -f BENCH_kernel.new.json

# loc prints the root module's non-test Go lines per package and in total
# (bench/ is its own module and is not counted; testdata/ holds fixtures the
# go tool does not build) — the number the ROADMAP's "net negative"
# acceptance lines are checked against.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' ! -path '*/testdata/*' \
		| xargs wc -l \
		| awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", t }' \
		| sort -k2

# Short fuzz sweep over every fuzz target (parsers, the wire-frame
# decoder, the matrix and shard decoders, and the run-report round trip); seed corpora
# also run in plain `make test`.
fuzz:
	$(GO) test -fuzz FuzzReadLIBSVM -fuzztime 10s ./internal/data
	$(GO) test -fuzz FuzzReadFrame -fuzztime 10s ./internal/tcpmpi
	$(GO) test -fuzz FuzzRunReportRoundTrip -fuzztime 10s ./internal/trace
	$(GO) test -run 'Fuzz' -fuzz FuzzDecodePredictRequest -fuzztime 10s ./internal/serve
	$(GO) test -run 'Fuzz' -fuzz FuzzExecFrames -fuzztime 10s ./internal/cluster
	$(GO) test -run 'Fuzz' -fuzz FuzzDecodeMatrix -fuzztime 10s ./internal/la
	$(GO) test -run 'Fuzz' -fuzz FuzzDecodeShardModel -fuzztime 10s ./internal/model

# cover enforces statement-coverage floors on the packages whose
# regressions are silent: 70% on the observability/modeling set, 75% on the
# fleet telemetry plane (its merge/repair arithmetic fails quietly — a
# wrong offset still produces a plausible-looking trace) and the cluster
# runtime (its recovery and remote-executor paths only run when workers
# die, so untested code is exactly the code that fires in production
# incidents), 80% on the inference plane (it fronts production traffic, so
# its error paths must be exercised, not just its happy path).
COVER_FLOORS = ./internal/trace:70 ./internal/trace/critpath:70 ./internal/perfmodel:70 \
	./internal/expt:70 ./internal/kernel:70 ./internal/la:70 ./internal/compress:70 \
	./internal/telemetry/fleet:75 ./internal/cluster:75 ./internal/serve:80
cover:
	@for pf in $(COVER_FLOORS); do \
		pkg=$${pf%:*}; floor=$${pf#*:}; \
		out=$$($(GO) test -cover $$pkg | tail -1); \
		echo "$$out"; \
		pct=$$(echo "$$out" | sed -n 's/.*coverage: \([0-9.]*\)%.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "FAIL: no coverage for $$pkg"; exit 1; fi; \
		if ! awk -v p="$$pct" -v f="$$floor" 'BEGIN{exit (p>=f)?0:1}'; then \
			echo "FAIL: $$pkg coverage $$pct% < $$floor%"; exit 1; fi; \
	done
	@echo "coverage floors (70%/75%/80%) passed"
