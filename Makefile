GO ?= go

.PHONY: build test race race-matrix vet cross-vet lanes-off fmt dead bench-build check benchmark bench-pairs fuzz fuzz-smoke bench bench-kernel bench-diff memprof serve-smoke dist-smoke paper-golden soak soak-cluster cover loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# cross-vet vets the module as arm64, where internal/la's assembly kernels
# are absent: the portable fallback and its build tags must compile and vet
# clean (amd64 vet already runs asmdecl over the .s files).
cross-vet:
	GOARCH=arm64 $(GO) vet ./...

# lanes-off reruns the bit-identity pins — golden hashes, the fused and
# prefetched solves against their references, the loop over a filled-column
# exchange and the column update, the Dis-SMO pins,
# Dot4, MulTile and the batch-prediction paths over them (DecisionAll,
# RouteAll, Set.PredictAll/EvalAll, the routed pass: RoutedPass; the query
# panels: ExpDistSum, DecisionPanels), the nearest-center distance block
# (la.SqDistTile and its distance panels, ArgMin) under Lloyd sweeps, FCFS,
# routing and CrossTile,
# the one-column tile under the lazy row fill and Dis-SMO's columns
# (DotList: MulTile's and SqDistTile's one-column path; ColumnTile and
# TileMatchesRow: CrossTile's columns and the lazy fill's transposed tile), the
# whole-matrix fill (WholeFill; ExpDistTile: its Gaussian panels, which store
# both triangles, against the recipe and the lane panel against its loop), a
# CSR block's whole fill over its dense copy (Compacted:
# Dot4 panels over the compacted rows), the Dis-SMO column cache's slots
# (ColumnCache: decoded samples, norms, columns, diagonals and K(high, low)
# over poisoned storage; DecodeRowInto: a slot's row and norm against
# DecodeMatrix), the one kernel recipe across every fill (OneRecipe), and the
# served queries_b64 decode (DecodeBase64F64: the base64 lanes against
# encoding/base64; QuotedSpan and QueriesB64: the value's one-walk bound and
# its refused bytes; DecodeBinary and DecodePredictRequest: serve's chunked
# decoder, its pinned queries and error strings and its fuzz seeds)
# against their scalar references — with internal/la's four-lane kernels off,
# so the portable loops must land on the same numbers
# (TestVectorKernelsActive fails if the lanes stayed on).
# GODEBUG=cpu.avx2=off turns the lanes off and leaves math.Exp on its FMA
# branch; cpu.fma=off would move math.Exp itself, and every pinned Gaussian
# hash with it.
LANES_OFF_TESTS = Golden|Repin|Fused|ParallelMatches|Prefetch|Exchange|Columns|DisSMO|VectorKernelsActive|Dot4|MulTile|DecisionAll|RouteAll|SetPredictAll|EvalAll|RoutedPass|ExpDistSum|DecisionPanels|SqDistTile|ArgMin|AssignAll|ScalarWalk|Ties|CrossTile|DotList|ColumnTile|TileMatchesRow|WholeFill|ExpDistTile|Compacted|OneRecipe|ColumnCache|DecodeRowInto|DecodeBase64F64|QuotedSpan|QueriesB64|DecodeBinary|DecodePredictRequest
lanes-off:
	GODEBUG=cpu.avx2=off $(GO) test -count=1 -run '$(LANES_OFF_TESTS)' . ./internal/smo ./internal/core ./internal/la ./internal/model \
		./internal/kmeans ./internal/partition ./internal/kernel ./internal/serve

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
		./internal/faults ./internal/core ./internal/trace \
		./internal/cluster ./internal/kernel ./internal/la ./internal/serve \
		./internal/telemetry ./internal/telemetry/fleet ./internal/smo

# fuzz-smoke runs every fuzz target's seed corpus (no exploration) so the
# corpora cannot rot; `make fuzz` does the time-boxed exploration. The
# packages are those `go test -list` finds a target in, as for `make fuzz`,
# so a new target's package cannot fall off the list, and a package whose
# tests do not build fails it.
fuzz-smoke:
	@set -e; list=$$($(GO) test -list '^Fuzz' ./...) || { echo "$$list"; exit 1; }; \
	pkgs=$$(echo "$$list" | awk '/^Fuzz/ { f = 1 } /^ok / { if (f) print $$2; f = 0 }'); \
	test -n "$$pkgs" || { echo "fuzz-smoke: no fuzz targets found"; exit 1; }; \
	$(GO) test -run '^Fuzz' $$pkgs

# serve-smoke boots the live telemetry server against a real training run
# held mid-flight (TestServeSmoke: /metrics, /report, /events, /debug/pprof)
# and against a cluster coordinator whose job ran on an executor
# (TestServeClusterNamespaces: /metrics, /jobs and the job's metrics, report
# and merged fleet trace) — plus the whole inference-plane suite (HTTP smoke,
# batched-vs-sequential equivalence, hot-reload torn-model hammering) under
# the race detector.
serve-smoke:
	$(GO) test -race -count=1 -run 'TestServe' ./internal/telemetry
	$(GO) test -race -count=1 ./internal/serve

# dist-smoke runs the multi-process example's three README command lines
# end to end. `-p 4`: a cluster coordinator and four forked executor
# processes train Dis-SMO (over a TCP mesh the executors dial on the
# listeners they announced) and RA-CA as remote jobs, and both models must
# land on the hash of the in-process core.Train reference (~1 s). `-p 3
# -kill`: an executor is killed with SIGKILL mid-solve, and the recovered
# Dis-SMO model must land on that hash (~3 s). `-fleet-trace -straggler
# 2ms`: both hashes again with every executor sleeping each iteration
# (~10 s, mostly asleep), the Dis-SMO job's merged trace must hold one flow
# edge per message it counted, carrying its bytes, and casvm-profile, as text
# and as -json, must analyze that trace on its wall timebase. The straggler verdicts themselves are timing-bound
# and asserted by TestFleetSoak (`make soak-cluster`), not here.
DIST_BIN = .bench_build/dist-smoke
PROFILE_BIN = .bench_build/casvm-profile
dist-smoke:
	@mkdir -p .bench_build
	$(GO) build -o $(DIST_BIN) ./examples/distributed
	$(GO) build -o $(PROFILE_BIN) ./cmd/casvm-profile
	@out=$$($(DIST_BIN) -p 4) || { echo "$$out"; echo "dist-smoke: example failed"; exit 1; }; \
	n=$$(echo "$$out" | grep -c '== in-process core.Train'); \
	if [ "$$n" -ne 2 ]; then echo "$$out"; \
		echo "dist-smoke: $$n of 2 methods reported the reference hash"; exit 1; fi; \
	echo "$$out" | grep 'P=4:'
	@out=$$($(DIST_BIN) -p 3 -kill) || { echo "$$out"; echo "dist-smoke: -kill failed"; exit 1; }; \
	echo "$$out" | grep 'recovered hash [0-9a-f]* == in-process core.Train' || { echo "$$out"; \
		echo "dist-smoke: -kill did not report the recovered reference hash"; exit 1; }
	@out=$$($(DIST_BIN) -p 4 -fleet-trace .bench_build/merged.trace -straggler 2ms) || { echo "$$out"; \
		echo "dist-smoke: -fleet-trace failed"; exit 1; }; \
	n=$$(echo "$$out" | grep -c '== in-process core.Train'); \
	if [ "$$n" -ne 2 ]; then echo "$$out"; \
		echo "dist-smoke: $$n of 2 methods reported the reference hash with -straggler"; exit 1; fi; \
	echo "$$out" | grep "fleet: merged trace holds [0-9]* edges, [0-9]* bytes == the job's messages and bytes" || { echo "$$out"; \
		echo "dist-smoke: the merged trace does not hold the Dis-SMO job's messages and bytes"; exit 1; }; \
	prof=$$($(PROFILE_BIN) .bench_build/merged.trace) || { echo "$$prof"; echo "dist-smoke: casvm-profile failed"; exit 1; }; \
	echo "$$prof" | grep 'timebase=wall' || { echo "$$prof"; echo "dist-smoke: the merged trace is not on the wall timebase"; exit 1; }; \
	prof=$$($(PROFILE_BIN) -top 20 -json .bench_build/merged.trace) || { echo "$$prof"; echo "dist-smoke: casvm-profile -json failed"; exit 1; }; \
	echo "$$prof" | grep -q '"timebase": "wall"' || { echo "$$prof"; echo "dist-smoke: casvm-profile -json lacks the wall timebase"; exit 1; }

# paper-golden reruns every experiment of the paper's evaluation at the
# committed scale and diffs its stdout against experiments_raw.txt (~80 s
# on a 2-core host; each experiment's wall time goes to stderr). A change
# that moves a cell regenerates the file with the same command and names
# the cause: `go run ./cmd/casvm-bench -exp all -scale 1 -p 8 -maxp 64 >
# experiments_raw.txt`.
GOLDEN_BIN = .bench_build/casvm-bench
paper-golden:
	@mkdir -p .bench_build
	$(GO) build -o $(GOLDEN_BIN) ./cmd/casvm-bench
	$(GOLDEN_BIN) -exp all -scale 1 -p 8 -maxp 64 > .bench_build/paper-golden.txt
	diff -u experiments_raw.txt .bench_build/paper-golden.txt

# check is the full verification gate: gofmt, vet (root module as amd64 and
# arm64, and bench/), the reachability gate, the whole suite under the race
# detector (which includes the TestChaosMatrix fault smoke: six methods ×
# crash/drop+delay/corrupt under respawn recovery), the 1/4-CPU race matrix
# over the concurrency-heavy packages, the pins with the lanes off, the fuzz
# seed corpora, the live-server smoke run, the multi-process example, and
# the reproduced paper against its committed output.
check: fmt vet cross-vet dead bench-build race race-matrix lanes-off fuzz-smoke serve-smoke dist-smoke paper-golden

# soak is the randomized chaos soak: seeded random fault schedules over
# every method family and both recovery policies, each run checked for
# deadlock-freedom, bounded retries and convergence. Any failure log prints
# the schedule seed, which alone reproduces the run.
soak:
	CASVM_SOAK=1 $(GO) test -count=1 -run TestChaosSoak -v ./internal/core

# soak-cluster churns a live coordinator for up to 20s: six concurrent
# Dis-SMO, RA-CA and Cascade jobs over six executors (RunExecutor
# goroutines) while a chaos goroutine revokes one and starts a replacement
# every 250ms, so RA-CA generations resume from streamed checkpoints and mesh
# generations are torn down and re-ganged. Every job must terminate (no
# hangs), at least half must complete, and every completed job must land on
# its fault-free ModelHash (Cascade on that of the width it finished at).
# Then 4,000 healthy jobs run beside a loopback port churner and every one
# must finish in exactly one generation. The process soak then repeats the
# exercise with real executor processes — jobs train on forked workers while
# the churn loop kill -9s and replaces them, and every completed job must land
# on its fault-free ModelHash. The fleet
# soak then runs examples/distributed — a coordinator and four executor
# processes started with -exec-delay, the last with five times the others' —
# and asserts that its Dis-SMO job's merged fleet trace parses strictly and
# analyzes end-to-end with the slow executor's delay on its critical path, and
# that its RA-CA job flags the slow executor's rank as a straggler.
soak-cluster:
	CASVM_SOAK_CLUSTER=1 $(GO) test -count=1 -timeout 300s -run 'TestClusterSoak|TestRemoteGenerationsExactlyOne|TestRemoteSoak' -v ./internal/cluster
	CASVM_SOAK_CLUSTER=1 $(GO) test -count=1 -timeout 300s -run TestFleetSoak -v ./internal/telemetry/fleet

# bench runs the SMO hot-path benchmark suite at GOMAXPROCS 1 and 4 (the
# solver is serial; ranks are goroutines, so the CPU count still moves the
# distributed jobs) and records ns/op + allocs/op in BENCH_smo.json (via
# cmd/benchjson).
# BenchmarkSolveInstrumented vs BenchmarkSolve prices the live-timeline
# overhead; the disabled path is pinned to 0 allocs/op by test.
# BenchmarkTrainDisSMO is the whole distributed-SMO job of the repository
# benchmark's dissmo-dense workload (ns/op, allocs/op, msgs/op), ungated.
# BenchmarkModelHash, BenchmarkLoadSet and BenchmarkShardCodec (root package)
# price the fingerprint, the binary model file and the rank-done shard codec
# on the cluster-remote job's set.
# BenchmarkDecodePredictRequest prices the serving decoder alone on the
# serve-batch and serve-single bodies, and BenchmarkDecodeBase64F64 its
# base64 lanes against the portable loop on serve-batch's 175 KB body,
# ungated.
bench: bench-kernel
	{ $(GO) test ./internal/smo ./internal/kernel ./internal/la ./internal/core \
		-run '^$$' -bench 'BenchmarkSolve$$|BenchmarkSolveInstrumented$$|BenchmarkSolveCheckpointed$$|UpdateScan|RowCache|BenchmarkDot|BenchmarkSpDotFill|BenchmarkTrainDisSMO$$|BenchmarkDecodeBase64F64' \
		-benchmem -cpu 1,4; \
	  $(GO) test . -run '^$$' -bench 'BenchmarkModelHash$$|BenchmarkLoadSet$$|BenchmarkShardCodec' \
		-benchmem -cpu 1,4; \
	  $(GO) test ./internal/serve -run '^$$' -bench 'BenchmarkDecodePredictRequest' \
		-benchmem -cpu 1,4; } | $(GO) run ./cmd/benchjson > BENCH_smo.json
	@echo wrote BENCH_smo.json

# bench-kernel records the tile-engine suite in BENCH_kernel.json: blocked
# MulTile vs the row loop, CrossTile vs per-element Eval, batched
# PredictAll vs the per-row loop it replaced (the mixed-storage cases are
# the headline: the row path re-densifies the sparse side per support
# vector), the streaming LIBSVM reader against the grow-as-you-go one and
# on the writer's own output (LoadLIBSVM), the strconv LIBSVM writer against
# the fmt one (WriteLIBSVM), and the Gaussian kernel's four-lane exp
# (ExpScaled) and the one-column MulTile, one row against listed rows
# (DotList), against the scalar loops.
KERNEL_BENCH = BenchmarkMulTile|BenchmarkCrossTile|BenchmarkPredictAll|BenchmarkLoadLIBSVM|BenchmarkWriteLIBSVM|BenchmarkExpScaled|BenchmarkDotList
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

# memprof profiles where a training job's memory comes from, for each of
# the repository benchmark's three training workloads:
# BenchmarkTrainFCFSCADense (casvm-dense: FCFS-CA, P=8, 3,600×32),
# BenchmarkTrainFCFSCASparse (casvm-sparse: FCFS-CA, P=8, 1,500×2,048 CSR)
# and BenchmarkTrainDisSMODense (dissmo-dense: Dis-SMO, P=4, 640×32), 150
# jobs each, and then where a served request's memory comes from:
# BenchmarkServeClients/1x256-b64 (serve-batch's shape: one client posting
# 256×64 queries_b64 bodies over real HTTP) at -cpu 1, 2,000 requests. Each
# prints its top 15 allocation sites by bytes (alloc_space); the serving
# profile counts the benchmark's own HTTP client too. The profiles and test
# binaries stay in .bench_build/memprof.
MEMPROF_DIR = .bench_build/memprof
MEMPROF_BENCHES = FCFSCADense FCFSCASparse DisSMODense
memprof:
	@mkdir -p $(MEMPROF_DIR)
	$(GO) test -c -o $(MEMPROF_DIR)/casvm.test .
	@for b in $(MEMPROF_BENCHES); do \
		$(MEMPROF_DIR)/casvm.test -test.run '^$$' -test.bench "BenchmarkTrain$$b\$$" -test.benchmem \
			-test.benchtime 150x -test.memprofile $(MEMPROF_DIR)/$$b.out || exit 1; \
		$(GO) tool pprof -sample_index=alloc_space -top -nodecount 15 $(MEMPROF_DIR)/casvm.test \
			$(MEMPROF_DIR)/$$b.out || exit 1; \
	done
	$(GO) test -c -o $(MEMPROF_DIR)/serve.test ./internal/serve
	$(MEMPROF_DIR)/serve.test -test.run '^$$' -test.bench 'BenchmarkServeClients/1x256-b64$$' -test.benchmem \
		-test.cpu 1 -test.benchtime 2000x -test.memprofile $(MEMPROF_DIR)/ServeBatch.out
	$(GO) tool pprof -sample_index=alloc_space -top -nodecount 15 $(MEMPROF_DIR)/serve.test \
		$(MEMPROF_DIR)/ServeBatch.out

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

# Short fuzz sweep over every fuzz target (parsers, the wire-frame, hello and
# registration-reply decoders, the fleet merge's inputs, the matrix, shard,
# model-file and sample-part decoders, the run-report round trip, and the
# four-lane exp, distance, SMO update-scan and Dot4 kernels against their
# scalar oracles); seed corpora also run in plain `make test`. The targets
# are whatever `go test -list` finds, so a renamed or new one cannot fall
# off the sweep, and a package whose tests do not build fails it.
fuzz:
	@set -e; n=0; \
	for pkg in $$($(GO) list ./...); do \
		list=$$($(GO) test -list '^Fuzz' $$pkg) || { echo "$$list"; exit 1; }; \
		for f in $$(echo "$$list" | grep '^Fuzz' || true); do \
			echo "fuzz $$f $$pkg"; \
			$(GO) test -run '^$$' -fuzz "^$$f\$$" -fuzztime 10s $$pkg; \
			n=$$((n + 1)); \
		done; \
	done; \
	test $$n -gt 0 || { echo "fuzz: no fuzz targets found"; exit 1; }

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
