# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test race race-server bench bench-save bench-compare bench-load bench-load-compare bench-cluster-compare profile figures figures-quick serve verify cover cover-gate fuzz clean

all: build test

build:
	go build ./...
	go vet ./...

# Tier-1 verification: vet + the full test suite.
test:
	go vet ./...
	go test ./...

# The parallel experiment engine under the race detector.
race:
	go test -race ./...

# The serving layer, job orchestrator, durable store, cluster tier,
# distributed sweep scheduler and CLI entry points under the race detector
# (single-flight collapse, drain, checkpoint resume, two-tier promotion,
# hedged peer fetches, hedged point re-dispatch and the multi-daemon
# fault-injection scenarios are the interesting schedules).
race-server:
	go test -race ./internal/server/ ./internal/jobs/ ./internal/store/ \
		./internal/cluster/... ./internal/distsweep/ ./cmd/...

# Reduced versions of every paper experiment as Go benchmarks.
bench:
	go test -bench=. -benchmem ./...

# One pass over every benchmark (including BenchmarkLabParallel's serial vs
# parallel speedup metric), saved as machine-readable test2json lines so the
# perf trajectory can be diffed across PRs. The serving layer's cached-hit
# vs cold-run pair lands in its own file so the daemon's latency trajectory
# is separately diffable, and the core sweep engine (BenchmarkSweepReplay's
# speedup vs the recorded pre-overhaul reference, ns/instr, allocs/instr)
# lands in BENCH_core.json so hot-loop regressions show up as a diff.
# bench-load rides along so the serving layer's load trajectory
# (BENCH_load.json) is re-recorded with the rest, and the distributed sweep
# pairs (cold fig8 and cold sensitivity, each on a standalone daemon vs a
# 3-member in-process fleet) land in BENCH_cluster.json so fan-out overhead
# is diffable PR to PR (`make bench-cluster-compare` gates the ratios).
bench-save: bench-load
	go test -json -run '^$$' -bench=. -benchtime=1x ./... > BENCH_parallel.json
	go test -json -run '^$$' -bench='^BenchmarkServer' -benchtime=10x ./internal/server/ > BENCH_server.json
	go test -json -run '^$$' -bench='^BenchmarkDistributedSweep' -benchtime=3x \
		./internal/cluster/clustertest/ > BENCH_cluster.json
	@{ echo '{"Action":"note","Package":"nanocache/internal/experiments","Output":"prepr_ms_per_sweep=153.8 recorded at commit 16a559b (pre-overhaul engine, go test -benchtime=5x); denominator of the speedup metric below"}'; \
	go test -json -run '^$$' -bench='^BenchmarkSweepReplay' -benchtime=5x -count=3 ./internal/experiments/; } > BENCH_core.json

# Load-test recording: boot a quick-set daemon, drive it with the open-loop
# generator across a rate ladder, and save per-class latency quantiles
# (p50/p99/p999), shed/error rates and the max sustainable rate in the same
# test2json shape the other BENCH_*.json files use, so cmd/benchdiff can
# gate the latency trajectory PR to PR. Tune with LOAD_RATES/LOAD_DURATION.
LOAD_RATES ?= 50,100,200
LOAD_DURATION ?= 10s
LOAD_OUT ?= BENCH_load.json
bench-load:
	go build -o nanoload.bin ./cmd/nanoload
	go build -o nanocached.bin ./cmd/nanocached
	@set -e; \
	./nanocached.bin -addr 127.0.0.1:8346 -quick -benchmarks gcc -instructions 2000 -parallel 2 & \
	DAEMON=$$!; \
	trap "kill -TERM $$DAEMON 2>/dev/null || true" EXIT; \
	for i in $$(seq 1 50); do \
		curl -sf http://127.0.0.1:8346/healthz > /dev/null && break; sleep 0.1; \
	done; \
	./nanoload.bin -addr http://127.0.0.1:8346 -rates $(LOAD_RATES) \
		-duration $(LOAD_DURATION) -warmup 2s -out $(LOAD_OUT)

# Diff a fresh load recording's cached-hit p99 against the checked-in
# BENCH_load.json, failing on a >25% regression (latency quantiles are
# noisier than ms/sweep, hence the wider tolerance). Soft-gated in CI.
bench-load-compare:
	$(MAKE) bench-load LOAD_OUT=BENCH_load.new.json
	go run ./cmd/benchdiff -old BENCH_load.json -new BENCH_load.new.json -metric p99-us -tolerance 0.25

# PR-to-PR perf gate: re-run the core sweep benchmarks into a candidate
# file and diff the ms/sweep headline (and per-benchmark breakdown) against
# the checked-in BENCH_core.json, failing on a >10% regression. CI runs
# this as a soft gate (continue-on-error) because shared runners are noisy;
# on the reference machine it is authoritative.
bench-compare:
	@{ echo '{"Action":"note","Package":"nanocache/internal/experiments","Output":"candidate recording for benchdiff; regenerate the baseline with make bench-save"}'; \
	go test -json -run '^$$' -bench='^BenchmarkSweepReplay' -benchtime=5x -count=3 ./internal/experiments/; } > BENCH_core.new.json
	go run ./cmd/benchdiff -old BENCH_core.json -new BENCH_core.new.json -metric ms/sweep -tolerance 0.10

# Distributed-sweep perf gate: re-run the single-vs-cluster3 pairs into a
# candidate file and diff the *speedup ratios* against the checked-in
# BENCH_cluster.json — absolute times drift with the runner, but the fleet
# falling behind its own standalone baseline is a fan-out regression. Soft
# gate in CI (in-process members share cores on small runners).
bench-cluster-compare:
	go test -json -run '^$$' -bench='^BenchmarkDistributedSweep' -benchtime=3x \
		./internal/cluster/clustertest/ > BENCH_cluster.new.json
	go run ./cmd/benchdiff -cluster -old BENCH_cluster.json -new BENCH_cluster.new.json -tolerance 0.25

# CPU and heap profiles of the per-point replay sweep benchmark, with a
# top-10 symbol summary of each printed for a quick look; open the .pprof
# files with `go tool pprof` for the full view.
profile:
	go test -run '^$$' -bench '^BenchmarkSweepReplay$$' -benchtime=10x \
		-cpuprofile=cpu.pprof -memprofile=mem.pprof \
		-o sweep.test ./internal/experiments/
	go tool pprof -top -nodecount=10 sweep.test cpu.pprof
	go tool pprof -top -nodecount=10 -sample_index=alloc_space sweep.test mem.pprof

# Full regeneration of every table and figure (several minutes, one core).
figures:
	go run ./cmd/figures -svg figures -json figures/results.json | tee figures/figures.txt

figures-quick:
	go run ./cmd/figures -quick

# Start the result-serving daemon on the quick option set.
serve:
	go run ./cmd/nanocached -quick -addr 127.0.0.1:8344

# Pure invariant-verification pass: collect the quick-sized figure set and
# run every registered rule against it. Fails if any rule reports a
# violation. `go test ./internal/verify` covers the same rules plus the
# golden-master comparison; this target is the from-scratch CLI check.
verify:
	go run ./cmd/figures -fig none -verify -quick

cover:
	go test -cover ./...

# Coverage gate: fail if aggregate statement coverage across the module
# drops below COVER_MIN percent. Uses a single merged profile so packages
# exercising each other (e.g. verify driving experiments) count once.
COVER_MIN ?= 70
cover-gate:
	go test -coverprofile=cover.out -coverpkg=./... ./...
	@total=$$(go tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "total coverage: $$total% (gate: $(COVER_MIN)%)"; \
	awk -v t="$$total" -v min="$(COVER_MIN)" 'BEGIN { exit (t+0 < min+0) }' || \
		{ echo "FAIL: coverage $$total% below gate $(COVER_MIN)%"; exit 1; }

# Fuzz every target for FUZZTIME each. The target list is explicit so a
# renamed or deleted fuzz function fails the build loudly instead of being
# silently skipped: each entry is first checked for existence with
# `go test -list` before fuzzing.
FUZZTIME ?= 30s
FUZZ_TARGETS := \
	FuzzReader:./internal/trace \
	FuzzInterleave:./internal/isa \
	FuzzCactiConfig:./internal/cacti \
	FuzzRunInvariants:./internal/verify \
	FuzzJobStateMachine:./internal/jobs \
	FuzzStoreEnvelope:./internal/store \
	FuzzPeerEnvelope:./internal/cluster \
	FuzzPointSpecEnvelope:./internal/distsweep \
	FuzzBatchEnvelope:./internal/distsweep

fuzz:
	@set -e; for entry in $(FUZZ_TARGETS); do \
		target=$${entry%%:*}; pkg=$${entry#*:}; \
		listed=$$(go test -list "^$$target$$" "$$pkg" | grep -c "^$$target$$" || true); \
		if [ "$$listed" -ne 1 ]; then \
			echo "FAIL: fuzz target $$target not found in $$pkg (renamed or deleted?)"; exit 1; \
		fi; \
		echo "=== fuzzing $$target ($$pkg, $(FUZZTIME)) ==="; \
		go test -run "^$$target$$" -fuzz "^$$target$$" -fuzztime $(FUZZTIME) "$$pkg"; \
	done

clean:
	go clean ./...
