# pipecache - ISCA 1992 pipelined primary cache study reproduction

GO ?= go

.PHONY: all build test race race-ci vet bench bench-full bench-json fuzz chaos tables figures sweep ablations metrics serve bake golden ci clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The race-detector package list shared with CI: concurrency-bearing
# packages, including the replay plan cache that concurrent passes share
# (cpisim) and the pooled bank slabs (cache).
RACE_PKGS = ./internal/server ./internal/core ./internal/obs ./internal/trace \
	./internal/fault ./internal/chaos ./internal/surface ./internal/cluster \
	./internal/cpisim ./internal/cache

# The race job CI runs (make ci and the workflow's race job).
race-ci:
	$(GO) test -race $(RACE_PKGS)

# One iteration of every paper table/figure benchmark plus microbenches.
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x -run '^$$' .

# Full-fidelity benchmark run (longer traces).
bench-full:
	PIPECACHE_BENCH_INSTS=2000000 $(GO) test -bench=. -benchmem -benchtime=1x -run '^$$' .

# The performance ledger (archived by CI per commit): cmd/benchjson runs the
# root package's ledger benchmarks once through go test -bench and writes
# BENCH_sim.json. It fails when go test fails or leaves out a row, and when
# BenchmarkTraceReplay falls below the floor, the pre-lane-pack replay
# throughput: dipping below it means the compiled-plan/lane-packed replay
# tier's gains have been lost entirely.
REPLAY_FLOOR ?= 70000000
bench-json:
	$(GO) run ./cmd/benchjson -o BENCH_sim.json -replay-floor $(REPLAY_FLOOR)

fuzz:
	$(GO) test -fuzz FuzzDecode -fuzztime 30s ./internal/isa/
	$(GO) test -fuzz FuzzParseInst -fuzztime 30s ./internal/isa/
	$(GO) test -fuzz FuzzReader -fuzztime 30s ./internal/trace/
	$(GO) test -fuzz FuzzParseCircuit -fuzztime 30s ./internal/timing/
	$(GO) test -fuzz FuzzDesignRequest -fuzztime 30s ./internal/server/
	$(GO) test -fuzz FuzzParsePlan -fuzztime 30s ./internal/fault/
	$(GO) test -fuzz FuzzSurfaceReader -fuzztime 30s ./internal/surface/
	$(GO) test -fuzz FuzzCPITable -fuzztime 30s ./internal/cpisim/

# Chaos suite: the ablation cross-product and the HTTP service under seeded
# deterministic fault schedules, race detector on (see DESIGN.md §12).
# Override the seed matrix to replay a failing seed:
#   PIPECACHE_CHAOS_SEEDS=0xbad make chaos
PIPECACHE_CHAOS_SEEDS ?= 1,2,3
chaos:
	PIPECACHE_CHAOS_SEEDS=$(PIPECACHE_CHAOS_SEEDS) $(GO) test -race -count=1 -v ./internal/chaos
	$(GO) test -race -count=1 -run 'TestSurfaceDifferential|TestSurfacePolicyFallback|TestDataJobFaultLeavesMemoClean' ./internal/surface ./internal/server ./internal/core

tables:
	$(GO) run ./cmd/pipecache tables

figures:
	$(GO) run ./cmd/pipecache figures

sweep:
	$(GO) run ./cmd/pipecache sweep

ablations:
	$(GO) run ./cmd/pipecache ablations

# Instrumented smoke run: a small sweep with the observability layer on,
# printing the metrics snapshot.
metrics:
	$(GO) run ./cmd/pipecache metrics -insts 100000 -benchmarks gcc,yacc

# Serve the design space over HTTP/JSON (see README "Serving").
serve:
	$(GO) run ./cmd/pipecache serve -addr :8080

# Bake the full design space into a PSF1 surface artifact; serve it with
# `pipecache serve -surface surface.psf1` (see README "Baking").
bake:
	$(GO) run ./cmd/pipecache bake -out surface.psf1

# Regenerate the golden files after an intended behaviour change.
golden:
	$(GO) test ./internal/core -run TestGolden -update
	$(GO) test ./internal/server -run TestGolden -update
	$(GO) test ./internal/surface -run TestGolden -update

# The full gate CI runs: format check, vet, build, tests, race. perfbench
# is a nested module that ./... skips, and it calls the internal packages,
# so it is vetted and tested from its own directory.
ci:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test ./...
	cd perfbench && $(GO) vet ./... && $(GO) test ./...
	$(MAKE) race-ci

clean:
	$(GO) clean ./...
	rm -f trace.pct test_output.txt bench_output.txt
