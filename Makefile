GO ?= go
FUZZTIME ?= 5s
# Pinned staticcheck, run via `go run` so no binary install is needed.
STATICCHECK ?= honnef.co/go/tools/cmd/staticcheck@2025.1.1

.PHONY: ci fmt vet lint build test bench-test race fuzz bench loc slo-check attack-check chaos-check char-check

# ci is the tier-1 gate: everything below, in order. The end-to-end
# gates run last — slo-check (latency), attack-check (adversarial
# robustness), chaos-check (fleet availability under node churn), then
# char-check (the live characterization plane against real traffic) —
# so they only fail CI after the code itself is sound.
ci: fmt vet lint build test bench-test race fuzz slo-check attack-check chaos-check char-check

# fmt fails, listing the files, when any tracked Go file is not
# gofmt-clean.
fmt:
	@out=$$(git ls-files -z '*.go' | xargs -0 gofmt -l); \
	if [ -n "$$out" ]; then echo "fmt: not gofmt-clean:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# lint runs the pinned staticcheck. The module cache may not have it and
# the build environment may be offline, so probe first and skip (with a
# notice) when the pin cannot be fetched — lint must never be the reason
# an air-gapped `make ci` fails.
lint:
	@if $(GO) run $(STATICCHECK) -version >/dev/null 2>&1; then \
		$(GO) run $(STATICCHECK) ./...; \
	else \
		echo "lint: $(STATICCHECK) unavailable (offline?); skipping"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# bench-test vets and tests the benchmark, a module of its own whose only
# requirement is `replace repro => ../` (so it works offline): a renamed
# export that would stop the ruler compiling fails here, not in the
# benchmark run. The layer benchmarks that live beside their code (the
# fleet front over a stub transport, the replay pacer's lateness,
# predict-then-train on a cache-busting stream in the ngram model and in
# livechar's consumer, and the decode ladder's chunk decode, host parse
# and Table 2 fold in logfmt) run one iteration each, so that they keep
# compiling and running; so do the root ablations over edge.Pool and the
# prefetch simulator whose numbers EXPERIMENTS.md "Ablations" cites.
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...
	$(GO) test -run '^$$' -bench 'Front|Pacer|PredictOnline|PredictorObserve' -benchtime 1x ./internal/fleet ./internal/replay ./internal/ngram ./internal/livechar
	$(GO) test -run '^$$' -bench 'ChunkDecode|RecordHost|DatasetSummaryObserve' -benchtime 1x ./internal/logfmt
	$(GO) test -run '^$$' -bench 'PrefetchK|TTLSweep|RoutingAblation|AdmissionAblation' -benchtime 1x .

# race runs the whole tree under the race detector (about 3 minutes on
# two cores, most of it internal/experiments).
race:
	$(GO) test -race ./...

# bench runs the repository's benchmark (bench/, declared in
# BENCHMARK.json) with its traced pass on and leaves every end-to-end
# and per-layer metric in out/bench/result.json. Commit that file as
# BENCH_<pr>.json: the per-PR trajectory is read from those.
bench:
	bash bench/run.sh --trace 1

# loc prints the ROADMAP "Size" metric: Go lines outside bench/ that are
# neither blank nor a whole-line comment, without test files and with
# them — the second so that lines moved into _test.go do not count as a
# reduction. Then the binaries (package main directories outside bench/)
# and the flag definitions anywhere outside bench/ (so that moving one
# out of cmd/ cannot lower the count), on the default flag set or on a
# subcommand's FlagSet, which the code names fs.
LOC = xargs cat | grep -v '^\s*$$' | grep -v '^\s*//' | wc -l
loc:
	@echo "non-test: $$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | $(LOC))"
	@echo "with tests: $$(find . -name '*.go' ! -path './bench/*' | $(LOC))"
	@echo "binaries: $$(grep -rl --include='*.go' --exclude-dir=bench '^package main$$' . | xargs -n1 dirname | sort -u | wc -l)"
	@echo "flags: $$(grep -rhoE --include='*.go' --exclude-dir=bench '\b(flag|fs)\.(String|Int|Int64|Uint64|Float64|Bool|Duration)(Var)?\(' . | wc -l)"

# slo-check is the end-to-end latency gate: spin up the liveedge server
# (faults off), replay a synthetic stream against it open-loop, and fail
# if the coordinated-omission-safe latency tail or the error budget
# violates $(SLO). Tune with SLO/RATE/DURATION/WARMUP (see
# scripts/slo-check.sh).
slo-check:
	GO=$(GO) ./scripts/slo-check.sh

# attack-check is the adversarial-robustness gate: replay a labeled
# attack stream (cache-busting, flash crowd, bots, amplification)
# against a liveedge with defenses off and on, and fail unless the
# defended edge bounds attack-attributed origin amplification under
# $(AMP_CEILING) while benign traffic through the defenses still meets
# $(SLO). Tune with AMP_CEILING/MIN_UNDEFENDED/SPEED/SLO/SEED (see
# scripts/attack-check.sh).
attack-check:
	GO=$(GO) ./scripts/attack-check.sh

# chaos-check is the fleet availability gate: spawn a 3-node liveedge
# fleet behind the consistent-hash front tier, replay through the front
# while a scripted timeline kills and respawns one node, and fail
# unless availability (p99 + avail budget, 5xx counted) holds AND the
# settled hit ratio recovers to within $(RECOVER) of pre-fault — then
# prove the gate bites by re-running with failover disabled, which must
# violate the same SLO. Tune with SLO/RATE/DURATION/WARMUP/NODES/
# RECOVER (see scripts/chaos-check.sh).
chaos-check:
	GO=$(GO) ./scripts/chaos-check.sh

# char-check is the live-characterization gate: start a liveedge with
# -livechar, drive it with replayed synthetic traffic plus a fixed-URL
# beacon that bursts on a known period, then assert over /charz and
# /metrics that the plane saw the traffic — the beacon among the top-K
# heavy hitters, its period detected, quantiles and prediction gauges
# populated, livechar_* metric cardinality bounded, and periodic
# snapshot files written. Tune with RATE/DURATION/BEACON_PERIOD (see
# scripts/char-check.sh).
char-check:
	GO=$(GO) ./scripts/char-check.sh

# fuzz gives each decode-path fuzzer a short budget (go only runs one
# fuzz target per invocation). Raise FUZZTIME for a longer soak. The
# ngram differential and the /charz merge cap minimisation: both range
# over maps, so coverage flickers, inputs keep looking new, and the
# default minute of minimising each would use up the whole budget.
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzParseTSV -fuzztime=$(FUZZTIME) ./internal/logfmt
	$(GO) test -run=^$$ -fuzz=FuzzChunkReader -fuzztime=$(FUZZTIME) ./internal/logfmt
	$(GO) test -run=^$$ -fuzz=FuzzUnmarshalJSONLine -fuzztime=$(FUZZTIME) ./internal/logfmt
	$(GO) test -run=^$$ -fuzz=FuzzTolerantReader -fuzztime=$(FUZZTIME) ./internal/ingest
	$(GO) test -run=^$$ -fuzz=FuzzParseSLO -fuzztime=$(FUZZTIME) ./internal/replay
	$(GO) test -run=^$$ -fuzz=FuzzParseTimeline -fuzztime=$(FUZZTIME) ./internal/fleet/chaos
	$(GO) test -run=^$$ -fuzz=FuzzDetect -fuzztime=$(FUZZTIME) ./internal/dsp
	$(GO) test -run=^$$ -fuzz=FuzzClassify -fuzztime=$(FUZZTIME) ./internal/uastring
	$(GO) test -run=^$$ -fuzz=FuzzCanonicalURL -fuzztime=$(FUZZTIME) ./internal/logfmt
	$(GO) test -run=^$$ -fuzz=FuzzRecordHost -fuzztime=$(FUZZTIME) ./internal/logfmt
	$(GO) test -run=^$$ -fuzz=FuzzModelAgainstOracle -fuzztime=$(FUZZTIME) -fuzzminimizetime=50x ./internal/ngram
	$(GO) test -run=^$$ -fuzz=FuzzMergeSnapshots -fuzztime=$(FUZZTIME) -fuzzminimizetime=50x ./internal/livechar
