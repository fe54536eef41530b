GO ?= go
FUZZTIME ?= 5s
BENCHOUT ?= BENCH_1.json
BENCHCOUNT ?= 3
BENCHBASE ?= BENCH_1.json
BENCHOUT2 ?= BENCH_2.json
MAXREGRESS ?= 0.20
# Chunk-container decode floors: parallel chunk decode must beat the
# sequential binary reader by this factor, and compressed chunks must
# shrink bytes-per-record to at most this fraction of binary.
MINCHUNKSPEEDUP ?= 2.0
MAXCHUNKRATIO ?= 0.5
# Live-characterization tap budget: the async sketch tap may slow the
# edge serve path by at most this fraction (gated on multi-core runners
# only — at GOMAXPROCS=1 the tap's consumer cannot overlap the path).
MAXCHAROVERHEAD ?= 0.05
# Replay report folded into bench baselines when present (see slo-check).
REPLAYREPORT ?= out/replay-slo.json
# Pinned staticcheck, run via `go run` so no binary install is needed.
STATICCHECK ?= honnef.co/go/tools/cmd/staticcheck@2025.1.1

.PHONY: ci vet lint build test race fuzz bench bench-check slo-check attack-check chaos-check char-check

# ci is the tier-1 gate: everything below, in order. The end-to-end
# gates run last — slo-check (latency), attack-check (adversarial
# robustness), chaos-check (fleet availability under node churn), then
# char-check (the live characterization plane against real traffic) —
# so they only fail CI after the code itself is sound.
ci: vet lint build test race fuzz slo-check attack-check chaos-check char-check

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

# race runs the whole tree under the race detector (about 3 minutes on
# two cores, most of it internal/experiments).
race:
	$(GO) test -race ./...

# bench regenerates the persisted benchmark baseline (BENCH_1.json by
# default; override with BENCHOUT=...). It runs every benchmark in the
# perf-critical packages -benchmem -count $(BENCHCOUNT) and derives the
# sequential-vs-parallel RunAll speedup plus the chunk-container decode
# comparison (records/sec and bytes-per-record vs the binary baseline).
# Regenerate on the machine you care about — the file records GOMAXPROCS.
bench:
	$(GO) run ./cmd/benchreport -count $(BENCHCOUNT) -out $(BENCHOUT) \
		-replay $(REPLAYREPORT)

# bench-check is the perf regression gate: re-run the suite, write
# $(BENCHOUT2), and fail if any benchmark's mean ns/op regressed more
# than $(MAXREGRESS) (fraction) against $(BENCHBASE), if parallel chunk
# decode fell below $(MINCHUNKSPEEDUP)x the binary reader, or if
# compressed chunks exceed $(MAXCHUNKRATIO) of binary bytes-per-record.
# Compare baselines from the same machine — ns/op across machines is
# noise, not signal.
bench-check:
	$(GO) run ./cmd/benchreport -count $(BENCHCOUNT) -out $(BENCHOUT2) \
		-baseline $(BENCHBASE) -max-regress $(MAXREGRESS) \
		-min-chunk-speedup $(MINCHUNKSPEEDUP) -max-chunk-bytes-ratio $(MAXCHUNKRATIO) \
		-max-livechar-overhead $(MAXCHAROVERHEAD) \
		-replay $(REPLAYREPORT)

# slo-check is the end-to-end latency gate: spin up the liveedge server
# (faults off), replay a sharded synthetic stream against it open-loop,
# and fail if the coordinated-omission-safe latency tail or the error
# budget violates $(SLO). Gates CI the same way bench-check gates ns/op.
# Tune with SLO/RATE/DURATION/WARMUP/SHARDS (see scripts/slo-check.sh).
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
# fuzz target per invocation). Raise FUZZTIME for a longer soak.
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzParseTSV -fuzztime=$(FUZZTIME) ./internal/logfmt
	$(GO) test -run=^$$ -fuzz=FuzzBinaryReader -fuzztime=$(FUZZTIME) ./internal/logfmt
	$(GO) test -run=^$$ -fuzz=FuzzChunkReader -fuzztime=$(FUZZTIME) ./internal/logfmt
	$(GO) test -run=^$$ -fuzz=FuzzUnmarshalJSONLine -fuzztime=$(FUZZTIME) ./internal/logfmt
	$(GO) test -run=^$$ -fuzz=FuzzTolerantReader -fuzztime=$(FUZZTIME) ./internal/ingest
	$(GO) test -run=^$$ -fuzz=FuzzParseSLO -fuzztime=$(FUZZTIME) ./internal/replay
	$(GO) test -run=^$$ -fuzz=FuzzDetect -fuzztime=$(FUZZTIME) ./internal/dsp
	$(GO) test -run=^$$ -fuzz=FuzzClassify -fuzztime=$(FUZZTIME) ./internal/uastring
	$(GO) test -run=^$$ -fuzz=FuzzCanonicalURL -fuzztime=$(FUZZTIME) ./internal/logfmt
