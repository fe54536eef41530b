#!/bin/sh
# slo-check: end-to-end latency gate. Builds the liveedge server and the
# load tools, starts the edge on a loopback port with fault injection
# off, replays a synthetic stream against it open-loop, and
# fails the build if the intended-start (coordinated-omission-safe)
# latency distribution or the error budget violates $SLO.
#
# Tunables (environment):
#   SLO      gate expression          (default "p99<250ms,err<1%")
#   RATE     offered load in req/s    (default 400)
#   DURATION total replay time        (default 6s)
#   WARMUP   excluded leading window  (default 2s)
#   OUT      replay report path       (default out/replay-slo.json)
set -eu

. "$(dirname "$0")/lib.sh"

SLO="${SLO:-p99<250ms,err<1%}"
RATE="${RATE:-400}"
DURATION="${DURATION:-6s}"
WARMUP="${WARMUP:-2s}"
OUT="${OUT:-out/replay-slo.json}"
GO="${GO:-go}"

cd "$(dirname "$0")/.."
mkdir -p "$(dirname "$OUT")"

work="$(mktemp -d)"
edge_pid=""
cleanup() {
    stop_pid "$edge_pid"
    rm -rf "$work"
}
trap cleanup EXIT INT TERM

echo "slo-check: building liveedge, jsongen, jsonreplay"
"$GO" build -o "$work/liveedge" ./cmd/liveedge
"$GO" build -o "$work/jsongen" ./cmd/jsongen
"$GO" build -o "$work/jsonreplay" ./cmd/jsonreplay

echo "slo-check: generating synthetic stream"
"$work/jsongen" -preset short -scale 0.005 -q -o "$work/stream.tsv.gz"

# Start the edge with faults off on dynamic loopback ports; it
# publishes its URLs once ready. We wait on the handshake file with a
# pid-liveness check (a startup crash fails here, with the edge log,
# instead of hanging the replayer), and the replayer then re-reads the
# file and probes /readyz itself — no sleep-and-hope anywhere.
"$work/liveedge" -serve -fault-rate 0 -listen 127.0.0.1:0 -admin 127.0.0.1:0 \
    -url-file "$work/edge.url" 2>"$work/edge.log" &
edge_pid=$!
await_url_file "$work/edge.url" "$edge_pid" "$work/edge.log"

echo "slo-check: replaying at ${RATE} req/s for ${DURATION} (warmup ${WARMUP}), gating on \"$SLO\""
"$work/jsonreplay" -i "$work/stream.tsv.gz" -target-file "$work/edge.url" \
    -rate "$RATE" -duration "$DURATION" -warmup "$WARMUP" \
    -slo "$SLO" -out "$OUT" || {
    status=$?
    echo "slo-check: FAILED (jsonreplay exit $status); edge log follows" >&2
    cat "$work/edge.log" >&2
    exit "$status"
}

stop_pid "$edge_pid"
edge_pid=""
echo "slo-check: PASS (report: $OUT)"
