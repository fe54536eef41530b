#!/bin/sh
# chaos-check: fleet availability gate. Builds the node binary and the
# fleet supervisor, spawns a 3-node edge fleet behind the consistent-
# hash front tier, and replays a synthetic stream through the front
# while a scripted chaos timeline SIGKILLs one node mid-run and later
# respawns it on the same port. Two verdicts must both hold:
#
#   1. jsonreplay's SLO over the whole run — intended-start p99 and the
#      availability budget, where "avail" counts well-formed 5xx from
#      an exhausted front as errors, not just refused connections;
#   2. jsonfleet's recovery gate — the settled post-repair hit ratio
#      must come back to within $RECOVER of the pre-fault ratio
#      (exit 4 otherwise).
#
# Then the same disruption runs as a negative control with failover
# disabled and health detection stalled, and the build fails unless
# that run VIOLATES the same SLO — proof the gate has teeth.
#
# Tunables (environment):
#   SLO      gate expression            (default "p99<250ms,avail<1%")
#   RATE     offered load in req/s      (default 300)
#   DURATION total replay time          (default 10s)
#   WARMUP   excluded leading window    (default 1s)
#   NODES    fleet size                 (default 3)
#   RECOVER  hit-ratio recovery band    (default 0.10)
#   OUT      replay report path         (default out/replay-chaos.json)
#   REPORT   fleet chaos report path    (default out/chaos-report.json)
set -eu

. "$(dirname "$0")/lib.sh"

SLO="${SLO:-p99<250ms,avail<1%}"
RATE="${RATE:-300}"
DURATION="${DURATION:-10s}"
WARMUP="${WARMUP:-1s}"
NODES="${NODES:-3}"
RECOVER="${RECOVER:-0.10}"
OUT="${OUT:-out/replay-chaos.json}"
REPORT="${REPORT:-out/chaos-report.json}"
GO="${GO:-go}"

cd "$(dirname "$0")/.."
mkdir -p "$(dirname "$OUT")" "$(dirname "$REPORT")"

work="$(mktemp -d)"
fleet_pid=""
cleanup() {
    stop_pid "$fleet_pid"
    rm -rf "$work"
}
trap cleanup EXIT INT TERM

echo "chaos-check: building liveedge, jsonfleet, jsongen, jsonreplay"
"$GO" build -o "$work/liveedge" ./cmd/liveedge
"$GO" build -o "$work/jsonfleet" ./cmd/jsonfleet
"$GO" build -o "$work/jsongen" ./cmd/jsongen
"$GO" build -o "$work/jsonreplay" ./cmd/jsonreplay

echo "chaos-check: generating synthetic stream"
"$work/jsongen" -preset short -scale 0.005 -q -o "$work/stream.tsv.gz"

# The disruption: one node hard-killed a fifth of the way in, respawned
# on the same port at the midpoint, and a settled marker late enough
# for its cache to rewarm. Offsets assume DURATION >= ~8s.
cat >"$work/timeline.chaos" <<'EOF'
# lose one of three nodes mid-replay, then rejoin it
@2s kill edge-01
@5s restart edge-01
@7500ms mark settled
EOF

# run_fleet LABEL FLEET_FLAGS: start jsonfleet with the timeline and
# wait for its handshake; sets fleet_pid.
run_fleet() {
    rf_label="$1"; rf_flags="$2"
    mkdir -p "$work/$rf_label"
    # shellcheck disable=SC2086
    "$work/jsonfleet" -nodes "$NODES" -node-bin "$work/liveedge" \
        -work "$work/$rf_label" -chaos "$work/timeline.chaos" $rf_flags \
        -url-file "$work/$rf_label.url" 2>"$work/$rf_label.log" &
    fleet_pid=$!
    await_url_file "$work/$rf_label.url" "$fleet_pid" "$work/$rf_label.log" 30
}

echo "chaos-check: replaying at ${RATE} req/s for ${DURATION} through a ${NODES}-node fleet (kill+rejoin), gating on \"$SLO\""
run_fleet fleet "-failover 2 -probe 100ms -down-after 2 -up-after 2 -report $REPORT -recover-within $RECOVER"
"$work/jsonreplay" -i "$work/stream.tsv.gz" -target-file "$work/fleet.url" \
    -rate "$RATE" -duration "$DURATION" -warmup "$WARMUP" \
    -slo "$SLO" -out "$OUT" || {
    status=$?
    echo "chaos-check: FAILED (jsonreplay exit $status); fleet log follows" >&2
    cat "$work/fleet.log" >&2
    exit "$status"
}

# SIGTERM the supervisor: it drains, writes $REPORT, and exits 4 if the
# settled hit ratio did not recover to within $RECOVER of pre-fault.
kill -s TERM "$fleet_pid" 2>/dev/null || true
gate=0
wait "$fleet_pid" || gate=$?
fleet_pid=""
if [ "$gate" -ne 0 ]; then
    echo "chaos-check: FAILED: fleet recovery gate (jsonfleet exit $gate); report $REPORT, log follows" >&2
    cat "$work/fleet.log" >&2
    exit 1
fi
awk '/"pre_ratio"|"settled_ratio"|"failovers"/ { gsub(/[ ",]/,""); seen[$1]=1; print "chaos-check:   " $0 }' \
    "$REPORT" 2>/dev/null | sort -u

# Negative control: same kill, failover off, health detection stalled —
# a third of the keyspace 502s for three seconds. The same SLO must
# fail, or the gate demonstrably tests nothing.
echo "chaos-check: negative control (failover disabled, detection stalled) — the same SLO must now fail"
run_fleet nofailover "-failover 0 -probe 1h"
if "$work/jsonreplay" -i "$work/stream.tsv.gz" -target-file "$work/nofailover.url" \
    -rate "$RATE" -duration "$DURATION" -warmup "$WARMUP" \
    -slo "$SLO" -out "$work/replay-nofailover.json" >/dev/null 2>&1; then
    echo "chaos-check: FAILED: failover-disabled fleet met \"$SLO\" — the gate is vacuous" >&2
    cat "$work/nofailover.log" >&2
    exit 1
fi
stop_pid "$fleet_pid"
fleet_pid=""

echo "chaos-check: PASS (SLO + recovery met with failover; violated without; reports: $OUT, $REPORT)"
