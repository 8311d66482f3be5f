#!/usr/bin/env bash
# obs-smoke: boot a real sord, scrape its metrics endpoint with sorctl,
# and assert that every series the observability layer promises is
# present at boot (they are registered eagerly, not on first traffic).
set -euo pipefail

cd "$(dirname "$0")/.."

PORT="${OBS_SMOKE_PORT:-18080}"
ADDR="127.0.0.1:${PORT}"
BASE="http://${ADDR}"
BIN="$(mktemp -d)"
trap 'kill "${SORD_PID:-}" 2>/dev/null || true; rm -rf "$BIN"' EXIT

go build -o "$BIN/sord" ./cmd/sord
go build -o "$BIN/sorctl" ./cmd/sorctl

"$BIN/sord" -addr "$ADDR" >"$BIN/sord.log" 2>&1 &
SORD_PID=$!

# The series the instrumented layers register at construction: server
# ingest/scheduling/rank counters, per-type request series, handler
# latency histograms, and the HTTP endpoint counters.
REQUIRED='sor_http_requests_total,sor_http_decode_errors_total'
REQUIRED+=',sor_ingest_reports_total,sor_ingest_accepted_total,sor_ingest_duplicate_total,sor_ingest_rejected_total'
REQUIRED+=',sor_sched_replans_total,sor_snapshot_rebuilds_total,sor_rank_cache_hits_total,sor_rank_cache_misses_total'
REQUIRED+=',sor_snapshot_delta_rebuilds_total,sor_snapshot_rearms_total,sor_rank_warm_blocks_total'
REQUIRED+=',sor_server_requests_total{type="ping"},sor_server_requests_total{type="data-upload"}'
REQUIRED+=',sor_server_requests_total{type="data-upload-batch"},sor_server_requests_total{type="rank-request"}'
REQUIRED+=',sor_server_handler_ms{type="data-upload"},sor_snapshot_rebuild_ms,sor_sched_replan_ms'
REQUIRED+=',sor_processor_uploads_total,sor_processor_decode_errors_total'
REQUIRED+=',sor_session_active,sor_session_opened_total,sor_session_closed_total'
REQUIRED+=',sor_session_pushes_total,sor_session_wakes_total,sor_session_push_dropped_total'

# Poll until the server answers (or fail after ~10 s).
for i in $(seq 1 50); do
    if "$BIN/sorctl" -server "$BASE" metrics -require "$REQUIRED" >/dev/null 2>&1; then
        echo "obs-smoke: all required series present on $BASE"
        # One real request must move the counters end to end. The ping is
        # refused (unknown token) but still served and counted.
        "$BIN/sorctl" -server "$BASE" ping -token smoke-token >/dev/null 2>&1 || true
        PINGS=$("$BIN/sorctl" -server "$BASE" metrics |
            grep -F 'sor_server_requests_total{type="ping"}' | awk '{print $NF}')
        if [ "${PINGS:-0}" -lt 1 ]; then
            echo "obs-smoke: ping was not counted (got $PINGS)" >&2
            exit 1
        fi
        echo "obs-smoke: traffic counted (ping series = $PINGS)"
        exit 0
    fi
    if ! kill -0 "$SORD_PID" 2>/dev/null; then
        echo "obs-smoke: sord died:" >&2
        cat "$BIN/sord.log" >&2
        exit 1
    fi
    sleep 0.2
done

echo "obs-smoke: required series never appeared; last attempt:" >&2
"$BIN/sorctl" -server "$BASE" metrics -require "$REQUIRED" >&2 || true
cat "$BIN/sord.log" >&2
exit 1
