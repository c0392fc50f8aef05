#!/usr/bin/env bash
# e2e_net.sh — end-to-end smoke of the network serving stack over a real
# TCP socket: hhserved in all four runtime modes driven by a
# race-instrumented hhshoot. Asserts:
#
#   1. the steady leg (with -retry-shed) produces the IDENTICAL stream
#      checksum in every mode — cross-mode parity through the wire;
#   2. a burst beyond admission capacity is shed EXPLICITLY (nonzero
#      -SHED replies), never absorbed by unbounded buffering;
#   2b. /debug/trace records a flight-recorder snapshot DURING the burst
#      and checktrace validates it (well-formed trace-event JSON, balanced
#      spans, monotonic timestamps);
#   3. /metrics serves the exposition and /healthz flips during drain;
#   4. SIGTERM drains cleanly: hhserved exits 0 only if every accepted
#      request completed and chunk occupancy returned to its baseline
#      (the wholesale-reclamation property at the process boundary).
#
# Run from the repository root:  ./scripts/e2e_net.sh
set -euo pipefail

work=$(mktemp -d)
srv_pid=""
cleanup() {
  [ -n "$srv_pid" ] && kill "$srv_pid" 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT

echo "== build =="
go build -o "$work/hhserved" ./cmd/hhserved
go build -race -o "$work/hhshoot" ./cmd/hhshoot

# start_server <mode> [extra flags...] — launches hhserved on an
# ephemeral port and exports ADDR/MADDR (and DADDR when -debug-addr is
# among the extra flags) from its startup lines.
start_server() {
  local mode=$1; shift
  local want_debug=0
  case " $* " in *" -debug-addr "*) want_debug=1;; esac
  : >"$work/server.log"
  DADDR=""
  "$work/hhserved" -addr 127.0.0.1:0 -metrics-addr 127.0.0.1:0 \
    -mode "$mode" -procs 4 "$@" >"$work/server.log" 2>&1 &
  srv_pid=$!
  for _ in $(seq 1 100); do
    ADDR=$(sed -n 's/.*listening on //p' "$work/server.log")
    MADDR=$(sed -n 's|.*metrics on http://\([^/]*\)/metrics|\1|p' "$work/server.log")
    DADDR=$(sed -n 's|.*debug on http://\([^/]*\)/debug|\1|p' "$work/server.log")
    if [ -n "$ADDR" ] && [ -n "$MADDR" ]; then
      [ "$want_debug" = 0 ] || [ -n "$DADDR" ] || { sleep 0.1; continue; }
      return 0
    fi
    kill -0 "$srv_pid" 2>/dev/null || { cat "$work/server.log" >&2; return 1; }
    sleep 0.1
  done
  echo "server never came up" >&2
  cat "$work/server.log" >&2
  return 1
}

# stop_server — SIGTERM, then require a clean drain (exit 0 and the
# baseline line in the log).
stop_server() {
  kill -TERM "$srv_pid"
  local code=0
  wait "$srv_pid" || code=$?
  srv_pid=""
  if [ "$code" -ne 0 ]; then
    echo "FAIL: hhserved exited $code (drain incomplete or chunk leak)" >&2
    cat "$work/server.log" >&2
    return 1
  fi
  grep -q "chunk occupancy back at baseline" "$work/server.log" || {
    echo "FAIL: no baseline confirmation in server log" >&2
    cat "$work/server.log" >&2
    return 1
  }
}

json_field() { # json_field <file> <key> — extract a scalar field
  sed -n "s/.*\"$2\": \"\{0,1\}\([^\",]*\)\"\{0,1\},\{0,1\}\$/\1/p" "$1" | head -1
}

echo "== cross-mode parity (steady leg, retry-shed) =="
ref_sum=""
for mode in seq stw manticore parmem; do
  start_server "$mode" -max-inflight 8
  "$work/hhshoot" -addr "$ADDR" -shape steady:3000 -requests 1500 -conns 8 \
    -size 600 -retry-shed -json >"$work/shoot-$mode.json"
  sum=$(json_field "$work/shoot-$mode.json" checksum)
  ok=$(json_field "$work/shoot-$mode.json" ok)
  echo "  $mode: ok=$ok checksum=$sum"
  [ "$ok" = "1500" ] || { echo "FAIL: $mode served $ok/1500" >&2; exit 1; }
  if [ -z "$ref_sum" ]; then
    ref_sum=$sum
  elif [ "$sum" != "$ref_sum" ]; then
    echo "FAIL: checksum divergence: $mode=$sum, want $ref_sum" >&2
    exit 1
  fi
  stop_server
done
echo "  parity: all four modes computed $ref_sum"

echo "== explicit shedding under burst (with live trace capture) =="
start_server parmem -max-inflight 4 -queue-depth 8 -debug-addr 127.0.0.1:0
# Record the flight recorder over a 2s window that overlaps the burst:
# the curl runs in the background while hhshoot drives the load.
curl -sf "http://$DADDR/debug/trace?sec=2" -o "$work/burst-trace.json" &
trace_pid=$!
"$work/hhshoot" -addr "$ADDR" -shape burst:500:20000:500ms:200ms \
  -requests 1500 -conns 48 -size 1200 -json >"$work/shoot-burst.json"
shed=$(json_field "$work/shoot-burst.json" shed)
echo "  burst: shed=$shed of 1500"
[ "${shed:-0}" -gt 0 ] || { echo "FAIL: burst was absorbed, not shed" >&2; exit 1; }
wait "$trace_pid" || { echo "FAIL: /debug/trace capture failed" >&2; exit 1; }
go run ./scripts/checktrace.go -min-events 100 "$work/burst-trace.json"

echo "== metrics and drain health =="
curl -sf "http://$MADDR/metrics" >"$work/metrics.txt"
for m in hh_requests_total hh_sheds_total hh_chunks_in_use hh_latency_seconds \
         hh_latency_seconds_sum hh_latency_seconds_count \
         hh_latency_breakdown_seconds_total hh_ptr_writes_total \
         hh_forks_total hh_zone_overlap_seconds_total hh_chunk_acquires_total; do
  grep -q "$m" "$work/metrics.txt" || { echo "FAIL: $m missing from /metrics" >&2; exit 1; }
done
health=$(curl -s -o /dev/null -w '%{http_code}' "http://$MADDR/healthz")
[ "$health" = "200" ] || { echo "FAIL: /healthz = $health before drain" >&2; exit 1; }
stop_server

echo "e2e_net: ok (parity $ref_sum, $shed burst sheds, clean drains in all four modes)"
