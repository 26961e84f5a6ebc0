#!/bin/sh
# End-to-end serving bench: starts sisg_serve on a deterministic synthetic
# d=128 corpus and drives it with sisg_loadgen over loopback, once with the
# scan ring shared (max_batch=32 riders, the default max_wait_us=0) and once
# unshared (max_batch=1) at the SAME client concurrency — the ratio of the
# two closed-loop throughputs is the value of sharing the scan itself. A
# third closed-loop run serves with two rings (--scan_threads 2). Two
# open-loop runs push arrivals well past capacity to demonstrate the
# backpressure contract (typed BUSY, bounded queue, server stays up), once
# without a deadline and once with --deadline_ms, which sheds requests that
# waited too long to join the ring.
#
# Emits BENCH_serve.json: one row per run (qps + latency percentiles from
# the load client) plus each server's own drain-time metrics export, which
# carries the serve.batch_size histogram and the serve.dropped counter.
#
# Usage: bench/serve_bench.sh [out.json]   (run from the repo root)
set -u
OUT="${1:-BENCH_serve.json}"
SERVE=./build/tools/sisg_serve
LOADGEN=./build/tools/sisg_loadgen
if [ ! -x "$SERVE" ] || [ ! -x "$LOADGEN" ]; then
  echo "error: build tools first (cmake -B build -S . && cmake --build build -j)" >&2
  exit 1
fi

ITEMS=60000
DIM=128
CONNS=8
DURATION="${SISG_SERVE_BENCH_SECONDS:-5}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# start_server <tag> <max_batch> [extra sisg_serve flags] — sets PORT and
# SERVER_PID
start_server() {
  tag="$1"; mb="$2"; shift 2
  rm -f "$TMP/port_$tag"
  "$SERVE" --synth_items $ITEMS --synth_dim $DIM --synth_seed 42 \
    --port 0 --port_file "$TMP/port_$tag" \
    --max_batch "$mb" --queue_capacity 1024 "$@" \
    --metrics_out "$TMP/metrics_$tag.json" >"$TMP/server_$tag.log" 2>&1 &
  SERVER_PID=$!
  i=0
  while [ ! -s "$TMP/port_$tag" ] && [ $i -lt 100 ]; do
    sleep 0.2; i=$((i + 1))
  done
  if [ ! -s "$TMP/port_$tag" ]; then
    echo "error: server ($tag) did not come up" >&2
    cat "$TMP/server_$tag.log" >&2
    exit 1
  fi
  PORT=$(cat "$TMP/port_$tag")
}

stop_server() {
  kill -TERM "$SERVER_PID" 2>/dev/null
  wait "$SERVER_PID" 2>/dev/null
}

echo "== serve bench: $ITEMS items, d=$DIM, $CONNS closed-loop connections =="

start_server batched 32
"$LOADGEN" --port "$PORT" --mode closed --connections $CONNS \
  --duration "$DURATION" --items $ITEMS --k 10 --seed 7 \
  --name coalesced --json_out "$TMP/row_batched.json" || exit 1
stop_server

start_server rings2 32 --scan_threads 2
"$LOADGEN" --port "$PORT" --mode closed --connections $CONNS \
  --duration "$DURATION" --items $ITEMS --k 10 --seed 7 \
  --name coalesced_2_rings --json_out "$TMP/row_rings2.json" || exit 1
stop_server

start_server unbatched 1
"$LOADGEN" --port "$PORT" --mode closed --connections $CONNS \
  --duration "$DURATION" --items $ITEMS --k 10 --seed 7 \
  --name max_batch_1 --json_out "$TMP/row_unbatched.json" || exit 1
stop_server

# Overload: open-loop Pareto arrivals at ~4x the coalesced capacity against
# a small queue. BUSY replies are expected and are NOT a failure — the
# bench asserts the server survives and keeps answering.
CAP_QPS=$(sed -n 's/.*"qps": \([0-9.]*\).*/\1/p' "$TMP/row_batched.json")
OVER_QPS=$(awk "BEGIN{printf \"%d\", 4 * $CAP_QPS}")
start_server overload 32
# Exit code deliberately ignored: an overload run reports BUSY, not errors,
# but a transport error would still surface in the row's errors field.
"$LOADGEN" --port "$PORT" --mode open --qps "$OVER_QPS" --arrival pareto \
  --connections $CONNS --duration "$DURATION" --items $ITEMS --k 10 --seed 7 \
  --name overload_4x --json_out "$TMP/row_overload.json"
stop_server

# The same overload with a 50 ms serving deadline: requests that queued
# longer than that before joining the ring get a typed DEADLINE reply.
start_server overload_deadline 32 --deadline_ms 50
"$LOADGEN" --port "$PORT" --mode open --qps "$OVER_QPS" --arrival pareto \
  --connections $CONNS --duration "$DURATION" --items $ITEMS --k 10 --seed 7 \
  --name overload_4x_deadline_50ms --json_out "$TMP/row_overload_deadline.json"
stop_server

B_QPS=$(sed -n 's/.*"qps": \([0-9.]*\).*/\1/p' "$TMP/row_batched.json")
U_QPS=$(sed -n 's/.*"qps": \([0-9.]*\).*/\1/p' "$TMP/row_unbatched.json")
SPEEDUP=$(awk "BEGIN{if ($U_QPS > 0) printf \"%.2f\", $B_QPS / $U_QPS; else print 0}")

{
  echo "{"
  echo "  \"config\": {\"items\": $ITEMS, \"dim\": $DIM, \"connections\": $CONNS, \"duration_s\": $DURATION},"
  echo "  \"rows\": ["
  sed 's/^/    /;$!s/$//' "$TMP/row_batched.json" | sed 's/}$/},/'
  sed 's/^/    /' "$TMP/row_rings2.json" | sed 's/}$/},/'
  sed 's/^/    /' "$TMP/row_unbatched.json" | sed 's/}$/},/'
  sed 's/^/    /' "$TMP/row_overload.json" | sed 's/}$/},/'
  sed 's/^/    /' "$TMP/row_overload_deadline.json"
  echo "  ],"
  echo "  \"coalescing_speedup\": $SPEEDUP,"
  echo "  \"server_metrics\": {"
  printf '    "coalesced": '
  sed '1!s/^/    /' "$TMP/metrics_batched.json" | sed '$s/}$/},/'
  printf '    "coalesced_2_rings": '
  sed '1!s/^/    /' "$TMP/metrics_rings2.json" | sed '$s/}$/},/'
  printf '    "max_batch_1": '
  sed '1!s/^/    /' "$TMP/metrics_unbatched.json" | sed '$s/}$/},/'
  printf '    "overload_4x": '
  sed '1!s/^/    /' "$TMP/metrics_overload.json" | sed '$s/}$/},/'
  printf '    "overload_4x_deadline_50ms": '
  sed '1!s/^/    /' "$TMP/metrics_overload_deadline.json"
  echo "  }"
  echo "}"
} > "$OUT"

echo "coalescing speedup at $CONNS connections: ${SPEEDUP}x (wrote $OUT)"
PASS=$(awk "BEGIN{print ($SPEEDUP >= 2.0) ? 1 : 0}")
if [ "$PASS" -eq 1 ]; then
  echo "SERVE_BENCH_PASS: coalesced throughput >= 2x max_batch=1"
else
  echo "SERVE_BENCH_WARN: coalesced speedup ${SPEEDUP}x below 2x target" >&2
fi
