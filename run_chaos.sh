#!/bin/sh
# Runs the fault-injection ("chaos") test suite under ThreadSanitizer: the
# checkpoint/resume rendezvous barrier, the fault-injected distributed
# engine (worker kill + recovery, dropped/duplicated remote calls, injected
# crashes), the ANN degradation paths, and the serving-path hot-swap /
# attack-sweep suite (serve_reload_test). A dedicated TSan build dir keeps
# the instrumented objects out of the regular build.
#
# After the ctest suite, a LIVE sweep runs against a real TSan-instrumented
# int8 sisg_serve process: one sisg_loadgen run keeps honest load on the
# wire while its chaos workers drive every attack mode and its reload storm
# publishes good int8 versions interleaved with deliberately corrupt ones
# into the watch dir. The server must answer every honest probe, swap good
# versions, roll back every corrupt one, and drain cleanly.
set -e
# Resolve the checkout from the script's own location, so the script runs
# from any checkout and any working directory.
cd "$(dirname "$0")" || exit 1
ROOT=$(pwd)
cmake -B build-tsan -S . -DSISG_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-tsan -j
cd build-tsan
# The chaos label now includes the property suites (tests/prop). Their
# seeds propagate through the environment so a CI failure is one-command
# reproducible locally: SISG_PROP_SEED replays a single failing case,
# SISG_PROP_BASE_SEED rotates the whole run. Under TSan the per-suite case
# counts are capped (overridable) — instrumented runs are ~20x slower and
# the Release CI job already runs the full counts.
SISG_PROP_CASES="${SISG_PROP_CASES:-40}"
export SISG_PROP_CASES
if [ -n "${SISG_PROP_SEED:-}" ]; then
  echo "chaos: replaying property case SISG_PROP_SEED=$SISG_PROP_SEED"
  export SISG_PROP_SEED
fi
if [ -n "${SISG_PROP_BASE_SEED:-}" ]; then
  echo "chaos: property base seed SISG_PROP_BASE_SEED=$SISG_PROP_BASE_SEED"
  export SISG_PROP_BASE_SEED
fi
# tsan.supp masks only the documented Hogwild! weight-update race; the
# checkpoint barrier and fault-injection machinery run unsuppressed.
# On failure, surface the seeds needed to reproduce: every falsified
# property prints its own "replay: SISG_PROP_SEED=..." line in the ctest
# output above.
if ! TSAN_OPTIONS="suppressions=$ROOT/tsan.supp history_size=7" \
    ctest -L chaos --output-on-failure "$@"; then
  echo "chaos: FAILED (SISG_PROP_CASES=$SISG_PROP_CASES" \
    "SISG_PROP_BASE_SEED=${SISG_PROP_BASE_SEED:-default})" >&2
  echo "chaos: a falsified property prints 'replay: SISG_PROP_SEED=<seed>'" \
    "above; rerun with that env var to reproduce the exact case." >&2
  exit 1
fi

# --- Live serving-path sweep (reload storm + malformed frames). ---
CHAOS_DIR=$(mktemp -d)
PORT_FILE="$CHAOS_DIR/port"
METRICS_OUT="${SISG_CHAOS_METRICS_OUT:-$CHAOS_DIR/serve_chaos_metrics.json}"
WATCH_DIR="$CHAOS_DIR/watch"
mkdir -p "$WATCH_DIR"
TSAN_OPTIONS="suppressions=$ROOT/tsan.supp history_size=7" \
  ./tools/sisg_serve --synth_items 2000 --synth_dim 32 --quant int8 --port 0 \
    --port_file "$PORT_FILE" --watch_dir "$WATCH_DIR" \
    --reload_interval_ms 100 --idle_timeout_ms 300 --deadline_ms 500 \
    --io_threads 1 --metrics_out "$METRICS_OUT" &
SERVER_PID=$!
for i in $(seq 1 100); do [ -s "$PORT_FILE" ] && break; sleep 0.2; done
test -s "$PORT_FILE"
PORT=$(cat "$PORT_FILE")
# Honest load, the full attack sweep and a reload storm (every 3rd publish
# corrupt, so validated rollback is exercised, not just the happy path),
# client timeouts on.
./tools/sisg_loadgen --port "$PORT" --mode closed --connections 4 \
  --duration "${SISG_CHAOS_SECONDS:-8}" --items 2000 --k 10 \
  --timeout_ms 5000 --chaos all --chaos_connections 2 \
  --reload_dir "$WATCH_DIR"
kill -TERM "$SERVER_PID"
wait "$SERVER_PID"
test -s "$METRICS_OUT"
echo "serve chaos metrics: $METRICS_OUT"
echo "CHAOS_COMPLETE"
