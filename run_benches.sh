#!/bin/sh
# Runs the full bench sweep, fail-fast: the first bench that exits nonzero
# aborts the sweep with its status (a crashed bench used to scroll past and
# still print SWEEP_COMPLETE). The micro benches additionally emit
# machine-readable JSON so the perf trajectory of the hot kernels can be
# tracked across PRs: BENCH_micro.json for the training kernels (see
# EXPERIMENTS.md "Kernel microbench") and BENCH_retrieval.json for the
# serving path (ns/query for brute-force, IVF and HNSW at d=128; see
# EXPERIMENTS.md "Retrieval microbench"), and BENCH_corpus.json for the
# ingestion pipeline (serial vs N-thread corpus build, packed vs nested
# traversal, SGNS epoch on the packed arena; see EXPERIMENTS.md
# "Ingestion microbench"), and BENCH_quant.json for the quantized serving
# path (fp32 vs int8 scan, fp32 IVF vs IVF-PQ ADC, each with a
# bytes_per_query counter; see EXPERIMENTS.md "Quantization microbench"),
# and BENCH_serve.json for the end-to-end serving process (shared scan
# ring vs max_batch=1 loopback throughput plus overload runs with and
# without a deadline; see EXPERIMENTS.md "Serving bench"), and BENCH_hash.json for the hot-path hash layer
# (FlatHashMap/Set vs std::unordered_* on insert/lookup/mixed churn, the
# three visited-set variants on beam walks, and the end-to-end HNSW
# query-batch + corpus-build deltas; see EXPERIMENTS.md "Hash microbench";
# its BM_Crc32 rows are the "Artifact checksum" table). Runs from the
# directory this script lives in, the root of the checkout.
cd "$(dirname "$0")" || exit 1
if [ ! -d build/bench ] || [ ! -x build/bench/bench_micro_engine ]; then
  echo "error: bench binaries not found under build/bench." >&2
  echo "Build them first:  cmake -B build -S . && cmake --build build -j" >&2
  exit 1
fi
: > bench_output.txt

# Seeded-run knobs propagate to every child (some benches and the
# property-test binaries share the SISG_PROP_* protocol), so a sweep can be
# replayed exactly from a CI log.
if [ -n "${SISG_PROP_SEED:-}" ]; then
  echo "sweep: replaying property case SISG_PROP_SEED=$SISG_PROP_SEED"
  export SISG_PROP_SEED
fi
if [ -n "${SISG_PROP_BASE_SEED:-}" ]; then
  echo "sweep: property base seed SISG_PROP_BASE_SEED=$SISG_PROP_BASE_SEED"
  export SISG_PROP_BASE_SEED
fi

# Runs one bench, teeing to bench_output.txt without letting tee's exit
# status mask a bench failure (plain sh has no pipefail). On failure, any
# falsified-property replay line in the output is re-printed last so the
# one-command reproducer is the final thing in the log.
run() {
  { "$@" 2>&1; echo "$?" > .bench_status; } | tee -a bench_output.txt
  status=$(cat .bench_status)
  rm -f .bench_status
  if [ "$status" -ne 0 ]; then
    echo "error: $1 failed with status $status" >&2
    if grep -q "SISG_PROP_SEED=" bench_output.txt; then
      echo "reproduce with:" >&2
      grep "replay: SISG_PROP_SEED=" bench_output.txt | tail -1 >&2
    fi
    exit "$status"
  fi
}

run ./build/bench/bench_micro_engine \
  --benchmark_out=BENCH_micro.json --benchmark_out_format=json
run ./build/bench/bench_micro_retrieval \
  --benchmark_out=BENCH_retrieval.json --benchmark_out_format=json
run ./build/bench/bench_micro_corpus \
  --benchmark_out=BENCH_corpus.json --benchmark_out_format=json
run ./build/bench/bench_micro_quant \
  --benchmark_out=BENCH_quant.json --benchmark_out_format=json
run ./build/bench/bench_micro_hash \
  --benchmark_out=BENCH_hash.json --benchmark_out_format=json
run sh bench/serve_bench.sh BENCH_serve.json
for b in build/bench/*; do
  case "$b" in
    */bench_micro_engine|*/bench_micro_retrieval|*/bench_micro_corpus|*/bench_micro_quant|*/bench_micro_hash) continue ;;
  esac
  [ -f "$b" ] && [ -x "$b" ] || continue  # skip cmake build artifacts
  run "$b"
done
echo "SWEEP_COMPLETE" >> bench_output.txt
