#!/usr/bin/env bash
# Runs the smoke serving and sweep benches into bench_results/, checks that
# every emitted BENCH_*.json and the sampled metrics JSON parse, and diffs
# the results against the committed smoke baseline (bench/baselines/smoke/).
#
# Run it from the CMake build directory, which must sit directly under the
# repository root:
#   cd build && ../tools/ci_bench_results.sh
set -e
mkdir -p bench_results && cd bench_results
../bench_serve_loop --smoke --metrics /tmp/metrics.json --trace /tmp/trace.json
../bench_serve_loop --smoke --overload
../bench_sweep_stream --smoke
../bench_sweep_residency --smoke
../bench_sweep_topology --smoke
for f in BENCH_*.json; do python3 -m json.tool "$f" > /dev/null; done
python3 -m json.tool /tmp/metrics.json > /dev/null
python3 ../../tools/bench_diff.py --check ../../bench/baselines/smoke .
