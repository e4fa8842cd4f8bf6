#!/usr/bin/env python3
"""Two-clock benchmark of the TDO-CIM simulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Builds the runner (perfbench/CMakeLists.txt, against ../src) on first use,
runs one workload in its own process and prints every metric by name with
its unit. The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. `--workload all` runs every
workload untraced and traced and prints all of it, plus the Fig. 6 paper
comparison. Workloads, metrics and their predictions: perfbench/README.md.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["pb-host", "pb-cim", "serve-hot", "serve-churn"]
ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_ROOT = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
BUILD_DIR = BUILD_ROOT / "perfbench"
RESULTS_DIR = BUILD_ROOT / "results"
RUNNER = BUILD_DIR / "perfbench_runner"
RUNNER_TIMEOUT_S = 170

# Paper reference points for Fig. 6 (energy and EDP gain of Host+CIM over
# the host). The model has no other validation data.
PAPER_ENERGY_GEOMEAN = 3.2
PAPER_SELECTIVE_GEOMEAN = 32.6
PAPER_BEST_EDP = 612.0
GEMV_LIKE = ("gesummv", "bicg", "mvt")
SELECTIVE_MACS_PER_WRITE = 16.0  # the selective cost model's threshold


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def newest_source_mtime():
    newest = 0.0
    for top in (ROOT / "src", BENCH_DIR):
        for dirpath, _, files in os.walk(top):
            for name in files:
                if name.endswith((".cpp", ".hpp")) or name == "CMakeLists.txt":
                    newest = max(newest, os.path.getmtime(os.path.join(dirpath, name)))
    return newest


def build():
    """Configures and builds the runner; returns False on failure."""
    if not (ROOT / "src").is_dir():
        log("perfbench: no simulator sources under", ROOT / "src")
        return False
    if RUNNER.exists() and RUNNER.stat().st_mtime >= newest_source_mtime():
        return True
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD_DIR), "-j", jobs],
    ]
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as err:
            log("perfbench: cannot run", step[0], err)
            return False
        if done.returncode != 0:
            log("perfbench: build step failed:", " ".join(step))
            return False
    return RUNNER.exists()


def run_workload(workload, seed, seconds, trace):
    """Runs one workload process; returns (exit code, full result or None)."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}.seed{seed}.trace{trace}"
    cmd = [str(RUNNER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans", str(RESULTS_DIR / f"{stem}.spans.jsonl")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish in {RUNNER_TIMEOUT_S} s")
        return 1, None
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"perfbench: {workload} printed no result (exit {done.returncode})")
        return done.returncode or 1, None
    (RESULTS_DIR / f"{stem}.json").write_text(json.dumps(result, indent=1))
    if workload.startswith("pb-"):
        (RESULTS_DIR / f"{workload}.latest.json").write_text(json.dumps(result))
    return done.returncode, result


def print_result(result, trace):
    head = (f"== {result['workload']} seed {result['seed']} trace {trace}: "
            f"{result['attempted']} operations, {result['failed']} failed, "
            f"{result['passes']} timed passes")
    print(head)
    for note in result.get("failures", []):
        print("   failure:", note)
    group = result["layers"] if trace else result["e2e"]
    for name, metric in group.items():
        print(f"   {name:<36} {metric['value']:>16.6g} {metric['unit']}")
    if not trace and result["workload"].startswith("pb-"):
        e2e = result["e2e"]
        edp = e2e["sim_energy_mj"]["value"] * e2e["sim_time_ms"]["value"]
        print(f"   {'(derived) sim_edp geomean':<36} {edp:>16.6g} mJ*sim_ms")
    if not trace and result["workload"].startswith("serve-"):
        print(f"   latency samples: {result['latency_samples']} "
              f"(p99 has {result['latency_samples'] // 100} beyond it); "
              f"rate search (rate, p99 us): {result['search']}")


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def paper_comparison():
    """Fig. 6 gains from the latest pb-host and pb-cim results, if both exist."""
    try:
        host = json.loads((RESULTS_DIR / "pb-host.latest.json").read_text())
        cim = json.loads((RESULTS_DIR / "pb-cim.latest.json").read_text())
    except (OSError, json.JSONDecodeError):
        return
    by_name = {k["name"]: k for k in host["kernels"]}
    rows = []
    for k in cim["kernels"]:
        h = by_name.get(k["name"])
        if h is None or not k["correct"] or not h["correct"]:
            continue
        energy = h["energy_pj"] / k["energy_pj"]
        speed = h["runtime_ps"] / k["runtime_ps"]
        rows.append((k["name"], energy, speed * energy, k["macs_per_write"]))
    if not rows:
        return
    selective = [e for _, e, _, mpw in rows if mpw >= SELECTIVE_MACS_PER_WRITE]
    best = max(rows, key=lambda r: r[2])
    winners = [n for n, e, _, _ in rows if n in GEMV_LIKE and e > 1.0]
    print("== Fig. 6 against the paper (reported, not gated)")
    for name, energy, edp, mpw in rows:
        print(f"   {name:<8} energy gain {energy:9.2f}x  EDP gain {edp:10.2f}x  "
              f"MACs/write {mpw:8.1f}")
    print(f"   energy geomean, all kernels: {geomean([r[1] for r in rows]):.2f}x "
          f"(paper {PAPER_ENERGY_GEOMEAN}x)")
    if selective:
        print(f"   selective geomean (MACs/write >= {SELECTIVE_MACS_PER_WRITE:g}): "
              f"{geomean(selective):.2f}x (paper {PAPER_SELECTIVE_GEOMEAN}x)")
    print(f"   best EDP gain: {best[2]:.1f}x on {best[0]} "
          f"(paper: up to {PAPER_BEST_EDP:g}x)")
    print(f"   GEMV-like kernels that win on energy: {len(winners)} "
          f"{winners} (paper: 0)")
    print("   These paper figures are the model's only validation data.")


def result_line(result, trace):
    return json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": result["layers"] if trace else result["e2e"],
    })


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 1

    if args.workload != "all":
        code, result = run_workload(args.workload, args.seed, args.seconds,
                                  args.trace)
        if result is None:
            return code or 1
        print_result(result, args.trace)
        if args.workload.startswith("pb-") and not args.trace:
            paper_comparison()
        print(result_line(result, args.trace))
        return code

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result = run_workload(workload, args.seed, args.seconds, trace)
            worst = worst or code
            if result is None:
                summary["correct"] = False
                continue
            print_result(result, trace)
            summary["correct"] = summary["correct"] and bool(result["correct"])
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            group = result["layers"] if trace else result["e2e"]
            for name, metric in group.items():
                summary["metrics"][f"{workload}/{name}"] = metric
        if workload == "pb-cim":
            paper_comparison()
    print(json.dumps(summary))
    return worst


if __name__ == "__main__":
    sys.exit(main())
