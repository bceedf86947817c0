#!/usr/bin/env python3
"""Repository benchmark: builds the simulator from source, runs one workload
and prints its metrics.

    python3 perfbench/run.py --workload {paper-sram|dram-ch4|open-loop} \
        --seed N --seconds S --trace {0|1}

Run from the repository root. The simulator library and the perfbench
program are built with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench). The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}; with --trace 0 the
metrics are the end_to_end metrics of BENCHMARK.json, with --trace 1 its
per_layer metrics. The exit status is non-zero when any check fails.
See perfbench/README.md for the workloads and metric definitions.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper-sram", "dram-ch4", "open-loop")
CROSS_CHECK_SEED = 42  # the seed BENCH_kernel.json records
BUILD_BUDGET_S = 900
RUN_BUDGET_S = 180


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    """Configures and builds the perfbench program; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cache = out / "CMakeCache.txt"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" \
            not in cache.read_text():
        shutil.rmtree(out)  # configured for another source tree
    cmds = []
    if not cache.exists():
        cmds.append(["cmake", "-S", str(HERE), "-B", str(out)])
    cmds.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in cmds:
        # Build output goes to stderr: stdout ends with the result line.
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_BUDGET_S - 60)
    return out / "perfbench"


def cross_check(result):
    """paper-sram at the recorded seed must reproduce BENCH_kernel.json's
    per-job cycles. Returns a list of mismatch descriptions."""
    path = ROOT / "BENCH_kernel.json"
    if not path.exists():
        print("cross-check: BENCH_kernel.json not present, skipped")
        return []
    ref = json.loads(path.read_text())
    errors = []
    total = sum(job["cycles"] for job in result["jobs"])
    if total != ref["sim_cycles_total"]:
        errors.append(f"sim_cycles {total} != BENCH_kernel.json "
                      f"sim_cycles_total {ref['sim_cycles_total']}")
    expected = {(s["scenario"], s["kernel"]): s["run"]["cycles"]
                for s in ref["scenarios"]}
    for job in result["jobs"]:
        key = (job["scenario"], job["kernel"])
        if expected.get(key) != job["cycles"]:
            errors.append(f"{key[0]}/{key[1]}: {job['cycles']} cycles, "
                          f"BENCH_kernel.json has {expected.get(key)}")
    print(f"cross-check vs BENCH_kernel.json: {len(result['jobs'])} jobs, "
        f"{total} cycles, {'match' if not errors else 'MISMATCH'}")
    return errors


def report(result, spec, trace):
    """Prints the human-readable report (every metric with its unit, the
    accuracy block and the failures) to stdout."""
    print(f"workload {result['workload']}, seed {result['seed']}: "
          f"{result['passes']} untraced + {result['traced_passes']} traced "
          f"passes")
    section = "per_layer" if trace else "end_to_end"
    for m in spec[section]:
        value = result[section][m["name"]]
        print(f"  {m['name']:<38} {value:>16.6g} {m['unit']}")
    detail = result["detail"]
    print(f"  p99 from {detail['p99_samples']} latency samples, "
          f"{detail['p99_tail_samples']} beyond the p99")
    print(f"  speed probe {detail['probe_ms_median']:.2f} ms (median; "
          f"{detail['probe_ms_min']:.2f}-{detail['probe_ms_max']:.2f}); host "
          f"times are CPU times scaled to a {result['probe_ref_ms']:.0f} ms "
          f"probe; unscaled mean pass CPU time "
          f"{detail['mean_pass_cpu_s']:.4g} s")
    curves = {}
    for job in result["jobs"]:
        if job["rate"]:
            curves.setdefault(job["scenario"], []).append(
                f"{job['rate']}: {job['p99']:.0f}/{job['achieved_over_offered']:.2f}")
    for scenario, points in curves.items():
        print(f"  {scenario} rate: p99/achieved-over-offered  "
              + "  ".join(points))
    if result["claims"]:
        print("accuracy vs the paper (the model is otherwise unvalidated "
              "against RTL):")
        for c in result["claims"]:
            err = abs(c["measured"] / c["paper"] - 1.0)
            print(f"  {c['claim']:<38} paper {c['paper']:>6.3g}  "
                  f"measured {c['measured']:>7.4g}  err {err:6.1%}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"error_rate {failed / attempted:.6g} ({failed} of {attempted} "
          f"operations failed)")
    for e in result["errors"]:
        print(f"  FAILED: {e}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be non-negative")

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src").is_dir() or not spec_path.is_file():
        log(f"perfbench: {ROOT} holds no simulator sources (src/) or no "
            f"BENCHMARK.json; run from a full checkout")
        return 2
    spec = json.loads(spec_path.read_text())

    start = time.monotonic()
    out = build_dir()
    built_fresh = not (out / "perfbench").exists()
    binary = build(out)
    budget = (BUILD_BUDGET_S if built_fresh else RUN_BUDGET_S) - 10
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds)]
    if args.trace:
        trace_path = out / f"trace-{args.workload}-{args.seed}.json"
        cmd += ["--trace-file", str(trace_path)]
    proc = subprocess.run(cmd, check=True, capture_output=True, text=True,
                          timeout=budget - (time.monotonic() - start))
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    errors = list(result["errors"])
    failed = result["failed"]
    if args.workload == "paper-sram" and args.seed == CROSS_CHECK_SEED:
        mismatches = cross_check(result)
        errors += mismatches
        failed += len(mismatches)
    if result["detail"]["p99_tail_samples"] < 10:
        errors.append("fewer than 10 latency samples beyond the p99")
        failed += 1
    result["errors"], result["failed"] = errors, failed

    report(result, spec, args.trace)
    if args.trace:
        print(f"trace: {trace_path}")
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": result[section][m["name"]],
                           "unit": m["unit"]} for m in spec[section]}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
