#!/usr/bin/env python3
"""Fail when a workload runs slower at 4 worker lanes than at 1.

Runs one short untraced fcbench run per workload and reads only
fcbench's stdout: the workload list from `--describe`, and from each run
the per-unit `ops_per_s.w1` / `ops_per_s.w4` series lines

    ops_per_s.w1: median M, quartiles [Q1, Q3], N values: ...

A workload fails when its w4 median is below its w1 median by more than
the w1 quartile spread (Q3 - Q1), which is the run's own noise floor.
The table of results goes to stdout and, when GITHUB_STEP_SUMMARY is
set, to the job summary.

    python3 tools/check_worker_scaling.py build-bench/fcbench --seconds 5
"""

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile

SERIES = re.compile(
    r"^\s*(ops_per_s\.w[14]): median (\S+), quartiles \[(\S+), (\S+)\]")


def run_workload(fcbench, workload, seed, seconds, out_dir):
    """Return {"ops_per_s.w1": (median, q1, q3), "ops_per_s.w4": ...}."""
    proc = subprocess.run(
        [fcbench, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0", "--out", out_dir],
        stdout=subprocess.PIPE, text=True, check=False)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        raise RuntimeError(f"fcbench {workload} exited {proc.returncode}")
    series = {}
    for line in proc.stdout.splitlines():
        m = SERIES.match(line)
        if m:
            series[m.group(1)] = tuple(float(x) for x in m.groups()[1:])
    if len(series) != 2:
        raise RuntimeError(f"fcbench {workload}: no ops_per_s series")
    return series


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("fcbench", help="path to the built fcbench binary")
    ap.add_argument("--seconds", type=float, default=5.0,
                    help="measured seconds per workload (default 5)")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    describe = subprocess.run([args.fcbench, "--describe"], check=True,
                              stdout=subprocess.PIPE, text=True).stdout
    workloads = [w["name"] for w in json.loads(describe)["workloads"]]

    rows = ["| workload | w1 median [q1, q3] | w4 median [q1, q3] "
            "| w4/w1 | floor | verdict |",
            "|---|---|---|---|---|---|"]
    failed = []
    with tempfile.TemporaryDirectory() as out_dir:
        for w in workloads:
            s = run_workload(args.fcbench, w, args.seed, args.seconds,
                             out_dir)
            m1, a1, b1 = s["ops_per_s.w1"]
            m4, a4, b4 = s["ops_per_s.w4"]
            floor = m1 - (b1 - a1)
            ok = m4 >= floor
            if not ok:
                failed.append(w)
            rows.append(
                f"| `{w}` | {m1:.4g} [{a1:.4g}, {b1:.4g}] "
                f"| {m4:.4g} [{a4:.4g}, {b4:.4g}] | {m4 / m1:.2f} "
                f"| {floor:.4g} | {'ok' if ok else 'SLOWER'} |")

    table = "\n".join(
        ["### worker-count gate: ops_per_s at 4 workers vs 1", ""] + rows)
    print(table)
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a", encoding="utf-8") as f:
            f.write(table + "\n")
    if failed:
        print("slower at 4 workers than at 1: " + ", ".join(failed),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
