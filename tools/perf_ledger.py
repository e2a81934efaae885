#!/usr/bin/env python3
"""Write the perf ledger BENCH_pr.json from fcbench runs and fail when a
workload runs slower at 4 worker lanes than at 1.

For every workload in `fcbench --describe`, runs fcbench twice and reads
only its stdout:

- an untraced run (`--trace 0`): the header line
  `fcbench W seed=N trace=0 nproc=P build=B`, the series lines

      setup_s: median M, quartiles [Q1, Q3], N values: ...
      ops_per_s.w1: ...
      ops_per_s.w4: ...

  and the last line, a JSON result with `peak_rss_mib`, `attempted`
  and `failed`;
- a traced run (`--trace 1`): its last line, a JSON result holding
  every per-layer metric.

A workload's `failed` and `attempted` sum both runs' result checks.

Gate: a workload fails when its w4 median is below its w1 median by
more than the w1 quartile spread (Q3 - Q1), which is the run's own noise
floor. The gate table goes to stdout and, when GITHUB_STEP_SUMMARY is
set, to the job summary. BENCH_pr.json (schema fcos-perf-trajectory-v2)
is written in the current directory. Exits 1 when the gate fails or an
fcbench run exits non-zero.

    python3 tools/perf_ledger.py build-bench/fcbench --seconds 5
"""

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile

HEADER = re.compile(
    r"^fcbench \S+ seed=\d+ trace=[01] nproc=(\d+) build=(\S+)$")
SERIES = re.compile(
    r"^\s*(setup_s|ops_per_s\.w[14]): median (\S+), "
    r"quartiles \[(\S+), (\S+)\]")


def run_fcbench(fcbench, workload, seed, seconds, trace, out_dir):
    """Run one fcbench pass; return (exit code, stdout lines)."""
    proc = subprocess.run(
        [fcbench, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace),
         "--out", out_dir],
        stdout=subprocess.PIPE, text=True, check=False)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        print(f"fcbench {workload} --trace {trace} exited "
              f"{proc.returncode}", file=sys.stderr)
    return proc.returncode, proc.stdout.splitlines()


def result_json(lines):
    """The JSON result fcbench prints as its last line, or {}."""
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return {}


def quartiles(m):
    median, q1, q3 = (float(x) for x in m.groups()[1:])
    return {"median": median, "q1": q1, "q3": q3}


def measure(fcbench, workload, seed, seconds, out_dir, host):
    """Both runs of one workload; return (ledger entry, runs all ok).
    A run that prints no ops_per_s series counts as failed."""
    ok = True
    series = {}
    tally = {"failed": 0, "attempted": 0}
    metrics = [{}, {}]
    for trace in (0, 1):
        code, lines = run_fcbench(fcbench, workload, seed, seconds, trace,
                                  out_dir)
        ok = ok and code == 0
        for line in lines:
            m = HEADER.match(line)
            if m:
                host.setdefault("nproc", int(m.group(1)))
                host.setdefault("build", m.group(2))
            m = SERIES.match(line)
            if m and trace == 0:
                series[m.group(1)] = quartiles(m)
        result = result_json(lines)
        for k in tally:
            tally[k] += result.get(k, 0)
        metrics[trace] = {k: v["value"]
                          for k, v in result.get("metrics", {}).items()}
    entry = {"name": workload}
    if "ops_per_s.w1" in series and "ops_per_s.w4" in series:
        w1, w4 = series["ops_per_s.w1"], series["ops_per_s.w4"]
        ratio = round(w4["median"] / w1["median"], 4)
        entry["ops_per_s"] = {"w1": w1, "w4": w4, "w4_over_w1": ratio}
    else:
        print(f"fcbench {workload}: no ops_per_s series", file=sys.stderr)
        ok = False
    entry["setup_s"] = series.get("setup_s")
    entry["peak_rss_mib"] = metrics[0].get("peak_rss_mib")
    entry.update(tally)
    entry["per_layer"] = metrics[1]
    return entry, ok


def gate_row(entry):
    """(table row, passed) for the w4-vs-w1 rule on one ledger entry."""
    name = entry["name"]
    ops = entry.get("ops_per_s")
    if ops is None:
        return f"| `{name}` | - | - | - | - | run failed |", True
    m1, a1, b1 = ops["w1"]["median"], ops["w1"]["q1"], ops["w1"]["q3"]
    m4, a4, b4 = ops["w4"]["median"], ops["w4"]["q1"], ops["w4"]["q3"]
    floor = m1 - (b1 - a1)
    ok = m4 >= floor
    return (f"| `{name}` | {m1:.4g} [{a1:.4g}, {b1:.4g}] "
            f"| {m4:.4g} [{a4:.4g}, {b4:.4g}] | {m4 / m1:.2f} "
            f"| {floor:.4g} | {'ok' if ok else 'SLOWER'} |"), ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("fcbench", help="path to the built fcbench binary")
    ap.add_argument("--seconds", type=float, default=5.0,
                    help="measured seconds per workload (default 5)")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    describe = subprocess.run([args.fcbench, "--describe"],
                              stdout=subprocess.PIPE, text=True,
                              check=False)
    if describe.returncode != 0:
        print(f"fcbench --describe exited {describe.returncode}",
              file=sys.stderr)
        return 1
    workloads = [w["name"] for w in json.loads(describe.stdout)["workloads"]]

    host = {}
    entries = []
    runs_ok = True
    with tempfile.TemporaryDirectory() as out_dir:
        for w in workloads:
            entry, ok = measure(args.fcbench, w, args.seed, args.seconds,
                                out_dir, host)
            entries.append(entry)
            runs_ok = runs_ok and ok

    ledger = {"schema": "fcos-perf-trajectory-v2",
              "nproc": host.get("nproc"), "build": host.get("build"),
              "seed": args.seed, "seconds": args.seconds,
              "workloads": entries}
    with open("BENCH_pr.json", "w", encoding="utf-8") as f:
        json.dump(ledger, f, indent=2)
        f.write("\n")

    rows = ["| workload | w1 median [q1, q3] | w4 median [q1, q3] "
            "| w4/w1 | floor | verdict |",
            "|---|---|---|---|---|---|"]
    slower = []
    for entry in entries:
        row, ok = gate_row(entry)
        rows.append(row)
        if not ok:
            slower.append(entry["name"])
    table = "\n".join(
        ["### worker-count gate: ops_per_s at 4 workers vs 1", ""] + rows)
    print(table)
    print(f"\nwrote BENCH_pr.json (nproc={host.get('nproc')}, "
          f"build={host.get('build')})")
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a", encoding="utf-8") as f:
            f.write(table + "\n")
    if slower:
        print("slower at 4 workers than at 1: " + ", ".join(slower),
              file=sys.stderr)
    return 0 if runs_ok and not slower else 1


if __name__ == "__main__":
    sys.exit(main())
