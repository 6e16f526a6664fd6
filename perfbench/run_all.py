"""Run every benchmark workload and print every metric by name and unit.

    python3 perfbench/run_all.py [--seeds 1 2 3] [--seconds 15] [--out FILE]

Each workload runs untraced once per seed and traced once (first seed),
each run in a fresh process. For the untraced metrics the report gives the
median over seeds and the spread, (q3 - q1) / median with the quartiles of
`statistics.quantiles(values, n=4)`; `fail_share` is failed ops over
attempted ops, summed over runs. The exit code is 1 when any oracle failed
in any run, else 0. `--out` also writes the report as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name, m in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        out[name] = {"median": statistics.median(values), "spread": spread(values),
                     "unit": m["unit"], "values": values}
    return out


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, nargs="+", default=[1])
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--out", help="also write the report to this JSON file")
    args = p.parse_args(argv)

    report = {"seeds": args.seeds, "seconds": args.seconds,
              "machine": {"cpus": os.cpu_count(), "platform": platform.platform(),
                          "python": platform.python_version()},
              "workloads": {}}
    all_correct = True
    for w in [entry["name"] for entry in bench["workloads"]]:
        runs = [run_one(w, seed, args.seconds, 0) for seed in args.seeds]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        entry = {"attempted": attempted, "failed": failed,
                 "fail_share": failed / attempted,
                 "end_to_end": summarize(runs)}
        all_correct &= all(r["correct"] for r in runs)
        print(f"{w}: {len(runs)} untraced runs, {attempted} ops, "
              f"fail_share {failed / attempted:.4f}")
        for name, m in entry["end_to_end"].items():
            print(f"  {w} {name} {m['median']:.6g} {m['unit']}  spread {m['spread']:.4f}")
        t = run_one(w, args.seeds[0], args.seconds, 1)
        all_correct &= t["correct"]
        entry["per_layer"] = t["metrics"]
        print(f"{w}: traced run, seed {args.seeds[0]}")
        for name, m in t["metrics"].items():
            print(f"  {w} {name} {m['value']:.6g} {m['unit']}")
        report["workloads"][w] = entry
    report["correct"] = all_correct
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
