"""Run one ctt benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload iso-sweep --seed 1 --seconds 15 --trace 0

The run imports `ctt` from `src/` next to this directory, builds the
workload's inputs from the seed, issues ops back to back for `--seconds`
(a closed loop with one client, and at least the workload's
`measured_ops` ops), checks every answer against known answers and
prints, as the last line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones (see BENCHMARK.json).
With `--trace 1` the program's public functions are wrapped (tracer.py),
exactly the workload's `measured_ops` ops are run and the metrics are the
per-layer ones; the run then replays the same ops untraced in a fresh
process to measure the tracing overhead. Op times are scaled to a
reference host speed (hostspeed.py; the unscaled median latency goes to
stderr). The exit code is 0 when every answer was right, 1 when an oracle
failed and 2 when the run could not start.
"""

from time import perf_counter

import hostspeed

UNIT_AT_START = hostspeed.unit_s(5)
T0 = perf_counter()  # set-up is timed from here, before any other import

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
EXPECTED = os.path.join(HERE, "expected")
MODULES = ("syntax", "rewrite", "domains", "gen", "semantics", "sequents", "cli")
# setup_s is the median of this many set-ups: the run's own and, after its
# timed phase, fresh processes that stop at the first op.
SETUPS = 5
# Op times are scaled to the reference host speed (hostspeed.py) by the
# calibration unit's mean time before and after each window of about
# WINDOW_S seconds of measured ops; see set_up() for the set-up time.
WINDOW_S = 0.25

sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, Env  # noqa: E402


def import_ctt():
    sys.path.insert(0, SRC)
    ctt = types.SimpleNamespace(
        **{m: importlib.import_module(f"ctt.{m}") for m in MODULES})
    if not ctt.cli.__file__.startswith(SRC):
        raise ImportError(f"ctt was imported from {ctt.cli.__file__}, not {SRC}")
    return ctt


def timed_ops(wl, seconds: float, ops: int, tr=None):
    """Issue ops back to back: exactly `ops` ops, all measured, or else for
    `seconds` and at least the `wl.measured_ops` measured ones. Returns the
    latencies of all ops, the failure reasons, and for the measured prefix
    its latencies and wall time (ops and checks, calibration excluded)
    scaled to the reference host speed, and the peak RSS (MB) at its end."""
    latencies, scaled, reasons, window = [], [], [], []
    measured = ops or wl.measured_ops
    t_start = perf_counter()
    deadline = t_start + seconds
    unit = hostspeed.unit_s()
    wall = 0.0
    w_start = perf_counter()
    i = 0
    while i < ops if ops else (i < measured or perf_counter() < deadline):
        if tr is not None:
            tr.op_id = i
        t0 = perf_counter()
        try:
            answer = wl.op(i)
        except Exception as ex:  # an op that raises counts as failed
            latencies.append(perf_counter() - t0)
            reasons.append(f"op {i} raised {type(ex).__name__}: {ex}")
        else:
            latencies.append(perf_counter() - t0)
            reason = wl.check(i, answer)
            if reason:
                reasons.append(f"op {i}: {reason}")
        i += 1
        if i > measured:
            continue
        window.append(latencies[-1])
        if i == measured or perf_counter() - w_start >= WINDOW_S:
            w_wall = perf_counter() - w_start
            unit_after = hostspeed.unit_s()
            mean_unit = (unit + unit_after) / 2
            scaled += [hostspeed.scale(x, mean_unit) for x in window]
            wall += hostspeed.scale(w_wall, mean_unit)
            window, unit = [], unit_after
            w_start = perf_counter()
        if i == measured:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return latencies, reasons, scaled, wall, rss


def set_up(args, env):
    """Import ctt and build the workload. Returns the workload and the
    set-up seconds: the import phase (T0 to ctt imported), scaled to the
    reference host speed by the calibration unit before and after it, plus
    the workload's input generation as measured. Input generation is not
    scaled: iso-sweep's `enumerate_domain` is memory-bound and moves with
    the host's speed about a third as much as the unit does, so scaling
    would overcorrect it."""
    ctt = import_ctt()
    imported = perf_counter() - T0
    unit = hostspeed.unit_s(5)
    t0 = perf_counter()
    wl = WORKLOADS[args.workload](ctt, args.seed, env)
    generated = perf_counter() - t0
    return wl, hostspeed.scale(imported, (UNIT_AT_START + unit) / 2) + generated


def metric(value, unit):
    return {"value": value, "unit": unit}


def untraced(args, env):
    """End-to-end metrics. Rates and latencies cover the measured prefix, so
    every run of every commit is summarized over the same ops; op times are
    scaled to the reference host speed."""
    wl, setup = set_up(args, env)
    setups = [setup]
    lat, reasons, scaled, wall, rss = timed_ops(wl, args.seconds, args.ops)
    reasons += wl.finish()
    setups += [run_child(args, "--setup-only")["setup_s"] for _ in range(SETUPS - 1)]
    ms = [x * 1000 for x in scaled]
    unscaled = statistics.median(lat[:len(ms)]) * 1000
    print(f"perfbench: {args.workload}: unscaled op_ms_p50 {unscaled:.4f}, "
          f"scaled {statistics.median(ms):.4f}", file=sys.stderr)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "ops_per_s": metric(len(ms) / wall, "1/s"),
        "op_ms_p50": metric(statistics.median(ms), "ms"),
        "op_ms_p90": metric(statistics.quantiles(ms, n=10)[8], "ms"),
        "peak_rss_mb": metric(rss, "MB"),
    }
    return len(lat), reasons, metrics


def run_child(args, *extra) -> dict:
    """The last stdout line of run.py for this workload and seed, untraced,
    in a fresh process."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(extra)} run failed: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def traced(args, env):
    ctt = import_ctt()
    tr = tracing.Tracer(ctt)
    tr.install()
    try:
        env.call = tr.timed
        wl = WORKLOADS[args.workload](ctt, args.seed, env)
        calls0 = list(tr.calls)
        cache0 = tr.cache_state()
        lat, reasons, _, wall, _ = timed_ops(wl, 0, args.ops or wl.measured_ops, tr)
        cache1 = tr.cache_state()
    finally:
        tr.uninstall()
    reasons += wl.finish()
    tr.write_spans(os.path.join(WORK, f"spans-{args.workload}.bin"))

    op_self, setup_self, op_total, covered = tr.self_times()
    values = {}
    for layer, _, _, span in tracing.LAYERS + ((tracing.RENDER_LAYER, None, None, True),):
        li = tr.index[layer]
        calls = tr.calls[li] - calls0[li]
        if span:
            values[f"{layer}.calls"] = calls
            values[f"{layer}.self_ms"] = op_self[li] * 1000
        else:
            values[f"{layer}.count"] = calls

    def ratio(a, b):
        return a / b if b else 0.0

    def hit_ratio(prefix):
        hits = cache1[f"{prefix}_hits"] - cache0[f"{prefix}_hits"]
        misses = cache1[f"{prefix}_misses"] - cache0[f"{prefix}_misses"]
        return ratio(hits, hits + misses)

    enum = tr.index["domains.enumerate_domain"]
    normalize = tr.index["rewrite.normalize"]
    values.update({
        "domains.render_elem.hit_ratio": hit_ratio("render"),
        "domains.render_elem.entries": cache1["render_entries"],
        "domains.canonical_key.hit_ratio": hit_ratio("key"),
        "domains.canonical_key.entries": cache1["key_entries"],
        "domains.iso_atom_cache.entries": cache1["iso_atom"],
        "domains.minterm_cache.entries": cache1["minterm"],
        "rewrite.normalize.steps": tr.normalize_steps,
        "rewrite.normalize.us_per_step": ratio(op_total[normalize] * 1e6, tr.normalize_steps),
        "sequents.prove.found_ratio": ratio(tr.proves_found, tr.proves),
        "domains.enumerate_domain.setup_calls": calls0[enum],
        "domains.enumerate_domain.setup_ms": setup_self[enum] * 1000,
        "semantics.harness.pass_ratio": wl.pass_ratio() if hasattr(wl, "pass_ratio") else 0.0,
    })
    op_ms = sum(lat) * 1000
    values.update({
        "trace.ops": len(lat),
        "trace.spans": len(tr.start),
        "trace.op_ms": op_ms,
        "trace.unattributed_ms": op_ms - covered * 1000,
        "trace.unattributed_share": ratio(op_ms - covered * 1000, op_ms),
        "trace.overhead_ratio": wall / replay_wall(args, len(lat)),
    })
    units = tracing.metric_units()
    metrics = {name: metric(values[name], units[name]) for name in tracing.metric_names()}
    return len(lat), reasons, metrics


def replay_wall(args, ops: int) -> float:
    """Wall time of the same ops, untraced, in a fresh process (both scaled
    to the reference host speed)."""
    result = run_child(args, "--ops", str(ops))
    return result["attempted"] / result["metrics"]["ops_per_s"]["value"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--ops", type=int, default=0,
                   help="run exactly this many ops instead of --seconds")
    p.add_argument("--setup-only", action="store_true",
                   help="stop at the first op and print the set-up seconds")
    args = p.parse_args(argv)
    if args.ops < 0 or args.seconds < 0:
        p.error("--ops and --seconds must be >= 0")
    if not os.path.isdir(os.path.join(SRC, "ctt")):
        print(f"perfbench: no ctt sources at {SRC}", file=sys.stderr)
        return 2
    env = Env(EXPECTED, WORK)
    if args.setup_only:
        print(json.dumps({"setup_s": set_up(args, env)[1]}))
        return 0
    attempted, reasons, metrics = (traced if args.trace else untraced)(args, env)
    for reason in reasons[:20]:
        print(f"perfbench: {args.workload}: {reason}", file=sys.stderr)
    print(json.dumps({"correct": not reasons, "attempted": attempted,
                      "failed": len(reasons), "metrics": metrics}))
    return 0 if not reasons else 1


if __name__ == "__main__":
    sys.exit(main())
