"""The host's current speed, from a fixed calibration unit.

The benchmark runs on a few cores of a shared host whose speed moves by up
to a factor of two within seconds, as other tenants load the cores and
caches it shares. So op times are scaled to a reference speed: the speed
at which one calibration unit takes `REF_S` seconds. A time t measured
while the unit takes c seconds is reported as t * REF_S / c.

The unit compiles a fixed, generated Python module with the built-in
`compile()`: parsing, building trees and allocating many small objects,
like ctt's own pure-Python work. It uses nothing of ctt, so a change to
ctt cannot move it, and a change that makes ctt slower shows in full. On
the machine this was written on (2 vCPUs of a shared host, Python 3.11),
a 1.2 s compute-bound task timed against units sampled every 50 ms during
it had a log-log slope of 0.90 (correlation 0.98) on the unit, while
iso-sweep's memory-bound `enumerate_domain` had 0.34; so set-up input
generation is not scaled (see run.py). Import this module before anything
heavy: it imports only `gc` and `time`.
"""

import gc
from time import perf_counter

REF_S = 0.005


def _source() -> str:
    parts = []
    for k in range(40):
        parts.append(
            f"def f{k}(a, b=({k}, 'x{k}')):\n"
            "    out = []\n"
            "    for i in range(a):\n"
            f"        if i % {k + 2} == 0 and b:\n"
            "            out.append((i, b[0] * i, str(i) + b[1]))\n"
            f"        elif i > {k}:\n"
            "            out.extend([i, -i, {'k': i}])\n"
            "        else:\n"
            "            return {'k': i, 'v': [x for x in out if x]}\n"
            "    return out\n\n")
    return "".join(parts)


SOURCE = _source()


def unit_s(reps: int = 3) -> float:
    """The median of `reps` timings of the calibration unit, with the
    garbage collector off so that the program's heap does not enter it."""
    times = []
    gc.disable()
    try:
        for _ in range(reps):
            t0 = perf_counter()
            compile(SOURCE, "<calibration>", "exec")
            times.append(perf_counter() - t0)
    finally:
        gc.enable()
    return sorted(times)[len(times) // 2]


def scale(seconds: float, unit: float) -> float:
    """`seconds` measured while the unit took `unit` seconds, at the
    reference speed."""
    return seconds * REF_S / unit
