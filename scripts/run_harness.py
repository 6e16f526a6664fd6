#!/usr/bin/env python3
"""Sweep the soundness harness over every rule and print a summary table.

Equality rules are checked as semantic equations under random rank-0
assignments (the mu rule adds its exhaustive truth-context cases); sequent
rules as validity preservation between premises and conclusion. The `ms`
column sums the rule's per-trial durations, so slow rules show. Then one
line per table of `ctt.domains` and `ctt.semantics` gives its hits,
misses and size (entries out of the bound, or "kept on elements" for
`render_elem` and `canonical_key`, whose results live on the elements), so
the share of repeated operations shows.
Exits 0 when every trial passes, 1 on a failure, 2 on a usage error (a
negative `--trials`) or when stdout closes early (`| head`). Usage:

    python scripts/run_harness.py [--trials N] [--seed S]
"""

import argparse
import os
import sys
import time

from ctt import domains, semantics
from ctt.cli import count
from ctt.gen import SLM_RULE_IDS
from ctt.semantics import cts_rule_harness, soundness_harness
from ctt.sequents import INTRO_RULES, SUBST_RULES


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--trials", type=count, default=100)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    failures = 0
    t0 = time.time()
    print(f"{'rule':14s} {'pass':>5s} {'fail':>5s} {'skip':>5s} {'ms':>9s}")
    runs = [(soundness_harness, rule, args.trials) for rule in SLM_RULE_IDS]
    runs += [(cts_rule_harness, rule, max(10, args.trials // 5))
             for rule in INTRO_RULES + SUBST_RULES]
    for harness, rule, trials in runs:
        rep = harness(rule, trials=trials, seed=args.seed)
        skip = len(rep.records) - rep.passes - len(rep.failures)
        failures += len(rep.failures)
        ms = sum(r.ms for r in rep.records)
        print(f"{rep.rule:14s} {rep.passes:5d} {len(rep.failures):5d} {skip:5d} "
              f"{ms:9.1f}")
    print(f"total failures: {failures}  ({time.time() - t0:.1f}s)")
    for name, info in domains.table_stats() + semantics.table_stats():
        size = ("kept on elements" if info.maxsize is None
                else f"{info.currsize}/{info.maxsize}")
        print(f"table {name:14s} hits {info.hits:8d} misses {info.misses:7d} size {size}")
    return 1 if failures else 0


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; let the exit-time flush write to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 2
    sys.exit(code)
