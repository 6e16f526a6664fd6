#!/usr/bin/env python3
"""Desk-scale census of the ranked domains: rank-0 carrier sizes, rank-1
free-algebra cardinalities, and the worked set-of-sets reduction.

    python scripts/domain_census.py [--size K]

K is the size of the base type e, 1 to 4; any other size exits 2.
"""

import argparse
import sys

from ctt.domains import (
    CapExceeded, ModelConfig, canonical_key, enumerate_domain, iso_i,
    parse_set_of_sets, render_elem,
)
from ctt.syntax import Arrow, BOT, Base, CttError, render_type


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--size", type=int, default=3)
    args = ap.parse_args()
    e = Base("e")
    try:
        model = ModelConfig(base_sizes={"e": args.size})
    except CttError as ex:  # a size outside 1..4
        print(f"domain_census: {ex}", file=sys.stderr)
        return 2

    for ty in (BOT, e, Arrow(e, BOT)):
        atoms = enumerate_domain(model, ty, 0)
        line = f"{render_type(ty):12s} rank 0: {len(atoms):4d}"
        try:
            shadows = enumerate_domain(model, ty, 1)
            distinct = len({canonical_key(x) for x in shadows})
            line += f"   rank 1: {len(shadows)} ({distinct} distinct)"
        except CapExceeded as ex:
            line += f"   rank 1: {ex}"
        print(line)

    if args.size == 3:
        sets = parse_set_of_sets("{{a},{b,c}}", model, e)
        print("\nreduction of {{a},{b,c}} one rank up:")
        print(" ", render_elem(iso_i(sets, model, ty=e)))


if __name__ == "__main__":
    sys.exit(main())
