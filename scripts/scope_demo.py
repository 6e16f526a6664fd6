#!/usr/bin/env python3
"""Scope-ambiguity walkthrough: one sentence shape, two rank assignments,
two canonical forms, and the sequent derivations connecting them. Exits
0 when both derivations are found and re-checked, 1 (with the failure on
stderr) otherwise.

    python scripts/scope_demo.py
"""

import sys

from ctt.cli import SCOPE_SIG, demo_scope_outputs
from ctt.sequents import Sequent, check_derivation, prove, render_derivation_file
from ctt.syntax import parse_cts


def main():
    print("'Adam and Bob love Carol or Diane' has one grammatical shape;")
    print("the two readings differ only in the rank of the conjunction.\n")
    for reading, (text, canon, gloss) in demo_scope_outputs().items():
        print(f"reading {reading}")
        print(f"  input:     {text}")
        print(f"  canonical: {canon}")
        print(f"  gloss:     {gloss}")
        lhs = parse_cts(text, sig=dict(SCOPE_SIG))
        rhs = parse_cts(canon, sig=dict(SCOPE_SIG))
        derivation = prove(Sequent.make([lhs], [rhs]), depth=30)
        failure = ("no derivation found" if derivation is None
                   else check_derivation(derivation))
        if failure is not None:
            print(f"reading {reading}: {failure}", file=sys.stderr)
            return 1
        steps = sum(1 for _ in derivation.nodes()) - 1
        print(f"  derivation: {steps} substitution steps, re-checked")
        print("  " + render_derivation_file(derivation).replace("\n", "\n  "))
    return 0


if __name__ == "__main__":
    sys.exit(main())
