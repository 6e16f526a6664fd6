"""Record the known answers the benchmark checks against.

    python3 perfbench/record_expected.py [iso] [harness] [cli]

Run once, at the commit whose outputs are the contract (the files in
`expected/` were recorded at the seed commit). Later commits must
reproduce them: `render_elem` text and harness verdicts are output
contracts. Writes:

- `iso_render_digests.bin`: for each of the 2^16 elements of ~~~~e (e of
  size 1), in `enumerate_domain` order, the 4-byte BLAKE2b digest of the
  rendered `iso_iterate` output.
- `harness_status.json`: for every rule and every trial seed s in
  0..BLOCKS-1, the status letters (p/s/f) of its one-trial harness.
- `cli_goldens.json`: argv and stdout of `canon` on the README subterm and
  of `demo scope`.

The program's caches are cleared between chunks only to bound memory.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import run
import oracles

BLOCKS = 256
CANON_INPUT = ("((and[1](p:(s -> ~t)@0, q:(s -> ~t)@0) neg[1](a:s@0)) "
               "or[2](r:t@0, w:t@0))")


def clear_caches(ctt):
    d = ctt.domains
    d.render_elem.cache_clear()
    d.canonical_key.cache_clear()
    d._ISO_ATOM_CACHE.clear()
    d._MINTERM_CACHE.clear()


def record_iso(ctt):
    d, syn = ctt.domains, ctt.syntax
    model = d.ModelConfig(base_sizes={"e": 1}, rank_cap=2)
    ty = syn.neg_type(syn.neg_type(syn.neg_type(syn.neg_type(syn.Base("e")))))
    out = bytearray()
    for i, f in enumerate(d.enumerate_domain(model, ty, 0)):
        out += oracles.digest(d.render_elem(d.iso_iterate(ty, f, model)), 4)
        if i % 4096 == 4095:
            clear_caches(ctt)
    return bytes(out)


def record_harness(ctt):
    sem, sq = ctt.semantics, ctt.sequents
    table = {}
    for rule in sq.INTRO_RULES + sq.SUBST_RULES:
        table[rule] = ["".join(r.status[0] for r in
                               sem.cts_rule_harness(rule, trials=1, seed=s).records)
                       for s in range(BLOCKS)]
        clear_caches(ctt)
        print(f"recorded {rule}", file=sys.stderr)
    for rule in ctt.gen.SLM_RULE_IDS:
        table[rule] = ["".join(r.status[0] for r in
                               sem.soundness_harness(rule, trials=1, seed=s).records)
                       for s in range(BLOCKS)]
        clear_caches(ctt)
    return table


def record_cli(ctt):
    goldens = {}
    for name, argv in (("canon", ["canon", CANON_INPUT]), ("demo", ["demo", "scope"])):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = ctt.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"{argv} exited {code}")
        goldens[name] = {"argv": argv, "stdout": out.getvalue()}
    return goldens


def main(argv):
    which = set(argv) or {"iso", "harness", "cli"}
    ctt = run.import_ctt()
    os.makedirs(run.EXPECTED, exist_ok=True)
    if "iso" in which:
        with open(os.path.join(run.EXPECTED, "iso_render_digests.bin"), "wb") as fh:
            fh.write(record_iso(ctt))
    if "harness" in which:
        with open(os.path.join(run.EXPECTED, "harness_status.json"), "w") as fh:
            json.dump(record_harness(ctt), fh, indent=0, sort_keys=True)
    if "cli" in which:
        with open(os.path.join(run.EXPECTED, "cli_goldens.json"), "w") as fh:
            json.dump(record_cli(ctt), fh, indent=2, sort_keys=True)


if __name__ == "__main__":
    main(sys.argv[1:])
