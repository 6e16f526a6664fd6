"""The three benchmark workloads.

A workload is built from the imported `ctt` modules, the workload seed and
an `Env`. `op(i)` runs op i (the part that is timed) and returns its
answer; `check(i, answer)` applies the per-op oracles and returns a reason
when the answer is wrong; `finish()` applies the once-per-run oracles and
returns a reason for each failure. Program functions are looked up on
their modules at call time, so the tracer's wrappers see every call.

`measured_ops` is the workload's stated input size: every run completes
at least that many ops, and the end-to-end metrics summarize exactly those
first ops, so that runs of every commit and seed are compared on the same
work however fast the machine ran. An untraced run then goes on issuing
and checking ops until `--seconds` have passed; a traced run stops there.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

import oracles

ISO_INPUTS = 2 ** 16


def plain_call(layer, fn, *args):
    return fn(*args)


class Env:
    """Where a workload reads recorded answers and writes scratch files, and
    how it calls functions it times itself (`call(layer, fn, *args)`)."""

    def __init__(self, expected_dir, work_dir, call=plain_call):
        self.expected_dir, self.work_dir, self.call = expected_dir, work_dir, call


class IsoSweep:
    """One op: `iso_iterate` of one element of ~~~~e (e of size 1, rank cap
    2), drawn without repeats in seeded order, then `render_elem` of the
    output; every 16th op also takes its `canonical_key`."""

    measured_ops = 16000

    def __init__(self, ctt, seed, env):
        self.ctt, self.call = ctt, env.call
        d, syn = ctt.domains, ctt.syntax
        self.model = d.ModelConfig(base_sizes={"e": 1}, rank_cap=2)
        neg = syn.neg_type
        self.ty = neg(neg(neg(neg(syn.Base("e")))))
        self.inputs = d.enumerate_domain(self.model, self.ty, 0)
        if len(self.inputs) != ISO_INPUTS:
            raise RuntimeError(f"{len(self.inputs)} inputs, expected {ISO_INPUTS}")
        self.order = list(range(ISO_INPUTS))
        random.Random(seed).shuffle(self.order)
        with open(os.path.join(env.expected_dir, "iso_render_digests.bin"), "rb") as fh:
            self.digests = fh.read()
        self.width = len(self.digests) // ISO_INPUTS
        self.renderings: dict = {}
        self.keys: dict = {}

    def op(self, i):
        d = self.ctt.domains
        out = d.iso_iterate(self.ty, self.inputs[self.order[i % ISO_INPUTS]], self.model)
        text = self.call("domains.render_elem", d.render_elem, out)
        key = d.canonical_key(out) if i % 16 == 0 else None
        return text, key

    def check(self, i, answer):
        text, key = answer
        idx = self.order[i % ISO_INPUTS]
        want = self.digests[idx * self.width:(idx + 1) * self.width]
        reason = (oracles.iso_rank(text) or oracles.iso_digest(text, want)
                  or oracles.first_seen(self.renderings, oracles.digest(text, 16),
                                        idx, "rendering"))
        if reason is None and key is not None:
            reason = oracles.first_seen(self.keys, key, idx, "canonical key")
        return reason

    def finish(self):
        return []


class RuleHarness:
    """One op: one soundness trial, `cts_rule_harness(rule, trials=1,
    seed=s)` for a sequent rule or `soundness_harness(rule, trials=1,
    seed=s)` for an equality rule. Pass k holds every rule once at s = k;
    the workload seed orders each pass."""

    measured_ops = 1344  # thirty-two passes

    def __init__(self, ctt, seed, env):
        self.ctt = ctt
        sq = ctt.sequents
        self.rules = ([("cts", r) for r in sq.INTRO_RULES + sq.SUBST_RULES]
                      + [("slm", r) for r in ctt.gen.SLM_RULE_IDS])
        with open(os.path.join(env.expected_dir, "harness_status.json")) as fh:
            self.expected = json.load(fh)
        self.recorded_seeds = min(len(v) for v in self.expected.values())
        self.rng = random.Random(seed)
        self.plan: list[tuple[str, str, int]] = []
        self.passed = self.records = 0
        self._extend()

    def _extend(self):
        """Append the next pass (outside the timed op)."""
        k = len(self.plan) // len(self.rules)
        batch = [(kind, rule, k % self.recorded_seeds) for kind, rule in self.rules]
        self.rng.shuffle(batch)
        self.plan += batch

    def op(self, i):
        while i >= len(self.plan):  # only after an op raised; check() extends
            self._extend()
        kind, rule, s = self.plan[i]
        sem = self.ctt.semantics
        harness = sem.cts_rule_harness if kind == "cts" else sem.soundness_harness
        report = harness(rule, trials=1, seed=s)
        return "".join(r.status[0] for r in report.records)

    def check(self, i, status):
        _, rule, s = self.plan[i]
        self.passed += status.count("p")
        self.records += len(status)
        if i + 1 == len(self.plan):
            self._extend()
        return oracles.trial_status(status, self.expected[rule][s])

    def finish(self):
        control = self.ctt.semantics.soundness_harness("mu", mutate=True)
        reason = oracles.mutation_control(len(control.failures))
        return [reason] if reason else []

    def pass_ratio(self):
        return self.passed / self.records if self.records else 0.0


README_SEQUENTS = (
    ("A |- A", 0, "valid"),
    ("|- or[1](A, neg[1](A))", 0, "valid"),
    ("|- x:bot@0", 1, "invalid"),
    ("and[1](A,B) |- and[1](B,A)", 0, "valid"),
)
README_ISO = ("3", "{{a},{b,c}}",
              "or[1](and[1](a,neg[1](b),neg[1](c)),and[1](b,c,neg[1](a)))")
NORMALIZE_SIZES = {"outermost": (40, 80, 120), "machine": (30, 60),
                   "innermost": (15, 30, 45)}
PROVE_SIZES = (4, 6, 8, 10)


def identity_chain(n: int, binder: str) -> str:
    term = "y"
    for _ in range(n):
        term = f"((\\{binder}:e. {binder}) {term})"
    return "e: " + term


def conj_chain(names: list[str], annotate: bool = False) -> str:
    parts = [f"{n}:bot@0" if annotate else n for n in names]
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = f"and[1]({p},{out})"
    return out


class CliSession:
    """One op: one in-process `ctt.cli.main(argv)` call with stdout and
    stderr captured. A pass holds normalize (outermost, --machine and
    innermost) on identity chains, prove then check-proof on commuted
    and[1] chains, entail on the README sequents, canon and demo scope,
    and iso on the README element and on four seeded set families; the seed
    orders each pass and picks names and families."""

    measured_ops = 1620  # sixty passes

    def __init__(self, ctt, seed, env):
        self.ctt = ctt
        with open(os.path.join(env.expected_dir, "cli_goldens.json")) as fh:
            self.goldens = json.load(fh)
        self.work_dir = env.work_dir
        os.makedirs(self.work_dir, exist_ok=True)
        self.rng = random.Random(seed)
        self.binder = self.rng.choice("xuvwz")
        self.prefix = self.rng.choice("PQRSTUVW")
        self.proved: set[str] = set()  # conclusions of successful proves
        self.plan = self._units()

    # each unit is a list of (argv, expectation) ops that stay in order
    def _units(self):
        rng = self.rng
        units = []
        for mode, sizes in NORMALIZE_SIZES.items():
            for n in sizes:
                argv = ["normalize", "--fuel", "1000", identity_chain(n, self.binder)]
                if mode == "machine":
                    argv.insert(0, "--machine")
                elif mode == "innermost":
                    argv[1:1] = ["--strategy", "innermost"]
                units.append([(argv, ("machine", n) if mode == "machine" else (0, "y\n"))])
        for n in PROVE_SIZES:
            names = [f"{self.prefix}{i}" for i in range(n)]
            goal = f"{conj_chain(names)} |- {conj_chain(names[::-1])}"
            concl = f"{conj_chain(names, True)} |- {conj_chain(names[::-1], True)}"
            path = os.path.join(self.work_dir, f"chain{n}.proof")
            units.append([(["prove", "--depth", "60", goal], ("prove", path, concl)),
                          (["check-proof", path], (0, concl + "\n"))])
        for text, code, verdict in README_SEQUENTS:
            units.append([(["entail", text], (code, verdict + "\n"))])
        for name in ("canon", "demo"):
            g = self.goldens[name]
            units.append([(g["argv"], (0, g["stdout"]))])
        size, element, golden = README_ISO
        units.append([(["iso", "--base", f"e={size}", "--element", element], (0, golden + "\n"))])
        for size in (3, 3, 4, 4):
            carrier = "abcd"[:size]
            subsets = [frozenset(a for j, a in enumerate(carrier) if mask >> j & 1)
                       for mask in range(1, 2 ** size)]
            family = rng.sample(subsets, rng.randint(2, 4))
            element = "{" + ",".join("{" + ",".join(sorted(s)) + "}" for s in family) + "}"
            want = oracles.full_dnf(list(carrier), family)
            units.append([(["iso", "--base", f"e={size}", "--element", element],
                           (0, want + "\n"))])
        rng.shuffle(units)
        return [op for unit in units for op in unit]

    def op(self, i):
        while i >= len(self.plan):  # only after an op raised; check() extends
            self.plan += self._units()
        argv, _ = self.plan[i]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.ctt.cli.main(argv)
        return code, out.getvalue()

    def check(self, i, answer):
        if i + 1 == len(self.plan):
            self.plan += self._units()  # the next pass, outside the timed op
        code, out = answer
        want = self.plan[i][1]
        if want[0] == "machine":
            return oracles.machine_normalize(code, out, want[1], "y:e")
        if want[0] == "prove":
            _, path, concl = want
            reason = oracles.derivation_root(code, out, concl)
            if reason is None:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(out)
                self.proved.add(concl)
            return reason
        return oracles.exit_and_stdout(code, out, *want)

    def finish(self):
        """Every proved conclusion must also be valid; its members are bot@0
        atoms, so one model decides it."""
        sem, syn = self.ctt.semantics, self.ctt.syntax
        reasons = []
        for concl in sorted(self.proved):
            ante, succ = syn.parse_sequent_members(concl)
            if not sem.sequent_valid(ante, succ, [self.ctt.domains.ModelConfig()]).valid:
                reasons.append(f"proved sequent {concl!r} is not valid")
        return reasons


WORKLOADS = {"iso-sweep": IsoSweep, "rule-harness": RuleHarness,
             "cli-session": CliSession}
