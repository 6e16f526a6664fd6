"""Command-line surface.

Exit codes: 0 ok/valid/proved, 1 checked-and-negative, 2 usage, parse or
I/O error (an unreadable @file, a closed stdout), 3 resource cap (fuel,
enumeration size, assignment space, rank, a derivation too tall to search).
`--machine` switches to line-delimited key=value records with a stable
field order; diagnostics go to stderr. Any input argument may be given
inline or as @path to read a file.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import domains, gen, rewrite, syntax
from .domains import (
    CapExceeded, ModelConfig, RankOverflow, iso_i, model_signature,
    parse_element, parse_model_config, parse_set_of_sets, render_elem,
)
from .rewrite import NormalStatus, normalize
from .semantics import (
    canonicalize_cts, cts_rule_harness, eval_cts, eval_slm, sequent_valid,
    sequent_verdicts, soundness_harness, standard_model_family,
)
from .sequents import (
    ALL_RULES, Sequent, check_derivation_file, prove,
    render_derivation_file, render_sequent,
)
from .syntax import (
    Base, CttError, parse_cts, parse_sequent_members, parse_slm, parse_type,
    render, classify,
)

OK, NEGATIVE, USAGE, CAP = 0, 1, 2, 3


class Printer:
    def __init__(self, machine: bool):
        self.machine = machine

    def record(self, status: str, cmd: str, payload: str = "", **fields):
        if self.machine:
            def q(v):
                v = str(v)
                return repr(v) if " " in v else v
            parts = [f"status={status}", f"cmd={cmd}"]
            parts += [f"{k}={q(v)}" for k, v in fields.items()]
            if payload:  # last field; may contain spaces
                parts.append(f"payload={payload}")
            print(" ".join(parts))
        else:
            if payload:
                print(payload)
            for k, v in fields.items():
                print(f"{k}: {v}", file=sys.stderr)


def _input(text: str) -> str:
    """An input argument: the text itself, or the file it names as @path."""
    if not text.startswith("@"):
        return text
    try:
        with open(text[1:], "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as ex:
        raise CttError(f"cannot decode {text[1:]} as UTF-8: "
                       f"{ex.reason} at byte {ex.start}") from None


def _load_model(path: str) -> ModelConfig:
    if path is None:
        return ModelConfig(base_sizes={"e": 2, "t": 2})
    return parse_model_config(_input("@" + path))


def _assignments(model: ModelConfig, pairs: list[str]) -> dict:
    rho = {}
    for pair in pairs or []:
        name, sep, literal = pair.partition("=")
        if not sep:
            raise CttError(f"--assign needs name=element, got {pair!r}")
        rho[name.strip()] = parse_element(literal.strip(), model)
    return rho


def cmd_parse(args, out: Printer) -> int:
    ast = syntax.parse(_input(args.input), args.lang)
    extra = {}
    if args.lang == "slm":
        extra["type"] = syntax.render_type(ast.ty)
    elif args.lang == "cts":
        extra["type"] = syntax.render_type(ast.ty)
        extra["rank"] = ast.rank
    out.record("ok", "parse", render(ast, sort_children=args.sorted), **extra)
    return OK


def cmd_check(args, out: Printer) -> int:
    text = _input(args.input)
    if args.lang == "slm":
        term = parse_slm(text)
        out.record("ok", "check", render(term), type=syntax.render_type(term.ty))
    else:
        sub = parse_cts(text)
        out.record("ok", "check", render(sub), type=syntax.render_type(sub.ty),
                   rank=sub.rank, **{"class": classify(sub).value})
    return OK


def cmd_normalize(args, out: Printer) -> int:
    term = parse_slm(_input(args.input))
    result, trace, status = normalize(term, args.strategy, args.fuel)
    if out.machine:
        for i, s in enumerate(trace.steps):
            path = ".".join(map(str, s.path)) or "root"
            print(f"step={i} pos={path} rule={s.rule.value} "
                  f"before={render(s.before)} after={render(s.after)}")
    shown = render(result, annotate=out.machine)
    if status is NormalStatus.FUEL_EXHAUSTED:
        out.record("fail", "normalize", shown,
                   steps=len(trace.steps), reason="fuel-exhausted")
        return CAP
    out.record("ok", "normalize", shown, steps=len(trace.steps))
    return OK


def cmd_canon(args, out: Printer) -> int:
    model = _load_model(args.model) if args.model else ModelConfig()
    sub = parse_cts(_input(args.input), sig=model_signature(model))
    value = canonicalize_cts(sub, model)
    out.record("ok", "canon", render_elem(value), **{"class": "canonical"})
    return OK


def cmd_eval(args, out: Printer) -> int:
    model = _load_model(args.model)
    rho = _assignments(model, args.assign)
    text = _input(args.input)
    if args.lang == "slm":
        value = eval_slm(parse_slm(text), model, rho)
    else:
        value = eval_cts(parse_cts(text, sig=model_signature(model)), model, rho)
    out.record("ok", "eval", render_elem(value), rank=value.k)
    return OK


def cmd_entail(args, out: Printer) -> int:
    models = [_load_model(args.model)] if args.model else standard_model_family()
    ante, succ = parse_sequent_members(_input(args.input),
                                       sig=model_signature(models[0]))
    if out.machine:  # every verdict; nothing is printed if a model is over the cap
        verdicts = list(sequent_verdicts(ante, succ, models))
        for v in verdicts:
            rho = ",".join(f"{n}={render_elem(e)}" for n, e in sorted(v.assignment.items()))
            print(f"model={v.model_index} holds={int(v.holds)} assignment={rho or '-'}")
        checked = len(verdicts)
        ce = next((v for v in verdicts if not v.holds), None)
    else:
        report = sequent_valid(ante, succ, models)
        checked, ce = report.checked, report.failure
    if ce is None:
        out.record("ok", "entail", "valid", checked=checked)
        return OK
    rho = ", ".join(f"{n} = {render_elem(e)}" for n, e in sorted(ce.assignment.items()))
    out.record("fail", "entail", "invalid",
               model=ce.model_index, counterexample=rho or "-")
    return NEGATIVE


def cmd_check_proof(args, out: Printer) -> int:
    model = _load_model(args.model) if args.model else None
    path = args.file if args.file.startswith("@") else "@" + args.file
    conclusion, nodes, bad = check_derivation_file(_input(path), model)
    if bad is None:
        out.record("ok", "check-proof", render_sequent(conclusion), nodes=nodes)
        return OK
    out.record("fail", "check-proof", str(bad))
    return NEGATIVE


def cmd_prove(args, out: Printer) -> int:
    model = _load_model(args.model) if args.model else None
    sig = model_signature(model) if model else None
    ante, succ = parse_sequent_members(_input(args.input), sig=sig)
    try:
        d = prove(Sequent.make(ante, succ), depth=args.depth, model=model)
    except RecursionError:
        # prove recurses once per derivation level
        raise CapExceeded("derivation too tall: the search ran out of stack "
                          f"before --depth {args.depth}") from None
    if d is None:
        # bounded search: absence is not a refutation
        out.record("unknown", "prove", "no derivation found", depth=args.depth)
        return NEGATIVE
    out.record("ok", "prove", "", nodes=sum(1 for _ in d.nodes()))
    print(render_derivation_file(d), end="")
    return OK


def cmd_iso(args, out: Printer) -> int:
    name, sep, size = args.base.partition("=")
    if not sep or not size.isdecimal():
        raise CttError(f"--base needs name=size, got {args.base!r}")
    model = ModelConfig(base_sizes={name: int(size)}, rank_cap=4)
    ty = Base(name)
    sets = parse_set_of_sets(_input(args.element), model, ty)
    value = iso_i(sets, model, ty=ty)
    out.record("ok", "iso", render_elem(value), rank=value.k)
    return OK


def cmd_harness(args, out: Printer) -> int:
    seed = os.environ.get("CTT_SEED", args.seed)
    try:
        seed = int(seed)
    except ValueError:
        raise CttError(f"CTT_SEED must be an integer, got {seed!r}") from None
    if args.rule in gen.SLM_RULE_IDS:
        report = soundness_harness(args.rule, trials=args.trials, seed=seed)
    elif args.rule in ALL_RULES and args.rule != "ax":
        report = cts_rule_harness(args.rule, trials=args.trials, seed=seed)
    else:
        raise CttError(f"unknown rule {args.rule!r}; equality rules: "
                       f"{', '.join(gen.SLM_RULE_IDS)}; sequent rules: "
                       f"{', '.join(r for r in ALL_RULES if r != 'ax')}")
    for r in report.records:
        print(r.line())
    failures = len(report.failures)
    out.record("ok" if failures == 0 else "fail", "harness", "",
               rule=args.rule, trials=len(report.records),
               passes=report.passes, failures=failures)
    return OK if failures == 0 else NEGATIVE


GLOSS_1 = "Adam and Bob both love Carol, or they both love Diane."
GLOSS_2 = "Adam loves either Carol or Diane, and so does Bob."


def demo_scope_outputs() -> dict[int, tuple[str, str, str]]:
    """reading -> (input text, canonical rendering, gloss)."""
    sig = {"L": (parse_type("(e -> ~e)"), 0), "A": (Base("e"), 0),
           "B": (Base("e"), 0), "C": (Base("e"), 0), "D": (Base("e"), 0)}
    model = ModelConfig()
    out = {}
    for reading, k, gloss in ((1, 1, GLOSS_1), (2, 2, GLOSS_2)):
        text = f"((L or[1](C,D)) and[{k}](A,B))"
        sub = parse_cts(text, sig=dict(sig))
        rho = {n: domains.Individual(t, n) for n, (t, _) in sig.items()}
        value = eval_cts(sub, model, rho)
        out[reading] = (text, render_elem(value), gloss)
    return out


def cmd_demo(args, out: Printer) -> int:
    if args.what != "scope":
        raise CttError(f"unknown demo {args.what!r}")
    readings = (1, 2) if args.reading == "both" else (int(args.reading),)
    table = demo_scope_outputs()
    for r in readings:
        text, canon, gloss = table[r]
        out.record("ok", "demo-scope", canon, reading=r, input=text, gloss=f"{gloss!r}")
        if not out.machine:
            print(f"  reading {r}: {text}")
            print(f"  canonical: {canon}")
            print(f"  gloss: {gloss}")
    return OK


def count(text: str) -> int:
    """argparse type of a count option: a non-negative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: `parse_args` leaves it
    unchanged, so every `main` call reuses it."""
    p = argparse.ArgumentParser(
        prog="ctt",
        description="classical type theory toolkit: lambda-mu terms, ranked "
                    "Boolean domains, ranked sequents")
    p.add_argument("--machine", action="store_true",
                   help="line-delimited key=value output")
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("parse", help="parse and re-render")
    sp.add_argument("--lang", choices=("type", "slm", "cts"), default="slm")
    sp.add_argument("--sorted", action="store_true",
                    help="sort children of commutative nodes")
    sp.add_argument("input")
    sp.set_defaults(fn=cmd_parse)

    sp = sub.add_parser("check", help="typecheck a term / rank-check a subterm")
    sp.add_argument("--lang", choices=("slm", "cts"), default="slm")
    sp.add_argument("input")
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("normalize", help="reduce a lambda-mu term")
    sp.add_argument("--fuel", type=count, default=rewrite.DEFAULT_FUEL)
    sp.add_argument("--strategy", choices=("outermost", "innermost"),
                    default="outermost")
    sp.add_argument("input")
    sp.set_defaults(fn=cmd_normalize)

    sp = sub.add_parser("canon", help="canonicalize a ranked subterm")
    sp.add_argument("--model")
    sp.add_argument("input")
    sp.set_defaults(fn=cmd_canon)

    sp = sub.add_parser("eval", help="evaluate in a finite model")
    sp.add_argument("--model")
    sp.add_argument("--lang", choices=("slm", "cts"), default="slm")
    sp.add_argument("--assign", action="append",
                    help="name=element, repeatable")
    sp.add_argument("input")
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("entail", help="check sequent validity")
    sp.add_argument("--model")
    sp.add_argument("input", help="sequent: members |- members")
    sp.set_defaults(fn=cmd_entail)

    sp = sub.add_parser("check-proof", help="check a derivation file")
    sp.add_argument("--model")
    sp.add_argument("file")
    sp.set_defaults(fn=cmd_check_proof)

    sp = sub.add_parser("prove", help="bounded backward proof search")
    sp.add_argument("--depth", type=count, default=30)
    sp.add_argument("--model")
    sp.add_argument("input")
    sp.set_defaults(fn=cmd_prove)

    sp = sub.add_parser("iso", help="type-reduction isomorphism on a set of sets")
    sp.add_argument("--base", required=True, help="name=size")
    sp.add_argument("--element", required=True, help="{{a},{b,c}} style")
    sp.set_defaults(fn=cmd_iso)

    sp = sub.add_parser("harness", help="soundness harness for one rule")
    sp.add_argument("--rule", required=True)
    sp.add_argument("--trials", type=count, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_harness)

    sp = sub.add_parser("demo", help="built-in demonstrations")
    sp.add_argument("what", choices=("scope",))
    sp.add_argument("--reading", choices=("1", "2", "both"), default="both")
    sp.set_defaults(fn=cmd_demo)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        return USAGE if ex.code not in (0, None) else OK
    out = Printer(args.machine)
    try:
        code = args.fn(args, out)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except (CapExceeded, RankOverflow) as ex:
        print(f"ctt: resource cap: {ex}", file=sys.stderr)
        return CAP
    except CttError as ex:
        print(f"ctt: {ex}", file=sys.stderr)
        return USAGE
    except OSError as ex:
        if isinstance(ex, BrokenPipeError):
            # the reader is gone; let the exit-time flush write to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"ctt: {ex}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
