"""Interpretation of lambda-mu terms and ranked subterms in finite models.

Lambdas denote extensional rank-0 tables over the enumerated carrier of
their domain; a body value above rank 0 raises RankOverflow rather than
inventing a representation. Mu builds the table of the matching lambda
over the rank-0 ~s carrier and pushes it through the type-reduction
isomorphism, landing one rank up.

A sequent is read as free-Boolean-algebra consequence: the meet of the
antecedent lies below the join of the succedent at the maximal rank
present. Empty sides are top and bottom at that rank.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from enum import Enum
from operator import itemgetter
from typing import Iterable, Iterator, Optional

from . import gen as _gen
from .rewrite import structural_subst
from .domains import (
    CanonElem, CapExceeded, FALSE, Individual, MAX_RANK0_ENUM, ModelConfig,
    RankOverflow, TRUE, TruthVal, _BoundedTable, _carrier, apply_elem, ba_equal,
    ba_leq, bottom_at, enumerate_domain, fn_table, iso_i, make_join,
    make_meet, make_neg, rank1_count, render_elem, resolve_constant, top_at,
)
from .syntax import (
    App, Arrow, BOT, Base, CApp, CBigConj, CBigDisj, CConj, CDisj, CNeg,
    CVar, CtsSubterm, CttError, Lam, Mu, SlmTerm, TypeExpr, TypeMismatch,
    Var, children, cts_signature, free_table, render, signature_table,
)

Assignment = dict[str, CanonElem]


class UnassignedVariable(CttError):
    pass


class NonGroundValue(CttError):
    """Mu needed concrete truth values but met a symbolic atom."""


def _lookup(name: str, ty: TypeExpr, model: ModelConfig, rho: Assignment,
            rank_bound: Optional[int] = None) -> CanonElem:
    if name in rho:
        value = rho[name]
    else:
        value = resolve_constant(model, name, ty)
        if value is None:
            raise UnassignedVariable(f"no value for {name} : {ty}")
    if value.ty != ty:
        raise TypeMismatch(f"{name} : {ty} assigned a value of type {value.ty}")
    if rank_bound is not None and value.k > rank_bound:
        raise TypeMismatch(
            f"{name}@{rank_bound} assigned a rank-{value.k} value")
    return value


# ---------------------------------------------------------------------------
# the evaluation table
#
# A memo function (Michie, "Memo functions and machine learning", 1968) in
# front of both evaluators, beside the domains' computed tables: harness
# trials and validity sweeps evaluate the same subterms under the same
# values call after call, so each distinct evaluation is done once while
# it stays in the table. A denotation depends only on the model, the node
# and the values of the node's free names, so that is the key; models are
# hash-consed values, so the model object stands for its contents. The
# table is bounded, so memory does not grow with how long the process has
# run: it keeps the EVAL_TABLE_SIZE most recently used evaluations, over
# all models, and a model is freed with its last entry. An evaluation that
# raises stores nothing.
EVAL_TABLE_SIZE = 2048
_EVALS = _BoundedTable(EVAL_TABLE_SIZE)


def table_stats() -> list:
    """(name, hits/misses/maxsize/currsize) of the evaluation table, shaped
    like `domains.table_stats()`."""
    return [("eval", _EVALS.cache_info())]


def eval_slm(term: SlmTerm, model: ModelConfig, rho: Assignment) -> CanonElem:
    """Denotation of a typechecked lambda-mu term under rho, through the
    evaluation table keyed on the model, the term and the values of its
    free names; the nodes below are evaluated without it.

    Every binder evaluates its body once per atom of its rank-0 carrier, so
    nested binders multiply; the largest product along a binder path is
    checked against MAX_RANK0_ENUM before anything is evaluated. A table
    hit skips that check, which an earlier call with the same key passed."""
    names = free_table(term)
    if names is not None:
        key = (model, term, tuple(map(rho.get, names)))
        value = _EVALS.recall(key)
        if value is not None:
            return value
    if _binder_sweep(term, model) > MAX_RANK0_ENUM:
        raise CapExceeded(
            f"evaluating the binders would sweep more than {MAX_RANK0_ENUM} "
            "carrier atoms along one path")
    value = _eval_slm(term, model, rho)
    if names is not None:
        _EVALS.store(key, value)
    return value


def _carrier_size(ty: TypeExpr, model: ModelConfig) -> int:
    """Size of the rank-0 carrier of `ty` without enumerating it, saturated
    at MAX_RANK0_ENUM + 1."""
    match ty:
        case Arrow(dom, cod):
            return _table_count(_carrier_size(dom, model), _carrier_size(cod, model))
        case Base(name):
            return model.base_sizes.get(name, 1)  # undeclared: evaluation says so
    return 2


def _table_count(a: int, b: int) -> int:
    """How many tables map a carrier of `a` atoms into one of `b`,
    saturated at MAX_RANK0_ENUM + 1."""
    if b == 1 or a <= MAX_RANK0_ENUM.bit_length():
        return min(b ** a, MAX_RANK0_ENUM + 1)
    return MAX_RANK0_ENUM + 1


def _enumerated_size(ty: TypeExpr, model: ModelConfig) -> Optional[int]:
    """How many atoms `enumerate_domain` builds for `ty` at rank 0,
    counted without building them, or None where it raises instead: at a
    base the model does not declare, or at a carrier on the way that
    exceeds MAX_RANK0_ENUM."""
    if isinstance(ty, Arrow):  # not `match`: sized once per pool of every sweep
        a, b = _enumerated_size(ty.dom, model), _enumerated_size(ty.cod, model)
        if a is None or b is None:
            return None
        count = _table_count(a, b)
        return count if count <= MAX_RANK0_ENUM else None
    if isinstance(ty, Base):
        return model.base_sizes.get(ty.name)
    return 2 if ty is BOT else None


def _binder_sweep(term: SlmTerm, model: ModelConfig) -> int:
    """Largest product of binder carrier sizes along any path of `term`,
    saturated at MAX_RANK0_ENUM + 1. Iterative, so a nest as deep as the
    parser admits stays inside the recursion limit."""
    worst, stack = 1, [(term, 1)]
    while stack:
        t, sweep = stack.pop()
        if isinstance(t, (Lam, Mu)):
            sweep = min(sweep * _carrier_size(t.binder_ty, model),
                        MAX_RANK0_ENUM + 1)
        worst = max(worst, sweep)
        stack.extend((c, sweep) for c in children(t))
    return worst


def _eval_slm(term: SlmTerm, model: ModelConfig, rho: Assignment) -> CanonElem:
    match term:
        case Var(name, ty):
            return _lookup(name, ty, model, rho)
        case App(fun, arg):
            return apply_elem(_eval_slm(fun, model, rho), _eval_slm(arg, model, rho))
        case Lam(binder, binder_ty, body):
            table = {}
            for a in enumerate_domain(model, binder_ty, 0):
                v = _eval_slm(body, model, {**rho, binder: a})
                if v.k != 0:
                    raise RankOverflow(
                        f"lambda body over {binder}:{binder_ty} yields the rank-"
                        f"{v.k} shadow {render_elem(v)}; tables are rank 0")
                table[a] = v
            return fn_table(binder_ty, term.ty.cod, table)
        case Mu(binder, binder_ty, body):
            if model.rank_cap < 1:
                raise RankOverflow("mu needs rank cap >= 1")
            table = {}
            for a in enumerate_domain(model, binder_ty, 0):
                v = _eval_slm(body, model, {**rho, binder: a})
                if v.k != 0:
                    raise RankOverflow(
                        f"mu body yields the rank-{v.k} shadow "
                        f"{render_elem(v)}; this exceeds the table form")
                if not isinstance(v, TruthVal):
                    raise NonGroundValue(
                        f"mu body value {render_elem(v)} is symbolic, not 0/1")
                table[a] = v
            return iso_i(fn_table(binder_ty, BOT, table), model)
    raise CttError(f"cannot evaluate {term!r}")


def eval_cts(sub: CtsSubterm, model: ModelConfig, rho: Assignment) -> CanonElem:
    """Denotation of a rank-checked subterm: operators land on the same-rank
    lattice constructors; big operators expand over the rank-0 carrier.
    Every node goes through the evaluation table, so a subterm that occurs
    twice, or that an earlier call met under the same values of its free
    names in the same model, is evaluated once."""
    return _denote(sub, model, rho)


def _denote(sub: CtsSubterm, model: ModelConfig, rho: Assignment) -> CanonElem:
    """`eval_cts` through the evaluation table, keyed on (model, node,
    values of the names in its `cts_signature` table): a node that misses
    recurses only into children that also miss. A name used at two
    signatures below a node leaves the node without a key."""
    try:
        names = sub._free
    except AttributeError:  # not asked before
        names = signature_table(sub)
    if names is not None:
        key = (model, sub, tuple(map(rho.get, names)))
        value = _EVALS.recall(key)
        if value is not None:
            return value
    match sub:
        case CVar(name, ty, rank):
            value = _lookup(name, ty, model, rho, rank_bound=rank)
        case CApp(fun, arg):
            value = apply_elem(_denote(fun, model, rho),
                               _denote(arg, model, rho))
        case CNeg(k, child):
            value = make_neg(k, _denote(child, model, rho))
        case CConj(k, left, right) | CDisj(k, left, right):
            l = _denote(left, model, rho)
            r = _denote(right, model, rho)
            make = make_meet if isinstance(sub, CConj) else make_join
            value = make(k, l.ty, [l, r])
        case CBigConj(k, _, ty, m) | CBigDisj(k, _, ty, m):
            if m != 0:
                raise CttError(
                    f"big operators evaluate only over rank-0 carriers, got @{m}")
            make = make_meet if isinstance(sub, CBigConj) else make_join
            value = make(k, ty, enumerate_domain(model, ty, 0))
        case _:
            raise CttError(f"cannot evaluate {sub!r}")
    if names is not None:
        _EVALS.store(key, value)
    return value


def symbolic_assignment(subs: Iterable[CtsSubterm], model: ModelConfig) -> Assignment:
    """Map every free rank-0 variable to a symbolic named atom (used for
    canonicalization, where no concrete carrier is wanted). Variables
    already naming a model constant keep that value; rank >= 1 variables
    have no symbolic representation and are rejected."""
    rho: Assignment = {}
    for sub in subs:
        for name, (ty, rank) in cts_signature(sub).items():
            if resolve_constant(model, name, ty) is not None:
                continue
            if rank != 0:
                raise CttError(
                    f"cannot canonicalize symbolically with {name}@{rank}; "
                    "only rank-0 free variables stay symbolic")
            rho[name] = Individual(ty, name)
    return rho


def canonicalize_cts(sub: CtsSubterm, model: ModelConfig,
                     rho: Optional[Assignment] = None) -> CanonElem:
    """Canonical form of a subterm: evaluate with symbolic atoms for its
    free variables."""
    if rho is None:
        rho = symbolic_assignment([sub], model)
    return eval_cts(sub, model, rho)


# ---------------------------------------------------------------------------
# truth contexts

class ContextClass(Enum):
    """The four truth functions a one-hole context of type bot can denote."""

    T1 = "T1"  # identity
    T2 = "T2"  # negation
    T3 = "T3"  # constant falsity
    T4 = "T4"  # constant truth


# ---------------------------------------------------------------------------
# equations and sequents

def check_equation(lhs: SlmTerm, rhs: SlmTerm, model: ModelConfig,
                   rho: Assignment) -> bool:
    """lhs = rhs holds in the model under rho (ba_equal of denotations)."""
    if lhs.ty != rhs.ty:
        raise TypeMismatch(f"equating terms of types {lhs.ty} and {rhs.ty}")
    return ba_equal(eval_slm(lhs, model, rho), eval_slm(rhs, model, rho))


MAX_ASSIGNMENTS = 4096


@dataclass
class SequentVerdict:
    model_index: int
    assignment: Assignment
    holds: bool


@dataclass
class SequentReport:
    """What `sequent_valid` found: how many assignments it decided and the
    first verdict that refutes the sequent, if any."""

    checked: int
    failure: Optional[SequentVerdict] = None

    @property
    def valid(self) -> bool:
        return self.failure is None


def _pool_size(model: ModelConfig, ty: TypeExpr, rank: int) -> int:
    """How many values a variable ranges over; a rank-1 pool is saturated
    at MAX_RANK0_ENUM + 1 (`rank1_count`). The rank-0 carrier is counted,
    not built; where enumerating it raises, it is enumerated, so the error
    is the one enumeration gives."""
    base = _enumerated_size(ty, model)
    if base is None:
        base = len(enumerate_domain(model, ty, 0))
    return base if rank <= 0 else rank1_count(base)


def _candidate_values(model: ModelConfig, ty: TypeExpr, rank: int) -> list[CanonElem]:
    if rank <= 0:
        return enumerate_domain(model, ty, 0)
    return enumerate_domain(model, ty, 1)  # rank-1 list covers rank 0 up to ba_equal


def _assignment_space(members: list[CtsSubterm], model: ModelConfig,
                      cap: int) -> tuple[list[str], list[list[CanonElem]]]:
    """The members' free non-constant variables, sorted by name, and the
    values each ranges over: its type's carrier up to rank min(bound, 1).
    The space is sized, and CapExceeded raised, before any pool is
    enumerated."""
    sig: dict[str, tuple[TypeExpr, int]] = {}
    for m in members:
        for name, (ty, rank) in cts_signature(m).items():
            if name in sig and sig[name] != (ty, rank):
                raise TypeMismatch(f"{name} used at two signatures across the sequent")
            sig[name] = (ty, rank)
    chosen = []
    total = 1
    for name, (ty, rank) in sorted(sig.items()):
        if resolve_constant(model, name, ty) is not None:
            continue
        pool = _pool_size(model, ty, rank)  # sized before any enumeration
        total *= pool
        if total > cap:
            if pool > MAX_RANK0_ENUM:  # saturated: the exact size is not computed
                raise CapExceeded(f"assignment space exceeds the cap {cap}: {name} "
                                  f"alone ranges over more than {MAX_RANK0_ENUM} values")
            raise CapExceeded(f"assignment space {total} exceeds the cap {cap}")
        chosen.append((name, ty, rank))
    return ([n for n, _, _ in chosen],
            [_candidate_values(model, ty, rank) for _, ty, rank in chosen])


def _decide(values: tuple, n_ante: int) -> bool:
    """ba_leq of the meet of the first `n_ante` member values against the
    join of the rest, at the maximal rank present (>= 1)."""
    lvals, rvals = values[:n_ante], values[n_ante:]
    k = max([1] + [v.k for v in values])
    lhs = make_meet(k, BOT, lvals) if lvals else top_at(k, BOT)
    rhs = make_join(k, BOT, rvals) if rvals else bottom_at(k, BOT)
    return ba_leq(lhs, rhs)


def sequent_semantics(ante: list[CtsSubterm], succ: list[CtsSubterm],
                      model: ModelConfig, rho: Assignment) -> bool:
    """Whether one assignment satisfies the sequent: ba_leq of the
    antecedent meet against the succedent join at the maximal rank present
    (>= 1). The members are evaluated through the evaluation table, as
    `eval_cts` does."""
    return _decide(tuple([_denote(m, model, rho) for m in [*ante, *succ]]),
                   len(ante))


# the key of a member without variables: () from any value tuple
_NO_VARIABLES = itemgetter(slice(0))


def _sweep(ante: list[CtsSubterm], succ: list[CtsSubterm],
           models: Iterable[ModelConfig], cap: int) -> Iterator[tuple]:
    """(model index, names, values, holds) for every value tuple of every
    model's assignment space, lazily, model by model and each model's
    tuples in `itertools.product` order; a model's space is sized
    (CapExceeded) when the stream reaches it. `holds` is what
    `sequent_semantics` answers for the assignment `dict(zip(names,
    values))`, but a member is evaluated once per value of its own
    variables (as MACE-style model finders evaluate a clause only over
    the tuples of its own variables: Claessen & Sorensson, 2003).

    Each member reads its projection, the values of the names it uses, off
    the tuple and looks it up in a dict of the model's sweep. Only a
    projection met for the first time builds the assignment dict and goes
    to the evaluation table. Members are still looked up ante then succ,
    left to right, and a projection is in the dict only once it evaluated
    without raising, so an evaluation error is raised at the same
    assignment and member as a sweep that evaluates every assignment.
    Each distinct tuple of member values is decided once per call: the
    decision reads the values alone, not the model."""
    members = [*ante, *succ]
    n_ante = len(ante)
    verdicts: dict = {}
    for idx, model in enumerate(models):
        names, pools = _assignment_space(members, model, cap)
        position = {name: i for i, name in enumerate(names)}
        memos: dict = {}  # member -> projection -> value; a member may recur
        lookups = []
        for m in members:
            own = [position[n] for n in cts_signature(m) if n in position]
            lookups.append((m, itemgetter(*own) if own else _NO_VARIABLES,
                            memos.setdefault(m, {})))
        for values in itertools.product(*pools):
            rho = None
            member_values = []
            for m, project, memo in lookups:
                key = project(values)
                value = memo.get(key)
                if value is None:
                    if rho is None:
                        rho = dict(zip(names, values))
                    value = memo[key] = _denote(m, model, rho)
                member_values.append(value)
            member_values = tuple(member_values)
            holds = verdicts.get(member_values)
            if holds is None:
                holds = verdicts[member_values] = _decide(member_values, n_ante)
            yield idx, names, values, holds


def sequent_verdicts(ante: list[CtsSubterm], succ: list[CtsSubterm],
                     models: Iterable[ModelConfig],
                     cap: int = MAX_ASSIGNMENTS) -> Iterator[SequentVerdict]:
    """One verdict per model and assignment, lazily, model by model and
    each model's assignments in `itertools.product` order over the pools
    of `_assignment_space`, its names sorted. A model's
    assignment space is sized (CapExceeded) when the stream reaches it.
    Each verdict builds its assignment dict; see `_sweep` for how the
    members are evaluated and the verdicts decided."""
    for idx, names, values, holds in _sweep(ante, succ, models, cap):
        yield SequentVerdict(idx, dict(zip(names, values)), holds)


def sequent_valid(ante: list[CtsSubterm], succ: list[CtsSubterm],
                  models: Iterable[ModelConfig],
                  cap: int = MAX_ASSIGNMENTS) -> SequentReport:
    """Validity over a family of models: the `sequent_verdicts` sweep read
    up to its first failing verdict, building no assignment dict but that
    counterexample's. A valid sequent decides every assignment. An invalid
    one stops at the counterexample, then sizes the assignment space of
    every later model, so that an over-cap model raises CapExceeded as the
    full sweep does."""
    models = list(models)
    checked = 0
    for idx, names, values, holds in _sweep(ante, succ, models, cap):
        checked += 1
        if not holds:
            for model in models[idx + 1:]:
                _assignment_space([*ante, *succ], model, cap)
            return SequentReport(checked,
                                 SequentVerdict(idx, dict(zip(names, values)), False))
    return SequentReport(checked)


def standard_model_family() -> list[ModelConfig]:
    return [
        ModelConfig(base_sizes={"e": 1, "t": 2}),
        ModelConfig(base_sizes={"e": 2, "t": 2}),
        ModelConfig(base_sizes={"e": 3, "t": 2}),
    ]


# ---------------------------------------------------------------------------
# the soundness harness

@dataclass
class TrialRecord:
    rule: str
    seed: int
    trial: int
    status: str  # pass | fail | skip
    detail: str = ""
    ms: float = 0.0  # wall time of the trial

    def line(self) -> str:
        out = (f"rule={self.rule} seed={self.seed} trial={self.trial} "
               f"status={self.status} ms={self.ms:.2f}")
        if self.detail:
            out += f" detail={self.detail!r}"
        return out


@dataclass
class HarnessReport:
    rule: str
    records: list[TrialRecord] = field(default_factory=list)

    @property
    def failures(self) -> list[TrialRecord]:
        return [r for r in self.records if r.status == "fail"]

    @property
    def passes(self) -> int:
        return sum(1 for r in self.records if r.status == "pass")


def harness_model() -> ModelConfig:
    return ModelConfig(base_sizes={"e": 2, "t": 2})


def soundness_harness(rule: str, model: Optional[ModelConfig] = None,
                      trials: int = 100, seed: int = 0,
                      mutate: bool = False) -> HarnessReport:
    """Random well-typed instances of one equality rule, checked against
    the finite semantics with rank-0 assignments for the free variables.

    `mutate` corrupts the mu rule (forgetting its truth context) as a
    sanity control: the harness must then report failures. For the mu rule
    the exhaustive four-truth-context sweep is appended after the random
    trials.
    """
    model = model or harness_model()
    report = HarnessReport(rule)
    rule_salt = sum(map(ord, rule))
    for trial in range(trials):
        start = time.perf_counter()
        rng = _gen.make_rng(seed * 1000003 + rule_salt * 9176 + trial)
        try:
            lhs, rhs, ctx = _gen.slm_rule_instance(rule, rng)
            if mutate and rule == "mu":
                rhs = _mutate_mu_rhs(lhs, rhs)
            rho = _gen.random_ground_assignment(rng, model, ctx)
            ok = check_equation(lhs, rhs, model, rho)
        except (RankOverflow, CapExceeded) as ex:
            status, detail = "skip", str(ex)
        else:
            status, detail = ("pass", "") if ok else (
                "fail", f"{render(lhs)} /= {render(rhs)}")
        report.records.append(
            TrialRecord(rule, seed, trial, status, detail, _ms_since(start)))
    if rule == "mu" and not mutate:
        start = time.perf_counter()
        for i, (cls, lhs, rhs, m, rho) in enumerate(mu_exhaustive_cases(), trials):
            ok = check_equation(lhs, rhs, m, rho)
            report.records.append(TrialRecord(
                rule, seed, i, "pass" if ok else "fail",
                f"context={cls.value}", _ms_since(start)))
            start = time.perf_counter()
    return report


def _ms_since(start: float) -> float:
    return (time.perf_counter() - start) * 1000.0


def _mutate_mu_rhs(lhs: SlmTerm, rhs: SlmTerm) -> SlmTerm:
    """Deliberately wrong mu contraction: forget the truth context around
    the bound application, as if the rule ignored it."""

    def find_bound_app(t: SlmTerm, binder: str) -> Optional[App]:
        match t:
            case App(Var(name, _), _) if name == binder:
                return t
            case _:
                for c in children(t):
                    hit = find_bound_app(c, binder)
                    if hit is not None:
                        return hit
        return None

    if not isinstance(rhs, Mu):
        return rhs
    inner = find_bound_app(rhs.body, rhs.binder)
    if inner is None:
        return rhs
    return Mu(rhs.binder, rhs.binder_ty, inner)


def cts_harness_model(size: int = 2) -> ModelConfig:
    """Model for sequent-rule trials: base e plus constants naming every
    e -> bot table, so functor-side big-operator substitution has a
    name-addressable carrier."""
    # the carrier read from the base sizes, as enumerate_domain reads a
    # model's: a model built only to be read would die and be built anew
    # on every call
    tables = _carrier((("e", size),), Arrow(Base("e"), BOT), 0)
    return ModelConfig(base_sizes={"e": size},
                       constants={f"k{i}": tab for i, tab in enumerate(tables)})


def cts_rule_harness(rule: str, trials: int = 100, seed: int = 0) -> HarnessReport:
    """Random accepted instances of one sequent rule, checked for validity
    preservation: premise validity implies conclusion validity, and
    conversely for the bidirectional substitution rules.

    Big-operator substitution instances expand over their generating
    model's carrier and are checked on that model alone; everything else
    runs over a small family of sizes."""
    from . import sequents as sq

    gen_model = cts_harness_model()
    big_subst = rule.startswith(("all-", "ex-")) and rule[-1] in "rl"
    models = [gen_model] if big_subst else [cts_harness_model(1), gen_model]
    report = HarnessReport(rule)
    rule_salt = sum(map(ord, rule))
    double_line = rule in sq.SUBST_RULES

    def valid(seq):
        return all(sequent_valid(seq.side("L"), seq.side("R"), [m]).valid
                   for m in models)

    for trial in range(trials):
        start = time.perf_counter()
        rng = _gen.make_rng(seed * 2000003 + rule_salt * 5077 + trial)
        try:
            conclusion, premises, pos, direction = _gen.cts_rule_instance(
                rule, rng, gen_model)
            violation = sq.check_rule_instance(
                conclusion, premises, rule, pos, direction, gen_model)
            if violation is not None:
                status, detail = "fail", f"generator rejected: {violation}"
            else:
                prem_ok = all(valid(p) for p in premises)
                concl_ok = valid(conclusion)
                sound = concl_ok or not prem_ok
                if double_line:
                    sound = sound and (prem_ok or not concl_ok)
                status, detail = ("pass", "") if sound else (
                    "fail",
                    f"{sq.render_sequent(conclusion)} breaks validity preservation")
        except CapExceeded as ex:
            status, detail = "skip", str(ex)
        report.records.append(
            TrialRecord(rule, seed, trial, status, detail, _ms_since(start)))
    return report


def mu_exhaustive_cases(sizes: tuple[int, int] = (2, 2)):
    """Every truth-context class x functor table x argument atom for the mu
    rule at small base sizes; yields (context_class, lhs, rhs, model, rho).
    The mu body is (x0 r) for T1 and (n (x0 r)) for T2-T4, with `n` the
    truth function the class names."""
    model = ModelConfig(base_sizes={"s": sizes[0], "t": sizes[1]})
    sigma, tau = Base("s"), Base("t")
    fn_ty = Arrow(sigma, tau)

    neg_table = fn_table(BOT, BOT, {FALSE: TRUE, TRUE: FALSE})
    const0 = fn_table(BOT, BOT, {FALSE: FALSE, TRUE: FALSE})
    const1 = fn_table(BOT, BOT, {FALSE: TRUE, TRUE: TRUE})
    redex = App(Var("x0", Arrow(fn_ty, BOT)), Var("r", fn_ty))
    n = Var("n", Arrow(BOT, BOT))
    contexts = {
        ContextClass.T1: (redex, {}),
        ContextClass.T2: (App(n, redex), {"n": neg_table}),
        ContextClass.T3: (App(n, redex), {"n": const0}),
        ContextClass.T4: (App(n, redex), {"n": const1}),
    }
    for cls, (body, extra) in contexts.items():
        for r_table in enumerate_domain(model, fn_ty, 0):
            for q_atom in enumerate_domain(model, sigma, 0):
                lhs = App(Mu("x0", Arrow(fn_ty, BOT), body), Var("q", sigma))
                rhs = Mu("y0", Arrow(tau, BOT),
                         structural_subst(body, "x0", Var("q", sigma), "y0"))
                rho = {"r": r_table, "q": q_atom, **extra}
                yield cls, lhs, rhs, model, rho
