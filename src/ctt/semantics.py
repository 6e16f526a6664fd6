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
from enum import Enum
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from . import gen as _gen
from .rewrite import structural_subst
from .domains import (
    CanonElem, CapExceeded, FALSE, Individual, MAX_RANK0_ENUM, ModelConfig,
    RankOverflow, TRUE, TruthVal, _BoundedTable, _carrier, apply_elem, ba_equal,
    ba_leq, bottom_at, carrier_size, enumerate_domain, fn_table, iso_i, make_join,
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
    nested binders multiply. Before anything is evaluated, each binder's
    carrier is counted (`carrier_size`, which raises for a carrier that
    cannot be built) and the largest product along a binder path is
    checked against MAX_RANK0_ENUM. A table hit skips those checks, which
    an earlier call with the same key passed."""
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


def _binder_sweep(term: SlmTerm, model: ModelConfig) -> int:
    """Largest product of binder carrier sizes along any path of `term`,
    saturated at MAX_RANK0_ENUM + 1; a binder whose carrier is refused
    raises its `carrier_size` error. Iterative, so a nest as deep as the
    parser admits stays inside the recursion limit."""
    worst, stack = 1, [(term, 1)]
    while stack:
        t, sweep = stack.pop()
        if isinstance(t, (Lam, Mu)):
            sweep = min(sweep * carrier_size(model.sizes, t.binder_ty),
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
    names in the same model, is evaluated once.

    The table is keyed on (model, node, values of the names in its
    `cts_signature` table): a node that misses recurses only into children
    that also miss. A name used at two signatures below a node leaves the
    node without a key."""
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
            value = apply_elem(eval_cts(fun, model, rho),
                               eval_cts(arg, model, rho))
        case CNeg(k, child):
            value = make_neg(k, eval_cts(child, model, rho))
        case CConj(k, left, right) | CDisj(k, left, right):
            l = eval_cts(left, model, rho)
            r = eval_cts(right, model, rho)
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


def canonicalize_cts(sub: CtsSubterm, model: ModelConfig) -> CanonElem:
    """Canonical form of a subterm: evaluate with a symbolic named atom
    for each free rank-0 variable, where no concrete carrier is wanted.
    Variables already naming a model constant keep that value; rank >= 1
    variables have no symbolic representation and are rejected."""
    rho: Assignment = {}
    for name, (ty, rank) in cts_signature(sub).items():
        if resolve_constant(model, name, ty) is not None:
            continue
        if rank != 0:
            raise CttError(
                f"cannot canonicalize symbolically with {name}@{rank}; "
                "only rank-0 free variables stay symbolic")
        rho[name] = Individual(ty, name)
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


class SequentVerdict(NamedTuple):
    model_index: int
    assignment: Assignment
    holds: bool


class SequentReport(NamedTuple):
    """What `sequent_valid` found: how many assignments it decided and the
    first verdict that refutes the sequent, if any."""

    checked: int
    failure: Optional[SequentVerdict] = None

    @property
    def valid(self) -> bool:
        return self.failure is None


def _assignment_space(members: list[CtsSubterm], model: ModelConfig,
                      ) -> tuple[list[str], list[list[CanonElem]]]:
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
        pool = carrier_size(model.sizes, ty)  # sized before any enumeration
        if rank > 0:
            pool = rank1_count(pool)
        total *= pool
        if total > MAX_ASSIGNMENTS:
            if pool > MAX_RANK0_ENUM:  # saturated: the exact size is not computed
                raise CapExceeded(f"assignment space exceeds the cap {MAX_ASSIGNMENTS}: "
                                  f"{name} alone ranges over more than {MAX_RANK0_ENUM} values")
            raise CapExceeded(f"assignment space {total} exceeds the cap {MAX_ASSIGNMENTS}")
        chosen.append((name, ty, rank))
    return ([n for n, _, _ in chosen],
            # the rank-1 list covers rank 0 up to ba_equal
            [enumerate_domain(model, ty, 0 if rank <= 0 else 1) for _, ty, rank in chosen])


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
    return _decide(tuple([eval_cts(m, model, rho) for m in [*ante, *succ]]),
                   len(ante))


# the key of a member without variables: () from any value tuple
_NO_VARIABLES = itemgetter(slice(0))


def _sweep(ante: list[CtsSubterm], succ: list[CtsSubterm],
           models: Iterable[ModelConfig]) -> Iterator[tuple]:
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
        names, pools = _assignment_space(members, model)
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
                    value = memo[key] = eval_cts(m, model, rho)
                member_values.append(value)
            member_values = tuple(member_values)
            holds = verdicts.get(member_values)
            if holds is None:
                holds = verdicts[member_values] = _decide(member_values, n_ante)
            yield idx, names, values, holds


def sequent_verdicts(ante: list[CtsSubterm], succ: list[CtsSubterm],
                     models: Iterable[ModelConfig]) -> Iterator[SequentVerdict]:
    """One verdict per model and assignment, lazily, model by model and
    each model's assignments in `itertools.product` order over the pools
    of `_assignment_space`, its names sorted. A model's
    assignment space is sized (CapExceeded) when the stream reaches it.
    Each verdict builds its assignment dict; see `_sweep` for how the
    members are evaluated and the verdicts decided."""
    for idx, names, values, holds in _sweep(ante, succ, models):
        yield SequentVerdict(idx, dict(zip(names, values)), holds)


def sequent_valid(ante: list[CtsSubterm], succ: list[CtsSubterm],
                  models: Iterable[ModelConfig]) -> SequentReport:
    """Validity over a family of models: the `sequent_verdicts` sweep read
    up to its first failing verdict, building no assignment dict but that
    counterexample's. A valid sequent decides every assignment. An invalid
    one stops at the counterexample, then sizes the assignment space of
    every later model, so that an over-cap model raises CapExceeded as the
    full sweep does."""
    models = list(models)
    checked = 0
    for idx, names, values, holds in _sweep(ante, succ, models):
        checked += 1
        if not holds:
            for model in models[idx + 1:]:
                _assignment_space([*ante, *succ], model)
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

class TrialRecord(NamedTuple):
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


class HarnessReport:
    __slots__ = ("rule", "records")

    def __init__(self, rule: str):
        self.rule = rule
        self.records: list[TrialRecord] = []

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

    def trial(rng) -> tuple[str, str]:
        lhs, rhs, ctx = _gen.slm_rule_instance(rule, rng)
        if mutate and rule == "mu":
            rhs = _mutate_mu_rhs(lhs, rhs)
        rho = _gen.random_ground_assignment(rng, model, ctx)
        if check_equation(lhs, rhs, model, rho):
            return "pass", ""
        return "fail", f"{render(lhs)} /= {render(rhs)}"

    report = _run_trials(rule, seed, trials, (1000003, 9176),
                         (RankOverflow, CapExceeded), trial)
    if rule == "mu" and not mutate:
        start = time.perf_counter()
        for i, (cls, lhs, rhs, m, rho) in enumerate(mu_exhaustive_cases(), trials):
            ok = check_equation(lhs, rhs, m, rho)
            report.records.append(TrialRecord(
                rule, seed, i, "pass" if ok else "fail",
                f"context={cls.value}", _ms_since(start)))
            start = time.perf_counter()
    return report


# a harness run keeps a record per trial, so its count is capped before the
# first trial runs
MAX_TRIALS = 100_000


def _run_trials(rule: str, seed: int, trials: int, multipliers: tuple[int, int],
                skips: tuple, trial: Callable) -> HarnessReport:
    """One record per trial: `trial(rng)` gives its (status, detail), with
    `rng` seeded from the seed, the rule's salt and the trial's index by
    `multipliers`; an exception of `skips` makes the trial a skip. A
    negative count raises CttError, and more than MAX_TRIALS trials raise
    CapExceeded, before any trial runs."""
    if not 0 <= trials <= MAX_TRIALS:
        # a count too long for decimal is not written out
        shown = (trials if trials.bit_length() <= 64
                 else "over 2^64" if trials > 0 else "below -2^64")
        if trials < 0:
            raise CttError(f"trials must be >= 0, got {shown}")
        raise CapExceeded(f"{shown} trials exceeds the cap {MAX_TRIALS}")
    report = HarnessReport(rule)
    seed_mul, salt_mul = multipliers
    rule_salt = sum(map(ord, rule))
    for i in range(trials):
        start = time.perf_counter()
        rng = _gen.make_rng(seed * seed_mul + rule_salt * salt_mul + i)
        try:
            status, detail = trial(rng)
        except skips as ex:
            status, detail = "skip", str(ex)
        report.records.append(
            TrialRecord(rule, seed, i, status, detail, _ms_since(start)))
    return report


def _ms_since(start: float) -> float:
    return (time.perf_counter() - start) * 1000.0


def _mutate_mu_rhs(lhs: SlmTerm, rhs: SlmTerm) -> SlmTerm:
    """Deliberately wrong mu contraction: forget the truth context around
    the bound application, as if the rule ignored it."""
    if not isinstance(rhs, Mu):
        return rhs
    todo = [rhs.body]
    while todo:  # preorder: the first bound application
        match todo.pop():
            case App(Var(name, _), _) as inner if name == rhs.binder:
                return Mu(rhs.binder, rhs.binder_ty, inner)
            case t:
                todo += reversed(children(t))
    return rhs


def cts_harness_model(size: int = 2) -> ModelConfig:
    """Model for sequent-rule trials: base e plus constants naming every
    e -> bot table, so functor-side big-operator substitution has a
    name-addressable carrier."""
    # read from the base sizes, as enumerate_domain reads a model's: a
    # model built only to be read would die and be built anew on every call
    tables = _carrier((("e", size),), Arrow(Base("e"), BOT)).atoms
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
    double_line = rule in sq.SUBST_RULES

    def valid(seq):
        return all(sequent_valid(seq.side("L"), seq.side("R"), [m]).valid
                   for m in models)

    def trial(rng) -> tuple[str, str]:
        conclusion, premises, pos, direction = _gen.cts_rule_instance(
            rule, rng, gen_model)
        violation = sq.check_rule_instance(
            conclusion, premises, rule, pos, direction, gen_model)
        if violation is not None:
            return "fail", f"generator rejected: {violation}"
        prem_ok = all(valid(p) for p in premises)
        concl_ok = valid(conclusion)
        sound = concl_ok or not prem_ok
        if double_line:
            sound = sound and (prem_ok or not concl_ok)
        if sound:
            return "pass", ""
        return "fail", f"{sq.render_sequent(conclusion)} breaks validity preservation"

    return _run_trials(rule, seed, trials, (2000003, 5077), (CapExceeded,), trial)


def mu_exhaustive_cases():
    """Every truth-context class x functor table x argument atom for the mu
    rule with base types s and t of size 2; yields (context_class, lhs, rhs,
    model, rho). The mu body is (x0 r) for T1 and (n (x0 r)) for T2-T4, with
    `n` the truth function the class names."""
    model = ModelConfig(base_sizes={"s": 2, "t": 2})
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
