"""Directed beta/eta/mu rewriting for lambda-mu terms.

The five computation rules are oriented left to right:

  beta     ((\\x:s. P) Q)        -> P[x := Q]
  eta      \\x:s. (P x)          -> P            if x not free in P
  beta-mu  (Q (#x:~s. P))       -> P[x := Q]    with Q of type ~s
  eta-mu   #x:~s. (x P)         -> P            if x not free in P
  mu       ((#x:~(s->t). P) Q)  -> #y:~t. P[(x R) :=* (y (R Q))]

The last rule rewrites, inductively, every subterm of the body shaped
(x R) into (y (R Q)); it is undefined when x occurs outside functor
position, which surfaces as NonFunctorOccurrence.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property, partial
from typing import Callable, NamedTuple, Optional

from .syntax import (
    App, Arrow, BOT, CttError, Lam, Mu, SlmTerm, TypeExpr, TypeMismatch, Var,
    children, free_table, free_vars, render, with_child,
)


class NonFunctorOccurrence(CttError):
    """The mu rule met a bound variable outside functor position."""


class RuleTag(Enum):
    BETA = "beta"
    ETA = "eta"
    BETA_MU = "beta-mu"
    ETA_MU = "eta-mu"
    MU = "mu"


class Step(NamedTuple):
    path: tuple[int, ...]
    rule: RuleTag
    before: SlmTerm
    after: SlmTerm


class RewriteTrace:
    __slots__ = ("start", "steps")

    def __init__(self, start: SlmTerm, steps: Optional[list[Step]] = None):
        self.start = start
        self.steps = [] if steps is None else steps


class NameSupply:
    """Fresh names by priming; the only piece of state, passed explicitly.
    The set of names to avoid, `names()`, is built on the first `fresh`
    call: most contractions never ask for a fresh name."""

    def __init__(self, names: Callable[[], set[str]]):
        self._names = names

    @cached_property
    def avoid(self) -> set[str]:
        return self._names()

    def fresh(self, base: str) -> str:
        name = base
        while name in self.avoid:
            name += "'"
        self.avoid.add(name)
        return name


def _all_names(term: SlmTerm) -> set[str]:
    out = set()
    todo = [term]
    while todo:
        match todo.pop():
            case Var(name, _):
                out.add(name)
            case Lam(b, _, body) | Mu(b, _, body):
                out.add(b)
                todo.append(body)
            case App(fun, arg):
                todo += (fun, arg)
    return out


def substitute(term: SlmTerm, x: str, repl: SlmTerm,
               supply: Optional[NameSupply] = None) -> SlmTerm:
    """Capture-avoiding substitution term[x := repl]."""
    if supply is None:
        supply = NameSupply(lambda: _all_names(term) | _all_names(repl))

    def at(var: Var, applied: bool):
        if var.ty != repl.ty:
            raise TypeMismatch(
                f"substituting {render(repl)} : {repl.ty} for {x} : {var.ty}")
        return partial(App, repl) if applied else repl

    return _replace(term, x, at, _free_names(repl), (), supply, "substitute into")


def structural_subst(body: SlmTerm, x: str, q: SlmTerm, y: str,
                     supply: Optional[NameSupply] = None) -> SlmTerm:
    """Rewrite every (x R) in `body` into (y (R q)), innermost first.

    `x` must have some type ~(s->t), `q` type s, and `y` is a fresh name of
    type ~t. Free occurrences of x outside functor position make the rule
    inapplicable (NonFunctorOccurrence).
    """
    if supply is None:
        supply = NameSupply(lambda: _all_names(body) | _all_names(q) | {x, y})

    def at(var: Var, applied: bool):
        if not applied:
            raise NonFunctorOccurrence(f"{x} occurs outside functor position")
        ty = var.ty
        if not (isinstance(ty, Arrow) and isinstance(ty.dom, Arrow)):
            raise TypeMismatch(f"{x} : {ty} is not of type ~(s -> t)")
        head = Var(y, Arrow(ty.dom.cod, BOT))
        return lambda arg: App(head, App(arg, q))

    return _replace(body, x, at, _free_names(q), (y,), supply, "rewrite")


def _free_names(term: SlmTerm) -> dict[str, TypeExpr]:
    """`term`'s free names with their types, for membership tests: the
    memoized table itself (never mutate it), not the copy `free_vars`
    returns; `free_vars` where there is no table, so a name free at two
    types raises as it does there."""
    table = free_table(term)
    return free_vars(term) if table is None else table


def _replace(term: SlmTerm, x: str, at: Callable, fv: dict, taken: tuple[str, ...],
             supply: NameSupply, what: str) -> SlmTerm:
    """`term` with each free occurrence of `x` replaced, in one preorder
    walk over an explicit stack, so a term of any depth is walked without
    recursion. A bare `x` becomes `at(x, False)`; an applied `(x R)` becomes
    `at(x, True)(R')`, with `at` called before R is walked into R'. A binder
    is renamed, fresh names drawn left to right, when it is in `taken`, or
    when it is in `fv` and `x` is free below it."""
    done: list[SlmTerm] = []
    todo: list = [term]  # terms to walk, and (build, arity) to apply to results
    while todo:
        t = todo.pop()
        match t:
            case (build, arity):
                done[-arity:] = [build(*done[-arity:])]
            case Var(name, _):
                done.append(at(t, False) if name == x else t)
            case App(Var(name, _) as head, arg) if name == x:
                todo += ((at(head, True), 1), arg)
            case App(fun, arg):
                todo += ((App, 2), arg, fun)
            case Lam(b, _, _) | Mu(b, _, _) if b == x:
                done.append(t)
            case Lam(b, bty, body) | Mu(b, bty, body):
                if b in taken or (b in fv and x in _free_names(body)):
                    b2 = supply.fresh(b)
                    b, body = b2, substitute(body, b, Var(b2, bty), supply)
                todo += ((partial(type(t), b, bty), 1), body)
            case _:
                raise CttError(f"cannot {what} {t!r}")
    return done[0]


# ---------------------------------------------------------------------------
# one-step reduction

def _match_redex(term: SlmTerm, supply: NameSupply) -> Optional[tuple[SlmTerm, RuleTag]]:
    """Contract `term` at the root if it is a redex. Rule order is fixed
    (beta, eta, beta-mu, eta-mu, mu) so overlapping redexes reduce
    deterministically."""
    match term:
        case App(Lam(b, _, body), arg):
            return substitute(body, b, arg, supply), RuleTag.BETA
        case Lam(b, bty, App(fun, Var(name, vty))) if (
                name == b and vty == bty and b not in _free_names(fun)):
            return fun, RuleTag.ETA
        case App(fun, Mu(b, bty, body)) if fun.ty == bty:
            return substitute(body, b, fun, supply), RuleTag.BETA_MU
        case Mu(b, bty, App(Var(name, vty), arg)) if (
                name == b and vty == bty and b not in _free_names(arg)):
            return arg, RuleTag.ETA_MU
        case App(Mu(b, bty, body), arg) if (
                isinstance(bty, Arrow) and isinstance(bty.dom, Arrow)):
            y = supply.fresh("y")
            tau = bty.dom.cod
            new_body = structural_subst(body, b, arg, y, supply)
            return Mu(y, Arrow(tau, BOT), new_body), RuleTag.MU
    return None


class _RedexSearch:
    """The leftmost-outermost (preorder) or leftmost-innermost (postorder)
    redex search over one term, resumed after each contraction instead of
    restarted at the root.

    The search is a zipper (Huet, "The Zipper", JFP 1997): `focus` is the
    subterm at `path`, and `up[d]` is the ancestor at `path[:d]`, whose
    child on the path may be stale until the search climbs back through it.
    Resuming is sound because the subtrees that come before the contracted
    position p in search order, apart from p's ancestors, are unchanged and
    were already found to hold no redex. Preorder re-checks p's ancestors
    top-down, then continues at p; postorder searches the contractum's
    subtree, then continues after it (the ancestors come later anyway).
    """

    def __init__(self, term: SlmTerm, innermost: bool):
        self.innermost = innermost
        self.focus = term
        self.path: list[int] = []
        self.up: list[SlmTerm] = []
        # the focus is new: postorder must search its subtree, preorder
        # must re-check its ancestors
        self.changed = True

    def root(self) -> SlmTerm:
        t = self.focus
        for parent, i in zip(reversed(self.up), reversed(self.path)):
            t = with_child(parent, i, t)  # the parent itself if t is its child
        return t

    def next(self) -> Optional[Step]:
        """Find and contract the next redex; None at normal form. The name
        supply of a contraction avoids every name of the current term, as
        a search from the root would."""
        supply = NameSupply(lambda: _all_names(self.root()))
        if self.innermost:
            return self._postorder(supply)
        if self.changed:
            self.changed = False
            rebuilt = self.root()  # `up` is refreshed on the way down
            for d in range(len(self.up)):
                self.up[d] = rebuilt
                hit = _match_redex(rebuilt, supply)
                if hit is not None:
                    self.focus = rebuilt
                    del self.path[d:], self.up[d:]
                    return self._contract(hit)
                rebuilt = children(rebuilt)[self.path[d]]
            self.focus = rebuilt
        return self._preorder(supply)

    def _contract(self, hit: tuple[SlmTerm, RuleTag]) -> Step:
        after, tag = hit
        before, self.focus = self.focus, after
        self.changed = True
        return Step(tuple(self.path), tag, before, after)

    def _climb(self) -> Optional[int]:
        """Move the focus to its parent, re-attaching it; returns the index
        the focus had there, or None at the root."""
        if not self.path:
            return None
        i = self.path.pop()
        self.focus = with_child(self.up.pop(), i, self.focus)
        return i

    def _to_child(self, i: int):
        self.up.append(self.focus)
        self.path.append(i)
        self.focus = children(self.focus)[i]

    def _preorder(self, supply: NameSupply) -> Optional[Step]:
        while True:
            hit = _match_redex(self.focus, supply)
            if hit is not None:
                return self._contract(hit)
            if children(self.focus):
                self._to_child(0)
                continue
            while True:  # the next right sibling of the nearest ancestor
                i = self._climb()
                if i is None:
                    return None
                if i + 1 < len(children(self.focus)):
                    self._to_child(i + 1)
                    break

    def _postorder(self, supply: NameSupply) -> Optional[Step]:
        while True:
            if self.changed:  # start at the leftmost leaf of the focus
                while children(self.focus):
                    self._to_child(0)
                self.changed = False
            hit = _match_redex(self.focus, supply)
            if hit is not None:
                return self._contract(hit)
            i = self._climb()
            if i is None:
                return None
            if i + 1 < len(children(self.focus)):
                self._to_child(i + 1)
                self.changed = True


def step(term: SlmTerm) -> Optional[tuple[SlmTerm, tuple[int, ...], RuleTag]]:
    """Contract the leftmost-outermost redex, if any."""
    search = _RedexSearch(term, False)
    hit = search.next()
    if hit is None:
        return None
    return search.root(), hit.path, hit.rule


class NormalStatus(Enum):
    NORMAL_FORM = "normal-form"
    FUEL_EXHAUSTED = "fuel-exhausted"


DEFAULT_FUEL = 10000


def normalize(term: SlmTerm, strategy: str = "outermost",
              fuel: int = DEFAULT_FUEL) -> tuple[SlmTerm, RewriteTrace, NormalStatus]:
    """Contract redexes until normal form or the fuel runs out. Each step
    resumes the search where the last one contracted, so it costs about
    the size of its redex (plus, outermost, the depth of its position);
    the steps are those that repeated `step` calls would take.

    A run that reaches normal form is kept on the interned term, one per
    strategy (`_normal`), and a later call with fuel for at least its
    steps answers from it, with a fresh list of the same steps, and runs
    no search. The answer is the one a new run gives: the search is
    deterministic, and it draws its fresh names from the term alone. A run
    that runs out of fuel or raises keeps nothing, and less fuel than the
    kept steps searches anew. The run lives exactly as long as its term."""
    if strategy not in ("outermost", "innermost"):
        raise CttError(f"unknown strategy {strategy!r}")
    kept = getattr(term, "_normal", {}).get(strategy)
    if kept is not None and fuel >= len(kept[0]):
        return _from_kept(term, *kept)
    trace = RewriteTrace(term)
    search = _RedexSearch(term, strategy == "innermost")
    for _ in range(fuel):
        hit = search.next()
        if hit is None:
            return _keep_run(term, strategy, trace, search.root())
        trace.steps.append(hit)
    result = search.root()
    if search.next() is None:
        return _keep_run(term, strategy, trace, result)
    return result, trace, NormalStatus.FUEL_EXHAUSTED


# A kept run names its own term nowhere, so the term still dies by reference
# counting: None stands for it as the `before` of a first step at the root
# and as the result of a term already normal. No later step or result of a
# run that reaches normal form is the term: the term would then reduce to a
# term that holds it, an infinite reduction, which typed terms do not have.

def _keep_run(term: SlmTerm, strategy: str, trace: RewriteTrace, result: SlmTerm):
    steps = tuple(trace.steps)
    if steps and not steps[0].path:
        steps = (steps[0]._replace(before=None), *steps[1:])
    runs = getattr(term, "_normal", None)
    if runs is None:
        runs = {}
        object.__setattr__(term, "_normal", runs)
    runs[strategy] = (steps, None if result is term else result)
    return result, trace, NormalStatus.NORMAL_FORM


def _from_kept(term: SlmTerm, steps: tuple[Step, ...], result: Optional[SlmTerm]):
    steps = list(steps)
    if steps and steps[0].before is None:
        steps[0] = steps[0]._replace(before=term)
    result = term if result is None else result
    return result, RewriteTrace(term, steps), NormalStatus.NORMAL_FORM
