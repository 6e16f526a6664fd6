"""Directed beta/eta/mu rewriting for lambda-mu terms.

The five computation rules are oriented left to right:

  beta     ((\\x:s. P) Q)        -> P[x := Q]
  eta      \\x:s. (P x)          -> P            if x not free in P
  beta-mu  (Q (#x:~s. P))       -> P[x := Q]    with Q of type ~s
  eta-mu   #x:~s. (x P)         -> P            if x not free in P
  mu       ((#x:~(s->t). P) Q)  -> #y:~t. P[(x R) :=* (y (R Q))]

The last rule rewrites, inductively, every subterm of the body shaped
(x R) into (y (R Q)); it is undefined when x occurs outside functor
position, which surfaces as NonFunctorOccurrence. Reflexivity, symmetry,
transitivity and the congruence rules are realised by normalize-and-compare
rather than proof search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Callable, Optional

from .syntax import (
    App, Arrow, BOT, CttError, Hole, Lam, Mu, SlmTerm, TypeMismatch, Var,
    free_vars, render, slm_at, slm_children, slm_replace,
)


class NonFunctorOccurrence(CttError):
    """The mu rule met a bound variable outside functor position."""


class RuleTag(Enum):
    BETA = "beta"
    ETA = "eta"
    BETA_MU = "beta-mu"
    ETA_MU = "eta-mu"
    MU = "mu"


@dataclass(frozen=True)
class Step:
    path: tuple[int, ...]
    rule: RuleTag
    before: SlmTerm
    after: SlmTerm


@dataclass
class RewriteTrace:
    start: SlmTerm
    steps: list[Step] = field(default_factory=list)

    def replay(self) -> SlmTerm:
        term = self.start
        for s in self.steps:
            if slm_at(term, s.path) != s.before:
                raise CttError(f"trace does not replay at {s.path}")
            term = slm_replace(term, s.path, s.after)
        return term


class NameSupply:
    """Fresh names by priming; the only piece of state, passed explicitly."""

    def __init__(self, avoid: Optional[set[str]] = None):
        self.avoid = set(avoid or ())

    def fresh(self, base: str) -> str:
        name = base
        while name in self.avoid:
            name += "'"
        self.avoid.add(name)
        return name


class _LazySupply(NameSupply):
    """A NameSupply whose avoid set, `names()`, is built on the first
    `fresh` call: most contractions never ask for a fresh name."""

    def __init__(self, names: Callable[[], set[str]]):
        self._names = names

    @cached_property
    def avoid(self) -> set[str]:
        return self._names()


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
        supply = _LazySupply(lambda: _all_names(term) | _all_names(repl))
    repl_fv = free_vars(repl)

    def go(t: SlmTerm) -> SlmTerm:
        match t:
            case Var(name, ty):
                if name != x:
                    return t
                if ty != repl.ty:
                    raise TypeMismatch(
                        f"substituting {render(repl)} : {repl.ty} for {x} : {ty}")
                return repl
            case App(fun, arg):
                return App(go(fun), go(arg))
            case Lam(b, bty, body) | Mu(b, bty, body):
                cls = type(t)
                if b == x:
                    return t
                if b in repl_fv and x in free_vars(body):
                    b2 = supply.fresh(b)
                    body = substitute(body, b, Var(b2, bty), supply)
                    return cls(b2, bty, go(body))
                return cls(b, bty, go(body))
            case Hole():
                return t
        raise CttError(f"cannot substitute into {t!r}")

    return go(term)


def structural_subst(body: SlmTerm, x: str, q: SlmTerm, y: str,
                     supply: Optional[NameSupply] = None) -> SlmTerm:
    """Rewrite every (x R) in `body` into (y (R q)), innermost first.

    `x` must have some type ~(s->t), `q` type s, and `y` is a fresh name of
    type ~t. Free occurrences of x outside functor position make the rule
    inapplicable (NonFunctorOccurrence).
    """
    if supply is None:
        supply = _LazySupply(lambda: _all_names(body) | _all_names(q) | {x, y})
    q_fv = free_vars(q)
    y_ty = None

    def go(t: SlmTerm) -> SlmTerm:
        match t:
            case Var(name, _):
                if name == x:
                    raise NonFunctorOccurrence(
                        f"{x} occurs outside functor position")
                return t
            case App(Var(name, ty), arg) if name == x:
                nonlocal y_ty
                if not (isinstance(ty, Arrow) and isinstance(ty.dom, Arrow)):
                    raise TypeMismatch(f"{x} : {ty} is not of type ~(s -> t)")
                y_ty = Arrow(ty.dom.cod, BOT)
                return App(Var(y, y_ty), App(go(arg), q))
            case App(fun, arg):
                return App(go(fun), go(arg))
            case Lam(b, bty, inner) | Mu(b, bty, inner):
                cls = type(t)
                if b == x:
                    return t
                if b == y or (b in q_fv and x in free_vars(inner)):
                    b2 = supply.fresh(b)
                    inner = substitute(inner, b, Var(b2, bty), supply)
                    return cls(b2, bty, go(inner))
                return cls(b, bty, go(inner))
            case Hole():
                return t
        raise CttError(f"cannot rewrite {t!r}")

    return go(body)


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
                name == b and vty == bty and b not in free_vars(fun)):
            return fun, RuleTag.ETA
        case App(fun, Mu(b, bty, body)) if fun.ty == bty:
            return substitute(body, b, fun, supply), RuleTag.BETA_MU
        case Mu(b, bty, App(Var(name, vty), arg)) if (
                name == b and vty == bty and b not in free_vars(arg)):
            return arg, RuleTag.ETA_MU
        case App(Mu(b, bty, body), arg) if (
                isinstance(bty, Arrow) and isinstance(bty.dom, Arrow)):
            y = supply.fresh("y")
            tau = bty.dom.cod
            new_body = structural_subst(body, b, arg, y, supply)
            return Mu(y, Arrow(tau, BOT), new_body), RuleTag.MU
    return None


def _with_child(parent: SlmTerm, i: int, child: SlmTerm) -> SlmTerm:
    if isinstance(parent, App):
        return App(child, parent.arg) if i == 0 else App(parent.fun, child)
    return type(parent)(parent.binder, parent.binder_ty, child)


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
            t = _with_child(parent, i, t)  # the parent itself if t is its child
        return t

    def next(self) -> Optional[Step]:
        """Find and contract the next redex; None at normal form. The name
        supply of a contraction avoids every name of the current term, as
        a search from the root would."""
        supply = _LazySupply(lambda: _all_names(self.root()))
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
                rebuilt = slm_children(rebuilt)[self.path[d]]
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
        self.focus = _with_child(self.up.pop(), i, self.focus)
        return i

    def _to_child(self, i: int):
        self.up.append(self.focus)
        self.path.append(i)
        self.focus = slm_children(self.focus)[i]

    def _preorder(self, supply: NameSupply) -> Optional[Step]:
        while True:
            hit = _match_redex(self.focus, supply)
            if hit is not None:
                return self._contract(hit)
            if slm_children(self.focus):
                self._to_child(0)
                continue
            while True:  # the next right sibling of the nearest ancestor
                i = self._climb()
                if i is None:
                    return None
                if i + 1 < len(slm_children(self.focus)):
                    self._to_child(i + 1)
                    break

    def _postorder(self, supply: NameSupply) -> Optional[Step]:
        while True:
            if self.changed:  # start at the leftmost leaf of the focus
                while slm_children(self.focus):
                    self._to_child(0)
                self.changed = False
            hit = _match_redex(self.focus, supply)
            if hit is not None:
                return self._contract(hit)
            i = self._climb()
            if i is None:
                return None
            if i + 1 < len(slm_children(self.focus)):
                self._to_child(i + 1)
                self.changed = True


def _check_strategy(strategy: str):
    if strategy not in ("outermost", "innermost"):
        raise CttError(f"unknown strategy {strategy!r}")


def step(term: SlmTerm, strategy: str = "outermost",
         ) -> Optional[tuple[SlmTerm, tuple[int, ...], RuleTag]]:
    """Contract the leftmost-outermost (or -innermost) redex, if any."""
    _check_strategy(strategy)
    search = _RedexSearch(term, strategy == "innermost")
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
    the steps are those that repeated `step` calls would take."""
    _check_strategy(strategy)
    trace = RewriteTrace(term)
    search = _RedexSearch(term, strategy == "innermost")
    for _ in range(fuel):
        hit = search.next()
        if hit is None:
            return search.root(), trace, NormalStatus.NORMAL_FORM
        trace.steps.append(hit)
    term = search.root()
    if search.next() is None:
        return term, trace, NormalStatus.NORMAL_FORM
    return term, trace, NormalStatus.FUEL_EXHAUSTED


# ---------------------------------------------------------------------------
# alpha-equivalence and the equality decision attempt

def alpha_equal(t1: SlmTerm, t2: SlmTerm) -> bool:
    """Structural equality up to consistent renaming of bound variables."""

    def go(a, b, env1: dict[str, int], env2: dict[str, int], depth: int) -> bool:
        match a, b:
            case Var(n1, ty1), Var(n2, ty2):
                if ty1 != ty2:
                    return False
                d1, d2 = env1.get(n1), env2.get(n2)
                return d1 == d2 if (d1 is not None or d2 is not None) else n1 == n2
            case App(f1, a1), App(f2, a2):
                return go(f1, f2, env1, env2, depth) and go(a1, a2, env1, env2, depth)
            case (Lam(b1, ty1, m1), Lam(b2, ty2, m2)) | (Mu(b1, ty1, m1), Mu(b2, ty2, m2)):
                if type(a) is not type(b) or ty1 != ty2:
                    return False
                return go(m1, m2, {**env1, b1: depth}, {**env2, b2: depth}, depth + 1)
            case Hole(), Hole():
                return True
        return False

    return go(t1, t2, {}, {}, 0)


class EqVerdict(Enum):
    EQUAL_BY_NORMAL_FORM = "equal"
    UNKNOWN = "unknown"


def decide_equal(t1: SlmTerm, t2: SlmTerm, fuel: int = DEFAULT_FUEL) -> EqVerdict:
    """Equal when both sides reach alpha-equivalent normal forms in `fuel`
    steps; Unknown otherwise (the oriented system carries no completeness
    claim, so callers may escalate to the semantic oracle)."""
    if t1.ty != t2.ty:
        raise TypeMismatch(f"comparing terms of types {t1.ty} and {t2.ty}")
    n1, _, s1 = normalize(t1, fuel=fuel)
    n2, _, s2 = normalize(t2, fuel=fuel)
    if s1 is NormalStatus.NORMAL_FORM and s2 is NormalStatus.NORMAL_FORM:
        if alpha_equal(n1, n2):
            return EqVerdict.EQUAL_BY_NORMAL_FORM
    return EqVerdict.UNKNOWN
