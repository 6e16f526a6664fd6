"""Seeded random generators: well-typed terms, rewrite-rule instances,
ranked subterms and sequent-rule instances. Shared by the soundness
harness and the property tests."""

from __future__ import annotations

import random
from typing import Optional

from . import rewrite, sequents as sq
from .domains import CanonElem, ModelConfig, enumerate_domain
from .syntax import (
    App, Arrow, BOT, Base, CApp, CConj, CNeg, CVar, CtsSubterm, CttError,
    Lam, Mu, OP_NODES, SlmTerm, TypeExpr, Var, neg_type,
)


def make_rng(seed: Optional[int]) -> random.Random:
    return random.Random(seed)


DEFAULT_BASES = ("e", "t")


def random_type(rng: random.Random, depth: int = 2) -> TypeExpr:
    if depth <= 0 or rng.random() < 0.6:
        return rng.choice([Base(b) for b in DEFAULT_BASES] + [BOT])
    return Arrow(random_type(rng, depth - 1), random_type(rng, depth - 1))


class TermGen:
    """Type-directed term generator.

    Missing subterms become fresh free variables, recorded in `ctx` so the
    caller can assign them rank-0 values. Mu only appears where explicitly
    requested: un-applied mu under a lambda makes the lambda's table
    non-rank-0, which the finite evaluator rejects by design.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.ctx: dict[str, TypeExpr] = {}
        self.counter = 0

    def fresh_free(self, ty: TypeExpr) -> SlmTerm:
        self.counter += 1
        name = f"v{self.counter}"
        self.ctx[name] = ty
        return Var(name, ty)

    def term(self, ty: TypeExpr, depth: int,
             bound: Optional[dict[str, TypeExpr]] = None) -> SlmTerm:
        rng = self.rng
        bound = bound or {}
        matching = [n for n, t in bound.items() if t == ty]
        choices = ["free"]
        if matching:
            choices += ["bound"] * 2
        if depth > 0:
            choices += ["app"]
            if isinstance(ty, Arrow):
                choices += ["lam", "lam"]
        pick = rng.choice(choices)
        if pick == "bound":
            return Var(rng.choice(matching), ty)
        if pick == "lam":
            self.counter += 1
            b = f"x{self.counter}"
            body = self.term(ty.cod, depth - 1, {**bound, b: ty.dom})
            return Lam(b, ty.dom, body)
        if pick == "app":
            arg_ty = rng.choice([Base(b) for b in DEFAULT_BASES] + [BOT])
            fun = self.term(Arrow(arg_ty, ty), depth - 1, bound)
            arg = self.term(arg_ty, depth - 1, bound)
            return App(fun, arg)
        return self.fresh_free(ty)


def random_ground_assignment(rng: random.Random, model: ModelConfig,
                             ctx: dict[str, TypeExpr]) -> dict[str, CanonElem]:
    """Assign every context variable a random rank-0 element."""
    return {name: rng.choice(enumerate_domain(model, ty, 0))
            for name, ty in ctx.items()}


# ---------------------------------------------------------------------------
# instances of the equality rules

SLM_RULE_IDS = (
    "refl", "symm", "trans", "cong-app-fun", "cong-app-arg", "cong-lam",
    "cong-mu", "beta", "eta", "beta-mu", "eta-mu", "mu",
)


def _beta_pair(gen: TermGen, ty: TypeExpr) -> tuple[SlmTerm, SlmTerm]:
    """A beta redex of the given type together with its contraction."""
    rng = gen.rng
    arg_ty = rng.choice([Base(b) for b in DEFAULT_BASES] + [BOT])
    gen.counter += 1
    b = f"x{gen.counter}"
    body = gen.term(ty, 2, {b: arg_ty})
    arg = gen.term(arg_ty, 1)
    redex = App(Lam(b, arg_ty, body), arg)
    return redex, rewrite.substitute(body, b, arg)


def slm_rule_instance(rule: str, rng: random.Random,
                      ) -> tuple[SlmTerm, SlmTerm, dict[str, TypeExpr]]:
    """One instance (lhs, rhs, free-variable context) of an equality rule.

    Congruence rules are instantiated on pairs already known equal (a redex
    and its contraction), matching their premise.
    """
    gen = TermGen(rng)
    ty = random_type(rng, depth=1)
    sigma = rng.choice([Base(b) for b in DEFAULT_BASES])

    if rule == "refl":
        t = gen.term(ty, 2)
        out = t, t
    elif rule == "symm":
        a, b = _beta_pair(gen, ty)
        out = b, a
    elif rule == "trans":
        a, b = _beta_pair(gen, ty)
        gen.counter += 1
        z = f"x{gen.counter}"
        c = App(Lam(z, ty, Var(z, ty)), b)  # b = c holds by beta
        out = a, c
    elif rule == "cong-app-fun":
        fn_ty = Arrow(sigma, ty)
        p, q = _beta_pair(gen, fn_ty)
        a = gen.term(sigma, 1)
        out = App(p, a), App(q, a)
    elif rule == "cong-app-arg":
        a, b = _beta_pair(gen, sigma)
        p = gen.term(Arrow(sigma, ty), 1)
        out = App(p, a), App(p, b)
    elif rule == "cong-lam":
        p, q = _beta_pair(gen, ty)
        gen.counter += 1
        b = f"x{gen.counter}"
        out = Lam(b, sigma, p), Lam(b, sigma, q)
    elif rule == "cong-mu":
        p, q = _beta_pair(gen, BOT)
        gen.counter += 1
        b = f"x{gen.counter}"
        out = Mu(b, neg_type(sigma), p), Mu(b, neg_type(sigma), q)
    elif rule == "beta":
        out = _beta_pair(gen, ty)
    elif rule == "eta":
        fn_ty = Arrow(sigma, ty)
        p = gen.term(fn_ty, 2)
        gen.counter += 1
        b = f"x{gen.counter}"
        out = Lam(b, sigma, App(p, Var(b, sigma))), p
    elif rule == "beta-mu":
        # bodies keep the bound continuation in principal position (x R):
        # the rule's semantic face under the free reading of 0/1, see the
        # companion test on the constant-body corner
        gen.counter += 1
        b = f"x{gen.counter}"
        r = gen.term(sigma, 2)
        body = App(Var(b, neg_type(sigma)), r)
        q = gen.term(neg_type(sigma), 1)
        out = App(q, Mu(b, neg_type(sigma), body)), rewrite.substitute(body, b, q)
    elif rule == "eta-mu":
        p = gen.term(sigma, 2)
        gen.counter += 1
        b = f"x{gen.counter}"
        out = Mu(b, neg_type(sigma), App(Var(b, neg_type(sigma)), p)), p
    elif rule == "mu":
        out = mu_rule_instance(gen, rng)
    else:
        raise ValueError(f"unknown equality rule {rule!r}")
    return out[0], out[1], gen.ctx


def mu_rule_instance(gen: TermGen, rng: random.Random) -> tuple[SlmTerm, SlmTerm]:
    """An instance of the mu rule: ((#x:~(s->t). C[(x r)]) q) against its
    contraction, with a randomly shaped bot-context around the x-application."""
    sigma, tau = Base("e"), Base("e" if rng.random() < 0.5 else "t")
    fn_ty = Arrow(sigma, tau)
    r = gen.fresh_free(fn_ty)
    q = gen.fresh_free(sigma)
    gen.counter += 1
    x = f"x{gen.counter}"
    redex_inner = App(Var(x, neg_type(fn_ty)), r)
    # context shapes: identity, one table around, two tables around
    wraps = rng.randint(0, 2)
    body = redex_inner
    for _ in range(wraps):
        w = gen.fresh_free(neg_type(BOT))
        body = App(w, body)
    lhs = App(Mu(x, neg_type(fn_ty), body), q)
    gen.counter += 1
    y = f"y{gen.counter}"
    rhs = Mu(y, neg_type(tau), rewrite.structural_subst(body, x, q, y))
    return lhs, rhs


# ---------------------------------------------------------------------------
# random ranked subterms (for sequent work)

_CONNECTIVES = ("neg", "and", "or")  # drawn by index


def cts_member(rng: random.Random, sig: dict[str, tuple[TypeExpr, int]],
               rank: int, depth: int = 2) -> CtsSubterm:
    """A bot-typed subterm of exactly the requested rank whose internal
    ranks all lie in {0, rank} (the shape the introduction rules accept)."""
    if rank == 0:
        # rank-0 variables keep the assignment space small; rank variety
        # comes from the operator nodes above
        if rng.random() < 0.5:
            return _rank0_var(rng, sig, BOT)
        return CApp(_rank0_var(rng, sig, neg_type(Base("e"))),
                    _rank0_var(rng, sig, Base("e")))
    cls = OP_NODES[_CONNECTIVES[rng.randrange(3)]]
    return cls(rank, *[cts_member(rng, sig, rng.choice((0, rank)) if depth > 0 else 0,
                                  depth - 1)
                       for _ in cls._child_fields])


def _rank0_var(rng: random.Random, sig: dict[str, tuple[TypeExpr, int]],
               ty: TypeExpr) -> CtsSubterm:
    """A rank-0 variable of type `ty`: often one `sig` has, else a new one
    recorded there."""
    existing = [n for n, s in sig.items() if s == (ty, 0)]
    if existing and rng.random() < 0.6:
        return CVar(rng.choice(existing), ty, 0)
    name = f"m{len(sig)}"
    sig[name] = (ty, 0)
    return CVar(name, ty, 0)


def cts_rule_instance(rule: str, rng: random.Random, model,
                      ) -> tuple[sq.Sequent, list[sq.Sequent], sq.Pos, Optional[str]]:
    """One accepted instance of a sequent rule:
    (conclusion, premises, pos, direction)."""
    sig: dict[str, tuple[TypeExpr, int]] = {}
    op, flavor = rule.rsplit("-", 1)
    k = rng.choice((1, 1, 2))

    def side_members(n: int) -> list[CtsSubterm]:
        return [cts_member(rng, sig, rng.choice((0, k)), depth=1)
                for _ in range(n)]

    cls = OP_NODES[op]
    if flavor in ("L", "R"):  # introduction rules
        gamma = side_members(rng.randrange(2))
        delta = side_members(rng.randrange(2))
        if op in _CONNECTIVES:
            parts = [cts_member(rng, sig, rng.choice((0, k)), depth=1)
                     for _ in cls._child_fields]
            formula = cls(k, *parts)
        else:  # big operators, eigenvariable form
            parts = [CVar(f"fresh{len(sig)}", BOT, 0)]
            formula = cls(k, "x", BOT, 0)
        # a side member equal to the introduced formula would vanish into
        # it under set semantics
        gamma = [m for m in gamma if m != formula]
        delta = [m for m in delta if m != formula]

        def put(members: list, side: str) -> sq.Sequent:
            if side == "L":
                return sq.Sequent.make(gamma + members, delta)
            return sq.Sequent.make(gamma, delta + members)

        conclusion = put([formula], flavor)
        if op == "neg":
            premises = [put(parts, "R" if flavor == "L" else "L")]
        elif rule in sq._BRANCHING:
            premises = [put([p], flavor) for p in parts]
        else:
            premises = [put(parts, flavor)]
        pos = sq.Pos(flavor, conclusion.side(flavor).index(formula))
        return conclusion, premises, pos, None

    # substitution rules
    seq_side, app_side = flavor[0], flavor[1]
    e = Base("e")

    def fresh(ty: TypeExpr, r: int) -> CtsSubterm:
        name = f"s{len(sig)}"
        sig[name] = (ty, r)
        return CVar(name, ty, r)

    def inner_ranked(ty: TypeExpr, r: int) -> CtsSubterm:
        # leaves stay at annotation rank 0 so validity enumeration is cheap;
        # the side conditions under test are about the operator ranks
        if r == 0:
            return fresh(ty, 0)
        inner = OP_NODES[_CONNECTIVES[rng.randrange(3)]]
        return inner(r, *[fresh(ty, 0) for _ in inner._child_fields])

    if app_side == "r":  # operator inside the argument
        # a rank >= 1 arrow-typed variable would need the huge rank-1 table
        # algebra enumerated for validity checks; annotate at 0 (the h+1 <= k
        # boundary itself is covered by the mutation tests)
        functor = fresh(Arrow(e, BOT), 0)
        ty = e
        part = lambda: inner_ranked(e, rng.choice((0, k - 1)))
    else:  # operator inside the functor
        arg = fresh(e, rng.choice((0, min(k, 1))))
        ty = Arrow(e, BOT)
        part = lambda: fresh(ty, 0)
    if op in _CONNECTIVES:
        node = cls(k, *[part() for _ in cls._child_fields])
    else:
        node = cls(k, "i", ty, 0)
    redex = CApp(functor, node) if app_side == "r" else CApp(node, arg)

    member, path = redex, ()
    if rng.random() < 0.4:  # bury the redex under a context
        other = cts_member(rng, sig, 0, depth=1)
        kk = max(k, 1)
        if rng.random() < 0.5:
            member, path = CConj(kk, redex, other), (0,)
        else:
            member, path = CNeg(kk, redex), (0,)
    gamma = side_members(rng.randrange(2))
    delta = side_members(rng.randrange(2))
    if seq_side == "L":
        seq_in = sq.Sequent.make(gamma + [member], delta)
    else:
        seq_in = sq.Sequent.make(gamma, delta + [member])
    pos = sq.Pos(seq_side, seq_in.side(seq_side).index(member), path)
    out = sq.rule_premises(seq_in, rule, pos, model)
    if isinstance(out, sq.Violation):
        raise CttError(f"generator built a stuck redex: {out.reason}")
    direction = rng.choice(("down", "up"))
    if direction == "down":
        return seq_in, out, pos, direction
    return out[0], [seq_in], pos, direction

