"""Shared golden corpus: named inputs and their frozen expected outputs,
and the random elements and subterms the property tests draw.

The canonicalization goldens are the three bracketed displays (two with
identical output shape, one with the meet/join nesting swapped) and the
two scope-demo readings; expected structures were derived by hand from
the rank-driven distribution discipline and frozen here.
"""

import itertools
import random

from ctt import semantics
from ctt.domains import (
    AtomicApp, CanonElem, Individual, JoinE, MeetE, ModelConfig, NegE,
    enumerate_domain, make_join, make_meet, make_neg,
)
from ctt.syntax import (
    BOT, Base, CApp, CConj, CDisj, CNeg, CVar, CtsSubterm, TypeExpr, neg_type,
    parse_cts, parse_type,
)

E = Base("e")
S = Base("s")
T = Base("t")

EMPTY_MODEL = ModelConfig()

# --- the three bracketed canonicalization examples -------------------------

BRACKETED_1_TEXT = (
    "((and[1](p:(s -> ~t)@0, q:(s -> ~t)@0) neg[1](a:s@0)) or[2](r:t@0, w:t@0))"
)
BRACKETED_2_TEXT = (
    "(and[1](p:~t@0, q:~t@0) (neg[1](f:(s -> t)@0) or[2](r:s@0, w:s@0)))"
)
BRACKETED_3_TEXT = (
    "(and[2](p:~t@0, q:~t@0) (neg[1](f:(s -> t)@0) or[2](r:s@0, w:s@0)))"
)

BRACKETED_1_GOLDEN = (
    "or[2](and[1](neg[1](((p a) r)),neg[1](((q a) r))),"
    "and[1](neg[1](((p a) w)),neg[1](((q a) w))))"
)
BRACKETED_2_GOLDEN = (
    "or[2](and[1](neg[1]((p (f r))),neg[1]((q (f r)))),"
    "and[1](neg[1]((p (f w))),neg[1]((q (f w)))))"
)
BRACKETED_3_GOLDEN = (
    "and[2](or[2](neg[1]((p (f r))),neg[1]((p (f w)))),"
    "or[2](neg[1]((q (f r))),neg[1]((q (f w)))))"
)


def bracketed_examples():
    return [
        (parse_cts(BRACKETED_1_TEXT), BRACKETED_1_GOLDEN),
        (parse_cts(BRACKETED_2_TEXT), BRACKETED_2_GOLDEN),
        (parse_cts(BRACKETED_3_TEXT), BRACKETED_3_GOLDEN),
    ]


# --- scope demo -------------------------------------------------------------

SCOPE_SIG = {
    "L": (parse_type("(e -> ~e)"), 0),
    "A": (E, 0), "B": (E, 0), "C": (E, 0), "D": (E, 0),
}
SCOPE_INPUT_1 = "((L or[1](C,D)) and[1](A,B))"
SCOPE_INPUT_2 = "((L or[1](C,D)) and[2](A,B))"
SCOPE_GOLDEN_1 = "or[1](and[1](((L C) A),((L C) B)),and[1](((L D) A),((L D) B)))"
SCOPE_GOLDEN_2 = "and[2](or[1](((L C) A),((L D) A)),or[1](((L C) B),((L D) B)))"


def scope_assignment():
    return {name: Individual(ty, name) for name, (ty, _) in SCOPE_SIG.items()}


# --- the type-reduction worked example --------------------------------------

def worked_iso_expected(model: ModelConfig):
    """{{a},{b,c}} over a three-element carrier as its frozen full DNF."""
    a, b, c = (Individual(E, n) for n in "abc")
    return make_join(1, E, [
        make_meet(1, E, [a, make_neg(1, b), make_neg(1, c)]),
        make_meet(1, E, [make_neg(1, a), b, c]),
    ])


WORKED_ISO_GOLDEN = "or[1](and[1](a,neg[1](b),neg[1](c)),and[1](b,c,neg[1](a)))"

# --- assorted well-formed inputs used across round-trip/agreement tests -----

SLM_TEXTS = [
    r"\x:e. x",
    "#x:~e. (x y:e)",
    r"((\x:e. x) y:e)",
    r"\x:(e -> t). \z:e. (x z)",
    "#x:~(e -> t). (x r:(e -> t))",
    r"(q:~e #x:~e. (x w:e))",
    r"\x:e. (f:(e -> (e -> bot)) x)",
    "#x:~bot. (x (g:(e -> bot) y:e))",
]

CTS_TEXTS = [
    "x:bot@0",
    "and[1](p:bot@0,q:bot@0)",
    "neg[2](or[1](p:bot@0,neg[1](q:bot@0)))",
    "(f:(e -> bot)@0 a:e@0)",
    "((g:(e -> (e -> bot))@0 a:e@0) b:e@0)",
    "and[1]((f:(e -> bot)@0 a:e@0),neg[1](x:bot@0))",
    "All[1](x:e@0)",
    "Ex[2](x:bot@1)",
    "(f:(e -> bot)@0 or[1](a:e@0,b:e@0))",
    BRACKETED_1_TEXT,
    BRACKETED_2_TEXT,
    BRACKETED_3_TEXT,
]


# --- random elements and subterms -------------------------------------------

def random_canon_elem(rng: random.Random, model: ModelConfig, ty: TypeExpr,
                      max_rank: int = 2, depth: int = 3) -> CanonElem:
    """A random element of the given type with rank <= max_rank."""
    atoms = enumerate_domain(model, ty, 0)
    if max_rank == 0 or depth <= 0 or rng.random() < 0.3:
        return rng.choice(atoms)
    k = rng.randint(1, max_rank)
    pick = rng.randrange(3)
    if pick == 0:
        return make_neg(k, random_canon_elem(rng, model, ty, k, depth - 1))
    make = make_meet if pick == 1 else make_join
    n = rng.randint(0, 3)
    return make(k, ty, [random_canon_elem(rng, model, ty, k, depth - 1)
                        for _ in range(n)])


def random_bot_subterm(rng: random.Random, depth: int, sig: dict[str, tuple[TypeExpr, int]],
                       max_rank: int = 2, var_ranks=(0, 0, 1)) -> CtsSubterm:
    """A random type-bot subterm over a shared variable signature."""

    def var(ty: TypeExpr, rank: int) -> CtsSubterm:
        existing = [n for n, (t, r) in sig.items() if t == ty and r == rank]
        if existing and rng.random() < 0.7:
            return CVar(rng.choice(existing), ty, rank)
        name = f"{'w' if ty == BOT else 'u'}{len(sig)}"
        sig[name] = (ty, rank)
        return CVar(name, ty, rank)

    def bot_term(d: int) -> CtsSubterm:
        if d <= 0:
            return var(BOT, rng.choice(var_ranks))
        pick = rng.randrange(5)
        if pick == 0:
            return var(BOT, rng.choice(var_ranks))
        if pick == 1:
            c = bot_term(d - 1)
            k = rng.randint(max(1, c.rank), max_rank)
            return CNeg(k, c)
        if pick in (2, 3):
            a, b = bot_term(d - 1), bot_term(d - 1)
            k = rng.randint(max(1, a.rank, b.rank), max_rank)
            return (CConj if pick == 2 else CDisj)(k, a, b)
        f = var(neg_type(Base("e")), 0)
        return CApp(f, var(Base("e"), 0))

    return bot_term(depth)


def is_canonical_elem(e: CanonElem) -> bool:
    """No Boolean operator node under an application anywhere: both sides
    of every symbolic application are rank-0 atoms."""
    match e:
        case NegE(_, _, child):
            return is_canonical_elem(child)
        case MeetE(_, _, children) | JoinE(_, _, children):
            return all(is_canonical_elem(c) for c in children)
        case AtomicApp(fun, arg):
            return all(c.k == 0 and is_canonical_elem(c) for c in (fun, arg))
        case _:
            return True


def assignments(members: list[CtsSubterm], model: ModelConfig):
    """Every assignment of the members' free non-constant variables, in the
    order a validity sweep decides them. The space is sized, and
    CapExceeded raised, at the call; the assignments are built one at a
    time as the caller asks."""
    names, pools = semantics._assignment_space(members, model)
    return (dict(zip(names, values)) for values in itertools.product(*pools))
