import gc
import os
import pathlib
import random
import subprocess
import sys
import time
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from ctt import gen
from ctt import syntax
from ctt.rewrite import RuleTag, normalize
from ctt.syntax import (
    App, Arrow, BOT, Base, CApp, CBigConj, CBigDisj, CConj, CDisj, CNeg,
    CtsSubterm, CttError, CVar, Lam, Mu, ParseError, RankViolation, SyntaxClass,
    TypeMismatch, Var, children, classify, cts_signature, free_vars,
    is_neg_type, neg_type, parse, parse_cts, parse_sequent_members, parse_slm,
    parse_type, rank_check, render, render_type, replace_at, subterm_at,
    with_child,
)

import corpus
import reference_syntax


def test_parse_identity_lambda():
    t = parse_slm(r"\x:e. x")
    assert isinstance(t, Lam)
    assert render_type(t.ty) == "(e -> e)"


def test_parse_mu_with_free_variable():
    t = parse_slm("#x:~e. (x y:e)")
    assert isinstance(t, Mu)
    assert t.ty == Base("e")
    assert t.body.ty == BOT
    assert free_vars(t) == {"y": Base("e")}


def test_parse_cts_rank_side_condition():
    with pytest.raises(RankViolation):
        parse_cts("and[1](p:bot@0, neg[2](q:bot@0))")


def test_parse_mode_dispatch():
    assert parse("(e -> bot)", "type") == Arrow(Base("e"), BOT)
    assert isinstance(parse(r"\x:e. x", "slm"), Lam)
    assert isinstance(parse("x:bot@0", "cts"), CVar)
    with pytest.raises(Exception):
        parse("x", "nonsense")


def test_type_sugar_expands_before_comparison():
    assert parse_type("~e") == Arrow(Base("e"), BOT)
    assert parse_type("~(e -> t)") == Arrow(Arrow(Base("e"), Base("t")), BOT)


def test_default_type_prefix():
    t = parse_slm(r"e: ((\x:e. x) y)")
    assert free_vars(t) == {"y": Base("e")}
    # a bare annotated variable is not mistaken for the prefix form
    v = parse_slm("x:e")
    assert v == Var("x", Base("e"))


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_slm(r"\x:e. (x ))")
    assert exc.value.line == 1
    assert exc.value.col >= 9


def test_default_type_retry_reports_whole_text_position():
    # both readings fail; the `e:` retry gets further, to the end of input
    with pytest.raises(ParseError) as exc:
        parse_slm(r"e: ((\x:e. x) y")
    assert (exc.value.line, exc.value.col) == (1, 16)


def test_typecheck_app_mismatch_path():
    t = App(Var("x", Base("e")), Var("x", Base("e")))
    with pytest.raises(TypeMismatch, match=r"^e is not an arrow type \(at path 0\)$"):
        t.ty


def test_typecheck_unbound():
    # the parser types every free name, so a parsed term has no unbound one
    with pytest.raises(ParseError, match="free variable z needs a type annotation"):
        parse_slm("(f:(e -> e) z)")


def test_typecheck_mu_rule_shape():
    t = parse_slm("#x:~e. (x y:e)")
    assert t.ty == Base("e")


# One type per name, binders included, so the reference checker's checks
# of a variable against its context never fire; the ill-typed trees below
# are faults of application and mu alone.
_TYPE_OF = {"a": Base("e"), "b": Base("t"), "f": Arrow(Base("e"), Base("t")),
            "g": neg_type(Base("t")), "k": neg_type(Base("e")), "o": BOT}


def one_type_tree(rng, depth):
    """A random lambda-mu tree over the names of `_TYPE_OF`, each at its type."""
    name = rng.choice(sorted(_TYPE_OF))
    pick = rng.randrange(4) if depth > 0 else 0
    if pick == 0:
        return Var(name, _TYPE_OF[name])
    if pick == 1:
        return App(one_type_tree(rng, depth - 1), one_type_tree(rng, depth - 1))
    return (Lam if pick == 2 else Mu)(name, _TYPE_OF[name], one_type_tree(rng, depth - 1))


def assert_ty_matches_reference(t):
    def checked(t):
        return reference_syntax.typecheck_slm(t, free_vars(t))

    assert outcome(node_type, t) == outcome(checked, t)


def test_ty_matches_reference_typecheck():
    for text in corpus.SLM_TEXTS:
        assert_ty_matches_reference(parse_slm(text))
    rng = gen.make_rng(11)
    for i in range(3000):
        tg = gen.TermGen(rng)
        assert_ty_matches_reference(tg.term(gen.random_type(rng, depth=2), depth=3))
        assert_ty_matches_reference(one_type_tree(rng, 4))
        if i % 10 == 0:  # rule instances, for terms with mu
            lhs, rhs, _ = gen.slm_rule_instance(rng.choice(list(RuleTag)).value, rng)
            assert_ty_matches_reference(lhs)
            assert_ty_matches_reference(rhs)
    a, b, f, g = (Var(n, _TYPE_OF[n]) for n in "abfg")
    faults = {
        App(a, a): "e is not an arrow type (at path 0)",
        App(f, b): "argument type t does not match domain e (at path 1)",
        App(App(a, a), App(f, b)): "e is not an arrow type (at path 0.0)",
        App(f, App(f, b)): "argument type t does not match domain e (at path 1.1)",
        Lam("a", Base("e"), App(f, b)): "argument type t does not match domain e (at path 0.1)",
        Mu("g", _TYPE_OF["g"], App(f, a)): "mu body has type t, expected bot (at path 0)",
        Mu("a", Base("e"), App(f, b)): "mu binder must have a negation type (at path root)",
        Mu("g", _TYPE_OF["g"], App(g, App(f, b))):
            "argument type t does not match domain e (at path 0.1.1)",
    }
    for t, message in faults.items():
        assert outcome(node_type, t) == (TypeMismatch, message)
        assert_ty_matches_reference(t)



def test_classify_examples():
    assert classify(parse_cts("((g:(e -> (e -> bot))@0 a:e@0) b:e@0)")) is SyntaxClass.ATOMIC
    assert classify(parse_cts("and[1]((f:(e -> bot)@0 a:e@0), r:bot@0)")) is SyntaxClass.CANONICAL
    assert classify(parse_cts("(f:(e -> bot)@0 and[1](a:e@0, b:e@0))")) is SyntaxClass.MOLECULAR


def test_classify_big_operator_index_rank():
    assert classify(parse_cts("All[1](x:e@0)")) is SyntaxClass.CANONICAL
    assert classify(parse_cts("All[1](x:e@1)")) is SyntaxClass.MOLECULAR


# the recursive walks `classify` used before it read the `_redex` slot
def _has_boolean(sub: CtsSubterm) -> bool:
    if isinstance(sub, (CNeg, CConj, CDisj, CBigConj, CBigDisj)):
        return True
    return any(_has_boolean(c) for c in children(sub))


def _canonical_shape(sub: CtsSubterm) -> bool:
    match sub:
        case CApp():
            return not _has_boolean(sub)
        case CBigConj(_, _, _, m) | CBigDisj(_, _, _, m):
            return m == 0
        case _:
            return all(_canonical_shape(c) for c in children(sub))


def reference_classify(sub):
    if not _has_boolean(sub):
        return SyntaxClass.ATOMIC
    if _canonical_shape(sub):
        return SyntaxClass.CANONICAL
    return SyntaxClass.MOLECULAR


def random_ranked(rng, depth):
    """A ranked subterm built node by node, ill-ranked and ill-typed ones
    included: operators of rank 0-2 over children of any rank, big
    operators with index rank 0-2, operators under applications."""
    tys = (BOT, Base("e"), Arrow(Base("e"), BOT))
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.3:
            big = rng.choice((CBigConj, CBigDisj))
            return big(rng.randrange(3), "x", rng.choice(tys), rng.randrange(3))
        return CVar(rng.choice("abc"), rng.choice(tys), rng.randrange(3))
    cls = rng.choice((CApp, CApp, CNeg, CConj, CDisj))
    kids = [random_ranked(rng, depth - 1) for _ in cls._child_fields]
    return cls(*kids) if cls is CApp else cls(rng.randrange(3), *kids)


def all_subterms(t):
    todo, out = [t], []
    while todo:
        s = todo.pop()
        out.append(s)
        todo += children(s)
    return out


def test_classify_matches_the_recursive_walks():
    rng = random.Random(34)
    roots = [random_ranked(rng, 5) for _ in range(1500)]
    roots += [parse_cts(t) for t in corpus.CTS_TEXTS]
    # ask in a random order, so that slots are filled from either side
    order = [s for t in roots for s in all_subterms(t)]
    rng.shuffle(order)
    for s in order + roots:
        assert classify(s) is reference_classify(s), render(s)
    nodes = set(order)
    assert {classify(s) for s in nodes} == set(SyntaxClass)
    assert any(isinstance(s, (CBigConj, CBigDisj)) and s.atom_rank > 0 for s in nodes)
    assert any(isinstance(s, CApp) and _has_boolean(s) for s in nodes)
    assert any(s._fault is not None for s in nodes)


def test_classify_answers_at_any_depth():
    f, a = CVar("f", Arrow(Base("e"), BOT), 0), CVar("a", Base("e"), 0)
    for bottom, expected in ((CVar("p", BOT, 0), SyntaxClass.CANONICAL),
                             (CApp(f, CNeg(1, a)), SyntaxClass.MOLECULAR),
                             (CBigConj(1, "x", Base("e"), 1), SyntaxClass.MOLECULAR)):
        deep = bottom
        for _ in range(5000):
            deep = CNeg(1, deep)
        assert classify(deep) is expected


def test_free_vars_examples():
    t = parse_slm(r"\x:(e -> t). (x y:e)")
    assert free_vars(t) == {"y": Base("e")}  # the lambda binds x
    t2 = parse_slm("#x:~e. (x y:e)")
    assert free_vars(t2) == {"y": Base("e")}  # mu binds too
    v = Var("x", Base("e"))
    assert free_vars(v) == {"x": Base("e")}


def test_free_vars_conflicting_types():
    t = App(Var("f", Arrow(Base("e"), BOT)), Var("f", Base("e")))
    with pytest.raises(TypeMismatch):
        free_vars(t)


def reference_free_vars(term):
    """The walk that `free_vars` memoizes per node, kept as the reference."""
    out = {}

    def add(name, ty):
        if name in out and out[name] != ty:
            raise TypeMismatch(f"{name} occurs free at both {out[name]} and {ty}")
        out[name] = ty

    def go(t, bound):
        match t:
            case Var(name, ty):
                if name not in bound:
                    add(name, ty)
            case Lam(b, _, body) | Mu(b, _, body):
                go(body, bound | {b})
            case App(fun, arg):
                go(fun, bound)
                go(arg, bound)
            case _:
                raise CttError(f"unknown node {t!r}")

    go(term, frozenset())
    return out


def outcome(fn, term):
    """What fn(term) returns, a table as its items (the order of first
    occurrence counts), or the type and text of what it raises."""
    try:
        value = fn(term)
    except Exception as ex:
        return type(ex), str(ex)
    return list(value.items()) if isinstance(value, dict) else value


# terms over three names at three types, so names clash, also under binders
# that capture one side of a clash; a ranked variable is an unknown node
_NAMES = st.sampled_from("xyz")
_TYPES = st.sampled_from([Base("e"), Base("t"), Arrow(Base("e"), BOT)])
_RAW_TERMS = st.recursive(
    st.builds(Var, _NAMES, _TYPES)
    | st.builds(CVar, _NAMES, _TYPES, st.just(0)),
    lambda kids: st.builds(App, kids, kids) | st.builds(Lam, _NAMES, _TYPES, kids)
    | st.builds(Mu, _NAMES, _TYPES, kids) | kids.map(lambda t: App(t, t)),
    max_leaves=10)


@settings(max_examples=300, deadline=None)
@given(_RAW_TERMS, st.randoms(use_true_random=False))
def test_free_vars_matches_reference_walk(term, rng):
    def subterms(t):
        yield t
        for c in children(t):
            yield from subterms(c)

    # ask in a random order, so tables are reused from either side
    order = list(subterms(term))
    rng.shuffle(order)
    for t in order + [term]:
        assert outcome(free_vars, t) == outcome(reference_free_vars, t)
    want = outcome(reference_free_vars, term)
    if isinstance(want, list):  # callers own the table they get
        free_vars(term)["spoil"] = BOT
        assert outcome(free_vars, term) == want


def reference_cts_signature(sub):
    """The walk that `cts_signature` memoizes per node, kept as the reference."""
    out = {}

    def go(s):
        match s:
            case CVar(name, ty, rank):
                if name in out and out[name] != (ty, rank):
                    raise TypeMismatch(f"{name} used at {out[name][0]}@{out[name][1]} "
                                       f"and {ty}@{rank}")
                out[name] = (ty, rank)
            case CBigConj() | CBigDisj():
                pass
            case _:
                for c in cts_children(s):
                    go(c)

    go(sub)
    return out


def reference_ty(t, path=()):
    """A node's type by the contract of `.ty`, as a walk: a lambda-mu node
    raises the first fault of a left-to-right walk, at its path from `t`,
    as the checker that typed parsed terms did; a ranked node raises the
    fault its class computed on demand before nodes kept it in a slot, at
    its ancestors' path. A ranked variable is a leaf of either language."""
    match t:
        case Var(_, ty) | CVar(_, ty, _) | CBigConj(_, _, ty, _) | CBigDisj(_, _, ty, _):
            return ty
        case App(fun, arg):
            fty = reference_ty(fun, path + (0,))
            aty = reference_ty(arg, path + (1,))
            if not isinstance(fty, Arrow):
                raise TypeMismatch(f"{fty} is not an arrow type", path + (0,))
            if fty.dom != aty:
                raise TypeMismatch(
                    f"argument type {aty} does not match domain {fty.dom}", path + (1,))
            return fty.cod
        case CApp(fun, _):
            fty = reference_ty(fun, path)
            if not isinstance(fty, Arrow):
                raise TypeMismatch(f"{fty} is not an arrow type", path)
            return fty.cod
        case Lam(_, bty, body):
            return Arrow(bty, reference_ty(body, path + (0,)))
        case Mu(_, bty, body):
            if not is_neg_type(bty):
                raise TypeMismatch("mu binder must have a negation type", path)
            ty = reference_ty(body, path + (0,))
            if ty != BOT:
                raise TypeMismatch(f"mu body has type {ty}, expected bot", path + (0,))
            return bty.dom
        case CNeg(_, child) | CConj(_, child, _) | CDisj(_, child, _):
            return reference_ty(child, path)
    raise CttError(f"unknown node {t!r}")


def reference_rank_check(sub):
    """`rank_check` as a recursive walk, before nodes kept its outcome in a
    slot; kept verbatim as the reference."""
    match sub:
        case CVar(_, _, rank):
            if rank < 0:
                raise RankViolation("variable rank must be a natural number")
            return rank
        case CApp(fun, arg):
            m, n = reference_rank_check(fun), reference_rank_check(arg)
            fty = fun.ty
            if not isinstance(fty, Arrow):
                raise TypeMismatch(f"{fty} is not an arrow type")
            if fty.dom != arg.ty:
                raise TypeMismatch(
                    f"argument type {arg.ty} does not match domain {fty.dom}")
            return max(m, n)
        case CNeg(k, child):
            m = reference_rank_check(child)
            if k < 1 or m > k:
                raise RankViolation(f"neg[{k}] needs child rank {m} <= k, k >= 1")
            return k
        case CConj(k, l, r) | CDisj(k, l, r):
            m, n = reference_rank_check(l), reference_rank_check(r)
            op = "and" if isinstance(sub, CConj) else "or"
            if k < 1 or m > k or n > k:
                raise RankViolation(
                    f"{op}[{k}] needs child ranks {m},{n} <= k, k >= 1")
            if l.ty != r.ty:
                raise TypeMismatch(f"{op}[{k}] children differ in type: {l.ty} vs {r.ty}")
            return k
        case CBigConj(k, _, _, m) | CBigDisj(k, _, _, m):
            if k < 1 or m > k or m < 0:
                raise RankViolation(f"big operator needs index rank {m} <= k, k >= 1")
            return k
    raise CttError(f"unknown subterm {sub!r}")


def uncached_render(t):
    """`render(t)` as the walk that wrote every text before texts were
    joined from the children's."""
    return reference_syntax._render(t, False, True)


def node_type(t):
    return t.ty


# ranked trees over the same names and types at four ranks (one negative),
# with names reused at two signatures; ranks are not checked, as
# construction does not
_RANKS = st.integers(-1, 2)
_RAW_SUBTERMS = st.recursive(
    st.builds(CVar, _NAMES, _TYPES, _RANKS)
    | st.builds(CBigConj, _RANKS, _NAMES, _TYPES, _RANKS)
    | st.builds(CBigDisj, _RANKS, _NAMES, _TYPES, _RANKS),
    lambda kids: st.builds(CApp, kids, kids) | st.builds(CNeg, _RANKS, kids)
    | st.builds(CConj, _RANKS, kids, kids) | st.builds(CDisj, _RANKS, kids, kids)
    | kids.map(lambda s: CApp(s, s)),
    max_leaves=10)


def subterms(t):
    yield t
    for c in children(t):
        yield from subterms(c)


def assert_slots_match_reference_walks(tree, rng):
    # ask in a random order, so slots are filled from either side
    order = list(subterms(tree))
    rng.shuffle(order)
    for t in order + [tree]:
        assert outcome(node_type, t) == outcome(reference_ty, t)
        assert outcome(cts_signature, t) == outcome(reference_cts_signature, t)
        assert outcome(render, t) == outcome(uncached_render, t)
        assert outcome(rank_check, t) == outcome(reference_rank_check, t)


# lambda-mu trees with two mu binders that are not negations, one inside
# or left of the other, beside free names, holes and ranked variables: the
# walk's first error is the one `render` raises
_BAD_MU = st.builds(Mu, _NAMES, st.sampled_from([Base("e"), BOT]), _RAW_TERMS)
_FAULTY_TERMS = (
    st.tuples(_BAD_MU, _BAD_MU, _RAW_TERMS).flatmap(st.permutations)
    .map(lambda ts: App(App(ts[0], ts[1]), ts[2]))
    | st.builds(lambda mu, inner, other: Mu(mu.binder, mu.binder_ty, App(inner, other)),
                _BAD_MU, _BAD_MU, _RAW_TERMS))


@settings(max_examples=300, deadline=None)
@given(_RAW_TERMS | _RAW_SUBTERMS | _FAULTY_TERMS, st.randoms(use_true_random=False))
def test_node_slots_match_reference_walks(tree, rng):
    assert_slots_match_reference_walks(tree, rng)


def test_free_name_walks_need_no_recursion():
    # a name at two types or signatures under more levels than the
    # interpreter's recursion limit: the error reads as it does one level
    # down, where the reference walks agree
    e = Base("e")
    term = App(Var("f", Arrow(e, e)), Var("f", e))
    sub = CConj(1, CVar("a", BOT, 0), CVar("a", BOT, 1))
    assert outcome(free_vars, term) == outcome(reference_free_vars, term)
    assert outcome(cts_signature, sub) == outcome(reference_cts_signature, sub)
    deep_term, deep_sub = term, sub
    for _ in range(5000):
        deep_term, deep_sub = Lam("x", e, deep_term), CNeg(1, deep_sub)
    assert outcome(free_vars, deep_term) == outcome(free_vars, term)
    assert outcome(cts_signature, deep_sub) == outcome(cts_signature, sub)
    assert outcome(free_vars, term)[0] is TypeMismatch


def test_node_slots_match_reference_walks_on_corpus():
    rng = random.Random(3)
    for text in corpus.CTS_TEXTS:
        assert_slots_match_reference_walks(parse_cts(text), rng)
    for text in corpus.SLM_TEXTS:
        assert_slots_match_reference_walks(parse_slm(text), rng)
    # tall trees: an identity chain, an and-chain, and a chain whose levels
    # all share the free name f
    chain, conj, shared = "y", "p0:bot@0", "x:e"
    for i in range(1, 40):
        chain = f"((\\x:e. x) {chain})"
        conj = f"and[1](p{i}:bot@0,{conj})"
        shared = f"(f:(e -> e) {shared})"
    for tree in (parse_slm("e: " + chain), parse_cts(conj), parse_slm(shared)):
        assert_slots_match_reference_walks(tree, rng)


def test_rendering_a_normalize_trace_is_linear_in_its_size():
    # every level applies the same free function f, so every text of the
    # trace shares f with its subterms; each node's text is joined from its
    # children's once, not walked again at every ancestor
    chain = "y"
    for _ in range(440):
        chain = f"((\\x:e. (f:(e -> e) x)) {chain})"
    result, trace, _ = normalize(parse_slm("e: " + chain))
    shown = [t for s in trace.steps for t in (s.before, s.after)] + [result]
    start = time.perf_counter()
    texts = [render(t) for t in shown]
    assert time.perf_counter() - start < 0.15
    assert len(trace.steps) == 440
    assert texts == [uncached_render(t) for t in shown]


def test_equal_fields_build_one_node():
    e, x, c = Base("e"), Var("x", Base("e")), CVar("c", BOT, 0)
    builds = [
        (Var, "x", e), (App, x, x), (Lam, "x", e, x), (Mu, "k", neg_type(e), x),
        (CVar, "c", BOT, 0), (CApp, c, c), (CNeg, 1, c), (CConj, 1, c, c),
        (CDisj, 1, c, c), (CBigConj, 1, "x", e, 0), (CBigDisj, 1, "x", e, 0),
    ]
    for cls, *fields in builds:
        assert cls(*fields) is cls(*fields)
    # the node classes are distinct even where their fields agree
    assert CConj(1, c, c) is not CDisj(1, c, c)
    assert Lam("x", e, x) is not Mu("x", e, x)


# The per-language navigation that one declaration of child fields per node
# class replaced, kept verbatim as the reference.

def slm_children(term):
    match term:
        case App(fun, arg):
            return (fun, arg)
        case Lam(_, _, body) | Mu(_, _, body):
            return (body,)
        case _:
            return ()


def slm_replace(term, path, new):
    if not path:
        return new
    i, rest = path[0], path[1:]
    match term, i:
        case App(fun, arg), 0:
            return App(slm_replace(fun, rest, new), arg)
        case App(fun, arg), 1:
            return App(fun, slm_replace(arg, rest, new))
        case Lam(b, bt, body), 0:
            return Lam(b, bt, slm_replace(body, rest, new))
        case Mu(b, bt, body), 0:
            return Mu(b, bt, slm_replace(body, rest, new))
    raise CttError(f"bad path {path} into {render(term)}")


def slm_at(term, path):
    for i in path:
        term = slm_children(term)[i]
    return term


def cts_children(sub):
    match sub:
        case CApp(fun, arg):
            return (fun, arg)
        case CNeg(_, child):
            return (child,)
        case CConj(_, l, r) | CDisj(_, l, r):
            return (l, r)
        case _:
            return ()


def cts_at(sub, path):
    for i in path:
        kids = cts_children(sub)
        if i >= len(kids):
            raise CttError(f"bad path component {i} at {render(sub)}")
        sub = kids[i]
    return sub


def cts_replace(sub, path, new):
    if not path:
        return new
    i, rest = path[0], path[1:]
    match sub, i:
        case CApp(fun, arg), 0:
            return CApp(cts_replace(fun, rest, new), arg)
        case CApp(fun, arg), 1:
            return CApp(fun, cts_replace(arg, rest, new))
        case CNeg(k, child), 0:
            return CNeg(k, cts_replace(child, rest, new))
        case CConj(k, l, r), 0:
            return CConj(k, cts_replace(l, rest, new), r)
        case CConj(k, l, r), 1:
            return CConj(k, l, cts_replace(r, rest, new))
        case CDisj(k, l, r), 0:
            return CDisj(k, cts_replace(l, rest, new), r)
        case CDisj(k, l, r), 1:
            return CDisj(k, l, cts_replace(r, rest, new))
    raise CttError(f"bad path {path} into {render(sub)}")


def _with_child(parent, i, child):
    if isinstance(parent, App):
        return App(child, parent.arg) if i == 0 else App(parent.fun, child)
    return type(parent)(parent.binder, parent.binder_ty, child)


def positions(t, path=()):
    """Every (path, subterm) of `t`, in preorder."""
    yield path, t
    for i, c in enumerate(children(t)):
        yield from positions(c, path + (i,))


def assert_navigation_matches_reference(tree):
    lambda_mu = isinstance(tree, syntax._SLM_NODES)
    at, replace = (slm_at, slm_replace) if lambda_mu else (cts_at, cts_replace)
    leaf = Var("w", Base("e")) if lambda_mu else CVar("w", BOT, 0)
    for path, node in positions(tree):
        # nodes are hash-consed, so == on them (and on outcomes) is `is`
        kids = children(node)
        assert kids == slm_children(node) + cts_children(node)
        assert subterm_at(tree, path) is at(tree, path)
        for new in (node, leaf):
            assert replace_at(tree, path, new) is replace(tree, path, new)
        if isinstance(node, (App, Lam, Mu)):
            for i, c in enumerate(kids):
                for new in (c, leaf):
                    assert with_child(node, i, new) is _with_child(node, i, new)
        past = path + (len(kids),)
        for bad in (past, past + (0,)):
            assert (outcome(lambda t: replace_at(t, bad, leaf), tree)
                    == outcome(lambda t: replace(t, bad, leaf), tree))
        got = outcome(lambda t: subterm_at(t, past), tree)
        if lambda_mu:
            # the old lookup let IndexError escape; the shared one raises
            # the ranked text
            with pytest.raises(IndexError):
                at(tree, past)
            assert got == outcome(lambda n: _bad_component(n, len(kids)), node)
        else:
            assert got == outcome(lambda t: at(t, past), tree)


def _bad_component(node, i):
    raise CttError(f"bad path component {i} at {render(node)}")


def navigation_trees():
    """The corpus, generated lambda-mu terms and generated ranked subterms."""
    trees = [parse_slm(t) for t in corpus.SLM_TEXTS]
    trees += [parse_cts(t) for t in corpus.CTS_TEXTS]
    rng = gen.make_rng(17)
    for _ in range(100):
        trees.append(gen.TermGen(rng).term(gen.random_type(rng, depth=2), depth=3))
        trees.append(corpus.random_bot_subterm(rng, depth=4, sig={}))
    return trees


def test_navigation_matches_reference_on_corpus_and_generated_trees():
    for tree in navigation_trees():
        assert_navigation_matches_reference(tree)


@settings(max_examples=300, deadline=None)
@given(_RAW_TERMS | _RAW_SUBTERMS)
def test_navigation_matches_reference(tree):
    assert_navigation_matches_reference(tree)


def concrete_node_classes(cls=syntax._Node):
    for sub in cls.__subclasses__():
        if not sub.__name__.startswith("_"):
            yield sub
        yield from concrete_node_classes(sub)


def test_each_node_class_declares_its_children():
    """children(n) is exactly the node-valued fields of n, in field order."""
    e, x, c = Base("e"), Var("x", Base("e")), CVar("c", BOT, 0)
    y, d = Var("y", Base("e")), CVar("d", BOT, 0)
    builds = [
        (Var, "x", e), (App, x, y), (Lam, "x", e, x), (Mu, "k", neg_type(e), y),
        (CVar, "c", BOT, 0), (CApp, c, d), (CNeg, 1, c), (CConj, 1, c, d),
        (CDisj, 1, d, c), (CBigConj, 1, "x", e, 0), (CBigDisj, 1, "x", e, 0),
    ]
    assert {cls for cls, *_ in builds} == set(concrete_node_classes())
    for cls, *fields in builds:
        node = cls(*fields)
        want = tuple(f for f in fields if isinstance(f, syntax._Node))
        assert children(node) == want, cls.__name__


def test_cts_signature_excludes_bound_index():
    sub = parse_cts("and[1]((f:(e -> bot)@0 a:e@0), neg[1](x:bot@0))")
    assert cts_signature(sub) == {
        "f": (Arrow(Base("e"), BOT), 0), "a": (Base("e"), 0), "x": (BOT, 0)}
    big = parse_cts("All[1](x:e@0)")
    assert cts_signature(big) == {}


def test_rank_invariant_on_corpus():
    for text in corpus.CTS_TEXTS:
        sub = parse_cts(text)
        assert rank_check(sub) == sub.rank


def test_sequent_parsing_defaults():
    ante, succ = parse_sequent_members("A |- A")
    assert ante == [CVar("A", BOT, 0)] and succ == [CVar("A", BOT, 0)]
    ante, succ = parse_sequent_members("|- or[1](A, neg[1](A))")
    assert ante == [] and len(succ) == 1
    with pytest.raises(TypeMismatch):
        parse_sequent_members("x:e@0 |- x")
    # a comma is always followed by a member
    for text, col in (("A, |- A", 4), ("A |- A,", 8), ("A:bot@0, |- A:bot@0", 10),
                      ("A, B, |- C", 7)):
        with pytest.raises(ParseError, match=f"expected a subterm at line 1, column {col}$"):
            parse_sequent_members(text)


def test_render_refuses_a_mu_binder_without_negation_type():
    bad = Mu("x", Base("e"), Var("y", BOT))
    with pytest.raises(CttError, match="mu binder must have a negation type"):
        render(bad)
    # the same error with assertions compiled out
    code = ("from ctt.syntax import BOT, Base, CttError, Mu, Var, render\n"
            "try:\n    render(Mu('x', Base('e'), Var('y', BOT)))\n"
            "except CttError as ex:\n    print(type(ex).__name__)\n")
    src = pathlib.Path(__file__).parents[1] / "src"
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.stdout == "TypeMismatch\n", proc.stderr


def test_render_sorted_children_flag():
    sub = parse_cts("and[1](q:bot@0,p:bot@0)")
    assert render(sub) == "and[1](q:bot@0,p:bot@0)"
    assert render(sub, sort_children=True) == "and[1](p:bot@0,q:bot@0)"


def test_comment_handling():
    sub = parse_cts("and[1](p:bot@0, # trailing comment\n q:bot@0)")
    assert isinstance(sub, CConj)
    # the mu sigil still works in term mode
    t = parse_slm("#x:~e. (x y:e) # comment")
    assert isinstance(t, Mu)


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_render_parse_round_trip_slm(seed):
    rng = gen.make_rng(seed)
    tg = gen.TermGen(rng)
    ty = gen.random_type(rng, depth=2)
    term = tg.term(ty, depth=3)
    assert parse_slm(render(term)) == term


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_render_parse_round_trip_cts(seed):
    rng = gen.make_rng(seed)
    sig = {}
    sub = corpus.random_bot_subterm(rng, depth=3, sig=sig)
    assert parse_cts(render(sub)) == sub


def test_round_trip_on_corpus():
    for text in corpus.SLM_TEXTS:
        t = parse_slm(text)
        assert parse_slm(render(t)) == t
    for text in corpus.CTS_TEXTS:
        s = parse_cts(text)
        assert parse_cts(render(s)) == s


# ---------------------------------------------------------------------------
# the scanner and the parsers against the `Token` tokenizer and the parsers
# over it, kept verbatim in `reference_syntax`

def token_triples(text, mu_sigil):
    """The reference tokens of `text` as (kind, text, offset), or the
    error it raises."""
    try:
        toks = reference_syntax.tokenize(text, mu_sigil)
    except ParseError as ex:
        return ParseError, str(ex), ex.pos
    return [(t.kind, t.text, t.pos) for t in toks]


def scanned_triples(text, mu_sigil):
    """`syntax.tokenize` as `token_triples`: the kind read off the token's
    text, the offset recovered as a parse error recovers it."""
    try:
        toks = syntax.tokenize(text, mu_sigil)
    except ParseError as ex:
        return ParseError, str(ex), ex.pos
    return [(token_kind(t), t, syntax._token_start(text, mu_sigil, i))
            for i, t in enumerate(toks)]


def token_kind(tok):
    if tok in ("", "->", "|-"):
        return {"": "EOF", "->": "ARROW", "|-": "TURNSTILE"}[tok]
    if tok[0].isdigit():
        return "NAT"
    return "IDENT" if tok[0].isalpha() or tok[0] == "_" else "SYM"


_SCAN_ALPHABET = "#\n:  \t()[]{}.,;@~\\=-|>_'aAzexy019λμ⊥ÿ\xa0 "


@settings(max_examples=1000, deadline=None)
@given(st.text(st.sampled_from(_SCAN_ALPHABET), max_size=30), st.booleans())
def test_tokenize_matches_reference(text, mu_sigil):
    assert scanned_triples(text, mu_sigil) == token_triples(text, mu_sigil)


def test_tokenize_matches_reference_on_corpus():
    texts = corpus.SLM_TEXTS + corpus.CTS_TEXTS + [
        "#x:~e. (x y:e) # comment", "and[1](p:bot@0, # c\n q:bot@0)", "A, B |- C",
        "table{a->0,b->1}", "#", "#\n#x", "x#y", "e # note: x", "#c\ne: y",
        "", "  ", "x ", "x # c", "x\n", "a -b", "a ->", "|", "x λ y", "x' y''"]
    for text in texts:
        for mu_sigil in (False, True):
            assert scanned_triples(text, mu_sigil) == token_triples(text, mu_sigil), text


def parse_outcome(parser, text):
    """What `parser(text)` returns, or the class, text and offset of the
    error it raises. Nodes are interned and define no `==`, so equal
    outcomes hold the same objects."""
    try:
        return parser(text)
    except CttError as ex:
        return "raises", type(ex), str(ex), getattr(ex, "pos", None)


def after_trailing_comma(text):
    """The offset of the token after the first comma that a turnstile or
    the end of input follows, in the reference's tokens, or None."""
    try:
        toks = reference_syntax.tokenize(text)
    except ParseError:
        return None
    for t, after in zip(toks, toks[1:]):
        if t.text == "," and after.text in ("|-", ""):
            return after.pos
    return None


def assert_parsers_match_reference(text):
    """Each parser gives the reference's outcome on `text`. A sequent side
    no longer ends in a comma: the sequent parser reads as the reference
    up to the token after such a comma, and fails there."""
    for name in ("parse_type", "parse_slm", "parse_cts", "parse_sequent_members"):
        want = parse_outcome(getattr(reference_syntax, name), text)
        stop = after_trailing_comma(text) if name == "parse_sequent_members" else None
        if stop is not None and not (want[0] == "raises" and want[3] is not None
                                     and want[3] < stop):
            error = ParseError("expected a subterm", stop, text)
            want = "raises", ParseError, str(error), stop
        assert parse_outcome(getattr(syntax, name), text) == want, (name, text)


def slm_texts():
    """The corpus, its `TYPE :` forms and generated terms in both forms."""
    texts = list(corpus.SLM_TEXTS)
    terms = [parse_slm(t) for t in corpus.SLM_TEXTS]
    rng = gen.make_rng(11)
    for _ in range(200):
        terms.append(gen.TermGen(rng).term(gen.random_type(rng, depth=2), depth=3))
    for term in terms:
        texts.append(render(term))
        bare = render(term, annotate=False)
        texts += [bare] + [f"{ty}: {bare}" for ty in ("e", "~e", "(e -> t)", "bot")]
        texts += [f"{ty} : {bare}" for ty in ("e", "~e")]
    return texts


def cts_texts():
    """The corpus and generated subterms and sequents, their subterms,
    and types, with and without annotations."""
    rng = gen.make_rng(12)
    subs = [parse_cts(t) for t in corpus.CTS_TEXTS]
    for _ in range(150):
        subs.append(corpus.random_bot_subterm(rng, depth=4, sig={}))
        subs.append(gen.cts_member(rng, {}, rank=rng.randint(1, 2), depth=3))
    texts = list(corpus.CTS_TEXTS)
    for sub in subs:
        texts += [render(s) for s in subterms(sub)] + [render(sub, annotate=False)]
    for i in range(0, len(subs) - 3, 3):
        ante, succ = subs[i:i + 2], subs[i + 2:i + 3 + i % 2]
        for show in (render, lambda s: render(s, annotate=False)):
            texts.append(", ".join(map(show, ante)) + " |- " + ", ".join(map(show, succ)))
    texts += [render_type(gen.random_type(rng, depth=3)) for _ in range(100)]
    return texts + ["A, |- A", "A |- A,", "A,, |- A", ", A |- A", "|-", "A |-", "|- ,"]


def test_parse_slm_matches_reference_on_corpus_and_generated_terms():
    for text in slm_texts():
        assert_parsers_match_reference(text)


def test_parsers_match_reference_on_corpus_and_generated_subterms():
    for text in cts_texts():
        assert_parsers_match_reference(text)


_PIECES = st.sampled_from(
    ["e", "t", "x", "y", "f", "A", ":", "#", "#x", "\\", "(", ")", ".", " ", "\n", "~",
     "->", "bot", "@", "0", "1", "[", "]", ",", "|-", "neg", "and", "or", "All",
     "# c:", "e:", "x:e", "λ", "\\x:e.", "#k:~e.", "A:bot@0", "and[1](", "neg[1](",
     "table", "12", "007", "x:e@0"])


@settings(max_examples=1500, deadline=None)
@given(st.lists(_PIECES, max_size=14).map("".join))
def test_parse_slm_matches_reference_on_fuzz(text):
    assert_parsers_match_reference(text)


def test_comment_before_prefix_colon(capsys):
    # a `:` in a comment is no prefix colon, and a `#` glued to an
    # identifier is the mu sigil in the prefix too
    from ctt.cli import main
    for text in ("e # note: x", "#c\ne: y"):
        assert main(["parse", text]) == 2, text
        capsys.readouterr()


# ---------------------------------------------------------------------------
# the `_bare_key` sort order, kept verbatim as the reference for the
# sorted printer

def reference_sorted_render(ast, annotate=True):
    """`render(ast, sort_children=True)` of a ranked subterm as it was,
    ordering and/or children by `_bare_key`."""

    def _bare_key(s):
        match s:
            case CVar(name, _, _):
                return name
            case CApp(fun, arg):
                return f"({_bare_key(fun)} {_bare_key(arg)})"
            case CNeg(k, child):
                return f"neg[{k}]({_bare_key(child)})"
            case CConj(k, l, r) | CDisj(k, l, r):
                op = "and" if isinstance(s, CConj) else "or"
                a, b = _bare_key(l), _bare_key(r)
                if b < a:
                    a, b = b, a
                return f"{op}[{k}]({a},{b})"
            case CBigConj(k, x, _, m) | CBigDisj(k, x, _, m):
                op = "All" if isinstance(s, CBigConj) else "Ex"
                return f"{op}[{k}]({x}@{m})"
        raise CttError(f"cannot render {s!r}")

    seen = set()

    def cts(s):
        match s:
            case CVar(name, ty, rank):
                if name in seen or not annotate:
                    return name
                seen.add(name)
                return f"{name}:{ty}@{rank}"
            case CApp(fun, arg):
                return f"({cts(fun)} {cts(arg)})"
            case CNeg(k, child):
                return f"neg[{k}]({cts(child)})"
            case CConj(k, l, r) | CDisj(k, l, r):
                op = "and" if isinstance(s, CConj) else "or"
                if _bare_key(r) < _bare_key(l):
                    l, r = r, l
                return f"{op}[{k}]({cts(l)},{cts(r)})"
            case CBigConj(k, x, ty, m) | CBigDisj(k, x, ty, m):
                op = "All" if isinstance(s, CBigConj) else "Ex"
                return f"{op}[{k}]({x}:{ty}@{m})"
        raise CttError(f"cannot render {s!r}")

    return cts(ast)


def assert_sorted_render_matches_reference(sub):
    for annotate in (True, False):
        assert (outcome(lambda s: render(s, sort_children=True, annotate=annotate), sub)
                == outcome(lambda s: reference_sorted_render(s, annotate), sub))


def test_sorted_render_matches_reference_on_corpus_and_generated_subterms():
    subs = [parse_cts(text) for text in corpus.CTS_TEXTS]
    rng = gen.make_rng(13)
    for _ in range(300):
        subs.append(corpus.random_bot_subterm(rng, depth=4, sig={}))
        subs.append(gen.cts_member(rng, {}, rank=rng.randint(1, 2), depth=3))
    e_bot = Arrow(Base("e"), BOT)
    subs += [CConj(1, CBigConj(1, "y", BOT, 0), CBigDisj(1, "x", BOT, 0)),
             CDisj(2, CApp(CBigDisj(1, "f", e_bot, 0), CVar("b", Base("e"), 0)),
                   CApp(CBigConj(1, "f", e_bot, 0), CVar("a", Base("e"), 0)))]
    for sub in subs:
        assert_sorted_render_matches_reference(sub)


@settings(max_examples=500, deadline=None)
@given(_RAW_SUBTERMS)
def test_sorted_render_matches_reference(sub):
    assert_sorted_render_matches_reference(sub)


def test_sorted_render_ignores_index_types():
    # the order compares `a` with `b` here, not the index types, and
    # children equal but for index types keep their input order
    left = "(All[1](f:(s -> bot)@0) a:s@0)"
    right = "(All[1](f:(e -> bot)@0) b:e@0)"
    want = "and[1]((All[1](f:(s -> bot)@0) a:s@0),(All[1](f:(e -> bot)@0) b:e@0))"
    for text in (f"and[1]({left}, {right})", f"and[1]({right}, {left})"):
        assert render(parse_cts(text), sort_children=True) == want
    tied = [f"((All[1](g:({ty} -> ~e)@0) All[1](x:{ty}@0)) a:e@0)" for ty in "se"]
    for l, r in (tied, tied[::-1]):
        sub = parse_cts(f"or[1]({l}, {r})")
        assert (render(sub, sort_children=True)
                == render(sub) == reference_sorted_render(sub))


def test_sorted_render_of_a_deep_chain_is_fast():
    # each node's sort key is worked out once, not again at every ancestor
    for op in ("and", "or"):
        sub = parse_cts(f"{op}[1](" * 200 + "p:bot@0" + ", q:bot@0)" * 200)
        start = time.perf_counter()
        text = render(sub, sort_children=True)
        assert time.perf_counter() - start < 1.0
        assert text == reference_sorted_render(sub)


# --- the window of recent parses ---------------------------------------------

def test_a_parse_outlives_its_caller_for_exactly_the_window():
    # a text no other parse shares a node with, so only the window holds it
    probe = weakref.ref(parse_slm(r"\win_x:e. (win_f:(e -> e) win_x)"))
    for i in range(syntax.PARSE_WINDOW - 1):
        parse_cts(f"win_a{i}:bot@0")
    gc.collect()
    assert probe() is not None and render(probe()) == r"\win_x:e. (win_f:(e -> e) win_x)"
    parse_cts("win_last:bot@0")
    gc.collect()
    assert probe() is None


def test_the_interning_table_holds_at_most_the_last_window():
    syntax._PARSED.clear()
    gc.collect()
    live = len(syntax._INTERNED)
    w = syntax.PARSE_WINDOW
    for i in range(10 * w):
        parse_cts(f"and[1](win_q{i}:bot@0, neg[1](win_q{i}))")
    gc.collect()
    # each parse made a variable, its negation and their conjunction
    assert len(syntax._INTERNED) == live + 3 * w
    names = {v.name for v in (ref() for ref in syntax._INTERNED.values())
             if isinstance(v, CVar) and v.name.startswith("win_q")}
    assert names == {f"win_q{i}" for i in range(9 * w, 10 * w)}


def test_a_text_parsed_again_finds_its_nodes():
    text = "or[1](win_r:bot@0,neg[1](and[1](win_r,win_s:bot@0)))"
    first = parse_cts(text)
    assert render(first) == text
    kept = weakref.ref(first)
    del first
    gc.collect()
    again = parse_cts(text)
    assert again is kept()
    assert again._text == text  # printed once, by the first caller
    term = parse_slm(r"e: ((\win_y:e. win_y) win_z)")
    render(term)
    kept = weakref.ref(term)
    del term
    gc.collect()
    assert parse_slm(r"e: ((\win_y:e. win_y) win_z)") is kept()
    assert hasattr(kept(), "_text")


@pytest.mark.parametrize("parser, text, error", [
    (parse_type, "(e -> ", ParseError),
    (parse_slm, r"(\win_x:e. win_x", ParseError),
    (parse_slm, "(win_x:e win_y:e)", TypeMismatch),
    (parse_cts, "neg[0](win_p:bot@0)", RankViolation),
    (parse_cts, "and[1](win_p:bot@0, win_q:e@0)", TypeMismatch),
    (parse_sequent_members, "win_p:e@0 |- win_q", TypeMismatch),
    (parse_sequent_members, "win_p:bot@0 |- neg[0](win_p)", RankViolation),
    # both readings fail: the plain one at the colon, the prefixed one on
    # applying an `e` to an argument
    (parse_slm, "e: (win_x win_y)", TypeMismatch),
])
def test_a_text_that_fails_leaves_the_window_unchanged(parser, text, error):
    for i in range(syntax.PARSE_WINDOW):
        parse_cts(f"win_f{i}:bot@0")
    before = list(syntax._PARSED)
    with pytest.raises(error):
        parser(text)
    assert list(syntax._PARSED) == before  # interned: == is identity


def test_a_parse_that_succeeds_on_its_second_reading_is_kept_once():
    parse_cts("win_g:bot@0")
    before = list(syntax._PARSED)
    term = parse_slm("e: (win_h:(e -> e) win_k)")
    assert list(syntax._PARSED) == [*before[1 - syntax.PARSE_WINDOW:], term]


def test_the_window_keeps_its_own_copy_of_sequent_members():
    ante, succ = parse_sequent_members("win_a:bot@0, win_b:bot@0 |- win_c:bot@0")
    kept = syntax._PARSED[-1]
    assert kept == (*ante, *succ)
    members = tuple(kept)
    ante.append(succ.pop())
    ante.reverse()
    assert syntax._PARSED[-1] is kept and kept == members
