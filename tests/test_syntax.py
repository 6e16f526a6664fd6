import os
import pathlib
import random
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from ctt import gen
from ctt import syntax
from ctt.syntax import (
    App, Arrow, BOT, Base, CApp, CBigConj, CBigDisj, CConj, CDisj, CNeg,
    CttError, CVar, Hole, Lam, Mu, ParseError, RankViolation, SyntaxClass,
    TypeMismatch, UnboundVariable, Var, classify, cts_children, cts_signature,
    free_vars, is_neg_type, neg_type, parse, parse_cts, parse_sequent_members,
    parse_slm, parse_type, rank_check, render, render_type, slm_children,
    typecheck_slm,
)

import corpus


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
    # an external context types bare free variables too
    t2 = parse_slm("#x:~e. (x y)", ctx={"y": Base("e")})
    assert t2 == t


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
    with pytest.raises(TypeMismatch) as exc:
        typecheck_slm(t, {"x": Base("e")})
    assert "not an arrow" in str(exc.value)


def test_typecheck_unbound():
    with pytest.raises(UnboundVariable):
        typecheck_slm(Var("z", Base("e")), {})


def test_typecheck_mu_rule_shape():
    t = parse_slm("#x:~e. (x y:e)")
    assert typecheck_slm(t, {"y": Base("e")}) == Base("e")


def test_typecheck_agrees_with_stored_annotations_on_corpus():
    for text in corpus.SLM_TEXTS:
        t = parse_slm(text)
        assert typecheck_slm(t, free_vars(t)) == t.ty


def test_classify_examples():
    assert classify(parse_cts("((g:(e -> (e -> bot))@0 a:e@0) b:e@0)")) is SyntaxClass.ATOMIC
    assert classify(parse_cts("and[1]((f:(e -> bot)@0 a:e@0), r:bot@0)")) is SyntaxClass.CANONICAL
    assert classify(parse_cts("(f:(e -> bot)@0 and[1](a:e@0, b:e@0))")) is SyntaxClass.MOLECULAR


def test_classify_big_operator_index_rank():
    assert classify(parse_cts("All[1](x:e@0)")) is SyntaxClass.CANONICAL
    assert classify(parse_cts("All[1](x:e@1)")) is SyntaxClass.MOLECULAR


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
            case Hole():
                pass
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
    st.builds(Var, _NAMES, _TYPES) | st.just(Hole())
    | st.builds(CVar, _NAMES, _TYPES, st.just(0)),
    lambda kids: st.builds(App, kids, kids) | st.builds(Lam, _NAMES, _TYPES, kids)
    | st.builds(Mu, _NAMES, _TYPES, kids) | kids.map(lambda t: App(t, t)),
    max_leaves=10)


@settings(max_examples=300, deadline=None)
@given(_RAW_TERMS, st.randoms(use_true_random=False))
def test_free_vars_matches_reference_walk(term, rng):
    def subterms(t):
        yield t
        for c in slm_children(t):
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
                    raise TypeMismatch(f"{name} used at {out[name]} and ({ty}, {rank})")
                out[name] = (ty, rank)
            case CBigConj() | CBigDisj():
                pass
            case _:
                for c in cts_children(s):
                    go(c)

    go(sub)
    return out


def reference_ty(t):
    """A node's type as each node class computed it on demand before nodes
    kept it in a slot; an ill-typed node raises TypeMismatch."""
    match t:
        case Var(_, ty) | CVar(_, ty, _) | CBigConj(_, _, ty, _) | CBigDisj(_, _, ty, _):
            return ty
        case Hole():
            return BOT
        case App(fun, _) | CApp(fun, _):
            fty = reference_ty(fun)
            if not isinstance(fty, Arrow):
                raise TypeMismatch(f"{fty} is not an arrow type")
            return fty.cod
        case Lam(_, bty, body):
            return Arrow(bty, reference_ty(body))
        case Mu(_, bty, _):
            if not is_neg_type(bty):
                raise TypeMismatch("mu binder must have a negation type")
            return bty.dom
        case CNeg(_, child) | CConj(_, child, _) | CDisj(_, child, _):
            return reference_ty(child)
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


def reference_height(t):
    kids = slm_children(t) + cts_children(t)
    return 1 + max(map(reference_height, kids), default=0)


def uncached_render(t):
    return syntax._render(t, False, True)


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
    for c in slm_children(t) + cts_children(t):
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
        assert t.height == reference_height(t)


@settings(max_examples=300, deadline=None)
@given(_RAW_TERMS | _RAW_SUBTERMS, st.randoms(use_true_random=False))
def test_node_slots_match_reference_walks(tree, rng):
    assert_slots_match_reference_walks(tree, rng)


def test_node_slots_match_reference_walks_on_corpus():
    rng = random.Random(3)
    for text in corpus.CTS_TEXTS:
        assert_slots_match_reference_walks(parse_cts(text), rng)
    for text in corpus.SLM_TEXTS:
        assert_slots_match_reference_walks(parse_slm(text), rng)


def test_equal_fields_build_one_node():
    e, x, c = Base("e"), Var("x", Base("e")), CVar("c", BOT, 0)
    builds = [
        (Var, "x", e), (App, x, x), (Lam, "x", e, x), (Mu, "k", neg_type(e), x),
        (Hole,), (CVar, "c", BOT, 0), (CApp, c, c), (CNeg, 1, c), (CConj, 1, c, c),
        (CDisj, 1, c, c), (CBigConj, 1, "x", e, 0), (CBigDisj, 1, "x", e, 0),
    ]
    for cls, *fields in builds:
        assert cls(*fields) is cls(*fields)
    # the node classes are distinct even where their fields agree
    assert CConj(1, c, c) is not CDisj(1, c, c)
    assert Lam("x", e, x) is not Mu("x", e, x)


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


def test_render_refuses_a_mu_binder_without_negation_type():
    bad = Mu("x", Base("e"), Hole())
    with pytest.raises(CttError, match="mu binder must have a negation type"):
        render(bad)
    # the same error with assertions compiled out
    code = ("from ctt.syntax import Base, CttError, Hole, Mu, render\n"
            "try:\n    render(Mu('x', Base('e'), Hole()))\n"
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
    sub = gen.random_bot_subterm(rng, depth=3, sig=sig)
    assert parse_cts(render(sub)) == sub


def test_round_trip_on_corpus():
    for text in corpus.SLM_TEXTS:
        t = parse_slm(text)
        assert parse_slm(render(t)) == t
    for text in corpus.CTS_TEXTS:
        s = parse_cts(text)
        assert parse_cts(render(s)) == s


# ---------------------------------------------------------------------------
# the per-character tokenizer, the twice-tokenizing `parse_slm` and the
# `_bare_key` sort order, kept verbatim as references for their replacements

REFERENCE_TOKEN_RE = re.compile(r"""
      (?P<ARROW>->)
    | (?P<TURNSTILE>\|-)
    | (?P<IDENT>[A-Za-z_][A-Za-z0-9_']*)
    | (?P<NAT>[0-9]+)
    | (?P<SYM>[()\[\]{}.,:;@~\\#=])
    | (?P<WS>\s+)
""", re.VERBOSE)


def reference_tokenize(text, mu_sigil=False, start=0):
    toks = []
    i = start
    while i < len(text):
        if text[i] == "#":
            rest = text[i + 1:]
            if mu_sigil and re.match(r"[A-Za-z_]", rest[:1] or ""):
                toks.append(syntax.Token("SYM", "#", i))
                i += 1
                continue
            nl = text.find("\n", i)
            i = len(text) if nl < 0 else nl + 1
            continue
        m = REFERENCE_TOKEN_RE.match(text, i)
        if not m:
            raise ParseError(f"unexpected character {text[i]!r}", i, text)
        kind = m.lastgroup or "WS"
        if kind != "WS":
            toks.append(syntax.Token(kind, m.group(), i))
        i = m.end()
    toks.append(syntax.Token("EOF", "", len(text)))
    return toks


def token_triples(tokenizer, text, mu_sigil):
    try:
        toks = tokenizer(text, mu_sigil)
    except ParseError as ex:
        return ParseError, str(ex), ex.pos
    return [(t.kind, t.text, t.pos) for t in toks]


_SCAN_ALPHABET = "#\n:  \t()[]{}.,;@~\\=-|>_'aAzexy019λμ⊥ÿ\xa0 "


@settings(max_examples=1000, deadline=None)
@given(st.text(st.sampled_from(_SCAN_ALPHABET), max_size=30), st.booleans())
def test_tokenize_matches_reference(text, mu_sigil):
    assert (token_triples(syntax.tokenize, text, mu_sigil)
            == token_triples(reference_tokenize, text, mu_sigil))


def test_tokenize_matches_reference_on_corpus():
    texts = corpus.SLM_TEXTS + corpus.CTS_TEXTS + [
        "#x:~e. (x y:e) # comment", "and[1](p:bot@0, # c\n q:bot@0)", "A, B |- C",
        "table{a->0,b->1}", "#", "#\n#x", "x#y", "e # note: x", "#c\ne: y"]
    for text in texts:
        for mu_sigil in (False, True):
            assert (token_triples(syntax.tokenize, text, mu_sigil)
                    == token_triples(reference_tokenize, text, mu_sigil)), text


class ReferenceSlmParser(syntax._SlmParser):
    def __init__(self, text, ctx, default_ty, start=0):
        self.c = syntax._Cursor(reference_tokenize(text, mu_sigil=True, start=start), text)
        self.known = dict(ctx or {})
        self.default_ty = default_ty


def reference_parse_type(text):
    c = syntax._Cursor(reference_tokenize(text), text)
    ty = syntax._parse_type(c)
    if c.peek().kind != "EOF":
        c.fail("trailing input after type")
    return ty


def reference_parse_slm_once(text, ctx, default_ty, start=0):
    p = ReferenceSlmParser(text, ctx, default_ty, start)
    term = p.term({})
    if p.c.peek().kind != "EOF":
        p.c.fail("trailing input after term")
    typecheck_slm(term, {**(ctx or {}), **p.known})
    return term


def reference_parse_slm(text, ctx=None, default_ty=None):
    try:
        return reference_parse_slm_once(text, ctx, default_ty)
    except CttError as original:
        head, sep, _ = text.partition(":")
        if default_ty is not None or not sep:
            raise
        try:
            prefix_ty = reference_parse_type(head)
        except CttError:
            raise original from None
        try:
            return reference_parse_slm_once(text, ctx, prefix_ty, start=len(head) + 1)
        except CttError as retry:
            if reference_reach(original, text) > reference_reach(retry, text):
                raise original from None
            raise


def reference_reach(error, text):
    return error.pos if isinstance(error, ParseError) else len(text)


def assert_parse_slm_matches_reference(text):
    if "#" in text.partition(":")[0]:
        return  # read differently on purpose: see test_comment_before_prefix_colon
    assert outcome(parse_slm, text) == outcome(reference_parse_slm, text), text


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


def test_parse_slm_matches_reference_on_corpus_and_generated_terms():
    for text in slm_texts():
        assert_parse_slm_matches_reference(text)


_SLM_PIECES = st.sampled_from(
    ["e", "t", "x", "y", "f", ":", "#", "#x", "\\", "(", ")", ".", " ", "\n", "~",
     "->", "bot", "@", "# c:", "e:", "x:e", "λ", "\\x:e.", "#k:~e."])


@settings(max_examples=1000, deadline=None)
@given(st.lists(_SLM_PIECES, max_size=14).map("".join))
def test_parse_slm_matches_reference_on_fuzz(text):
    assert_parse_slm_matches_reference(text)


def test_comment_before_prefix_colon(capsys):
    # a `:` in a comment is no prefix colon, and a `#` glued to an
    # identifier is the mu sigil in the prefix too
    from ctt.cli import main
    for text in ("e # note: x", "#c\ne: y"):
        assert main(["parse", text]) == 2, text
        capsys.readouterr()


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
        subs.append(gen.random_bot_subterm(rng, depth=4, sig={}))
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
