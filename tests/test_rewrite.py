import time

import pytest
from hypothesis import given, settings, strategies as st

from ctt import gen
from ctt.rewrite import (
    DEFAULT_FUEL, EqVerdict, NameSupply, NonFunctorOccurrence, NormalStatus,
    RewriteTrace, RuleTag, Step, _match_redex, alpha_equal, decide_equal,
    normalize, step, structural_subst, substitute,
)
from ctt.syntax import (
    App, Arrow, BOT, Base, CttError, Lam, Mu, TypeMismatch, Var, free_vars,
    neg_type, parse_slm, render, slm_at, slm_children, slm_replace,
    typecheck_slm,
)

import corpus

E = Base("e")


def slm(text):
    return parse_slm(text)


def test_substitute_basic():
    t = slm(r"e: (x:(e -> e) y)")
    out = substitute(t, "x", slm(r"\z:e. z"))
    assert out == slm(r"e: ((\z:e. z) y)")


def test_substitute_capture_avoided():
    t = slm(r"\y:e. (x:(e -> e) y)")
    out = substitute(t, "x", Var("y", Arrow(E, E)))
    # the binder y is renamed so the free y is not captured
    assert isinstance(out, Lam)
    assert out.binder != "y"
    assert free_vars(out) == {"y": Arrow(E, E)}
    assert out == slm(r"\y':e. (y:(e -> e) y')")


def test_substitute_identity_case():
    q = slm(r"\z:e. z")
    assert substitute(Var("x", Arrow(E, E)), "x", q) == q


def test_substitute_type_mismatch():
    with pytest.raises(TypeMismatch):
        substitute(Var("x", E), "x", slm(r"\z:e. z"))


def test_structural_subst_schema():
    p = slm(r"bot: (x:~(e -> t) r:(e -> t))")
    out = structural_subst(p, "x", Var("q", E), "y")
    assert out == App(Var("y", neg_type(Base("t"))),
                      App(Var("r", Arrow(E, Base("t"))), Var("q", E)))


def test_structural_subst_untouched_without_x():
    p = slm(r"bot: (f:(e -> bot) w:e)")
    assert structural_subst(p, "x", Var("q", E), "y") == p


def test_structural_subst_non_functor_occurrence():
    p = slm("bot: (z:(~e -> bot) x:~e)")
    with pytest.raises(NonFunctorOccurrence):
        structural_subst(p, "x", Var("q", E), "y")


def test_structural_subst_rewrites_innermost_occurrences():
    # (x (g (x r))) has an x-application inside the argument of another
    x_ty = neg_type(Arrow(E, Base("t")))
    r = Var("r", Arrow(E, Base("t")))
    g = Var("g", Arrow(BOT, Arrow(E, Base("t"))))
    inner = App(Var("x", x_ty), r)
    p = App(Var("x", x_ty), App(g, inner))
    out = structural_subst(p, "x", Var("q", E), "y")

    def count_headed(t, name):
        match t:
            case App(Var(n, _), arg):
                return (n == name) + count_headed(arg, name)
            case App(f, a):
                return count_headed(f, name) + count_headed(a, name)
            case Lam(_, _, b) | Mu(_, _, b):
                return count_headed(b, name)
            case _:
                return 0

    assert count_headed(p, "x") == 2
    assert count_headed(out, "y") == 2
    assert count_headed(out, "x") == 0


def test_step_beta_identity():
    t = slm(r"e: ((\x:e. x) y)")
    out, path, tag = step(t)
    assert (render(out, annotate=False), path, tag) == ("y", (), RuleTag.BETA)


def test_step_eta_mu():
    t = slm("#x:~e. (x p:e)")
    out, path, tag = step(t)
    assert tag is RuleTag.ETA_MU
    assert out == Var("p", E)


def test_step_beta_mu():
    t = slm("(q:~e #x:~e. (x w:e))")
    out, path, tag = step(t)
    assert tag is RuleTag.BETA_MU
    assert out == slm("(q:~e w:e)")


def test_step_mu_rule_then_eta_mu():
    t = slm("((#x:~(e -> t). (x r:(e -> t))) q:e)")
    one, _, tag1 = step(t)
    assert tag1 is RuleTag.MU
    assert isinstance(one, Mu)
    two, _, tag2 = step(one)
    assert tag2 is RuleTag.ETA_MU
    assert two == slm("(r:(e -> t) q:e)")


def test_eta_guard_blocks_when_variable_free():
    # \x. (f x) with x free in f's position: eta must not fire
    body = App(App(Var("g", Arrow(E, Arrow(E, E))), Var("x", E)), Var("x", E))
    t = Lam("x", E, body)
    hit = step(t)
    assert hit is None  # no redex anywhere: the eta guard holds


def test_eta_mu_guard_blocks_when_variable_free():
    x_ty = neg_type(BOT)
    t = Mu("x", x_ty, App(Var("x", x_ty), App(Var("x", x_ty), Var("w", BOT))))
    hit = step(t)
    # the only candidate is an eta-mu at the root, blocked by the guard
    assert hit is None


def test_normalize_two_steps():
    t = slm(r"e: ((\x:e. x) ((\y:e. y) z))")
    out, trace, status = normalize(t)
    assert status is NormalStatus.NORMAL_FORM
    assert render(out, annotate=False) == "z"
    assert len(trace.steps) == 2


def test_normalize_fuel_zero():
    t = slm(r"e: ((\x:e. x) y)")
    out, trace, status = normalize(t, fuel=0)
    assert status is NormalStatus.FUEL_EXHAUSTED
    assert out == t and trace.steps == []


def test_trace_replay():
    t = slm(r"e: ((\x:e. x) ((\y:e. y) z))")
    out, trace, _ = normalize(t)
    assert trace.replay() == out


def test_normalize_innermost_strategy():
    t = slm(r"e: ((\x:e. x) ((\y:e. y) z))")
    out, trace, _ = normalize(t, strategy="innermost")
    assert render(out, annotate=False) == "z"
    assert trace.steps[0].path == (1,)  # inner redex first


def test_decide_equal_reflexive():
    t = slm(r"\x:e. x")
    assert decide_equal(t, t) is EqVerdict.EQUAL_BY_NORMAL_FORM


def test_decide_equal_mu_rule_sides():
    lhs = slm("((#x:~(e -> t). (x r:(e -> t))) q:e)")
    rhs = slm("(r:(e -> t) q:e)")
    assert decide_equal(lhs, rhs) is EqVerdict.EQUAL_BY_NORMAL_FORM


def test_decide_equal_distinct_variables_unknown():
    assert decide_equal(Var("x", E), Var("y", E)) is EqVerdict.UNKNOWN


def test_decide_equal_type_precondition():
    with pytest.raises(TypeMismatch):
        decide_equal(Var("x", E), Var("y", BOT))


def test_alpha_equivalence():
    assert alpha_equal(slm(r"\x:e. x"), slm(r"\y:e. y"))
    assert not alpha_equal(slm(r"\x:e. x"), slm(r"\y:t. y"))
    assert alpha_equal(slm("#x:~e. (x w:e)"), slm("#z:~e. (z w:e)"))
    assert not alpha_equal(Var("x", E), Var("y", E))


def test_fresh_name_supply_primes():
    supply = NameSupply({"x", "x'"})
    assert supply.fresh("x") == "x''"
    assert supply.fresh("x") == "x'''"


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_subject_reduction(seed):
    rng = gen.make_rng(seed)
    tg = gen.TermGen(rng)
    ty = gen.random_type(rng, depth=1)
    term = tg.term(ty, depth=3)
    before = typecheck_slm(term, tg.ctx)
    current = term
    for _ in range(20):
        hit = step(current)
        if hit is None:
            break
        current = hit[0]
        assert typecheck_slm(current, tg.ctx) == before


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_redex_pairs_normalize_together(seed):
    rng = gen.make_rng(seed)
    rule = rng.choice(["beta", "eta", "beta-mu", "eta-mu", "mu"])
    lhs, rhs, ctx = gen.slm_rule_instance(rule, rng)
    assert decide_equal(lhs, rhs) is EqVerdict.EQUAL_BY_NORMAL_FORM


def test_corpus_terms_normalize_within_fuel():
    for text in corpus.SLM_TEXTS:
        t = parse_slm(text)
        out, _, status = normalize(t)
        assert status is NormalStatus.NORMAL_FORM
        assert typecheck_slm(out, free_vars(t)) == t.ty


# ---------------------------------------------------------------------------
# the restart-from-the-root engine that the resumable search replaced, kept
# verbatim (from `step` down) as the reference

def _reference_all_names(term):
    out = set()

    def go(t):
        match t:
            case Var(name, _):
                out.add(name)
            case Lam(b, _, body) | Mu(b, _, body):
                out.add(b)
                go(body)
            case App(fun, arg):
                go(fun)
                go(arg)
    go(term)
    return out


def _reference_positions(term, innermost):
    def outer(t, path):
        yield path
        for i, c in enumerate(slm_children(t)):
            yield from outer(c, path + (i,))

    def inner(t, path):
        for i, c in enumerate(slm_children(t)):
            yield from inner(c, path + (i,))
        yield path

    return inner(term, ()) if innermost else outer(term, ())


def reference_step(term, strategy="outermost"):
    if strategy not in ("outermost", "innermost"):
        raise CttError(f"unknown strategy {strategy!r}")
    supply = NameSupply(_reference_all_names(term))
    for path in _reference_positions(term, innermost=strategy == "innermost"):
        sub = slm_at(term, path)
        hit = _match_redex(sub, supply)
        if hit is not None:
            after, tag = hit
            return slm_replace(term, path, after), path, tag
    return None


def reference_normalize(term, strategy="outermost", fuel=DEFAULT_FUEL):
    trace = RewriteTrace(term)
    for _ in range(fuel):
        hit = reference_step(term, strategy)
        if hit is None:
            return term, trace, NormalStatus.NORMAL_FORM
        new, path, tag = hit
        trace.steps.append(Step(path, tag, slm_at(term, path), slm_at(new, path)))
        term = new
    if reference_step(term, strategy) is None:
        return term, trace, NormalStatus.NORMAL_FORM
    return term, trace, NormalStatus.FUEL_EXHAUSTED


FUELS = (0, 1, 3, DEFAULT_FUEL)


def outcome(fn, *args):
    """What `fn(*args)` returns (a trace as its replayed steps), or the
    class and text of what it raised."""
    try:
        result = fn(*args)
    except Exception as ex:
        return type(ex), str(ex)
    if fn in (normalize, reference_normalize):
        out, trace, status = result
        assert trace.replay() == out
        return out, status, [(s.path, s.rule, s.before, s.after) for s in trace.steps]
    return result


def assert_normalizers_agree(term):
    for strategy in ("outermost", "innermost"):
        for fuel in FUELS:
            assert (outcome(normalize, term, strategy, fuel)
                    == outcome(reference_normalize, term, strategy, fuel)), (
                render(term), strategy, fuel)
        assert outcome(step, term, strategy) == outcome(reference_step, term, strategy)


def identity_chain(n, binder="x"):
    text = "y"
    for _ in range(n):
        text = f"((\\{binder}:e. {binder}) {text})"
    return parse_slm("e: " + text)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_normalize_matches_reference_on_generated_terms(seed):
    rng = gen.make_rng(seed)
    tg = gen.TermGen(rng)
    assert_normalizers_agree(tg.term(gen.random_type(rng, depth=1), depth=rng.randint(2, 4)))
    for rule in ("beta", "eta", "beta-mu", "eta-mu", "mu"):
        lhs, rhs, _ = gen.slm_rule_instance(rule, rng)
        assert_normalizers_agree(lhs)
        assert_normalizers_agree(rhs)


# the first step erases y, so the mu rule may take y again
ERASES_Y = r"((\z:e. ((#x:~(e -> t). (x r:(e -> t))) q:e)) y:e)"

# a redex made at an ancestor, one made inside a contractum, a name erased
# before the mu rule asks for a fresh one, a stuck mu rule, and chains under
# binders and in both positions
RESUME_TEXTS = [
    r"(((\x:(e -> e). x) \z:e. z) w:e)",
    r"((\f:(e -> e). (g:(e -> e) (f w:e))) \z:e. z)",
    r"(\f:(e -> e). (f ((\u:e. u) w:e)) \z:e. ((\v:e. v) z))",
    ERASES_Y,
    r"((#x:~(e -> t). (k:(~(e -> t) -> bot) x)) q:e)",
    r"(#k:~(e -> t). (k ((\u:(e -> t). u) r:(e -> t))) ((\v:e. v) w:e))",
]


def test_normalize_matches_reference_on_corpus_and_chains():
    for text in corpus.SLM_TEXTS + RESUME_TEXTS:
        assert_normalizers_agree(parse_slm(text))
    for n in (1, 2, 7, 30):
        chain = identity_chain(n, "y")
        assert_normalizers_agree(chain)
        assert_normalizers_agree(Lam("y", E, chain))
        assert_normalizers_agree(App(Lam("w", E, chain), chain))


def test_fresh_names_avoid_only_the_current_term():
    out, trace, _ = normalize(parse_slm(ERASES_Y))
    assert [s.rule for s in trace.steps] == [RuleTag.BETA, RuleTag.MU, RuleTag.ETA_MU]
    assert trace.steps[1].after.binder == "y"
    assert out == slm("(r:(e -> t) q:e)")


def test_normalize_identity_chains_scale():
    chain = identity_chain(400)
    start = time.perf_counter()
    for strategy in ("outermost", "innermost"):
        out, trace, status = normalize(chain, strategy)
        assert (out, len(trace.steps), status) == (Var("y", E), 400, NormalStatus.NORMAL_FORM)
    assert time.perf_counter() - start < 1.0
