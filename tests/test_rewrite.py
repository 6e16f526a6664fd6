import gc
import time
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from ctt import gen, rewrite, syntax
from ctt.rewrite import (
    DEFAULT_FUEL, NameSupply, NonFunctorOccurrence, NormalStatus, RewriteTrace,
    RuleTag, Step, _all_names, _match_redex, normalize, step, structural_subst,
    substitute,
)
from ctt.syntax import (
    App, Arrow, BOT, Base, CVar, CttError, Lam, Mu, TypeMismatch, Var, children,
    free_vars, neg_type, parse_slm, render, replace_at, subterm_at,
)

import corpus
from reference_syntax import typecheck_slm

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


def replay(trace):
    """The term a trace's steps lead to from its start; a step whose
    `before` is not the subterm at its path raises CttError."""
    term = trace.start
    for s in trace.steps:
        try:
            here = subterm_at(term, s.path)
        except CttError:  # the path leaves the term
            here = None
        if here != s.before:
            raise CttError(f"trace does not replay at {s.path}")
        term = replace_at(term, s.path, s.after)
    return term


def test_trace_replay():
    t = slm(r"e: ((\x:e. x) ((\y:e. y) z))")
    out, trace, _ = normalize(t)
    assert replay(trace) == out


@pytest.mark.parametrize("path", [(0, 0, 5), (2,), (0, 1)])
def test_trace_replay_rejects_a_path_that_leaves_the_term(path):
    """Past a leaf (x), past the last child of an application, past the
    only child of a lambda: each is a step that does not replay."""
    t = slm(r"e: ((\x:e. x) y)")
    _, trace, _ = normalize(t)
    bad = RewriteTrace(t, [Step(path, RuleTag.BETA, t, trace.steps[0].after)])
    with pytest.raises(CttError) as err:
        replay(bad)
    assert str(err.value) == f"trace does not replay at {path}"


def test_normalize_innermost_strategy():
    t = slm(r"e: ((\x:e. x) ((\y:e. y) z))")
    out, trace, _ = normalize(t, strategy="innermost")
    assert render(out, annotate=False) == "z"
    assert trace.steps[0].path == (1,)  # inner redex first


def alpha_equal(t1, t2) -> bool:
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
        return False

    return go(t1, t2, {}, {}, 0)


def test_alpha_equivalence():
    assert alpha_equal(slm(r"\x:e. x"), slm(r"\y:e. y"))
    assert not alpha_equal(slm(r"\x:e. x"), slm(r"\y:t. y"))
    assert alpha_equal(slm("#x:~e. (x w:e)"), slm("#z:~e. (z w:e)"))
    assert not alpha_equal(Var("x", E), Var("y", E))


def test_fresh_name_supply_primes():
    supply = NameSupply(lambda: {"x", "x'"})
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
    assert lhs.ty == rhs.ty
    (n1, _, s1), (n2, _, s2) = normalize(lhs), normalize(rhs)
    assert s1 is s2 is NormalStatus.NORMAL_FORM
    assert alpha_equal(n1, n2)


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
        for i, c in enumerate(children(t)):
            yield from outer(c, path + (i,))

    def inner(t, path):
        for i, c in enumerate(children(t)):
            yield from inner(c, path + (i,))
        yield path

    return inner(term, ()) if innermost else outer(term, ())


def reference_step(term, strategy="outermost"):
    if strategy not in ("outermost", "innermost"):
        raise CttError(f"unknown strategy {strategy!r}")
    supply = NameSupply(lambda: _reference_all_names(term))
    for path in _reference_positions(term, innermost=strategy == "innermost"):
        sub = subterm_at(term, path)
        hit = _match_redex(sub, supply)
        if hit is not None:
            after, tag = hit
            return replace_at(term, path, after), path, tag
    return None


def reference_normalize(term, strategy="outermost", fuel=DEFAULT_FUEL):
    trace = RewriteTrace(term)
    for _ in range(fuel):
        hit = reference_step(term, strategy)
        if hit is None:
            return term, trace, NormalStatus.NORMAL_FORM
        new, path, tag = hit
        trace.steps.append(Step(path, tag, subterm_at(term, path), subterm_at(new, path)))
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
        assert replay(trace) == out
        return out, status, [(s.path, s.rule, s.before, s.after) for s in trace.steps]
    return result


def assert_normalizers_agree(term, fuels=FUELS):
    for strategy in ("outermost", "innermost"):
        for fuel in fuels:
            assert (outcome(normalize, term, strategy, fuel)
                    == outcome(reference_normalize, term, strategy, fuel)), (
                render(term), strategy, fuel)
    assert outcome(step, term) == outcome(reference_step, term)


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


# ---------------------------------------------------------------------------
# runs kept on the term

def test_kept_runs_match_the_reference_at_every_fuel():
    terms = [parse_slm(text) for text in corpus.SLM_TEXTS + RESUME_TEXTS]
    for n in (1, 2, 7, 30):
        chain = identity_chain(n, "y")
        terms += [chain, Lam("y", E, chain), App(Lam("w", E, chain), chain)]
    for term in terms:
        # ascending, the last run has fuel to reach normal form and is kept;
        # descending, the first call answers from it and the rest meet it
        assert_normalizers_agree(term)
        for strategy in ("outermost", "innermost"):
            kept = strategy in getattr(term, "_normal", {})
            raises = isinstance(outcome(reference_normalize, term, strategy)[0], type)
            assert kept is not raises, (render(term), strategy)
        assert_normalizers_agree(term, FUELS[::-1])


@pytest.fixture
def searches(monkeypatch):
    """The number of redex searches built so far, in a one-item list."""
    built = [0]
    search = rewrite._RedexSearch

    def counted(*args):
        built[0] += 1
        return search(*args)

    monkeypatch.setattr(rewrite, "_RedexSearch", counted)
    return built


def test_a_kept_run_answers_each_strategy_without_a_search(searches):
    term = parse_slm(r"((\x:e. ((\y:e. y) x)) ((\z:e. z) w:e))")
    first = {s: outcome(normalize, term, s) for s in ("outermost", "innermost")}
    assert searches == [2] and set(term._normal) == {"outermost", "innermost"}
    assert first["outermost"][2] != first["innermost"][2]  # different steps
    for strategy, want in first.items():
        steps = len(want[2])
        for fuel in (steps, steps + 1, 10 ** 30):
            assert outcome(normalize, term, strategy, fuel) == want
    assert searches == [2]
    # too little fuel for the kept steps searches anew
    for strategy, want in first.items():
        _, _, status = normalize(term, strategy, len(want[2]) - 1)
        assert status is NormalStatus.FUEL_EXHAUSTED
    assert searches == [4]


def test_a_raising_run_keeps_nothing(searches):
    term = parse_slm(RESUME_TEXTS[4])
    for n in (1, 2):
        with pytest.raises(NonFunctorOccurrence):
            normalize(term)
        assert getattr(term, "_normal", None) is None and searches == [n]


def test_a_returned_trace_is_the_callers_own(searches):
    # names of its own, so the first call is a new run
    term = parse_slm(ERASES_Y.replace("q:e", "own_q:e"))
    _, trace, _ = normalize(term)
    want = list(trace.steps)
    trace.steps.clear()
    _, again, _ = normalize(term)
    assert again.steps == want and again.steps is not trace.steps
    again.steps.append(again.steps[0])
    again.steps[0] = None
    _, third, _ = normalize(term)
    assert third.steps == want and searches == [1]


@pytest.mark.parametrize("text", [
    r"e: ((\x:e. x) kept_y)",  # the first redex is the term itself
    r"\x:e. (kept_f:(e -> (e -> e)) x x)",  # normal already
    r"e: (kept_g:(e -> e) ((\x:e. x) kept_y))",  # the first redex below the root
])
def test_a_kept_run_does_not_keep_its_term_alive(text):
    term = parse_slm(text)
    syntax._PARSED.clear()  # the window holds the parse's result
    gc.disable()
    try:
        for strategy in ("outermost", "innermost"):
            out, trace, _ = normalize(term, strategy)
            assert (out is term) is (not trace.steps)
            assert normalize(term, strategy)[1].steps == trace.steps
        assert len(term._normal) == 2
        ref = weakref.ref(term)
        del term, out, trace
        assert ref() is None
    finally:
        gc.enable()


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


# ---------------------------------------------------------------------------
# the two recursive substitution walks that the shared explicit-stack walk
# replaced, kept verbatim (but for their names) as the reference

def reference_substitute(term, x, repl, supply=None):
    """Capture-avoiding substitution term[x := repl]."""
    if supply is None:
        supply = NameSupply(lambda: _all_names(term) | _all_names(repl))
    repl_fv = free_vars(repl)

    def go(t):
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
                    body = reference_substitute(body, b, Var(b2, bty), supply)
                    return cls(b2, bty, go(body))
                return cls(b, bty, go(body))
        raise CttError(f"cannot substitute into {t!r}")

    return go(term)


def reference_structural_subst(body, x, q, y, supply=None):
    """Rewrite every (x R) in `body` into (y (R q)), innermost first."""
    if supply is None:
        supply = NameSupply(lambda: _all_names(body) | _all_names(q) | {x, y})
    q_fv = free_vars(q)
    y_ty = None

    def go(t):
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
                    inner = reference_substitute(inner, b, Var(b2, bty), supply)
                    return cls(b2, bty, go(inner))
                return cls(b, bty, go(inner))
        raise CttError(f"cannot rewrite {t!r}")

    return go(body)


T = Base("t")
FN = Arrow(E, T)
KONT = neg_type(FN)  # ~(e -> t), the type of a mu rule's bound x
SMALL_TYPES = (E, T, BOT, FN, KONT)
# binders, free names of the term and free names of the replacement are
# drawn from one pool, so binders capture and shadow
NAMES = ("x", "y", "y'", "a", "a'")


def pool_term(rng, ty, depth, env):
    """A term aimed at type `ty` over NAMES, each name read at the type
    `env` gives it; one read in twenty takes a random type, so some terms
    are ill-typed and some name occurs free at two types. One leaf in a
    hundred is a ranked variable."""
    roll = rng.random()
    if depth <= 0 or roll < 0.25:
        if rng.random() < 0.01:  # no lambda-mu term: neither walk goes in
            return CVar("x", ty, 0)
        name = "x" if rng.random() < 0.3 else rng.choice(NAMES)
        return Var(name, env[name] if rng.random() < 0.95 else rng.choice(SMALL_TYPES))
    if roll < 0.4 and ty == BOT:  # an application of x, the mu rule's shape
        return App(Var("x", env["x"]), pool_term(rng, FN, depth - 1, env))
    if roll < 0.65:
        b = rng.choice(NAMES)
        if isinstance(ty, Arrow) and rng.random() < 0.7:
            return Lam(b, ty.dom, pool_term(rng, ty.cod, depth - 1, {**env, b: ty.dom}))
        return Mu(b, neg_type(ty), pool_term(rng, BOT, depth - 1, {**env, b: neg_type(ty)}))
    s = rng.choice(SMALL_TYPES[:3])
    return App(pool_term(rng, Arrow(s, ty), depth - 1, env), pool_term(rng, s, depth - 1, env))


class LoggedSupply(NameSupply):
    """A name supply that records the fresh names it gives, in order."""

    def __init__(self, names):
        super().__init__(lambda: set(names))
        self.log = []

    def fresh(self, base):
        name = super().fresh(base)
        self.log.append(name)
        return name


def subst_outcome(fn, args, avoid):
    """What `fn(*args)` returns or raises (class and text), with the fresh
    names drawn: from its own supply when `avoid` is None, else from a
    supply that avoids just `avoid`."""
    supply = None if avoid is None else LoggedSupply(avoid)
    try:
        out = fn(*args, supply)
    except CttError as ex:
        out = type(ex), str(ex)
    return out, None if supply is None else supply.log


def substitution_cases(rng):
    """One substitute and one structural_subst input: the replacement's
    free names are often binder names of the term, sometimes its type is
    not x's, and y is often a binder name too."""
    sig = {n: rng.choice(SMALL_TYPES) for n in NAMES}
    term = pool_term(rng, rng.choice(SMALL_TYPES), rng.randint(1, 5), sig)
    if rng.random() < 0.3:  # a' under a: renaming a to a' renames a' too
        inner = pool_term(rng, BOT, rng.randint(1, 5), {**sig, "a": E, "a'": E})
        term = Lam("a", E, Lam("a'", E, inner))
    roll = rng.random()
    if roll < 0.4:
        repl = Var(rng.choice(NAMES), sig["x"])
    elif roll < 0.8:
        repl = pool_term(rng, sig["x"], 2, sig)
    else:
        repl = pool_term(rng, rng.choice(SMALL_TYPES), 2, sig)
    sig["x"] = KONT if rng.random() < 0.9 else rng.choice(SMALL_TYPES)
    body = pool_term(rng, BOT, rng.randint(1, 5), sig)
    q = Var(rng.choice(NAMES), E) if rng.random() < 0.5 else pool_term(rng, E, 2, sig)
    y = rng.choice(NAMES[1:])
    return (term, "x", repl), (body, "x", q, y)


def test_substitutions_match_the_recursive_references():
    rng = gen.make_rng(7)
    seen = {"result": 0, "renamed": 0, TypeMismatch: 0, NonFunctorOccurrence: 0,
            CttError: 0}
    for case in range(1600):
        for fn, ref, args in zip((substitute, structural_subst),
                                 (reference_substitute, reference_structural_subst),
                                 substitution_cases(rng)):
            # the default supply, and one that avoids only a few names, so
            # a fresh name (a' for a) may be a binder below, renamed in turn
            for avoid in (None, {"a", "y", *rng.sample(NAMES, rng.randint(0, 2))}):
                got = subst_outcome(fn, args, avoid)
                assert got == subst_outcome(ref, args, avoid), (case, fn.__name__, args)
                out, log = got
                kind = out[0] if isinstance(out, tuple) else "result"
                seen[kind] += 1
                seen["renamed"] += bool(log)
    assert sum(seen.values()) - seen["renamed"] == 6400
    # every outcome, and renaming, is met often
    assert min(seen.values()) >= 100, seen


# terms ten times deeper than Python's default recursion limit, built
# directly: the parsers cap nesting well below this
DEEP = 10_000


def f_spine(leaf):
    """(f (f ... (f leaf))), DEEP applications deep."""
    f = Var("f", Arrow(E, E))
    for _ in range(DEEP):
        leaf = App(f, leaf)
    return leaf


def test_substitute_walks_a_term_of_any_depth():
    # the binder y is renamed first, and its whole body walked to do so
    out = substitute(Lam("y", E, f_spine(Var("x", E))), "x", Var("y", E))
    assert out == Lam("y'", E, f_spine(Var("y", E)))


def test_structural_subst_walks_a_term_of_any_depth():
    # (x (g (x (g ... (x r))))): every level is an application of x
    x, y = Var("x", KONT), Var("y", neg_type(T))
    g, r, q = Var("g", Arrow(BOT, FN)), Var("r", FN), Var("q", E)
    body, expected = App(x, r), App(y, App(r, q))
    for _ in range(DEEP):
        body = App(x, App(g, body))
        expected = App(y, App(App(g, expected), q))
    assert structural_subst(body, "x", q, "y") == expected


def test_normalize_contracts_a_redex_around_a_term_of_any_depth():
    redex = App(Lam("x", E, f_spine(Var("x", E))), Var("z", E))
    out, trace, status = normalize(redex)
    assert (out, len(trace.steps), status) == (
        f_spine(Var("z", E)), 1, NormalStatus.NORMAL_FORM)
