"""Acceptance suite: exact reproduction of the worked examples plus the
property sweeps, one criterion per test, each printing a PASS line with
its measured numbers (pytest -s shows them)."""

import itertools
import time

import pytest

from ctt import gen
from ctt.domains import (
    FALSE, Individual, JoinE, MeetE, ModelConfig, TRUE, ba_equal, bottom_at,
    canonical_key, enumerate_domain, make_join, make_meet,
    make_neg, render_elem, top_at,
)
from ctt.semantics import (
    ContextClass, check_equation, cts_rule_harness, eval_slm,
    mu_exhaustive_cases, soundness_harness, canonicalize_cts,
)
from ctt.sequents import (
    Derivation, Pos, Sequent, check_derivation, check_rule_instance, prove,
)
from ctt.syntax import (
    Arrow, BOT, Base, CApp, CBigConj, CConj, CDisj, CNeg, CVar, Var,
    parse_cts,
)

import corpus

E = Base("e")


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_01_bracketed_canonicalization_goldens():
    """The three bracketed displays canonicalize to the frozen trees."""
    t0 = time.time()
    model = corpus.EMPTY_MODEL
    results = []
    for sub, golden in corpus.bracketed_examples():
        value = canonicalize_cts(sub, model)
        assert render_elem(value) == golden  # sorted-children printing
        results.append(value)

    def skeleton(e):
        match e:
            case MeetE(k, _, cs):
                return ("and", k, tuple(skeleton(c) for c in cs))
            case JoinE(k, _, cs):
                return ("or", k, tuple(skeleton(c) for c in cs))
            case _:
                return "leaf" if e.k == 0 else ("neg", e.k, skeleton(e.child))

    assert skeleton(results[0]) == skeleton(results[1])
    assert isinstance(results[1], JoinE) and isinstance(results[2], MeetE)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(1, f"3 goldens exact, shapes 1=2 and 3 swapped, {elapsed:.3f}s")


def test_criterion_02_type_reduction_worked_example():
    from ctt.domains import iso_i, parse_set_of_sets
    model = ModelConfig(base_sizes={"e": 3})
    sets = parse_set_of_sets("{{a},{b,c}}", model, E)
    out = iso_i(sets, model, ty=E)
    assert out == corpus.worked_iso_expected(model)
    assert render_elem(out) == corpus.WORKED_ISO_GOLDEN
    report(2, f"exact DNF {corpus.WORKED_ISO_GOLDEN}")


def _families(atoms):
    subsets = [frozenset(c) for n in range(len(atoms) + 1)
               for c in itertools.combinations(atoms, n)]
    return [frozenset(f) for n in range(len(subsets) + 1)
            for f in itertools.combinations(subsets, n)]


def test_criterion_03_type_reduction_bijection_homomorphism():
    from ctt.domains import iso_i
    t0 = time.time()
    checked = 0
    for size in (1, 2):
        model = ModelConfig(base_sizes={"e": size})
        atoms = enumerate_domain(model, E, 0)
        families = _families(atoms)
        assert len(families) == 2 ** (2 ** size)
        images = {f: iso_i(f, model, ty=E) for f in families}
        keys = {canonical_key(v) for v in images.values()}
        assert len(keys) == len(families)  # injective
        assert keys == {canonical_key(e) for e in enumerate_domain(model, E, 1)}
        universe = frozenset(frozenset(c) for n in range(len(atoms) + 1)
                             for c in itertools.combinations(atoms, n))
        for f, g in itertools.product(families, repeat=2):
            assert ba_equal(iso_i(f & g, model, ty=E),
                            make_meet(1, E, [images[f], images[g]]))
            assert ba_equal(iso_i(f | g, model, ty=E),
                            make_join(1, E, [images[f], images[g]]))
            checked += 2
        for f in families:
            assert ba_equal(iso_i(universe - f, model, ty=E),
                            make_neg(1, images[f]))
            checked += 1
    # size 3: bijection exhaustive, homomorphism sampled
    model = ModelConfig(base_sizes={"e": 3})
    atoms = enumerate_domain(model, E, 0)
    subsets = [frozenset(c) for n in range(len(atoms) + 1)
               for c in itertools.combinations(atoms, n)]
    rng = gen.make_rng(2024)
    families3 = [frozenset(s for s in subsets if rng.random() < 0.5)
                 for _ in range(256)]
    all_families3 = []
    for mask in range(2 ** len(subsets)):
        all_families3.append(
            frozenset(s for i, s in enumerate(subsets) if (mask >> i) & 1))
    assert len(all_families3) == 2 ** (2 ** 3)
    keys3 = {canonical_key(iso_i(f, model, ty=E)) for f in all_families3}
    assert len(keys3) == 256
    universe3 = frozenset(subsets)
    pairs = 0
    while pairs < 500:
        f = rng.choice(families3)
        g = rng.choice(families3)
        assert ba_equal(iso_i(f & g, model, ty=E),
                        make_meet(1, E, [iso_i(f, model, ty=E),
                                         iso_i(g, model, ty=E)]))
        assert ba_equal(iso_i(universe3 - f, model, ty=E),
                        make_neg(1, iso_i(f, model, ty=E)))
        pairs += 1
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(3, f"exhaustive k<=2 ({checked} checks), k=3 bijective + "
              f"{pairs} sampled pairs, {elapsed:.1f}s")


def test_criterion_04_cardinality_law():
    counts = {}
    for size in (1, 2, 3):
        model = ModelConfig(base_sizes={"e": size})
        elems = enumerate_domain(model, E, 1)
        distinct = {canonical_key(e) for e in elems}
        assert len(elems) == len(distinct) == 2 ** (2 ** size)
        counts[size] = len(distinct)
        if size <= 2:  # spot-confirm the key dedup against pairwise ba_equal
            for x, y in itertools.combinations(elems, 2):
                assert not ba_equal(x, y)
    report(4, f"sizes {counts}")


RULES_1_TO_11 = ("refl", "symm", "trans", "cong-app-fun", "cong-app-arg",
                 "cong-lam", "cong-mu", "beta", "eta", "beta-mu", "eta-mu")


@pytest.mark.parametrize("rule", RULES_1_TO_11)
def test_criterion_05_equality_rule_soundness(rule):
    total = 0
    for sizes in ({"e": 2, "t": 2}, {"e": 3, "t": 2}):
        model = ModelConfig(base_sizes=sizes)
        rep = soundness_harness(rule, model=model, trials=60, seed=2026)
        assert not rep.failures, [r.line() for r in rep.failures[:3]]
        total += rep.passes
    assert total >= 100
    report(5, f"{rule}: {total} instances over two models, 0 failures")


def test_criterion_06_mu_rule_exhaustive_contexts():
    counts = {c: 0 for c in ContextClass}
    for cls, lhs, rhs, model, rho in mu_exhaustive_cases(sizes=(2, 2)):
        assert check_equation(lhs, rhs, model, rho)
        lv, rv = eval_slm(lhs, model, rho), eval_slm(rhs, model, rho)
        tau = Base("t")
        if cls is ContextClass.T3:
            assert ba_equal(lv, bottom_at(1, tau)) and ba_equal(rv, bottom_at(1, tau))
        if cls is ContextClass.T4:
            assert ba_equal(lv, top_at(1, tau)) and ba_equal(rv, top_at(1, tau))
        counts[cls] += 1
    assert all(n == 8 for n in counts.values())  # 4 tables x 2 atoms each
    report(6, "32 cases over T1-T4, 0 failures, T3/T4 hit rank-1 bottom/top")


def test_criterion_07_eta_mu_equation_and_negative_control():
    model = ModelConfig(base_sizes={"e": 2, "t": 2})
    rng = gen.make_rng(99)
    holds = 0
    for _ in range(120):
        lhs, rhs, ctx = gen.slm_rule_instance("eta-mu", rng)
        rho = gen.random_ground_assignment(rng, model, ctx)
        assert check_equation(lhs, rhs, model, rho)
        holds += 1
    # negative control: x free in P
    from ctt.syntax import App, Mu
    x_ty = Arrow(BOT, BOT)
    p = App(Var("f", Arrow(BOT, BOT)), App(Var("x", x_ty), Var("w", BOT)))
    lhs = Mu("x", x_ty, App(Var("x", x_ty), p))
    counterexamples = 0
    for f_tab in enumerate_domain(model, Arrow(BOT, BOT), 0):
        for w in (FALSE, TRUE):
            for x_tab in enumerate_domain(model, x_ty, 0):
                rho = {"f": f_tab, "w": w, "x": x_tab}
                if not ba_equal(eval_slm(lhs, model, rho),
                                eval_slm(p, model, rho)):
                    counterexamples += 1
    assert counterexamples > 0
    report(7, f"{holds} guarded instances hold; "
              f"{counterexamples} counterexamples without the guard")


def test_criterion_08_free_algebra_rank_laws():
    rng = gen.make_rng(512)
    model = ModelConfig(base_sizes={"e": 2})
    checked = 0
    while checked < 200:
        k = rng.randint(1, 2)
        x = corpus.random_canon_elem(rng, model, E, max_rank=k, depth=2)
        y = corpus.random_canon_elem(rng, model, E, max_rank=k, depth=2)
        z = corpus.random_canon_elem(rng, model, E, max_rank=k, depth=2)
        assert ba_equal(make_neg(k, make_neg(k, x)), x)
        assert ba_equal(make_neg(k, make_meet(k, E, [x, y])),
                        make_join(k, E, [make_neg(k, x), make_neg(k, y)]))
        assert ba_equal(make_meet(k, E, [x, make_join(k, E, [x, y])]), x)
        assert ba_equal(make_meet(k, E, [x, make_join(k, E, [y, z])]),
                        make_join(k, E, [make_meet(k, E, [x, y]),
                                         make_meet(k, E, [x, z])]))
        checked += 1
    a = Individual(E, "a")
    assert not ba_equal(make_neg(2, make_neg(1, a)), a)
    report(8, f"{checked} random elements through the fixed-rank laws; "
              "cross-rank double complement stays distinct")


def test_criterion_09_scope_demo_exact():
    from ctt.cli import demo_scope_outputs
    table = demo_scope_outputs()
    assert table[1][1] == corpus.SCOPE_GOLDEN_1
    assert table[2][1] == corpus.SCOPE_GOLDEN_2
    # the two inputs differ in exactly one rank annotation
    t1 = parse_cts(corpus.SCOPE_INPUT_1, sig=dict(corpus.SCOPE_SIG))
    t2 = parse_cts(corpus.SCOPE_INPUT_2, sig=dict(corpus.SCOPE_SIG))
    assert isinstance(t1.arg, CConj) and isinstance(t2.arg, CConj)
    assert t1.arg.k == 1 and t2.arg.k == 2
    assert (t1.fun, t1.arg.left, t1.arg.right) == (t2.fun, t2.arg.left, t2.arg.right)
    report(9, "both readings exact; inputs differ only in the one rank")


def _excluded_middle_derivation():
    A = CVar("A", BOT, 0)
    goal = Sequent.make([], [CDisj(1, A, CNeg(1, A))])
    ax = Derivation("ax", Sequent.make([A], [A]))
    neg = Derivation("neg-R", Sequent.make([], [A, CNeg(1, A)]), (ax,), Pos("R", 1))
    return Derivation("or-R", goal, (neg,), Pos("R", 0))


def _mutations():
    """Ten single-side-condition mutations the checker must reject.

    Sequents are built raw (no Sequent.make validation) so the rejection
    comes from the checker itself."""
    raw = lambda ante, succ: Sequent(frozenset(ante), frozenset(succ))
    f0 = CVar("f", Arrow(E, BOT), 0)
    f1 = CVar("f1", Arrow(E, BOT), 1)
    a = CVar("a", E, 0)
    A = CVar("A", BOT, 0)
    Z = CVar("Z", BOT, 0)
    out = []

    def subst(name, concl, prem, pos, direction="down"):
        out.append((name, concl, [prem], name.split()[0], pos, direction))

    # 1: neg-Lr with h = k
    subst("neg-Lr h=k",
          raw([CApp(f1, CNeg(1, a))], []),
          raw([CNeg(1, CApp(f1, a))], []),
          Pos("L", 0, ()))
    # 2: and-Lr with h = k
    subst("and-Lr h=k",
          raw([CApp(f1, CConj(1, a, a))], []),
          raw([CConj(1, CApp(f1, a), CApp(f1, a))], []),
          Pos("L", 0, ()))
    # 3: or-Ll with argument rank above k (the premise even breaks the
    # grammar side condition, which the checker reports as a violation)
    a1 = CVar("a1", E, 2)
    subst("or-Ll h>k",
          raw([CApp(CDisj(1, f0, f0), a1)], []),
          raw([CDisj(1, CApp(f0, a1), CApp(f0, a1))], []),
          Pos("L", 0, ()))
    # 4: neg-Rr premise does not match the rewrite
    subst("neg-Rr mismatched premise",
          raw([], [CApp(f0, CNeg(1, a))]),
          raw([], [CNeg(1, CApp(f0, CVar("b", E, 0)))]),
          Pos("R", 0, ()))
    # 5: substitution without a direction
    subst("neg-Lr missing direction",
          raw([CApp(f0, CNeg(1, a))], []),
          raw([CNeg(1, CApp(f0, a))], []),
          Pos("L", 0, ()), direction=None)
    # 6: ax without a shared member
    out.append(("ax unshared", raw([A], [Z]), [], "ax", None, None))
    # 7: and-R with a swapped subformula
    out.append(("and-R wrong premise",
                raw([], [CConj(1, A, Z)]),
                [raw([], [A]), raw([], [A])],
                "and-R", Pos("R", 0), None))
    # 8: or-R introduced above an intermediate-rank member
    out.append(("or-R rank jump",
                raw([], [CDisj(2, A, CNeg(1, A))]),
                [raw([], [A, CNeg(1, A)])],
                "or-R", Pos("R", 0), None))
    # 9: all-L eigenvariable clash
    out.append(("all-L eigen clash",
                raw([CBigConj(1, "x", BOT, 0)], [A]),
                [raw([A], [A])],
                "all-L", Pos("L", 0), None))
    # 10: neg-L with the premise formula left on the wrong side
    out.append(("neg-L wrong side",
                raw([CNeg(1, A)], [Z]),
                [raw([A], [Z])],
                "neg-L", Pos("L", 0), None))
    return out


def test_criterion_10_checker_and_prover():
    t0 = time.time()
    # accepts: axiom, excluded middle, both scope substitution chains
    ax = Derivation("ax", Sequent.make([CVar("A", BOT, 0)], [CVar("A", BOT, 0)]))
    assert check_derivation(ax) is None
    em = _excluded_middle_derivation()
    assert check_derivation(em) is None
    proofs = 0
    for text, golden in ((corpus.SCOPE_INPUT_1, corpus.SCOPE_GOLDEN_1),
                         (corpus.SCOPE_INPUT_2, corpus.SCOPE_GOLDEN_2)):
        lhs = parse_cts(text, sig=dict(corpus.SCOPE_SIG))
        rhs = parse_cts(golden, sig=dict(corpus.SCOPE_SIG))
        d = prove(Sequent.make([lhs], [rhs]), depth=30)
        assert d is not None and check_derivation(d) is None
        proofs += 1
    # rejects each mutation
    rejected = 0
    for name, concl, prems, rule, pos, direction in _mutations():
        v = check_rule_instance(concl, prems, rule, pos, direction)
        assert v is not None, f"mutation accepted: {name}"
        rejected += 1
    assert rejected == 10
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(10, f"ax + excluded middle + {proofs} scope chains accepted, "
               f"{rejected} mutations rejected, {elapsed:.2f}s")


def test_criterion_11_checker_semantics_agreement():
    from ctt.sequents import INTRO_RULES, SUBST_RULES
    t0 = time.time()
    accepted = 0
    disagreements = 0
    for rule in INTRO_RULES + SUBST_RULES:
        rep = cts_rule_harness(rule, trials=20, seed=7)
        for record in rep.records:
            if record.status == "pass":
                accepted += 1
            elif record.status == "fail":
                disagreements += 1
    assert disagreements == 0
    assert accepted >= 500
    elapsed = time.time() - t0
    report(11, f"{accepted} accepted instances, 0 disagreements, {elapsed:.1f}s")
