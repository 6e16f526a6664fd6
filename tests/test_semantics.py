import collections
import gc
import itertools
import re
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

from ctt import gen, semantics
from ctt.domains import (
    FALSE, FnTable, Individual, ModelConfig, RankOverflow, TRUE,
    apply_elem, ba_equal, ba_leq, bottom_at, enumerate_domain,
    fn_table, make_join, make_meet, make_neg, render_elem, top_at,
    CapExceeded, _BoundedTable,
)
from ctt.rewrite import step
from ctt.semantics import (
    MAX_ASSIGNMENTS, ContextClass, NonGroundValue, UnassignedVariable,
    canonicalize_cts, check_equation, cts_harness_model,
    cts_rule_harness, eval_cts, eval_slm,
    mu_exhaustive_cases, sequent_semantics, sequent_valid, sequent_verdicts,
    soundness_harness, standard_model_family, symbolic_assignment, table_stats,
    _lookup,
)
from ctt.sequents import INTRO_RULES, SUBST_RULES
from ctt.syntax import (
    App, Arrow, BOT, Base, CApp, CBigConj, CBigDisj, CConj, CDisj, CNeg, CVar,
    CttError, Lam, Mu, TypeMismatch, Var, parse_cts, parse_sequent_members,
    parse_slm, render,
)

import corpus

E = Base("e")


@pytest.fixture
def m3():
    return ModelConfig(base_sizes={"e": 3})


@pytest.fixture
def m22():
    return ModelConfig(base_sizes={"e": 2, "t": 2})


def test_eval_identity_lambda(m3):
    v = eval_slm(parse_slm(r"\x:e. x"), m3, {})
    atoms = enumerate_domain(m3, E, 0)
    assert isinstance(v, FnTable)
    assert all(v.lookup(a) == a for a in atoms)


def test_eval_eta_mu_identity(m3):
    a = Individual(E, "a")
    v = eval_slm(parse_slm("#x:~e. (x p:e)"), m3, {"p": a})
    assert v == a  # the principal image collapses to the atom itself


def test_eval_mu_constant_false_body_is_rank1_bottom(m3):
    # independent oracle: build the lambda table by brute force over every
    # rank-0 argument, read it as a set family, and check it is empty
    term = parse_slm("#x:~e. (n:(bot -> bot) (x p:e))")
    const0 = fn_table(BOT, BOT, {FALSE: FALSE, TRUE: FALSE})
    rho = {"n": const0, "p": Individual(E, "a")}
    family = set()
    for t in enumerate_domain(m3, Arrow(E, BOT), 0):
        body_val = apply_elem(const0, apply_elem(t, rho["p"]))
        if body_val == TRUE:
            family.add(t)
    assert family == set()  # constant-0 table, empty set-of-sets
    v = eval_slm(term, m3, rho)
    assert v == bottom_at(1, E)


def test_eval_lambda_shadow_body_overflows(m3):
    # a lambda whose body is a mu produces shadows on rank-0 inputs
    term = Lam("z", E, Mu("x", Arrow(E, BOT),
                          App(Var("n", Arrow(BOT, BOT)),
                              App(Var("x", Arrow(E, BOT)), Var("z", E)))))
    const0 = fn_table(BOT, BOT, {FALSE: FALSE, TRUE: FALSE})
    with pytest.raises(RankOverflow):
        eval_slm(term, m3, {"n": const0})


def test_eval_unassigned_variable(m3):
    with pytest.raises(UnassignedVariable):
        eval_slm(Var("mystery", E), m3, {})


def test_eval_mu_needs_ground_values(m3):
    term = parse_slm("#x:~e. (x p:e)")
    with pytest.raises(NonGroundValue):
        # p is symbolic: the table is not 0/1-valued
        eval_slm(term, m3, {"p": Individual(E, "zz")})


def test_mu_rank_cap():
    model = ModelConfig(base_sizes={"e": 2}, rank_cap=0)
    with pytest.raises(RankOverflow):
        eval_slm(parse_slm("#x:~e. (x p:e)"), model,
                 {"p": Individual(E, "a")})


def test_eval_cts_conjunction(m3):
    sub = parse_cts("and[1](x:bot@0,y:bot@0)")
    v = eval_cts(sub, m3, {"x": FALSE, "y": TRUE})
    assert v == make_meet(1, BOT, [FALSE, TRUE])


def test_eval_cts_big_meet_ranges_over_carrier(m3):
    v = eval_cts(parse_cts("All[1](x:e@0)"), m3, {})
    assert v == make_meet(1, E, enumerate_domain(m3, E, 0))
    v2 = eval_cts(parse_cts("Ex[2](x:bot@0)"), m3, {})
    assert v2 == make_join(2, BOT, [FALSE, TRUE])


def test_eval_cts_big_meet_rejects_positive_index_rank(m3):
    with pytest.raises(Exception) as exc:
        eval_cts(parse_cts("All[1](x:e@1)"), m3, {})
    assert "rank-0" in str(exc.value)


def test_eval_cts_rank_bound_on_assignment(m3):
    sub = parse_cts("x:bot@0")
    shadow = make_neg(1, FALSE)
    with pytest.raises(Exception):
        eval_cts(sub, m3, {"x": shadow})  # rank 1 value at a rank-0 variable


def test_scope_readings_evaluate_codenotationally():
    # the canonical outputs denote the same elements as the inputs
    model = ModelConfig()
    rho = corpus.scope_assignment()
    for text, golden in ((corpus.SCOPE_INPUT_1, corpus.SCOPE_GOLDEN_1),
                         (corpus.SCOPE_INPUT_2, corpus.SCOPE_GOLDEN_2)):
        sub = parse_cts(text, sig=dict(corpus.SCOPE_SIG))
        value = eval_cts(sub, model, rho)
        assert render_elem(value) == golden


def test_canonical_output_equals_molecular_input_on_corpus(m22):
    for sub, _ in corpus.bracketed_examples():
        molecular = eval_cts(sub, m22, symbolic_assignment([sub], m22))
        again = canonicalize_cts(sub, m22)
        assert ba_equal(molecular, again)


def test_check_equation_beta(m22):
    lhs = parse_slm(r"((\x:e. (f:(e -> bot) x)) y:e)")
    rhs = parse_slm("(f:(e -> bot) y:e)")
    tables = enumerate_domain(m22, Arrow(E, BOT), 0)
    for t in tables:
        for a in enumerate_domain(m22, E, 0):
            assert check_equation(lhs, rhs, m22, {"f": t, "y": a})


def test_check_equation_distinct_atoms(m22):
    assert not check_equation(Var("x", E), Var("y", E), m22,
                              {"x": Individual(E, "a"), "y": Individual(E, "b")})


def test_mu_rule_t2_case_keeps_negation_on_both_sides():
    for cls, lhs, rhs, model, rho in mu_exhaustive_cases():
        if cls is not ContextClass.T2:
            continue
        lv, rv = eval_slm(lhs, model, rho), eval_slm(rhs, model, rho)
        assert ba_equal(lv, rv)
        # both sides are the rank-1 complement of the same atom
        rq = apply_elem(rho["r"], rho["q"])
        assert ba_equal(lv, make_neg(1, rq))


def test_mu_exhaustive_t3_t4_bottom_top():
    for cls, lhs, rhs, model, rho in mu_exhaustive_cases():
        lv, rv = eval_slm(lhs, model, rho), eval_slm(rhs, model, rho)
        assert ba_equal(lv, rv)
        tau = Base("t")
        if cls is ContextClass.T3:
            assert ba_equal(lv, bottom_at(1, tau))
            assert ba_equal(rv, bottom_at(1, tau))
        if cls is ContextClass.T4:
            assert ba_equal(lv, top_at(1, tau))
            assert ba_equal(rv, top_at(1, tau))


def test_beta_mu_constant_body_corner_documented(m22):
    """Under the free reading of truth values, the beta-mu equality fails
    when the bound continuation is unused: the left side is the rank-1
    bottom, the right side a bare truth value (see the decisions notes).
    The harness therefore samples continuation-positive bodies."""
    lhs = parse_slm("(q:~e #x:~e. w:bot)")
    rhs = parse_slm("w:bot")
    rho = {"q": enumerate_domain(m22, Arrow(E, BOT), 0)[0], "w": FALSE}
    assert not check_equation(lhs, rhs, m22, rho)
    assert ba_equal(eval_slm(lhs, m22, rho), bottom_at(1, BOT))


def test_sequent_valid_axiom_shape(m22):
    ante, succ = parse_sequent_members("A |- A")
    report = sequent_valid(ante, succ, [m22])
    assert report.valid
    assert report.checked == 2  # A:bot@0 ranges over 0 and 1


def test_sequent_valid_excluded_middle(m22):
    ante, succ = parse_sequent_members("|- or[1](A, neg[1](A))")
    assert sequent_valid(ante, succ, standard_model_family()).valid


def test_sequent_not_valid_truth_value_is_free_generator(m22):
    ante, succ = parse_sequent_members("|- x:bot@0")
    report = sequent_valid(ante, succ, [m22])
    assert not report.valid
    ce = report.failure
    assert ce is not None  # fails already at x = 0


def test_sequent_rank_jump_invalid(m22):
    # or[2] over a rank-1 complement is not valid: the rank-1 element is an
    # opaque generator at rank 2
    ante, succ = parse_sequent_members("|- or[2](A, neg[1](A))")
    assert not sequent_valid(ante, succ, [m22]).valid


def test_assignment_cap(m22):
    members, _ = parse_sequent_members(
        "x:bot@1, y:bot@1, z:bot@1, v:bot@1 |- x")
    with pytest.raises(CapExceeded):
        corpus.assignments(members, m22, cap=1000)


_CARRIER_TYPES = st.recursive(
    st.sampled_from([BOT, E, Base("t")]),
    lambda kids: st.builds(Arrow, kids, kids), max_leaves=5)


@settings(max_examples=150, deadline=None)
@given(_CARRIER_TYPES, st.dictionaries(st.sampled_from("et"), st.integers(1, 4)))
# one table per over-cap domain: counted as 1, but enumeration refuses it
@example(Arrow(Arrow(Arrow(E, E), E), Base("t")), {"e": 4, "t": 1})
# 2^65536 tables: a count too long to write in decimal
@example(Arrow(Arrow(Base("t"), Arrow(BOT, Base("t"))), BOT), {"t": 4})
def test_pool_size_counts_the_carrier_enumeration_builds(ty, sizes):
    model = ModelConfig(base_sizes=sizes)
    try:
        size = len(enumerate_domain(model, ty, 0))
    except CttError:  # an undeclared base or a carrier over the cap
        assert semantics._enumerated_size(ty, model) is None
        return
    assert semantics._enumerated_size(ty, model) == size
    assert semantics._carrier_size(ty, model) == size
    assert semantics._pool_size(model, ty, 0) == size


def test_empty_sequent_invalid(m22):
    assert not sequent_valid([], [], [m22]).valid


def reference_eval_cts(sub, model, rho):
    """`eval_cts` as a plain recursive walk, before it shared one memoized
    evaluator with the sweep; kept verbatim as the unmemoized reference."""
    match sub:
        case CVar(name, ty, rank):
            return _lookup(name, ty, model, rho, rank_bound=rank)
        case CApp(fun, arg):
            return apply_elem(reference_eval_cts(fun, model, rho),
                              reference_eval_cts(arg, model, rho))
        case CNeg(k, child):
            return make_neg(k, reference_eval_cts(child, model, rho))
        case CConj(k, left, right):
            l, r = reference_eval_cts(left, model, rho), reference_eval_cts(right, model, rho)
            return make_meet(k, l.ty, [l, r])
        case CDisj(k, left, right):
            l, r = reference_eval_cts(left, model, rho), reference_eval_cts(right, model, rho)
            return make_join(k, l.ty, [l, r])
        case CBigConj(k, _, ty, m) | CBigDisj(k, _, ty, m):
            if m != 0:
                raise CttError(
                    f"big operators evaluate only over rank-0 carriers, got @{m}")
            make = make_meet if isinstance(sub, CBigConj) else make_join
            return make(k, ty, enumerate_domain(model, ty, 0))
    raise CttError(f"cannot evaluate {sub!r}")


def reference_decision(ante, succ, model, rho):
    """One assignment decided from scratch: a fresh reference_eval_cts per
    member, then ba_leq of the antecedent meet and the succedent join."""
    lvals = [reference_eval_cts(m, model, rho) for m in ante]
    rvals = [reference_eval_cts(m, model, rho) for m in succ]
    k = max([1] + [v.k for v in lvals + rvals])
    lhs = make_meet(k, BOT, lvals) if lvals else top_at(k, BOT)
    rhs = make_join(k, BOT, rvals) if rvals else bottom_at(k, BOT)
    return ba_leq(lhs, rhs)


def iter_reference_verdicts(ante, succ, models, cap=MAX_ASSIGNMENTS):
    """The per-assignment sweep the memoized one replaced, as
    (model_index, assignment, holds) triples, one model after another."""
    for idx, model in enumerate(models):
        for rho in corpus.assignments(list(ante) + list(succ), model, cap):
            yield idx, rho, reference_decision(ante, succ, model, rho)


def reference_sequent_verdicts(ante, succ, models, cap=MAX_ASSIGNMENTS):
    return list(iter_reference_verdicts(ante, succ, models, cap))


def verdict_triples(ante, succ, models, cap=MAX_ASSIGNMENTS):
    return [(v.model_index, v.assignment, v.holds)
            for v in sequent_verdicts(ante, succ, models, cap)]


def reference_answer(ante, succ, models, cap=MAX_ASSIGNMENTS):
    """What the reference sweep implies for `sequent_valid`: None when every
    verdict holds, else the first failing (model_index, assignment) and the
    number of verdicts up to it. After that failure only the later models'
    assignment spaces are sized; what sizing raises is raised."""
    checked = 0
    for idx, rho, holds in iter_reference_verdicts(ante, succ, models, cap):
        checked += 1
        if not holds:
            for model in models[idx + 1:]:
                corpus.assignments(list(ante) + list(succ), model, cap)
            return (idx, rho), checked
    return None, checked


def valid_answer(ante, succ, models, cap=MAX_ASSIGNMENTS):
    report = sequent_valid(ante, succ, models, cap)
    ce = report.failure
    assert report.valid == (ce is None)
    return (None if ce is None else (ce.model_index, ce.assignment)), report.checked


def outcome(check, *args):
    """What a check returned, or the class and text of what it raised."""
    try:
        return check(*args)
    except Exception as ex:  # noqa: BLE001 - the exception is the outcome
        return type(ex), str(ex)


ORACLE_MODELS = (
    [cts_harness_model(1)], [cts_harness_model(2)], standard_model_family())


def assert_sweeps_agree(ante, succ, models):
    assert (outcome(verdict_triples, ante, succ, models)
            == outcome(reference_sequent_verdicts, ante, succ, models))


def assert_answer_agrees(ante, succ, models):
    answer = outcome(valid_answer, ante, succ, models)
    assert answer == outcome(reference_answer, ante, succ, models)
    reference = outcome(reference_sequent_verdicts, ante, succ, models)
    if isinstance(reference, list):  # the whole sweep ran: read the answer off it
        failing = [(i, rho) for i, rho, holds in reference if not holds]
        assert answer[0] == (failing[0] if failing else None)


def random_sequent(seed, n_ante, n_succ, depth):
    rng = gen.make_rng(seed)
    sig = {}
    ante = [corpus.random_bot_subterm(rng, depth, sig, var_ranks=(0, 0, 1))
            for _ in range(n_ante)]
    succ = [corpus.random_bot_subterm(rng, depth, sig, var_ranks=(0, 0, 1))
            for _ in range(n_succ)]
    return ante, succ


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 3), st.integers(0, 3),
       st.sampled_from(ORACLE_MODELS))
def test_eval_cts_matches_reference_on_random_members(seed, n, depth, models):
    # members over one signature, so equal subterms recur across members;
    # assignments missing names show which variable is evaluated first
    members, _ = random_sequent(seed, n, 0, depth)
    for model in models:
        try:
            rhos = list(itertools.islice(corpus.assignments(members, model), 40))
        except CapExceeded:
            continue
        rhos += [{}] + [dict(list(rho.items())[1:]) for rho in rhos]
        for rho in rhos:
            for m in members:
                assert (outcome(eval_cts, m, model, rho)
                        == outcome(reference_eval_cts, m, model, rho)), render(m)


def rule_instance_sequents(rule, seed):
    try:
        conclusion, premises, _, _ = gen.cts_rule_instance(
            rule, gen.make_rng(seed), cts_harness_model())
    except CapExceeded:
        return []
    return [conclusion, *premises]


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(0, 2), st.integers(0, 2),
       st.integers(0, 3), st.sampled_from(ORACLE_MODELS))
def test_sweep_matches_reference_on_random_sequents(seed, n_ante, n_succ, depth,
                                                    models):
    assert_sweeps_agree(*random_sequent(seed, n_ante, n_succ, depth), models)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(INTRO_RULES + SUBST_RULES), st.integers(0, 2 ** 32),
       st.sampled_from(ORACLE_MODELS))
def test_sweep_matches_reference_on_rule_instances(rule, seed, models):
    for seq in rule_instance_sequents(rule, seed):
        assert_sweeps_agree(seq.side("L"), seq.side("R"), models)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from(INTRO_RULES + SUBST_RULES),
       st.integers(0, 2), st.integers(0, 2), st.integers(0, 3),
       st.sampled_from(ORACLE_MODELS))
def test_sequent_valid_answers_what_the_reference_implies(seed, rule, n_ante, n_succ,
                                                          depth, models):
    sequents = [random_sequent(seed, n_ante, n_succ, depth)]
    sequents += [(s.side("L"), s.side("R")) for s in rule_instance_sequents(rule, seed)]
    for ante, succ in sequents:
        assert_answer_agrees(ante, succ, models)


def test_sweep_raises_what_the_reference_raises(m22):
    # a model constant above the variable's rank bound
    model = ModelConfig(base_sizes={"e": 2}, constants={"c": make_neg(1, FALSE)})
    low = [CVar("c", BOT, 0)]
    for check in (sequent_valid, verdict_triples, reference_sequent_verdicts):
        with pytest.raises(TypeMismatch):
            check(low, [], [model])
    # an assignment that leaves a variable out
    ante, succ = parse_sequent_members("A |- B")
    for decide in (sequent_semantics, reference_decision):
        with pytest.raises(UnassignedVariable):
            decide(ante, succ, m22, {"A": TRUE})
    # an assignment space over the cap, refused before any enumeration
    members, _ = parse_sequent_members("x:bot@1, y:bot@1, z:bot@1, v:bot@1 |- x")
    with pytest.raises(CapExceeded):
        corpus.assignments(members, m22, 1000)  # at the call, before any next()
    for check in (sequent_valid, verdict_triples, reference_sequent_verdicts):
        with pytest.raises(CapExceeded):
            check(members, [], [m22], 1000)


def test_sweep_evaluates_a_member_once_per_value_of_its_own_variables(m22, monkeypatch):
    # neg[1](A) uses one of the three variables, so the sweep's 8
    # assignments meet 2 of its projections; every call is counted,
    # whether or not the evaluation table then holds the value
    calls = collections.Counter()
    denote = semantics._denote

    def counting(sub, *args):
        calls[sub] += 1
        return denote(sub, *args)

    monkeypatch.setattr(semantics, "_denote", counting)
    ante, succ = parse_sequent_members("neg[1](A:bot@0) |- B:bot@0, C:bot@0")
    assert len(list(sequent_verdicts(ante, succ, [m22]))) == 8
    assert [calls[m] for m in ante + succ] == [2, 2, 2]
    # a member met twice shares its lookups; valid, so every assignment is decided
    calls.clear()
    ante, succ = parse_sequent_members("neg[1](A:bot@0) |- B:bot@0, neg[1](A:bot@0), C:bot@0")
    report = sequent_valid(ante, succ, [m22])
    assert report.valid and report.checked == 8
    assert [calls[m] for m in ante + succ] == [2, 2, 2, 2]


def test_sweep_decides_each_tuple_of_member_values_once_across_models(monkeypatch):
    # truth values are the same elements in every model of the family, so
    # its 24 assignments meet 8 tuples of member values
    decided = []
    decide = semantics._decide
    monkeypatch.setattr(semantics, "_decide",
                        lambda values, n_ante: decided.append(values) or decide(values, n_ante))
    ante, succ = parse_sequent_members("neg[1](A:bot@0) |- B:bot@0, neg[1](A:bot@0), C:bot@0")
    assert sequent_valid(ante, succ, standard_model_family()).checked == 24
    assert len(decided) == len(set(decided)) == 8


OVER_CAP_IN_LAST_MODEL = ("|- x:bot@0, (f:(e -> bot)@0 u:e@0), (g:(e -> bot)@0 w:e@0), "
                          "(h:(e -> bot)@0 v:e@0)")


def test_over_cap_model_after_the_counterexample_still_raises():
    # model 0 refutes the sequent at its first assignment, but the e = 3
    # model's assignment space is over the cap, so the full sweep raises
    ante, succ = parse_sequent_members(OVER_CAP_IN_LAST_MODEL)
    first = next(sequent_verdicts(ante, succ, standard_model_family()))
    assert (first.model_index, first.holds) == (0, False)
    with pytest.raises(CapExceeded, match=r"^assignment space 4608 exceeds the cap 4096$"):
        sequent_valid(ante, succ, standard_model_family())
    report = sequent_valid(ante, succ, standard_model_family()[:2])
    assert (report.checked, report.failure) == (1, first)


# ---------------------------------------------------------------------------
# the evaluation table, which lives for the process: every case below runs
# with the table warm from what ran before it, and compares against the
# references, or against `eval_slm` through an empty table

def cold(check, *args):
    """The `outcome` of `check` through an empty evaluation table, leaving
    the process's table as it was."""
    warm = semantics._EVALS
    semantics._EVALS = _BoundedTable(semantics.EVAL_TABLE_SIZE)
    try:
        return outcome(check, *args)
    finally:
        semantics._EVALS = warm


K0_MEMBER = "(k0:(e -> bot)@0 x:e@0)"
K0_TERM = "(k0:(e -> bot) x:e)"


def assert_k0_answers_agree(model):
    member, term = parse_cts(K0_MEMBER), parse_slm(K0_TERM)
    for x in enumerate_domain(model, E, 0):
        rho = {"x": x}
        assert (outcome(eval_cts, member, model, rho)
                == outcome(reference_eval_cts, member, model, rho))
        assert outcome(eval_slm, term, model, rho) == cold(eval_slm, term, model, rho)
    assert (outcome(valid_answer, [], [member], [model])
            == outcome(reference_answer, [], [member], [model]))


def test_eval_table_keys_on_the_constants_as_well_as_the_base_sizes():
    # equal base sizes, k0 naming two different tables or nothing, used
    # alternately
    tables = enumerate_domain(ModelConfig(base_sizes={"e": 2}), Arrow(E, BOT), 0)
    models = [ModelConfig(base_sizes={"e": 2}, constants={"k0": tab})
              for tab in (tables[1], tables[2])]
    member, a = parse_cts(K0_MEMBER), Individual(E, "a")
    assert eval_cts(member, models[0], {"x": a}) != eval_cts(member, models[1], {"x": a})
    models.append(ModelConfig(base_sizes={"e": 2}))
    for _ in range(3):
        for model in models:
            assert_k0_answers_agree(model)


def test_a_model_cannot_be_assigned():
    tables = enumerate_domain(ModelConfig(base_sizes={"e": 2}), Arrow(E, BOT), 0)
    model = ModelConfig(base_sizes={"e": 2}, constants={"k0": tables[1]})
    for attr in ("base_sizes", "rank_cap", "constants", "names", "sizes", "consts"):
        with pytest.raises(AttributeError):
            setattr(model, attr, getattr(model, attr))
        with pytest.raises(AttributeError):
            delattr(model, attr)
    with pytest.raises(TypeError):
        model.base_sizes["e"] = 3
    with pytest.raises(TypeError):
        model.constants["k0"] = tables[2]
    with pytest.raises(TypeError):
        model.names["k0"] = (tables[2],)
    with pytest.raises(TypeError):
        del model.constants["k0"]
    assert model.base_sizes == {"e": 2} and model.constants == {"k0": tables[1]}


def test_equal_models_are_one_object_with_one_eval_table_part(monkeypatch):
    monkeypatch.setattr(semantics, "_EVALS", _BoundedTable(semantics.EVAL_TABLE_SIZE))
    tab = enumerate_domain(ModelConfig(base_sizes={"e": 2}), Arrow(E, BOT), 0)[1]
    sizes = {"e": 2, "t": 1}
    first = ModelConfig(base_sizes=sizes, rank_cap=3, constants={"k0": tab})
    # the base sizes in another order, passed as pairs, are the same contents
    again = ModelConfig(rank_cap=3, constants=[("k0", tab)],
                        base_sizes=dict(reversed(list(sizes.items()))))
    assert again is first
    assert ModelConfig() is ModelConfig(base_sizes={}, rank_cap=2, constants={})
    member, a = parse_cts(K0_MEMBER), Individual(E, "a")
    value = eval_cts(member, first, {"x": a})
    assert eval_cts(member, again, {"x": a}) is value
    (_, info), = table_stats()
    assert (info.hits, info.misses, info.currsize) == (1, 3, 3)  # k0, x, app
    assert {model for model, _, _ in semantics._EVALS} == {first}
    # a model of other contents gets keys of its own
    other = ModelConfig(base_sizes=sizes, rank_cap=2, constants={"k0": tab})
    assert other is not first
    assert eval_cts(member, other, {"x": a}) is value
    assert {model for model, _, _ in semantics._EVALS} == {first, other}


def test_a_model_is_freed_with_its_last_eval_table_entry(monkeypatch):
    monkeypatch.setattr(semantics, "_EVALS", _BoundedTable(4))
    tab = enumerate_domain(ModelConfig(base_sizes={"e": 2}), Arrow(E, BOT), 0)[1]
    member, a = parse_cts(K0_MEMBER), Individual(E, "a")
    throwaway = ModelConfig(base_sizes={"e": 2}, rank_cap=5, constants={"k0": tab})
    eval_cts(member, throwaway, {"x": a})
    model = weakref.ref(throwaway)
    del throwaway
    gc.collect()
    assert model() is not None  # its three keys name it
    # five evaluations in another model evict those keys
    other = ModelConfig(base_sizes={"e": 2}, constants={"k0": tab})
    for x in enumerate_domain(other, E, 0):
        eval_cts(member, other, {"x": x})
    gc.collect()
    assert model() is None


def test_eval_table_keys_on_the_rank_cap():
    term = parse_slm("#x:~e. (n:(bot -> bot) (x p:e))")  # a rank-1 value
    rho = {"n": fn_table(BOT, BOT, {FALSE: FALSE, TRUE: FALSE}), "p": Individual(E, "a")}
    # equal contents but the cap, used alternately
    for _ in range(2):
        for cap in (2, 0, 1):
            model = ModelConfig(base_sizes={"e": 2}, rank_cap=cap)
            answer = outcome(eval_slm, term, model, rho)
            assert answer == cold(eval_slm, term, model, rho)
            if cap:
                assert answer == bottom_at(1, E)
            else:
                assert answer[0] is RankOverflow


def test_eval_table_stores_nothing_for_an_evaluation_that_raises(m22, monkeypatch):
    monkeypatch.setattr(semantics, "_EVALS", _BoundedTable(semantics.EVAL_TABLE_SIZE))
    capped = ModelConfig(base_sizes={"e": 2}, rank_cap=0)
    mu = parse_slm("#x:~e. (x p:e)")
    raising = [(eval_cts, CVar("A", BOT, 0), m22, {}, UnassignedVariable),
               (eval_slm, Var("A", BOT), m22, {}, UnassignedVariable),
               (eval_slm, mu, capped, {"p": Individual(E, "a")}, RankOverflow)]
    for check, node, model, rho, error in raising:
        for _ in range(2):
            with pytest.raises(error):
                check(node, model, rho)
    (_, info), = table_stats()
    assert (info.hits, info.misses, info.currsize) == (0, 6, 0)
    # a subterm that was evaluated is kept; the node that raised is not
    with pytest.raises(UnassignedVariable):
        eval_cts(parse_cts("and[1](B:bot@0, A:bot@0)"), m22, {"B": TRUE})
    assert table_stats()[0][1].currsize == 1


def test_eval_table_stays_within_its_bound(monkeypatch):
    # a small bound, so that many more distinct evaluations than it holds
    # evict entries, of every model; the answers do not change
    monkeypatch.setattr(semantics, "_EVALS", _BoundedTable(32))
    models = [m for family in ORACLE_MODELS for m in family]
    for seed in range(12):
        members, succ = random_sequent(seed, 2, 1, 2)
        for model in models:
            rhos = list(itertools.islice(corpus.assignments(members, model), 8))
            for rho in rhos:
                for m in members:
                    assert (outcome(eval_cts, m, model, rho)
                            == outcome(reference_eval_cts, m, model, rho)), render(m)
            assert (outcome(valid_answer, members, succ, [model])
                    == outcome(reference_answer, members, succ, [model]))
            (_, info), = table_stats()
            assert info.currsize <= info.maxsize == 32
    assert info.misses > 10 * info.maxsize


def test_eval_table_stats_after_harness_runs(monkeypatch):
    monkeypatch.setattr(semantics, "_EVALS", _BoundedTable(semantics.EVAL_TABLE_SIZE))
    assert not cts_rule_harness("and-L", trials=5, seed=1).failures
    assert not soundness_harness("mu", trials=5, seed=1).failures
    (name, info), = table_stats()
    assert name == "eval" and info.hits > 0
    assert 0 < info.currsize <= info.maxsize == semantics.EVAL_TABLE_SIZE
    # a second mu run finds its 32 exhaustive cases, both sides, in the table
    soundness_harness("mu", trials=0, seed=1)
    assert table_stats()[0][1].hits - info.hits == 64


@pytest.mark.parametrize("rule", [r for r in gen.SLM_RULE_IDS if r != "mu"])
def test_soundness_harness_rules(rule):
    report = soundness_harness(rule, trials=25, seed=11)
    assert not report.failures
    assert report.passes >= 20


def test_soundness_harness_mu():
    report = soundness_harness("mu", trials=25, seed=11)
    assert not report.failures


def test_soundness_harness_detects_corruption():
    report = soundness_harness("mu", trials=30, seed=11, mutate=True)
    assert report.failures  # the sanity control must trip


def test_harness_records_render():
    report = soundness_harness("beta", trials=3, seed=5)
    lines = [r.line() for r in report.records]
    assert all("rule=beta" in ln and "seed=5" in ln for ln in lines)
    for ln in lines:
        match = re.search(r" status=\w+ ms=(\S+)( detail=|$)", ln)
        assert match and float(match.group(1)) >= 0.0


def test_eta_mu_semantic_identity_random(m22):
    rng = gen.make_rng(17)
    for _ in range(60):
        lhs, rhs, ctx = gen.slm_rule_instance("eta-mu", rng)
        rho = gen.random_ground_assignment(rng, m22, ctx)
        assert check_equation(lhs, rhs, m22, rho)


def test_eta_mu_guard_violation_has_counterexample(m22):
    # mu x. (x (f x-applied)) with x free in P: find a model refuting it
    x_ty = Arrow(BOT, BOT)
    p = App(Var("f", Arrow(BOT, BOT)), App(Var("x", x_ty), Var("w", BOT)))
    lhs = Mu("x", x_ty, App(Var("x", x_ty), p))
    found = False
    for f_tab in enumerate_domain(m22, Arrow(BOT, BOT), 0):
        for w in (FALSE, TRUE):
            rho = {"f": f_tab, "w": w, "x": None}
            del rho["x"]
            lv = eval_slm(lhs, m22, rho)
            for x_tab in enumerate_domain(m22, x_ty, 0):
                rv = eval_slm(p, m22, {**rho, "x": x_tab})
                if not ba_equal(lv, rv):
                    found = True
    assert found


def test_bridging_rewrite_steps_hold_semantically(m22):
    rng = gen.make_rng(23)
    for _ in range(40):
        rule = rng.choice(["beta", "eta", "beta-mu", "eta-mu", "mu"])
        lhs, rhs, ctx = gen.slm_rule_instance(rule, rng)
        hit = step(lhs)
        assert hit is not None
        stepped = hit[0]
        rho = gen.random_ground_assignment(rng, m22, ctx)
        try:
            assert check_equation(lhs, stepped, m22, rho)
        except RankOverflow:
            continue


def test_cts_rule_harness_smoke():
    report = cts_rule_harness("and-Rr", trials=8, seed=3)
    assert not [r for r in report.records if r.status == "fail"]
