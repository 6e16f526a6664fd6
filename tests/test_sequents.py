import gc
import hashlib
import random

import pytest

from ctt import gen, syntax
from ctt.domains import ModelConfig, ba_equal
from ctt.rewrite import NormalStatus, normalize
from ctt.semantics import (
    cts_harness_model, enumerate_assignments, eval_cts, sequent_valid,
    standard_model_family,
)
from ctt.sequents import (
    ALL_RULES, Derivation, Pos, Sequent, Violation, check_derivation,
    check_rule_instance, elaborate_ranks, erase_ranks, parse_derivation_file,
    prove, render_derivation_file, rule_premises, squeeze_out, UBigConj, UConj,
    UApp, UBigDisj, UDisj, UNeg, UVar,
)
from ctt.syntax import (
    Arrow, BOT, Base, CApp, CBigConj, CBigDisj, CConj, CDisj, CNeg, CVar,
    CttError, RankViolation, TypeMismatch, parse_cts, parse_sequent_members,
    parse_slm, render,
)

import corpus

E = Base("e")
A = CVar("A", BOT, 0)
B = CVar("B", BOT, 0)


def seq(text):
    return Sequent.make(*parse_sequent_members(text))


def test_sequent_members_must_be_bot():
    # the parser, Sequent.make and the rule checker give one message
    want = "sequent member x:e@0 has type e, expected bot (at path root)"
    with pytest.raises(TypeMismatch) as parsed:
        parse_sequent_members("x:e@0 |- A")
    with pytest.raises(TypeMismatch) as made:
        Sequent.make([CVar("x", E, 0)], [])
    raw = Sequent(frozenset([CVar("x", E, 0), A]), frozenset([A]))
    v = check_rule_instance(raw, [], "ax", None)
    assert str(parsed.value) == str(made.value) == want
    assert v == Violation("ax", want)


def test_axiom_instance():
    assert check_rule_instance(seq("A |- A"), [], "ax", None) is None
    v = check_rule_instance(seq("A |- B"), [], "ax", None)
    assert isinstance(v, Violation)


def test_and_right_introduction():
    concl = seq("|- and[1](A, B)")
    prems = [seq("|- A"), seq("|- B")]
    assert check_rule_instance(concl, prems, "and-R", Pos("R", 0)) is None
    # premise order is immaterial
    assert check_rule_instance(concl, prems[::-1], "and-R", Pos("R", 0)) is None
    # wrong premise rejected
    bad = [seq("|- A"), seq("|- A")]
    assert check_rule_instance(concl, bad, "and-R", Pos("R", 0)) is not None


def test_neg_left_introduction():
    concl = seq("neg[1](A) |- B")
    prem = [seq("|- A, B")]
    assert check_rule_instance(concl, prem, "neg-L", Pos("L", 0)) is None


def test_big_left_introduction_eigen():
    concl = Sequent.make([CBigConj(1, "x", BOT, 0)], [A])
    good = [Sequent.make([CVar("y", BOT, 0)], [A])]
    assert check_rule_instance(concl, good, "all-L", Pos("L", 0)) is None
    clash = [Sequent.make([A], [A])]  # eigenvariable occurs elsewhere
    assert check_rule_instance(concl, clash, "all-L", Pos("L", 0)) is not None


def test_intro_rank_condition_rejects_intermediate_ranks():
    concl = Sequent.make([], [CDisj(2, A, CNeg(1, A))])
    prem = [Sequent.make([], [A, CNeg(1, A)])]
    v = check_rule_instance(concl, prem, "or-R", Pos("R", 0))
    assert v is not None and "highest" in v.reason


def test_substitution_rule_down_and_up():
    f = CVar("f", Arrow(E, BOT), 0)
    a = CVar("a", E, 0)
    redex = CApp(f, CNeg(1, a))
    contractum = CNeg(1, CApp(f, a))
    down_concl = Sequent.make([redex], [A])
    down_prem = Sequent.make([contractum], [A])
    assert check_rule_instance(down_concl, [down_prem], "neg-Lr",
                               Pos("L", 0, ()), "down") is None
    # the same pair read upward
    assert check_rule_instance(down_prem, [down_concl], "neg-Lr",
                               Pos("L", 0, ()), "up") is None
    # direction is mandatory
    assert check_rule_instance(down_concl, [down_prem], "neg-Lr",
                               Pos("L", 0, ())) is not None


def test_substitution_rule_rank_boundary():
    f1 = CVar("f", Arrow(E, BOT), 1)
    a = CVar("a", E, 0)
    redex = CApp(f1, CNeg(1, a))  # functor rank h = 1 = k
    concl = Sequent.make([redex], [])
    prem = Sequent.make([CNeg(1, CApp(f1, a))], [])
    v = check_rule_instance(concl, [prem], "neg-Lr", Pos("L", 0, ()), "down")
    assert v is not None and "h+1" in v.reason


def test_big_substitution_expands_carrier():
    model = ModelConfig(base_sizes={"e": 2})
    f = CVar("f", Arrow(E, BOT), 0)
    redex = CApp(f, CBigConj(1, "i", E, 0))
    out = squeeze_out(redex, "all", functor_side=False, model=model)
    assert out == CConj(1, CApp(f, CVar("a", E, 0)), CApp(f, CVar("b", E, 0)))
    # no model: reported, not crashed
    assert isinstance(squeeze_out(redex, "all", functor_side=False), str)


def test_big_substitution_functor_side_needs_named_tables():
    model = cts_harness_model()
    a = CVar("a", E, 0)
    redex = CApp(CBigDisj(1, "i", Arrow(E, BOT), 0), a)
    out = squeeze_out(redex, "ex", functor_side=True, model=model)
    assert isinstance(out, CDisj)
    unnamed = ModelConfig(base_sizes={"e": 2})
    assert isinstance(squeeze_out(redex, "ex", functor_side=True, model=unnamed), str)


def test_check_derivation_localizes_failure():
    ax = Derivation("ax", seq("A |- A"))
    bad_mid = Derivation("neg-R", seq("|- neg[1](A), A"), (ax,), Pos("R", 1))
    # break the top node: wrong introduction position
    top = Derivation("or-R", seq("|- or[1](A, neg[1](A))"), (bad_mid,), Pos("R", 0))
    assert check_derivation(top) is None
    broken = Derivation("or-R", seq("|- or[1](A, B)"), (bad_mid,), Pos("R", 0))
    failure = check_derivation(broken)
    assert failure is not None and failure.path == ()


def test_prove_axiom_and_unprovable():
    assert prove(seq("A |- A")).rule == "ax"
    assert prove(seq("A |- B")) is None


def test_prove_excluded_middle_and_recheck():
    d = prove(seq("|- or[1](A, neg[1](A))"), depth=10)
    assert d is not None and check_derivation(d) is None


def test_prove_scope_chains_and_recheck():
    for text, golden in ((corpus.SCOPE_INPUT_1, corpus.SCOPE_GOLDEN_1),
                         (corpus.SCOPE_INPUT_2, corpus.SCOPE_GOLDEN_2)):
        lhs = parse_cts(text, sig=dict(corpus.SCOPE_SIG))
        rhs = parse_cts(golden, sig=dict(corpus.SCOPE_SIG))
        # both directions of the equivalence
        for goal in (Sequent.make([lhs], [rhs]), Sequent.make([rhs], [lhs])):
            d = prove(goal, depth=30)
            assert d is not None
            assert check_derivation(d) is None
            rules = {n.rule for n in d.nodes()}
            assert "ax" in rules and any(r.endswith(("r", "l")) for r in rules)


def test_prove_fails_on_non_equal_canonicalization_goal():
    lhs = parse_cts(corpus.SCOPE_INPUT_1, sig=dict(corpus.SCOPE_SIG))
    wrong = parse_cts(corpus.SCOPE_GOLDEN_2, sig=dict(corpus.SCOPE_SIG))
    assert prove(Sequent.make([lhs], [wrong]), depth=30) is None


def test_prove_respects_depth():
    goal = seq("|- or[1](A, neg[1](A))")
    assert prove(goal, depth=1) is None


# SHA-256 over the derivation files of the 240 goals below ("none" for a
# goal not proved), as the prover wrote them before nodes were hash-consed
RANDOM_GOALS_DIGEST = "1a678388102aafc3736dbc46817e05e78cd31a838638259148e79634c1102c87"


def test_prove_returns_checked_derivations_on_random_goals():
    # goals over gen.cts_member subterms, in shapes that are mostly provable
    # so the checker sees many prover outputs; "free" is mostly not
    rng = random.Random(11)
    found = 0
    digest = hashlib.sha256()
    for _ in range(240):
        sig = {}
        k = rng.choice((1, 2))
        a, b, c = (gen.cts_member(rng, sig, rng.choice((0, k)), depth=1)
                   for _ in range(3))
        shapes = {
            "commute": ([CConj(k, a, b)], [CConj(k, b, a)]),
            "weaken": ([a], [CDisj(k, c, a)]),
            "excluded-middle": ([], [CDisj(k, a, CNeg(k, a))]),
            "double-negation": ([CNeg(k, CNeg(k, a))], [a]),
            "eigenvariable": ([CBigConj(k, "x", BOT, 0), a], [CNeg(k, CNeg(k, a))]),
            "free": ([a, c], [b]),
        }
        ante, succ = shapes[rng.choice(sorted(shapes))]
        d = prove(Sequent.make(ante, succ), depth=12)
        digest.update((render_derivation_file(d) if d is not None else "none\n").encode())
        if d is not None:
            found += 1
            assert check_derivation(d) is None
    assert found >= 150
    assert digest.hexdigest() == RANDOM_GOALS_DIGEST


def test_rule_premises_reads_rules_downward():
    assert rule_premises(seq("and[1](A,B) |- A"), "and-L", Pos("L", 0)) == \
        [seq("A, B |- A")]
    assert rule_premises(seq("|- or[1](A, neg[1](A))"), "or-R", Pos("R", 0)) == \
        [seq("|- A, neg[1](A)")]
    # the eigenvariable defaults to the index name, primed until fresh
    goal = Sequent.make([CBigConj(1, "A", BOT, 0), A], [B])
    assert rule_premises(goal, "all-L", Pos("L", 1)) == \
        [Sequent.make([A, CVar("A'", BOT, 0)], [B])]
    clash = rule_premises(goal, "all-L", Pos("L", 1), eigen=B)
    assert isinstance(clash, Violation) and "occurs free" in clash.reason
    # a substitution rule squeezes the operator out; a stuck one says why
    redex = CApp(CVar("p", Arrow(E, BOT), 0), CBigConj(1, "i", E, 0))
    stuck = rule_premises(Sequent.make([redex], []), "all-Lr", Pos("L", 0))
    assert isinstance(stuck, Violation) and "model" in stuck.reason
    assert isinstance(rule_premises(seq("A |- B"), "ax", None), Violation)


def test_substitution_instances_are_denotational_equalities():
    model = cts_harness_model()
    rng = gen.make_rng(31)
    for _ in range(40):
        rule = rng.choice([r for r in ALL_RULES if r.endswith(("r", "l"))])
        concl, prems, pos, direction = gen.cts_rule_instance(rule, rng, model)
        assert check_rule_instance(concl, prems, rule, pos, direction, model) is None
        seq_in = concl if direction == "down" else prems[0]
        seq_out = prems[0] if direction == "down" else concl
        member_in = seq_in.side(pos.side)[pos.member]
        diff_in = (set(seq_in.ante | seq_in.succ)
                   - set(seq_out.ante | seq_out.succ))
        diff_out = (set(seq_out.ante | seq_out.succ)
                    - set(seq_in.ante | seq_in.succ))
        assert diff_in == {member_in} and len(diff_out) == 1
        (member_out,) = diff_out
        try:
            assignments = enumerate_assignments([member_in, member_out], model)
        except Exception:
            continue
        for rho in assignments:
            assert ba_equal(eval_cts(member_in, model, rho),
                            eval_cts(member_out, model, rho))


def test_accepted_derivations_are_valid_on_models():
    d = prove(seq("|- or[1](A, neg[1](A))"), depth=10)
    assert d is not None
    report = sequent_valid(d.conclusion.side("L"), d.conclusion.side("R"),
                           standard_model_family())
    assert report.valid
    # the scope-chain roots are valid too (checked at carrier size 1,
    # where the arrow-typed constant has a small table pool)
    small = ModelConfig(base_sizes={"e": 1})
    lhs = parse_cts(corpus.SCOPE_INPUT_1, sig=dict(corpus.SCOPE_SIG))
    rhs = parse_cts(corpus.SCOPE_GOLDEN_1, sig=dict(corpus.SCOPE_SIG))
    assert sequent_valid([lhs], [rhs], [small]).valid
    assert sequent_valid([rhs], [lhs], [small]).valid


# --- erasure and elaboration -------------------------------------------------

def test_erase_examples():
    assert erase_ranks(parse_cts("and[1](A:bot@0,B:bot@0)")) == \
        UConj(UVar("A", BOT), UVar("B", BOT))
    u = UNeg(UVar("A", BOT))
    assert erase_ranks(u) == u  # idempotent on unranked input


def test_elaborate_outermost_increasing():
    u = UConj(UVar("A", BOT), UNeg(UVar("B", BOT)))
    out = elaborate_ranks(u)
    assert out == CConj(2, CVar("A", BOT, 0), CNeg(1, CVar("B", BOT, 0)))


def test_elaborate_uniform_same_rank_nesting():
    u = UNeg(UNeg(UVar("A", BOT)))
    out = elaborate_ranks(u, "uniform", k=1)
    assert out == CNeg(1, CNeg(1, CVar("A", BOT, 0)))
    with pytest.raises(RankViolation):
        elaborate_ranks(u, "uniform", k=0)


def test_elaborate_annotations_echoes_or_fails():
    good = parse_cts("and[2](A:bot@0, neg[1](B:bot@0))")
    assert elaborate_ranks(good, "annotations") == good
    bad = CConj(1, CVar("A", BOT, 0), CNeg(2, CVar("B", BOT, 0)))
    with pytest.raises(RankViolation):
        elaborate_ranks(bad, "annotations")


def test_erase_elaborate_round_trip_on_corpus():
    for text in corpus.CTS_TEXTS:
        sub = parse_cts(text)
        u = erase_ranks(sub)
        for strategy, k in (("outermost-increasing", None), ("uniform", 3)):
            ranked = elaborate_ranks(u, strategy, k=k)
            assert erase_ranks(ranked) == u


def test_elaborate_big_operators():
    u = UBigConj("x", E)
    assert elaborate_ranks(u) == CBigConj(1, "x", E, 0)


# --- derivation files --------------------------------------------------------

def test_deep_derivation_checks_without_recursion():
    # neg-Lr read down, then up, repeated: valid at every node, deeper than
    # the interpreter's recursion limit
    a, b = "(p:~e@0 neg[1](c:e@0))", "neg[1]((p:~e@0 c:e@0))"
    lines = [f"node 1 rule=ax dir=- pos=- concl={a} |- {a} premises=-"]
    for i in range(2, 1502):
        concl, direction = (b, "up") if i % 2 == 0 else (a, "down")
        lines.append(f"node {i} rule=neg-Lr dir={direction} pos=L0 "
                     f"concl={concl} |- {a} premises={i - 1}")
    d = parse_derivation_file("\n".join(lines))
    assert check_derivation(d) is None
    assert [n.rule for n in d.nodes()][:2] == ["ax", "neg-Lr"]
    assert len(list(d.nodes())) == 1501


def test_derivation_file_round_trip():
    d = prove(seq("and[1](A,B) |- and[1](B,A)"), depth=10)
    text = render_derivation_file(d)
    back = parse_derivation_file(text)
    assert back.conclusion == d.conclusion
    assert check_derivation(back) is None
    assert render_derivation_file(back) == text


def test_derivation_file_bad_reference():
    with pytest.raises(Exception):
        parse_derivation_file(
            "node 1 rule=ax dir=- pos=- concl=A |- A premises=9\nroot 1\n")


def test_derivation_file_duplicate_node_id():
    first = "node 1 rule=ax dir=- pos=- concl=A |- A premises=-"
    second = first.replace("A |- A", "B |- B")
    with pytest.raises(CttError, match="duplicate node id 1") as info:
        parse_derivation_file(f"{first}\n{second}\nroot 1\n")
    assert repr(second) in str(info.value)


def test_sides_are_sorted_once_and_stay_private():
    s = seq("B, and[1](A,B), A |- C")
    left = s.side("L")
    assert [render(m) for m in left] == sorted(render(m) for m in left)
    left.reverse()  # the caller's copy; the sequent's order is unchanged
    assert s.side("L") == left[::-1]
    assert s.side("L") is not s.side("L")


def test_equal_fields_build_one_sequent_and_unranked_node():
    u = UVar("u", E)
    builds = [(Sequent, frozenset([A]), frozenset([A, B])), (UVar, "u", E),
              (UApp, u, u), (UNeg, u), (UConj, u, u), (UDisj, u, u),
              (UBigConj, "x", E), (UBigDisj, "x", E)]
    for cls, *fields in builds:
        assert cls(*fields) is cls(*fields)
    assert seq("A |- A, B") is seq("A |- B, A")


def test_interning_table_returns_to_its_size_after_a_run():
    # memory is bounded by the problem: once a run's results are dropped,
    # every term, subterm and sequent it built can be freed
    def run():
        text = "y"
        for _ in range(400):
            text = f"((\\x:e. x) {text})"
        out, trace, status = normalize(parse_slm("e: " + text))
        assert (len(trace.steps), status) == (400, NormalStatus.NORMAL_FORM)
        n = 8
        goal = seq(", ".join(f"and[1](A{i},B{i})" for i in range(n)) + " |- "
                   + ", ".join(f"or[1](A{i},D{i})" for i in range(n)))
        d = prove(goal, depth=30)
        assert d is not None and check_derivation(d) is None
        assert parse_derivation_file(render_derivation_file(d)).conclusion is goal

    gc.collect()
    before = len(syntax._INTERNED)
    run()
    gc.collect()
    assert len(syntax._INTERNED) == before


def test_every_rule_is_documented():
    from ctt.sequents import RULE_DOCS
    assert set(RULE_DOCS) == set(ALL_RULES)
    for rule in ALL_RULES:
        if rule.endswith("r") and rule != "ax":
            assert "h+1" in RULE_DOCS[rule]
        elif rule.endswith("l"):
            assert "h," in RULE_DOCS[rule]
