import gc
import hashlib
import pathlib
import random
import re
import time
import weakref

import pytest
from hypothesis import assume, given, settings, strategies as st

from ctt import cli, gen, sequents, syntax
from ctt.cli import main
from ctt.domains import CapExceeded, ModelConfig, ba_equal
from ctt.rewrite import NormalStatus, normalize
from ctt.semantics import (
    MAX_ASSIGNMENTS, _assignment_space, cts_harness_model, eval_cts, sequent_valid,
    standard_model_family,
)
from ctt.sequents import (
    ALL_RULES, INTRO_RULES, Derivation, Pos, Sequent, Violation, check_derivation,
    check_derivation_file, check_rule_instance, parse_derivation_file, prove,
    render_derivation_file, render_sequent, _innermost_redex,
    rule_premises, squeeze_out,
)
from ctt.syntax import (
    Arrow, BOT, Base, CApp, CBigConj, CBigDisj, CConj, CDisj, CNeg, CVar,
    CttError, TypeMismatch, children, parse_cts, parse_sequent_members,
    parse_slm, render, signature_table,
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


def test_position_past_its_side_is_named(capsys, tmp_path):
    # an introduction and a substitution, each pointing past side R's end
    for concl, rule, pos in (("|- neg[1](A)", "neg-R", "R99"),
                             ("|- (p:~e@0 neg[1](x:e@0))", "neg-Rr", "R1")):
        reason = f"position {pos} names no member of side R"
        assert rule_premises(seq(concl), rule, Pos.parse(pos)) == Violation(rule, reason)
        path = tmp_path / "past.proof"
        path.write_text("node 1 rule=ax dir=- pos=- concl=A |- A premises=-\n"
                        f"node 2 rule={rule} dir=down pos={pos} concl={concl} premises=1\n")
        assert main(["check-proof", str(path)]) == 1
        assert capsys.readouterr().out == f"at root: {rule}: {reason}\n"


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


# the operator word of each operator class, kept here so that the reference
# walks do not read the `op` they are compared with
REFERENCE_OPS = {CNeg: "neg", CConj: "and", CDisj: "or", CBigConj: "all", CBigDisj: "ex"}


def reference_prove(goal, depth=30, model=None):
    """The search before phase 2 tried one-premise rules first: members in
    side order, R before L, whatever their rule's premise count."""
    if depth <= 0:
        return None
    if goal.ante & goal.succ:
        return Derivation("ax", goal)
    for side in ("L", "R"):
        for idx, member in enumerate(goal.side(side)):
            hit = _innermost_redex(member)
            if hit is None:
                continue
            path, op, functor_side = hit
            rule, pos = f"{op}-{side}{'l' if functor_side else 'r'}", Pos(side, idx, path)
            premises = rule_premises(goal, rule, pos, model)
            if isinstance(premises, Violation):
                return None
            subproof = reference_prove(premises[0], depth - 1, model)
            if subproof is None:
                return None
            return Derivation(rule, goal, (subproof,), pos, "down")
    for side in ("R", "L"):
        for idx, member in enumerate(goal.side(side)):
            op = REFERENCE_OPS.get(type(member))
            if op is None:
                continue
            rule, pos = f"{op}-{side}", Pos(side, idx)
            premises = rule_premises(goal, rule, pos, model)
            if isinstance(premises, Violation):
                continue
            subproofs = []
            for p in premises:
                sp = reference_prove(p, depth - 1, model)
                if sp is None:
                    break
                subproofs.append(sp)
            else:
                return Derivation(rule, goal, tuple(subproofs), pos)
    return None


def random_goals():
    """240 goals over gen.cts_member subterms, in shapes that are mostly
    provable so the checker sees many prover outputs; "free" is mostly not."""
    rng = random.Random(11)
    goals = []
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
        goals.append(Sequent.make(*shapes[rng.choice(sorted(shapes))]))
    return goals


def size(d):
    return 0 if d is None else len(list(d.nodes()))


# SHA-256 over the derivation files of the random goals ("none" for a goal
# not proved): as the prover writes them with one-premise rules first, and
# as it wrote them before, which the reference search still does
RANDOM_GOALS_DIGEST = "c2b523508e28eb8393a709f6550508f4947b53062e60799b6d1fa498c95c3904"
REFERENCE_DIGEST = "1a678388102aafc3736dbc46817e05e78cd31a838638259148e79634c1102c87"


def test_prove_returns_checked_derivations_on_random_goals():
    digest, reference_digest = hashlib.sha256(), hashlib.sha256()
    proved, reference_proved, sizes, reference_sizes = set(), set(), [], []
    for i, goal in enumerate(random_goals()):
        d, ref = prove(goal, depth=12), reference_prove(goal, depth=12)
        for h, found in ((digest, d), (reference_digest, ref)):
            h.update((render_derivation_file(found) if found is not None
                      else "none\n").encode())
        if d is not None:
            proved.add(i)
            assert check_derivation(d) is None
        if ref is not None:
            reference_proved.add(i)
        sizes.append(size(d))
        reference_sizes.append(size(ref))
    # both orders prove the same goals; one-premise rules first never costs
    # more nodes overall, and on a few goals it runs rules that an axiom
    # under a branching rule would not have needed
    assert proved == reference_proved and len(proved) == 206
    assert (sum(sizes), sum(reference_sizes)) == (833, 1134)
    grown = {i: (r, n) for i, (n, r) in enumerate(zip(sizes, reference_sizes)) if n > r}
    assert grown == {23: (7, 8), 40: (10, 13), 114: (10, 13)}
    assert digest.hexdigest() == RANDOM_GOALS_DIGEST
    assert reference_digest.hexdigest() == REFERENCE_DIGEST


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


def reference_intro_premises(seq, rule, pos, eigen=None):
    """`rule_premises` for an introduction rule as it was built before
    each premise came from the conclusion in one step: the conclusion
    without the formula first, then every premise from that."""
    op, side = rule.rsplit("-", 1)
    if pos is None or pos.side != side or pos.path:
        return Violation(rule, f"position must name a member on side {side}")
    members = seq.side(side)
    if not 0 <= pos.member < len(members):
        return Violation(rule, f"position {pos} names no member of side {side}")
    formula = members[pos.member]
    if formula.op != op:
        return Violation(rule, f"member {render(formula)} is not a {op} node")
    rest = seq.replace(side, formula, [])
    side_members = rest.ante | rest.succ
    ranks = [c.rank for c in children(formula)]
    if op in ("all", "ex"):
        if formula.ty != BOT:
            return Violation(rule, "big-operator introduction needs a bot-typed index")
        ranks = [formula.atom_rank]
    bad = sequents._intro_rank_condition(formula.k, side_members, ranks)
    if bad:
        return Violation(rule, bad)

    match formula:
        case CNeg(_, a):
            return [rest.replace("R" if side == "L" else "L", None, [a])]
        case CConj(_, a, b) | CDisj(_, a, b):
            if (op == "and") == (side == "R"):
                return [rest.replace(side, None, [a]), rest.replace(side, None, [b])]
            return [rest.replace(side, None, [a, b])]
    m = formula.atom_rank
    used = {name for mem in side_members for name in syntax.cts_signature(mem)}
    if eigen is None:
        name = formula.index_var
        while name in used:
            name += "'"
        eigen = CVar(name, BOT, m)
    if not isinstance(eigen, CVar) or eigen.ty != BOT or eigen.rank != m:
        return Violation(rule, f"eigenvariable must be a bot variable at rank {m}")
    if eigen.name in used:
        return Violation(rule, f"eigenvariable {eigen.name} occurs free elsewhere")
    return [rest.replace(side, None, [eigen])]


def intro_instances(seed, model):
    """Instances of every introduction rule: as `gen` draws them, then
    with members added on either side from a pool of the formula's parts,
    the formula itself, variables at ranks 0, 1 and 2 and a negation, so
    that some break the rank condition, some repeat a part and some hold
    the formula on both sides; a big operator's eigenvariable is the one
    its drawn premise adds, none, or a variable that may be bad."""
    rng = random.Random(seed)
    for rule in INTRO_RULES:
        concl, prems, pos, _ = gen.cts_rule_instance(rule, gen.make_rng(seed), model)
        side = rule[-1]
        formula = concl.side(side)[pos.member]
        (added,) = {m for p in prems for m in (p.ante | p.succ)} - (concl.ante | concl.succ) \
            if formula.op in ("all", "ex") else (None,)
        del prems  # so the premises are built anew below
        yield concl, rule, pos, added
        pool = [*children(formula), formula, CNeg(1, A),
                *(CVar(f"x{r}", BOT, r) for r in (0, 1, 2))]
        ante = concl.ante | set(rng.sample(pool, rng.randrange(3)))
        succ = concl.succ | set(rng.sample(pool, rng.randrange(3)))
        wider = Sequent.make(ante, succ)
        eigen = rng.choice((added, None, CVar("x0", BOT, 0), CVar("x1", BOT, 1)))
        yield wider, rule, Pos(side, wider.side(side).index(formula)), eigen


def intro_edge_cases():
    """(conclusion, rule, pos, eigen) for the cases the drawn ones may miss."""
    big = CBigConj(1, "x", BOT, 0)
    return [
        # the formula on both sides
        (seq("and[1](A,B) |- and[1](A,B)"), "and-L", Pos("L", 0), None),
        (seq("and[1](A,B) |- and[1](A,B)"), "and-R", Pos("R", 0), None),
        (seq("neg[1](A) |- neg[1](A)"), "neg-L", Pos("L", 0), None),
        (seq("or[1](A,B) |- or[1](A,B), C"), "or-R", Pos("R", 1), None),
        (Sequent.make([big], [big]), "all-R", Pos("R", 0), None),
        # a part that is already a side member
        (seq("and[1](A,B), A |- B"), "and-L", Pos("L", 1), None),
        (seq("B |- and[1](A,B), A"), "and-R", Pos("R", 1), None),
        (seq("|- or[1](A,B), B"), "or-R", Pos("R", 1), None),
        (seq("or[1](A,B), A |-"), "or-L", Pos("L", 1), None),
        (seq("A |- neg[1](A)"), "neg-R", Pos("R", 0), None),
        # (the index name is taken: the eigenvariable is primed)
        (Sequent.make([CBigDisj(1, "x", BOT, 0), CVar("x", BOT, 0)], []), "ex-L",
         Pos("L", 0), None),
        # a rank violation, by a side member and by a part
        (seq("and[2](A,B), neg[1](C) |-"), "and-L", Pos("L", 0), None),
        (seq("|- and[2](neg[1](A), B)"), "and-R", Pos("R", 0), None),
        (Sequent.make([CBigConj(2, "x", BOT, 1)], []), "all-L", Pos("L", 0), None),
        # a bad eigenvariable: free elsewhere, at a wrong rank, not a
        # variable; and an index that is not bot
        (Sequent.make([big, A], [B]), "all-L", Pos("L", 1), B),
        (Sequent.make([A], [big]), "all-R", Pos("R", 0), CVar("y", BOT, 1)),
        (Sequent.make([A], [big]), "all-R", Pos("R", 0), CNeg(1, B)),
        (Sequent(frozenset(), frozenset([CBigDisj(1, "i", E, 0)])), "ex-R", Pos("R", 0),
         None),
        # positions that name no formula of the rule
        (seq("and[1](A,B) |- C"), "and-L", Pos("L", 1), None),
        (seq("and[1](A,B) |- C"), "or-L", Pos("L", 0), None),
        (seq("and[1](A,B) |- C"), "and-L", Pos("R", 0), None),
    ]


def assert_premises_match_reference(concl, rule, pos, eigen):
    got = rule_premises(concl, rule, pos, eigen=eigen)
    if not isinstance(got, Violation):
        # each premise's sides as `replace` laid them out, against a sort
        # from scratch
        for p in got:
            for which, members in (("L", p.ante), ("R", p.succ)):
                assert p.side(which) == sorted(members, key=render)
            assert render_sequent(p) == (
                f"{', '.join(sorted(map(render, p.ante)))} |- "
                f"{', '.join(sorted(map(render, p.succ)))}").strip()
    want = reference_intro_premises(concl, rule, pos, eigen)
    if isinstance(want, Violation):
        assert got == want  # the same texts
    else:
        assert not isinstance(got, Violation), got
        assert len(got) == len(want) and all(g is w for g, w in zip(got, want))
    return got


def test_intro_premises_match_the_two_step_construction():
    model = cts_harness_model()
    outcomes = {"premises": 0, "violation": 0}
    for seed in range(100):
        for concl, rule, pos, eigen in intro_instances(seed, model):
            got = assert_premises_match_reference(concl, rule, pos, eigen)
            outcomes["violation" if isinstance(got, Violation) else "premises"] += 1
    # the added members break the rank condition or the eigenvariable often
    assert min(outcomes.values()) > 200
    edge = [assert_premises_match_reference(*case) for case in intro_edge_cases()]
    assert [isinstance(g, Violation) for g in edge] == [False] * 11 + [True] * 10


# SHA-256 over the instances gen.cts_rule_instance makes of every sequent
# rule, seeds 0-19: conclusion, premises, position and direction, or the
# exception's text. A change to the generator that draws or builds an
# instance otherwise shows here.
GENERATOR_DIGEST = "ed6e47d983f5386572a6474b84936519309b1171a0bec5250260e4846a46b2c6"


def test_generator_instances_are_pinned():
    model = cts_harness_model()
    digest = hashlib.sha256()
    for rule in sequents.INTRO_RULES + sequents.SUBST_RULES:
        for seed in range(20):
            try:
                concl, prems, pos, direction = gen.cts_rule_instance(
                    rule, gen.make_rng(seed), model)
                line = " ; ".join([render_sequent(concl), *map(render_sequent, prems),
                                   str(pos), str(direction)])
            except CttError as ex:
                line = f"{type(ex).__name__}: {ex}"
            digest.update((line + "\n").encode())
    assert digest.hexdigest() == GENERATOR_DIGEST


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
            assignments = corpus.assignments([member_in, member_out], model)
        except Exception:
            continue
        for rho in assignments:
            assert ba_equal(eval_cts(member_in, model, rho),
                            eval_cts(member_out, model, rho))


def untabled_prove(goal, depth=30, model=None):
    """The search before it was tabled, verbatim: it remembers nothing
    between branches or between calls."""
    if depth <= 0:
        return None

    if goal.ante & goal.succ:
        return Derivation("ax", goal)

    # phase 1: squeeze a Boolean operator out from under an application
    for side in ("L", "R"):
        for idx, member in enumerate(goal.side(side)):
            hit = _innermost_redex(member)
            if hit is None:
                continue
            path, op, functor_side = hit
            rule, pos = f"{op}-{side}{'l' if functor_side else 'r'}", Pos(side, idx, path)
            premises = rule_premises(goal, rule, pos, model)
            if isinstance(premises, Violation):
                return None  # stuck redex (unnamed carrier or rank break)
            subproof = untabled_prove(premises[0], depth - 1, model)
            if subproof is None:
                return None
            return Derivation(rule, goal, (subproof,), pos, "down")

    # phase 2: introduction rules (rank side conditions permitting), the
    # one-premise rules before the branching and-R and or-L, so a branch
    # does not take the rest of the sequent apart once per premise
    candidates = []
    for side in ("R", "L"):
        for idx, member in enumerate(goal.side(side)):
            if member.op is not None:
                candidates.append((f"{member.op}-{side}", Pos(side, idx)))
    candidates.sort(key=lambda c: c[0] in sequents._BRANCHING)  # stable: keeps side order
    for rule, pos in candidates:
        premises = rule_premises(goal, rule, pos, model)
        if isinstance(premises, Violation):
            continue  # side condition failed; try another member
        subproofs = []
        for p in premises:
            sp = untabled_prove(p, depth - 1, model)
            if sp is None:
                break
            subproofs.append(sp)
        else:
            return Derivation(rule, goal, tuple(subproofs), pos)
    return None


def generated_goals(n, seed=5):
    """`n` goals of 0-2 antecedent and 1-2 succedent gen.cts_member
    subterms at depth 2, all of one rank, 1 or 2, per goal."""
    rng = random.Random(seed)
    goals = []
    for _ in range(n):
        sig, k = {}, rng.choice((1, 2))
        ante = [gen.cts_member(rng, sig, k, depth=2) for _ in range(rng.randint(0, 2))]
        succ = [gen.cts_member(rng, sig, k, depth=2) for _ in range(rng.randint(1, 2))]
        goals.append(Sequent.make(ante, succ))
    return goals


def test_prove_agrees_with_the_validity_sweep_on_generated_goals():
    # A goal is sized first and skipped when some model's assignment space
    # exceeds the cap. Goal 140 is an invalid goal under the cap on which
    # the untabled search ran for minutes before it gave up; the failure
    # table answers it in a few hundredths of a second.
    family = standard_model_family()
    outcomes = {"over": 0, True: 0, False: 0}
    for goal in generated_goals(400):
        members = [*goal.ante, *goal.succ]
        try:
            for model in family:
                _assignment_space(members, model, MAX_ASSIGNMENTS)
        except CapExceeded:
            outcomes["over"] += 1
            continue
        valid = sequent_valid(list(goal.ante), list(goal.succ), family).valid
        d = prove(goal, depth=30)
        outcomes[valid] += 1
        if valid:
            assert d is not None and d.conclusion == goal, render_sequent(goal)
            assert check_derivation(d) is None
        else:
            assert d is None, render_sequent(goal)
    assert min(outcomes.values()) >= 10, outcomes


def test_prove_returns_what_the_untabled_search_returns():
    # the tables change how long the search takes, never what it answers:
    # at each depth, with and without a model, on a first call and on a
    # call that finds the goal tabled. Depth 30 goes first, so a success
    # reused at another depth shows at depth 1; the depths then grow, so a
    # failure kept past its call and reused at a larger depth shows too.
    goals = generated_goals(60)
    for model in (None, cts_harness_model()):
        for depth in (30, *range(1, 9)):
            for goal in goals:
                want = untabled_prove(goal, depth, model)
                want = want and render_derivation_file(want)
                for _ in range(2):
                    got = prove(goal, depth, model)
                    assert (got and render_derivation_file(got)) == want, \
                        (render_sequent(goal), depth, model)


def invalid_chain(n):
    """`and[1](Ai,Bi)` for i < n |- `or[1](Ci,Di)` for i < n: invalid, and
    every order of taking its members apart fails."""
    return seq(", ".join(f"and[1](A{i},B{i})" for i in range(n)) + " |- "
               + ", ".join(f"or[1](C{i},D{i})" for i in range(n)))


def test_an_invalid_goal_fails_once_per_sequent_and_depth():
    # in process on a 2-vCPU host, the untabled search took 2.5-3.8 s on
    # the n = 4 chain, the tabled one 14-19 ms
    goal = invalid_chain(4)
    start = time.perf_counter()
    assert prove(goal, depth=30) is None
    assert time.perf_counter() - start < 0.5


def test_a_goal_proved_again_builds_no_sequent(monkeypatch):
    # nor applies a rule: the goal's table answers without a search
    goal = chain_goal(12)
    first = render_derivation_file(prove(goal, depth=60))
    made, real_intern = [], syntax._intern
    monkeypatch.setattr(syntax, "_intern",
                        lambda key, obj: made.append(key[0]) or real_intern(key, obj))
    monkeypatch.setattr(sequents, "rule_premises", None)
    assert render_derivation_file(prove(goal, depth=60)) == first
    assert Sequent not in made


def test_a_proved_goal_dies_without_the_cyclic_collector():
    # a sequent's table names only its premises, never itself nor a
    # derivation that holds it, so reference counting frees a proved goal
    # and every sequent of its derivation once the window lets them go
    def proved():
        goal = fresh_goal("dies")
        d = prove(goal, depth=30)
        assert d is not None and prove(goal, depth=30) is not None
        return [weakref.ref(node.conclusion) for node in d.nodes()]

    gc.collect()
    gc.disable()
    try:
        probes = proved()
        assert all(p() is not None for p in probes)
        syntax._PARSED.clear()
        assert [p() for p in probes] == [None] * len(probes)
    finally:
        gc.enable()


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
    text = "\n".join(lines + ["root 1501"]) + "\n"
    d = parse_derivation_file(text)
    assert check_derivation(d) is None
    assert [n.rule for n in d.nodes()][:2] == ["ax", "neg-Lr"]
    assert len(list(d.nodes())) == 1501
    # writing it back needs no recursion either, and reads back the same
    text = text.replace("~e", "(e -> bot)")  # the printer's type syntax
    assert render_derivation_file(d) == text
    assert render_derivation_file(parse_derivation_file(text)) == text


def test_derivation_file_round_trip():
    d = prove(seq("and[1](A,B) |- and[1](B,A)"), depth=10)
    text = render_derivation_file(d)
    back = parse_derivation_file(text)
    assert back.conclusion == d.conclusion
    assert check_derivation(back) is None
    assert render_derivation_file(back) == text


def test_derivation_file_writes_a_shared_premise_once_per_use():
    # two premise ids naming one node read back as one shared object; it is
    # written once for each time it is used, premises before conclusions
    ax = "rule=ax dir=- pos=- concl=A:bot@0 |- A:bot@0 premises=-"
    and_r = "rule=and-R dir=- pos=R0 concl=A:bot@0 |- and[1](A:bot@0,A)"
    shared = parse_derivation_file(f"node 1 {ax}\nnode 2 {and_r} premises=1,1\n")
    assert shared.premises[0] is shared.premises[1]
    assert render_derivation_file(shared) == (
        f"node 1 {ax}\nnode 2 {ax}\nnode 3 {and_r} premises=1,2\nroot 3\n")


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


README_BLOCK = (pathlib.Path(__file__).parents[1] / "README.md").read_text() \
    .split("## Derivation files", 1)[1].split("```\n")[1]


# odd conclusions for one-line files, each read line by line
SEQUENT_TEXTS = [
    # unannotated names, defaulting to bot@0
    "A, and[1](A,B) |- B", "and[1](A, B) |- or[1](B,A)", "|- or[1](A,neg[1](A))",
    # an annotation on one member sets what a bare name reads in the next
    "A:bot@1 |- A", "A |- A", "A:e@0, A |- A", "(p:~e@0 A:e@0), (p A) |- A",
    "(p:~e@0 a:e@0) |- (p a)", "(p a) |- A",
    # conflicts across members, bare or annotated
    "A |- A:e@0", "A |- A:bot@1", "and[1](A,B) |- and[1](A:bot@1,B)",
    "A:bot@0 |- A:bot@1", "A:bot@1, A:bot@0 |- B:bot@0",
    "and[1](A:bot@1,B:bot@1) |- A:bot@1, neg[1](A:bot@0)",
    # members that parse on their own but are no sequent members
    "x:e@0 |- A:bot@0", "A:bot@0 |- (p:~e@0 x:e@0), x:e@0",
    # spacing
    "A,B|-C", "  A ,  B |-C ", "|- A", "A |-", "|-", "and[1](A,B)|-and[1]( B , A )",
    "and[1]( A ,B ), A|- neg[1] (A)",
    # separators in odd places and bad characters
    "A, |- B", "A |- B,", ", A |- B", "A, , B |- C", "A |- |- B", "A B |- C",
    "A ||- B", "A |-- B", "A |> B", "A |- B$", "A % B |- C", "A |- B # note",
    "A:bot@0 # note, B:bot@0 |- C:bot@0", "A:bot@0 |- B:bot@0 # note, C:bot@0",
    "A |- B)", "(A |- B", "A |- and[1](A", "and[1](A,B |- C)", "A |- B]",
    "and[1,2](A) |- A", "{A} |- A", "A |- (A", "A:bot@ |- A", "A:bot@0:e |- A",
]


def conclusion_error(text):
    """The error `parse_sequent_members` raises on the first conclusion of
    `text` that does not parse, when every line before it is a node line
    with all its fields; else None."""
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            concl = sequents._node_fields(line)[4]
        except ValueError:
            return None
        try:
            parse_sequent_members(concl)
        except CttError as ex:
            return str(ex)
    return None


def test_check_proof_reports_conclusions_that_do_not_parse(capsys, tmp_path):
    """check-proof on each odd sequent text as the conclusion of a one-line
    `ax` file, and on the README's derivation cut every 7 characters:
    exit 0, 1 or 2 and no exception, and exit 2 with the parser's error
    where a conclusion does not parse."""
    files = [f"node 1 rule=ax dir=- pos=- concl={t} premises=-\n" for t in SEQUENT_TEXTS]
    files += [README_BLOCK[:n] for n in range(0, len(README_BLOCK) + 1, 7)]
    path = tmp_path / "case.proof"
    errors = 0
    for text in files:
        path.write_text(text)
        code = main(["check-proof", str(path)])
        err = capsys.readouterr().err
        assert code in (0, 1, 2), text
        error = conclusion_error(text)
        if error is not None:
            assert code == 2 and error in err, text
            errors += 1
    assert errors > 20


def chain_goal(n):
    """An and[1] chain of n atoms |- the reversed chain."""
    atoms = [CVar(f"P{i}", BOT, 0) for i in range(n)]

    def chain(xs):
        out = xs[-1]
        for x in reversed(xs[:-1]):
            out = CConj(1, x, out)
        return out
    return Sequent.make([chain(atoms)], [chain(atoms[::-1])])


def test_prove_takes_a_chain_apart_once():
    # and-L before and-R: each branch of and-R closes at once
    goal = chain_goal(100)
    start = time.perf_counter()
    d = prove(goal, depth=100000)
    elapsed = time.perf_counter() - start
    assert size(d) == 3 * 100 - 2 and check_derivation(d) is None
    assert elapsed < 0.5


def test_sides_are_sorted_once_and_stay_private():
    s = seq("B, and[1](A,B), A |- C")
    left = s.side("L")
    assert [render(m) for m in left] == sorted(render(m) for m in left)
    left.reverse()  # the caller's copy; the sequent's order is unchanged
    assert s.side("L") == left[::-1]
    assert s.side("L") is not s.side("L")


def test_equal_fields_build_one_sequent_and_unranked_node():
    assert Sequent(frozenset([A]), frozenset([A, B])) is \
        Sequent(frozenset([A]), frozenset([A, B]))
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
        # the file's root line, the window's last parse, reads as the goal
        assert set(syntax._PARSED[-1]) == goal.ante | goal.succ

    syntax._PARSED.clear()
    gc.collect()
    before = len(syntax._INTERNED)
    run()
    syntax._PARSED.clear()
    gc.collect()
    assert len(syntax._INTERNED) == before


# --- derivations in the window of recent parses -------------------------------

def fresh_goal(tag):
    """A commuted conjunction over names no other test uses, built without
    a parse, so that only what proves it holds it."""
    a, b = CVar(f"{tag}_a", BOT, 0), CVar(f"{tag}_b", BOT, 0)
    return Sequent.make([CConj(1, a, b)], [CConj(1, b, a)])


def test_a_derivation_outlives_its_caller_for_exactly_the_window():
    def proved():
        d = prove(fresh_goal("win_d"))
        assert d is not None and syntax._PARSED[-1] is d
        return [weakref.ref(node.conclusion) for node in d.nodes()]

    probes = proved()
    assert len(probes) == 4
    for i in range(syntax.PARSE_WINDOW - 1):
        parse_cts(f"win_e{i}:bot@0")
    gc.collect()
    assert all(p() is not None for p in probes)
    parse_cts("win_e_last:bot@0")
    gc.collect()
    assert [p() for p in probes] == [None] * 4


def test_a_prove_that_finds_nothing_adds_no_entry():
    for i in range(syntax.PARSE_WINDOW):
        parse_cts(f"win_f{i}:bot@0")
    before = list(syntax._PARSED)
    assert prove(Sequent.make([A], [B])) is None
    assert prove(fresh_goal("win_g"), depth=1) is None
    assert list(syntax._PARSED) == before  # interned: == is identity


def test_a_checked_file_is_one_entry_of_its_sequents():
    text = render_derivation_file(prove(fresh_goal("win_h")))
    syntax._PARSED.clear()
    concl, nodes, failure = check_derivation_file(text)
    assert (nodes, failure) == (4, None)
    # the root's parse, then the sequents read, one per line
    (root_members, read) = syntax._PARSED
    assert set(root_members) == concl.ante | concl.succ
    assert read[0] is concl and len(set(read)) == 4
    assert {render_sequent(s) for s in read} == \
        {line.split("concl=")[1].split(" premises=")[0]
         for line in text.splitlines()[:-1]}


AX_LINE = "node 1 rule=ax dir=- pos=- concl=A:bot@0 |- A premises=-"


@pytest.mark.parametrize("text", [
    AX_LINE.replace("concl=", "concl=)"),  # a garbled root
    AX_LINE + " premises=2",  # an unknown premise
    # a garbled premise line under a root that reads
    AX_LINE.replace("|- A", "|- A)") +
    "\nnode 2 rule=and-R dir=- pos=R0 concl=A:bot@0 |- and[1](A,A) premises=1,1",
    # an unknown premise under a root that reads
    AX_LINE +
    "\nnode 2 rule=and-R dir=- pos=R0 concl=A:bot@0 |- and[1](A,A) premises=1,3",
])
def test_a_file_that_raises_adds_no_entry_of_its_own(text):
    # neither the sequents read nor the lines read again to name the error
    # stay in the window
    syntax._PARSED.clear()
    with pytest.raises(CttError):
        check_derivation_file(text)
    assert not syntax._PARSED


def test_a_file_that_raises_keeps_the_proofs_in_the_window():
    # a chain proof whose root line is garbled: the lines read to name the
    # error outnumber the window, yet the proof kept before stays, tabled
    d = prove(fresh_goal("win_k"))
    lines = render_derivation_file(prove(chain_goal(40), depth=100000)).splitlines()
    assert len(lines) - 1 > syntax.PARSE_WINDOW
    lines[-2] = lines[-2].replace("concl=", "concl=)")
    before = list(syntax._PARSED)
    with pytest.raises(CttError, match=re.escape(f"bad derivation line {lines[-2]!r}")):
        check_derivation_file("\n".join(lines) + "\n")
    assert list(syntax._PARSED) == before and any(e is d for e in before)


# --- reading derivation files top-down ---------------------------------------

def test_top_down_read_tokenizes_only_the_root_line(monkeypatch):
    d = prove(chain_goal(100), depth=100000)
    text = render_derivation_file(d)
    tokenized, checks = [], []
    real_tokenize, real_check = syntax.tokenize, sequents.check_sequent_member
    monkeypatch.setattr(syntax, "tokenize",
                        lambda text, *rest: tokenized.append(text) or real_tokenize(text, *rest))
    monkeypatch.setattr(sequents, "check_sequent_member",
                        lambda m: checks.append(m) or real_check(m))
    assert check_derivation_file(text) == (d.conclusion, 298, None)
    # the root line alone, where the line-by-line read tokenizes all 298
    assert tokenized == [render_sequent(d.conclusion)]
    # each member a premise adds is checked once: at most two per sequent
    sequents_read = {n.conclusion for n in d.nodes()}
    assert len(checks) <= 2 * len(sequents_read) and len(sequents_read) == 298


def test_check_rule_validates_each_sequent_once(monkeypatch):
    d = prove(chain_goal(30), depth=100000)
    checks = []
    real_check = sequents.check_sequent_member
    monkeypatch.setattr(sequents, "check_sequent_member",
                        lambda m: checks.append(m) or real_check(m))
    assert check_derivation(d) is None
    # each sequent the prover built is checked once; Sequent.make checked the goal
    built = {n.conclusion for n in d.nodes()} - {d.conclusion}
    assert len(checks) == sum(len(s.ante | s.succ) for s in built)
    checks.clear()
    assert check_derivation(d) is None and checks == []


# squeezing All[1](j:e@0) out over the carrier of e (size 2) names a:e@0
# and b:e@0, beside the variable a:e@1
CLASH_GOAL = "(p:(e -> bot)@0 All[1](j:e@0)), (q:(e -> bot)@1 a:e@1) |- (p All[1](i:e@0))"
# the steps that squeeze, written out by hand: every premise names a at two
# signatures, so no line below the root reads back
CLASH_FILE = """\
node 1 rule=ax dir=- pos=- concl=(q:(e -> bot)@1 a:e@1), \
and[1]((p:(e -> bot)@0 a:e@0),(p b:e@0)) |- and[1]((p:(e -> bot)@0 a:e@0),(p b:e@0)) premises=-
node 2 rule=all-Rr dir=down pos=R0 concl=(q:(e -> bot)@1 a:e@1), \
and[1]((p:(e -> bot)@0 a:e@0),(p b:e@0)) |- (p:(e -> bot)@0 All[1](i:e@0)) premises=1
node 3 rule=all-Lr dir=down pos=L0 concl=(p:(e -> bot)@0 All[1](j:e@0)), \
(q:(e -> bot)@1 a:e@1) |- (p:(e -> bot)@0 All[1](i:e@0)) premises=2
root 3
"""


def test_top_down_read_refuses_a_premise_whose_names_clash():
    # the premise renders as text that does not read back, and a
    # line-by-line read refuses it
    model = ModelConfig(base_sizes={"e": 2})
    with pytest.raises(CttError, match="a already annotated as e@1"):
        check_derivation_file(CLASH_FILE, model)


def test_a_squeeze_that_puts_a_name_at_two_signatures_is_refused():
    model = ModelConfig(base_sizes={"e": 2})
    goal = seq(CLASH_GOAL)
    pos = Pos("L", 0)
    want = Violation("all-Lr", "the premise would use a at e@1 and at e@0")
    assert rule_premises(goal, "all-Lr", pos, model) == want
    # the checker refuses the step the old prover took
    member = goal.side("L")[0]
    premise = goal.replace("L", member, [squeeze_out(member, "all", False, model)])
    assert check_rule_instance(goal, [premise], "all-Lr", pos, "down", model) == want
    step = Derivation("all-Lr", goal, (Derivation("ax", premise),), pos, "down")
    assert check_derivation(step, model) == sequents.DerivationFailure((), want)
    # so the prover does not take it; a variable at the carrier's own
    # signature, or of another name, does not clash, and the derivation
    # the prover returns reads back
    assert prove(goal, depth=10, model=model) is None
    for variable in ("a:e@0", "c:e@1"):
        goal = seq(CLASH_GOAL.replace("a:e@1", variable))
        d = prove(goal, depth=10, model=model)
        text = render_derivation_file(d)
        assert check_derivation_file(text, model) == (goal, len(list(d.nodes())), None)


def test_top_down_read_counts_shared_lines_and_reads_unreachable_ones():
    # a premise named twice counts once per use, as the line-by-line read
    # counts it
    ax = "rule=ax dir=- pos=- concl=A:bot@0 |- A:bot@0 premises=-"
    and_r = "rule=and-R dir=- pos=R0 concl=A:bot@0 |- and[1](A:bot@0,A)"
    shared = f"node 1 {ax}\nnode 2 {and_r} premises=1,1\nroot 2\n"
    assert check_derivation_file(shared) == (seq("A |- and[1](A, A)"), 3, None)
    # a line no node reaches is still read
    unreachable = README_BLOCK + "node 9 rule=ax dir=- pos=- concl=A |- |- A premises=-\n"
    with pytest.raises(CttError, match="bad derivation line 'node 9"):
        check_derivation_file(unreachable)


def shared_premise_file(n):
    """The file of a derivation of A |- A, F_0, ..., F_{n-1}, where F_k is
    and[1](or[1](b_k,c_k),or[1](c_k,b_k)): and-R takes F_k apart, or-R
    each branch, and both branches reach one sequent, whose line the two
    name. The file has 3n + 2 lines; the tree has 2^(n+2) - 3 nodes."""
    forms = [seq(f"|- and[1](or[1](b{k},c{k}),or[1](c{k},b{k}))").side("R")[0]
             for k in range(n)]
    goal = Sequent.make([A], [A] + forms)
    lines, nid = [], 1
    steps = []  # (the and-R conclusion, its position, the or-R rule applications)
    for form in forms:
        pos = Pos("R", goal.side("R").index(form))
        branches = []
        for branch in rule_premises(goal, "and-R", pos):
            bpos = Pos("R", next(i for i, m in enumerate(branch.side("R"))
                                 if m not in goal.side("R")))
            (goal_next,) = rule_premises(branch, "or-R", bpos)
            branches.append((branch, bpos))
        steps.append((goal, pos, branches))
        goal = goal_next
    lines.append(f"node 1 rule=ax dir=- pos=- concl={render_sequent(goal)} premises=-")
    below = 1
    for concl, pos, branches in reversed(steps):
        ids = []
        for branch, bpos in branches:
            nid += 1
            lines.append(f"node {nid} rule=or-R dir=- pos={bpos} "
                         f"concl={render_sequent(branch)} premises={below}")
            ids.append(nid)
        nid += 1
        lines.append(f"node {nid} rule=and-R dir=- pos={pos} concl={render_sequent(concl)} "
                     f"premises={ids[0]},{ids[1]}")
        below = nid
    return "\n".join(lines + [f"root {nid}"]) + "\n"


def test_a_line_shared_by_two_nodes_is_checked_once(capsys, tmp_path):
    # 92 lines, whose tree a line-by-line read walks once per path
    text = shared_premise_file(30)
    assert len(text.splitlines()) == 92
    assert check_derivation_file(shared_premise_file(3)) == \
        reference_check_derivation_file(shared_premise_file(3))
    path = tmp_path / "shared.proof"
    path.write_text(text)
    start = time.perf_counter()
    code = main(["check-proof", str(path)])
    elapsed = time.perf_counter() - start
    assert (code, capsys.readouterr().err) == (0, "nodes: 4294967293\n")
    assert elapsed < 1.0


def test_a_shared_line_that_fails_fails_at_once(capsys, tmp_path):
    # every node names the one before twice: 2^40 - 1 nodes, and the first
    # and-R already fails, since its two premises are one sequent
    lines = ["node 1 rule=ax dir=- pos=- concl=A |- A premises=-"]
    lines += [f"node {i} rule=and-R dir=- pos=R0 concl=A |- and[1](A,A) premises={i - 1},{i - 1}"
              for i in range(2, 41)]
    text = "\n".join(lines) + "\n"
    got = check_derivation_file(text)
    assert got[1] == 2 ** 40 - 1 and str(got[2]) == "at root: and-R: premises do not match the rule schema"
    path = tmp_path / "shared.proof"
    path.write_text(text)
    start = time.perf_counter()
    assert main(["check-proof", str(path)]) == 1
    assert capsys.readouterr().out == \
        "at root: and-R: premises do not match the rule schema\n"
    assert time.perf_counter() - start < 1.0


def test_an_edited_line_is_the_one_line_parsed_beside_the_root(monkeypatch):
    d = prove(chain_goal(100), depth=100000)
    lines = render_derivation_file(d).splitlines()
    i = next(i for i, line in enumerate(lines) if " rule=ax " in line)
    lines[i] = lines[i].replace(", ", ",").replace(" |- ", "  |-")
    text = "\n".join(lines) + "\n"
    tokenized = []
    real_tokenize = syntax.tokenize
    monkeypatch.setattr(syntax, "tokenize",
                        lambda text, *rest: tokenized.append(text) or real_tokenize(text, *rest))
    assert check_derivation_file(text) == (d.conclusion, 298, None)
    # its sibling premise line is taken by its rendering, unparsed
    assert tokenized == [render_sequent(d.conclusion), lines[i].split(" concl=")[1]
                         .rsplit(" premises=")[0]]


def reference_innermost_redex(sub, path=()):
    """The recursive walk the `_redex` slots replace."""
    for i, c in enumerate(children(sub)):
        hit = reference_innermost_redex(c, path + (i,))
        if hit is not None:
            return hit
    if isinstance(sub, CApp):
        fun_op, arg_op = REFERENCE_OPS.get(type(sub.fun)), REFERENCE_OPS.get(type(sub.arg))
        if fun_op and sub.fun.rank >= sub.arg.rank:
            return path, fun_op, True
        if arg_op:
            return path, arg_op, False
        if fun_op:
            return path, fun_op, True
    return None


def subterms(t):
    yield t
    for c in children(t):
        yield from subterms(c)


def assert_redex_slots_match_reference_walk(members, rng):
    # ask in a random order, so slots are filled from either side
    order = [t for m in members for t in subterms(m)]
    rng.shuffle(order)
    for t in order + list(members):
        assert _innermost_redex(t) == reference_innermost_redex(t)


def test_innermost_redex_matches_reference_walk():
    rng = random.Random(5)
    members = [m for g in random_goals() for m in g.ante | g.succ]
    members += [parse_cts(t, sig=dict(corpus.SCOPE_SIG))
                for t in (corpus.SCOPE_INPUT_1, corpus.SCOPE_INPUT_2)]
    members += [parse_cts(t) for t in corpus.CTS_TEXTS]
    assert_redex_slots_match_reference_walk(members, rng)
    # a redex under more levels than the interpreter's recursion limit
    f, a = CVar("f", Arrow(E, BOT), 0), CVar("a", E, 0)
    deep = CApp(f, CNeg(1, a))
    for _ in range(5000):
        deep = CNeg(1, deep)
    assert _innermost_redex(deep) == ((0,) * 5000, "neg", False)


# bot-typed members over names that clash at two ranks or types, with
# operators inside applications, on either side; operators are at rank 2,
# above every child, so that most members are well-ranked
_K, _RANK = st.integers(1, 2), st.integers(0, 1)


def _ops(kids):
    return (st.builds(CNeg, st.just(2), kids) | st.builds(CConj, st.just(2), kids, kids)
            | st.builds(CDisj, st.just(2), kids, kids))


def _big(names, ty):
    return (st.builds(CBigConj, _K, st.sampled_from(names), st.just(ty), _RANK)
            | st.builds(CBigDisj, _K, st.sampled_from(names), st.just(ty), _RANK))


_INDIVIDUALS = st.recursive(
    st.builds(CVar, st.sampled_from("ab"), st.just(E), _RANK) | _big("ij", E),
    _ops, max_leaves=3)
_PREDICATES = st.recursive(
    st.builds(CVar, st.sampled_from("pq"), st.just(Arrow(E, BOT)), _RANK)
    | _big("i", Arrow(E, BOT)), _ops, max_leaves=2)
_MEMBERS = st.recursive(
    st.builds(CVar, st.sampled_from("ABa"), st.just(BOT), _RANK)
    | st.builds(CApp, _PREDICATES, _INDIVIDUALS) | _big("xA", BOT),
    _ops, max_leaves=4)


@settings(max_examples=200, deadline=None)
@given(st.lists(_MEMBERS, max_size=3), st.lists(_MEMBERS, max_size=3),
       st.randoms(use_true_random=False))
def test_rendered_sequents_read_back(ante, succ, rng):
    """The top-down read accepts a premise line by its rendering: that
    rendering must read back as the premise whenever the members pass
    `check_sequent_member` and agree on each name's signature, which the
    read checks."""
    assert_redex_slots_match_reference_walk(ante + succ, rng)
    s = Sequent(frozenset(ante), frozenset(succ))
    names = {}
    for m in ante + succ:
        names = syntax._union(names, signature_table(m))
    try:
        s.check()
    except CttError:
        names = None
    assume(names is not None)
    assert Sequent.make(*parse_sequent_members(render_sequent(s))) is s


def strict_line_outcome(capsys, tmp_path, text):
    """What check-proof makes of `text`: the line-by-line read's error,
    with exit 2."""
    path = tmp_path / "strict.proof"
    path.write_text(text)
    code = main(["check-proof", str(path)])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    return err


def test_root_line_with_trailing_text_is_an_error(capsys, tmp_path):
    text = README_BLOCK.replace("root 4", "root 4 junk")
    assert strict_line_outcome(capsys, tmp_path, text) == \
        "ctt: bad derivation line 'root 4 junk': expected root <id>\n"


def test_second_root_line_is_an_error(capsys, tmp_path):
    text = README_BLOCK + "root 3\n"
    assert strict_line_outcome(capsys, tmp_path, text) == \
        "ctt: bad derivation line 'root 3': a second root line\n"


def test_unknown_direction_is_an_error(capsys, tmp_path):
    text = README_BLOCK.replace("node 1 rule=ax dir=-", "node 1 rule=ax dir=sideways")
    err = strict_line_outcome(capsys, tmp_path, text)
    assert err.startswith("ctt: bad derivation line 'node 1 rule=ax dir=sideways ")
    assert err.endswith(": dir must be down, up or -, got 'sideways'\n")


def mutants(text, rng):
    """Copies of a derivation file with one edit each, by kind: a line
    deleted, two adjacent lines swapped, a conclusion's members reordered
    or re-spaced, a comment appended, a substitution read upward, an
    eigenvariable renamed in the lines above its rule, a premise list
    reversed, a node's first premise named twice."""
    lines = text.splitlines()
    out = {}

    def edit(kind, i, line):
        out[kind] = "\n".join(lines[:i] + [line] + lines[i + 1:]) + "\n"

    i = rng.randrange(len(lines))
    out["deleted"] = "\n".join(lines[:i] + lines[i + 1:]) + "\n"
    i = rng.randrange(len(lines) - 1)
    out["swapped"] = "\n".join(lines[:i] + [lines[i + 1], lines[i]] + lines[i + 2:]) + "\n"
    i = rng.choice([i for i, line in enumerate(lines) if line.startswith("node ")])
    head, rest = lines[i].split(" concl=", 1)
    concl, premises = rest.rsplit(" premises=", 1)
    left, right = concl.split("|-")
    members = [m.strip() for m in left.split(", ") if m.strip()]
    edit("reordered", i, f"{head} concl={', '.join(members[::-1])} |- {right.strip()} "
                         f"premises={premises}")
    edit("re-spaced", i, lines[i].replace(", ", ",").replace(" |- ", "  |-"))
    i = rng.randrange(len(lines))
    edit("comment", i, lines[i] + " # note")
    for i, line in enumerate(lines):
        if "dir=down" in line:
            edit("upward", i, line.replace("dir=down", "dir=up"))
            break
    for i, line in enumerate(lines):
        if re.search(r"rule=(all|ex)-[LR] ", line):
            rename = [re.sub(r"(?<![\w'])x(?![\w'])", "x9", ln) for ln in lines[:i]]
            out["eigenvariable"] = "\n".join(rename + lines[i:]) + "\n"
            break
    for i, line in enumerate(lines):
        if re.search(r"premises=\d+,\d+$", line):
            head, ids = line.rsplit("premises=", 1)
            edit("premise order", i, f"{head}premises={','.join(ids.split(',')[::-1])}")
            first = ids.split(",")[0]
            edit("shared", i, f"{head}premises={first},{first}")
            break
    return out


def edited(text, rng):
    """A copy of a derivation file with one to three random edits, each
    one of: a few characters inserted or deleted, a premise list changed,
    a direction flipped, a line duplicated."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        line = lines[i]
        kind = rng.choice(("insert", "delete", "premises", "dir", "duplicate"))
        if kind == "insert":
            j = rng.randrange(len(line) + 1)
            line = line[:j] + "".join(rng.choices(" ,()|-=#:@01Ax", k=rng.randint(1, 3))) \
                + line[j:]
        elif kind == "delete":
            j = rng.randrange(len(line))
            line = line[:j] + line[j + rng.randint(1, 3):]
        elif kind == "premises" and " premises=" in line:
            ids = [str(rng.randint(1, i + 2)) for _ in range(rng.randint(1, 2))]
            line = line.rsplit(" premises=", 1)[0] + " premises=" + (
                rng.choice(("-", ",".join(ids), f"{ids[0]},{ids[0]}")))
        elif kind == "dir":
            for d in ("down", "up", "-"):
                if f" dir={d} " in line:
                    other = rng.choice([o for o in ("down", "up", "-") if o != d])
                    line = line.replace(f" dir={d} ", f" dir={other} ", 1)
                    break
        elif kind == "duplicate":
            lines.insert(i, line)
        lines[i] = line
    return "\n".join(lines) + "\n"


def reference_check_derivation_file(text, model=None):
    """The line-by-line read: every line parsed, then every node checked."""
    d = parse_derivation_file(text)
    return d.conclusion, sum(1 for _ in d.nodes()), check_derivation(d, model)


def test_check_proof_reads_files_as_a_line_by_line_read_does(capsys, tmp_path, monkeypatch):
    """check-proof on the prover's files and on mutants of them: the same
    stdout, stderr and exit code as when every file is read line by line
    (`parse_derivation_file`, then `check_derivation`), always 0, 1 or 2."""
    files = [render_derivation_file(d) for d in (prove(g, depth=12) for g in random_goals())
             if d is not None]
    for text, golden in ((corpus.SCOPE_INPUT_1, corpus.SCOPE_GOLDEN_1),
                         (corpus.SCOPE_INPUT_2, corpus.SCOPE_GOLDEN_2)):
        lhs, rhs = (parse_cts(t, sig=dict(corpus.SCOPE_SIG)) for t in (text, golden))
        for goal in (Sequent.make([lhs], [rhs]), Sequent.make([rhs], [lhs])):
            files.append(render_derivation_file(prove(goal, depth=30)))
    rng = random.Random(23)
    cases = [(text, "prover") for text in files] + \
        [(m, kind) for text in files for kind, m in mutants(text, rng).items()] + \
        [(edited(text, rng), "edited") for text in files for _ in range(3)]
    path = tmp_path / "case.proof"
    answers = []
    for text, _ in cases:
        path.write_text(text)
        code = main(["check-proof", str(path)])
        answers.append((code, *capsys.readouterr()))
    monkeypatch.setattr(cli, "check_derivation_file", reference_check_derivation_file)
    for (text, kind), answer in zip(cases, answers):
        path.write_text(text)
        code = main(["check-proof", str(path)])
        assert answer == (code, *capsys.readouterr()), text
        assert answer[0] in (0, 1, 2)
        assert answer[0] == 0 or kind != "prover"
    assert {a[0] for a in answers} == {0, 1, 2} and len(files) == 210
    assert {kind for _, kind in cases} == {
        "prover", "deleted", "swapped", "reordered", "re-spaced", "comment", "upward",
        "eigenvariable", "premise order", "shared", "edited"}
    # the random edits give every exit code
    assert {a[0] for (_, kind), a in zip(cases, answers) if kind == "edited"} == {0, 1, 2}
