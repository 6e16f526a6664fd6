import gc
import itertools
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from ctt import gen
from ctt.domains import (
    AtomicApp, CapExceeded, FALSE, FnTable, Individual, JoinE,
    MAX_GENERATORS, MeetE, ModelConfig, NegE, TRUE, TruthVal, apply_elem,
    ba_equal, ba_leq, bottom_at, canonical_key, elem_rank, enumerate_domain,
    fn_table, iso_i, iso_iterate, make_join, make_meet, make_neg,
    parse_element, parse_model_config, parse_set_of_sets, render_elem,
    resolve_constant, top_at, is_canonical_elem,
)
from ctt.semantics import canonicalize_cts
from ctt.syntax import Arrow, BOT, Base, TypeMismatch, neg_type, parse_cts

import corpus

E = Base("e")
T = Base("t")


@pytest.fixture
def m3():
    return ModelConfig(base_sizes={"e": 3})


@pytest.fixture
def m22():
    return ModelConfig(base_sizes={"e": 2, "t": 2})


# --- enumeration ------------------------------------------------------------

def test_enumerate_rank0_base(m3):
    atoms = enumerate_domain(m3, E, 0)
    assert atoms == [Individual(E, "a"), Individual(E, "b"), Individual(E, "c")]


def test_enumerate_rank0_bot(m3):
    assert enumerate_domain(m3, BOT, 0) == [FALSE, TRUE]


def test_enumerate_rank0_arrow(m22):
    tables = enumerate_domain(m22, Arrow(E, BOT), 0)
    assert len(tables) == 4
    assert all(isinstance(t, FnTable) for t in tables)


def test_enumerate_rank1_bot_has_16(m3):
    assert len(enumerate_domain(m3, BOT, 1)) == 16


def test_enumerate_rank1_base3_has_256(m3):
    elems = enumerate_domain(m3, E, 1)
    assert len(elems) == 256


def test_enumerate_rank1_pairwise_inequivalent_small():
    m = ModelConfig(base_sizes={"e": 2})
    elems = enumerate_domain(m, E, 1)
    assert len(elems) == 16
    keys = {canonical_key(e) for e in elems}
    assert len(keys) == 16
    for x, y in itertools.combinations(elems, 2):
        assert not ba_equal(x, y)


def test_enumerate_caps():
    m = ModelConfig(base_sizes={"e": 4})
    with pytest.raises(CapExceeded):
        enumerate_domain(m, Arrow(Arrow(E, E), E), 0)
    with pytest.raises(CapExceeded):
        enumerate_domain(m, E, 2)


def test_base_size_cap():
    with pytest.raises(CapExceeded):
        ModelConfig(base_sizes={"e": 9})


def test_enumerate_domain_returns_a_fresh_list(m3):
    first = enumerate_domain(m3, E, 0)
    first.reverse()
    first.append(TRUE)
    assert enumerate_domain(m3, E, 0) == [Individual(E, n) for n in "abc"]


# --- hash-consing -----------------------------------------------------------

def test_equal_constructions_are_one_object(m3):
    assert Individual(E, "a") is Individual(E, "a")
    assert Individual(Base("e"), "a") is Individual(E, "a")
    assert Arrow(E, BOT) is neg_type(E)
    assert TruthVal(1) is TRUE
    parsed = parse_element(
        "or[1](table{a->0,b->1,c->1},neg[1](table{a->1,b->1,c->0}))", m3, neg_type(E))
    applied = apply_elem(parsed, Individual(E, "a"))
    assert applied is parse_element("or[1](0,neg[1](1))", m3, BOT)
    table = parse_element("table{a->0,b->1,c->1}", m3, neg_type(E))
    assert any(t is table for t in enumerate_domain(m3, neg_type(E), 0))


def test_elements_and_types_are_immutable(m3):
    a = Individual(E, "a")
    samples = [TRUE, a, enumerate_domain(m3, neg_type(E), 0)[0],
               AtomicApp(Individual(neg_type(E), "p"), a), make_neg(1, a),
               make_meet(1, E, [a, Individual(E, "b")]), bottom_at(1, E),
               E, neg_type(E), BOT]
    for value in samples:
        field = value.__match_args__[0] if value.__match_args__ else "ty"
        with pytest.raises(AttributeError):
            setattr(value, field, None)
    assert a.name == "a" and E.name == "e"


def test_interning_table_holds_only_live_elements():
    x = Individual(E, "only-referenced-here")
    ref = weakref.ref(x)
    del x
    gc.collect()
    assert ref() is None


def _fields(e):
    match e:
        case TruthVal(v):
            return ("tv", v)
        case Individual(ty, name):
            return ("ind", ty, name)
        case FnTable(dom, cod, entries):
            return ("tab", dom, cod, entries)
        case AtomicApp(fun, arg):
            return ("app", fun, arg)
        case NegE(k, ty, child):
            return ("neg", k, ty, child)
        case MeetE(k, ty, children):
            return ("meet", k, ty, children)
        case JoinE(k, ty, children):
            return ("join", k, ty, children)
        case Arrow(dom, cod):
            return ("arrow", dom, cod)
        case Base(name):
            return ("base", name)
    return None


def test_match_binds_every_element_field(m3):
    a, b = Individual(E, "a"), Individual(E, "b")
    p = Individual(neg_type(E), "p")
    table = enumerate_domain(m3, neg_type(E), 0)[5]
    assert _fields(FALSE) == ("tv", 0)
    assert _fields(a) == ("ind", E, "a")
    assert _fields(table) == ("tab", E, BOT, table.entries)
    assert [k for k, _ in table.entries] == [a, b, Individual(E, "c")]
    assert _fields(AtomicApp(p, a)) == ("app", p, a)
    assert _fields(make_neg(1, a)) == ("neg", 1, E, a)
    assert _fields(make_meet(2, E, [b, a])) == ("meet", 2, E, (a, b))
    assert _fields(make_join(1, E, [a, b])) == ("join", 1, E, (a, b))
    assert _fields(neg_type(E)) == ("arrow", E, BOT)
    assert _fields(E) == ("base", "e")


# --- equality and order -----------------------------------------------------

def test_ba_equal_complement_law(m3):
    a = Individual(E, "a")
    assert ba_equal(make_meet(1, E, [a, make_neg(1, a)]), bottom_at(1, E))


def test_ba_equal_cross_rank_freeness(m3):
    a = Individual(E, "a")
    assert not ba_equal(make_neg(2, make_neg(1, a)), a)


def test_ba_equal_double_complement_same_rank(m3):
    a = Individual(E, "a")
    assert ba_equal(NegE(1, E, NegE(1, E, a)), a)


def test_ba_equal_type_precondition():
    with pytest.raises(TypeMismatch):
        ba_equal(Individual(E, "a"), FALSE)


def test_truth_values_are_generators_at_rank_one():
    assert not ba_equal(top_at(1, BOT), TRUE)
    assert not ba_equal(bottom_at(1, BOT), FALSE)
    assert not ba_equal(top_at(1, BOT), top_at(2, BOT))


def test_ba_leq_examples():
    a, b = Individual(E, "a"), Individual(E, "b")
    assert ba_leq(bottom_at(1, E), a)
    assert ba_leq(a, make_join(1, E, [a, b]))
    assert not ba_leq(a, b)


def test_lattice_constructors_flatten_dedup_sort():
    a, b = Individual(E, "a"), Individual(E, "b")
    nested = make_meet(2, E, [make_meet(2, E, [b, a]), a])
    assert nested == MeetE(2, E, (a, b))
    # a different-rank inner meet stays opaque
    kept = make_meet(2, E, [make_meet(1, E, [a, b]), a])
    assert isinstance(kept, MeetE) and len(kept.children) == 2
    # singletons collapse
    assert make_meet(1, E, [a]) == a


def _rank(e):
    return e.k if isinstance(e, (NegE, MeetE, JoinE)) else 0


def _opaque_below(e, cut, acc):
    if _rank(e) < cut:
        acc.append(e)
    elif isinstance(e, NegE):
        _opaque_below(e.child, cut, acc)
    else:
        for c in e.children:
            _opaque_below(c, cut, acc)


def _truth(e, cut, value):
    if _rank(e) < cut:
        return value(e)
    if isinstance(e, NegE):
        return 1 - _truth(e.child, cut, value)
    outs = [_truth(c, cut, value) for c in e.children]
    return int(all(outs) if isinstance(e, MeetE) else any(outs))


def valuation_equal(x, y):
    """Reference decision procedure for ba_equal, independent of
    canonical_key: read both sides as Boolean functions at the higher rank
    over their maximal lower-rank subelements, merge those generators by
    recursive comparison, and compare under every valuation. At rank 0 it
    is atom identity."""
    cut = max(_rank(x), _rank(y))
    if cut == 0:
        return x is y
    raw = []
    _opaque_below(x, cut, raw)
    _opaque_below(y, cut, raw)
    reps, index = [], {}
    for g in raw:
        if g in index:
            continue
        for i, r in enumerate(reps):
            if g.ty == r.ty and valuation_equal(g, r):
                index[g] = i
                break
        else:
            index[g] = len(reps)
            reps.append(g)
    assert len(reps) <= MAX_GENERATORS
    for bits in range(2 ** len(reps)):
        value = lambda e: (bits >> index[e]) & 1
        if _truth(x, cut, value) != _truth(y, cut, value):
            return False
    return True


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_canonical_key_matches_ba_equal(seed):
    rng = gen.make_rng(seed)
    model = ModelConfig(base_sizes={"e": 2})
    x = gen.random_canon_elem(rng, model, E, max_rank=2, depth=2)
    y = gen.random_canon_elem(rng, model, E, max_rank=2, depth=2)
    assert valuation_equal(x, y) == (canonical_key(x) == canonical_key(y))
    assert ba_equal(x, y) == valuation_equal(x, y)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_fixed_rank_boolean_laws(seed):
    rng = gen.make_rng(seed)
    model = ModelConfig(base_sizes={"e": 2})
    k = rng.randint(1, 2)
    x = gen.random_canon_elem(rng, model, E, max_rank=k, depth=2)
    y = gen.random_canon_elem(rng, model, E, max_rank=k, depth=2)
    z = gen.random_canon_elem(rng, model, E, max_rank=k, depth=2)
    meet = lambda *cs: make_meet(k, E, cs)
    join = lambda *cs: make_join(k, E, cs)
    neg = lambda c: make_neg(k, c)
    assert ba_equal(neg(neg(x)), x)
    assert ba_equal(neg(meet(x, y)), join(neg(x), neg(y)))  # De Morgan
    assert ba_equal(meet(x, join(x, y)), x)  # absorption
    assert ba_equal(meet(x, join(y, z)), join(meet(x, y), meet(x, z)))


# --- application ------------------------------------------------------------

def test_apply_table_lookup(m22):
    tables = enumerate_domain(m22, Arrow(E, BOT), 0)
    a = Individual(E, "a")
    for t in tables:
        assert apply_elem(t, a) == t.lookup(a)


def test_apply_symbolic(m22):
    p = Individual(Arrow(E, BOT), "p")
    a = Individual(E, "a")
    assert apply_elem(p, a) == AtomicApp(p, a)


def test_apply_meet_functor_distributes():
    p, q = Individual(Arrow(E, BOT), "p"), Individual(Arrow(E, BOT), "q")
    a = Individual(E, "a")
    out = apply_elem(make_meet(1, Arrow(E, BOT), [p, q]), a)
    assert out == make_meet(1, BOT, [AtomicApp(p, a), AtomicApp(q, a)])


def test_apply_neg_argument_distributes():
    r = Individual(Arrow(E, BOT), "r")
    a = Individual(E, "a")
    out = apply_elem(r, make_neg(1, a))
    assert out == make_neg(1, AtomicApp(r, a))


def test_apply_functor_wins_rank_tie():
    p, q = Individual(Arrow(E, BOT), "p"), Individual(Arrow(E, BOT), "q")
    r, s = Individual(E, "r"), Individual(E, "s")
    functor = make_meet(2, Arrow(E, BOT), [p, q])
    argument = make_join(2, E, [r, s])
    out = apply_elem(functor, argument)
    assert isinstance(out, MeetE) and out.k == 2  # meet outermost
    assert all(isinstance(c, JoinE) for c in out.children)


def _shadows(model, ty, limit=None):
    elems = enumerate_domain(model, ty, 1)
    return elems if limit is None else elems[:limit]


def test_expansion_conditions_exhaustive():
    """All ten distribution equations, argument side over a rank-1 shadow
    family and functor side over rank-1 arrow shadows, at carrier sizes
    small enough to sweep completely; plus the bot-codomain instances."""
    model = ModelConfig(base_sizes={"e": 1})
    e = E
    ne = Arrow(e, BOT)
    r_pool = enumerate_domain(model, ne, 0)
    a_pool = _shadows(model, e)  # 4 shadows over one individual
    # argument side: r (op a) = op (r a)
    for r, a in itertools.product(r_pool, a_pool):
        lhs = apply_elem(r, make_neg(1, a))
        rhs = make_neg(1, apply_elem(r, a))
        assert ba_equal(lhs, rhs)
    for r, a, b in itertools.product(r_pool, a_pool, a_pool):
        assert ba_equal(apply_elem(r, make_meet(1, e, [a, b])),
                        make_meet(1, BOT, [apply_elem(r, a), apply_elem(r, b)]))
        assert ba_equal(apply_elem(r, make_join(1, e, [a, b])),
                        make_join(1, BOT, [apply_elem(r, a), apply_elem(r, b)]))
    # big operators materialize as the meet/join over the carrier
    carrier = enumerate_domain(model, e, 0)
    for r in r_pool:
        assert ba_equal(apply_elem(r, make_meet(1, e, carrier)),
                        make_meet(1, BOT, [apply_elem(r, c) for c in carrier]))
        assert ba_equal(apply_elem(r, make_join(1, e, carrier)),
                        make_join(1, BOT, [apply_elem(r, c) for c in carrier]))
    # functor side: (op p) a = op (p a), argument up to rank 1
    p_pool = _shadows(model, ne, limit=16)
    for p, a in itertools.product(p_pool, a_pool):
        assert ba_equal(apply_elem(make_neg(1, p), a),
                        make_neg(1, apply_elem(p, a)))
    for p, q, a in itertools.product(p_pool[:8], p_pool[:8], a_pool):
        assert ba_equal(apply_elem(make_meet(1, ne, [p, q]), a),
                        make_meet(1, BOT, [apply_elem(p, a), apply_elem(q, a)]))
        assert ba_equal(apply_elem(make_join(1, ne, [p, q]), a),
                        make_join(1, BOT, [apply_elem(p, a), apply_elem(q, a)]))
    # functor-side big operators over the table carrier
    for a in a_pool:
        assert ba_equal(apply_elem(make_meet(1, ne, r_pool), a),
                        make_meet(1, BOT, [apply_elem(r, a) for r in r_pool]))
        assert ba_equal(apply_elem(make_join(1, ne, r_pool), a),
                        make_join(1, BOT, [apply_elem(r, a) for r in r_pool]))
    # bot-codomain special case with sigma = bot too
    nb = Arrow(BOT, BOT)
    rb_pool = enumerate_domain(model, nb, 0)
    vb_pool = _shadows(model, BOT)
    for r, a, b in itertools.product(rb_pool, vb_pool[:8], vb_pool[:8]):
        assert ba_equal(apply_elem(r, make_meet(1, BOT, [a, b])),
                        make_meet(1, BOT, [apply_elem(r, a), apply_elem(r, b)]))


# --- canonicalization -------------------------------------------------------

def test_bracketed_goldens_render():
    for sub, golden in corpus.bracketed_examples():
        value = canonicalize_cts(sub, corpus.EMPTY_MODEL)
        assert render_elem(value) == golden
        assert is_canonical_elem(value)


def test_bracketed_one_and_two_share_shape():
    def shape(e):
        match e:
            case NegE(k, _, c):
                return ("neg", k, shape(c))
            case MeetE(k, _, cs):
                return ("and", k, tuple(shape(c) for c in cs))
            case JoinE(k, _, cs):
                return ("or", k, tuple(shape(c) for c in cs))
            case _:
                return "atom"

    subs = corpus.bracketed_examples()
    v1 = canonicalize_cts(subs[0][0], corpus.EMPTY_MODEL)
    v2 = canonicalize_cts(subs[1][0], corpus.EMPTY_MODEL)
    v3 = canonicalize_cts(subs[2][0], corpus.EMPTY_MODEL)
    assert shape(v1) == shape(v2)  # same molecular shape, different atoms
    assert shape(v3) != shape(v2)  # meet/join nesting swapped
    assert isinstance(v2, JoinE) and isinstance(v3, MeetE)


def test_canonicalize_molecular_nodes(m22):
    a = Individual(E, "a")
    r = enumerate_domain(m22, Arrow(E, BOT), 0)[1]
    expr = parse_cts("(r:~e@0 neg[1](a:e@0))")
    out = canonicalize_cts(expr, m22, {"r": r})
    assert out == make_neg(1, apply_elem(r, a))
    big = parse_cts("(r:~e@0 All[1](x:e@0))")
    out2 = canonicalize_cts(big, m22, {"r": r})
    expected = make_meet(1, BOT, [apply_elem(r, c)
                                  for c in enumerate_domain(m22, E, 0)])
    assert ba_equal(out2, expected)


def test_canonicalize_fixpoint(m22):
    a, b = Individual(E, "a"), Individual(E, "b")
    already = parse_cts("and[1](a:e@0, neg[1](b:e@0))")
    out = canonicalize_cts(already, m22)
    assert out == make_meet(1, E, [a, make_neg(1, b)])
    again = canonicalize_cts(parse_cts(render_elem(out), {"a": (E, 0), "b": (E, 0)}), m22)
    assert again == out


def test_canonicalize_agrees_with_syntactic_squeezing():
    """Independent oracle for the distribution discipline: the sequent
    module's squeeze-out rewriting (transcribed from the rule schemas, a
    separate code path from apply_elem) must reach the same canonical
    element on random subterms."""
    from ctt.sequents import squeeze_out, _innermost_redex
    from ctt.syntax import cts_at, cts_replace, classify, SyntaxClass
    from ctt.semantics import canonicalize_cts

    model = ModelConfig()
    rng = gen.make_rng(42)
    for _ in range(150):
        sig = {}
        sub = gen.random_bot_subterm(rng, depth=3, sig=sig, var_ranks=(0,))
        syntactic = sub
        for _ in range(200):
            hit = _innermost_redex(syntactic)
            if hit is None:
                break
            path, op, functor_side = hit
            out = squeeze_out(cts_at(syntactic, path), op, functor_side, model)
            assert not isinstance(out, str), out
            syntactic = cts_replace(syntactic, path, out)
        assert classify(syntactic) in (SyntaxClass.ATOMIC, SyntaxClass.CANONICAL)
        assert canonicalize_cts(syntactic, model) == canonicalize_cts(sub, model)


def test_canonicalize_commuted_children_codenotational(m22):
    r = enumerate_domain(m22, Arrow(E, BOT), 0)[2]
    e1 = parse_cts("(r:~e@0 and[1](a:e@0, neg[1](b:e@0)))")
    e2 = parse_cts("(r:~e@0 and[1](neg[1](b:e@0), a:e@0))")
    assert ba_equal(canonicalize_cts(e1, m22, {"r": r}),
                    canonicalize_cts(e2, m22, {"r": r}))


# --- the type-reduction isomorphism -----------------------------------------

def test_iso_worked_example(m3):
    sets = parse_set_of_sets("{{a},{b,c}}", m3, E)
    out = iso_i(sets, m3, ty=E)
    assert out == corpus.worked_iso_expected(m3)
    assert render_elem(out) == corpus.WORKED_ISO_GOLDEN


def test_iso_empty_family_is_bottom(m3):
    assert iso_i(frozenset(), m3, ty=E) == bottom_at(1, E)


def test_iso_full_family_is_top(m3):
    atoms = enumerate_domain(m3, E, 0)
    full = frozenset(frozenset(s) for s in _powerset(atoms))
    out = iso_i(full, m3, ty=E)
    assert ba_equal(out, top_at(1, E))


def _powerset(xs):
    return [frozenset(c) for n in range(len(xs) + 1)
            for c in itertools.combinations(xs, n)]


def test_iso_principal_family_collapses_to_atom(m3):
    atoms = enumerate_domain(m3, E, 0)
    a = atoms[0]
    principal = frozenset(s for s in _powerset(atoms) if a in s)
    assert iso_i(principal, m3, ty=E) == a


def test_iso_bijection_and_homomorphism_k2():
    model = ModelConfig(base_sizes={"e": 2})
    atoms = enumerate_domain(model, E, 0)
    families = [frozenset(f) for f in _powerset(_powerset(atoms))]
    assert len(families) == 16
    images = [iso_i(f, model, ty=E) for f in families]
    keys = {canonical_key(i) for i in images}
    assert len(keys) == 16  # bijective onto the 16-element rank-1 domain
    domain_keys = {canonical_key(e) for e in enumerate_domain(model, E, 1)}
    assert keys == domain_keys
    universe = frozenset(_powerset(atoms))
    for f, g in itertools.product(families, repeat=2):
        assert ba_equal(iso_i(f & g, model, ty=E),
                        make_meet(1, E, [iso_i(f, model, ty=E),
                                         iso_i(g, model, ty=E)]))
        assert ba_equal(iso_i(f | g, model, ty=E),
                        make_join(1, E, [iso_i(f, model, ty=E),
                                         iso_i(g, model, ty=E)]))
    for f in families:
        assert ba_equal(iso_i(universe - f, model, ty=E),
                        make_neg(1, iso_i(f, model, ty=E)))


def test_iso_from_table_form(m3):
    # the ~~e table of the principal family at a equals the raw-set form
    atoms = enumerate_domain(m3, E, 0)
    ne = Arrow(E, BOT)
    tables = enumerate_domain(m3, ne, 0)
    mapping = {}
    a = atoms[0]
    for t in tables:
        mapping[t] = TRUE if t.lookup(a) == TRUE else FALSE
    f = fn_table(ne, BOT, mapping)
    assert iso_i(f, m3) == a


def test_iso_rank_raising_homomorphism(m3):
    # a rank-1 element over ~~e tables maps through with every rank bumped
    ne = Arrow(E, BOT)
    nne = Arrow(ne, BOT)
    tables = enumerate_domain(m3, nne, 0)[:2]
    elem = make_meet(1, nne, [tables[0], make_neg(1, tables[1])])
    out = iso_i(elem, m3)
    assert elem_rank(out) == 2
    assert ba_equal(out, make_meet(2, E, [
        iso_i(tables[0], m3), make_neg(2, iso_i(tables[1], m3))]))


def test_iso_iterate_single_step_is_iso(m3):
    ne = Arrow(E, BOT)
    nne = Arrow(ne, BOT)
    f = enumerate_domain(m3, nne, 0)[7]
    assert iso_iterate(nne, f, m3) == iso_i(f, m3)


def test_iso_iterate_four_negations_exhaustive_size1():
    """Four negations over a one-element carrier: all 2^16 elements map
    injectively into the rank-2 domain (whose size is also 2^16).

    Outputs are construction-sorted complete DNFs over the four rank-1
    generator images, so distinct renderings are distinct elements once
    those four generators are pairwise inequivalent (checked below, plus a
    sampled semantic-key sweep)."""
    model = ModelConfig(base_sizes={"e": 1}, rank_cap=2)
    n4 = Arrow(Arrow(Arrow(Arrow(E, BOT), BOT), BOT), BOT)
    inputs = enumerate_domain(model, n4, 0)
    assert len(inputs) == 2 ** 16
    outs = []
    for f in inputs:
        out = iso_iterate(n4, f, model)
        assert elem_rank(out) <= 2
        outs.append(out)
    assert len({render_elem(o) for o in outs}) == 2 ** 16
    nne = Arrow(Arrow(E, BOT), BOT)
    gen_images = [iso_i(t, model) for t in enumerate_domain(model, nne, 0)]
    for x, y in itertools.combinations(gen_images, 2):
        assert not ba_equal(x, y)
    sample_keys = {canonical_key(o) for o in outs[::16]}
    assert len(sample_keys) == len(outs[::16])


def test_iso_iterate_odd_negations(m3):
    n3 = Arrow(Arrow(Arrow(E, BOT), BOT), BOT)
    model = ModelConfig(base_sizes={"e": 1}, rank_cap=3)
    outs = [iso_iterate(n3, f, model) for f in enumerate_domain(model, n3, 0)]
    assert all(o.ty == Arrow(E, BOT) for o in outs)  # lands in the negated type
    assert {elem_rank(o) for o in outs} == {0, 1}  # principal images collapse
    assert len({canonical_key(o) for o in outs}) == len(outs)


def test_iso_iterate_rank_cap():
    model = ModelConfig(base_sizes={"e": 1}, rank_cap=1)
    n4 = Arrow(Arrow(Arrow(Arrow(E, BOT), BOT), BOT), BOT)
    f = enumerate_domain(model, n4, 0)[0]
    with pytest.raises(CapExceeded):
        iso_iterate(n4, f, model)


# --- model files and literals -----------------------------------------------

def test_parse_model_config_basics():
    model = parse_model_config("""
# a small world
base e 3
rankcap 2
const c0 : bot = 0
const f : (e -> bot) = table{a->0, b->1, c->1}
const shadow : e = or[1](a, neg[1](b))
""")
    assert model.base_sizes == {"e": 3}
    assert model.rank_cap == 2
    assert model.constants["c0"] == FALSE
    assert isinstance(model.constants["f"], FnTable)
    assert elem_rank(model.constants["shadow"]) == 1


def test_parse_model_config_cap_violation():
    with pytest.raises(CapExceeded):
        parse_model_config("base e 9")


def test_parse_model_config_table_mismatch():
    with pytest.raises(TypeMismatch):
        parse_model_config("base e 2\nconst f : (e -> bot) = table{a->0}")


def test_element_literals_round_trip(m3):
    for text in ["0", "1", "a", "neg[1](b)", "and[1](a,neg[1](b))",
                 "or[2](and[1](a,b),c)", "and[1]()", "or[1]()"]:
        e = parse_element(text, m3, E if text not in ("0", "1") else BOT)
        assert parse_element(render_elem(e), m3, e.ty) == e


def test_resolve_constant_scoping(m22):
    assert resolve_constant(m22, "a", E) == Individual(E, "a")
    assert resolve_constant(m22, "a", T) == Individual(T, "a")
    assert resolve_constant(m22, "0", BOT) == FALSE
    assert resolve_constant(m22, "zzz", E) is None
    # ambiguous without a hint: a exists in both bases
    assert resolve_constant(m22, "a", None) is None
