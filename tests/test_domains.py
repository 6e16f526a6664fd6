import gc
import itertools
import random
import time
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from ctt import domains, gen, syntax
from ctt.domains import (
    AtomicApp, CapExceeded, FALSE, FnTable, Individual, JoinE,
    MAX_GENERATORS, MeetE, ModelConfig, NegE, TRUE, TruthVal, apply_elem,
    ba_equal, ba_leq, bottom_at, canonical_key, enumerate_domain,
    fn_table, iso_i, iso_iterate, make_join, make_meet, make_neg,
    individual_names, model_signature, parse_element, parse_model_config,
    parse_set_of_sets, render_elem, resolve_constant, top_at,
)
from ctt.semantics import canonicalize_cts, eval_cts
from ctt.syntax import (
    Arrow, BOT, Base, CttError, TypeMismatch, is_neg_type, neg_type, parse_cts,
    render_type,
)

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


def test_empty_base_is_invalid_input():
    # bad input, not a resource cap: only a carrier over the cap is that
    for size in (0, -1):
        with pytest.raises(CttError, match=f"base e has size {size}; sizes must be 1..4") as info:
            ModelConfig(base_sizes={"e": size})
        assert not isinstance(info.value, CapExceeded)


def test_enumerate_domain_returns_a_fresh_list(m3):
    first = enumerate_domain(m3, E, 0)
    first.reverse()
    first.append(TRUE)
    assert enumerate_domain(m3, E, 0) == [Individual(E, n) for n in "abc"]


def _types(leaves, depth):
    """Every type of at most `depth` levels over `leaves`, one level each."""
    types = list(leaves)
    for _ in range(depth - 1):
        types = list(dict.fromkeys(types + [Arrow(d, c) for d in types for c in types]))
    return types


def test_every_rank0_carrier_is_in_rendering_order():
    # carriers are built without a sort: each must already be in the order
    # of its atoms' renderings, which are all of one length. A rendering
    # names no type, so a carrier over one base renders as it does over
    # the other, and one over both as its mirror (e and t swapped, with
    # their sizes): the two-base models need only the types that mention
    # both, at e's size up to t's
    one_base = _types((BOT, E), 3)
    mirrored = set(one_base) | set(_types((BOT, T), 3))
    both = [ty for ty in _types((BOT, E, T), 3) if ty not in mirrored]
    cases = [({"e": s}, one_base) for s in (1, 2, 3)]
    cases += [({"e": s, "t": r}, both) for s in (1, 2, 3) for r in range(s, 4)]
    checked = 0
    try:
        for sizes, types in cases:
            model = ModelConfig(base_sizes=sizes)
            for ty in types:
                try:
                    atoms = enumerate_domain(model, ty, 0)
                except CapExceeded:
                    continue
                texts = [render_elem(a) for a in atoms]
                assert texts == sorted(texts), (sizes, render_type(ty))
                assert len(set(map(len, texts))) == 1, (sizes, render_type(ty))
                checked += 1
    finally:
        domains._MINTERM_CACHE.clear()  # frees the rendered carriers
    assert checked == 466


N4 = neg_type(neg_type(neg_type(neg_type(E))))


def test_bulk_built_carriers_are_the_hash_consed_tables():
    cases = [(ModelConfig(base_sizes={"e": 1}, rank_cap=2), N4)]
    for size in (1, 2, 3):
        model = ModelConfig(base_sizes={"e": size})
        cases += [(model, ty) for ty in (neg_type(E), Arrow(E, E), Arrow(BOT, E),
                                         Arrow(E, neg_type(E)), neg_type(neg_type(E)))]
    for model, ty in cases:
        domains._MINTERM_CACHE.clear()
        tables = enumerate_domain(model, ty, 0)
        keys = sorted(enumerate_domain(model, ty.dom, 0), key=render_elem)
        rows = [[(k, v) for v in enumerate_domain(model, ty.cod, 0)] for k in keys]
        # interned values compare by identity
        assert tables == [FnTable(ty.dom, ty.cod, entries)
                          for entries in itertools.product(*rows)]
        assert all(t.ty is ty for t in tables)


def test_bulk_build_reuses_a_live_table():
    u = Base("u")
    model = ModelConfig(base_sizes={"u": 2})
    a, b = enumerate_domain(model, u, 0)
    domains._MINTERM_CACHE.clear()
    gc.collect()
    table = FnTable(u, BOT, ((a, FALSE), (b, TRUE)))
    assert [t for t in enumerate_domain(model, neg_type(u), 0) if t is table] == [table]


def test_bulk_build_leaves_no_entry_behind():
    model = ModelConfig(base_sizes={"e": 1}, rank_cap=2)
    domains._MINTERM_CACHE.clear()
    gc.collect()
    live = len(syntax._INTERNED)
    tables = enumerate_domain(model, N4, 0)
    assert len(syntax._INTERNED) >= live + len(tables)
    del tables
    domains._MINTERM_CACHE.clear()
    gc.collect()
    assert len(syntax._INTERNED) == live


def test_a_refused_rank1_carrier_builds_nothing():
    # at e = 4, ~~e has 65,536 rank-0 tables: too many generators for
    # rank 1, which is known from the count before any table is built
    model = ModelConfig(base_sizes={"e": 4})
    domains._MINTERM_CACHE.clear()
    gc.collect()
    live = len(syntax._INTERNED)
    with pytest.raises(CapExceeded) as err:
        enumerate_domain(model, neg_type(neg_type(E)), 1)
    assert str(err.value) == "65536 generators is too many for rank-1 enumeration"
    gc.collect()
    assert len(syntax._INTERNED) == live
    assert len(domains._MINTERM_CACHE) == 0


def test_bulk_build_restores_the_collector_state(monkeypatch):
    model = ModelConfig(base_sizes={"e": 2})
    fresh = ModelConfig(base_sizes={"w": 2})  # no table of w is live

    def refuse(key, obj):
        raise MemoryError

    try:
        for enabled in (True, False, True):
            (gc.enable if enabled else gc.disable)()
            domains._MINTERM_CACHE.clear()
            assert len(enumerate_domain(model, neg_type(neg_type(E)), 0)) == 16
            assert gc.isenabled() is enabled
            # a loop that raises part-way restores it too
            with monkeypatch.context() as patch:
                patch.setattr(domains, "_intern", refuse)
                with pytest.raises(MemoryError):
                    enumerate_domain(fresh, neg_type(Base("w")), 0)
            assert gc.isenabled() is enabled
    finally:
        gc.enable()


def _in_generation(objs, generation):
    tracked = {id(o) for o in gc.get_objects(generation=generation)}
    return [o for o in objs if id(o) in tracked]


def test_bulk_build_promotes_a_large_carrier_and_freezes_nothing():
    # ~~~~e at e = 1 is 65,536 tables, above the gen-0 threshold
    model = ModelConfig(base_sizes={"e": 1}, rank_cap=2)
    domains._MINTERM_CACHE.clear()
    gc.collect()
    frozen = gc.get_freeze_count()
    tables = enumerate_domain(model, N4, 0)
    assert gc.get_freeze_count() == frozen
    if frozen == 0:  # else (as on 3.12, from start-up) no promotion
        for young in range(len(gc.get_count()) - 1):
            assert not _in_generation(tables, young)
    domains._MINTERM_CACHE.clear()


def test_bulk_build_leaves_young_objects_young_after_a_small_carrier():
    model = ModelConfig(base_sizes={"e": 2})
    assert 16 <= gc.get_threshold()[0]
    enabled = gc.isenabled()
    gc.disable()  # so that no collection moves the marker
    try:
        domains._MINTERM_CACHE.clear()
        marker = []
        assert len(enumerate_domain(model, neg_type(neg_type(E)), 0)) == 16
        assert _in_generation([marker], 0) == [marker]
    finally:
        if enabled:
            gc.enable()


def test_bulk_build_keeps_a_hosts_frozen_objects_frozen():
    model = ModelConfig(base_sizes={"e": 1}, rank_cap=2)
    domains._MINTERM_CACHE.clear()
    gc.collect()
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        assert frozen > 0
        assert len(enumerate_domain(model, N4, 0)) == 65536
        assert gc.get_freeze_count() == frozen
    finally:
        gc.unfreeze()
        domains._MINTERM_CACHE.clear()


def test_intern_replaces_an_entry_whose_value_died():
    class Probe:
        pass

    key = (Probe, "dead entry")
    old = Probe()
    dead = syntax._INTERNED[key] = syntax._Ref(old)  # no callback to drop it
    dead.key = key
    del old
    assert dead() is None and syntax._INTERNED[key] is dead
    new = Probe()
    assert syntax._intern(key, new) is new
    assert syntax._intern(key, Probe()) is new  # a hit returns the live value
    del new
    assert key not in syntax._INTERNED


def test_rebuilding_a_carrier_returns_its_live_tables():
    # ~~~e at e = 1 is 16 tables; six stay alive, and hold every table of
    # the carriers below it
    model = ModelConfig(base_sizes={"e": 1})
    ty = neg_type(neg_type(neg_type(E)))
    domains._MINTERM_CACHE.clear()
    kept = enumerate_domain(model, ty, 0)[::3]
    domains._MINTERM_CACHE.clear()
    gc.collect()
    live = len(syntax._INTERNED)
    tables = enumerate_domain(model, ty, 0)
    assert len(tables) == 16 and len(kept) == 6
    assert all(t is k for t, k in zip(tables[::3], kept))
    assert len(syntax._INTERNED) == live + 10


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
    x = corpus.random_canon_elem(rng, model, E, max_rank=2, depth=2)
    y = corpus.random_canon_elem(rng, model, E, max_rank=2, depth=2)
    assert valuation_equal(x, y) == (canonical_key(x) == canonical_key(y))
    assert ba_equal(x, y) == valuation_equal(x, y)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_fixed_rank_boolean_laws(seed):
    rng = gen.make_rng(seed)
    model = ModelConfig(base_sizes={"e": 2})
    k = rng.randint(1, 2)
    x = corpus.random_canon_elem(rng, model, E, max_rank=k, depth=2)
    y = corpus.random_canon_elem(rng, model, E, max_rank=k, depth=2)
    z = corpus.random_canon_elem(rng, model, E, max_rank=k, depth=2)
    meet = lambda *cs: make_meet(k, E, cs)
    join = lambda *cs: make_join(k, E, cs)
    neg = lambda c: make_neg(k, c)
    assert ba_equal(neg(neg(x)), x)
    assert ba_equal(neg(meet(x, y)), join(neg(x), neg(y)))  # De Morgan
    assert ba_equal(meet(x, join(x, y)), x)  # absorption
    assert ba_equal(meet(x, join(y, z)), join(meet(x, y), meet(x, z)))


def reference_canonical_key(e):
    """canonical_key with its truth table read one row at a time: the
    element is evaluated once per valuation of its generators."""
    match e:
        case TruthVal(v):
            return ("tv", v)
        case Individual(ty, name):
            return ("ind", render_type(ty), name)
        case FnTable(dom, cod, entries):
            return ("tab", render_type(dom), render_type(cod),
                    tuple((reference_canonical_key(k), reference_canonical_key(v))
                          for k, v in entries))
        case AtomicApp(fun, arg):
            return ("app", reference_canonical_key(fun), reference_canonical_key(arg))
    cut = _rank(e)
    raw = []
    _opaque_below(e, cut, raw)
    reps, keys, index = [], [], {}
    for g in raw:
        kg = reference_canonical_key(g)
        if g in index:
            continue
        for i, existing in enumerate(keys):
            if existing == kg:
                index[g] = i
                break
        else:
            index[g] = len(reps)
            reps.append(g)
            keys.append(kg)
    n = len(reps)
    if n > MAX_GENERATORS:
        raise CapExceeded(f"{n} generators exceeds the valuation cap")
    table = [_truth(e, cut, lambda x: (bits >> index[x]) & 1)
             for bits in range(2 ** n)]
    essential = [i for i in range(n)
                 if any(table[b] != table[b ^ (1 << i)] for b in range(2 ** n))]
    if not essential:
        return ("const", cut, table[0], render_type(e.ty))
    proj = []
    for sel in range(2 ** len(essential)):
        bits = 0
        for j, i in enumerate(essential):
            bits |= ((sel >> j) & 1) << i
        proj.append(table[bits])
    if len(essential) == 1 and proj == [0, 1]:
        return keys[essential[0]]
    order = sorted(range(len(essential)), key=lambda j: keys[essential[j]])
    reordered = []
    for sel in range(2 ** len(essential)):
        src = 0
        for newpos, j in enumerate(order):
            src |= ((sel >> newpos) & 1) << j
        reordered.append(proj[src])
    return ("node", cut, render_type(e.ty),
            tuple(keys[essential[j]] for j in order), tuple(reordered))


def test_canonical_key_matches_reference():
    model = ModelConfig(base_sizes={"e": 3})
    a, b, c = enumerate_domain(model, E, 0)
    elems = [top_at(1, E), bottom_at(2, E), top_at(1, BOT), bottom_at(3, BOT),
             FALSE, TRUE, a, make_neg(1, a), make_neg(2, make_neg(1, a)),
             make_meet(1, E, [a]), make_join(2, E, [a, top_at(1, E)]),
             make_meet(1, E, [a, make_neg(1, a)]), make_join(1, E, [a, make_neg(1, a)]),
             make_meet(2, E, [make_join(1, E, [a, b]), make_join(1, E, [b, a])]),
             make_join(1, E, [make_meet(1, E, [a, b]), make_meet(1, E, [a, make_neg(1, b)])]),
             make_join(1, BOT, [TRUE, make_neg(1, FALSE)])]
    rng = gen.make_rng(13)
    elems += [corpus.random_canon_elem(rng, model, E, max_rank=3, depth=3)
              for _ in range(3000)]
    assert any(isinstance(e, (MeetE, JoinE)) and not e.children for e in elems[16:])
    assert len({_rank(e) for e in elems[16:]}) == 4
    for e in elems:
        assert canonical_key(e) == reference_canonical_key(e), render_elem(e)


def test_canonical_key_at_the_generator_cap_is_fast():
    # the table is projected and reordered by whole-table bit operations,
    # not one row at a time
    atoms = [Individual(E, f"g{i}") for i in reversed(range(MAX_GENERATORS))]
    start = time.perf_counter()
    key = canonical_key(make_join(1, E, atoms))
    assert time.perf_counter() - start < 1.0
    assert len(key[4]) == 2 ** MAX_GENERATORS and sum(key[4]) == 2 ** MAX_GENERATORS - 1
    # generators out of key order, and some that do not matter
    x, y = Individual(E, "x"), Individual(E, "y")
    dead = [make_meet(1, E, [x, make_neg(1, x)]), make_join(1, E, [y, make_neg(1, y)])]
    e = make_meet(1, E, [make_join(1, E, atoms[:10] + dead[:1]), make_neg(1, atoms[3]),
                         make_join(1, E, [dead[1], atoms[11]])])
    assert canonical_key(e) == reference_canonical_key(e)


def test_canonical_key_cap_is_checked():
    atoms = [Individual(E, f"g{i}") for i in range(MAX_GENERATORS + 1)]
    node = make_join(1, E, atoms)
    with pytest.raises(CapExceeded):
        canonical_key(node)
    # a key that raises keeps nothing: the second call computes it again
    misses = canonical_key.cache_info().misses
    with pytest.raises(CapExceeded):
        canonical_key(node)
    assert canonical_key.cache_info().misses == misses + 1


def reference_render(e):
    """render_elem from the element syntax, recursing on every call."""
    match e:
        case TruthVal(v):
            return str(v)
        case Individual(_, name):
            return name
        case FnTable(_, _, entries):
            return "table{" + ",".join(f"{reference_render(k)}->{reference_render(v)}"
                                       for k, v in entries) + "}"
        case AtomicApp(fun, arg):
            return f"({reference_render(fun)} {reference_render(arg)})"
        case NegE(k, _, child):
            return f"neg[{k}]({reference_render(child)})"
        case MeetE(k, _, children) | JoinE(k, _, children):
            op = "and" if isinstance(e, MeetE) else "or"
            return f"{op}[{k}](" + ",".join(map(reference_render, children)) + ")"
    raise AssertionError(f"not an element: {e!r}")


def _render_and_key_corpus():
    """Every element of small carriers, generated ranked elements, and iso
    inputs with their outputs."""
    m1 = ModelConfig(base_sizes={"e": 1}, rank_cap=2)
    m22 = ModelConfig(base_sizes={"e": 2, "t": 2})
    elems = []
    for model, ty, rank in [(m1, E, 1), (m1, BOT, 1), (m1, neg_type(E), 1),
                            (m1, neg_type(neg_type(E)), 0), (m22, E, 1), (m22, T, 1),
                            (m22, Arrow(E, T), 0), (m22, neg_type(neg_type(E)), 0)]:
        elems += enumerate_domain(model, ty, 0)
        if rank:
            elems += enumerate_domain(model, ty, 1)
    p = Individual(Arrow(E, T), "p")
    elems += [p, AtomicApp(p, Individual(E, "a"))]
    m3 = ModelConfig(base_sizes={"e": 3})
    rng = gen.make_rng(17)
    for ty in (E, BOT, neg_type(E)):
        elems += [corpus.random_canon_elem(rng, m3, ty, max_rank=3, depth=3)
                  for _ in range(300)]
    inputs = random.Random(19).sample(enumerate_domain(m1, N4, 0), 200)
    elems += inputs + [iso_iterate(N4, f, m1) for f in inputs]
    elems += [iso_i(f, m1) for f in inputs[:50]]
    return elems


def test_render_and_key_match_the_references_on_every_call():
    elems = _render_and_key_corpus()
    kinds = {type(e) for e in elems}
    assert kinds == {TruthVal, Individual, FnTable, AtomicApp, NegE, MeetE, JoinE}
    for e in elems:
        text, key = render_elem(e), canonical_key(e)
        assert text == reference_render(e)
        assert key == reference_canonical_key(e), text
        # the second call answers from what the first kept, and counts a hit
        renders, keys = render_elem.cache_info().hits, canonical_key.cache_info().hits
        assert render_elem(e) is text and canonical_key(e) is key
        assert render_elem.cache_info().hits == renders + 1
        assert canonical_key.cache_info().hits == keys + 1


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


# --- computed tables --------------------------------------------------------

def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as ex:  # the failure itself is the outcome compared
        return type(ex), str(ex)


def _table_operations(seed):
    """Applications and lattice nodes over random elements of ranks 0-2,
    some of them ill-ranked (a rank-2 child under a rank-1 node)."""
    rng = random.Random(seed)
    model = ModelConfig(base_sizes={"e": 2})
    fty = Arrow(E, BOT)
    funs = [corpus.random_canon_elem(rng, model, fty) for _ in range(80)]
    args = [corpus.random_canon_elem(rng, model, E) for _ in range(80)]
    applies = [(p, a) for p in funs[:20] for a in args[:20]]
    nodes = [(cls, rng.randint(1, 2), E, tuple(rng.sample(args, rng.randint(0, 4))))
             for cls in (MeetE, JoinE) for _ in range(150)]
    return applies, nodes


def _through_tables(applies, nodes):
    make = {MeetE: make_meet, JoinE: make_join}
    return ([_outcome(domains.apply_elem, p, a) for p, a in applies]
            + [_outcome(make[cls], k, ty, cs) for cls, k, ty, cs in nodes])


def test_computed_tables_agree_with_the_uncached_bodies(monkeypatch):
    applies, nodes = _table_operations(17)
    with monkeypatch.context() as patch:
        # the old engine: every call, nested ones too, runs the body
        patch.setattr(domains, "apply_elem", apply_elem.__wrapped__)
        patch.setattr(domains, "_make_lattice", domains._make_lattice.__wrapped__)
        want = _through_tables(applies, nodes)
    assert any(isinstance(w, tuple) for w in want)  # some operations fail
    apply_elem.cache_clear()
    domains._make_lattice.cache_clear()
    cold = _through_tables(applies, nodes)
    warm = _through_tables(applies, nodes)
    for w, c, h in zip(want, cold, warm):
        if isinstance(w, tuple):
            assert w == c == h
        else:
            assert w is c is h
    assert apply_elem.cache_info().hits >= len(applies)


def test_failed_operations_are_not_tabled():
    p = Individual(Arrow(E, BOT), "p")
    x, y = Individual(T, "x"), Individual(E, "y")
    high = make_meet(2, E, [y, make_neg(2, Individual(E, "z"))])
    apply_elem.cache_clear()
    domains._make_lattice.cache_clear()
    for _ in range(2):
        with pytest.raises(TypeMismatch, match="does not match"):
            apply_elem(p, x)
        with pytest.raises(TypeMismatch, match="differs from node type"):
            make_join(1, E, [y, x])
        with pytest.raises(CttError, match="exceeds node rank"):
            make_meet(1, E, [y, high])
    assert apply_elem.cache_info().currsize == 0
    assert domains._make_lattice.cache_info().currsize == 0


def test_tables_stay_within_their_bounds_over_a_harness_sweep():
    from ctt.semantics import cts_rule_harness
    for rule in ("and-L", "or-R", "neg-Lr", "all-R"):
        cts_rule_harness(rule, trials=10, seed=3)
    assert [(name, info.maxsize) for name, info in domains.table_stats()] == [
        ("apply_elem", domains.APPLY_TABLE_SIZE),
        ("lattice", domains.LATTICE_TABLE_SIZE),
        ("render_elem", None),
        ("canonical_key", None),
        ("iso", None)]
    for name, info in domains.table_stats():
        # the harness maps only rank-0 tables, whose images the isomorphism
        # does not keep; the iso row's hits are checked by the memory test
        assert info.hits > 0 or name == "iso", name
        # texts, keys and child images are kept on the elements, not in a
        # table
        assert info.currsize <= (info.maxsize or 0), name
    assert len(domains._ISO_ATOM_CACHE) == 0


def test_the_isomorphism_bypasses_the_lattice_table():
    # base t is unused by ~~~~e, so every image is mapped afresh
    model = ModelConfig(base_sizes={"e": 1, "t": 1}, rank_cap=2)
    n4 = neg_type(neg_type(neg_type(neg_type(E))))
    inputs = random.Random(41).sample(enumerate_domain(model, n4, 0), 400)
    before = domains._make_lattice.cache_info()
    outs = [iso_iterate(n4, f, model) for f in inputs]
    assert domains._make_lattice.cache_info() == before
    alone = ModelConfig(base_sizes={"e": 1}, rank_cap=2)
    assert all(o is iso_iterate(n4, f, alone) for o, f in zip(outs, inputs))


def test_render_and_key_live_as_long_as_their_element():
    f = Individual(Arrow(E, BOT), "f")
    gc.collect()
    live = len(syntax._INTERNED)
    elems = [AtomicApp(f, Individual(E, f"x{i}")) for i in range(5000)]
    texts = [render_elem(e) for e in elems]
    keys = [canonical_key(e) for e in elems]
    assert texts[:3] == ["(f x0)", "(f x1)", "(f x2)"]
    assert keys[0] == ("app", canonical_key(f), ("ind", "e", "x0"))
    assert render_elem.cache_info()[2:] == canonical_key.cache_info()[2:] == (None, 0)
    # built again, an element is rendered and keyed again, to the same values
    refs = [weakref.ref(e) for e in elems]
    del elems
    gc.collect()
    assert not any(ref() for ref in refs)
    assert len(syntax._INTERNED) == live
    again = [AtomicApp(f, Individual(E, f"x{i}")) for i in range(5000)]
    misses = render_elem.cache_info().misses
    assert [render_elem(e) for e in again] == texts
    assert render_elem.cache_info().misses == misses + 2 * len(again)  # app and arg
    assert [canonical_key(e) for e in again] == keys


def test_bounded_table_evicts_the_least_recently_used_entry():
    table = domains._BoundedTable(4)
    table.store("read", 1)
    table.store("unread", 2)
    for i in range(4):
        assert table.recall("read") == 1
        table.store(i, i)
    assert list(table) == [1, 2, "read", 3]
    assert table.recall("unread") is None
    assert table.cache_info() == (4, 1, 4, 4)  # hits, misses, maxsize, currsize


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
        assert corpus.is_canonical_elem(value)


def test_is_canonical_elem_rejects_an_operator_under_an_application():
    f = fn_table(E, BOT, {Individual(E, "a"): TRUE, Individual(E, "b"): FALSE})
    a = Individual(E, "a")
    assert corpus.is_canonical_elem(AtomicApp(f, a))
    for bad in (AtomicApp(make_neg(1, f), a),
                make_neg(2, AtomicApp(make_neg(1, f), a)),
                AtomicApp(fn_table(E, E, {a: a}), make_neg(1, a))):
        assert not corpus.is_canonical_elem(bad)


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
    out = eval_cts(expr, m22, {"r": r})
    assert out == make_neg(1, apply_elem(r, a))
    big = parse_cts("(r:~e@0 All[1](x:e@0))")
    out2 = eval_cts(big, m22, {"r": r})
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
    from ctt.syntax import classify, replace_at, subterm_at, SyntaxClass
    from ctt.semantics import canonicalize_cts

    model = ModelConfig()
    rng = gen.make_rng(42)
    for _ in range(150):
        sig = {}
        sub = corpus.random_bot_subterm(rng, depth=3, sig=sig, var_ranks=(0,))
        syntactic = sub
        for _ in range(200):
            hit = _innermost_redex(syntactic)
            if hit is None:
                break
            path, op, functor_side = hit
            out = squeeze_out(subterm_at(syntactic, path), op, functor_side, model)
            assert not isinstance(out, str), out
            syntactic = replace_at(syntactic, path, out)
        assert classify(syntactic) in (SyntaxClass.ATOMIC, SyntaxClass.CANONICAL)
        assert canonicalize_cts(syntactic, model) == canonicalize_cts(sub, model)


def test_canonicalize_commuted_children_codenotational(m22):
    r = enumerate_domain(m22, Arrow(E, BOT), 0)[2]
    e1 = parse_cts("(r:~e@0 and[1](a:e@0, neg[1](b:e@0)))")
    e2 = parse_cts("(r:~e@0 and[1](neg[1](b:e@0), a:e@0))")
    assert ba_equal(eval_cts(e1, m22, {"r": r}), eval_cts(e2, m22, {"r": r}))


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
    assert out.k == 2
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
    sampled semantic-key sweep). Each is the element two `iso_i` steps
    give, though `iso_iterate` reads a table once and builds no rank-1
    join."""
    model = ModelConfig(base_sizes={"e": 1}, rank_cap=2)
    n4 = Arrow(Arrow(Arrow(Arrow(E, BOT), BOT), BOT), BOT)
    inputs = enumerate_domain(model, n4, 0)
    assert len(inputs) == 2 ** 16
    outs = []
    for f in inputs:
        out = iso_iterate(n4, f, model)
        assert out.k <= 2
        assert out is iso_i(iso_i(f, model), model)
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
    assert {o.k for o in outs} == {0, 1}  # principal images collapse
    assert len({canonical_key(o) for o in outs}) == len(outs)


def test_iso_iterate_rank_cap(monkeypatch):
    model = ModelConfig(base_sizes={"e": 1}, rank_cap=1)
    n4 = Arrow(Arrow(Arrow(Arrow(E, BOT), BOT), BOT), BOT)
    inputs = enumerate_domain(model, n4, 0)
    made, real_intern = [], syntax._intern
    monkeypatch.setattr(syntax, "_intern",
                        lambda key, obj: made.append(key[0]) or real_intern(key, obj))
    # the empty family, and two families of several sets
    for f in (inputs[0], inputs[3], inputs[-1]):
        with pytest.raises(CapExceeded, match="passed the rank cap 1"):
            iso_iterate(n4, f, model)
    # the cap is checked against the final rank before any node is built
    assert made == []


def _iso_twice(f, model):
    return iso_i(iso_i(f, model), model)


def _assert_iterates_as_two_steps(n4, f, model):
    """The same element, or an error of the same type and text."""
    assert _outcome(iso_iterate, n4, f, model) == _outcome(_iso_twice, f, model)


def test_iso_iterate_is_two_iso_steps_on_unfit_tables_and_nodes():
    model = ModelConfig(base_sizes={"e": 1}, rank_cap=4)
    nne = neg_type(neg_type(E))
    n3, n4 = neg_type(nne), neg_type(neg_type(nne))
    rng = random.Random(59)
    tables = enumerate_domain(model, n4, 0)
    sample = rng.sample(tables, 300) + tables[:2] + tables[-2:]
    p = Individual(BOT, "p")
    for f in sample:
        entries = f.entries
        for variant in (entries[::-1],  # reversed: read through the key masks
                        entries + entries[:1],  # a key repeated
                        entries[1:],  # not total
                        entries[:-1] + ((entries[-1][0], p),)):  # not concrete
            _assert_iterates_as_two_steps(n4, FnTable(f.dom, f.cod, variant), model)
    # rank-1 and rank-2 nodes over ~~~~e atoms, one over a partial table;
    # the atoms are reversed tables, which die with the test, so no carrier
    # table keeps an image as a child
    partial = FnTable(n3, BOT, sample[0].entries[1:])
    t = [FnTable(f.dom, f.cod, f.entries[::-1]) for f in sample[:6]]
    nodes = [make_join(1, n4, [t[0], make_neg(1, t[1])]),
             make_meet(1, n4, [t[2], t[3], t[4]]),
             make_neg(2, make_join(1, n4, [t[0], t[5]])),
             make_join(2, n4, [make_meet(1, n4, [t[1], make_neg(1, t[2])]),
                               make_neg(2, t[3])]),
             make_join(1, n4, [partial, t[0]])]
    for x in nodes:
        _assert_iterates_as_two_steps(n4, x, model)


def test_iso_iterate_builds_one_join_per_fresh_input(monkeypatch):
    model = ModelConfig(base_sizes={"e": 1}, rank_cap=2)
    n4 = neg_type(neg_type(neg_type(neg_type(E))))
    inputs = random.Random(61).sample(enumerate_domain(model, n4, 0), 1100)
    # joins that the computed tables keep from other tests would be found
    apply_elem.cache_clear()
    domains._make_lattice.cache_clear()
    # the warm-up leaves every minterm of the ~~e carrier with its image
    warm = [iso_iterate(n4, f, model) for f in inputs[:1000]]
    del warm
    gc.collect()
    # inputs whose family is neither principal nor a single set
    fresh = [f for f in inputs[1000:] if isinstance(iso_i(f, model), JoinE)]
    assert len(fresh) > 50
    made, real_intern = [], syntax._intern
    monkeypatch.setattr(syntax, "_intern",
                        lambda key, obj: made.append(key[0]) or real_intern(key, obj))
    for f in fresh:
        made.clear()
        out = iso_iterate(n4, f, model)
        assert made == [JoinE] and out.k == 2


def test_iso_iterate_keeps_at_most_its_bound_of_images(monkeypatch):
    model = ModelConfig(base_sizes={"e": 1}, rank_cap=2)
    wider = ModelConfig(base_sizes={"e": 1, "t": 2}, rank_cap=2)
    inputs = random.Random(67).sample(enumerate_domain(model, N4, 0), 2000)
    # a carrier takes its bound when it is built, so every carrier is new
    monkeypatch.setattr(domains, "MINTERM_TABLE_SIZE", 4)
    monkeypatch.setattr(domains, "_MINTERM_CACHE",
                        domains._BoundedTable(domains.CARRIER_TABLE_SIZE))
    # the warm-up leaves each ~~e table with its image as a child
    warm = [iso_iterate(N4, f, model) for f in inputs[:100]]
    del warm
    domains._MINTERM_CACHE.clear()
    gc.collect()
    live = len(syntax._INTERNED)
    misses = domains._ISO_ATOM_CACHE.cache_info().misses
    outs = []
    for f in inputs:
        out = iso_iterate(N4, f, model)
        assert out is _iso_twice(f, model)
        assert all(len(images) <= 4 for carrier in domains._MINTERM_CACHE.values()
                   for images in carrier.images.values())
        outs.append(out)
    # 16 minterms share 4 places, so images are made again and again
    assert domains._ISO_ATOM_CACHE.cache_info().misses - misses > len(inputs)
    assert all(iso_iterate(N4, f, wider) is out for f, out in zip(inputs, outs))
    del outs, out
    domains._MINTERM_CACHE.clear()
    gc.collect()
    assert len(syntax._INTERNED) == live


def reference_family_image(sets, sigma, model):
    """The full-DNF reading of a family of member sets, from its
    definition: the atom whose principal family it is, else the join of
    one minterm per member set, each the meet of the members and the
    other atoms' negations."""
    atoms = enumerate_domain(model, sigma, 0)
    sets = frozenset(sets)
    for a in atoms:
        if sets == {s for s in _powerset(atoms) if a in s}:
            return a
    return make_join(1, sigma, [
        make_meet(1, sigma, [a if a in s else make_neg(1, a) for a in atoms])
        for s in sets])


def reference_iso_i(f, model):
    """iso_i without its memo or its carrier layouts: a table is read as
    the family of the sets of atoms its true keys map to 1, and every node
    is rebuilt one rank up through the lattice constructors."""
    if isinstance(f, FnTable):
        if {k for k, _ in f.entries} != set(enumerate_domain(model, f.dom, 0)):
            raise TypeMismatch("not total")
        sets = {frozenset(a for a, v in key.entries if v is TRUE)
                for key, val in f.entries if val is TRUE}
        return reference_family_image(sets, f.dom.dom, model)
    match f:
        case NegE(k, _, child):
            return make_neg(k + 1, reference_iso_i(child, model))
        case MeetE(k, fty, children) | JoinE(k, fty, children):
            if not (is_neg_type(fty) and is_neg_type(fty.dom)):
                raise TypeMismatch("not over ~~s")
            make = make_meet if isinstance(f, MeetE) else make_join
            return make(k + 1, fty.dom.dom, [reference_iso_i(c, model) for c in children])
    raise TypeMismatch("not an element over ~~s")


def test_iso_matches_the_reference_on_tables_and_families():
    nne = neg_type(neg_type(E))
    for size in (1, 2, 3):
        model = ModelConfig(base_sizes={"e": size})
        for f in enumerate_domain(model, nne, 0):
            assert iso_i(f, model) is reference_iso_i(f, model)
            # the same table with its entries out of order
            backwards = FnTable(f.dom, f.cod, f.entries[::-1])
            assert iso_i(backwards, model) is reference_iso_i(backwards, model)
        for family in _powerset(_powerset(enumerate_domain(model, E, 0))):
            assert iso_i(family, model, ty=E) is reference_family_image(family, E, model)
    model = ModelConfig(base_sizes={"e": 4})
    atoms = enumerate_domain(model, E, 0)
    subsets = _powerset(atoms)
    rng = random.Random(37)
    families = [frozenset(rng.sample(subsets, rng.randint(0, 16))) for _ in range(300)]
    families += [frozenset(), frozenset(subsets), frozenset([subsets[6]])]
    families += [frozenset(s for s in subsets if a in s) for a in atoms]
    for family in families:
        assert iso_i(family, model, ty=E) is reference_family_image(family, E, model)
    assert {iso_i(family, model, ty=E).k for family in families} == {0, 1}


def test_iso_memo_matches_reference(m3):
    m1 = ModelConfig(base_sizes={"e": 1}, rank_cap=3)
    ne = neg_type(E)
    nne, n3 = neg_type(ne), neg_type(neg_type(ne))
    n4 = neg_type(n3)
    sample = random.Random(29).sample(enumerate_domain(m1, n4, 0), 2000)
    for f in sample:
        once = iso_i(f, m1)
        assert once is reference_iso_i(f, m1)
        twice = iso_i(once, m1)
        assert twice is reference_iso_i(once, m1)
        assert iso_iterate(n4, f, m1) is twice
    for out in [iso_iterate(n4, f, m1) for f in sample[::20]]:
        assert canonical_key(out) == reference_canonical_key(out)
    for f in enumerate_domain(m1, n3, 0):
        assert iso_iterate(n3, f, m1) is reference_iso_i(f, m1)
    t = enumerate_domain(m3, nne, 0)
    hand_built = [
        make_meet(2, nne, [make_join(1, nne, [t[0], make_neg(1, t[1])]),
                           make_neg(2, t[2]),
                           make_join(2, nne, [t[3], make_meet(1, nne, [t[1], t[4]])])]),
        make_neg(2, make_neg(1, t[5])), top_at(2, nne), bottom_at(1, nne),
        make_join(2, nne, [top_at(1, nne), make_meet(2, nne, [t[6], t[255]])]),
    ]
    for f in t + hand_built:
        assert iso_i(f, m3) is reference_iso_i(f, m3)


def test_iso_memo_keys_images_by_base_sizes():
    # a ~~e table of a one-element e is not total once e has two elements:
    # an image mapped under one model must not answer for the other
    m1, m2 = ModelConfig(base_sizes={"e": 1}), ModelConfig(base_sizes={"e": 2})
    nne = neg_type(neg_type(E))
    f = enumerate_domain(m1, nne, 0)[1]
    g = make_join(1, nne, [f, make_neg(1, enumerate_domain(m1, nne, 0)[2])])
    for x in (f, g):
        assert iso_i(x, m1) is reference_iso_i(x, m1)
        with pytest.raises(TypeMismatch, match="not total"):
            iso_i(x, m2)
    wider = ModelConfig(base_sizes={"e": 1, "t": 2})
    assert iso_i(g, wider) is iso_i(g, m1)


def test_iso_keeps_no_image_of_a_one_off_input():
    model = ModelConfig(base_sizes={"e": 1}, rank_cap=2)
    n4 = neg_type(neg_type(neg_type(neg_type(E))))
    inputs = random.Random(43).sample(enumerate_domain(model, n4, 0), 4000)
    # the first 1,000 inputs leave every child image the sweep needs
    warm = [iso_iterate(n4, f, model) for f in inputs[:1000]]
    del warm
    gc.collect()
    live = len(syntax._INTERNED)
    hits = domains._ISO_ATOM_CACHE.cache_info().hits
    outs = [iso_iterate(n4, f, model) for f in inputs]
    # an input is not a child: its slot stays empty
    assert not any(hasattr(f, "_iso") for f in inputs)
    # each input's minterms were mapped before, and their images are read
    # back from them
    assert domains._ISO_ATOM_CACHE.cache_info().hits - hits > len(inputs)
    assert len({render_elem(o) for o in outs}) == len({canonical_key(o) for o in outs}) \
        == len(inputs)
    del outs
    gc.collect()
    assert len(syntax._INTERNED) == live


def test_iso_images_die_with_their_children():
    # each rank-1 node of a fresh rank-2 input over ~~e is a child that
    # lives only as long as its input; of the children mapped, only the
    # carrier's tables outlive the sweep, and they keep one image each
    model = ModelConfig(base_sizes={"e": 2}, rank_cap=3)
    nne = neg_type(neg_type(E))
    tables = enumerate_domain(model, nne, 0)
    rng = random.Random(47)

    def fresh():
        return domains._lattice(JoinE, 2, nne, [
            domains._lattice(MeetE, 1, nne, [rng.choice(tables), rng.choice(tables),
                                             make_neg(1, rng.choice(tables))])
            for _ in range(3)])

    gc.collect()
    before = [ref() for ref in syntax._INTERNED.values()]
    inputs = [fresh() for _ in range(300)]
    outs = [iso_i(x, model) for x in inputs]
    assert all(o is iso_i(x, model) for x, o in zip(inputs, outs))
    del inputs, outs
    gc.collect()
    # what the carrier's tables keep: their images, and the parts of those
    kept, todo = set(), [t._iso[1] for t in tables if hasattr(t, "_iso")]
    while todo:
        e = todo.pop()
        if e not in kept:
            kept.add(e)
            todo.extend(e.children if isinstance(e, (MeetE, JoinE))
                        else [e.child] if isinstance(e, NegE) else [])
    old = set(map(id, before))
    new = [v for v in (ref() for ref in syntax._INTERNED.values()) if id(v) not in old]
    assert all(v in kept for v in new)
    assert len(syntax._INTERNED) <= len(before) + len(tables)


def test_iso_failures_are_not_memoized(m3):
    ne = neg_type(E)
    partial = fn_table(ne, BOT, {enumerate_domain(m3, ne, 0)[0]: TRUE})
    a, b = enumerate_domain(m3, E, 0)[:2]
    for bad, msg in [(partial, "not total"), (make_neg(1, partial), "not total"),
                     (make_meet(1, E, [a, b]), "not over ~~s"),
                     (a, r"cannot apply the isomorphism to a \(")]:
        for _ in range(2):
            with pytest.raises(TypeMismatch, match=msg):
                iso_i(bad, m3)


def test_iso_table_checks_keep_their_order(m3):
    ne = neg_type(E)
    keys = enumerate_domain(m3, ne, 0)
    p = Individual(BOT, "p")
    a = Individual(E, "a")
    for mapping, cod, msg in [
            ({keys[0]: p}, BOT, "not total"),
            (dict.fromkeys(keys, a), E, r"is not of a ~~s type"),
            ({**dict.fromkeys(keys, TRUE), keys[3]: p}, BOT, "must be concrete")]:
        with pytest.raises(TypeMismatch, match=msg):
            iso_i(fn_table(ne, cod, mapping), m3)


def test_iso_iterate_checks_the_input_type():
    model = ModelConfig(base_sizes={"e": 1}, rank_cap=3)
    nne = neg_type(neg_type(E))
    n3, n4 = neg_type(nne), neg_type(neg_type(nne))
    f4 = enumerate_domain(model, n4, 0)[5]
    f2 = enumerate_domain(model, nne, 0)[1]
    for ty, f in [(nne, f4), (n3, f4), (n4, f2)]:
        with pytest.raises(TypeMismatch) as ex:
            iso_iterate(ty, f, model)
        assert render_type(ty) in str(ex.value)
        assert render_type(f.ty) in str(ex.value)
        assert "FnTable(" not in str(ex.value)


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
    consts = dict(model.consts)
    assert model.sizes == (("e", 3),)
    assert model.rank_cap == 2
    assert consts["c0"] == FALSE
    assert isinstance(consts["f"], FnTable)
    assert consts["shadow"].k == 1


def test_parse_model_config_cap_violation():
    with pytest.raises(CapExceeded):
        parse_model_config("base e 9")


def test_parse_model_config_declares_the_rank_cap_once():
    # the later line used to win silently, with cap 3
    with pytest.raises(syntax.ParseError) as ex:
        parse_model_config("base e 2\nrankcap 1\n  rankcap   3 # again\n")
    assert str(ex.value) == "model declares the rank cap twice at line 3, column 13"
    assert parse_model_config("base e 2\nrankcap 3\n").rank_cap == 3


def test_parse_model_config_table_mismatch():
    with pytest.raises(TypeMismatch):
        parse_model_config("base e 2\nconst f : (e -> bot) = table{a->0}")


def test_a_table_keyed_by_another_types_twin_does_not_cover_the_carrier():
    # j1 : (t -> bot) renders as the (e -> bot) table k1 does; a table over
    # (e -> bot) that maps j1 in place of k1 is not total
    model = parse_model_config("base e 1\nbase t 1\n"
                               "const k0 : (e -> bot) = table{a->0}\n"
                               "const j1 : (t -> bot) = table{a->1}")
    with pytest.raises(TypeMismatch, match=r"table over \(e -> bot\) does not cover"):
        parse_element("table{k0->1,j1->0}", model)


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


# the two walks the model's name table replaced, kept as the reference

def reference_model_signature(model):
    sig = {}
    counts = {}
    for base, size in model.sizes:
        for n in individual_names(size):
            counts[n] = counts.get(n, 0) + 1
            sig[n] = (Base(base), 0)
    for n, c in counts.items():
        if c > 1:  # shared by several bases: needs an explicit annotation
            del sig[n]
    sig["0"] = (BOT, 0)
    sig["1"] = (BOT, 0)
    for name, value in model.consts:
        sig[name] = (value.ty, value.k)
    return sig


def reference_resolve_constant(model, name, hint=None):
    consts = dict(model.consts)
    if name in consts:
        value = consts[name]
        if hint is None or value.ty == hint:
            return value
        return None
    if name in ("0", "1") and (hint is None or hint == BOT):
        return TruthVal(int(name))
    candidates = []
    for base, size in model.sizes:
        if name in individual_names(size):
            candidates.append(Individual(Base(base), name))
    if hint is not None:
        candidates = [c for c in candidates if c.ty == hint]
    if len(candidates) == 1:
        return candidates[0]
    return None


BASE_NAMES = ("e", "s", "t")
# individual names, the truth values and names no base generates
ELEMENT_NAMES = ("a", "b", "c", "d", "0", "1", "k", "zz")
HINTS = (None, BOT, Arrow(BOT, BOT), *map(Base, BASE_NAMES))
CONSTANT_VALUES = (
    FALSE, TRUE, make_neg(1, TRUE), fn_table(BOT, BOT, {FALSE: TRUE, TRUE: FALSE}),
    *(Individual(Base(b), n) for b in BASE_NAMES for n in "ab"))


@st.composite
def named_models(draw):
    """Bases that share individual names, and constants that may shadow an
    individual, a truth value or each other's types."""
    sizes = draw(st.dictionaries(st.sampled_from(BASE_NAMES),
                                 st.integers(1, domains.MAX_BASE_SIZE), max_size=3))
    consts = draw(st.lists(st.tuples(st.sampled_from(ELEMENT_NAMES),
                                     st.sampled_from(CONSTANT_VALUES)),
                           max_size=4, unique_by=lambda kv: kv[0]))
    return ModelConfig(base_sizes=sizes, rank_cap=draw(st.integers(0, 3)),
                       constants=dict(consts))


@settings(max_examples=200, deadline=None)
@given(named_models())
def test_name_table_answers_as_the_two_walks(model):
    assert model_signature(model) == reference_model_signature(model)
    for name in ELEMENT_NAMES:
        for hint in HINTS:
            assert (resolve_constant(model, name, hint)
                    is reference_resolve_constant(model, name, hint)), (name, hint)


def test_later_constants_keep_their_declaration_order():
    # sequents._named_carrier names a carrier element by the first constant
    # declared with it, so the order constants were declared in is kept
    model = parse_model_config("base e 1\nconst z : bot = 1\nconst y : bot = 1\n"
                               "const w : bot = y")
    assert [name for name, _ in model.consts] == ["z", "y", "w"]
    assert model is ModelConfig(base_sizes={"e": 1},
                                constants={"z": TRUE, "y": TRUE, "w": TRUE})


@pytest.mark.parametrize("base", ["e", "unused_base"])
def test_model_sizes_and_rank_cap_must_be_integers(base):
    # the interning lookup compares by `==`, so 2.0 and True would find the
    # live models of size 2 and cap 1; they are refused whether an equal
    # model is live ("e") or none is ("unused_base")
    live = ModelConfig(base_sizes={"e": 2}, rank_cap=1)
    bad = [({base: 2.0}, 1, f"base {base} has size 2.0; sizes must be integers"),
           ({base: True}, 1, f"base {base} has size True; sizes must be integers"),
           ({base: 2}, True, "rank cap must be a natural number, not True"),
           ({base: 2}, 1.0, "rank cap must be a natural number, not 1.0"),
           ({base: 2}, "2", "rank cap must be a natural number, not '2'")]
    for sizes, cap, msg in bad:
        with pytest.raises(CttError) as info:
            ModelConfig(base_sizes=sizes, rank_cap=cap)
        assert str(info.value) == msg
    assert ModelConfig(base_sizes={"e": 2}, rank_cap=1) is live


def reference_names_base_type(name):
    """The check `_names_base_type` replaced: parse the name as a type."""
    try:
        return syntax.parse_type(name) == Base(name)
    except syntax.ParseError:
        return False


BASE_NAME_TEXT = st.text(alphabet="ae_'09 \t\n#~()->@é", max_size=6)


@settings(max_examples=400, deadline=None)
@given(st.one_of(BASE_NAME_TEXT,
                 st.sampled_from(sorted(syntax.RESERVED)),
                 st.builds(str.__add__, st.sampled_from(sorted(syntax.RESERVED)),
                           BASE_NAME_TEXT)))
def test_base_name_check_answers_as_parsing_the_type(name):
    assert domains._names_base_type(name) == reference_names_base_type(name), repr(name)


def test_base_name_check_on_chosen_names():
    for name in ["e", "e'", "_t0", "bot2", "tablex"]:
        assert domains._names_base_type(name) and reference_names_base_type(name)
    for name in ["", " ", "e ", " e", "e\n", "bot", "table", "e#", "#e", "~e", "(e)",
                 "e -> e", "0", "é", "e-"]:
        assert not domains._names_base_type(name), repr(name)
        assert not reference_names_base_type(name), repr(name)
