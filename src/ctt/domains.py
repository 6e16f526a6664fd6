"""Finite ranked nested-Boolean domains.

Rank 0 of a type holds its ordinary members: truth values at bot,
named individuals at base types, total function tables at arrow types
(plus symbolic named atoms and symbolic applications, for free-variable
work). Rank n+1 is the free Boolean algebra over the whole rank-<=n
carrier: lower-rank elements are opaque generators, so 0 and 1 are
generators at rank 1, not that algebra's bottom and top, and tops at
different ranks are different elements.

Application is driven purely by rank: whichever side carries the
higher-ranked top operator distributes through the other, the functor
winning ties; the operator keeps its rank but its type moves to the
result type. Repeating this bottom-up turns any molecular expression
into a canonical one (no Boolean node under an application).

The type-reduction isomorphism reads a set of sets over the rank-0
carrier as a full disjunctive normal form one rank up.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Optional, Union

from .syntax import (
    Arrow, BOT, Base, Bot, CttError, Interned, TypeExpr, TypeMismatch,
    is_neg_type, render_type, strip_negations,
)


class CapExceeded(CttError):
    """A size cap was hit (enumeration, generators, assignments)."""


class RankOverflow(CttError):
    """A computation needs a representation above the configured rank cap,
    or a rank-0 value where only a shadow exists."""


# ---------------------------------------------------------------------------
# atoms (rank-0 elements)
#
# Every element class is hash-consed (syntax.Interned): equal elements are
# the same object, so dict lookups, dedup and `==` never walk a subtree.

class TruthVal(Interned):
    __slots__ = __match_args__ = ("value",)  # 0 or 1
    ty = BOT

    def _build(self):
        if self.value not in (0, 1):
            raise CttError("truth values are 0 and 1")


class Individual(Interned):
    """A named rank-0 member; symbolic when the type is not a base type."""

    __slots__ = __match_args__ = ("ty", "name")


class FnTable(Interned):
    __match_args__ = ("dom", "cod", "entries")  # entries: ((Atom, Atom), ...)
    __slots__ = (*__match_args__, "ty")

    def _build(self):
        object.__setattr__(self, "ty", Arrow(self.dom, self.cod))

    def lookup(self, key: "Atom") -> Optional["Atom"]:
        for k, v in self.entries:
            if k is key:
                return v
        return None


class AtomicApp(Interned):
    """Symbolic application of rank-0 atoms (kept when no table applies)."""

    __match_args__ = ("fun", "arg")
    __slots__ = (*__match_args__, "ty")

    def _build(self):
        fty = self.fun.ty
        if not isinstance(fty, Arrow) or fty.dom is not self.arg.ty:
            raise TypeMismatch(
                f"atomic application {render_elem(self.fun)} to "
                f"{render_elem(self.arg)} does not compose")
        object.__setattr__(self, "ty", fty.cod)


Atom = Union[TruthVal, Individual, FnTable, AtomicApp]

FALSE = TruthVal(0)
TRUE = TruthVal(1)


def fn_table(dom: TypeExpr, cod: TypeExpr, mapping: dict) -> FnTable:
    entries = tuple(sorted(mapping.items(), key=lambda kv: render_elem(kv[0])))
    return FnTable(dom, cod, entries)


# ---------------------------------------------------------------------------
# ranked elements

class NegE(Interned):
    __slots__ = __match_args__ = ("k", "ty", "child")


class MeetE(Interned):
    __slots__ = __match_args__ = ("k", "ty", "children")  # () = top at rank k


class JoinE(Interned):
    __slots__ = __match_args__ = ("k", "ty", "children")  # () = bottom at rank k


CanonElem = Union[Atom, NegE, MeetE, JoinE]


def elem_rank(e: CanonElem) -> int:
    return e.k if isinstance(e, (NegE, MeetE, JoinE)) else 0


@lru_cache(maxsize=None)
def render_elem(e: CanonElem) -> str:
    match e:
        case TruthVal(v):
            return str(v)
        case Individual(_, name):
            return name
        case FnTable(_, _, entries):
            body = ",".join(f"{render_elem(k)}->{render_elem(v)}" for k, v in entries)
            return "table{" + body + "}"
        case AtomicApp(fun, arg):
            return f"({render_elem(fun)} {render_elem(arg)})"
        case NegE(k, _, child):
            return f"neg[{k}]({render_elem(child)})"
        case MeetE(k, _, children):
            return f"and[{k}](" + ",".join(render_elem(c) for c in children) + ")"
        case JoinE(k, _, children):
            return f"or[{k}](" + ",".join(render_elem(c) for c in children) + ")"
    raise CttError(f"cannot render {e!r}")


def _check_node(k: int, ty: TypeExpr, children: Iterable[CanonElem]):
    if k < 1:
        raise CttError("Boolean operator nodes carry rank >= 1")
    for c in children:
        if elem_rank(c) > k:
            raise CttError(
                f"child rank {elem_rank(c)} exceeds node rank {k}: {render_elem(c)}")
        if c.ty != ty:
            raise TypeMismatch(
                f"child type {c.ty} differs from node type {ty}")


def make_neg(k: int, child: CanonElem) -> NegE:
    _check_node(k, child.ty, (child,))
    return NegE(k, child.ty, child)


def _make_lattice(cls, k: int, ty: TypeExpr, children: Iterable[CanonElem]) -> CanonElem:
    # flatten same-rank nodes of the same flavor, dedup structurally,
    # sort by rendering, collapse singletons (domains are cumulative)
    flat: list[CanonElem] = []
    for c in children:
        if isinstance(c, cls) and c.k == k:
            flat.extend(c.children)
        else:
            flat.append(c)
    _check_node(k, ty, flat)
    uniq = tuple(sorted(dict.fromkeys(flat), key=render_elem))
    if len(uniq) == 1:
        return uniq[0]
    return cls(k, ty, uniq)


def make_meet(k: int, ty: TypeExpr, children: Iterable[CanonElem]) -> CanonElem:
    return _make_lattice(MeetE, k, ty, children)


def make_join(k: int, ty: TypeExpr, children: Iterable[CanonElem]) -> CanonElem:
    return _make_lattice(JoinE, k, ty, children)


def top_at(k: int, ty: TypeExpr) -> MeetE:
    return MeetE(k, ty, ())


def bottom_at(k: int, ty: TypeExpr) -> JoinE:
    return JoinE(k, ty, ())


# ---------------------------------------------------------------------------
# models

INDIVIDUAL_NAMES = "abcdefghijklmnopqrstuvwxyz"
MAX_BASE_SIZE = 4
MAX_RANK0_ENUM = 2 ** 16
MAX_GENERATORS = 20


@dataclass
class ModelConfig:
    """Finite model: base carrier sizes (names auto-generated a, b, ...),
    a rank cap for mu-evaluation, and named constants."""

    base_sizes: dict[str, int] = field(default_factory=dict)
    rank_cap: int = 2
    constants: dict[str, CanonElem] = field(default_factory=dict)

    def __post_init__(self):
        for name, size in self.base_sizes.items():
            if not 1 <= size <= MAX_BASE_SIZE:
                raise CapExceeded(
                    f"base {name} has size {size}; sizes must be 1..{MAX_BASE_SIZE}")
        if self.rank_cap < 0:
            raise CttError("rank cap must be a natural number")


def individual_names(size: int) -> list[str]:
    return list(INDIVIDUAL_NAMES[:size])


def enumerate_domain(model: ModelConfig, ty: TypeExpr, rank: int) -> list[CanonElem]:
    """All elements of the given type at the given rank (0 or 1).

    Rank 0 enumerates atoms. Rank 1 enumerates the full free Boolean
    algebra over the rank-0 carrier as complete-DNF joins of minterms:
    2^(2^g) pairwise-inequivalent elements for g rank-0 atoms. Carriers
    depend only on the base sizes and are memoized; each call returns a
    fresh list.
    """
    return list(_carrier(tuple(sorted(model.base_sizes.items())), ty, rank))


@lru_cache(maxsize=256)
def _carrier(sizes: tuple, ty: TypeExpr, rank: int) -> tuple[CanonElem, ...]:
    if rank == 0:
        match ty:
            case Bot():
                return (FALSE, TRUE)
            case Base(name):
                size = dict(sizes).get(name)
                if size is None:
                    raise CttError(f"model declares no base type {name}")
                return tuple(Individual(ty, n) for n in individual_names(size))
            case Arrow(dom, cod):
                dom_atoms = sorted(_carrier(sizes, dom, 0), key=render_elem)
                cod_atoms = _carrier(sizes, cod, 0)
                count = len(cod_atoms) ** len(dom_atoms)
                if count > MAX_RANK0_ENUM:
                    raise CapExceeded(
                        f"{count} tables for {render_type(ty)} exceeds the cap")
                # one shared (key, value) pair per row cell, not per table
                rows = [[(k, v) for v in cod_atoms] for k in dom_atoms]
                return tuple(FnTable(dom, cod, entries)
                             for entries in itertools.product(*rows))
        raise CttError(f"unknown type {ty!r}")
    if rank == 1:
        atoms = _carrier(sizes, ty, 0)
        g = len(atoms)
        if 2 ** (2 ** g) > MAX_RANK0_ENUM:
            raise CapExceeded(f"{g} generators is too many for rank-1 enumeration")
        minterms = [
            make_meet(1, ty, [a if (mask >> i) & 1 else make_neg(1, a)
                              for i, a in enumerate(atoms)])
            for mask in range(2 ** g)
        ]
        return tuple(make_join(1, ty, [minterms[i] for i in range(2 ** g)
                                       if (sel >> i) & 1])
                     for sel in range(2 ** (2 ** g)))
    raise CapExceeded(f"rank-{rank} domains are not enumerable here")


# ---------------------------------------------------------------------------
# equality in the nested free algebra

def _generators(e: CanonElem, cut: int, acc: list[CanonElem]):
    """Collect maximal subtrees of rank < cut (the opaque generators when
    reading `e` as a Boolean expression at rank `cut`)."""
    if elem_rank(e) < cut:
        acc.append(e)
        return
    match e:
        case NegE(_, _, child):
            _generators(child, cut, acc)
        case MeetE(_, _, children) | JoinE(_, _, children):
            for c in children:
                _generators(c, cut, acc)


def _eval_bool(e: CanonElem, cut: int, lookup) -> int:
    if elem_rank(e) < cut:
        return lookup(e)
    match e:
        case NegE(_, _, child):
            return 1 - _eval_bool(child, cut, lookup)
        case MeetE(_, _, children):
            return int(all(_eval_bool(c, cut, lookup) for c in children))
        case JoinE(_, _, children):
            return int(any(_eval_bool(c, cut, lookup) for c in children))
    raise CttError(f"cannot evaluate {e!r}")


def ba_equal(x: CanonElem, y: CanonElem) -> bool:
    """Same element of the nested free Boolean algebra? Decided by
    canonical keys, which are equal exactly across equal elements."""
    if x.ty != y.ty:
        raise TypeMismatch(f"comparing elements of types {x.ty} and {y.ty}")
    return x is y or canonical_key(x) == canonical_key(y)


def ba_leq(x: CanonElem, y: CanonElem) -> bool:
    """Boolean-algebra order, lifting both sides into the higher rank:
    x <= y iff x meet y is x, decided through cached canonical keys."""
    k = max(elem_rank(x), elem_rank(y), 1)
    return canonical_key(make_meet(k, x.ty, [x, y])) == canonical_key(x)


@lru_cache(maxsize=None)
def canonical_key(e: CanonElem):
    """A value equal for two elements exactly when they are the same
    element of the nested free Boolean algebra (ba_equal, ba_leq).

    Inessential generators are projected away; a function that is a bare
    projection keys as its generator (domains are cumulative), a constant
    keys by rank and polarity.
    """
    match e:
        case TruthVal(v):
            return ("tv", v)
        case Individual(ty, name):
            return ("ind", render_type(ty), name)
        case FnTable(dom, cod, entries):
            return ("tab", render_type(dom), render_type(cod),
                    tuple((canonical_key(k), canonical_key(v)) for k, v in entries))
        case AtomicApp(fun, arg):
            return ("app", canonical_key(fun), canonical_key(arg))
    cut = elem_rank(e)
    raw: list[CanonElem] = []
    _generators(e, cut, raw)
    reps: list[CanonElem] = []
    keys = []
    index: dict[CanonElem, int] = {}
    for g in raw:
        kg = canonical_key(g)
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
    table = [_eval_bool(e, cut, lambda x: (bits >> index[x]) & 1)
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


# ---------------------------------------------------------------------------
# rank-driven application

def apply_elem(p: CanonElem, a: CanonElem) -> CanonElem:
    """Apply p to a, distributing Boolean operators by rank.

    Whichever side has the higher rank distributes its top operator over
    the other, the functor winning ties; the operator's rank is kept and
    its type moves to the result type. Two rank-0 atoms reduce by table
    lookup when possible and stay symbolic otherwise.
    """
    pty = p.ty
    if not isinstance(pty, Arrow):
        raise TypeMismatch(f"{render_elem(p)} : {pty} is not a function")
    if a.ty != pty.dom:
        raise TypeMismatch(
            f"argument {render_elem(a)} : {a.ty} does not match {pty.dom}")
    m, n = elem_rank(p), elem_rank(a)
    if m == 0 and n == 0:
        if isinstance(p, FnTable):
            hit = p.lookup(a)
            if hit is not None:
                return hit
        return AtomicApp(p, a)
    if m >= n:  # functor side distributes (ties included)
        match p:
            case NegE(k, _, child):
                return make_neg(k, apply_elem(child, a))
            case MeetE(k, _, children):
                return make_meet(k, pty.cod, [apply_elem(c, a) for c in children])
            case JoinE(k, _, children):
                return make_join(k, pty.cod, [apply_elem(c, a) for c in children])
    match a:
        case NegE(k, _, child):
            return make_neg(k, apply_elem(p, child))
        case MeetE(k, _, children):
            return make_meet(k, pty.cod, [apply_elem(p, c) for c in children])
        case JoinE(k, _, children):
            return make_join(k, pty.cod, [apply_elem(p, c) for c in children])
    raise CttError(f"cannot apply {render_elem(p)} to {render_elem(a)}")


# ---------------------------------------------------------------------------
# canonical form

def is_canonical_elem(e: CanonElem) -> bool:
    """No application node above an atom anywhere."""
    match e:
        case NegE(_, _, child):
            return is_canonical_elem(child)
        case MeetE(_, _, children) | JoinE(_, _, children):
            return all(is_canonical_elem(c) for c in children)
        case _:
            return True  # atoms, including symbolic applications of atoms


# ---------------------------------------------------------------------------
# the type-reduction isomorphism

def _table_as_sets(f: FnTable) -> tuple[TypeExpr, frozenset[frozenset[Atom]]]:
    """Read a table of type ~~s as a set of sets over the rank-0 carrier
    of s: each ~s argument is the set of atoms it maps to 1."""
    if not (is_neg_type(f.ty) and is_neg_type(f.dom)):
        raise TypeMismatch(f"{render_elem(f)} is not of a ~~s type")
    sigma = f.dom.dom
    sets = []
    for key, val in f.entries:
        if not isinstance(key, FnTable) or not isinstance(val, TruthVal):
            raise TypeMismatch("isomorphism input table must be concrete")
        if val.value == 1:
            sets.append(frozenset(a for a, v in key.entries
                                  if isinstance(v, TruthVal) and v.value == 1))
    return sigma, frozenset(sets)


def _iso_rank0(sets: frozenset, sigma: TypeExpr, model: ModelConfig) -> CanonElem:
    """Full-DNF reading: each member set becomes the rank-1 minterm with a
    positive literal per member atom and a negative literal per non-member;
    the whole is their rank-1 join. Collapses to a rank-0 atom when the
    result is that atom's principal set family."""
    carrier = enumerate_domain(model, sigma, 0)
    carrier_set = set(carrier)
    for s in sets:
        if not s <= carrier_set:
            raise TypeMismatch("set-of-sets mentions atoms outside the carrier")
    if len(sets) == 2 ** (len(carrier) - 1):
        # sets is a's principal family iff all members contain a (counting:
        # there are exactly 2^(g-1) subsets through a)
        for a in carrier:
            if all(a in s for s in sets):
                return a
    sig = (render_type(sigma), len(carrier))
    minterms = []
    for s in sets:
        key = (sig, s)
        m = _MINTERM_CACHE.get(key)
        if m is None:
            m = make_meet(1, sigma, [a if a in s else make_neg(1, a)
                                     for a in carrier])
            _MINTERM_CACHE[key] = m
        minterms.append(m)
    return make_join(1, sigma, minterms)


_MINTERM_CACHE: dict = {}
_ISO_ATOM_CACHE: dict = {}


def iso_i(f, model: ModelConfig, ty: Optional[TypeExpr] = None) -> CanonElem:
    """The rank-raising isomorphism from elements of ~~s at rank n to
    elements of s at rank n+1.

    Accepts a concrete ~~s table or a raw set-of-sets (rank 0; `ty` names s
    for the raw form), or a ranked element over ~~s table atoms (rank >= 1),
    which maps atom generators through the rank-0 case and bumps every
    operator rank by one.
    """
    if isinstance(f, (set, frozenset)):
        if ty is None:
            raise CttError("a raw set-of-sets needs the target type")
        return _iso_rank0(frozenset(frozenset(s) for s in f), ty, model)
    if isinstance(f, FnTable):
        # table atoms recur heavily inside ranked inputs; carrier shape is
        # fixed by the base sizes, so cache per (table, sizes)
        key = (f, tuple(sorted(model.base_sizes.items())))
        hit = _ISO_ATOM_CACHE.get(key)
        if hit is None:
            carrier = enumerate_domain(model, f.dom, 0)
            if {k for k, _ in f.entries} != set(carrier):
                raise TypeMismatch(
                    f"table {render_elem(f)} is not total over its carrier")
            sigma, sets = _table_as_sets(f)
            hit = _iso_rank0(sets, sigma, model)
            _ISO_ATOM_CACHE[key] = hit
        return hit
    match f:
        case NegE(k, fty, child):
            out = iso_i(child, model, ty)
            return make_neg(k + 1, out)
        case MeetE(k, fty, children):
            if not (is_neg_type(fty) and is_neg_type(fty.dom)):
                raise TypeMismatch(f"element of type {fty} is not over ~~s")
            sigma = fty.dom.dom
            outs = [iso_i(c, model, ty) for c in children]
            return make_meet(k + 1, sigma, outs)
        case JoinE(k, fty, children):
            if not (is_neg_type(fty) and is_neg_type(fty.dom)):
                raise TypeMismatch(f"element of type {fty} is not over ~~s")
            sigma = fty.dom.dom
            outs = [iso_i(c, model, ty) for c in children]
            return make_join(k + 1, sigma, outs)
    raise TypeMismatch(f"cannot apply the isomorphism to {f!r}")


def iso_iterate(ty: TypeExpr, f, model: ModelConfig) -> CanonElem:
    """Repeated isomorphism: an element of ~...~s (2m or 2m+1 negations)
    lands in s (even) or ~s (odd), m ranks up."""
    j, core = strip_negations(ty)
    m = j // 2
    if m < 1:
        raise CttError(f"{render_type(ty)} carries no double negation to reduce")
    out = f
    current = ty
    for _ in range(m):
        target = current.dom.dom  # peel two negations
        out = iso_i(out, model, ty=target)
        if elem_rank(out) > model.rank_cap:
            raise CapExceeded(
                f"iterated isomorphism passed the rank cap {model.rank_cap}")
        current = target
    return out


# ---------------------------------------------------------------------------
# model files and element literals

def parse_model_config(text: str) -> ModelConfig:
    """Line-oriented model files:

        base <name> <size>
        rankcap <n>
        const <name> : <type> = <element-literal>

    `#` starts a comment. Element literals use the ranked-term syntax plus
    `table{a->0,b->1}`; and/or take any number of arguments.
    """
    from .syntax import tokenize, _Cursor, _parse_type

    base_sizes: dict[str, int] = {}
    rank_cap = 2
    consts: list[tuple[str, TypeExpr, str]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        if head == "base":
            parts = rest.split()
            if len(parts) != 2 or not parts[1].isdecimal():
                raise CttError(f"bad base line: {raw!r}")
            base_sizes[parts[0]] = int(parts[1])
        elif head == "rankcap":
            if not rest.strip().isdecimal():
                raise CttError(f"bad rankcap line: {raw!r}")
            rank_cap = int(rest.strip())
        elif head == "const":
            name, sep, decl = rest.partition(":")
            if not sep or "=" not in decl:
                raise CttError(f"bad const line: {raw!r}")
            ty_text, _, literal = decl.partition("=")
            c = _Cursor(tokenize(ty_text), ty_text)
            ty = _parse_type(c)
            if c.peek().kind != "EOF":
                raise CttError(f"bad const type in: {raw!r}")
            consts.append((name.strip(), ty, literal.strip()))
        else:
            raise CttError(f"unknown model directive {head!r}")
    model = ModelConfig(base_sizes=base_sizes, rank_cap=rank_cap)
    for name, ty, literal in consts:
        value = parse_element(literal, model, ty)
        if value.ty != ty:
            raise TypeMismatch(
                f"constant {name} declared {ty} but literal has type {value.ty}")
        model.constants[name] = value
    return model


class _ElemParser:
    def __init__(self, text: str, model: ModelConfig):
        from .syntax import tokenize, _Cursor
        self.c = _Cursor(tokenize(text), text)
        self.model = model

    def elem(self, hint: Optional[TypeExpr]) -> CanonElem:
        c = self.c
        t = c.peek()
        with c:
            if t.kind == "NAT" and t.text in ("0", "1"):
                c.next()
                return TruthVal(int(t.text))
            if t.text == "table":
                c.next()
                c.expect("{")
                dom = hint.dom if isinstance(hint, Arrow) else None
                cod = hint.cod if isinstance(hint, Arrow) else None
                mapping = {}
                while not c.at("}"):
                    key = self.elem(dom)
                    c.expect("->")
                    val = self.elem(cod)
                    mapping[key] = val
                    if c.at(","):
                        c.next()
                c.expect("}")
                if not mapping and (dom is None or cod is None):
                    c.fail("empty table needs a type annotation context")
                dom = dom or next(iter(mapping)).ty
                cod = cod or next(iter(mapping.values())).ty
                table = fn_table(dom, cod, mapping)
                _check_table_total(table, self.model)
                return table
            if t.text in ("neg", "and", "or"):
                op = t.text
                c.next()
                c.expect("[")
                kt = c.peek()
                if kt.kind != "NAT":
                    c.fail("expected a rank")
                c.next()
                k = int(kt.text)
                c.expect("]")
                c.expect("(")
                if op == "neg":
                    child = self.elem(hint)
                    c.expect(")")
                    return make_neg(k, child)
                parts = []
                while not c.at(")"):
                    parts.append(self.elem(hint))
                    if c.at(","):
                        c.next()
                c.expect(")")
                if not parts:
                    if hint is None:
                        c.fail("empty and/or needs a type annotation context")
                    return (top_at if op == "and" else bottom_at)(k, hint)
                make = make_meet if op == "and" else make_join
                return make(k, parts[0].ty, parts)
            if t.kind == "IDENT":
                c.next()
                name = t.text
                hit = resolve_constant(self.model, name, hint)
                if hit is None:
                    c.fail(f"unknown element name {name!r}"
                           + (f" at type {hint}" if hint else ""))
                return hit
            c.fail("expected an element literal")


def _check_table_total(table: FnTable, model: ModelConfig):
    try:
        carrier = enumerate_domain(model, table.dom, 0)
    except CttError:
        return  # symbolic domain; nothing to check against
    keys = [k for k, _ in table.entries]
    if sorted(map(render_elem, keys)) != sorted(map(render_elem, carrier)):
        raise TypeMismatch(
            f"table over {render_type(table.dom)} does not cover the carrier")


def model_signature(model: ModelConfig) -> dict[str, tuple[TypeExpr, int]]:
    """Parser signature for every name the model can resolve: declared
    constants, auto-named base individuals, and the truth values 0/1."""
    sig: dict[str, tuple[TypeExpr, int]] = {}
    counts: dict[str, int] = {}
    for base, size in model.base_sizes.items():
        for n in individual_names(size):
            counts[n] = counts.get(n, 0) + 1
            sig[n] = (Base(base), 0)
    for n, c in counts.items():
        if c > 1:  # shared by several bases: needs an explicit annotation
            del sig[n]
    sig["0"] = (BOT, 0)
    sig["1"] = (BOT, 0)
    for name, value in model.constants.items():
        sig[name] = (value.ty, elem_rank(value))
    return sig


def resolve_constant(model: ModelConfig, name: str,
                     hint: Optional[TypeExpr] = None) -> Optional[CanonElem]:
    """Named element: a declared constant, an auto-named base individual,
    or a truth value written 0/1."""
    if name in model.constants:
        value = model.constants[name]
        if hint is None or value.ty == hint:
            return value
        return None
    if name in ("0", "1") and (hint is None or hint == BOT):
        return TruthVal(int(name))
    candidates = []
    for base, size in model.base_sizes.items():
        if name in individual_names(size):
            candidates.append(Individual(Base(base), name))
    if hint is not None:
        candidates = [c for c in candidates if c.ty == hint]
    if len(candidates) == 1:
        return candidates[0]
    return None


def parse_element(text: str, model: ModelConfig,
                  hint: Optional[TypeExpr] = None) -> CanonElem:
    p = _ElemParser(text, model)
    e = p.elem(hint)
    if p.c.peek().kind != "EOF":
        p.c.fail("trailing input after element")
    return e


def parse_set_of_sets(text: str, model: ModelConfig,
                      sigma: TypeExpr) -> frozenset[frozenset[Atom]]:
    """`{{a},{b,c}}` over the rank-0 carrier of sigma."""
    p = _ElemParser(text, model)
    c = p.c
    c.expect("{")
    sets = []
    while not c.at("}"):
        c.expect("{")
        members = []
        while not c.at("}"):
            e = p.elem(sigma)
            if elem_rank(e) != 0:
                c.fail("set members must be rank-0 atoms")
            members.append(e)
            if c.at(","):
                c.next()
        c.expect("}")
        sets.append(frozenset(members))
        if c.at(","):
            c.next()
    c.expect("}")
    if c.peek().kind != "EOF":
        c.fail("trailing input after set of sets")
    return frozenset(sets)
