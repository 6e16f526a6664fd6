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

import gc
import itertools
from collections import OrderedDict, namedtuple
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Optional, Union

from .syntax import (
    Arrow, BOT, Base, CttError, Interned, MAX_NESTING, ParseError, RESERVED,
    TypeExpr, TypeMismatch, _Cursor, _TOO_DEEP, _intern, _is_name,
    _parse_type, is_neg_type, render_type, strip_negations, tokenize,
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

class _Elem(Interned):
    """An element. `render_elem` fills `_text`, `canonical_key` `_key` and
    `iso_i` a child's `_iso` (its image, with the base sizes it was made
    under) on first request, so each lives exactly as long as its element;
    none is filled eagerly (a `~~~~e` table's text is about 2.4 KB)."""

    __slots__ = ("_text", "_key", "_iso")


class TruthVal(_Elem):
    __slots__ = __match_args__ = ("value",)  # 0 or 1
    ty = BOT
    k = 0  # every element's rank is its `k`

    def _build(self):
        if self.value not in (0, 1):
            raise CttError("truth values are 0 and 1")


class Individual(_Elem):
    """A named rank-0 member; symbolic when the type is not a base type."""

    __slots__ = __match_args__ = ("ty", "name")
    k = 0


class FnTable(_Elem):
    __match_args__ = ("dom", "cod", "entries")  # entries: ((Atom, Atom), ...)
    __slots__ = (*__match_args__, "ty")
    k = 0

    def _build(self):
        object.__setattr__(self, "ty", Arrow(self.dom, self.cod))

    @classmethod
    def carrier(cls, ty: Arrow, rows: list) -> tuple["FnTable", ...]:
        """The table `FnTable(ty.dom, ty.cod, entries)` for each `entries`
        of `itertools.product(*rows)`, in that order, interned in one loop:
        each gets its slots set directly, with `ty` itself as its `ty`, and
        `_intern` returns it, or the live table equal to it.
        The cyclic collector is paused for the loop: a table refers only to
        values built before it, so the loop forms no cycle. A carrier of
        more tables than the gen-0 threshold is then promoted to the oldest
        generation by `gc.freeze(); gc.unfreeze()`, in constant time, so
        young collections do not walk what outlives them (Ungar, "Generation
        Scavenging", 1984). Nothing stays frozen; the caller's young garbage
        waits for a full collection. If anything is frozen already, the
        unfreeze would thaw it, so there is no promotion."""
        dom, cod = ty.dom, ty.cod
        tables = []
        new, append = object.__new__, tables.append
        set_dom, set_cod = cls.dom.__set__, cls.cod.__set__
        set_entries, set_ty = cls.entries.__set__, cls.ty.__set__
        enabled = gc.isenabled()
        gc.disable()
        try:
            for entries in itertools.product(*rows):
                table = new(cls)
                set_dom(table, dom)
                set_cod(table, cod)
                set_entries(table, entries)
                set_ty(table, ty)
                append(_intern((cls, dom, cod, entries), table))
        finally:
            if len(tables) > gc.get_threshold()[0] and gc.get_freeze_count() == 0:
                gc.freeze()
                gc.unfreeze()
            if enabled:
                gc.enable()
        return tuple(tables)

    def lookup(self, key: "Atom") -> Optional["Atom"]:
        for k, v in self.entries:
            if k is key:
                return v
        return None


class AtomicApp(_Elem):
    """Symbolic application of rank-0 atoms (kept when no table applies)."""

    __match_args__ = ("fun", "arg")
    __slots__ = (*__match_args__, "ty")
    k = 0

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

class NegE(_Elem):
    __slots__ = __match_args__ = ("k", "ty", "child")


class MeetE(_Elem):
    __slots__ = __match_args__ = ("k", "ty", "children")  # () = top at rank k


class JoinE(_Elem):
    __slots__ = __match_args__ = ("k", "ty", "children")  # () = bottom at rank k


CanonElem = Union[Atom, NegE, MeetE, JoinE]


# Computed tables (Brace, Rudell & Bryant, "Efficient Implementation of a
# BDD Package", 1990), beside the hash-consing table: `apply_elem` and the
# lattice constructors keep their recent results keyed on the interned
# operands, so an operation a sweep repeats is done once, and each carrier
# is built once, in its record (`_Carrier`). Every table is bounded, so
# memory does not grow with how long the process has run, and an operation
# that raises stores nothing. The sizes sit above the working sets of the
# perfbench workloads: rule-harness's 1,344 measured ops leave about 1,100
# applications, 3,500 lattice nodes and 57 carriers. An element's text,
# canonical key and the image the isomorphism made of it as a child are
# not tabled: each is kept on the element (`_Elem`).
APPLY_TABLE_SIZE = 4096
LATTICE_TABLE_SIZE = 4096

TableInfo = namedtuple("TableInfo", "hits misses maxsize currsize")


class _BoundedTable(OrderedDict):
    """A dict that keeps its `maxsize` most recently used entries and counts
    the lookups that hit and missed; `recall` marks a hit as used, `store`
    evicts the least recently used entry, and a plain `get` does neither.
    `cache_info()` reads like an `lru_cache`'s."""

    __slots__ = ("maxsize", "hits", "misses")

    def __init__(self, maxsize: int):
        super().__init__()
        self.maxsize, self.hits, self.misses = maxsize, 0, 0

    def recall(self, key):
        """The value stored under `key`, or None."""
        value = self.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
            self.move_to_end(key)
        return value

    def store(self, key, value):
        self[key] = value
        if len(self) > self.maxsize:
            self.popitem(last=False)

    def cache_info(self) -> TableInfo:
        return TableInfo(self.hits, self.misses, self.maxsize, len(self))


class _Tally:
    """Hits and misses of a function that keeps its result on its argument;
    `cache_info()` reads like an `lru_cache`'s, with no bound and no
    entries, `len()` is 0, and `cache_clear()` (or `clear()`) resets the
    counts, so a tally reads like an emptied table."""

    __slots__ = ("hits", "misses")

    def cache_clear(self):
        self.hits = self.misses = 0

    __init__ = clear = cache_clear

    def __len__(self):
        return 0

    def cache_info(self) -> TableInfo:
        return TableInfo(self.hits, self.misses, None, 0)


# the iso row is named for the tracer, which reads `len(_ISO_ATOM_CACHE)`
_RENDERS, _KEYS, _ISO_ATOM_CACHE = _Tally(), _Tally(), _Tally()


def render_elem(e: CanonElem) -> str:
    """The text of `e`, made on first request and kept in its `_text`."""
    try:
        text = e._text
    except AttributeError:
        _RENDERS.misses += 1
        text = _text_of(e)
        object.__setattr__(e, "_text", text)
        return text
    _RENDERS.hits += 1
    return text


render_elem.cache_info, render_elem.cache_clear = _RENDERS.cache_info, _RENDERS.cache_clear


def _text_of(e: CanonElem) -> str:
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
        if c.k > k:
            raise CttError(
                f"child rank {c.k} exceeds node rank {k}: {render_elem(c)}")
        if c.ty != ty:
            raise TypeMismatch(
                f"child type {c.ty} differs from node type {ty}")


def make_neg(k: int, child: CanonElem) -> NegE:
    _check_node(k, child.ty, (child,))
    return NegE(k, child.ty, child)


def _lattice(cls, k: int, ty: TypeExpr, children: Iterable[CanonElem]) -> CanonElem:
    """The meet or join node (`cls`) of `children`, uncached: flatten
    same-rank nodes of the same flavor, dedup structurally, sort by
    rendering, collapse singletons (domains are cumulative). Callers whose
    operands never repeat (the isomorphism, carrier enumeration) call this
    directly and leave the computed table to operations that do."""
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


_make_lattice = lru_cache(maxsize=LATTICE_TABLE_SIZE)(_lattice)


def make_meet(k: int, ty: TypeExpr, children: Iterable[CanonElem]) -> CanonElem:
    return _make_lattice(MeetE, k, ty, tuple(children))


def make_join(k: int, ty: TypeExpr, children: Iterable[CanonElem]) -> CanonElem:
    return _make_lattice(JoinE, k, ty, tuple(children))


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


class ModelConfig(Interned):
    """Finite model: base carrier sizes (names auto-generated a, b, ...),
    a rank cap for mu-evaluation, and named constants.

    A model is a hash-consed value like an element: models of equal
    contents are one object, and nothing in one can be assigned.
    `sizes` holds (base, size) pairs sorted by base, and `consts` (name,
    value) pairs in declaration order. `names` is a read-only mapping from
    each name the model resolves to the elements it can denote: a constant
    alone, else a truth value for 0 and 1, else every base's individual of
    that name."""

    __match_args__ = ("sizes", "rank_cap", "consts")  # sizes sorted by base
    __slots__ = (*__match_args__, "names")

    def __new__(cls, base_sizes=(), rank_cap: int = 2, constants=()):
        sizes = tuple(sorted(dict(base_sizes).items()))
        # checked before the lookup, which compares by `==`: 2.0 and True
        # would otherwise find the live model of 2 and 1
        for name, size in sizes:
            if not _is_int(size):
                raise CttError(f"base {name} has size {size!r}; sizes must be integers")
        if not _is_int(rank_cap):
            raise CttError(f"rank cap must be a natural number, not {rank_cap!r}")
        return super().__new__(cls, sizes, rank_cap, tuple(dict(constants).items()))

    def _build(self):
        names: dict[str, tuple[CanonElem, ...]] = {"0": (FALSE,), "1": (TRUE,)}
        for name, size in self.sizes:
            if not _names_base_type(name):
                raise CttError(f"base {name!r} is not a base type name")
            if not 1 <= size <= MAX_BASE_SIZE:  # an empty carrier is bad input
                raise (CttError if size < 1 else CapExceeded)(
                    f"base {name} has size {size}; sizes must be 1..{MAX_BASE_SIZE}")
            for n in individual_names(size):
                names[n] = names.get(n, ()) + (Individual(Base(name), n),)
        if self.rank_cap < 0:
            raise CttError("rank cap must be a natural number")
        for name, value in self.consts:
            if not _names_constant(name):
                raise CttError(_BAD_CONSTANT.format(name))
            names[name] = (value,)
        object.__setattr__(self, "names", MappingProxyType(names))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _names_base_type(name: str) -> bool:
    """Whether type text `name` reads as the base type of that name: it is
    one identifier token, not a reserved word, with nothing around it."""
    try:
        return tokenize(name) == [name, ""] and _is_name(name) and name not in RESERVED
    except ParseError:
        return False


_BAD_CONSTANT = "constant {!r} is not an identifier other than a reserved word, 0 or 1"


def _names_constant(name: str) -> bool:
    """Whether a term can name constant `name`; it may shadow 0 or 1."""
    return name in ("0", "1") or _names_base_type(name)


def individual_names(size: int) -> list[str]:
    return list(INDIVIDUAL_NAMES[:size])


def enumerate_domain(model: ModelConfig, ty: TypeExpr, rank: int) -> list[CanonElem]:
    """All elements of the given type at the given rank (0 or 1).

    Rank 0 enumerates atoms. Rank 1 enumerates the full free Boolean
    algebra over the rank-0 carrier as complete-DNF joins of minterms:
    2^(2^g) pairwise-inequivalent elements for g rank-0 atoms. Every
    carrier is counted (`carrier_size`, `rank1_count`) before it is built,
    so a refused one raises before any element is made. Each carrier is
    built once per base sizes (`_Carrier`); each call returns a fresh list.
    """
    if rank not in (0, 1):
        raise CapExceeded(f"rank-{rank} domains are not enumerable here")
    if rank == 1 and rank1_count(g := carrier_size(model.sizes, ty)) > MAX_RANK0_ENUM:
        raise CapExceeded(f"{g} generators is too many for rank-1 enumeration")
    carrier = _carrier(model.sizes, ty)
    return list(carrier.rank1() if rank else carrier.atoms)


# one record per carrier built, keyed on (type, sorted base sizes), each
# keeping at most MINTERM_TABLE_SIZE minterms (one read over the largest
# admissible carrier can make 65,536); perfbench reads the table by name
CARRIER_TABLE_SIZE = 256
MINTERM_TABLE_SIZE = 4096
_MINTERM_CACHE = _BoundedTable(CARRIER_TABLE_SIZE)


class _Carrier:
    """The rank-0 carrier of a type s over sorted base sizes: its `atoms`,
    mask bit i standing for atom i, and, each made on first use, the
    minterm of each mask, the rank-1 carrier, and the ~s carrier as ~~s
    table keys (`keys`) with each key's mask, the atoms it maps to 1.

    Every carrier is in rendering order without a sort, its atoms all of
    one length: truth values (0, 1) and individuals (a, b, ...) are, and
    a table carrier is built in product order over rows keyed by the
    domain's atoms in that order, so its tables render the same keys in
    the same places and differ only in values of one length. So entries
    are in `fn_table`'s order, and entry i of a ~s key is atom i of s."""

    __slots__ = ("ty", "sizes", "atoms", "minterms", "_rank1", "keys", "masks")

    def __init__(self, ty: TypeExpr, sizes: tuple):
        count = carrier_size(sizes, ty)  # raises for a refused carrier
        self.ty, self.sizes = ty, sizes
        if ty is BOT:
            self.atoms = (FALSE, TRUE)
        elif isinstance(ty, Base):
            self.atoms = tuple(Individual(ty, n) for n in individual_names(count))
        else:
            # one shared (key, value) pair per row cell, not per table
            keys, values = _carrier(sizes, ty.dom).atoms, _carrier(sizes, ty.cod).atoms
            self.atoms = FnTable.carrier(ty, [[(k, v) for v in values] for k in keys])
        self.minterms = _BoundedTable(MINTERM_TABLE_SIZE)
        self._rank1 = self.keys = self.masks = None

    def rank1(self) -> tuple:
        """The rank-1 carrier: the join of each set of minterms."""
        if self._rank1 is None:
            n = 2 ** len(self.atoms)
            minterms = [self.minterm(mask) for mask in range(n)]
            self._rank1 = tuple(
                _rank1_join(self.ty, [minterms[i] for i in range(n) if (sel >> i) & 1])
                for sel in range(2 ** n))
        return self._rank1

    def table_keys(self) -> tuple:
        """The ~s carrier, in the order of a ~~s table's entries."""
        if self.keys is None:
            self.keys = _carrier(self.sizes, Arrow(self.ty, BOT)).atoms
            self.masks = tuple(sum(1 << i for i, (_, v) in enumerate(k.entries) if v is TRUE)
                               for k in self.keys)
        return self.keys

    def minterm(self, mask: int) -> CanonElem:
        """The rank-1 meet of each atom in `mask` and each other atom's
        negation."""
        m = self.minterms.get(mask)
        if m is None:
            m = _lattice(MeetE, 1, self.ty, [a if (mask >> i) & 1 else make_neg(1, a)
                                             for i, a in enumerate(self.atoms)])
            self.minterms.store(mask, m)
        return m

    def principal(self, masks) -> Optional[Atom]:
        """The atom whose principal family the member sets `masks`
        (distinct) are, or None."""
        if len(masks) == 1 << (len(self.atoms) - 1):
            # all 2^(g-1) sets contain one atom exactly when it is this
            # family's only common atom
            common = -1
            for m in masks:
                common &= m
            if common:
                return self.atoms[common.bit_length() - 1]
        return None

    def read(self, masks) -> CanonElem:
        """Full-DNF reading of the family of member sets `masks` (distinct):
        the rank-1 join of their minterms, or a rank-0 atom when the family
        is that atom's principal family."""
        atom = self.principal(masks)
        return _rank1_join(self.ty, map(self.minterm, masks)) if atom is None else atom


def _carrier(sizes: tuple, ty: TypeExpr) -> _Carrier:
    """`ty`'s carrier over `sizes`, built on first use; a refused one raises."""
    carrier = _MINTERM_CACHE.get((ty, sizes))
    if carrier is None:
        carrier = _Carrier(ty, sizes)
        _MINTERM_CACHE.store((ty, sizes), carrier)
    return carrier


def carrier_size(sizes: tuple, ty: TypeExpr) -> int:
    """How many rank-0 atoms `ty` has over `sizes` (a model's sorted base
    sizes), counted without building one. Where `_carrier` refuses the
    carrier this raises what it would: an undeclared base, or a table
    count over MAX_RANK0_ENUM, the domain checked before the codomain."""
    if isinstance(ty, Arrow):  # not `match`: sized once per pool of every sweep
        dom, cod = carrier_size(sizes, ty.dom), carrier_size(sizes, ty.cod)
        # exact up to 64 domain atoms; past them, over 2^64 unless cod is 1
        count = cod ** min(dom, 65)
        if count <= MAX_RANK0_ENUM:
            return count
        # past 2^64 the count is written as a power: its decimal form can
        # be too long for `str` to make
        shown = count if count.bit_length() <= 64 else f"{cod}^{dom}"
        raise CapExceeded(f"{shown} tables for {render_type(ty)} exceeds the cap")
    if isinstance(ty, Base):
        for name, size in sizes:
            if name == ty.name:
                return size
        raise CttError(f"model declares no base type {ty.name}")
    if ty is BOT:
        return 2
    raise CttError(f"unknown type {ty!r}")


def rank1_count(g: int) -> int:
    """2^(2^g), the number of rank-1 elements over g rank-0 atoms, saturated
    at MAX_RANK0_ENUM + 1: no larger rank-1 carrier is enumerated, and the
    exact count is an integer of 2^g bits."""
    return 2 ** (2 ** g) if 2 ** g < MAX_RANK0_ENUM.bit_length() else MAX_RANK0_ENUM + 1


# ---------------------------------------------------------------------------
# equality in the nested free algebra

def _generators(e: CanonElem, cut: int, acc: list[CanonElem]):
    """Collect maximal subtrees of rank < cut (the opaque generators when
    reading `e` as a Boolean expression at rank `cut`)."""
    if e.k < cut:
        acc.append(e)
        return
    match e:
        case NegE(_, _, child):
            _generators(child, cut, acc)
        case MeetE(_, _, children) | JoinE(_, _, children):
            for c in children:
                _generators(c, cut, acc)


def _truth_table(e: CanonElem, cut: int, columns: dict, full: int) -> int:
    """Every row of `e`'s truth table at once: bit b is `e`'s value under
    valuation b, given each generator's column of bits in `columns`."""
    if e.k < cut:
        return columns[e]
    match e:
        case NegE(_, _, child):
            return full ^ _truth_table(child, cut, columns, full)
        case MeetE(_, _, children):
            bits = full
            for c in children:
                bits &= _truth_table(c, cut, columns, full)
            return bits
        case JoinE(_, _, children):
            bits = 0
            for c in children:
                bits |= _truth_table(c, cut, columns, full)
            return bits
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
    k = max(x.k, y.k, 1)
    return canonical_key(make_meet(k, x.ty, [x, y])) == canonical_key(x)


def canonical_key(e: CanonElem):
    """A value equal for two elements exactly when they are the same
    element of the nested free Boolean algebra (ba_equal, ba_leq), made on
    first request and kept in `e`'s `_key`; a key that raises keeps
    nothing.

    Inessential generators are projected away; a function that is a bare
    projection keys as its generator (domains are cumulative), a constant
    keys by rank and polarity.
    """
    try:
        key = e._key
    except AttributeError:
        _KEYS.misses += 1
        key = _key_of(e)
        object.__setattr__(e, "_key", key)
        return key
    _KEYS.hits += 1
    return key


canonical_key.cache_info, canonical_key.cache_clear = _KEYS.cache_info, _KEYS.cache_clear


def _key_of(e: CanonElem):
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
    cut = e.k
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
    # row b of the table is bit b of `table`; generator i is bit i of b, so
    # its column repeats 2^i zeros then 2^i ones
    width = 2 ** n
    cols = [_low_blocks(1 << i, width) << (1 << i) for i in range(n)]
    table = _truth_table(e, cut, {g: cols[i] for g, i in index.items()}, (1 << width) - 1)
    # generator i matters iff some row with bit i set differs from the row
    # without it
    essential = [i for i in range(n)
                 if (table & cols[i]) >> (1 << i) != table & ~cols[i]]
    if not essential:
        return ("const", cut, table & 1, render_type(e.ty))
    # drop the other generators, highest first, each by keeping the rows
    # where it is 0, then move the essential ones into key order
    for i in reversed(range(n)):
        if i not in essential:
            table = _drop_column(table, i, width)
            width //= 2
    if len(essential) == 1 and table == 0b10:
        return keys[essential[0]]
    order = sorted(essential, key=keys.__getitem__)
    at = list(essential)  # at[p]: the generator whose column is p now
    for p, g in enumerate(order):
        q = at.index(g)
        if q != p:
            table = _swap_columns(table, p, q, width)
            at[p], at[q] = g, at[p]
    rows = format(table, "b").zfill(width)[::-1]
    return ("node", cut, render_type(e.ty),
            tuple(keys[g] for g in order), tuple(rows.encode().translate(_BITS)))


_BITS = bytes.maketrans(b"01", b"\0\1")


def _low_blocks(size: int, width: int) -> int:
    """`size` one bits, `size` zero bits, repeated over `width` bits, by
    doubling (a division by the period costs quadratic time in `width`)."""
    bits, span = (1 << size) - 1, 2 * size
    while span < width:
        bits |= bits << span
        span *= 2
    return bits


def _drop_column(table: int, i: int, width: int) -> int:
    """The rows of a `width`-row table where generator `i` is 0, in order:
    the blocks of 2^i rows kept are pushed together, twice as many blocks
    per step."""
    size = 1 << i
    table &= _low_blocks(size, width)
    while size < width // 2:
        table = (table | table >> size) & _low_blocks(2 * size, width)
        size *= 2
    return table


def _swap_columns(table: int, p: int, q: int, width: int) -> int:
    """The table with generators `p` < `q` trading places: each row with
    p set and q clear trades its bit with the row with q set and p clear."""
    shift = (1 << q) - (1 << p)
    rows = ~_low_blocks(1 << p, width) & _low_blocks(1 << q, width)
    diff = (table >> shift ^ table) & rows
    return table ^ diff ^ diff << shift


# ---------------------------------------------------------------------------
# rank-driven application

@lru_cache(maxsize=APPLY_TABLE_SIZE)
def apply_elem(p: CanonElem, a: CanonElem) -> CanonElem:
    """Apply p to a, distributing Boolean operators by rank.

    Whichever side has the higher rank distributes its top operator over
    the other, the functor winning ties; the operator's rank is kept and
    its type moves to the result type. Two rank-0 atoms reduce by table
    lookup when possible and stay symbolic otherwise. Results go through
    the computed table; the distributing calls below go through the
    module-level name, so they hit it too.
    """
    pty = p.ty
    if not isinstance(pty, Arrow):
        raise TypeMismatch(f"{render_elem(p)} : {pty} is not a function")
    if a.ty != pty.dom:
        raise TypeMismatch(
            f"argument {render_elem(a)} : {a.ty} does not match {pty.dom}")
    m, n = p.k, a.k
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
# the type-reduction isomorphism

def _rank1_join(sigma: TypeExpr, minterms: Iterable[CanonElem]) -> CanonElem:
    """The rank-1 join of distinct minterms, which no lattice step but the
    sort and the singleton collapse can change."""
    ms = sorted(minterms, key=render_elem)
    return ms[0] if len(ms) == 1 else JoinE(1, sigma, tuple(ms))


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
        carrier, masks = _set_family(f, model.sizes, ty)
        return carrier.read(masks)
    return _iso_elem(f, model.sizes, False)


def _set_family(f, sizes: tuple, ty: TypeExpr) -> tuple[_Carrier, set]:
    """The carrier of `ty` and the member sets of the raw set-of-sets `f`
    over it, each as a bitmask."""
    sets = frozenset(frozenset(s) for s in f)
    carrier = _carrier(sizes, ty)
    bits = {a: 1 << i for i, a in enumerate(carrier.atoms)}
    if not all(bits.keys() >= s for s in sets):
        raise TypeMismatch("set-of-sets mentions atoms outside the carrier")
    return carrier, {sum(map(bits.__getitem__, s)) for s in sets}


def _iso_elem(f: CanonElem, sizes: tuple, child: bool) -> CanonElem:
    """`f`'s image over base sizes `sizes`. A `child` keeps its image in its
    `_iso`, with `sizes`: elements are interned, so a node shared by many
    inputs is mapped once per sizes. The element iso_i is asked about keeps
    nothing, and an input that fails raises before anything is kept."""
    if child:
        try:
            made_under, out = f._iso
        except AttributeError:
            made_under = None
        if made_under == sizes:
            _ISO_ATOM_CACHE.hits += 1
            return out
        _ISO_ATOM_CACHE.misses += 1
    match f:
        case FnTable():
            carrier, masks = _table_family(f, sizes)
            out = carrier.read(masks)
        case NegE(k, _, c):
            image = _iso_elem(c, sizes, True)
            out = NegE(k + 1, image.ty, image)
        case MeetE(k, fty, children) | JoinE(k, fty, children):
            if not (is_neg_type(fty) and is_neg_type(fty.dom)):
                raise TypeMismatch(f"element of type {fty} is not over ~~s")
            # the children are distinct, two or more, and none is a node of
            # this flavor at rank k; the map is injective and raises every
            # rank by one, so the images need only the sort
            images = [_iso_elem(c, sizes, True) for c in children]
            out = type(f)(k + 1, fty.dom.dom, tuple(sorted(images, key=render_elem)))
        case _:
            raise TypeMismatch(
                f"cannot apply the isomorphism to {render_elem(f)}")
    if child:
        object.__setattr__(f, "_iso", (sizes, out))
    return out


def _table_family(f: FnTable, sizes: tuple) -> tuple[_Carrier, Iterable[int]]:
    """Read a table of type ~~s as a set of sets over the rank-0 carrier of
    s, each ~s argument the set of atoms it maps to 1: the record of s's
    carrier and the distinct bitmasks of the sets. One pass over the
    entries when they fit the carrier's table keys; otherwise the checks,
    in their order."""
    if is_neg_type(f.ty) and is_neg_type(f.dom) and f.entries:
        carrier = _carrier(sizes, f.dom.dom)
        keys, values = zip(*f.entries)
        if (keys == carrier.table_keys()
                and values.count(TRUE) + values.count(FALSE) == len(values)):
            return carrier, [m for m, v in zip(carrier.masks, values) if v is TRUE]
    if {k for k, _ in f.entries} != set(_carrier(sizes, f.dom).atoms):
        raise TypeMismatch(f"table {render_elem(f)} is not total over its carrier")
    if not (is_neg_type(f.ty) and is_neg_type(f.dom)):
        raise TypeMismatch(f"{render_elem(f)} is not of a ~~s type")
    for key, val in f.entries:
        if not isinstance(key, FnTable) or not isinstance(val, TruthVal):
            raise TypeMismatch("isomorphism input table must be concrete")
    # total and concrete, with its entries out of order or repeated
    carrier = _carrier(sizes, f.dom.dom)
    mask = dict(zip(carrier.table_keys(), carrier.masks))
    return carrier, {mask[k] for k, v in f.entries if v is TRUE}


_PAST_CAP = "iterated isomorphism passed the rank cap {}"


def iso_iterate(ty: TypeExpr, f, model: ModelConfig) -> CanonElem:
    """Repeated isomorphism: an element of ~...~s (2m or 2m+1 negations)
    lands in s (even) or ~s (odd), m ranks up.

    `f` is a table or a ranked element; raw sets go through `iso_i`. A
    table with two or more steps to go is read once. Unless its family is
    principal or a single set, its image is the rank-m join of its
    minterms' images, each reached through the images the minterm and its
    images keep as children, so no join of an intermediate rank is built;
    the rank cap is checked against m first. Everything else goes one
    `iso_i` step at a time."""
    m = strip_negations(ty)[0] // 2
    if m < 1:
        raise CttError(f"{render_type(ty)} carries no double negation to reduce")
    if f.ty != ty:
        raise TypeMismatch(
            f"isomorphism over {render_type(ty)} applied to "
            f"{render_elem(f)} : {render_type(f.ty)}")
    if m > 1 and isinstance(f, FnTable):
        sizes = model.sizes
        carrier, masks = _table_family(f, sizes)
        if len(masks) != 1 and carrier.principal(masks) is None:
            if m > model.rank_cap:
                raise CapExceeded(_PAST_CAP.format(model.rank_cap))
            images = list(map(carrier.minterm, masks))
            for _ in range(m - 1):
                images = [_iso_elem(x, sizes, True) for x in images]
            for _ in range(m):
                ty = ty.dom.dom
            return JoinE(m, ty, tuple(sorted(images, key=render_elem)))
    for _ in range(m):
        f = iso_i(f, model)
        if f.k > model.rank_cap:
            raise CapExceeded(_PAST_CAP.format(model.rank_cap))
    return f


# bound at import, so a wrapper installed over a module-level name later
# (a tracer, say) still reports the table itself
_TABLES = (("apply_elem", apply_elem), ("lattice", _make_lattice),
           ("render_elem", render_elem), ("canonical_key", canonical_key),
           ("iso", _ISO_ATOM_CACHE))


def table_stats() -> list:
    """(name, `cache_info()`) of every computed table of this module, and
    of `render_elem`, `canonical_key` and the isomorphism's child images,
    which are kept on the elements: their rows count hits and misses, with
    `maxsize` None and `currsize` 0."""
    return [(name, table.cache_info()) for name, table in _TABLES]


# ---------------------------------------------------------------------------
# model files and element literals

def parse_model_config(text: str) -> ModelConfig:
    """Line-oriented model files:

        base <name> <size>
        rankcap <n>
        const <name> : <type> = <element-literal>

    `#` starts a comment. Element literals use the ranked-term syntax plus
    `table{a->0,b->1}`; and/or take any number of arguments, separated by
    commas as table entries are. Each base, each constant and the rank cap
    is declared once.
    """
    base_sizes: dict[str, int] = {}
    rank_cap, cap_declared = 2, False
    consts: dict[str, tuple[TypeExpr, str, str, int, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        # where the declared name starts in `raw`, for a repeated name
        name_at = (len(raw) - len(raw.lstrip()) + len(head) + 1
                   + len(rest) - len(rest.lstrip()))
        if head == "base":
            parts = rest.split()
            if len(parts) != 2 or not (parts[1].isascii() and parts[1].isdecimal()):
                raise CttError(f"bad base line: {raw!r}")
            if parts[0] in base_sizes:
                raise ParseError(f"model declares base {parts[0]} twice", name_at, raw, lineno)
            base_sizes[parts[0]] = int(parts[1])
        elif head == "rankcap":
            cap = rest.strip()
            if not (cap.isascii() and cap.isdecimal()):
                raise CttError(f"bad rankcap line: {raw!r}")
            if cap_declared:
                raise ParseError("model declares the rank cap twice", name_at, raw, lineno)
            rank_cap, cap_declared = int(cap), True
        elif head == "const":
            name, sep, decl = rest.partition(":")
            if not sep or "=" not in decl:
                raise CttError(f"bad const line: {raw!r}")
            ty_text, _, literal = decl.partition("=")
            literal = literal.strip()
            # `line` ends at `end` in `raw`, and so do `decl` and the
            # literal: a parse error in them names the file's column
            end = len(raw) - len(raw.lstrip()) + len(line)
            try:
                c = _Cursor(ty_text)
                ty = _parse_type(c)
            except ParseError as ex:
                raise ParseError(ex.msg, end - len(decl) + ex.pos, raw, lineno) from None
            if c.toks[c.i]:
                raise CttError(f"bad const type in: {raw!r}")
            name = name.strip()
            if not _names_constant(name):
                raise ParseError(_BAD_CONSTANT.format(name), name_at, raw, lineno)
            if name in consts:
                raise ParseError(f"model declares constant {name} twice", name_at, raw, lineno)
            consts[name] = (ty, literal, raw, lineno, end - len(literal))
        else:
            raise CttError(f"unknown model directive {head!r}")
    values: dict[str, CanonElem] = {}
    for name, (ty, literal, raw, lineno, start) in consts.items():
        # a literal may name the constants declared before it
        model = ModelConfig(base_sizes=base_sizes, rank_cap=rank_cap, constants=values)
        try:
            value = parse_element(literal, model, ty)
        except ParseError as ex:
            raise ParseError(ex.msg, start + ex.pos, raw, lineno) from None
        if value.ty != ty:
            raise TypeMismatch(
                f"constant {name} declared {ty} but literal has type {value.ty}")
        values[name] = value
    return ModelConfig(base_sizes=base_sizes, rank_cap=rank_cap, constants=values)


class _ElemParser:
    def __init__(self, text: str, model: ModelConfig):
        self.c = _Cursor(text)
        self.model = model
        self.depth = 0  # nesting, failing past MAX_NESTING before recursion does

    def elem(self, hint: Optional[TypeExpr]) -> CanonElem:
        c = self.c
        t = c.toks[c.i]
        self.depth += 1
        if self.depth > MAX_NESTING:
            c.fail(_TOO_DEEP)
        try:
            if t in ("0", "1"):
                c.i += 1
                return TruthVal(int(t))
            if t == "table":
                c.i += 1
                c.expect("{")
                dom = hint.dom if isinstance(hint, Arrow) else None
                cod = hint.cod if isinstance(hint, Arrow) else None
                mapping = {}

                def entry():
                    at = c.i
                    key = self.elem(dom)
                    if key in mapping:
                        c.fail(f"table maps {render_elem(key)} twice", at)
                    c.expect("->")
                    mapping[key] = self.elem(cod)

                c.items("}", entry)
                if not mapping and (dom is None or cod is None):
                    c.fail("empty table needs a type annotation context")
                dom = dom or next(iter(mapping)).ty
                cod = cod or next(iter(mapping.values())).ty
                table = fn_table(dom, cod, mapping)
                _check_table_total(table, self.model)
                return table
            if t in ("neg", "and", "or"):
                op = t
                c.i += 1
                c.expect("[")
                kt = c.toks[c.i]
                if not kt.isdigit():
                    c.fail("expected a rank")
                c.i += 1
                k = int(kt)
                c.expect("]")
                c.expect("(")
                if op == "neg":
                    child = self.elem(hint)
                    c.expect(")")
                    return make_neg(k, child)
                parts = c.items(")", lambda: self.elem(hint))
                if not parts:
                    if hint is None:
                        c.fail("empty and/or needs a type annotation context")
                    return (top_at if op == "and" else bottom_at)(k, hint)
                make = make_meet if op == "and" else make_join
                return make(k, parts[0].ty, parts)
            if _is_name(t):
                c.i += 1
                name = t
                hit = resolve_constant(self.model, name, hint)
                if hit is None:
                    c.fail(f"unknown element name {name!r}"
                           + (f" at type {hint}" if hint else ""))
                return hit
            c.fail("expected an element literal")
        finally:
            self.depth -= 1


def _check_table_total(table: FnTable, model: ModelConfig):
    try:
        carrier = enumerate_domain(model, table.dom, 0)
    except CttError:
        return  # symbolic domain; nothing to check against
    if {k for k, _ in table.entries} != set(carrier):
        raise TypeMismatch(
            f"table over {render_type(table.dom)} does not cover the carrier")


def model_signature(model: ModelConfig) -> dict[str, tuple[TypeExpr, int]]:
    """Parser signature for every name the model resolves alone: declared
    constants, base individuals no other base shares, and the truth values
    0/1."""
    return {name: (elems[0].ty, elems[0].k)
            for name, elems in model.names.items() if len(elems) == 1}


def resolve_constant(model: ModelConfig, name: str,
                     hint: Optional[TypeExpr] = None) -> Optional[CanonElem]:
    """The one element `name` denotes in the model at type `hint` (at any
    type when None), or None when it denotes none or several."""
    elems = model.names.get(name, ())
    if hint is not None:
        elems = [e for e in elems if e.ty == hint]
    return elems[0] if len(elems) == 1 else None


def parse_element(text: str, model: ModelConfig,
                  hint: Optional[TypeExpr] = None) -> CanonElem:
    p = _ElemParser(text, model)
    e = p.elem(hint)
    p.c.end("element")
    return e


def parse_set_of_sets(text: str, model: ModelConfig,
                      sigma: TypeExpr) -> frozenset[frozenset[Atom]]:
    """`{{a},{b,c}}` over the rank-0 carrier of sigma."""
    p = _ElemParser(text, model)
    c = p.c

    def member():
        e = p.elem(sigma)
        if e.k != 0:
            c.fail("set members must be rank-0 atoms")
        return e

    def one_set():
        c.expect("{")
        return frozenset(c.items("}", member))

    c.expect("{")
    sets = c.items("}", one_set)
    c.end("set of sets")
    return frozenset(sets)
