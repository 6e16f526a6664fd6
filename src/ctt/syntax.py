"""Types, lambda-mu terms, ranked subterms: AST, parsing, printing, checking.

Three term languages share one tokenizer:

  types     bot | e | (s -> t) | ~s          (~s sugar for (s -> bot))
  lambda-mu x | (P Q) | \\x:TY. P | #x:~TY. P
  ranked    x:TY@k | (P Q) | neg[k](P) | and[k](P,Q) | or[k](P,Q)
            | All[k](x:TY@m) | Ex[k](x:TY@m)

Variables carry their type (and rank, in the ranked language) at binding or
first use; later occurrences may be bare and must be consistent.
`_parse_term` reads both term languages: they share the application
chain and the variable production, and each keeps its head production
(binders, or operators). It and `_parse_type` are loops over an explicit
stack that look nodes up in the intern table by key.
"""

from __future__ import annotations

import re
import weakref
from collections import deque
from itertools import islice
from operator import attrgetter
from _weakref import _remove_dead_weakref
from enum import Enum
from typing import Optional, Union


class CttError(Exception):
    """Base for all library errors."""


class ParseError(CttError):
    def __init__(self, msg: str, pos: int, text: str = "", first_line: int = 1):
        """`msg` at offset `pos` of `text`, which starts at line
        `first_line` of the input the message names."""
        line = text.count("\n", 0, pos) + first_line
        col = pos - (text.rfind("\n", 0, pos) + 1) + 1
        super().__init__(f"{msg} at line {line}, column {col}")
        self.msg = msg
        self.pos = pos
        self.line = line
        self.col = col


class TypeMismatch(CttError):
    """Term fails to typecheck; carries the path to the offending node."""

    def __init__(self, msg: str, path: tuple[int, ...] = ()):
        super().__init__(f"{msg} (at path {'.'.join(map(str, path)) or 'root'})")
        self.path = path


class RankViolation(CttError):
    """A ranked subterm breaks a grammar side condition."""


# ---------------------------------------------------------------------------
# hash-consing

class _Ref(weakref.ref):
    """A weak reference to an interned object that knows its table key."""

    __slots__ = ("key",)


def _forget(ref: _Ref):
    # drops the entry only while it still holds this dead reference
    _remove_dead_weakref(_INTERNED, ref.key)


_INTERNED: dict[tuple, _Ref] = {}


def _intern(key: tuple, obj):
    """The live value under `key`, or else `obj`, entered under `key` with
    one hash: the one way into the table, for `Interned.__new__` and bulk
    builders alike. On a hit `obj` is dropped, and its reference, whose
    `key` is set, makes no callback."""
    ref = _Ref(obj, _forget)
    ref.key = key
    value = _INTERNED.setdefault(key, ref)()
    if value is None:  # the entry held a dead reference
        _INTERNED[key] = ref
        return obj
    return value


class Interned:
    """Hash-consed immutable value (Filliatre & Conchon, "Type-Safe Modular
    Hash-Consing", 2006): constructing one looks up (class, *fields) in a
    single table and returns the live object already built from equal
    fields, so equal values are one object, `==` is `is` and hashing is
    O(1). Subclasses name their fields in `__match_args__` (and slots);
    `_build` validates and fills derived slots only when an object is new.
    The table holds objects weakly, so it keeps only live values.
    """

    __slots__ = ("__weakref__",)
    __match_args__: tuple[str, ...] = ()

    def __new__(cls, *fields):
        key = (cls, *fields)
        ref = _INTERNED.get(key)
        self = None if ref is None else ref()
        if self is None:
            if len(fields) != len(cls.__match_args__):
                raise TypeError(f"{cls.__name__} takes fields {cls.__match_args__}")
            self = object.__new__(cls)
            for name, value in zip(cls.__match_args__, fields):
                object.__setattr__(self, name, value)
            self._build()
            _intern(key, self)
        return self

    def _build(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __repr__(self):
        fields = ", ".join(repr(getattr(self, f)) for f in self.__match_args__)
        return f"{type(self).__name__}({fields})"


# ---------------------------------------------------------------------------
# types

class Base(Interned):
    __slots__ = __match_args__ = ("name",)

    def __str__(self):
        return self.name


class Arrow(Interned):
    __match_args__ = ("dom", "cod")
    __slots__ = (*__match_args__, "text")

    def __str__(self):
        # rendered once asked, bottom-up with an explicit stack, so printing
        # a deep type never recurses and building one stores no text
        todo = [self]
        while not hasattr(self, "text"):
            t = todo[-1]
            below = [c for c in (t.dom, t.cod) if type(c) is Arrow and not hasattr(c, "text")]
            if below:
                todo += below
            else:
                object.__setattr__(todo.pop(), "text", f"({t.dom} -> {t.cod})")
        return self.text


class Bot(Interned):
    __slots__ = ()

    def __str__(self):
        return "bot"


TypeExpr = Union[Base, Arrow, Bot]
BOT = Bot()


def neg_type(ty: TypeExpr) -> Arrow:
    return Arrow(ty, BOT)


def is_neg_type(ty: TypeExpr) -> bool:
    return isinstance(ty, Arrow) and ty.cod == BOT


def strip_negations(ty: TypeExpr) -> tuple[int, TypeExpr]:
    """Count leading negations: ~~~s -> (3, s)."""
    n = 0
    while is_neg_type(ty):
        n += 1
        ty = ty.dom
    return n, ty


# ---------------------------------------------------------------------------
# tree nodes

class _Node(Interned):
    """A lambda-mu term or ranked subterm, hash-consed like types. Each node
    class names its child fields once, in `_child_fields`, from which
    `children`, `with_child`, `subterm_at` and `replace_at` serve both
    languages. Derived facts live in slots: `_ty` holds the type or, for an
    ill-typed node, its first fault in a left-to-right walk as the message
    and path `.ty` raises with, so a term is typed once, as it is built,
    and construction never raises; `_free` is filled by
    `free_vars`/`cts_signature`. `render` fills `_text`, the default text,
    and `_marks`, the span of each free name's annotation in it, joining
    both from the children's, so printing a term costs its new nodes.
    `_normal` is filled by `rewrite.normalize` with the runs that reached
    normal form from the node, one per strategy."""

    __slots__ = ("_ty", "_free", "_text", "_marks", "_normal")
    _child_fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        # one getter per class, returning the children as a tuple
        names = cls._child_fields
        get = attrgetter(*names) if names else (lambda node: ())
        if len(names) == 1:
            one = get
            get = lambda node: (one(node),)
        cls._children = staticmethod(get)

    def _build(self):  # a leaf (Var, CVar) stores its type
        object.__setattr__(self, "_ty", self.ty)

    @property
    def ty(self) -> TypeExpr:
        ty = self._ty
        if isinstance(ty, tuple):
            raise TypeMismatch(*ty)
        return ty


# The `_ty` of an ill-typed node: the message `.ty` raises, and the path
# from the node down to the subterm at fault.
Fault = tuple[str, tuple[int, ...]]


def _below(i: int, fault: Fault) -> Fault:
    """A child's fault as seen from its parent, where it is child `i`."""
    msg, path = fault
    return msg, (i, *path)


def _applied(fty) -> Union[TypeExpr, Fault]:
    """The `_ty` of a ranked application whose functor's `_ty` is `fty`."""
    if isinstance(fty, Arrow):
        return fty.cod
    return fty if isinstance(fty, tuple) else (f"{fty} is not an arrow type", ())


# ---------------------------------------------------------------------------
# navigation, for both languages

def children(node: _Node) -> tuple:
    """The node-valued fields of `node`, in declaration order."""
    return node._children(node)


def with_child(node: _Node, i: int, new: _Node) -> _Node:
    """`node` with its `i`-th child replaced by `new`; `node` itself when
    `new` is that child already."""
    name = node._child_fields[i]
    if getattr(node, name) is new:
        return node
    return type(node)(*(new if f == name else getattr(node, f)
                        for f in node.__match_args__))


def subterm_at(node: _Node, path: tuple[int, ...]) -> _Node:
    """The subterm at `path`, a child index per level."""
    for i in path:
        kids = children(node)
        if not 0 <= i < len(kids):
            raise CttError(f"bad path component {i} at {render(node)}")
        node = kids[i]
    return node


def replace_at(node: _Node, path: tuple[int, ...], new: _Node) -> _Node:
    """`node` with the subterm at `path` replaced by `new`; the ancestors
    are rebuilt bottom-up from an explicit spine."""
    spine = []
    for d, i in enumerate(path):
        kids = children(node)
        if not 0 <= i < len(kids):
            raise CttError(f"bad path {path[d:]} into {render(node)}")
        spine.append(node)
        node = kids[i]
    for parent, i in zip(reversed(spine), reversed(path)):
        new = with_child(parent, i, new)
    return new


# ---------------------------------------------------------------------------
# lambda-mu terms

class Var(_Node):
    __slots__ = __match_args__ = ("name", "ty")


class App(_Node):
    __slots__ = __match_args__ = _child_fields = ("fun", "arg")

    def _build(self):
        fty, aty = self.fun._ty, self.arg._ty
        if isinstance(fty, tuple):
            ty = _below(0, fty)
        elif isinstance(aty, tuple):
            ty = _below(1, aty)
        elif not isinstance(fty, Arrow):
            ty = f"{fty} is not an arrow type", (0,)
        elif fty.dom != aty:
            ty = f"argument type {aty} does not match domain {fty.dom}", (1,)
        else:
            ty = fty.cod
        object.__setattr__(self, "_ty", ty)


class Lam(_Node):
    __slots__ = __match_args__ = ("binder", "binder_ty", "body")
    _child_fields = ("body",)

    def _build(self):
        ty = self.body._ty
        ty = _below(0, ty) if isinstance(ty, tuple) else Arrow(self.binder_ty, ty)
        object.__setattr__(self, "_ty", ty)


_BAD_MU_BINDER = "mu binder must have a negation type"


class Mu(_Node):
    """mu-abstraction: binder has type ~s, body type bot, whole term type s."""

    __slots__ = __match_args__ = ("binder", "binder_ty", "body")
    _child_fields = ("body",)

    def _build(self):
        ty = self.body._ty
        if not is_neg_type(self.binder_ty):
            ty = _BAD_MU_BINDER, ()
        elif isinstance(ty, tuple):
            ty = _below(0, ty)
        elif ty != BOT:
            ty = f"mu body has type {ty}, expected bot", (0,)
        else:
            ty = self.binder_ty.dom
        object.__setattr__(self, "_ty", ty)


def _mu_dom(mu: Mu) -> TypeExpr:
    """The s of the binder type ~s of `mu`, as the printers write it: they
    read the binder, not `.ty`, which may hold a fault of the body."""
    if not is_neg_type(mu.binder_ty):
        raise TypeMismatch(_BAD_MU_BINDER)
    return mu.binder_ty.dom


SlmTerm = Union[Var, App, Lam, Mu]


# ---------------------------------------------------------------------------
# ranked subterms

class _Ranked(_Node):
    """A ranked subterm; `_fault` is None or the (class, message) that
    `rank_check` raises: a child's fault, left to right, else `_own_fault`.
    `_redex` is filled by `_innermost_redex`. An operator class names its
    operator word once, in `op`; the other classes have None."""

    __slots__ = ("_fault", "_redex")
    op: Optional[str] = None

    def _build(self):  # a variable; the other nodes store type and rank first
        super()._build()
        self._settle(())

    def _settle(self, kids):
        faults = [c._fault if isinstance(c, _Ranked)
                  else (CttError, f"unknown subterm {c!r}") for c in kids]
        fault = next(filter(None, faults), None) or _own_fault(self)
        object.__setattr__(self, "_fault", fault)


class CVar(_Ranked):
    __slots__ = __match_args__ = ("name", "ty", "rank")


class CApp(_Ranked):
    __match_args__ = _child_fields = ("fun", "arg")
    __slots__ = (*__match_args__, "rank")

    def _build(self):
        object.__setattr__(self, "_ty", _applied(self.fun._ty))
        object.__setattr__(self, "rank", max(self.fun.rank, self.arg.rank))
        self._settle(children(self))


class _Op(_Ranked):
    """A Boolean or big operator node: its rank is its k, its type that of
    its first child (of its index, for a big operator)."""

    __slots__ = ("rank",)

    def _build(self):
        kids = children(self)
        object.__setattr__(self, "_ty", kids[0]._ty if kids else self.index_ty)
        object.__setattr__(self, "rank", self.k)
        self._settle(kids)


class CNeg(_Op):
    __slots__ = __match_args__ = ("k", "child")
    _child_fields = ("child",)
    op = "neg"


class CConj(_Op):
    __slots__ = __match_args__ = ("k", "left", "right")
    _child_fields = ("left", "right")
    op = "and"


class CDisj(_Op):
    __slots__ = __match_args__ = ("k", "left", "right")
    _child_fields = ("left", "right")
    op = "or"


class CBigConj(_Op):
    """Generalized conjunction over the rank-`atom_rank` carrier of `index_ty`.
    The text writes a big operator's word capitalized: `All`, `Ex`."""

    __slots__ = __match_args__ = ("k", "index_var", "index_ty", "atom_rank")
    op = "all"


class CBigDisj(_Op):
    __slots__ = __match_args__ = ("k", "index_var", "index_ty", "atom_rank")
    op = "ex"


OP_NODES = {cls.op: cls for cls in (CNeg, CConj, CDisj, CBigConj, CBigDisj)}


def _own_fault(s: "CtsSubterm") -> Optional[tuple[type, str]]:
    """The side condition a node breaks itself, its children being well-ranked
    (so well-typed): k >= 1 and each child's rank <= k; types compose."""
    match s:
        case CVar() if s.rank < 0:
            return RankViolation, "variable rank must be a natural number"
        case CApp() if not isinstance(s.fun.ty, Arrow):
            return TypeMismatch, f"{s.fun.ty} is not an arrow type"
        case CApp() if s.fun.ty.dom != s.arg.ty:
            return (TypeMismatch,
                    f"argument type {s.arg.ty} does not match domain {s.fun.ty.dom}")
        case CNeg() if s.k < 1 or s.child.rank > s.k:
            return RankViolation, f"neg[{s.k}] needs child rank {s.child.rank} <= k, k >= 1"
        case CConj(k, l, r) | CDisj(k, l, r):
            if k < 1 or l.rank > k or r.rank > k:
                return (RankViolation,
                        f"{s.op}[{k}] needs child ranks {l.rank},{r.rank} <= k, k >= 1")
            if l.ty != r.ty:
                return TypeMismatch, f"{s.op}[{k}] children differ in type: {l.ty} vs {r.ty}"
        case CBigConj() | CBigDisj() if s.k < 1 or s.atom_rank > s.k or s.atom_rank < 0:
            return RankViolation, f"big operator needs index rank {s.atom_rank} <= k, k >= 1"


CtsSubterm = Union[CVar, CApp, CNeg, CConj, CDisj, CBigConj, CBigDisj]


def rank_check(sub: CtsSubterm) -> int:
    """Raise the first broken rank or type side condition in `sub`, found
    when its nodes were built (`_own_fault`); else return its rank."""
    if not isinstance(sub, _Ranked):
        raise CttError(f"unknown subterm {sub!r}")
    if sub._fault is not None:
        cls, msg = sub._fault
        raise cls(msg)
    return sub.rank


def check_sequent_member(m: CtsSubterm) -> None:
    """A sequent member is a well-ranked subterm of type bot."""
    rank_check(m)
    if m.ty != BOT:
        raise TypeMismatch(f"sequent member {render(m)} has type {m.ty}, expected bot")


class SyntaxClass(Enum):
    ATOMIC = "atomic"
    MOLECULAR = "molecular"
    CANONICAL = "canonical"


def classify(sub: CtsSubterm) -> SyntaxClass:
    """Strongest syntactic class: atomic < canonical < molecular.

    Atomic: no Boolean operator at all. Canonical: Boolean operators never
    occur beneath an application, and big-operator indices are rank 0.

    An operator below an application makes a redex for `_innermost_redex`:
    the nearest node above it that is not an operator is an application
    with an operator child. So without a redex every operator is reached
    from `sub` through operators alone, and there is one only when `sub`
    is one; those are walked for the big operators' index ranks.
    """
    if _innermost_redex(sub) is not None:
        return SyntaxClass.MOLECULAR
    if not isinstance(sub, _Op):
        return SyntaxClass.ATOMIC
    todo = [sub]
    while todo:
        t = todo.pop()
        if isinstance(t, (CBigConj, CBigDisj)) and t.atom_rank != 0:
            return SyntaxClass.MOLECULAR
        todo += (c for c in children(t) if isinstance(c, _Op))
    return SyntaxClass.CANONICAL


def _innermost_redex(sub: CtsSubterm) -> Optional[tuple[tuple[int, ...], str, bool]]:
    """Deepest application with an operator-topped side: (path, op,
    functor?), in the leftmost child that holds one, else at `sub` itself.
    Rank picks the side, functor winning ties, exactly matching how
    apply_elem distributes.

    Each node keeps the answer in its `_redex` slot: None, the index of the
    child the redex is in, or (op, functor?) at the redex itself. The slots
    are filled by `_fill_up`, so a member is walked once, and the path is
    read down the indices."""
    if not _fill_up(sub, "_redex", _own_redex, _CTS_NODES):
        raise CttError(f"unknown subterm {sub!r}")
    path = []
    hit = sub._redex
    while isinstance(hit, int):
        path.append(hit)
        sub = children(sub)[hit]
        hit = sub._redex
    return None if hit is None else (tuple(path), *hit)


def _own_redex(t: CtsSubterm):
    """The `_redex` slot of `t`, from its children's slots."""
    for i, c in enumerate(children(t)):
        if c._redex is not None:
            return i
    if type(t) is CApp:
        fun_op, arg_op = t.fun.op, t.arg.op
        if fun_op and t.fun.rank >= t.arg.rank:
            return fun_op, True
        if arg_op:
            return arg_op, False
        if fun_op:
            return fun_op, True
    return None


# ---------------------------------------------------------------------------
# free variables

def free_vars(term: SlmTerm) -> dict[str, TypeExpr]:
    """Free variable names of a lambda-mu term with their types, in order of
    first occurrence; lambda and mu both bind. Ranked subterms answer this
    through `cts_signature`.

    Raises TypeMismatch if one name occurs free at two different types.
    Every node keeps its table once asked: asking about a term built around
    subterms already asked costs its new nodes.
    """
    table = free_table(term)
    if table is None:
        return _free_vars_walk(term)
    return dict(table)


def free_table(term: SlmTerm) -> Optional[dict[str, TypeExpr]]:
    """The memoized `free_vars` table of `term`, shared between nodes (never
    mutate it), or None when a name occurs free at two types below it."""
    return _free_table(term, _SLM_NODES, _slm_free)


def cts_signature(sub: CtsSubterm) -> dict[str, tuple[TypeExpr, int]]:
    """Free ranked variables of a subterm: name -> (type, rank bound), in
    order of first occurrence.

    Big-operator index variables are bound by the operator and excluded.
    Inconsistent reuse of a name raises TypeMismatch. Memoized per node
    like `free_vars`.
    """
    table = signature_table(sub)
    if table is None:
        return _signature_walk(sub)
    return dict(table)


def signature_table(sub: CtsSubterm) -> Optional[dict[str, tuple[TypeExpr, int]]]:
    """The memoized `cts_signature` table of `sub`, shared between nodes
    (never mutate it), or None when a name occurs at two signatures below
    it. Fills the table of every node below it."""
    return _free_table(sub, _CTS_NODES, _cts_free)


_SLM_NODES = (Var, App, Lam, Mu)
_CTS_NODES = (CVar, CApp, CNeg, CConj, CDisj, CBigConj, CBigDisj)


def _free_table(node, kinds, local) -> Optional[dict]:
    """The memoized `_free` table of `node`, or None when a name maps to two
    values below it or a node is not of `kinds`, where the callers leave
    the answer to the walk. Fills the missing tables by `_fill_up`."""
    return node._free if _fill_up(node, "_free", local, kinds) else None


def _fill_up(node, slot: str, local, kinds: tuple) -> bool:
    """Fill `slot` of `node` and of every node below it that lacks it,
    bottom-up with an explicit stack, each one by `local` from its
    children's; False, leaving the rest, at a node not of `kinds`."""
    todo = [node]
    while todo:
        t = todo[-1]
        if type(t) not in kinds:
            return False
        if hasattr(t, slot):
            todo.pop()
            continue
        missing = [c for c in children(t)
                   if type(c) not in kinds or not hasattr(c, slot)]
        if missing:
            todo += missing
            continue
        todo.pop()
        object.__setattr__(t, slot, local(t))
    return True


def _union(out: Optional[dict], more: Optional[dict]) -> Optional[dict]:
    """Both tables in one, sharing `out` when `more` adds nothing; None when
    a name maps to two values."""
    if out is None or more is None:
        return None
    shared = True
    for name, value in more.items():
        have = out.get(name)
        if have is None:
            if shared:
                out, shared = dict(out), False
            out[name] = value
        elif have != value:
            return None
    return out


def _slm_free(t: SlmTerm) -> Optional[dict[str, TypeExpr]]:
    """One lambda-mu node's table from its children's tables."""
    match t:
        case Var(name, ty):
            return {name: ty}
        case Lam(b, _, body) | Mu(b, _, body):
            inner = body._free
            if inner is None or b not in inner:
                return inner
            out = dict(inner)
            del out[b]
            return out
        case App(fun, arg):
            return _union(fun._free, arg._free)


def _cts_free(s: CtsSubterm) -> Optional[dict[str, tuple[TypeExpr, int]]]:
    """One ranked node's table from its children's tables."""
    match s:
        case CVar(name, ty, rank):
            return {name: (ty, rank)}
        case CNeg(_, child):
            return child._free
        case CApp(l, r) | CConj(_, l, r) | CDisj(_, l, r):
            return _union(l._free, r._free)
    return {}  # big operators bind their index


def _free_vars_walk(term: SlmTerm) -> dict[str, TypeExpr]:
    """`free_vars` as a preorder walk with an explicit stack, which raises
    at the first name it meets at a second type."""
    out: dict[str, TypeExpr] = {}
    stack = [(term, frozenset())]
    while stack:
        t, bound = stack.pop()
        match t:
            case Var(name, ty):
                if name not in bound:
                    have = out.setdefault(name, ty)
                    if have != ty:
                        raise TypeMismatch(f"{name} occurs free at both {have} and {ty}")
            case Lam(b, _, body) | Mu(b, _, body):
                stack.append((body, bound | {b}))
            case App(fun, arg):
                stack += (arg, bound), (fun, bound)
            case _:
                raise CttError(f"unknown node {t!r}")
    return out


def _signature_walk(sub: CtsSubterm) -> dict[str, tuple[TypeExpr, int]]:
    """`cts_signature` as a preorder walk with an explicit stack, which
    raises at the first name it meets at a second signature."""
    out: dict[str, tuple[TypeExpr, int]] = {}
    stack = [sub]
    while stack:
        s = stack.pop()
        match s:
            case CVar(name, ty, rank):
                have = out.setdefault(name, (ty, rank))
                if have != (ty, rank):
                    raise TypeMismatch(f"{name} used at {_show(have)} and {ty}@{rank}")
            case CBigConj() | CBigDisj():
                pass
            case _Ranked():  # lambda-mu nodes have no ranked variables
                stack += reversed(children(s))
    return out


# ---------------------------------------------------------------------------
# tokenizer

# One match per token: whitespace and comments are skipped, then the token
# is read into the one group. A comment runs from `#` to the end of the
# line, except that in lambda-mu text a `#` glued to an identifier is the mu
# sigil (`#x:...`), read as a token. The token alternatives start with
# distinct characters, so the commonest are tried first. `.` reads a
# character no token starts with; the empty alternative matches at the end
# of the text and reads "", which stands for the end of input.
_SKIP = r"(?:\s|\#[^\n]*)*"
_SKIP_MU = r"(?:\s|\#(?![A-Za-z_])[^\n]*)*"
_TOKEN = r"""(
      [()\[\]{}.,:;@~\\\#=]
    | [A-Za-z_][A-Za-z0-9_']*
    | ->
    | \|-
    | [0-9]+
    | .
    | \Z
)"""
_SCANNERS = tuple(re.compile(skip + _TOKEN, re.VERBOSE | re.DOTALL)
                  for skip in (_SKIP, _SKIP_MU))
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
# every text a one-character token can have; `.` reads any other character
_ONE_CHAR_TOKENS = _NAME_START | frozenset("0123456789()[]{}.,:;@~\\#=")

RESERVED = {"bot", "and", "or", "neg", "All", "Ex", "table"}

# Deepest nesting of grammar productions, and of the tree an application
# chain builds. The type and term parsers read any depth; the cap keeps
# the passes that still recurse (evaluation, canonical keys, element
# literals) within the default recursion limit. A 400-step identity chain
# parses.
MAX_NESTING = 450
_TOO_DEEP = f"input nests deeper than {MAX_NESTING} levels"


def tokenize(text: str, mu_sigil: bool = False) -> list[str]:
    """The token texts of `text` and a final "" for the end of input, from
    one scan; `#` starts a comment unless mu_sigil and directly glued to an
    identifier (the mu binder `#x:...`)."""
    toks = _SCANNERS[mu_sigil].findall(text)
    if len(toks) > 1 and not toks[-2]:
        toks.pop()  # after skipped text, the end matches twice
    for tok in set(toks):
        if len(tok) == 1 and tok not in _ONE_CHAR_TOKENS:
            i = next(i for i, t in enumerate(toks)
                     if len(t) == 1 and t not in _ONE_CHAR_TOKENS)
            raise ParseError(f"unexpected character {toks[i]!r}",
                             _token_start(text, mu_sigil, i), text)
    return toks


def _token_start(text: str, mu_sigil: bool, i: int) -> int:
    """The offset in `text` of token `i` of `tokenize(text, mu_sigil)`,
    found by scanning again: only an error needs a position."""
    return next(islice(_SCANNERS[mu_sigil].finditer(text), i, None)).start(1)


def _is_name(tok: str) -> bool:
    """Whether `tok` is an identifier token, reserved words included."""
    return tok[:1] in _NAME_START


class _Cursor:
    """The token list of `text` and the index of the next token. Parsers
    read `toks[i]` and advance `i` themselves."""

    def __init__(self, text: str, mu_sigil: bool = False):
        self.toks = tokenize(text, mu_sigil)
        self.text = text
        self.mu_sigil = mu_sigil
        self.i = 0

    def expect(self, tok: str):
        self.i = self.want(tok, self.i)

    def want(self, tok: str, at: int) -> int:
        """The index after token `at`, which must be `tok`."""
        if self.toks[at] != tok:
            self.fail(f"expected {tok!r}, found {self.toks[at] or 'end of input'!r}", at)
        return at + 1

    def items(self, close: str, read) -> list:
        """What `read()` returns for each item of a comma-separated list,
        possibly empty, up to and including the token `close`; a missing or
        trailing comma fails at the token where an item or `close` was due."""
        out = []
        if self.toks[self.i] != close:
            out.append(read())
            while self.toks[self.i] == ",":
                self.i += 1
                out.append(read())
        self.expect(close)
        return out

    def fail(self, msg: str, at: Optional[int] = None):
        """Raise `msg` at token `at`, by default the next one."""
        at = self.i if at is None else at
        raise ParseError(msg, _token_start(self.text, self.mu_sigil, at), self.text)

    def end(self, what: str):
        if self.toks[self.i]:
            self.fail(f"trailing input after {what}")


# Results of the last PARSE_WINDOW successful parses, kept alive so that a
# text parsed again finds its interned nodes, typed and printed, instead of
# building them anew; the bound keeps memory bounded by the problem. The
# derivations `sequents.prove` finds and the sequents a derivation file
# read join it too, so a goal proved again, or its file checked, finds its
# sequents built.
PARSE_WINDOW = 64
_PARSED: deque = deque(maxlen=PARSE_WINDOW)


def _kept(result):
    _PARSED.append(result)
    return result


# ---------------------------------------------------------------------------
# type parser

# Frames of the type loop, besides an arrow's domain: `~` and `(`, and a
# type waiting for its first atom, after which it reads `->` or ends.
_NEG, _PAREN, _TYPE = "~", "(", "->"


def _parse_type(c: _Cursor, depth: int = 0, atom: bool = False) -> TypeExpr:
    """The type, or with `atom` the type atom, at the next token of `c`,
    by nonrecursive predictive parsing (Aho, Lam, Sethi & Ullman, 2006,
    4.4.4): read an atom, opening a frame per production it starts, then
    hand the type to the frames waiting for it. An atom nests one level
    below its frames and `depth`. A node is looked up by key in the intern
    table and built only when none is alive (an interned value is true)."""
    toks, i, get = c.toks, c.i, _INTERNED.get
    stack: list = [] if atom else [_TYPE]
    while True:
        if depth + len(stack) >= MAX_NESTING:
            c.fail(_TOO_DEEP, i)
        t = toks[i]
        i += 1
        if t == "~":
            stack.append(_NEG)
            continue
        if t == "(":
            stack += _PAREN, _TYPE
            continue
        if t == "bot":
            ty = BOT
        elif t[:1] in _NAME_START and t not in RESERVED:
            ref = get((Base, t))
            ty = ref and ref() or Base(t)
        else:
            c.fail("expected a type", i - 1)
        while stack:
            f = stack.pop()
            if f is _TYPE:
                if toks[i] == "->":
                    stack += ty, _TYPE
                    i += 1
                    break
            elif f is _PAREN:
                i = c.want(")", i)
            else:
                key = (Arrow, ty, BOT) if f is _NEG else (Arrow, f, ty)
                ref = get(key)
                ty = ref and ref() or Arrow(*key[1:])
        else:
            c.i = i
            return ty


def parse_type(text: str) -> TypeExpr:
    c = _Cursor(text)
    ty = _parse_type(c)
    c.end("type")
    return _kept(ty)


# ---------------------------------------------------------------------------
# term parser, for lambda-mu terms and ranked subterms

# Frames of the term loop: [_GROUP, functor or None, its height] for
# `(P Q ...)`; (Lam or Mu, name, type, the name's outer signature or
# None); and (CNeg, k) or [CConj or CDisj, k, left child or None, height].
_GROUP = "("


def _parse_term(c: _Cursor, slm: bool, known: dict[str, tuple],
                default: Optional[tuple]):
    """The lambda-mu term (`slm`) or ranked subterm at the next token of
    `c`, by one loop as in `_parse_type`: a head is a variable or opens a
    frame, and each node goes to the frames waiting for it.

    A variable's signature, `(ty,)` or `(ty, rank)`, is its binder's, else
    its annotation's, which must agree with `known`, else the one in
    `known`, else `default`. A production nests one level below its
    frames; an application chain spends its level plus its functor's
    height in term levels. A node is looked up by key, `(class, *fields)`,
    and its class, which checks it and fills its slots, is called only when
    none is alive: a text parsed again while its nodes live builds none."""
    toks, i, get = c.toks, c.i, _INTERNED.get
    var, app = (Var, App) if slm else (CVar, CApp)
    numerals = () if slm else ("0", "1")  # ranked names of the truth values
    bound: dict[str, tuple] = {}
    stack: list = []
    key = None  # the node to hand up, by key; None to read a head
    while True:
        if key is None:
            if len(stack) >= MAX_NESTING:
                c.fail(_TOO_DEEP, i)
            t = toks[i]
            i += 1
            if t == "(":
                stack.append([_GROUP, None, 0])
                continue
            height = 1
            if t[:1] in _NAME_START and t not in RESERVED or t in numerals:
                if t in bound:
                    sig = bound[t]
                elif toks[i] == ":":
                    c.i = i + 1
                    sig = (_parse_type(c, len(stack) + 1, True),)
                    i = c.i
                    if not slm:
                        sig += (_rank(c, c.want("@", i)),)
                        i += 2
                    if known.setdefault(t, sig) != sig:
                        c.fail(f"{t} already annotated as {_show(known[t])}", i)
                elif t in known:
                    sig = known[t]
                elif default is not None:
                    sig = known[t] = default
                else:
                    c.fail(f"free variable {t} needs a type annotation" if slm
                           else f"variable {t} needs a `:type@rank` annotation", i)
                key = (var, t, *sig)
            elif slm:
                if t != "\\" and t != "#":
                    c.fail("expected a term", i - 1)
                name = toks[i]
                if name[:1] not in _NAME_START or name in RESERVED:
                    c.fail("expected an identifier", i)
                i = c.want(":", i + 1)
                ty = toks[i]  # a base name is read here
                if ty[:1] in _NAME_START and ty not in RESERVED and len(stack) < MAX_NESTING - 1:
                    ref = get((Base, ty))
                    ty = ref and ref() or Base(ty)
                    i += 1
                else:
                    c.i = i
                    ty = _parse_type(c, len(stack) + 1, True)
                    i = c.i
                if t == "#" and not is_neg_type(ty):
                    c.fail(f"mu binder must have a negation type, got {ty}", i)
                i = c.want(".", i)
                stack.append((Mu if t == "#" else Lam, name, ty, bound.get(name)))
                bound[name] = (ty,)
                continue
            else:
                cls = OP_NODES.get(t.lower()) if t in RESERVED else None
                if cls is None:
                    c.fail("expected a subterm", i - 1)
                k = _rank(c, c.want("[", i))
                i = c.want("(", c.want("]", i + 2))
                if cls is CNeg:
                    stack.append((CNeg, k))
                    continue
                if cls is not CBigConj and cls is not CBigDisj:
                    stack.append([cls, k, None, 0])
                    continue
                name = toks[i]
                if name[:1] not in _NAME_START or name in RESERVED:
                    c.fail("expected a variable", i)
                c.i = c.want(":", i + 1)
                ty = _parse_type(c, len(stack) + 1, True)
                i = c.want("@", c.i)
                key = (cls, k, name, ty, _rank(c, i))
                i = c.want(")", i + 1)
        ref = get(key)
        node = ref and ref() or key[0](*key[1:])
        key = None
        while stack:  # hand `node`, `height` levels tall, to its frames
            f = stack[-1]
            kind = f[0]
            if kind is _GROUP:
                if f[1] is not None:  # apply the functor, which then comes back
                    key = (app, f[1], node)
                    height = 1 + max(f[2], height)
                    f[1] = None
                    break
                if toks[i] != ")":  # (P) groups, (P Q R) left-folds
                    if len(stack) + height > MAX_NESTING:
                        c.fail(_TOO_DEEP, i)
                    f[1], f[2] = node, height
                    break
                i += 1
                stack.pop()
            elif kind is CNeg or kind is Lam or kind is Mu:  # one child
                stack.pop()
                if kind is CNeg:
                    i = c.want(")", i)
                    key = (CNeg, f[1], node)
                else:
                    _, name, ty, outside = f
                    if outside is None:
                        del bound[name]
                    else:
                        bound[name] = outside
                    key = (kind, name, ty, node)
                height += 1
                break
            elif f[2] is None:
                i = c.want(",", i)
                f[2], f[3] = node, height
                break
            else:
                stack.pop()
                i = c.want(")", i)
                key = (kind, f[1], f[2], node)
                height = 1 + max(f[3], height)
                break
        else:
            c.i = i
            return node


def _rank(c: _Cursor, at: int) -> int:
    """The natural number at token `at`."""
    if not c.toks[at].isdigit():
        c.fail("expected a rank (natural number)", at)
    return int(c.toks[at])


def _show(sig: tuple) -> str:
    """A signature as an annotation writes it: `TY` or `TY@m`."""
    return "@".join(map(str, sig))


def _parse_slm_once(c: _Cursor, default_ty: Optional[TypeExpr]) -> SlmTerm:
    term = _parse_term(c, True, {}, None if default_ty is None else (default_ty,))
    c.end("term")
    term.ty  # raises the first type fault, with its path
    return _kept(term)


def parse_slm(text: str) -> SlmTerm:
    """Parse a lambda-mu term and typecheck it.

    A leading `TYPE :` gives unannotated free variables a default type,
    e.g. `e: ((\\x:e. x) y)` types the free y as e; its colon is a token,
    not one in a comment. A plain term is tried first, so `x:e` stays an
    annotated variable. Both readings share one token list. When both
    fail, the error of the one that got further into the input is raised.
    """
    c = _Cursor(text, mu_sigil=True)
    try:
        return _parse_slm_once(c, None)
    except CttError as original:
        c.i = 0
        try:
            prefix_ty = _parse_type(c)
            c.expect(":")
        except CttError:
            raise original from None
        try:
            return _parse_slm_once(c, prefix_ty)
        except CttError as retry:
            if _reach(original, text) > _reach(retry, text):
                raise original from None
            raise


def _reach(error: CttError, text: str) -> int:
    """How far into `text` a parse got before `error`: a parse error's
    position, or the whole text for an error raised after parsing."""
    return error.pos if isinstance(error, ParseError) else len(text)


def parse_cts(text: str, sig: Optional[dict[str, tuple[TypeExpr, int]]] = None) -> CtsSubterm:
    """Parse a ranked subterm and check every rank side condition."""
    c = _Cursor(text)
    sub = _parse_term(c, False, dict(sig or {}), None)
    c.end("subterm")
    rank_check(sub)
    return _kept(sub)


def parse_sequent_members(text: str, sig: Optional[dict[str, tuple[TypeExpr, int]]] = None
                          ) -> tuple[list[CtsSubterm], list[CtsSubterm]]:
    """Parse `A, B |- C, D`. Bare unannotated variables default to bot@0.
    Either side may be empty; a comma is always followed by a member."""
    c = _Cursor(text)
    known = dict(sig or {})

    def side(stop: str) -> list[CtsSubterm]:
        if c.toks[c.i] in (stop, ""):
            return []
        members = [_parse_term(c, False, known, (BOT, 0))]
        while c.toks[c.i] == ",":
            c.i += 1
            members.append(_parse_term(c, False, known, (BOT, 0)))
        return members

    ante = side("|-")
    c.expect("|-")
    succ = side("")
    c.end("sequent")
    for m in ante + succ:
        check_sequent_member(m)
    _kept((*ante, *succ))
    return ante, succ


def parse(text: str, mode: str):
    """Dispatch parser: mode is 'type', 'slm', or 'cts'."""
    if mode == "type":
        return parse_type(text)
    if mode == "slm":
        return parse_slm(text)
    if mode == "cts":
        return parse_cts(text)
    raise CttError(f"unknown parse mode {mode!r}")


# ---------------------------------------------------------------------------
# rendering

def render_type(ty: TypeExpr) -> str:
    return str(ty)


def render(ast, sort_children: bool = False, annotate: bool = True) -> str:
    """Deterministic text for types, lambda-mu terms and ranked subterms.

    Free variables are annotated at first (leftmost) use only; annotate=False
    drops those annotations (display form, not reparseable in general). With
    sort_children=True the children of and/or nodes print in lexicographic
    order (canonical printing for golden files). A node keeps its default
    text once asked, joined from its children's texts (`_fill_texts`);
    annotate=False cuts the annotations out of it, and sort_children=True
    renders the tree rebuilt with sorted children (`_sorted`).
    """
    if isinstance(ast, (Base, Arrow, Bot)):
        return render_type(ast)
    if isinstance(ast, _SLM_NODES):
        kinds = _SLM_NODES
    elif isinstance(ast, _CTS_NODES):
        kinds = _CTS_NODES
        if sort_children:
            ast = _sorted(ast)
    else:
        raise CttError(f"cannot render {ast!r}")
    if not hasattr(ast, "_text"):
        _fill_texts(ast, kinds)
    if annotate:
        return ast._text
    text, out, last = ast._text, [], 0
    for i, j in ast._marks.values():
        out.append(text[last:i])
        last = j
    out.append(text[last:])
    return "".join(out)


_NO_MARKS: dict[str, tuple[int, int]] = {}  # shared; never mutated


def _fill_texts(node: _Node, kinds: tuple):
    """Fill `_text` and `_marks` below `node` bottom-up with an explicit
    stack, leftmost child first. Each node is checked before its children:
    its language (`kinds`, the root's) and its mu binder, so the first
    fault in a left-to-right reading raises, as in a recursive printer."""
    todo = [node]
    while todo:
        t = todo.pop()
        if type(t) is tuple:  # its children are filled: join them
            _join(*t)
            continue
        if type(t) not in kinds:
            raise CttError(f"cannot render {t!r}")
        if hasattr(t, "_text"):
            continue
        todo.append((t, *_layout(t)))
        todo += reversed(children(t))


def _layout(t: _Node) -> tuple[tuple, Optional[str]]:
    """The pieces of the text of `t` in order, literal strings and
    children, and the name `t` binds in them. A variable is its name and
    its annotation."""
    match t:
        case Var(name, ty):
            return (name, f":{ty}"), None
        case CVar(name, ty, rank):
            return (name, f":{ty}@{rank}"), None
        case App(fun, arg) if isinstance(fun, (Lam, Mu)):
            return ("((", fun, ") ", arg, ")"), None
        case App(fun, arg) | CApp(fun, arg):
            return ("(", fun, " ", arg, ")"), None
        case Lam(b, bty, body):
            return (f"\\{b}:{bty}. ", body), b
        case Mu(b, _, body):
            return (f"#{b}:~{_mu_dom(t)}. ", body), b
        case CNeg(k, child):
            return (f"neg[{k}](", child, ")"), None
        case CConj(k, l, r) | CDisj(k, l, r):
            return (f"{t.op}[{k}](", l, ",", r, ")"), None
        case CBigConj(k, x, ty, m) | CBigDisj(k, x, ty, m):
            return (f"{t.op.capitalize()}[{k}]({x}:{ty}@{m})",), None


def _join(t: _Node, pieces: tuple, binder: Optional[str]):
    """Set the text of `t` from its `_layout` and its children's texts, and
    `_marks`: each free name's annotation span in it, in text order. A
    child keeps the annotations of names not marked to its left and not
    bound by `t`; the others are cut out of its text."""
    if type(t) in (Var, CVar):
        name, note = pieces
        text = name + note
        object.__setattr__(t, "_text", text)
        object.__setattr__(t, "_marks", {name: (len(name), len(text))})
        return
    out, marks, at = [], {}, 0
    for p in pieces:
        if type(p) is str:
            out.append(p)
            at += len(p)
            continue
        text, last = p._text, 0
        for name, (i, j) in p._marks.items():
            if name in marks or name == binder:
                out.append(text[last:i])
                at += i - last
                last = j
            else:
                marks[name] = (at + i - last, at + j - last)
        out.append(text[last:])
        at += len(text) - last
    object.__setattr__(t, "_text", "".join(out))
    object.__setattr__(t, "_marks", marks or _NO_MARKS)


def _sorted(root: CtsSubterm) -> CtsSubterm:
    """`root` rebuilt with the children of every and/or node in the order
    of their bare keys: the sorted text without annotations or index
    types. One explicit-stack pass works out each node's key once, from
    its children's; and/or nodes take their right child first, as keys
    were compared, so a node of the other language raises where it did."""
    keys: dict[CtsSubterm, str] = {}
    built: dict[CtsSubterm, CtsSubterm] = {}
    todo = [root]
    while todo:
        s = todo.pop()
        if type(s) is not tuple:
            if s in keys:
                continue
            if type(s) not in _CTS_NODES:
                raise CttError(f"cannot render {s!r}")
            todo.append((s,))
            kids = children(s)
            todo += kids if type(s) in (CConj, CDisj) else reversed(kids)
            continue
        s, = s  # its children have keys
        match s:
            case CVar(name, _, _):
                keys[s], built[s] = name, s
            case CApp(fun, arg):
                keys[s] = f"({keys[fun]} {keys[arg]})"
                built[s] = CApp(built[fun], built[arg])
            case CNeg(k, child):
                keys[s] = f"neg[{k}]({keys[child]})"
                built[s] = CNeg(k, built[child])
            case CConj(k, l, r) | CDisj(k, l, r):
                if keys[r] < keys[l]:
                    l, r = r, l
                keys[s] = f"{s.op}[{k}]({keys[l]},{keys[r]})"
                built[s] = type(s)(k, built[l], built[r])
            case CBigConj(k, x, _, m) | CBigDisj(k, x, _, m):
                keys[s], built[s] = f"{s.op.capitalize()}[{k}]({x}@{m})", s
    return built[root]
