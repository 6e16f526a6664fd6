"""Types, lambda-mu terms, ranked subterms: AST, parsing, printing, checking.

Three term languages share one tokenizer:

  types     bot | e | (s -> t) | ~s          (~s sugar for (s -> bot))
  lambda-mu x | (P Q) | \\x:TY. P | #x:~TY. P
  ranked    x:TY@k | (P Q) | neg[k](P) | and[k](P,Q) | or[k](P,Q)
            | All[k](x:TY@m) | Ex[k](x:TY@m)

Variables carry their type (and rank, in the ranked language) at binding or
first use; later occurrences may be bare and must be consistent.
"""

from __future__ import annotations

import re
import weakref
from _weakref import _remove_dead_weakref
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union


class CttError(Exception):
    """Base for all library errors."""


class ParseError(CttError):
    def __init__(self, msg: str, pos: int, text: str = ""):
        line = text.count("\n", 0, pos) + 1
        col = pos - (text.rfind("\n", 0, pos) + 1) + 1
        super().__init__(f"{msg} at line {line}, column {col}")
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


class UnboundVariable(CttError):
    pass


# ---------------------------------------------------------------------------
# hash-consing

class _Ref(weakref.ref):
    """A weak reference to an interned object that knows its table key."""

    __slots__ = ("key",)


def _forget(ref: _Ref):
    # drops the entry only while it still holds this dead reference
    _remove_dead_weakref(_INTERNED, ref.key)


_INTERNED: dict[tuple, _Ref] = {}


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
            ref = _INTERNED[key] = _Ref(self, _forget)
            ref.key = key
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

    def _build(self):
        # rendered once, from the children's texts, so printing a deeply
        # nested type never recurses
        object.__setattr__(self, "text", f"({self.dom} -> {self.cod})")

    def __str__(self):
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
    """A lambda-mu term or ranked subterm, hash-consed like types. Derived
    facts live in slots: `_ty` holds the type or, for an ill-typed node, the
    message `.ty` raises with, so construction never raises; `height` counts
    the term levels of the tree (types not counted); `_free` is filled by
    `free_vars`/`cts_signature` and `_text` by `render`."""

    __slots__ = ("_ty", "height", "_free", "_text")

    def _build(self):  # a leaf (Var, CVar, Hole) stores its type
        object.__setattr__(self, "_ty", self.ty)
        self._stack(())

    def _stack(self, kids):
        object.__setattr__(self, "height", 1 + max((c.height for c in kids), default=0))

    @property
    def ty(self) -> TypeExpr:
        ty = self._ty
        if isinstance(ty, str):
            raise TypeMismatch(ty)
        return ty


def _applied(fty) -> Union[TypeExpr, str]:
    """The `_ty` of an application whose functor's `_ty` is `fty`."""
    if isinstance(fty, Arrow):
        return fty.cod
    return fty if isinstance(fty, str) else f"{fty} is not an arrow type"


# ---------------------------------------------------------------------------
# lambda-mu terms

class Var(_Node):
    __slots__ = __match_args__ = ("name", "ty")


class App(_Node):
    __slots__ = __match_args__ = ("fun", "arg")

    def _build(self):
        object.__setattr__(self, "_ty", _applied(self.fun._ty))
        self._stack((self.fun, self.arg))


class Lam(_Node):
    __slots__ = __match_args__ = ("binder", "binder_ty", "body")

    def _build(self):
        ty = self.body._ty
        if not isinstance(ty, str):
            ty = Arrow(self.binder_ty, ty)
        object.__setattr__(self, "_ty", ty)
        self._stack((self.body,))


class Mu(_Node):
    """mu-abstraction: binder has type ~s, body type bot, whole term type s."""

    __slots__ = __match_args__ = ("binder", "binder_ty", "body")

    def _build(self):
        ty = (self.binder_ty.dom if is_neg_type(self.binder_ty)
              else "mu binder must have a negation type")
        object.__setattr__(self, "_ty", ty)
        self._stack((self.body,))


class Hole(_Node):
    """One-hole position in a bot-typed context (internal; not parseable)."""

    __slots__ = ()
    ty = BOT


SlmTerm = Union[Var, App, Lam, Mu, Hole]


def typecheck_slm(term: SlmTerm, ctx: Optional[dict[str, TypeExpr]] = None,
                  _path: tuple[int, ...] = ()) -> TypeExpr:
    """Type of `term` under `ctx`; raises on unbound variables or mismatches."""
    ctx = ctx or {}
    match term:
        case Var(name, ty):
            if name in ctx and ctx[name] != ty:
                raise TypeMismatch(
                    f"variable {name} annotated {ty} but bound to {ctx[name]}", _path)
            if name not in ctx:
                raise UnboundVariable(f"unbound variable {name}")
            return ty
        case App(fun, arg):
            fty = typecheck_slm(fun, ctx, _path + (0,))
            aty = typecheck_slm(arg, ctx, _path + (1,))
            if not isinstance(fty, Arrow):
                raise TypeMismatch(f"{fty} is not an arrow type", _path + (0,))
            if fty.dom != aty:
                raise TypeMismatch(
                    f"argument type {aty} does not match domain {fty.dom}", _path + (1,))
            return fty.cod
        case Lam(binder, binder_ty, body):
            bty = typecheck_slm(body, {**ctx, binder: binder_ty}, _path + (0,))
            return Arrow(binder_ty, bty)
        case Mu(binder, binder_ty, body):
            if not is_neg_type(binder_ty):
                raise TypeMismatch("mu binder must have a negation type", _path)
            bty = typecheck_slm(body, {**ctx, binder: binder_ty}, _path + (0,))
            if bty != BOT:
                raise TypeMismatch(f"mu body has type {bty}, expected bot", _path + (0,))
            return binder_ty.dom
        case Hole():
            return term.ty
    raise TypeMismatch(f"unknown node {term!r}", _path)


def slm_children(term: SlmTerm) -> tuple[SlmTerm, ...]:
    match term:
        case App(fun, arg):
            return (fun, arg)
        case Lam(_, _, body) | Mu(_, _, body):
            return (body,)
        case _:
            return ()


def slm_replace(term: SlmTerm, path: tuple[int, ...], new: SlmTerm) -> SlmTerm:
    if not path:
        return new
    i, rest = path[0], path[1:]
    match term, i:
        case App(fun, arg), 0:
            return App(slm_replace(fun, rest, new), arg)
        case App(fun, arg), 1:
            return App(fun, slm_replace(arg, rest, new))
        case Lam(b, bt, body), 0:
            return Lam(b, bt, slm_replace(body, rest, new))
        case Mu(b, bt, body), 0:
            return Mu(b, bt, slm_replace(body, rest, new))
    raise CttError(f"bad path {path} into {render(term)}")


def slm_at(term: SlmTerm, path: tuple[int, ...]) -> SlmTerm:
    for i in path:
        term = slm_children(term)[i]
    return term


# ---------------------------------------------------------------------------
# ranked subterms

class _Ranked(_Node):
    """A ranked subterm; `_fault` is None or the (class, message) that
    `rank_check` raises: a child's fault, left to right, else `_own_fault`."""

    __slots__ = ("_fault",)

    def _build(self):  # a variable; the other nodes store type and rank first
        super()._build()
        self._settle(())

    def _settle(self, kids):
        self._stack(kids)
        faults = [c._fault if isinstance(c, _Ranked)
                  else (CttError, f"unknown subterm {c!r}") for c in kids]
        fault = next(filter(None, faults), None) or _own_fault(self)
        object.__setattr__(self, "_fault", fault)


class CVar(_Ranked):
    __slots__ = __match_args__ = ("name", "ty", "rank")


class CApp(_Ranked):
    __match_args__ = ("fun", "arg")
    __slots__ = (*__match_args__, "rank")

    def _build(self):
        object.__setattr__(self, "_ty", _applied(self.fun._ty))
        object.__setattr__(self, "rank", max(self.fun.rank, self.arg.rank))
        self._settle((self.fun, self.arg))


class _Op(_Ranked):
    """A Boolean or big operator node: its rank is its k, its type that of
    its first child (of its index, for a big operator)."""

    __slots__ = ("rank",)

    def _build(self):
        kids = cts_children(self)
        object.__setattr__(self, "_ty", kids[0]._ty if kids else self.index_ty)
        object.__setattr__(self, "rank", self.k)
        self._settle(kids)


class CNeg(_Op):
    __slots__ = __match_args__ = ("k", "child")


class CConj(_Op):
    __slots__ = __match_args__ = ("k", "left", "right")


class CDisj(_Op):
    __slots__ = __match_args__ = ("k", "left", "right")


class CBigConj(_Op):
    """Generalized conjunction over the rank-`atom_rank` carrier of `index_ty`."""

    __slots__ = __match_args__ = ("k", "index_var", "index_ty", "atom_rank")


class CBigDisj(_Op):
    __slots__ = __match_args__ = ("k", "index_var", "index_ty", "atom_rank")


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
            op = "and" if isinstance(s, CConj) else "or"
            if k < 1 or l.rank > k or r.rank > k:
                return (RankViolation,
                        f"{op}[{k}] needs child ranks {l.rank},{r.rank} <= k, k >= 1")
            if l.ty != r.ty:
                return TypeMismatch, f"{op}[{k}] children differ in type: {l.ty} vs {r.ty}"
        case CBigConj() | CBigDisj() if s.k < 1 or s.atom_rank > s.k or s.atom_rank < 0:
            return RankViolation, f"big operator needs index rank {s.atom_rank} <= k, k >= 1"


CtsSubterm = Union[CVar, CApp, CNeg, CConj, CDisj, CBigConj, CBigDisj]


def cts_children(sub: CtsSubterm) -> tuple[CtsSubterm, ...]:
    match sub:
        case CApp(fun, arg):
            return (fun, arg)
        case CNeg(_, child):
            return (child,)
        case CConj(_, l, r) | CDisj(_, l, r):
            return (l, r)
        case _:
            return ()


def cts_at(sub: CtsSubterm, path: tuple[int, ...]) -> CtsSubterm:
    for i in path:
        kids = cts_children(sub)
        if i >= len(kids):
            raise CttError(f"bad path component {i} at {render(sub)}")
        sub = kids[i]
    return sub


def cts_replace(sub: CtsSubterm, path: tuple[int, ...], new: CtsSubterm) -> CtsSubterm:
    if not path:
        return new
    i, rest = path[0], path[1:]
    match sub, i:
        case CApp(fun, arg), 0:
            return CApp(cts_replace(fun, rest, new), arg)
        case CApp(fun, arg), 1:
            return CApp(fun, cts_replace(arg, rest, new))
        case CNeg(k, child), 0:
            return CNeg(k, cts_replace(child, rest, new))
        case CConj(k, l, r), 0:
            return CConj(k, cts_replace(l, rest, new), r)
        case CConj(k, l, r), 1:
            return CConj(k, l, cts_replace(r, rest, new))
        case CDisj(k, l, r), 0:
            return CDisj(k, cts_replace(l, rest, new), r)
        case CDisj(k, l, r), 1:
            return CDisj(k, l, cts_replace(r, rest, new))
    raise CttError(f"bad path {path} into {render(sub)}")


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


def _has_boolean(sub: CtsSubterm) -> bool:
    if isinstance(sub, (CNeg, CConj, CDisj, CBigConj, CBigDisj)):
        return True
    return any(_has_boolean(c) for c in cts_children(sub))


def _canonical_shape(sub: CtsSubterm) -> bool:
    match sub:
        case CApp():
            return not _has_boolean(sub)
        case CBigConj(_, _, _, m) | CBigDisj(_, _, _, m):
            return m == 0
        case _:
            return all(_canonical_shape(c) for c in cts_children(sub))


def classify(sub: CtsSubterm) -> SyntaxClass:
    """Strongest syntactic class: atomic < canonical < molecular.

    Atomic: no Boolean operator at all. Canonical: Boolean operators never
    occur beneath an application, and big-operator indices are rank 0.
    """
    if not _has_boolean(sub):
        return SyntaxClass.ATOMIC
    if _canonical_shape(sub):
        return SyntaxClass.CANONICAL
    return SyntaxClass.MOLECULAR


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
    table = _free_table(term, _SLM_NODES, slm_children, _slm_free)
    if table is None:
        return _free_vars_walk(term)
    return dict(table)


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
    return _free_table(sub, _CTS_NODES, cts_children, _cts_free)


_SLM_NODES = (Var, App, Lam, Mu, Hole)
_CTS_NODES = (CVar, CApp, CNeg, CConj, CDisj, CBigConj, CBigDisj)


def _free_table(node, kinds, children, local) -> Optional[dict]:
    """The memoized `_free` table of `node`, or None when a name maps to two
    values below it or a node is not of `kinds`, where the callers leave
    the answer to the walk. Fills the missing tables bottom-up with an
    explicit stack, each one by `local` from its children's tables."""
    todo = [node]
    while todo:
        t = todo[-1]
        if type(t) not in kinds:
            return None
        if hasattr(t, "_free"):
            todo.pop()
            continue
        missing = [c for c in children(t)
                   if type(c) not in kinds or not hasattr(c, "_free")]
        if missing:
            todo += missing
            continue
        todo.pop()
        object.__setattr__(t, "_free", local(t))
    return node._free


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
    return {}  # Hole


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
    out: dict[str, TypeExpr] = {}

    def add(name: str, ty: TypeExpr):
        if name in out and out[name] != ty:
            raise TypeMismatch(f"{name} occurs free at both {out[name]} and {ty}")
        out[name] = ty

    def go(t, bound: frozenset[str]):
        match t:
            case Var(name, ty):
                if name not in bound:
                    add(name, ty)
            case Lam(b, _, body) | Mu(b, _, body):
                go(body, bound | {b})
            case App(fun, arg):
                go(fun, bound)
                go(arg, bound)
            case Hole():
                pass
            case _:
                raise CttError(f"unknown node {t!r}")

    go(term, frozenset())
    return out


def _signature_walk(sub: CtsSubterm) -> dict[str, tuple[TypeExpr, int]]:
    out: dict[str, tuple[TypeExpr, int]] = {}

    def go(s: CtsSubterm):
        match s:
            case CVar(name, ty, rank):
                if name in out and out[name] != (ty, rank):
                    raise TypeMismatch(
                        f"{name} used at {out[name]} and ({ty}, {rank})")
                out[name] = (ty, rank)
            case CBigConj() | CBigDisj():
                pass
            case _:
                for c in cts_children(s):
                    go(c)

    go(sub)
    return out


# ---------------------------------------------------------------------------
# tokenizer

# One match per token: whitespace and comments are skipped, then the token
# is read. A comment runs from `#` to the end of the line, except that in
# lambda-mu text a `#` glued to an identifier is the mu sigil (`#x:...`),
# which SYM then reads. BAD is a character no token starts with; the empty
# alternative matches at the end of the text and reads no token.
_SKIP = r"(?:\s|\#[^\n]*)*"
_SKIP_MU = r"(?:\s|\#(?![A-Za-z_])[^\n]*)*"
_TOKEN = r"""(?:
      (?P<ARROW>->)
    | (?P<TURNSTILE>\|-)
    | (?P<IDENT>[A-Za-z_][A-Za-z0-9_']*)
    | (?P<NAT>[0-9]+)
    | (?P<SYM>[()\[\]{}.,:;@~\\\#=])
    | (?P<BAD>.)
    | \Z
)"""
_SCANNERS = tuple(re.compile(skip + _TOKEN, re.VERBOSE | re.DOTALL)
                  for skip in (_SKIP, _SKIP_MU))

RESERVED = {"bot", "and", "or", "neg", "All", "Ex", "table"}

# Deepest nesting of recursive parser productions, and of the tree an
# application chain builds. The passes that later walk the tree (typing,
# rewriting, evaluation, rendering) recurse about as deep, so inputs within
# the budget stay inside the interpreter's default recursion limit; a
# 400-step identity chain still parses.
MAX_NESTING = 450


@dataclass(slots=True)
class Token:
    kind: str
    text: str
    pos: int


def tokenize(text: str, mu_sigil: bool = False) -> list[Token]:
    """The tokens of `text` and a final EOF; `#` starts a comment unless
    mu_sigil and directly glued to an identifier (the mu binder `#x:...`)."""
    toks: list[Token] = []
    for m in _SCANNERS[mu_sigil].finditer(text):
        kind = m.lastgroup
        if kind == "BAD":
            raise ParseError(f"unexpected character {m[kind]!r}", m.start(kind), text)
        if kind:
            toks.append(Token(kind, m[kind], m.start(kind)))
    toks.append(Token("EOF", "", len(text)))
    return toks


class _Cursor:
    def __init__(self, toks: list[Token], text: str):
        self.toks = toks
        self.text = text
        self.i = 0
        self.depth = 0

    def __enter__(self):
        """One level of a recursive production (`with c:`). Input nested
        past MAX_NESTING fails here, before the interpreter stack runs out
        in the parser or in any later recursive pass over the tree."""
        self.depth += 1
        self.within(0)
        return self

    def within(self, below: int):
        """Fail unless `below` levels under this one stay within the budget:
        applying the functor `out` of `(P Q R ...)` to one more argument
        puts its deepest node `out.height` levels under this one."""
        if self.depth + below > MAX_NESTING:
            self.fail(f"input nests deeper than {MAX_NESTING} levels")

    def __exit__(self, *exc):
        self.depth -= 1

    def peek(self) -> Token:
        return self.toks[self.i]

    def next(self) -> Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, text: str) -> Token:
        t = self.peek()
        if t.text != text:
            raise ParseError(f"expected {text!r}, found {t.text or 'end of input'!r}",
                             t.pos, self.text)
        return self.next()

    def at(self, text: str) -> bool:
        return self.peek().text == text

    def fail(self, msg: str):
        t = self.peek()
        raise ParseError(msg, t.pos, self.text)


# ---------------------------------------------------------------------------
# type parser

def _parse_type_atom(c: _Cursor) -> TypeExpr:
    with c:
        t = c.peek()
        if t.text == "bot":
            c.next()
            return BOT
        if t.text == "~":
            c.next()
            return neg_type(_parse_type_atom(c))
        if t.text == "(":
            c.next()
            ty = _parse_type(c)
            c.expect(")")
            return ty
        if t.kind == "IDENT" and t.text not in RESERVED:
            c.next()
            return Base(t.text)
        c.fail("expected a type")


def _parse_type(c: _Cursor) -> TypeExpr:
    with c:
        left = _parse_type_atom(c)
        if c.at("->"):
            c.next()
            return Arrow(left, _parse_type(c))
        return left


def parse_type(text: str) -> TypeExpr:
    c = _Cursor(tokenize(text), text)
    ty = _parse_type(c)
    if c.peek().kind != "EOF":
        c.fail("trailing input after type")
    return ty


# ---------------------------------------------------------------------------
# lambda-mu parser

class _SlmParser:
    def __init__(self, c: _Cursor, ctx: Optional[dict[str, TypeExpr]],
                 default_ty: Optional[TypeExpr]):
        self.c = c
        self.known: dict[str, TypeExpr] = dict(ctx or {})
        self.default_ty = default_ty

    def term(self, bound: dict[str, TypeExpr]) -> SlmTerm:
        c = self.c
        with c:
            t = c.peek()
            if t.text == "\\" or t.text == "#":
                is_mu = t.text == "#"
                c.next()
                name = self.ident()
                c.expect(":")
                bty = _parse_type_atom(c)
                if is_mu and not is_neg_type(bty):
                    c.fail(f"mu binder must have a negation type, got {bty}")
                c.expect(".")
                body = self.term({**bound, name: bty})
                return Mu(name, bty, body) if is_mu else Lam(name, bty, body)
            if t.text == "(":
                c.next()
                out = self.term(bound)
                while not c.at(")"):  # (P) groups, (P Q R) left-folds
                    c.within(out.height)
                    out = App(out, self.term(bound))
                c.expect(")")
                return out
            if t.kind == "IDENT" and t.text not in RESERVED:
                c.next()
                name = t.text
                if c.at(":") and name not in bound:
                    c.next()
                    ty = _parse_type_atom(c)
                    if name in self.known and self.known[name] != ty:
                        c.fail(f"{name} already annotated as {self.known[name]}")
                    self.known[name] = ty
                    return Var(name, ty)
                if name in bound:
                    return Var(name, bound[name])
                if name in self.known:
                    return Var(name, self.known[name])
                if self.default_ty is not None:
                    self.known[name] = self.default_ty
                    return Var(name, self.default_ty)
                c.fail(f"free variable {name} needs a type annotation")
            c.fail("expected a term")

    def ident(self) -> str:
        t = self.c.peek()
        if t.kind != "IDENT" or t.text in RESERVED:
            self.c.fail("expected an identifier")
        self.c.next()
        return t.text


def _parse_slm_once(c: _Cursor, ctx, default_ty) -> SlmTerm:
    p = _SlmParser(c, ctx, default_ty)
    term = p.term({})
    if c.peek().kind != "EOF":
        c.fail("trailing input after term")
    typecheck_slm(term, {**(ctx or {}), **p.known})
    return term


def parse_slm(text: str, ctx: Optional[dict[str, TypeExpr]] = None,
              default_ty: Optional[TypeExpr] = None) -> SlmTerm:
    """Parse a lambda-mu term and typecheck it.

    A leading `TYPE :` gives unannotated free variables a default type,
    e.g. `e: ((\\x:e. x) y)` types the free y as e; its colon is a token,
    not one in a comment. A plain term is tried first, so `x:e` stays an
    annotated variable. Both readings share one token list. When both
    fail, the error of the one that got further into the input is raised.
    """
    toks = tokenize(text, mu_sigil=True)
    try:
        return _parse_slm_once(_Cursor(toks, text), ctx, default_ty)
    except CttError as original:
        if default_ty is not None:
            raise
        c = _Cursor(toks, text)
        try:
            prefix_ty = _parse_type(c)
            c.expect(":")
        except CttError:
            raise original from None
        try:
            return _parse_slm_once(c, ctx, prefix_ty)
        except CttError as retry:
            if _reach(original, text) > _reach(retry, text):
                raise original from None
            raise


def _reach(error: CttError, text: str) -> int:
    """How far into `text` a parse got before `error`: a parse error's
    position, or the whole text for an error raised after parsing."""
    return error.pos if isinstance(error, ParseError) else len(text)


# ---------------------------------------------------------------------------
# ranked-subterm parser

class _CtsParser:
    def __init__(self, text: str, sig: Optional[dict[str, tuple[TypeExpr, int]]]):
        self.c = _Cursor(tokenize(text), text)
        self.known: dict[str, tuple[TypeExpr, int]] = dict(sig or {})
        self.default_var: Optional[tuple[TypeExpr, int]] = None

    def rank(self) -> int:
        t = self.c.peek()
        if t.kind != "NAT":
            self.c.fail("expected a rank (natural number)")
        self.c.next()
        return int(t.text)

    def bracket_rank(self) -> int:
        self.c.expect("[")
        k = self.rank()
        self.c.expect("]")
        return k

    def annotated_var(self) -> tuple[str, TypeExpr, int]:
        t = self.c.peek()
        if t.kind != "IDENT" or t.text in RESERVED:
            self.c.fail("expected a variable")
        self.c.next()
        self.c.expect(":")
        ty = _parse_type_atom(self.c)
        self.c.expect("@")
        m = self.rank()
        return t.text, ty, m

    def subterm(self) -> CtsSubterm:
        c = self.c
        with c:
            t = c.peek()
            if t.text in ("neg", "and", "or", "All", "Ex"):
                op = t.text
                c.next()
                k = self.bracket_rank()
                c.expect("(")
                if op == "neg":
                    child = self.subterm()
                    c.expect(")")
                    return CNeg(k, child)
                if op in ("and", "or"):
                    left = self.subterm()
                    c.expect(",")
                    right = self.subterm()
                    c.expect(")")
                    return (CConj if op == "and" else CDisj)(k, left, right)
                name, ty, m = self.annotated_var()
                c.expect(")")
                return (CBigConj if op == "All" else CBigDisj)(k, name, ty, m)
            if t.text == "(":
                c.next()
                out = self.subterm()
                while not c.at(")"):
                    c.within(out.height)
                    out = CApp(out, self.subterm())
                c.expect(")")
                return out
            if t.kind in ("IDENT", "NAT"):  # 0 and 1 name the truth values
                c.next()
                name = t.text
                if c.at(":"):
                    c.next()
                    ty = _parse_type_atom(c)
                    c.expect("@")
                    m = self.rank()
                    if name in self.known and self.known[name] != (ty, m):
                        c.fail(f"{name} already annotated as "
                               f"{self.known[name][0]}@{self.known[name][1]}")
                    self.known[name] = (ty, m)
                    return CVar(name, ty, m)
                if name in self.known:
                    ty, m = self.known[name]
                    return CVar(name, ty, m)
                if self.default_var is not None:
                    self.known[name] = self.default_var
                    return CVar(name, *self.default_var)
                c.fail(f"variable {name} needs a `:type@rank` annotation")
            c.fail("expected a subterm")


def parse_cts(text: str, sig: Optional[dict[str, tuple[TypeExpr, int]]] = None) -> CtsSubterm:
    """Parse a ranked subterm and check every rank side condition."""
    p = _CtsParser(text, sig)
    sub = p.subterm()
    if p.c.peek().kind != "EOF":
        p.c.fail("trailing input after subterm")
    rank_check(sub)
    return sub


def parse_sequent_members(text: str, sig: Optional[dict[str, tuple[TypeExpr, int]]] = None
                          ) -> tuple[list[CtsSubterm], list[CtsSubterm]]:
    """Parse `A, B |- C, D`. Bare unannotated variables default to bot@0."""
    p = _CtsParser(text, sig)
    p.default_var = (BOT, 0)

    def side(stop_kind: str) -> list[CtsSubterm]:
        members = []
        while not p.c.at(stop_kind) and p.c.peek().kind != "EOF":
            members.append(p.subterm())
            if p.c.at(","):
                p.c.next()
            else:
                break
        return members

    ante = side("|-")
    p.c.expect("|-")
    succ = side("")
    if p.c.peek().kind != "EOF":
        p.c.fail("trailing input after sequent")
    for m in ante + succ:
        check_sequent_member(m)
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
    order (canonical printing for golden files). A node keeps its text for
    the default arguments once asked.
    """
    if isinstance(ast, (Base, Arrow, Bot)):
        return render_type(ast)
    if sort_children or not annotate or not isinstance(ast, _Node):
        return _render(ast, sort_children, annotate)
    try:
        return ast._text
    except AttributeError:  # not asked before
        text = _render(ast, False, True)
        object.__setattr__(ast, "_text", text)
        return text


def _render(ast, sort_children: bool, annotate: bool) -> str:
    """The walk behind `render`, for lambda-mu terms and ranked subterms."""
    seen: set[str] = set()

    def slm(t: SlmTerm, bound: frozenset[str]) -> str:
        match t:
            case Hole():
                return "_"
            case Var(name, ty):
                if name in bound or name in seen or not annotate:
                    return name
                seen.add(name)
                return f"{name}:{ty}"
            case App(fun, arg):
                f = slm(fun, bound)
                if isinstance(fun, (Lam, Mu)):
                    f = f"({f})"
                return f"({f} {slm(arg, bound)})"
            case Lam(b, bty, body):
                return f"\\{b}:{bty}. {slm(body, bound | {b})}"
            case Mu(b, _, body):  # the binder has type ~s for the term's type s
                return f"#{b}:~{t.ty}. {slm(body, bound | {b})}"
        raise CttError(f"cannot render {t!r}")

    keys: dict[CtsSubterm, str] = {}

    def key(s: CtsSubterm) -> str:
        """The `sort_children` order of `s`: its sorted text without
        annotations or index types, worked out once per node per call."""
        if s not in keys:
            keys[s] = cts(s, True)
        return keys[s]

    def cts(s: CtsSubterm, bare: bool = False) -> str:
        part = key if bare else cts
        match s:
            case CVar(name, ty, rank):
                if bare or name in seen or not annotate:
                    return name
                seen.add(name)
                return f"{name}:{ty}@{rank}"
            case CApp(fun, arg):
                return f"({part(fun)} {part(arg)})"
            case CNeg(k, child):
                return f"neg[{k}]({part(child)})"
            case CConj(k, l, r) | CDisj(k, l, r):
                op = "and" if isinstance(s, CConj) else "or"
                # ordering is decided on the keys, then the children are
                # rendered in that order so first-use annotations still
                # come out left to right
                if sort_children and key(r) < key(l):
                    l, r = r, l
                return f"{op}[{k}]({part(l)},{part(r)})"
            case CBigConj(k, x, ty, m) | CBigDisj(k, x, ty, m):
                op = "All" if isinstance(s, CBigConj) else "Ex"
                return f"{op}[{k}]({x}@{m})" if bare else f"{op}[{k}]({x}:{ty}@{m})"
        raise CttError(f"cannot render {s!r}")

    if isinstance(ast, (Var, App, Lam, Mu, Hole)):
        return slm(ast, frozenset())
    if isinstance(ast, (CVar, CApp, CNeg, CConj, CDisj, CBigConj, CBigDisj)):
        return cts(ast)
    raise CttError(f"cannot render {ast!r}")
