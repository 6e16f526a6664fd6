"""The text layer of `ctt.syntax` as it was before parsing read a plain
list of token strings and rendering joined its children's texts: the
`finditer` tokenizer with its `Token` records, the cursor, the type,
lambda-mu, ranked and sequent parsers, and the rendering walk. Kept
verbatim as the reference the tests compare the current parsers and
`render` with, but for two deliberate differences. `parse_sequent_members`
here accepts a comma after the last member of a side, which the current
parser refuses and the tests allow for. And a ranked variable here, as in
the current parser, is named only by an identifier other than a reserved
word, or by `0` or `1`, as a term may name a constant; the verbatim
condition took any identifier or number, `bot` and `12` included.

It also keeps `typecheck_slm`, the recursive checker that typed a parsed
lambda-mu term before each node typed itself as it was built, as the
reference the tests compare `.ty` with.
"""

import re
from dataclasses import dataclass
from typing import Optional

from ctt.syntax import (
    App, Arrow, BOT, Base, CApp, CBigConj, CBigDisj, CConj, CDisj, CNeg, CVar,
    CttError, CtsSubterm, Lam, MAX_NESTING, Mu, ParseError, SlmTerm, TypeExpr,
    TypeMismatch, Var, _CTS_NODES, _SLM_NODES, check_sequent_member, children,
    is_neg_type, neg_type, rank_check,
)


# ---------------------------------------------------------------------------
# type checker

class UnboundVariable(CttError):
    pass


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
    raise TypeMismatch(f"unknown node {term!r}", _path)


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


def _height(t) -> int:
    """The term levels of `t`, types not counted, as nodes kept them in a
    `height` slot when these parsers were current."""
    return 1 + max(map(_height, children(t)), default=0)


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
        puts its deepest node `_height(out)` levels under this one."""
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
    def __init__(self, c: _Cursor, default_ty: Optional[TypeExpr]):
        self.c = c
        self.known: dict[str, TypeExpr] = {}
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
                    c.within(_height(out))
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


def _parse_slm_once(c: _Cursor, default_ty: Optional[TypeExpr]) -> SlmTerm:
    p = _SlmParser(c, default_ty)
    term = p.term({})
    if c.peek().kind != "EOF":
        c.fail("trailing input after term")
    typecheck_slm(term, p.known)
    return term


def parse_slm(text: str) -> SlmTerm:
    """Parse a lambda-mu term and typecheck it.

    A leading `TYPE :` gives unannotated free variables a default type,
    e.g. `e: ((\\x:e. x) y)` types the free y as e; its colon is a token,
    not one in a comment. A plain term is tried first, so `x:e` stays an
    annotated variable. Both readings share one token list. When both
    fail, the error of the one that got further into the input is raised.
    """
    toks = tokenize(text, mu_sigil=True)
    try:
        return _parse_slm_once(_Cursor(toks, text), None)
    except CttError as original:
        c = _Cursor(toks, text)
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
                    c.within(_height(out))
                    out = CApp(out, self.subterm())
                c.expect(")")
                return out
            if (t.kind == "IDENT" and t.text not in RESERVED
                    or t.text in ("0", "1")):  # 0 and 1 name the truth values
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


def _render(ast, sort_children: bool, annotate: bool) -> str:
    """The walk behind `render`, for lambda-mu terms and ranked subterms."""
    seen: set[str] = set()

    def slm(t: SlmTerm, bound: frozenset[str]) -> str:
        match t:
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
            case Mu(b, bty, body):  # the binder has type ~s for the term's type s
                if not is_neg_type(bty):
                    raise TypeMismatch("mu binder must have a negation type")
                return f"#{b}:~{bty.dom}. {slm(body, bound | {b})}"
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

    if isinstance(ast, _SLM_NODES):
        return slm(ast, frozenset())
    if isinstance(ast, _CTS_NODES):
        return cts(ast)
    raise CttError(f"cannot render {ast!r}")
