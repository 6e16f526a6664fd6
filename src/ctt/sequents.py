"""Ranked sequent calculus: rule-instance checking, derivations, bounded
backward search, and the unranked erasure/elaboration.

Sequents hold sets of type-bot subterms. Each Boolean operator has two
introduction rules (antecedent/succedent) and four bidirectional
substitution rules that move the operator across an application, mirroring
how rank drives distribution in the domains:

  <op>-Lr / <op>-Rr   operator inside the argument,   needs functor rank + 1 <= k
  <op>-Ll / <op>-Rl   operator inside the functor,    needs argument rank    <= k

Introduction rules additionally require every side member and immediate
subformula to have rank 0 or exactly k: an intermediate-rank member reads
differently at its own rank than as a generator at rank k, and the rule
would not preserve validity (the operator introduced must be the highest
rank in the sequent, with no rank strictly between).

Big operators: introduction uses an eigenvariable premise; substitution
distributes over the enumerated rank-0 carrier, producing a left-nested
binary chain over named elements, and therefore needs a model whose
carrier is name-addressable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Union

from .domains import ModelConfig, enumerate_domain, render_elem, Individual, TruthVal
from .syntax import (
    BOT, CApp, CBigConj, CBigDisj, CConj, CDisj, CNeg, CVar, CtsSubterm,
    CttError, Interned, RankViolation, TypeExpr, check_sequent_member, cts_at,
    cts_children, cts_replace, cts_signature, rank_check, render,
)


class Sequent(Interned):
    """Two sets of ranked subterms, hash-consed like the subterms."""

    __match_args__ = ("ante", "succ")  # frozensets
    __slots__ = (*__match_args__, "_sides")

    @staticmethod
    def make(ante, succ) -> "Sequent":
        ante, succ = frozenset(ante), frozenset(succ)
        for m in ante | succ:
            check_sequent_member(m)
        return Sequent(ante, succ)

    def side(self, which: str) -> list[CtsSubterm]:
        """The members of side L or R in rendering order, which positions
        index into; sorted once per sequent, copied per call."""
        try:
            sides = self._sides
        except AttributeError:  # not asked before
            sides = (tuple(sorted(self.ante, key=render)),
                     tuple(sorted(self.succ, key=render)))
            object.__setattr__(self, "_sides", sides)
        return list(sides[which != "L"])

    def replace(self, which: str, old: CtsSubterm, new_members) -> "Sequent":
        side = set(self.ante if which == "L" else self.succ)
        side.discard(old)
        side.update(new_members)
        if which == "L":
            return Sequent(frozenset(side), self.succ)
        return Sequent(self.ante, frozenset(side))


def render_sequent(seq: Sequent) -> str:
    left = ", ".join(render(m) for m in seq.side("L"))
    right = ", ".join(render(m) for m in seq.side("R"))
    return f"{left} |- {right}".strip()


@dataclass(frozen=True)
class Pos:
    """A redex position: sequent side, index into the sorted member list,
    and a path inside that member."""

    side: str  # L | R
    member: int
    path: tuple[int, ...] = ()

    def __str__(self):
        path = ".".join(map(str, self.path))
        return f"{self.side}{self.member}" + (f":{path}" if path else "")

    @staticmethod
    def parse(text: str) -> "Pos":
        head, _, path = text.partition(":")
        steps = [p for p in path.split(".") if p != ""]
        if head[:1] not in ("L", "R") or not head[1:].isdigit() \
                or not all(p.isdigit() for p in steps):
            raise CttError(f"bad position {text!r}")
        return Pos(head[0], int(head[1:]), tuple(map(int, steps)))


OPS = ("neg", "and", "or", "all", "ex")
INTRO_RULES = tuple(f"{op}-{s}" for op in OPS for s in "LR")
SUBST_RULES = tuple(f"{op}-{s}{f}" for op in OPS for s in "LR" for f in "rl")
ALL_RULES = ("ax",) + INTRO_RULES + SUBST_RULES


def _schema_docs() -> dict[str, str]:
    """Every generated rule schema with its side conditions.

    G/D are the side sets, C[.] a bot-typed context, R/A the application
    sides with h the untouched side's rank; the introduction condition
    'ranks in {0,k}' covers all side members and immediate subformulas."""
    docs = {"ax": "G, A |- A, D  (shared member)"}
    intro = {
        "neg-L": "from G |- A, D infer G, neg[k](A) |- D",
        "neg-R": "from G, A |- D infer G |- neg[k](A), D",
        "and-L": "from G, A, B |- D infer G, and[k](A,B) |- D",
        "and-R": "from G |- A, D and G |- B, D infer G |- and[k](A,B), D",
        "or-L": "from G, A |- D and G, B |- D infer G, or[k](A,B) |- D",
        "or-R": "from G |- A, B, D infer G |- or[k](A,B), D",
        "all-L": "from G, y |- D (y a fresh bot@m variable) infer G, All[k](x:bot@m) |- D",
        "all-R": "from G |- y, D (y fresh) infer G |- All[k](x:bot@m), D",
        "ex-L": "from G, y |- D (y fresh) infer G, Ex[k](x:bot@m) |- D",
        "ex-R": "from G |- y, D (y fresh) infer G |- Ex[k](x:bot@m), D",
    }
    for rid, text in intro.items():
        docs[rid] = text + "; m,n <= k != 0 and all ranks in {0,k}"
    shapes = {
        "neg": ("(R neg[k](A)) <=> neg[k]((R A))",
                "(neg[k](P) A) <=> neg[k]((P A))"),
        "and": ("(R and[k](A,B)) <=> and[k]((R A),(R B))",
                "(and[k](P,Q) A) <=> and[k]((P A),(Q A))"),
        "or": ("(R or[k](A,B)) <=> or[k]((R A),(R B))",
               "(or[k](P,Q) A) <=> or[k]((P A),(Q A))"),
        "all": ("(R All[k](x:T@0)) <=> and[k]-chain of (R c) over T's carrier",
                "(All[k](x:F@0) A) <=> and[k]-chain of (c A) over F's named carrier"),
        "ex": ("(R Ex[k](x:T@0)) <=> or[k]-chain of (R c) over T's carrier",
               "(Ex[k](x:F@0) A) <=> or[k]-chain of (c A) over F's named carrier"),
    }
    for op, (arg_side, fun_side) in shapes.items():
        for side in "LR":
            where = "antecedent" if side == "L" else "succedent"
            docs[f"{op}-{side}r"] = (
                f"in a {where} member, C[{arg_side}]; h+1, m, n <= k")
            docs[f"{op}-{side}l"] = (
                f"in a {where} member, C[{fun_side}]; h, m, n <= k != 0")
    return docs


RULE_DOCS = _schema_docs()


@dataclass
class Violation:
    rule: str
    reason: str

    def __str__(self):
        return f"{self.rule}: {self.reason}"


# ---------------------------------------------------------------------------
# substitution-rule transforms

_OP_NODE = {"neg": CNeg, "and": CConj, "or": CDisj, "all": CBigConj, "ex": CBigDisj}


def _named_carrier(model: Optional[ModelConfig], ty: TypeExpr,
                   ) -> Union[list[CtsSubterm], str]:
    """Rank-0 carrier of `ty` as named variables, or an error string.

    Base types and bot have automatic names; an arrow carrier needs model
    constants covering every table.
    """
    if model is None:
        return "big-operator substitution needs a model"
    try:
        atoms = enumerate_domain(model, ty, 0)
    except CttError as ex:
        return str(ex)
    names = []
    reverse = {render_elem(v): n for n, v in model.constants.items()}
    for a in atoms:
        if isinstance(a, Individual):
            names.append(CVar(a.name, ty, 0))
        elif isinstance(a, TruthVal):
            names.append(CVar(str(a.value), BOT, 0))
        elif render_elem(a) in reverse:
            names.append(CVar(reverse[render_elem(a)], ty, 0))
        else:
            return (f"carrier element {render_elem(a)} of {ty} has no name; "
                    "declare constants covering the carrier")
    return names


def _chain(op, k: int, parts: list[CtsSubterm]) -> CtsSubterm:
    out = parts[0]
    for p in parts[1:]:
        out = op(k, out, p)
    return out


def squeeze_out(sub: CtsSubterm, rule_op: str, functor_side: bool,
                model: Optional[ModelConfig] = None,
                ) -> Union[CtsSubterm, str]:
    """Move the operator out of an application (toward canonical form).
    Returns the rewritten subterm or a side-condition failure message."""
    if not isinstance(sub, CApp):
        return "redex is not an application"
    node = sub.fun if functor_side else sub.arg
    other = sub.arg if functor_side else sub.fun
    want = _OP_NODE[rule_op]
    if not isinstance(node, want):
        return f"expected a {rule_op} node on the {'functor' if functor_side else 'argument'} side"
    k = node.k
    h = other.rank
    if functor_side:
        if h > k:
            return f"requires argument rank h <= k, got h={h}, k={k}"
    else:
        if h + 1 > k:
            return f"requires functor rank h+1 <= k, got h={h}, k={k}"
    app = (lambda x: CApp(x, other)) if functor_side else (lambda x: CApp(other, x))
    match node:
        case CNeg(_, child):
            return CNeg(k, app(child))
        case CConj(_, l, r):
            return CConj(k, app(l), app(r))
        case CDisj(_, l, r):
            return CDisj(k, app(l), app(r))
        case CBigConj(_, _, ty, m) | CBigDisj(_, _, ty, m):
            if m != 0:
                return f"big-operator index rank must be 0, got {m}"
            names = _named_carrier(model, ty)
            if isinstance(names, str):
                return names
            parts = [app(n) for n in names]
            joiner = CConj if isinstance(node, CBigConj) else CDisj
            return _chain(joiner, k, parts)
    return "unrecognized operator node"


# ---------------------------------------------------------------------------
# rule-instance checking

def _intro_rank_condition(k: int, side_members, subformula_ranks) -> Optional[str]:
    ranks = [m.rank for m in side_members] + list(subformula_ranks)
    bad = sorted({r for r in ranks if r not in (0, k)})
    if bad:
        return (f"introduced rank {k} must be the highest in the sequent with "
                f"no member strictly between; offending ranks {bad}")
    return None


def rule_premises(seq: Sequent, rule: str, pos: Optional[Pos],
                  model: Optional[ModelConfig] = None,
                  eigen: Optional[CtsSubterm] = None,
                  ) -> Union[list[Sequent], Violation]:
    """The premises of `rule` applied at `pos` in `seq`, read downward, or
    the side condition the application breaks.

    A substitution rule squeezes the operator at `pos` out of its
    application; an introduction rule decomposes the member at `pos`. A
    big-operator introduction takes `eigen` as its eigenvariable, else the
    index name primed until fresh."""
    if rule == "ax":
        if not (seq.ante & seq.succ):
            return Violation(rule, "no member shared between the two sides")
        return []

    if rule in SUBST_RULES:
        op, flavor = rule.rsplit("-", 1)  # flavor: L/R, then r (argument) / l (functor)
        if pos is None or pos.side != flavor[0]:
            return Violation(rule, f"position must be on side {flavor[0]}")
        member = seq.side(pos.side)[pos.member]
        out = squeeze_out(cts_at(member, pos.path), op, flavor[1] == "l", model)
        if isinstance(out, str):
            return Violation(rule, out)
        return [seq.replace(pos.side, member, [cts_replace(member, pos.path, out)])]

    if rule not in INTRO_RULES:
        return Violation(rule, f"unknown rule {rule!r}")
    op, side = rule.rsplit("-", 1)
    if pos is None or pos.side != side or pos.path:
        return Violation(rule, f"position must name a member on side {side}")
    formula = seq.side(side)[pos.member]
    if not isinstance(formula, _OP_NODE[op]):
        return Violation(rule, f"member {render(formula)} is not a {op} node")
    rest = seq.replace(side, formula, [])
    side_members = rest.ante | rest.succ
    ranks = [c.rank for c in cts_children(formula)]
    if op in ("all", "ex"):
        if formula.ty != BOT:
            return Violation(rule, "big-operator introduction needs a bot-typed index")
        ranks = [formula.atom_rank]
    bad = _intro_rank_condition(formula.k, side_members, ranks)
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
    used = {name for mem in side_members for name in cts_signature(mem)}
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


def check_rule_instance(conclusion: Sequent, premises: list[Sequent], rule: str,
                        pos: Optional[Pos], direction: Optional[str] = None,
                        model: Optional[ModelConfig] = None,
                        ) -> Optional[Violation]:
    """Validate one rule application; None means the instance is accepted."""
    try:
        return _check_rule(conclusion, premises, rule, pos, direction, model)
    except (CttError, IndexError) as ex:
        return Violation(rule, str(ex))


def _check_rule(conclusion, premises, rule, pos, direction, model):
    """Compare the given premises with `rule_premises`. A substitution read
    upward swaps the two sequents, since `pos` addresses the one holding
    the redex; a big-operator introduction offers the one member its
    premise adds as the eigenvariable."""
    for seq in [conclusion] + premises:
        for m in seq.ante | seq.succ:
            check_sequent_member(m)

    eigen = None
    if rule in SUBST_RULES:
        if direction not in ("down", "up"):
            return Violation(rule, "substitution rules need direction down or up")
        if len(premises) != 1:
            return Violation(rule, "substitution rules take one premise")
        if direction == "up":
            conclusion, premises = premises[0], [conclusion]
    elif rule in ("all-L", "all-R", "ex-L", "ex-R") and len(premises) == 1:
        (p,) = premises
        added = p.ante - conclusion.ante if rule[-1] == "L" else p.succ - conclusion.succ
        if len(added) == 1:
            (eigen,) = added

    expected = rule_premises(conclusion, rule, pos, model, eigen)
    if isinstance(expected, Violation):
        return expected
    if len(premises) != len(expected):
        return Violation(rule, f"expected {len(expected)} premise(s)")
    remaining = list(premises)
    for e in expected:
        if e not in remaining:
            return Violation(rule, "premises do not match the rule schema")
        remaining.remove(e)
    return None


# ---------------------------------------------------------------------------
# derivations

@dataclass
class Derivation:
    rule: str
    conclusion: Sequent
    premises: tuple["Derivation", ...] = ()
    pos: Optional[Pos] = None
    direction: Optional[str] = None

    def nodes(self) -> Iterator["Derivation"]:
        """Every node, premises before their conclusion, left to right."""
        stack, out = [self], []
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(node.premises)
        return reversed(out)


@dataclass
class DerivationFailure:
    path: tuple[int, ...]
    violation: Violation

    def __str__(self):
        where = ".".join(map(str, self.path)) or "root"
        return f"at {where}: {self.violation}"


def check_derivation(d: Derivation, model: Optional[ModelConfig] = None,
                     ) -> Optional[DerivationFailure]:
    """Validate every node, conclusions before premises; returns the first
    failing node, if any. Iterative, so a derivation of any depth checks."""
    stack = [(d, ())]
    while stack:
        node, path = stack.pop()
        v = check_rule_instance(node.conclusion, [p.conclusion for p in node.premises],
                                node.rule, node.pos, node.direction, model)
        if v is not None:
            return DerivationFailure(path, v)
        stack.extend((p, path + (i,)) for i, p in reversed(list(enumerate(node.premises))))
    return None


# ---------------------------------------------------------------------------
# bounded backward search

def _innermost_redex(sub: CtsSubterm, path=()) -> Optional[tuple[tuple[int, ...], str, bool]]:
    """Deepest application with a Boolean-topped side: (path, op, functor?).
    Rank picks the side, functor winning ties, exactly matching how
    apply_elem distributes."""
    for i, c in enumerate(cts_children(sub)):
        hit = _innermost_redex(c, path + (i,))
        if hit is not None:
            return hit
    if isinstance(sub, CApp):
        fun_op = _node_op(sub.fun)
        arg_op = _node_op(sub.arg)
        if fun_op and sub.fun.rank >= sub.arg.rank:
            return path, fun_op, True
        if arg_op:
            return path, arg_op, False
        if fun_op:
            return path, fun_op, True
    return None


def _node_op(sub: CtsSubterm) -> Optional[str]:
    for name, cls in _OP_NODE.items():
        if isinstance(sub, cls):
            return name
    return None


def prove(goal: Sequent, depth: int = 30,
          model: Optional[ModelConfig] = None) -> Optional[Derivation]:
    """Backward search: substitution rules push every member to canonical
    form (mirroring canonicalization, so this phase terminates), then the
    introduction rules decompose, then the axiom closes. Returned
    derivations always re-check."""
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
            subproof = prove(premises[0], depth - 1, model)
            if subproof is None:
                return None
            return Derivation(rule, goal, (subproof,), pos, "down")

    # phase 2: introduction rules (rank side conditions permitting)
    for side in ("R", "L"):
        for idx, member in enumerate(goal.side(side)):
            op = _node_op(member)
            if op is None:
                continue
            rule, pos = f"{op}-{side}", Pos(side, idx)
            premises = rule_premises(goal, rule, pos, model)
            if isinstance(premises, Violation):
                continue  # side condition failed; try another member
            subproofs = []
            for p in premises:
                sp = prove(p, depth - 1, model)
                if sp is None:
                    break
                subproofs.append(sp)
            else:
                return Derivation(rule, goal, tuple(subproofs), pos)
    return None


# ---------------------------------------------------------------------------
# unranked terms: erasure and elaboration

class UVar(Interned):
    __slots__ = __match_args__ = ("name", "ty")


class UApp(Interned):
    __slots__ = __match_args__ = ("fun", "arg")


class UNeg(Interned):
    __slots__ = __match_args__ = ("child",)


class UConj(Interned):
    __slots__ = __match_args__ = ("left", "right")


class UDisj(Interned):
    __slots__ = __match_args__ = ("left", "right")


class UBigConj(Interned):
    __slots__ = __match_args__ = ("index_var", "index_ty")


class UBigDisj(Interned):
    __slots__ = __match_args__ = ("index_var", "index_ty")


Unranked = Union[UVar, UApp, UNeg, UConj, UDisj, UBigConj, UBigDisj]


def erase_ranks(sub) -> Unranked:
    """Forget every rank annotation; idempotent on unranked input."""
    match sub:
        case UVar() | UApp() | UNeg() | UConj() | UDisj() | UBigConj() | UBigDisj():
            return sub
        case CVar(name, ty, _):
            return UVar(name, ty)
        case CApp(fun, arg):
            return UApp(erase_ranks(fun), erase_ranks(arg))
        case CNeg(_, child):
            return UNeg(erase_ranks(child))
        case CConj(_, l, r):
            return UConj(erase_ranks(l), erase_ranks(r))
        case CDisj(_, l, r):
            return UDisj(erase_ranks(l), erase_ranks(r))
        case CBigConj(_, x, ty, _):
            return UBigConj(x, ty)
        case CBigDisj(_, x, ty, _):
            return UBigDisj(x, ty)
    raise CttError(f"cannot erase {sub!r}")


def elaborate_ranks(u, strategy: str = "outermost-increasing",
                    k: Optional[int] = None) -> CtsSubterm:
    """Assign ranks so every side condition holds.

    outermost-increasing gives each Boolean node 1 + the highest child
    rank (the minimal sufficient ranks); uniform(k) stamps every node with
    the same k >= 1 (same-rank nesting is legal); annotations validates an
    already-ranked subterm and echoes it.
    """
    if strategy == "annotations":
        rank_check(u)
        return u
    if strategy == "uniform":
        if k is None or k < 1:
            raise RankViolation("uniform elaboration needs a rank k >= 1")

    def go(t) -> CtsSubterm:
        match t:
            case UVar(name, ty):
                return CVar(name, ty, 0)
            case UApp(fun, arg):
                return CApp(go(fun), go(arg))
            case UNeg(child):
                c = go(child)
                return CNeg(k if strategy == "uniform" else c.rank + 1, c)
            case UConj(l, r) | UDisj(l, r):
                a, b = go(l), go(r)
                kk = k if strategy == "uniform" else max(a.rank, b.rank) + 1
                return (CConj if isinstance(t, UConj) else CDisj)(kk, a, b)
            case UBigConj(x, ty) | UBigDisj(x, ty):
                kk = k if strategy == "uniform" else 1
                return (CBigConj if isinstance(t, UBigConj) else CBigDisj)(kk, x, ty, 0)
        raise CttError(f"cannot elaborate {t!r}")

    if strategy not in ("uniform", "outermost-increasing"):
        raise CttError(f"unknown elaboration strategy {strategy!r}")
    out = go(u)
    rank_check(out)
    return out


# ---------------------------------------------------------------------------
# derivation files

def render_derivation_file(d: Derivation) -> str:
    """One line per node:
    node <id> rule=<rule> dir=<down|up|-> pos=<pos|-> concl=<sequent> premises=<ids|->

    The sequent text may contain spaces but never '=', so the trailing
    premises field parses unambiguously.
    """
    lines = []
    counter = 0

    def go(node: Derivation) -> int:
        nonlocal counter
        ids = [go(p) for p in node.premises]
        counter += 1
        nid = counter
        lines.append(
            f"node {nid} rule={node.rule} dir={node.direction or '-'} "
            f"pos={node.pos or '-'} concl={render_sequent(node.conclusion)} "
            f"premises={','.join(map(str, ids)) or '-'}")
        return nid

    root = go(d)
    lines.append(f"root {root}")
    return "\n".join(lines) + "\n"


def parse_derivation_file(text: str) -> Derivation:
    """Read what `render_derivation_file` writes; a malformed line raises
    CttError naming the line."""
    nodes: dict[int, Derivation] = {}
    root_id = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if line.startswith("root "):
                root_id = int(line.split()[1])
            elif line.startswith("node "):
                nid, node = _parse_node(line[len("node "):], nodes)
                if nid in nodes:
                    raise ValueError(f"duplicate node id {nid}")
                nodes[nid] = node
            else:
                raise ValueError("expected a node or root line")
        except (ValueError, IndexError, CttError) as ex:
            raise CttError(f"bad derivation line {raw!r}: {ex}") from None
    if root_id is None:
        referenced = {id(p) for n in nodes.values() for p in n.premises}
        roots = [n for n in nodes.values() if id(n) not in referenced]
        if len(roots) != 1:
            raise CttError("derivation file needs a unique root")
        return roots[0]
    if root_id not in nodes:
        raise CttError(f"root {root_id} names no node")
    return nodes[root_id]


def _parse_node(text: str, nodes: dict[int, Derivation]) -> tuple[int, Derivation]:
    from .syntax import parse_sequent_members

    nid_text, rest = text.split(" ", 1)
    fields = {}
    for key in ("rule", "dir", "pos"):
        if not rest.startswith(f"{key}="):
            raise ValueError(f"expected {key}=")
        fields[key], rest = rest[len(key) + 1:].split(" ", 1)
    if not rest.startswith("concl=") or " premises=" not in rest:
        raise ValueError("expected concl= and premises=")
    concl_text, premises_text = rest[len("concl="):].rsplit(" premises=", 1)
    ante, succ = parse_sequent_members(concl_text)
    premise_ids = [] if premises_text == "-" else [
        int(p) for p in premises_text.split(",")]
    for p in premise_ids:
        if p not in nodes:
            raise ValueError(f"unknown premise {p}")
    return int(nid_text), Derivation(
        rule=fields["rule"],
        conclusion=Sequent.make(ante, succ),
        premises=tuple(nodes[p] for p in premise_ids),
        pos=None if fields["pos"] == "-" else Pos.parse(fields["pos"]),
        direction=None if fields["dir"] == "-" else fields["dir"],
    )
