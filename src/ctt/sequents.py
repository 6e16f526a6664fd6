"""Ranked sequent calculus: rule-instance checking, derivations, bounded
backward search, and derivation files.

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
carrier is name-addressable, and no other use in the sequent of those
names at another signature.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterator, NamedTuple, Optional, Union

from .domains import ModelConfig, enumerate_domain, render_elem, resolve_constant
from .syntax import (
    BOT, CApp, CConj, CDisj, CNeg, CVar, CtsSubterm, CttError,
    Interned, OP_NODES, TypeExpr, TypeMismatch, _PARSED, _innermost_redex, _kept,
    check_sequent_member, children, cts_signature, parse_sequent_members,
    render, replace_at, subterm_at,
)


class Sequent(Interned):
    """Two sets of ranked subterms, hash-consed like the subterms."""

    __match_args__ = ("ante", "succ")  # frozensets
    __slots__ = (*__match_args__, "_sides", "_checked", "_proved")

    @staticmethod
    def make(ante, succ) -> "Sequent":
        seq = Sequent(frozenset(ante), frozenset(succ))
        seq.check()
        return seq

    def check(self) -> None:
        """Raise what `check_sequent_member` raises for the first member
        that fails it. A sequent that passed records it, so it is checked
        once."""
        if not hasattr(self, "_checked"):
            for m in self.ante | self.succ:
                check_sequent_member(m)
            object.__setattr__(self, "_checked", True)

    def side(self, which: str) -> list[CtsSubterm]:
        """The members of side L or R in rendering order, which positions
        index into; sorted once per sequent, copied per call."""
        return list(self._layout()[which != "L"][0])

    def _layout(self) -> tuple[tuple[tuple, tuple], tuple[tuple, tuple]]:
        """Each side's members in rendering order, with their texts."""
        try:
            return self._sides
        except AttributeError:  # not asked before, nor built by `replace`
            layout = []
            for members in (self.ante, self.succ):
                keyed = sorted(((render(m), m) for m in members), key=itemgetter(0))
                layout.append((tuple(m for _, m in keyed), tuple(t for t, _ in keyed)))
            layout = tuple(layout)
            object.__setattr__(self, "_sides", layout)
            return layout

    def replace(self, which: str, old: Optional[CtsSubterm], new_members) -> "Sequent":
        """This sequent with `old` taken out of side `which` and
        `new_members` put in."""
        side = set(self.ante if which == "L" else self.succ)
        side.discard(old)
        side.update(new_members)
        return Sequent(frozenset(side), self.succ) if which == "L" else \
            Sequent(self.ante, frozenset(side))


def render_sequent(seq: Sequent) -> str:
    (_, left), (_, right) = seq._layout()
    return f"{', '.join(left)} |- {', '.join(right)}".strip()


class Pos(NamedTuple):
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
        """Read what `str` writes: L or R, the member index and, when the
        path is not empty, `:` and its steps joined by dots, each number in
        ASCII digits."""
        head, colon, path = text.partition(":")
        numbers = [head[1:], *(path.split(".") if colon else ())]
        if head[:1] not in ("L", "R") or \
                not all(n.isascii() and n.isdigit() for n in numbers):
            raise CttError(f"bad position {text!r}")
        return Pos(head[0], int(numbers[0]), tuple(map(int, numbers[1:])))


OPS = tuple(OP_NODES)  # neg, and, or, all, ex
INTRO_RULES = tuple(f"{op}-{s}" for op in OPS for s in "LR")
SUBST_RULES = tuple(f"{op}-{s}{f}" for op in OPS for s in "LR" for f in "rl")
ALL_RULES = ("ax",) + INTRO_RULES + SUBST_RULES
_INTRO, _SUBST = frozenset(INTRO_RULES), frozenset(SUBST_RULES)  # for `in`


class Violation(NamedTuple):
    rule: str
    reason: str

    def __str__(self):
        return f"{self.rule}: {self.reason}"


# ---------------------------------------------------------------------------
# substitution-rule transforms

def _named_carrier(model: Optional[ModelConfig], ty: TypeExpr,
                   ) -> Union[list[CtsSubterm], str]:
    """Rank-0 carrier of `ty` as named variables, or an error string.

    Each atom is named by what the model's name table resolves to it at
    `ty` (`resolve_constant`): its own name (an individual's, or 0 or 1)
    unless a constant shadows that name, else the first constant declared
    with it as its value. An atom no name reaches, such as a table no
    constant holds or a shadowed individual, leaves the carrier unnamed.
    """
    if model is None:
        return "big-operator substitution needs a model"
    try:
        atoms = enumerate_domain(model, ty, 0)
    except CttError as ex:
        return str(ex)
    named = {}
    consts = [name for name, _ in model.consts]
    for name in (*(n for n in model.names if n not in consts), *consts):
        named.setdefault(resolve_constant(model, name, ty), name)
    names = []
    for a in atoms:
        if a not in named:
            return (f"carrier element {render_elem(a)} of {ty} has no name; "
                    "declare constants covering the carrier")
        names.append(CVar(named[a], ty, 0))
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
    if node.op != rule_op:
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
        case CConj(_, l, r) | CDisj(_, l, r):
            return type(node)(k, app(l), app(r))
    if node.atom_rank != 0:
        return f"big-operator index rank must be 0, got {node.atom_rank}"
    names = _named_carrier(model, node.index_ty)
    if isinstance(names, str):
        return names
    return _chain(CConj if rule_op == "all" else CDisj, k, [app(n) for n in names])


def _signature_clash(seq: Sequent) -> Optional[str]:
    """Why the members of `seq` cannot share one signature table, which
    its rendering in a derivation file needs, or None."""
    sig: dict[str, tuple[TypeExpr, int]] = {}
    for m in seq.side("L") + seq.side("R"):
        try:
            table = cts_signature(m)
        except TypeMismatch as ex:
            return str(ex)
        for name, (ty, rank) in table.items():
            have = sig.setdefault(name, (ty, rank))
            if have != (ty, rank):
                return (f"the premise would use {name} at {have[0]}@{have[1]} "
                        f"and at {ty}@{rank}")
    return None


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
    application; a big operator's squeeze is refused when the carrier's
    names would stand at two signatures in the premise, which no
    derivation file could write. An introduction rule decomposes the
    member at `pos`. A
    big-operator introduction takes `eigen` as its eigenvariable, else the
    index name primed until fresh."""
    if rule == "ax":
        if not (seq.ante & seq.succ):
            return Violation(rule, "no member shared between the two sides")
        return []

    if rule in _SUBST:
        op, flavor = rule.rsplit("-", 1)  # flavor: L/R, then r (argument) / l (functor)
        if pos is None or pos.side != flavor[0]:
            return Violation(rule, f"position must be on side {flavor[0]}")
        members = seq.side(pos.side)
        if not 0 <= pos.member < len(members):
            return Violation(rule, f"position {pos} names no member of side {pos.side}")
        member = members[pos.member]
        out = squeeze_out(subterm_at(member, pos.path), op, flavor[1] == "l", model)
        if isinstance(out, str):
            return Violation(rule, out)
        premise = seq.replace(pos.side, member, [replace_at(member, pos.path, out)])
        if op in ("all", "ex"):  # the carrier's names join the sequent's
            clash = _signature_clash(premise)
            if clash:
                return Violation(rule, clash)
        return [premise]

    if rule not in _INTRO:
        return Violation(rule, f"unknown rule {rule!r}")
    op, side = rule.rsplit("-", 1)
    if pos is None or pos.side != side or pos.path:
        return Violation(rule, f"position must name a member on side {side}")
    members = seq.side(side)
    if not 0 <= pos.member < len(members):
        return Violation(rule, f"position {pos} names no member of side {side}")
    formula = members[pos.member]
    if formula.op != op:
        return Violation(rule, f"member {render(formula)} is not a {op} node")
    # every member but `formula` on its side (a copy on the other side stays)
    side_members = (seq.ante - {formula}) | seq.succ if side == "L" else \
        seq.ante | (seq.succ - {formula})
    ranks = [c.rank for c in children(formula)]
    if op in ("all", "ex"):
        if formula.ty != BOT:
            return Violation(rule, "big-operator introduction needs a bot-typed index")
        ranks = [formula.atom_rank]
    bad = _intro_rank_condition(formula.k, side_members, ranks)
    if bad:
        return Violation(rule, bad)

    # each premise is one `replace` of `seq`, so every sequent built is one
    # a derivation holds; neg, whose child changes sides, takes two
    match formula:
        case CNeg(_, a):
            rest = seq.replace(side, formula, [])
            return [rest.replace("R" if side == "L" else "L", None, [a])]
        case CConj(_, a, b) | CDisj(_, a, b):
            if (op == "and") == (side == "R"):
                return [seq.replace(side, formula, [a]), seq.replace(side, formula, [b])]
            return [seq.replace(side, formula, [a, b])]
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
    return [seq.replace(side, formula, [eigen])]


def check_rule_instance(conclusion: Sequent, premises: list[Sequent], rule: str,
                        pos: Optional[Pos], direction: Optional[str] = None,
                        model: Optional[ModelConfig] = None,
                        ) -> Optional[Violation]:
    """Validate one rule application; None means the instance is accepted."""
    try:
        return _check_rule(conclusion, premises, rule, pos, direction, model)
    except CttError as ex:
        return Violation(rule, str(ex))


def _check_rule(conclusion, premises, rule, pos, direction, model):
    """Compare the given premises with `rule_premises`. A substitution read
    upward swaps the two sequents, since `pos` addresses the one holding
    the redex; a big-operator introduction offers the one member its
    premise adds as the eigenvariable."""
    for seq in [conclusion] + premises:
        seq.check()

    eigen = None
    if rule in _SUBST:
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

class Derivation(NamedTuple):
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


class DerivationFailure(NamedTuple):
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

# the introduction rules with two premises
_BRANCHING = ("and-R", "or-L")


def prove(goal: Sequent, depth: int = 30,
          model: Optional[ModelConfig] = None) -> Optional[Derivation]:
    """Backward search: substitution rules push every member to canonical
    form (mirroring canonicalization, so this phase terminates), then the
    introduction rules decompose, then the axiom closes. Returned
    derivations always re-check.

    The search is tabled (Tamaki & Sato, "OLD resolution with tabulation",
    ICLP 1986), keyed on the interned sequent:
    - a failure is kept per (sequent, remaining depth) for this call only.
      A sequent that failed at depth d fails at every depth <= d, since
      success is monotone in depth: the search is a function of (sequent,
      depth, model), and a candidate whose premises succeed at d - 1 still
      succeeds at d, by induction on d;
    - a success is kept on the sequent itself (`_proved`), keyed by the
      exact (depth, model), as the rule, position, direction and premise
      sequents it used. A derivation found at one depth may differ from
      the one found at another, so a goal proved again, or a subgoal met
      again, at that depth returns what the untabled search returns, and
      at any other depth is searched. No premise leads back to its
      conclusion (a substitution moves toward canonical form, an
      introduction removes a connective), so a table names no sequent
      whose table reaches back to it, and a goal dies by reference
      counting.

    A derivation found joins the window of recent parses
    (`syntax._PARSED`), so a goal proved again, or its file checked, finds
    its sequents built, sorted, checked and proved; the window's bound
    keeps the memory bounded."""
    if not _search(goal, depth, model, {}):
        return None
    return _kept(_derivation(goal, depth, model))


def _search(goal: Sequent, depth: int, model: Optional[ModelConfig],
            failed: dict[Sequent, int]) -> bool:
    """Whether `goal` is proved within `depth`; one frame per level, so a
    derivation as tall as the stack allows is found. `failed` holds the
    largest depth at which each sequent failed in this call."""
    if depth <= failed.get(goal, 0):
        return False
    proved = getattr(goal, "_proved", None)
    if proved is not None and (depth, model) in proved:
        return True

    if goal.ante & goal.succ:
        return _tabled(goal, depth, model, "ax", ())

    # phase 1: squeeze a Boolean operator out from under an application
    for side in ("L", "R"):
        for idx, member in enumerate(goal.side(side)):
            hit = _innermost_redex(member)
            if hit is None:
                continue
            path, op, functor_side = hit
            rule, pos = f"{op}-{side}{'l' if functor_side else 'r'}", Pos(side, idx, path)
            premises = rule_premises(goal, rule, pos, model)
            # a stuck redex (unnamed carrier or rank break) fails
            if not isinstance(premises, Violation) and \
                    _search(premises[0], depth - 1, model, failed):
                return _tabled(goal, depth, model, rule, premises, pos, "down")
            failed[goal] = depth
            return False

    # phase 2: introduction rules (rank side conditions permitting), the
    # one-premise rules before the branching and-R and or-L, so a branch
    # does not take the rest of the sequent apart once per premise
    candidates = []
    for side in ("R", "L"):
        for idx, member in enumerate(goal.side(side)):
            if member.op is not None:
                candidates.append((f"{member.op}-{side}", Pos(side, idx)))
    candidates.sort(key=lambda c: c[0] in _BRANCHING)  # stable: keeps side order
    for rule, pos in candidates:
        premises = rule_premises(goal, rule, pos, model)
        if isinstance(premises, Violation):
            continue  # side condition failed; try another member
        for p in premises:
            if not _search(p, depth - 1, model, failed):
                break
        else:
            return _tabled(goal, depth, model, rule, premises, pos)
    failed[goal] = depth
    return False


def _tabled(goal: Sequent, depth: int, model: Optional[ModelConfig], rule: str,
            premises, pos: Optional[Pos] = None, direction: Optional[str] = None,
            ) -> bool:
    """Table the step that proves `goal` at (depth, model); True."""
    table = getattr(goal, "_proved", None)
    if table is None:
        table = {}
        object.__setattr__(goal, "_proved", table)
    table[depth, model] = (rule, tuple(premises), pos, direction)
    return True


def _derivation(goal: Sequent, depth: int, model: Optional[ModelConfig]) -> Derivation:
    """The derivation the tables hold for `goal` at (depth, model), built
    premises first with an explicit stack; a subgoal met twice at one
    depth is built once and shared, which renders as two copies."""
    built: dict[tuple[Sequent, int], Derivation] = {}
    stack = [(goal, depth)]
    while stack:
        key = seq, d = stack[-1]
        rule, premises, pos, direction = seq._proved[d, model]
        todo = [(p, d - 1) for p in premises if (p, d - 1) not in built]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        built[key] = Derivation(rule, seq, tuple(built[p, d - 1] for p in premises),
                                pos, direction)
    return built[goal, depth]


# ---------------------------------------------------------------------------
# derivation files

def render_derivation_file(d: Derivation) -> str:
    """One line per node:
    node <id> rule=<rule> dir=<down|up|-> pos=<pos|-> concl=<sequent> premises=<ids|->

    The sequent text may contain spaces but never '=', so the trailing
    premises field parses unambiguously. Nodes are numbered in the
    post-order of `Derivation.nodes`, so a node's premises are the last ids
    on the stack when it is written; a node reached twice is written twice.
    """
    lines, ids = [], []
    for nid, node in enumerate(d.nodes(), 1):
        cut = len(ids) - len(node.premises)
        premise_ids, ids[cut:] = ids[cut:], [nid]
        lines.append(
            f"node {nid} rule={node.rule} dir={node.direction or '-'} "
            f"pos={node.pos or '-'} concl={render_sequent(node.conclusion)} "
            f"premises={','.join(map(str, premise_ids)) or '-'}")
    lines.append(f"root {ids[0]}")
    return "\n".join(lines) + "\n"


def parse_derivation_file(text: str) -> Derivation:
    """Read what `render_derivation_file` writes, line by line: each node's
    conclusion is parsed whole (`parse_sequent_members`). A malformed line
    raises CttError naming the first such line in the file."""
    lines, root_id = _node_lines(text, parse=True)
    nodes: dict[int, Derivation] = {}
    for nid, (rule, direction, pos, concl, premise_ids) in lines.items():
        nodes[nid] = Derivation(rule, concl, tuple(nodes[p] for p in premise_ids),
                                pos, direction)
    return nodes[_root(lines, root_id)]


def _node_lines(text: str, parse: bool = False) -> tuple[dict[int, tuple], Optional[int]]:
    """The node lines of `text` by id, in file order, as (rule, dir, pos,
    concl, premise ids), and the root line's id, None without one. `concl`
    is the conclusion's text, or with `parse` the sequent it reads as.
    Blank lines and comments are skipped. The first line that does not
    read raises CttError naming it; a premise must name an earlier line."""
    lines: dict[int, tuple] = {}
    root_id = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if line.startswith("root "):
                if root_id is not None:
                    raise ValueError("a second root line")
                root_id = _root_id(line)
                continue
            if not line.startswith("node "):
                raise ValueError("expected a node or root line")
            nid, rule, direction, pos, concl, premises = _node_fields(line)
            if parse:
                concl = parse_sequent_members(concl)
            premise_ids = ([] if premises == "-" else
                           [_natural(p, "premise id") for p in premises.split(",")])
            for p in premise_ids:
                if p not in lines:
                    raise ValueError(f"unknown premise {p}")
            nid = _natural(nid, "node id")
            if parse:
                concl = Sequent.make(*concl)
            pos = None if pos == "-" else Pos.parse(pos)
            if nid in lines:
                raise ValueError(f"duplicate node id {nid}")
            lines[nid] = (rule, None if direction == "-" else direction, pos, concl,
                          premise_ids)
        except (ValueError, IndexError, CttError) as ex:
            raise CttError(f"bad derivation line {raw!r}: {ex}") from None
    return lines, root_id


def _root_id(line: str) -> int:
    words = line.split()
    if len(words) != 2:
        raise ValueError("expected root <id>")
    return _natural(words[1], "root id")


def _natural(text: str, what: str) -> int:
    """The natural number a line's id field writes in ASCII digits."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"{what} {text!r} is not a natural number")
    return int(text)


def _node_fields(line: str) -> tuple[str, str, str, str, str, str]:
    """The texts of a node line's id, rule, dir, pos, concl and premises."""
    nid_text, _, rest = line[len("node "):].partition(" ")
    fields = []
    for key in ("rule=", "dir=", "pos="):
        if not rest.startswith(key):
            raise ValueError(f"expected {key}")
        field, _, rest = rest[len(key):].partition(" ")
        fields.append(field)
    rule, direction, pos = fields
    if direction not in ("down", "up", "-"):
        raise ValueError(f"dir must be down, up or -, got {direction!r}")
    if not rest.startswith("concl=") or " premises=" not in rest:
        raise ValueError("expected concl= and premises=")
    concl_text, premises_text = rest[len("concl="):].rsplit(" premises=", 1)
    return nid_text, rule, direction, pos, concl_text, premises_text


def _root(lines: dict[int, tuple], root_id: Optional[int]) -> int:
    """The root's id: the root line's, else the one line no line names."""
    if root_id is None:
        referenced = {p for line in lines.values() for p in line[4]}
        roots = [nid for nid in lines if nid not in referenced]
        if len(roots) != 1:
            raise CttError("derivation file needs a unique root")
        return roots[0]
    if root_id not in lines:
        raise CttError(f"root {root_id} names no node")
    return root_id


def _read_sequent(text: str) -> Sequent:
    """The sequent a conclusion's text reads as."""
    return Sequent.make(*parse_sequent_members(text))


def _tree_sizes(lines: dict[int, tuple]) -> dict[int, int]:
    """The number of derivation nodes under each line, itself included,
    counting a line once per use, as `Derivation.nodes` does."""
    sizes: dict[int, int] = {}
    for nid, line in lines.items():
        size = 1
        for p in line[4]:
            size += sizes[p]
        sizes[nid] = size
    return sizes


def _read_premise(text: str, expected: Optional[Sequent]) -> Sequent:
    """A premise line as `_read_sequent` reads it, given the premise
    `expected` there, if any, taken unparsed when `text` is its rendering.

    Nothing is left to check: a rendering reads back as the sequent it
    renders when its members pass `check_sequent_member` and share one
    signature table, and `expected` comes from a conclusion that was
    parsed, or taken so itself, whose members do. An introduction adds
    the member's children, or a bot eigenvariable at the index rank named
    apart from the sequent; a substitution puts a term of the redex's
    type and rank, under `squeeze_out`'s side conditions, and
    `rule_premises` refuses a big operator's squeeze whose carrier names
    would clash."""
    if expected is not None and text == render_sequent(expected):
        return expected
    return _read_sequent(text)


def check_derivation_file(text: str, model: Optional[ModelConfig] = None,
                          ) -> tuple[Sequent, int, Optional[DerivationFailure]]:
    """Read and check a derivation file: the root's conclusion, the number
    of nodes and the first failing node, if any. The results and errors are
    those of `parse_derivation_file` followed by `check_derivation`.

    The walk is `check_derivation`'s, over the lines from the root, whose
    conclusion is parsed. At each node, `rule_premises` gives the premises
    it expects, and `_read_premise` reads each premise line. A node whose
    premises are all the expected ones passes, as `check_rule_instance`
    would pass it, when a substitution reads downward; any other node is
    checked by `check_rule_instance`. A line met again is skipped: premises
    come before their node and the walk stops at the first failure, so the
    first visit checked it in full. Every line the walk did not read is
    parsed after it. Where anything does not read, `parse_derivation_file`
    raises the first error in file order.

    A file that reads, whether its check passes or fails, leaves the
    sequents it read in the window of recent parses (`syntax._PARSED`) as
    one entry, so the same file checked again, or its goal proved, finds
    them built. A file that raises leaves the window as it found it: the
    lines read to name the error would otherwise evict the proofs and
    files kept there."""
    window = list(_PARSED)
    try:
        lines, root_id = _node_lines(text)
        root_id = _root(lines, root_id)
        read = {root_id: _read_sequent(lines[root_id][3])}  # line id -> sequent
        failure, stack, walked = None, [(root_id, ())], set()
        while stack:
            nid, path = stack.pop()
            if nid in walked:
                continue
            walked.add(nid)
            rule, direction, pos, _, premise_ids = lines[nid]
            seq = read[nid]
            expected = None
            if direction == "down" or rule not in _SUBST:
                try:
                    expected = rule_premises(seq, rule, pos, model)
                except CttError:
                    pass
            if isinstance(expected, Violation) or len(expected or ()) != len(premise_ids):
                expected = None
            premises = []
            for i, pid in enumerate(premise_ids):
                known = read.get(pid)
                if known is None:
                    known = read[pid] = _read_premise(lines[pid][3], expected and expected[i])
                premises.append(known)
            if premises != expected:
                v = check_rule_instance(seq, premises, rule, pos, direction, model)
                if v is not None:
                    failure = DerivationFailure(path, v)
                    break
            for i in range(len(premise_ids) - 1, -1, -1):  # premise 0 is walked first
                stack.append((premise_ids[i], path + (i,)))
        for nid, line in lines.items():
            if nid not in read:
                read[nid] = _read_sequent(line[3])
        _kept(tuple(read.values()))
    except CttError:
        try:
            parse_derivation_file(text)
        finally:
            _PARSED.clear()
            _PARSED.extend(window)
        raise
    return read[root_id], _tree_sizes(lines)[root_id], failure
