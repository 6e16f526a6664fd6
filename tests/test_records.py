"""The records' contract: constructor signatures and defaults, field-wise
equality, the `Name(field=value, ...)` repr, immutability, `match` class
patterns, and a fresh list for each record that owns one."""

import pytest

from ctt.domains import ModelConfig, enumerate_domain
from ctt.rewrite import RewriteTrace, RuleTag, Step, normalize
from ctt.semantics import HarnessReport, SequentReport, SequentVerdict, TrialRecord
from ctt.sequents import Derivation, DerivationFailure, Pos, Sequent, Violation
from ctt.syntax import BOT, parse_sequent_members, parse_slm

TERM = parse_slm(r"e: ((\x:e. x) y)")
AFTER = parse_slm("e: y")
AXIOM = Sequent.make(*parse_sequent_members("A |- A"))
VALUE = enumerate_domain(ModelConfig({"e": 1}), BOT, 0)[1]


def records():
    """(record class, positional arguments, every field by name with its
    default where the positional arguments leave it out)."""
    return [
        (Step, ((0,), RuleTag.BETA, TERM, AFTER),
         dict(path=(0,), rule=RuleTag.BETA, before=TERM, after=AFTER)),
        (SequentVerdict, (2, {"A": VALUE}, False),
         dict(model_index=2, assignment={"A": VALUE}, holds=False)),
        (SequentReport, (4,), dict(checked=4, failure=None)),
        (TrialRecord, ("beta", 1, 3, "pass"),
         dict(rule="beta", seed=1, trial=3, status="pass", detail="", ms=0.0)),
        (Pos, ("R", 1), dict(side="R", member=1, path=())),
        (Violation, ("ax", "no match"), dict(rule="ax", reason="no match")),
        (Derivation, ("ax", AXIOM),
         dict(rule="ax", conclusion=AXIOM, premises=(), pos=None, direction=None)),
        (DerivationFailure, ((0, 1), Violation("ax", "no match")),
         dict(path=(0, 1), violation=Violation("ax", "no match"))),
    ]


@pytest.mark.parametrize("cls, args, fields", records(),
                         ids=[cls.__name__ for cls, _, _ in records()])
def test_record_construction_equality_and_repr(cls, args, fields):
    record = cls(*args)
    assert record == cls(**fields)
    assert [getattr(record, name) for name in fields] == list(fields.values())
    body = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(record) == f"{cls.__name__}({body})"
    # one field changed is another record
    name, value = list(fields.items())[-1]
    assert record != cls(**dict(fields, **{name: [value]}))
    with pytest.raises(AttributeError):
        setattr(record, name, value)


def test_record_reprs_read_as_written():
    assert repr(Pos("L", 0, (1, 2))) == "Pos(side='L', member=0, path=(1, 2))"
    assert repr(TrialRecord("beta", 1, 3, "skip", "no redex", 0.5)) == (
        "TrialRecord(rule='beta', seed=1, trial=3, status='skip', detail='no redex', ms=0.5)")
    assert repr(SequentReport(4)) == "SequentReport(checked=4, failure=None)"
    assert str(DerivationFailure((0, 1), Violation("ax", "no match"))) == "at 0.1: ax: no match"


def test_records_keep_their_methods_and_match_patterns():
    assert SequentReport(1).valid
    assert not SequentReport(1, SequentVerdict(0, {}, False)).valid
    assert TrialRecord("beta", 1, 3, "pass").line() == \
        "rule=beta seed=1 trial=3 status=pass ms=0.00"
    ax = Derivation("ax", AXIOM)
    assert list(Derivation("neg-R", AXIOM, (ax, ax), Pos("R", 0)).nodes())[:2] == [ax, ax]
    match Pos.parse("R2:0.1"):
        case Pos(side, member, path):
            assert (side, member, path) == ("R", 2, (0, 1))
    match Violation("ax", "no match"):
        case Violation(rule=rule):
            assert rule == "ax"


@pytest.mark.parametrize("text", ["L0", "R3", "L12:5", "R0:0.1.2"])
def test_pos_reads_back_and_hashes(text):
    pos = Pos.parse(text)
    assert str(pos) == text
    assert {pos: 1}[Pos.parse(text)] == 1
    assert hash(pos) == hash(Pos(pos.side, pos.member, pos.path))


def test_list_owning_records_never_share_their_list():
    first, second = RewriteTrace(TERM), RewriteTrace(TERM)
    first.steps.append(Step((), RuleTag.BETA, TERM, AFTER))
    assert (first.start, second.steps) == (TERM, [])
    steps = [Step((), RuleTag.BETA, TERM, AFTER)]
    assert RewriteTrace(TERM, steps).steps is steps
    assert normalize(TERM)[1].steps is not normalize(TERM)[1].steps
    first, second = HarnessReport("beta"), HarnessReport(rule="beta")
    first.records.append(TrialRecord("beta", 0, 0, "pass"))
    assert (first.rule, first.passes, second.records) == ("beta", 1, [])
    assert second.failures == []
