import gc
import os
import pathlib
import random
import re
import string
import subprocess
import sys
import time

import pytest

from ctt import domains, rewrite, syntax
from ctt.cli import build_parser, main
from ctt.sequents import Sequent
from ctt.syntax import MAX_NESTING

import corpus


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_normalize_spec_example(capsys):
    code, out, _ = run(capsys, "normalize", "--fuel", "100", r"e: ((\x:e. x) y)")
    assert code == 0
    assert out.strip() == "y"


def test_normalize_machine_steps(capsys):
    code, out, _ = run(capsys, "--machine", "normalize",
                       r"e: ((\x:e. x) ((\y:e. y) z))")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("step=0")
    assert lines[-1] == "status=ok cmd=normalize steps=2 payload=z:e"


def test_normalize_again_answers_from_the_kept_run(capsys, monkeypatch):
    # the README example, plain and --machine: the second run finds the
    # parse in the window and the normal-form run kept on its term, so it
    # prints the same bytes and builds no node and no redex search
    made, searches = [], []
    intern, search = syntax._intern, rewrite._RedexSearch
    for machine in ([], ["--machine"]):
        argv = [*machine, "normalize", "--fuel", "100", r"e: ((\x:e. x) y)"]
        first = run(capsys, *argv)
        monkeypatch.setattr(syntax, "_intern",
                            lambda key, obj: made.append(key) or intern(key, obj))
        monkeypatch.setattr(rewrite, "_RedexSearch",
                            lambda *args: searches.append(args) or search(*args))
        assert run(capsys, *argv) == first
        assert first[0] == 0 and (made, searches) == ([], [])
        monkeypatch.undo()


def test_normalize_fuel_exhaustion_exit_code(capsys):
    code, out, _ = run(capsys, "normalize", "--fuel", "0", r"e: ((\x:e. x) y)")
    assert code == 3


def test_iso_spec_example(capsys):
    code, out, _ = run(capsys, "iso", "--base", "e=3", "--element", "{{a},{b,c}}")
    assert code == 0
    assert out.strip() == corpus.WORKED_ISO_GOLDEN


def test_entail_valid_and_invalid(capsys, tmp_path):
    mdl = tmp_path / "small.mdl"
    mdl.write_text("base e 3\nrankcap 2\n")
    code, out, _ = run(capsys, "entail", "--model", str(mdl), "A |- A")
    assert code == 0 and out.strip() == "valid"
    code, out, _ = run(capsys, "entail", "--model", str(mdl), "|- x:bot@0")
    assert code == 1 and out.strip() == "invalid"


def test_entail_machine_verdicts(capsys):
    code, out, _ = run(capsys, "--machine", "entail", "A |- A")
    lines = out.strip().splitlines()
    assert all(l.startswith("model=") for l in lines[:-1])
    assert lines[-1].startswith("status=ok cmd=entail")


GOLDENS = pathlib.Path(__file__).parent / "goldens"


def test_entail_machine_lines_are_pinned(capsys):
    # a rank-1 and a rank-0 variable over the standard family: 32 verdicts
    # per model, some holding and some not, and the first failure reported
    code, out, _ = run(capsys, "--machine", "entail", "x:bot@1, y:bot@0 |- neg[1](y)")
    assert code == 1
    assert out == (GOLDENS / "entail_machine_mixed_ranks.txt").read_text()
    assert "holds=1" in out and "holds=0" in out


OVER_CAP_IN_LAST_MODEL = ("|- x:bot@0, (f:(e -> bot)@0 u:e@0), (g:(e -> bot)@0 w:e@0), "
                          "(h:(e -> bot)@0 v:e@0)")


@pytest.mark.parametrize("text", ["bot:bot@0", "table:e@0", "12:bot@0", "007:e@0"])
def test_a_ranked_variable_is_no_reserved_word_or_other_number(capsys, text):
    # a term names an identifier other than a reserved word, or 0 or 1,
    # as a model file's constant does; any other token is no subterm
    code, out, err = run(capsys, "parse", "--lang", "cts", text)
    assert (code, out, err) == (2, "", "ctt: expected a subterm at line 1, column 1\n")
    code, out, err = run(capsys, "entail", "|- " + text)
    assert (code, out, err) == (2, "", "ctt: expected a subterm at line 1, column 4\n")


def test_bot_is_no_sequent_member(capsys):
    code, out, err = run(capsys, "entail", "bot |- bot")
    assert (code, out, err) == (2, "", "ctt: expected a subterm at line 1, column 1\n")


def test_0_and_1_name_ranked_variables(capsys):
    code, out, _ = run(capsys, "parse", "--lang", "cts", "and[1](0:bot@0,1:bot@0)")
    assert (code, out) == (0, "and[1](0:bot@0,1:bot@0)\n")
    code, out, _ = run(capsys, "entail", "0 |- 1")
    assert (code, out) == (1, "invalid\n")


def test_a_signature_clash_prints_annotations(capsys, tmp_path):
    # ex-Rr spreads Ex[1](i:e@0) over the carrier of e, whose individual
    # `a` is at e@0, while the sequent uses `a` at bot@0: the clash is
    # written as annotations are
    mdl = tmp_path / "e2.mdl"
    mdl.write_text("base e 2\n")
    proof = tmp_path / "clash.proof"
    proof.write_text(
        "node 1 rule=ax dir=- pos=- concl=A |- A premises=-\n"
        "node 2 rule=ex-Rr dir=down pos=R0:0 concl=|- and[1]((f:(e -> bot)@0 "
        "Ex[1](i:e@0)),a:bot@0) premises=1\n")
    code, out, _ = run(capsys, "check-proof", "--model", str(mdl), str(proof))
    assert (code, out) == (
        1, "at root: ex-Rr: a used at e@0 and bot@0 (at path root)\n")


def test_entail_over_cap_model_after_the_counterexample(capsys, tmp_path):
    # the standard family's first model refutes the sequent, its last is over the cap
    for machine in ([], ["--machine"]):
        code, out, err = run(capsys, *machine, "entail", OVER_CAP_IN_LAST_MODEL)
        assert (code, out) == (3, "")
        assert err == "ctt: resource cap: assignment space 4608 exceeds the cap 4096\n"
    mdl = tmp_path / "one.mdl"
    mdl.write_text("base e 1\n")
    code, out, err = run(capsys, "entail", "--model", str(mdl), OVER_CAP_IN_LAST_MODEL)
    assert (code, out) == (1, "invalid\n")
    assert err == ("model: 0\ncounterexample: f = table{a->0}, g = table{a->0}, "
                   "h = table{a->0}, u = a, v = a, w = a, x = 0\n")


ARROW_POOL_OVER_CAP = "(x:((e -> bot) -> bot)@0 y:(e -> bot)@0) |- (x y)"


def test_arrow_pool_is_counted_not_built(capsys, tmp_path):
    # at e = 4, x ranges over the 65,536 tables of ((e -> bot) -> bot):
    # the pool is counted, so the cap stops the command before any
    # carrier is built
    mdl = tmp_path / "four.mdl"
    mdl.write_text("base e 4\n")
    domains._MINTERM_CACHE.clear()
    code, out, err = run(capsys, "entail", "--model", str(mdl), ARROW_POOL_OVER_CAP)
    assert (code, out) == (3, "")
    assert err == "ctt: resource cap: assignment space 65536 exceeds the cap 4096\n"
    assert len(domains._MINTERM_CACHE) == 0


def test_a_carrier_count_too_long_for_decimal_exits_3(capsys, tmp_path):
    # at e = 2, ~~~~e has 2^65536 tables; the count's decimal form has
    # 19,729 digits, more than `str` converts. The carrier is counted
    # before it is built, so the refusal builds nothing, not even the
    # 65,536 tables of ~~~e
    mdl = tmp_path / "two.mdl"
    mdl.write_text("base e 2\n")
    domains._MINTERM_CACHE.clear()
    syntax._PARSED.clear()
    gc.collect()
    live = len(syntax._INTERNED)
    goal = ("(x:((((e -> bot) -> bot) -> bot) -> bot)@0 "
            "y:(((e -> bot) -> bot) -> bot)@0)")
    code, out, err = run(capsys, "entail", "--model", str(mdl), "|- " + goal)
    assert (code, out) == (3, "")
    assert err == ("ctt: resource cap: 2^65536 tables for "
                   "((((e -> bot) -> bot) -> bot) -> bot) exceeds the cap\n")
    # what the run leaves alive is the goal's one parse, in the window
    assert [tuple(map(syntax.render, p)) for p in syntax._PARSED] == [(goal,)]
    syntax._PARSED.clear()
    gc.collect()
    assert len(syntax._INTERNED) == live
    assert len(domains._MINTERM_CACHE) == 0


RANK1_POOL_OVER_CAP = "|- ((x:(e -> (e -> bot))@1 y:e@0) z:e@0)"


def test_rank1_pool_is_sized_without_its_power(capsys, tmp_path):
    # x ranges over 2^(2^16) rank-1 values at e = 2 and 2^(2^512) at e = 3:
    # the pool is saturated before the cap is compared, not computed
    mdl = tmp_path / "three.mdl"
    mdl.write_text("base e 3\n")
    for argv in ([], ["--model", str(mdl)]):
        start = time.perf_counter()
        code, out, err = run(capsys, "entail", *argv, RANK1_POOL_OVER_CAP)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert err == ("ctt: resource cap: assignment space exceeds the cap 4096: "
                       "x alone ranges over more than 65536 values\n")


def test_parse_check_exit_codes(capsys):
    code, out, _ = run(capsys, "parse", "--lang", "cts",
                       "and[1](p:bot@0, neg[2](q:bot@0))")
    assert code == 2
    code, out, _ = run(capsys, "check", "--lang", "cts", "and[1](p:bot@0,q:bot@0)")
    assert code == 0


def test_canon_golden(capsys):
    code, out, _ = run(capsys, "canon", corpus.BRACKETED_3_TEXT)
    assert code == 0
    assert out.strip() == corpus.BRACKETED_3_GOLDEN


def test_eval_with_model_and_assignment(capsys, tmp_path):
    mdl = tmp_path / "m.mdl"
    mdl.write_text("base e 2\nconst f : (e -> bot) = table{a->0, b->1}\n")
    code, out, _ = run(capsys, "eval", "--model", str(mdl), "--lang", "cts",
                       "--assign", "x=a", "(f x:e@0)")
    assert code == 0
    assert out.strip() == "0"


def test_table_literal_maps_each_key_once(capsys, tmp_path):
    code, out, err = run(capsys, "eval", "--lang", "cts", "--assign",
                         "x=table{0->1,1->0,0->0}", "x:(bot -> bot)@0")
    assert (code, out, err) == (2, "", "ctt: table maps 0 twice at line 1, column 17\n")
    mdl = tmp_path / "m.model"
    mdl.write_text("base e 2\nconst f : (e -> bot) = table{a->1,b->0}\n")
    code, out, _ = run(capsys, "eval", "--model", str(mdl), "--lang", "cts",
                       "f:(e -> bot)@0")
    assert (code, out) == (0, "table{a->1,b->0}\n")
    # a model file's parse error names the file's line and column
    mdl.write_text("base e 2\nconst f : (e -> bot) = table{a->1,b->0,a->0}\n")
    code, out, err = run(capsys, "eval", "--model", str(mdl), "--lang", "cts",
                         "f:(e -> bot)@0")
    assert (code, out, err) == (2, "", "ctt: table maps a twice at line 2, column 40\n")
    mdl.write_text("# keys\nbase e 2\n\n  const f :(e -> bot)=  table{a->1,b->0,a->0} # c\n")
    code, out, err = run(capsys, "check-proof", "--model", str(mdl), str(mdl))
    assert (code, out, err) == (2, "", "ctt: table maps a twice at line 4, column 41\n")
    mdl.write_text("base e 2\nconst f : (e -> ) = table{a->1,b->0}\n")
    code, out, err = run(capsys, "check-proof", "--model", str(mdl), str(mdl))
    assert (code, out, err) == (2, "", "ctt: expected a type at line 2, column 17\n")


def test_model_file_declares_each_name_once(capsys, tmp_path):
    # the later line used to win silently: e of size 3, c = 1, rank cap 3
    mdl = tmp_path / "m.model"
    files = {"base e 2\nbase e 3\n":
             "model declares base e twice at line 2, column 6",
             "base e 2\nconst c : bot = 0\n  const   c: bot = 1 # again\n":
             "model declares constant c twice at line 3, column 11",
             "base e 2\nrankcap 1\nrankcap 3\n":
             "model declares the rank cap twice at line 3, column 9"}
    for text, msg in files.items():
        mdl.write_text(text)
        for argv in (["eval", "--model", str(mdl), "--lang", "cts", "c:bot@0"],
                     ["entail", "--model", str(mdl), "A |- A"]):
            code, out, err = run(capsys, *argv)
            assert (code, out, err) == (2, "", f"ctt: {msg}\n"), argv
    # a base and a constant may share a name
    mdl.write_text("base e 2\nconst e : bot = 1\n")
    code, out, _ = run(capsys, "eval", "--model", str(mdl), "--lang", "cts", "e:bot@0")
    assert (code, out) == (0, "1\n")


def test_base_names_must_read_back_as_base_types(capsys, tmp_path):
    for name in ("bot", "(e", "e -> e", "e # note"):
        code, out, err = run(capsys, "iso", "--base", f"{name}=2", "--element", "{{a}}")
        assert (code, out, err) == (2, "", f"ctt: base {name!r} is not a base type name\n")
    mdl = tmp_path / "m.model"
    mdl.write_text("base bot 2\n")
    code, out, err = run(capsys, "eval", "--model", str(mdl), "--lang", "cts", "1")
    assert (code, out, err) == (2, "", "ctt: base 'bot' is not a base type name\n")
    mdl.write_text("base t 2\n")
    code, out, _ = run(capsys, "eval", "--model", str(mdl), "--lang", "cts", "1")
    assert (code, out) == (0, "1\n")


def test_constant_names_must_be_names_a_term_can_use(capsys, tmp_path):
    # each of these loaded, though no term could name the constant
    mdl = tmp_path / "m.model"
    # the column of the name, or for no name of the colon
    for name, col in (("and", 7), ("x y", 7), ("", 8), ("x->y", 7), ("12", 7)):
        msg = f"constant {name!r} is not an identifier other than a reserved word, 0 or 1"
        mdl.write_text(f"base e 1\nconst {name} : bot = 1\n")
        code, out, err = run(capsys, "eval", "--model", str(mdl), "--lang", "cts", "1")
        assert (code, out, err) == (2, "", f"ctt: {msg} at line 2, column {col}\n"), name
        with pytest.raises(syntax.CttError, match=re.escape(msg)):
            domains.ModelConfig(base_sizes={"e": 1}, constants={name: domains.TRUE})
    # a truth value's name may be shadowed
    mdl.write_text("const 1 : bot = 0\n")
    code, out, _ = run(capsys, "eval", "--model", str(mdl), "--lang", "cts", "1")
    assert (code, out) == (0, "0\n")


def test_parse_failed_retry_keeps_nesting_message(capsys):
    # the plain reading reaches the nesting budget; the `x:` retry fails at
    # once, so the error that got further is reported
    code, _, err = run(capsys, "parse", "x:" + "~" * 600 + "e")
    assert code == 2
    assert f"input nests deeper than {MAX_NESTING} levels" in err


def test_type_faults_name_their_path(capsys):
    faults = {
        "(f:(e -> t) y:t)": "argument type t does not match domain e (at path 1)",
        "#k:~e. y:e": "mu body has type e, expected bot (at path 0)",
        "(x:e y:e)": "e is not an arrow type (at path 0)",
        r"\x:e. #k:~t. (k (f:(e -> e) x))":
            "argument type e does not match domain t (at path 0.0.1)",
    }
    for text, message in faults.items():
        for cmd in ("parse", "check"):
            assert run(capsys, cmd, text) == (2, "", f"ctt: {message}\n"), (cmd, text)


def binder_nest(n: int) -> str:
    return "".join(f"\\x{i}:e. " for i in range(n)) + "x0"


def test_eval_binder_nest_cap_is_checked_first(capsys):
    # n nested binders over e of size 2 evaluate the body 2^n times
    for depth in (100, MAX_NESTING - 3):
        start = time.perf_counter()
        code, _, err = run(capsys, "eval", binder_nest(depth))
        assert code == 3 and "resource cap" in err
        assert time.perf_counter() - start < 1.0
    code, out, _ = run(capsys, "eval", binder_nest(12))
    assert code == 0 and out.startswith("table{a->table{")


def test_eval_mu(capsys, tmp_path):
    mdl = tmp_path / "m.mdl"
    mdl.write_text("base e 2\n")
    code, out, _ = run(capsys, "eval", "--model", str(mdl),
                       "--assign", "p=a", "#x:~e. (x p:e)")
    assert code == 0
    assert out.strip() == "a"


def test_prove_and_check_proof(capsys, tmp_path):
    code, out, _ = run(capsys, "prove", "--depth", "10",
                       "|- or[1](A, neg[1](A))")
    assert code == 0
    proof = out[out.index("node 1"):]
    path = tmp_path / "em.proof"
    path.write_text(proof)
    code, out, _ = run(capsys, "check-proof", str(path))
    assert code == 0
    # corrupt one rank and the checker must reject
    broken = proof.replace("or[1]", "or[2]")
    path.write_text(broken)
    code, out, _ = run(capsys, "check-proof", str(path))
    assert code in (1, 2)


# two carriers whose tables render alike: (e -> bot) named by k0 and k1,
# (t -> bot) by j0 and j1
TWIN_CARRIERS = ("base e 1\nbase t 1\n"
                 "const k0 : (e -> bot) = table{a->0}\nconst k1 : (e -> bot) = table{a->1}\n"
                 "const j0 : (t -> bot) = table{a->0}\nconst j1 : (t -> bot) = table{a->1}\n")


def test_a_big_operator_expands_over_the_constants_of_its_type(capsys, tmp_path):
    # All[1] over (e -> bot) expands to k0 and k1, not to the (t -> bot)
    # constants of the same rendering, so the prover finds the derivation
    mdl = tmp_path / "twins.mdl"
    mdl.write_text(TWIN_CARRIERS)
    goal = "(p:((e -> bot) -> bot)@0 All[1](i:(e -> bot)@0)) |- and[1]((p k0), (p k1))"
    code, out, _ = run(capsys, "prove", "--model", str(mdl), goal)
    assert code == 0
    assert [line.split()[2] for line in out.splitlines()[:-1]] == ["rule=ax", "rule=all-Lr"]
    path = tmp_path / "twins.proof"
    path.write_text(out)
    code, out, _ = run(capsys, "check-proof", "--model", str(mdl), str(path))
    assert code == 0
    assert out.startswith("(p:((e -> bot) -> bot)@0 All[1](i:(e -> bot)@0)) |- ")


# the constant a denotes individual b, so no name reaches individual a
SHADOWED_A = "base e 2\nconst a : e = b\n"
SHADOWED_GOAL = "(f:(e -> bot)@0 Ex[1](i:e@0)) |- (f a), (f b)"
# the derivation that expands Ex[1] over a and b under their own names
SHADOWED_PROOF = """\
node 1 rule=ax dir=- pos=- concl=(f:(e -> bot)@0 a:e@0) |- (f:(e -> bot)@0 a:e@0), (f:(e -> bot)@0 b:e@0) premises=-
node 2 rule=ax dir=- pos=- concl=(f:(e -> bot)@0 b:e@0) |- (f:(e -> bot)@0 a:e@0), (f:(e -> bot)@0 b:e@0) premises=-
node 3 rule=or-L dir=- pos=L0 concl=or[1]((f:(e -> bot)@0 a:e@0),(f b:e@0)) |- (f:(e -> bot)@0 a:e@0), (f:(e -> bot)@0 b:e@0) premises=1,2
node 4 rule=ex-Lr dir=down pos=L0 concl=(f:(e -> bot)@0 Ex[1](i:e@0)) |- (f:(e -> bot)@0 a:e@0), (f:(e -> bot)@0 b:e@0) premises=3
root 4
"""


def test_a_shadowed_individual_blocks_big_operator_substitution(capsys, tmp_path):
    # the name a denotes b in this model, so spreading Ex[1] over the
    # carrier under the names a and b would reach b twice and a never:
    # prove finds nothing, check-proof refuses the file that spreads it,
    # and entail finds the counterexample
    mdl = tmp_path / "shadow.mdl"
    mdl.write_text(SHADOWED_A)
    code, out, _ = run(capsys, "prove", "--model", str(mdl), "--depth", "30", SHADOWED_GOAL)
    assert (code, out.splitlines()[0]) == (1, "no derivation found")
    proof = tmp_path / "shadow.proof"
    proof.write_text(SHADOWED_PROOF)
    code, out, _ = run(capsys, "check-proof", "--model", str(mdl), str(proof))
    assert (code, out) == (1, "at root: ex-Lr: carrier element a of e has no name; "
                              "declare constants covering the carrier\n")
    code, out, err = run(capsys, "entail", "--model", str(mdl), SHADOWED_GOAL)
    assert (code, out) == (1, "invalid\n")
    assert "counterexample: f = table{a->0,b->1}" in err
    # a constant declared before the shadow names individual a, so the
    # expansion names a by z and b by its own name
    mdl.write_text("base e 2\nconst z : e = a\nconst a : e = b\n")
    code, out, _ = run(capsys, "prove", "--model", str(mdl), "--depth", "30",
                       "(f:(e -> bot)@0 Ex[1](i:e@0)) |- (f z), (f b)")
    assert code == 0 and "concl=or[1]((f:(e -> bot)@0 z:e@0),(f b:e@0)) |- " in out


@pytest.mark.parametrize("literal, column", [
    ("table{a->0 b->1}", 35),    # a missing comma between entries
    ("table{a->0,b->1,}", 40),   # a trailing comma
])
def test_table_entries_need_commas(capsys, tmp_path, literal, column):
    mdl = tmp_path / "m.mdl"
    mdl.write_text(f"base e 2\nconst f : (e -> bot) = {literal}\n")
    code, out, err = run(capsys, "entail", "--model", str(mdl), "|- (f a)")
    assert (code, out) == (2, "")
    assert err.endswith(f" at line 2, column {column}\n"), err


@pytest.mark.parametrize("literal, column", [
    ("and[1](0 1,)", 26),        # a missing comma between parts
    ("or[1](0,1,)", 27),         # a trailing comma
])
def test_and_or_parts_need_commas(capsys, tmp_path, literal, column):
    mdl = tmp_path / "m.mdl"
    mdl.write_text(f"const c : bot = {literal}\n")
    code, out, err = run(capsys, "entail", "--model", str(mdl), "|- c")
    assert (code, out) == (2, "")
    assert err.endswith(f" at line 1, column {column}\n"), err


@pytest.mark.parametrize("element, column", [
    ("{{a b},{c}}", 5),          # a missing comma inside a set
    ("{{a,b} {c}}", 8),          # a missing comma between sets
    ("{{a,b,},{c}}", 7),         # trailing commas
    ("{{a,b},{c},}", 12),
])
def test_set_of_sets_items_need_commas(capsys, element, column):
    code, out, err = run(capsys, "iso", "--base", "e=3", "--element", element)
    assert (code, out) == (2, "")
    assert err.endswith(f" at line 1, column {column}\n"), err


def test_empty_sets_of_sets_stay_allowed(capsys):
    for element, image in (("{}", "or[1]()"), ("{{}}", "and[1](neg[1](a),neg[1](b))")):
        code, out, _ = run(capsys, "iso", "--base", "e=2", "--element", element)
        assert (code, out.splitlines()[0]) == (0, image)


AX_LINE = "node 1 rule=ax dir=- pos=- concl=A |- A premises="


@pytest.mark.parametrize("line", [
    "node 1", "node 1 rule=ax", "node 1 rule=ax dir=- pos=-",
    AX_LINE.replace("node 1", "node x") + "-", AX_LINE + "y", AX_LINE + "1,", "root z"])
def test_a_malformed_derivation_line_is_described_in_the_format_words(capsys, tmp_path, line):
    # a missing field or an id that is not a natural number is named as
    # such, not in the words of the Python call that failed to read it
    path = tmp_path / "one.proof"
    path.write_text(line + "\n")
    code, out, err = run(capsys, "check-proof", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"ctt: bad derivation line {line!r}: ")
    assert "unpack" not in err and "int()" not in err


@pytest.mark.parametrize("pos", ["R\u00b2", "R\u0663", "R0:..", "R0:", "R0:1..2"])
def test_a_position_reads_only_as_str_writes_it(capsys, tmp_path, pos):
    # a superscript two once leaked int()'s own message, an Arabic-Indic
    # three read as R3, and R0:.. as R0
    line = AX_LINE.replace("pos=-", f"pos={pos}") + "-"
    path = tmp_path / "one.proof"
    path.write_text(line + "\n", encoding="utf-8")
    code, out, err = run(capsys, "check-proof", str(path))
    assert (code, out, err) == (2, "", f"ctt: bad derivation line {line!r}: "
                                       f"bad position {pos!r}\n")


@pytest.mark.parametrize("text", ["base e \u0663", "rankcap \u0662"])
def test_a_model_size_is_written_in_ascii_digits(capsys, tmp_path, text):
    # each loaded before, as 3 and 2
    mdl = tmp_path / "m.model"
    mdl.write_text(text + "\n", encoding="utf-8")
    code, out, err = run(capsys, "eval", "--model", str(mdl), "--lang", "cts", "1")
    assert (code, out, err) == (2, "", f"ctt: bad {text.split()[0]} line: {text!r}\n")


def test_an_iso_base_size_is_written_in_ascii_digits(capsys):
    # ran before, with a size of 3
    code, out, err = run(capsys, "iso", "--base", "e=\u0663", "--element", "{{a}}")
    assert (code, out, err) == (2, "", "ctt: --base needs name=size, got 'e=\u0663'\n")


def test_readme_derivation_file_checks(capsys, tmp_path):
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Derivation files", 1)[1].split("```\n")[1]
    # the block is what the prover writes today
    code, out, _ = run(capsys, "prove", "and[1](A,B) |- and[1](B,A)")
    assert (code, out) == (0, block)
    path = tmp_path / "readme.proof"
    path.write_text(block)
    code, out, _ = run(capsys, "check-proof", str(path))
    assert code == 0
    assert out.strip() == "and[1](A:bot@0,B:bot@0) |- and[1](B:bot@0,A:bot@0)"


def test_trailing_comma_is_a_parse_error(capsys, tmp_path):
    # a comma is always followed by a member, on either side
    path = tmp_path / "comma.proof"
    path.write_text("node 1 rule=ax dir=- pos=- concl=A:bot@0, |- A:bot@0 premises=-\n"
                    "root 1\n")
    for argv, col in ((["entail", "A, |- A"], 4), (["entail", "A |- A,"], 8),
                      (["prove", "A, |- A"], 4), (["prove", "A |- A, B,"], 11),
                      (["check-proof", str(path)], 10)):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert f"expected a subterm at line 1, column {col}" in err, (argv, err)


def test_prove_negative_exit(capsys):
    code, out, _ = run(capsys, "prove", "--depth", "5", "A |- B")
    assert code == 1


def test_prove_tall_goal_writes_its_derivation(capsys):
    # two right-nested 300-atom chains: and-L takes both apart, one level
    # per step, so the derivation is 599 levels tall
    def chain(name, n):
        text = f"{name}{n}"
        for i in range(n - 1, 0, -1):
            text = f"and[1]({name}{i},{text})"
        return text

    goal = f"{chain('A', 300)}, {chain('B', 300)} |- B300"
    code, out, err = run(capsys, "prove", "--depth", "100000", goal)
    assert (code, err) == (0, "nodes: 599\n")
    assert out.count("\nnode ") == 598 and out.endswith("\nroot 599\n")


def test_prove_too_tall_goal_hits_a_cap(capsys):
    # prove recurses once per derivation level: thirty 10-atom chains give
    # a 199-level derivation, taller than the stack left here, while each
    # member parses within it
    def chain(name, n):
        text = f"{name}{n}"
        for i in range(n - 1, 0, -1):
            text = f"and[1]({name}{i},{text})"
        return text

    goal = ", ".join(chain(f"A{j}x", 10) for j in range(30)) + " |- A29x10"
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 150)
    try:
        code, out, err = run(capsys, "prove", "--depth", "100000", goal)
    finally:
        sys.setrecursionlimit(limit)
    assert (code, out) == (3, "")
    assert err == ("ctt: resource cap: derivation too tall: the search ran out "
                   "of stack before --depth 100000\n")
    code, out, err = run(capsys, "prove", "--depth", "100000", goal)
    assert code == 0 and out.endswith("\nroot 199\n")


def test_demo_scope_goldens(capsys):
    code, out, _ = run(capsys, "--machine", "demo", "scope")
    assert code == 0
    lines = out.strip().splitlines()
    assert corpus.SCOPE_GOLDEN_1 in lines[0]
    assert corpus.SCOPE_GOLDEN_2 in lines[1]
    assert "Adam and Bob both love Carol" in lines[0]
    assert "Adam loves either Carol or Diane" in lines[1]


def test_demo_single_reading(capsys):
    code, out, _ = run(capsys, "--machine", "demo", "scope", "--reading", "2")
    assert code == 0
    assert len(out.strip().splitlines()) == 1


def test_harness_subcommand_repeats_under_its_seed(capsys):
    def without_times(text):
        return re.sub(r" ms=\S+", "", text)

    answers = []
    for _ in range(2):
        code, out, _ = run(capsys, "harness", "--rule", "beta",
                           "--trials", "4", "--seed", "9")
        assert code == 0
        answers.append(without_times(out))
    assert answers[0] == answers[1]


def test_harness_sequent_rule(capsys):
    code, out, _ = run(capsys, "harness", "--rule", "neg-Lr", "--trials", "4")
    assert code == 0


def test_harness_unknown_rule(capsys):
    code, out, err = run(capsys, "harness", "--rule", "nonsense")
    assert code == 2


def test_at_file_input(capsys, tmp_path):
    f = tmp_path / "term.txt"
    f.write_text(r"e: ((\x:e. x) y)")
    code, out, _ = run(capsys, "normalize", f"@{f}")
    assert code == 0 and out.strip() == "y"


def test_usage_error_exit(capsys):
    assert main(["no-such-command"]) == 2
    assert main([]) == 2


def test_reused_parser_answers_like_a_fresh_one(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps at a fixed width
    mdl = tmp_path / "m.mdl"
    mdl.write_text("base e 2\n")
    mu = "#x:~e. (x p:e)"
    commands = [
        ["--machine", "normalize", "--strategy", "innermost", r"e: ((\x:e. x) y)"],
        ["eval", "--model", str(mdl), "--assign", "p=a", mu],
        ["normalize", "--fuel"],  # usage error
        ["eval", "--model", str(mdl), mu],  # no --assign left over: exit 2
        ["eval", "--model", str(mdl), "--assign", "p=b", "--assign", "q=a", mu],
        ["normalize", "--help"],
        ["entail", "x:bot@0 |- x:bot@0"],
        ["no-such-command"],
        ["canon", corpus.BRACKETED_1_TEXT],
    ]
    reused = [run(capsys, *argv) for argv in commands]
    fresh = []
    for argv in commands:
        build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 0, 2, 2, 0, 0, 0, 2, 0]
    assert reused[1][1] == "a\n" and reused[4][1] == "b\n"
    assert reused[5][1].startswith("usage: ctt normalize")


def test_model_cap_violation(capsys, tmp_path):
    mdl = tmp_path / "big.mdl"
    mdl.write_text("base e 9\n")
    code, out, err = run(capsys, "entail", "--model", str(mdl), "A |- A")
    assert code == 3


def test_empty_base_is_a_usage_error(capsys, tmp_path):
    mdl = tmp_path / "empty.mdl"
    mdl.write_text("base e 0\n")
    for argv in (["iso", "--base", "e=0", "--element", "{{a}}"],
                 ["entail", "--model", str(mdl), "A |- A"]):
        assert run(capsys, *argv) == (2, "", "ctt: base e has size 0; sizes must be 1..4\n")


def test_machine_transcript_replays(capsys):
    """Machine-mode outputs for the golden corpus are byte-stable."""
    commands = [
        ["--machine", "iso", "--base", "e=3", "--element", "{{a},{b,c}}"],
        ["--machine", "canon", corpus.BRACKETED_1_TEXT],
        ["--machine", "demo", "scope"],
        ["--machine", "normalize", r"e: ((\x:e. x) y)"],
    ]
    first = []
    for argv in commands:
        code = main(list(argv))
        first.append((code, capsys.readouterr().out))
    for argv, (code0, out0) in zip(commands, first):
        code = main(list(argv))
        assert (code, capsys.readouterr().out) == (code0, out0)
    assert first[0][1].splitlines()[0].endswith("payload=" + corpus.WORKED_ISO_GOLDEN)


def drawn_formula(rng, atoms):
    """A formula of rank 1 over `atoms`, each used once, of drawn shape."""
    if len(atoms) == 1:
        return rng.choice(("{}", "neg[1]({})")).format(atoms[0])
    cut = rng.randint(1, len(atoms) - 1)
    return (f"{rng.choice(('and', 'or'))}[1]({drawn_formula(rng, atoms[:cut])},"
            f"{drawn_formula(rng, atoms[cut:])})")


def test_fuzz_no_crash(capsys, tmp_path):
    rng = random.Random(5)
    alphabet = string.printable + "λμ⊥∧∨¬ÿ"
    for cmd in ("parse", "normalize", "entail", "canon"):
        for _ in range(25):
            junk = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 40)))
            code = main([cmd, junk])
            capsys.readouterr()
            assert code in (0, 1, 2, 3)
    # deep nesting is refused by the parser's budget, never a RecursionError
    deep = 10_000
    nests = {
        "parse": ["(" * deep + "x:e" + ")" * deep, "\\x:" + "~" * deep + "e. x",
                  "\\x:e. " * deep + "x"],
        "normalize": ["e: " + "((\\x:e. x) " * deep + "y" + ")" * deep,
                      "\\x:e. " * deep + "x", "\\x:(" + "e -> " * deep + "e). x"],
        "entail": ["|- " + "neg[1](" * deep + "A" + ")" * deep,
                   "|- " + "and[1](A," * deep + "A" + ")" * deep],
        "canon": ["neg[1](" * deep + "A:bot@0" + ")" * deep,
                  "(" * deep + "p:~e@0 a:e@0" + ")" * deep],
    }
    for cmd, texts in nests.items():
        for text in texts:
            code = main([cmd, text])
            capsys.readouterr()
            assert code in (2, 3), (cmd, text[:20])
    # a wide application nests its functor chain as deep as it has
    # arguments: the budget refuses it before any pass walks the chain
    wide = 5_000
    # a deep functor or first argument applied to as many arguments: the
    # chain puts the functor one level deeper per argument and the first
    # argument one level less, and outer arguments put an inner chain
    # deeper still
    lams = "(" + "\\y:e. " * 440 + "y)"
    deep_fun = "((" + lams + " x:e" + " x" * 439 + ")" + " x" * 440 + ")"
    deep_arg = "(f:e " + lams + " x:e" + " x" * 439 + ")"
    for argv in (["parse", "(x:e" + " x" * wide + ")"],
                 ["check", "--lang", "cts", "(p:e@0 x:e@0" + " x" * wide + ")"],
                 ["parse", deep_fun], ["check", deep_fun], ["normalize", deep_fun],
                 ["parse", deep_arg]):
        code, _, err = run(capsys, *argv)
        assert code == 2 and f"nests deeper than {MAX_NESTING}" in err, argv[:-1]
    # negative counts are usage errors; zero stays legal
    counts = [(["harness", "--rule", "beta", "--trials", "-5"], 2),
              (["harness", "--rule", "beta", "--trials", "0"], 0),
              (["normalize", "--fuel", "-3", "e: ((\\x:e. x) y)"], 2),
              (["normalize", "--fuel", "0", "e: ((\\x:e. x) y)"], 3),
              (["prove", "--depth", "-1", "A |- A"], 2),
              (["prove", "--depth", "0", "A |- A"], 1),
              # oversized counts are bounds, not work: these finish at once
              (["prove", "--depth", str(10 ** 30), "A |- A"], 0),
              (["prove", "--depth", str(10 ** 30), "A |- B"], 1),
              (["normalize", "--fuel", str(10 ** 30), "e: ((\\x:e. x) y)"], 0),
              # the run just kept has one step: fuel 0 still runs out
              (["normalize", "--fuel", "0", "e: ((\\x:e. x) y)"], 3),
              # the harness keeps a record per trial: over its cap, exit 3
              (["harness", "--rule", "beta", "--trials", str(10 ** 30)], 3)]
    for argv, want in counts:
        assert main(argv) == want, argv
        capsys.readouterr()
    # goals over the assignment cap, the drawn ones in the first model of
    # the family: exit 3 with the cap's message. Tall `prove` goals are
    # left out until the prover has a node budget
    over = [OVER_CAP_IN_LAST_MODEL, RANK1_POOL_OVER_CAP]
    for _ in range(4):
        atoms = [f"A{i}" for i in range(rng.randint(13, 18))]
        rng.shuffle(atoms)
        cut = rng.randint(1, len(atoms) - 1)
        over.append(f"{drawn_formula(rng, atoms[:cut])} |- "
                    f"{drawn_formula(rng, atoms[cut:])}")
    for goal in over:
        code, out, err = run(capsys, "entail", goal)
        assert (code, out) == (3, "") and err.startswith("ctt: resource cap: "), goal
        assert "Traceback" not in err
    repo = pathlib.Path(__file__).parents[1]
    proc = subprocess.run([sys.executable, str(repo / "scripts" / "run_harness.py"),
                           "--trials", "-1"], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(repo / "src")))
    assert proc.returncode == 2 and "must be >= 0" in proc.stderr, proc.stderr
    proc = subprocess.run([sys.executable, str(repo / "scripts" / "run_harness.py"),
                           "--trials", str(10 ** 30)], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(repo / "src")))
    assert proc.returncode == 3 and "exceeds the cap" in proc.stderr, proc.stderr
    assert "Traceback" not in proc.stderr
    # just inside the budget, later passes over the tree do not overflow
    inside = MAX_NESTING - 2
    for cmd in ("canon", "entail"):
        text = "neg[1](" * inside + "A:bot@0" + ")" * inside
        assert main([cmd, text if cmd == "canon" else "|- " + text]) in (0, 1)
        capsys.readouterr()
    # a 400-step identity chain still normalizes, and 440 arguments still
    # reach the type checker
    chain = "y"
    for _ in range(400):
        chain = f"((\\x:e. x) {chain})"
    code, out, _ = run(capsys, "normalize", "e: " + chain)
    assert code == 0 and out.strip() == "y"
    code, _, err = run(capsys, "parse", "(x:e" + " x" * 440 + ")")
    assert code == 2 and "e is not an arrow type" in err and "nests" not in err
    # truncated and malformed derivation files: an exit code, never a traceback
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Derivation files", 1)[1].split("```\n")[1]
    path = tmp_path / "cut.proof"
    for n in range(len(block) + 1):
        path.write_text(block[:n])
        assert main(["check-proof", str(path)]) in (0, 1, 2), block[:n]
        capsys.readouterr()
    node = "node 1 rule=ax dir=- pos=- concl=A |- A premises="
    twice = node + "-\n" + node.replace("A |- A", "B |- B") + "-\nroot 1"  # node 1 twice
    for text in ("node 1 rule=ax", node + "1,", node + "-\nroot x", node + "-\nroot 9",
                 node.replace("pos=-", "pos=") + "-", node.replace("pos=-", "pos=L0:x") + "-",
                 twice):
        path.write_text(text)
        code, _, err = run(capsys, "check-proof", str(path))
        assert code == 2 and ("bad derivation line" in err or "names no node" in err), text
    # files that are not UTF-8, and numbers in digits int() does not read:
    # exit 2 with a message
    path.write_bytes(b"A |- A\xff")
    model = tmp_path / "bad.mdl"
    bad = [["parse", f"@{path}"], ["check-proof", str(path)],
           ["entail", "--model", str(model), "A |- A"],
           ["iso", "--base", "e=\u00b2", "--element", "{{a}}"]]
    for lines in (b"base e 2\n\xff", "base e \u00b2".encode(), "rankcap \u00b2".encode()):
        model.write_bytes(lines)
        code, _, err = run(capsys, *bad[2])
        assert code == 2 and err.startswith("ctt: "), lines
    for argv in bad:
        code, _, err = run(capsys, *argv)
        assert code == 2 and err.startswith("ctt: "), argv
    # every prefix of the README tour inputs, some corpus texts and the
    # README derivation file, read from a file by every parsing command:
    # parse errors at any token, positions included, end in an exit code
    tour = readme.split("## CLI tour", 1)[1].split("```\n")[1]
    tour_texts = [t for t in re.findall(r"'([^']*)'", tour) if t != "..."]
    texts = tour_texts + corpus.SLM_TEXTS[:3] + corpus.CTS_TEXTS[:3] + [block]
    path = tmp_path / "prefix.txt"
    for text in texts:
        for n in range(len(text) + 1):
            path.write_text(text[:n])
            for cmd in ("parse", "check", "normalize", "canon", "entail", "prove",
                        "check-proof"):
                code, _, err = run(capsys, cmd, f"@{path}")
                assert code in (0, 1, 2, 3) and "Traceback" not in err, (cmd, text[:n])
    # the tour prefixes as `eval` terms of both languages and as `iso` elements
    evals = [["eval", "--lang", "slm", f"@{path}"], ["eval", "--lang", "cts", f"@{path}"],
             ["iso", "--base", "e=3", "--element", f"@{path}"]]
    for text in tour_texts:
        for n in range(len(text) + 1):
            path.write_text(text[:n])
            for argv in evals:
                code, _, err = run(capsys, *argv)
                assert code in (0, 1, 2, 3) and "Traceback" not in err, (argv, text[:n])
    # every prefix of the README model file, as the model of `entail` and `eval`
    world = readme.split("## Model files", 1)[1].split("```\n")[1]
    mdl = tmp_path / "world.mdl"
    uses = [["entail", "--model", str(mdl), "|- (f:(e -> bot)@0 x:e@0), c0:bot@0"],
            ["eval", "--model", str(mdl), "--assign", "p=a", "#x:~e. (x p:e)"],
            ["eval", "--model", str(mdl), "--lang", "cts", "or[1](shadow:e@1, a:e@0)"]]
    for n in range(len(world) + 1):
        mdl.write_text(world[:n])
        for argv in uses:
            code, _, err = run(capsys, *argv)
            assert code in (0, 1, 2, 3) and "Traceback" not in err, (argv, world[:n])


def test_closed_stdout_exits_without_traceback():
    # the read end is closed before the child writes anything
    repo = pathlib.Path(__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    env.pop("PYTHONUNBUFFERED", None)  # ctt's own flush must catch it
    runs = [([sys.executable, "-m", "ctt.cli", "harness", "--rule", "beta",
              "--trials", "5"], env),
            ([sys.executable, str(repo / "scripts" / "run_harness.py"),
              "--trials", "1"], dict(env, PYTHONUNBUFFERED="1"))]
    for argv, child_env in runs:
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=child_env, text=True) as proc:
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 2, err
        assert "Traceback" not in err and "Exception ignored" not in err, err


def test_scope_demo_exits_1_when_a_derivation_fails_to_check():
    # run under -O, where an assert would not check anything; the patched
    # checker is what the script imports
    repo = pathlib.Path(__file__).parents[1]
    script = repo / "scripts" / "scope_demo.py"
    patch = ("import runpy, sys, ctt.sequents as s\n"
             "s.check_derivation = lambda d: s.DerivationFailure((0,), "
             "s.Violation('ax', 'forced failure'))\n"
             "sys.argv = [sys.argv[1]]\n"
             "runpy.run_path(sys.argv[0], run_name='__main__')\n")
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    proc = subprocess.run([sys.executable, "-O", "-c", patch, str(script)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == "reading 1: at 0: ax: forced failure\n"
    assert "re-checked" not in proc.stdout
    proc = subprocess.run([sys.executable, "-O", str(script)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0 and proc.stdout.count("re-checked") == 2, proc.stderr


CENSUS_1 = """\
bot          rank 0:    2   rank 1: 16 (16 distinct)
e            rank 0:    1   rank 1: 4 (4 distinct)
(e -> bot)   rank 0:    2   rank 1: 16 (16 distinct)
"""


@pytest.mark.parametrize("size", ["1", "0", "-1", "5"])
def test_domain_census_refuses_a_size_outside_1_to_4(size):
    # a refused size is one line on stderr and exit 2, not a traceback
    repo = pathlib.Path(__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    proc = subprocess.run(
        [sys.executable, str(repo / "scripts" / "domain_census.py"), "--size", size],
        capture_output=True, text=True, env=env, timeout=60)
    expected = (0, CENSUS_1, "") if size == "1" else (
        2, "", f"domain_census: base e has size {size}; sizes must be 1..4\n")
    assert (proc.returncode, proc.stdout, proc.stderr) == expected


def test_importing_ctt_loads_no_heavy_stdlib_modules():
    # every CLI command pays for what importing ctt pulls in: `dataclasses`
    # brings `inspect`, `ast` and `dis` and generates code with `exec`, and
    # the records do without them; `-I -S` keeps site and the environment out
    repo = pathlib.Path(__file__).parents[1]
    code = ("import sys\n"
            f"sys.path.insert(0, {str(repo / 'src')!r})\n"
            "import ctt.cli, ctt.domains, ctt.gen, ctt.rewrite, ctt.semantics, "
            "ctt.sequents, ctt.syntax\n"
            "print(' '.join(m for m in ('dataclasses', 'inspect', 'ast', 'dis', 'string') "
            "if m in sys.modules))\n")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "\n", "")


def commuted_chain(n):
    """An and[1] chain of n atoms |- the same chain in reverse."""
    names = [f"P{i}" for i in range(n)]

    def chain(xs):
        out = xs[-1]
        for x in reversed(xs[:-1]):
            out = f"and[1]({x},{out})"
        return out
    return f"{chain(names)} |- {chain(names[::-1])}"


SESSION_ROUND = [  # (exit code, argv...); check-proof reads what prove printed
    (0, "normalize", "--fuel", "100", r"e: ((\x:e. x) y)"),
    (0, "prove", "--depth", "30", "and[1](A,B) |- and[1](B,A)"),
    (0, "check-proof"),
    (0, "entail", "A |- A"),
    (0, "entail", "|- or[1](A, neg[1](A))"),
    (1, "entail", "|- x:bot@0"),
    (0, "prove", "--depth", "60", commuted_chain(10)),
    (0, "check-proof"),
]
TERM_NODES = (syntax.Var, syntax.App, syntax.Lam, syntax.Mu,
              syntax.CVar, syntax.CConj, syntax.CDisj, syntax.CNeg)


def test_a_repeated_session_builds_no_term_node_again(capsys, tmp_path, monkeypatch):
    # the window of recent parses keeps a text's nodes alive for the next
    # command that parses it, and each derivation `prove` finds or
    # check-proof reads, so a second round of the README's examples and of
    # a commuted chain finds every term and subterm node and every sequent
    # it needs
    proof = tmp_path / "out.proof"
    kept = (*TERM_NODES, Sequent)

    def one_round():
        for want, *argv in SESSION_ROUND:
            if argv == ["check-proof"]:
                argv.append(str(proof))
            code, out, _ = run(capsys, *argv)
            assert code == want
            if argv[0] == "prove":
                proof.write_text(out)

    def by_class():
        gc.collect()
        counts = dict.fromkeys(kept, 0)
        for key in syntax._INTERNED:
            if key[0] in counts:
                counts[key[0]] += 1
        return counts

    one_round()
    after_first = by_class()
    made, real_intern = [], syntax._intern
    monkeypatch.setattr(syntax, "_intern",
                        lambda key, obj: made.append(key[0]) or real_intern(key, obj))
    one_round()
    assert [cls for cls in made if cls in kept] == []
    assert by_class() == after_first
