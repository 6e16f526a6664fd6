import os
import pathlib
import random
import re
import string
import subprocess
import sys
import time

from ctt.cli import build_parser, main
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


OVER_CAP_IN_LAST_MODEL = ("|- x:bot@0, (f:(e -> bot)@0 u:e@0), (g:(e -> bot)@0 w:e@0), "
                          "(h:(e -> bot)@0 v:e@0)")


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


def test_parse_failed_retry_keeps_nesting_message(capsys):
    # the plain reading reaches the nesting budget; the `x:` retry fails at
    # once, so the error that got further is reported
    code, _, err = run(capsys, "parse", "x:" + "~" * 600 + "e")
    assert code == 2
    assert f"input nests deeper than {MAX_NESTING} levels" in err


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


def test_readme_derivation_file_checks(capsys, tmp_path):
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Derivation files", 1)[1].split("```\n")[1]
    path = tmp_path / "readme.proof"
    path.write_text(block)
    code, out, _ = run(capsys, "check-proof", str(path))
    assert code == 0
    assert out.strip() == "and[1](A:bot@0,B:bot@0) |- and[1](B:bot@0,A:bot@0)"


def test_prove_negative_exit(capsys):
    code, out, _ = run(capsys, "prove", "--depth", "5", "A |- B")
    assert code == 1


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


def test_harness_subcommand_and_seed_env(capsys, monkeypatch):
    def without_times(text):
        return re.sub(r" ms=\S+", "", text)

    code, out, _ = run(capsys, "harness", "--rule", "beta",
                       "--trials", "4", "--seed", "9")
    assert code == 0
    first = without_times(out)
    monkeypatch.setenv("CTT_SEED", "9")
    code, out, _ = run(capsys, "harness", "--rule", "beta",
                       "--trials", "4", "--seed", "0")
    assert without_times(out) == first  # the environment seed overrides the flag


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


def test_fuzz_no_crash(capsys, tmp_path, monkeypatch):
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
              (["prove", "--depth", "0", "A |- A"], 1)]
    for argv, want in counts:
        assert main(argv) == want, argv
        capsys.readouterr()
    repo = pathlib.Path(__file__).parents[1]
    proc = subprocess.run([sys.executable, str(repo / "scripts" / "run_harness.py"),
                           "--trials", "-1"], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(repo / "src")))
    assert proc.returncode == 2 and "must be >= 0" in proc.stderr, proc.stderr
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
    monkeypatch.setenv("CTT_SEED", "abc")
    code, _, err = run(capsys, "harness", "--rule", "beta", "--trials", "1")
    assert code == 2 and "CTT_SEED" in err


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
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=child_env, text=True)
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 2, err
        assert "Traceback" not in err and "Exception ignored" not in err, err
