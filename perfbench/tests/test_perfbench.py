"""Tests of the benchmark itself (not of ctt).

    python3 -m pytest perfbench/tests -q

Runs each workload at a tiny size, checks that every oracle flags a wrong
answer, and that metric names match BENCHMARK.json. Scratch files go under
perfbench/.work/.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work", "tests")
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("iso-sweep", "rule-harness", "cli-session")
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)


def run(workload, trace=0, ops=120, cwd=ROOT, script=None):
    cmd = [sys.executable, script or os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--ops", str(ops)]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc


def corrupt_copy(name: str, edit) -> str:
    """A copy of expected/ with one file rewritten by `edit(path)`."""
    target = os.path.join(WORK, f"expected-{name}")
    shutil.rmtree(target, ignore_errors=True)
    shutil.copytree(os.path.join(HERE, "expected"), target)
    edit(target)
    return target


# -- smoke runs --------------------------------------------------------------

@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_smoke(workload):
    code, result, proc = run(workload)
    assert code == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 120
    names = [m["name"] for m in BENCH["end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    for m in BENCH["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_accounts_for_op_time(workload):
    code, result, proc = run(workload, trace=1, ops=100)
    assert code == 0, proc.stderr
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert sorted(m) == sorted(p["name"] for p in BENCH["per_layer"])
    self_ms = sum(v for k, v in m.items() if k.endswith(".self_ms"))
    assert self_ms + m["trace.unattributed_ms"] == pytest.approx(m["trace.op_ms"], rel=1e-6)
    assert m["trace.overhead_ratio"] > 0 and m["trace.ops"] == 100
    spans = tracer.read_spans(os.path.join(HERE, ".work", f"spans-{workload}.bin"))
    assert len(spans["start"]) == m["trace.spans"]
    assert all(s <= e for s, e in zip(spans["start"], spans["end"]))


def test_metric_names_are_declared():
    declared = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(declared) == len(set(declared))
    assert all(NAME_RE.fullmatch(n) for n in declared)
    assert [m["name"] for m in BENCH["per_layer"]] == tracer.metric_names()
    units = tracer.metric_units()
    assert all(m["unit"] == units[m["name"]] for m in BENCH["per_layer"])
    assert sorted(w["name"] for w in BENCH["workloads"]) == sorted(workloads.WORKLOADS)


def test_bare_checkout_fails_without_result():
    """With only BENCHMARK.json and perfbench/ present, the run must fail
    and print no result."""
    bare = os.path.join(WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    code, result, _ = run("cli-session", cwd=bare,
                          script=os.path.join(bare, "perfbench", "run.py"))
    assert code != 0 and result is None


def test_tracer_restores_functions():
    import run as bench_run
    ctt = bench_run.import_ctt()
    before = {m: dict(vars(getattr(ctt, m))) for m in bench_run.MODULES}
    tr = tracer.Tracer(ctt)
    tr.install()
    assert ctt.semantics.apply_elem is not before["semantics"]["apply_elem"]
    tr.op_id = 0
    assert ctt.cli.main(["entail", "A |- A"]) == 0
    tr.uninstall()
    after = {m: dict(vars(getattr(ctt, m))) for m in bench_run.MODULES}
    assert after == before
    assert tr.calls[tr.index["cli.main"]] == 1 and tr.calls[tr.index["syntax.parse"]] >= 1


def test_host_speed_scaling():
    import hostspeed
    assert hostspeed.unit_s() > 0
    assert hostspeed.scale(2.0, hostspeed.REF_S) == 2.0
    assert hostspeed.scale(3.0, 2 * hostspeed.REF_S) == 1.5


# -- each oracle flags a wrong answer -----------------------------------------

def test_iso_oracles_flag_wrong_answers():
    assert oracles.iso_rank("or[2](and[1](a,neg[1](a)))") is None
    assert oracles.iso_rank("or[3](a,neg[1](a))")
    right = "or[2](a,neg[2](neg[1](a)))"
    assert oracles.iso_digest(right, oracles.digest(right, 4)) is None
    assert oracles.iso_digest(right + " ", oracles.digest(right, 4))
    seen = {}
    assert oracles.first_seen(seen, "x", 1, "rendering") is None
    assert oracles.first_seen(seen, "x", 1, "rendering") is None
    assert oracles.first_seen(seen, "x", 2, "rendering")


def test_harness_oracles_flag_wrong_answers():
    assert oracles.trial_status("p", "p") is None
    assert oracles.trial_status("f", "f")
    assert oracles.trial_status("s", "p")
    assert oracles.mutation_control(3) is None
    assert oracles.mutation_control(0)


def test_cli_oracles_flag_wrong_answers():
    assert oracles.exit_and_stdout(0, "y\n", 0, "y\n") is None
    assert oracles.exit_and_stdout(1, "y\n", 0, "y\n")
    assert oracles.exit_and_stdout(0, "x\n", 0, "y\n")
    good = ("step=0 pos=root rule=beta before=a after=b\n"
            "status=ok cmd=normalize steps=1 payload=y:e\n")
    assert oracles.machine_normalize(0, good, 1, "y:e") is None
    assert oracles.machine_normalize(0, good, 2, "y:e")
    assert oracles.machine_normalize(0, good.replace("payload=y", "payload=z"), 1, "y:e")
    proof = "node 1 rule=ax dir=- pos=- concl=A:bot@0 |- A:bot@0 premises=-\nroot 1\n"
    assert oracles.derivation_root(0, proof, "A:bot@0 |- A:bot@0") is None
    assert oracles.derivation_root(0, proof, "B:bot@0 |- B:bot@0")
    assert oracles.derivation_root(1, proof, "A:bot@0 |- A:bot@0")
    size, element, golden = workloads.README_ISO
    family = [frozenset("a"), frozenset("bc")]
    assert oracles.full_dnf(list("abc"), family) == golden
    assert oracles.full_dnf(list("ab"), [frozenset("a"), frozenset("ab")]) == "a"


def test_proved_sequent_validity_oracle_flags_an_invalid_conclusion():
    import run as bench_run
    wl = workloads.CliSession(bench_run.import_ctt(), 0,
                              workloads.Env(bench_run.EXPECTED, WORK))
    wl.proved = {"A:bot@0 |- A:bot@0"}
    assert wl.finish() == []
    wl.proved.add("|- x:bot@0")
    assert len(wl.finish()) == 1


def _flip_digests(d):
    path = os.path.join(d, "iso_render_digests.bin")
    with open(path, "rb") as fh:
        data = bytes(b ^ 0xFF for b in fh.read())
    with open(path, "wb") as fh:
        fh.write(data)


def _skip_statuses(d):
    path = os.path.join(d, "harness_status.json")
    with open(path) as fh:
        table = json.load(fh)
    with open(path, "w") as fh:
        json.dump({r: [s.replace("p", "s") for s in v] for r, v in table.items()}, fh)


def _wrong_goldens(d):
    path = os.path.join(d, "cli_goldens.json")
    with open(path) as fh:
        goldens = json.load(fh)
    goldens["canon"]["stdout"] = goldens["canon"]["stdout"].replace("or[2]", "or[1]")
    with open(path, "w") as fh:
        json.dump(goldens, fh)


@pytest.mark.parametrize("workload,edit", [
    ("iso-sweep", _flip_digests),
    ("rule-harness", _skip_statuses),
    ("cli-session", _wrong_goldens),
])
def test_corrupted_expected_answer_drives_fail_share(workload, edit):
    import run as bench_run
    env = workloads.Env(corrupt_copy(workload, edit), WORK)
    wl = workloads.WORKLOADS[workload](bench_run.import_ctt(), 3, env)
    latencies, reasons, *_ = bench_run.timed_ops(wl, 0, 50)
    assert len(latencies) == 50 and len(reasons) > 0
