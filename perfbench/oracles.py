"""Known-answer checks behind `fail_share`.

Each function returns None when the answer is right and a one-line reason
when it is wrong. None of them calls the program: known answers come from
the README, from the paper's construction (the full-DNF reading of a set
of sets), or from files recorded once at the seed commit under `expected/`.
"""

from __future__ import annotations

import hashlib
import re

_RANK_RE = re.compile(r"\[(\d+)\]")


def digest(text: str, size: int) -> bytes:
    return hashlib.blake2b(text.encode(), digest_size=size).digest()


# -- iso-sweep ---------------------------------------------------------------

def iso_rank(text: str, cap: int = 2):
    ranks = [int(k) for k in _RANK_RE.findall(text)]
    if ranks and max(ranks) > cap:
        return f"output has rank {max(ranks)} > {cap}"
    return None


def iso_digest(text: str, expected: bytes):
    got = digest(text, len(expected))
    return None if got == expected else \
        f"rendering digest {got.hex()} differs from the recorded {expected.hex()}"


def first_seen(seen: dict, value, index: int, what: str):
    """Injectivity: `value` must not already belong to another input."""
    other = seen.setdefault(value, index)
    return None if other == index else f"{what} of input {index} equals that of input {other}"


# -- rule-harness ------------------------------------------------------------

def trial_status(status: str, expected):
    if "f" in status:
        return f"trial reported a failure ({status})"
    if expected is not None and status != expected:
        return f"trial statuses {status!r} differ from the recorded {expected!r}"
    return None


def mutation_control(failures: int):
    return None if failures > 0 else "mutated mu rule passed every trial"


# -- cli-session ---------------------------------------------------------------

def exit_and_stdout(code: int, out: str, want_code: int, want_out: str):
    if code != want_code:
        return f"exit code {code}, expected {want_code}"
    if out != want_out:
        return f"stdout {out[:80]!r} differs from {want_out[:80]!r}"
    return None


def machine_normalize(code: int, out: str, steps: int, payload: str):
    lines = out.splitlines()
    if code != 0 or not lines:
        return f"exit code {code} with {len(lines)} output lines"
    step_lines = sum(1 for ln in lines if ln.startswith("step="))
    want = f"status=ok cmd=normalize steps={steps} payload={payload}"
    if step_lines != steps or lines[-1] != want:
        return f"{step_lines} step lines and {lines[-1]!r}; expected {steps} and {want!r}"
    return None


def derivation_root(code: int, out: str, conclusion: str):
    """A `prove` answer: exit 0 and a derivation file whose root node
    concludes the goal."""
    lines = out.splitlines()
    if code != 0 or len(lines) < 2 or not lines[-1].startswith("root "):
        return f"exit code {code}; no derivation file"
    root = lines[-1].split()[1]
    for ln in lines:
        if ln.startswith(f"node {root} "):
            concl = ln.split(" concl=", 1)[1].rsplit(" premises=", 1)[0]
            return None if concl == conclusion else \
                f"root concludes {concl!r}, not {conclusion!r}"
    return f"root node {root} is missing"


def full_dnf(carrier: list[str], sets: list[frozenset]) -> str:
    """The type-reduction isomorphism on a set of sets, rendered: each member
    set is the rank-1 minterm with a positive literal per member atom and a
    negative one per non-member; the result is the rank-1 join of the
    minterms. Children print sorted by their text; one-child nodes collapse,
    and the principal family of an atom (the 2^(g-1) sets through it) is the
    atom itself."""
    family = set(sets)
    if len(family) == 2 ** (len(carrier) - 1):
        for a in carrier:
            if all(a in s for s in family):
                return a

    def node(op: str, children: list[str]) -> str:
        children = sorted(set(children))
        if len(children) == 1:
            return children[0]
        return f"{op}[1](" + ",".join(children) + ")"

    minterms = [node("and", [a if a in s else f"neg[1]({a})" for a in carrier])
                for s in family]
    return node("or", minterms)
