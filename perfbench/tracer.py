"""Per-layer tracing of ctt from outside the program.

The tracer replaces public functions of the seven `ctt` modules with
wrappers, in every module namespace that bound them (the defining module
and each `from .x import f` site), and restores them on `uninstall`.

Each wrapper counts every call. A wrapper opens a span only when no call
of the same layer is already open, so recursive functions (`apply_elem`,
`eval_cts`, `canonical_key`, ...) cost one span per outermost call. A
span records its layer, start, end, parent span and the id of the op it
belongs to (-1 for set-up). Spans are kept in flat arrays and written out
at the end of the run; self time is a span's duration minus the spans of
its children.
"""

from __future__ import annotations

import json
import os
import sys
from array import array
from functools import wraps
from time import perf_counter

# (layer, module, functions, span?). A layer with span=False only counts.
LAYERS = (
    ("syntax.parse", "syntax",
     ("parse_slm", "parse_cts", "parse_sequent_members", "parse_type"), True),
    ("syntax.rank_check", "syntax", ("rank_check",), True),
    ("syntax.render", "syntax", ("render",), True),
    ("rewrite.normalize", "rewrite", ("normalize",), True),
    ("rewrite.step", "rewrite", ("step",), True),
    ("rewrite.substitute", "rewrite", ("substitute",), True),
    ("domains.apply_elem", "domains", ("apply_elem",), True),
    ("domains.lattice", "domains", ("make_neg", "make_meet", "make_join"), True),
    ("domains.ba_leq", "domains", ("ba_leq",), True),
    ("domains.ba_equal", "domains", ("ba_equal",), True),
    ("domains.canonical_key", "domains", ("canonical_key",), True),
    ("domains.iso_i", "domains", ("iso_i",), True),
    ("domains.enumerate_domain", "domains", ("enumerate_domain",), True),
    ("semantics.sequent_valid", "semantics", ("sequent_valid",), True),
    ("semantics.eval_cts", "semantics", ("eval_cts",), True),
    ("semantics.assignments", "semantics", ("sequent_semantics",), False),
    ("semantics.eval_slm", "semantics", ("eval_slm",), True),
    ("semantics.check_equation", "semantics", ("check_equation",), True),
    ("sequents.prove", "sequents", ("prove",), True),
    ("sequents.check_derivation", "sequents", ("check_derivation",), True),
    ("sequents.derivation_file", "sequents",
     ("render_derivation_file", "parse_derivation_file"), True),
    ("sequents.check_rule_instance", "sequents", ("check_rule_instance",), True),
    ("gen.rule_instance", "gen", ("cts_rule_instance", "slm_rule_instance"), True),
    ("cli.main", "cli", ("main",), True),
)

# `render_elem` recurses and is called from the sort key of every lattice
# constructor; it is timed only at the benchmark's own call sites (see
# `Tracer.timed`) and otherwise counts toward the layer that called it.
RENDER_LAYER = "domains.render_elem"

CACHE_METRICS = (
    "domains.render_elem.hit_ratio", "domains.render_elem.entries",
    "domains.canonical_key.hit_ratio", "domains.canonical_key.entries",
    "domains.iso_atom_cache.entries", "domains.minterm_cache.entries",
)
EXTRA_METRICS = (
    "rewrite.normalize.steps", "rewrite.normalize.us_per_step",
    "sequents.prove.found_ratio",
    "domains.enumerate_domain.setup_calls", "domains.enumerate_domain.setup_ms",
)
TRACE_METRICS = (
    "trace.ops", "trace.spans", "trace.op_ms", "trace.unattributed_ms",
    "trace.unattributed_share", "trace.overhead_ratio",
)
WORKLOAD_METRICS = ("semantics.harness.pass_ratio",)


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("us_per_step"):
        return "us"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def metric_names() -> list[str]:
    """Every metric a traced run reports, in report order."""
    names = []
    for layer, _, _, span in LAYERS:
        names += [f"{layer}.calls", f"{layer}.self_ms"] if span else [f"{layer}.count"]
    names += [f"{RENDER_LAYER}.calls", f"{RENDER_LAYER}.self_ms"]
    return names + list(CACHE_METRICS + EXTRA_METRICS + WORKLOAD_METRICS + TRACE_METRICS)


def metric_units() -> dict[str, str]:
    return {n: _unit(n) for n in metric_names()}


class Tracer:
    def __init__(self, ctt):
        self.ctt = ctt
        self.layers = [layer for layer, _, _, _ in LAYERS] + [RENDER_LAYER]
        self.index = {name: i for i, name in enumerate(self.layers)}
        self.calls = [0] * len(self.layers)
        self.active = [0] * len(self.layers)
        self.start, self.end = array("d"), array("d")
        self.parent, self.layer, self.op = array("l"), array("l"), array("l")
        self.stack: list[int] = []
        self.op_id = -1
        self.normalize_steps = 0
        self.proves = self.proves_found = 0
        self._patches: list[tuple[object, str, object]] = []
        self.render_elem = ctt.domains.render_elem
        self.canonical_key = ctt.domains.canonical_key

    # -- spans ------------------------------------------------------------
    def _open(self, li: int) -> int:
        idx = len(self.start)
        self.start.append(0.0)
        self.end.append(0.0)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.layer.append(li)
        self.op.append(self.op_id)
        self.stack.append(idx)
        self.active[li] = 1
        return idx

    def _close(self, li: int, idx: int, t0: float, t1: float):
        self.start[idx] = t0
        self.end[idx] = t1
        self.stack.pop()
        self.active[li] = 0

    def _wrap(self, li: int, fn, span: bool, hook):
        calls, active = self.calls, self.active

        @wraps(fn)
        def wrapper(*args, **kwargs):
            calls[li] += 1
            if not span or active[li]:
                return fn(*args, **kwargs)
            idx = self._open(li)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(li, idx, t0, perf_counter())
            if hook is not None:
                hook(result)
            return result

        return wrapper

    def timed(self, layer: str, fn, *args):
        """Call `fn` under a span of `layer` (for the benchmark's own call
        sites of functions that are not wrapped in place)."""
        li = self.index[layer]
        self.calls[li] += 1
        idx = self._open(li)
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(li, idx, t0, perf_counter())

    # -- install / uninstall ----------------------------------------------
    def _hook(self, layer: str):
        if layer == "rewrite.normalize":
            def count_steps(result):
                self.normalize_steps += len(result[1].steps)
            return count_steps
        if layer == "sequents.prove":
            def count_found(result):
                self.proves += 1
                self.proves_found += result is not None
            return count_found
        return None

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "ctt" or name.startswith("ctt."))]
        for layer, module, functions, span in LAYERS:
            li = self.index[layer]
            for fname in functions:
                orig = getattr(getattr(self.ctt, module), fname)
                wrapper = self._wrap(li, orig, span, self._hook(layer))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                            self._patches.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    # -- reporting --------------------------------------------------------
    def cache_state(self) -> dict:
        r, k = self.render_elem.cache_info(), self.canonical_key.cache_info()
        return {"render_hits": r.hits, "render_misses": r.misses,
                "render_entries": r.currsize,
                "key_hits": k.hits, "key_misses": k.misses,
                "key_entries": k.currsize,
                "iso_atom": len(self.ctt.domains._ISO_ATOM_CACHE),
                "minterm": len(self.ctt.domains._MINTERM_CACHE)}

    def self_times(self):
        """Per-layer self seconds over op spans, per-layer self seconds over
        set-up spans, per-layer inclusive seconds over op spans, and the
        seconds of op time covered by top-level spans."""
        n = len(self.start)
        start, end, parent = self.start, self.end, self.parent
        child = array("d", bytes(8 * n))
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += end[i] - start[i]
        width = len(self.layers)
        op_self, setup_self, op_total = [0.0] * width, [0.0] * width, [0.0] * width
        covered = 0.0
        for i in range(n):
            li, dur = self.layer[i], end[i] - start[i]
            if self.op[i] < 0:
                setup_self[li] += dur - child[i]
                continue
            op_self[li] += dur - child[i]
            op_total[li] += dur
            if parent[i] < 0:
                covered += dur
        return op_self, setup_self, op_total, covered

    def write_spans(self, path: str):
        """Spans as a JSON header plus the raw arrays, in one file."""
        header = json.dumps({"layers": self.layers, "spans": len(self.start),
                             "arrays": ["start", "end", "parent", "layer", "op"],
                             "typecodes": ["d", "d", "l", "l", "l"]}).encode()
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(len(header).to_bytes(4, "little"))
            fh.write(header)
            for arr in (self.start, self.end, self.parent, self.layer, self.op):
                arr.tofile(fh)


def read_spans(path: str) -> dict:
    """Inverse of `Tracer.write_spans`: {"layers": [...], "start": array, ...}."""
    with open(path, "rb") as fh:
        size = int.from_bytes(fh.read(4), "little")
        header = json.loads(fh.read(size))
        out = {"layers": header["layers"]}
        for name, code in zip(header["arrays"], header["typecodes"]):
            arr = array(code)
            arr.fromfile(fh, header["spans"])
            out[name] = arr
    return out
