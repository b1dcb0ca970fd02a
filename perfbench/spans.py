"""Spans around the package's functions for the traced run.

``Tracer.install`` replaces each traced function by a recording wrapper
everywhere the package binds it: in every ``staircase_lab.*`` module
namespace (``catalog`` imports ``deformed_section_space`` by name, for
example) and on its class (``HilbertFunction.from_diff`` is a staticmethod).
``uninstall`` puts the originals back, so untraced passes run the plain code.

A span is (name id, start, end, parent span index), kept in flat arrays in
memory and written out when the run ends.  Self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import gzip
import json
import statistics
import sys
import time
from array import array
from collections import defaultdict

# (module, qualname, extra): the extra names a count or ratio besides calls
# and self time, recorded by the hook of the same name below.
TARGETS = [
    ("hilbert", "enumerate_hilbert_functions", "items"),
    ("hilbert", "HilbertFunction.g_star", None),
    ("hilbert", "HilbertFunction.from_diff", None),
    ("hilbert", "pairwise_comparable", "useful_ratio"),
    ("standard_form", "decompose", "split_ratio"),
    ("standard_form", "type_of", None),
    ("standard_form", "compose", None),
    ("standard_form", "detect_standard_form", "form_ratio"),
    ("staircase", "enumerate_ideals", "items"),
    ("staircase", "from_generators", None),
    ("staircase", "GradedMonomialIdeal.hilbert_function", None),
    ("staircase", "GradedMonomialIdeal.borel_closure", None),
    ("staircase", "GradedMonomialIdeal.section_monomials", None),
    ("pyramids", "brute_force_max_weight", None),
    ("pyramids", "Pyramid.weight", None),
    ("pyramids", "max_weight_closed_form", None),
    ("pyramids", "endpoint_consistency", None),
    ("alphagrade", "minmax_alpha_grade", None),
    ("alphagrade", "right_domain_spread", None),
    ("alphagrade", "alpha_grade_monomials", None),
    ("alphagrade", "alpha_grade_columns", None),
    ("alphagrade", "cycle_degree", None),
    ("alphagrade", "chapter14_degrees", None),
    ("torus", "deformed_section_space", "chains"),
    ("torus", "limit_ideal", None),
    ("catalog", "build_space", None),
    ("catalog", "marker_deformation_space", None),
    ("inequalities", "inequality_scan", "cases"),
]

PACKAGE = "staircase_lab"
SELECTION_SEARCH = "alphagrade.minmax_alpha_grade"
SELECTION_GRADE = "alphagrade.alpha_grade_monomials"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# hooks: (args, result) -> {counter: increment}; counters ending in ".num"
# and ".den" are combined into a ratio
HOOKS = {
    "items": lambda args, result: {"items": len(result)},
    "useful_ratio": lambda args, result: {
        "useful_ratio.num": len(result),
        "useful_ratio.den": len(args[0]) * (len(args[0]) - 1),
    },
    "split_ratio": lambda args, result: {"split_ratio.num": result is not None, "split_ratio.den": 1},
    "form_ratio": lambda args, result: {"form_ratio.num": result is not None, "form_ratio.den": 1},
    "chains": lambda args, result: {"chains": result.dimension},
    "cases": lambda args, result: {"cases": result.cases_run},
}


def metric_names(suites) -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for module, qualname, extra in TARGETS:
        base = f"{module}.{qualname}"
        out += [(f"{base}.calls", "count"), (f"{base}.self_s", "s")]
        if extra:
            out.append((f"{base}.{extra}", "ratio" if extra.endswith("ratio") else "count"))
    out.append(("alphagrade.selections.useful_ratio", "ratio"))
    out += [(f"suites.{suite}.wall_s", "s") for suite in suites]
    out.append(("suites.self_s", "s"))
    out += [("cli.interpreter_s", "s"), ("cli.import_s", "s"), ("cli.command_s", "s")]
    out.append(("trace.overhead_s", "s"))
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.passes: list[dict] = []
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- recording ----------------------------------------------------------

    def begin_pass(self) -> None:
        self.cur = {
            "name": array("i"),
            "start": array("d"),
            "end": array("d"),
            "parent": array("i"),
            "counters": defaultdict(float),
            "spaces": [],
        }
        self.stack = [-1]
        self.passes.append(self.cur)

    def _push(self, nid: int) -> int:
        cur = self.cur
        idx = len(cur["name"])
        cur["name"].append(nid)
        cur["parent"].append(self.stack[-1])
        cur["start"].append(0.0)
        cur["end"].append(0.0)
        self.stack.append(idx)
        return idx

    def _pop(self, idx: int, start: float) -> None:
        self.cur["start"][idx] = start
        self.cur["end"][idx] = time.perf_counter()
        self.stack.pop()

    def open(self, name: str) -> tuple[int, float]:
        """Open a span around a benchmark operation; pass the result to close."""
        return self._push(self._id(name)), time.perf_counter()

    def close(self, token: tuple[int, float]) -> None:
        self._pop(*token)

    def _wrap(self, name: str, fn, extra):
        nid = self._id(name)
        hook = HOOKS.get(extra)
        keep_space = name == SELECTION_SEARCH
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._push(nid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._pop(idx, start)
            cur = tracer.cur
            if hook is not None:
                for key, inc in hook(args, result).items():
                    cur["counters"][f"{name}.{key}"] += inc
            if keep_space:
                cur["spaces"].append(args[0])
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for module_name, qualname, extra in TARGETS:
            name = f"{module_name}.{qualname}"
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    new = staticmethod(self._wrap(name, raw.__func__, extra))
                else:
                    new = self._wrap(name, raw, extra)
                self._patched.append((cls, attr, raw))
                setattr(cls, attr, new)
                continue
            original = getattr(module, qualname)
            wrapper = self._wrap(name, original, extra)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results ------------------------------------------------------------------

    def _pass_metrics(self, rec: dict) -> dict:
        names, starts, ends, parents = rec["name"], rec["start"], rec["end"], rec["parent"]
        n = len(names)
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = defaultdict(int)
        self_s = defaultdict(float)
        wall = defaultdict(float)
        search_id = self._ids.get(SELECTION_SEARCH)
        graded = 0
        for i in range(n):
            name = self.names[names[i]]
            dur = ends[i] - starts[i]
            calls[name] += 1
            self_s[name] += dur - child[i]
            wall[name] += dur
            if name == SELECTION_GRADE and parents[i] >= 0 and names[parents[i]] == search_id:
                graded += 1
        out = {}
        for module_name, qualname, extra in TARGETS:
            base = f"{module_name}.{qualname}"
            out[f"{base}.calls"] = calls[base]
            out[f"{base}.self_s"] = self_s[base]
            if extra and extra.endswith("ratio"):
                c = rec["counters"]
                out[f"{base}.{extra}"] = _ratio(c[f"{base}.{extra}.num"], c[f"{base}.{extra}.den"])
            elif extra:
                out[f"{base}.{extra}"] = rec["counters"][f"{base}.{extra}"]
        product = 0
        for space in rec["spaces"]:
            size = 1
            for chain in space.chains:
                size *= len(chain.monomials(space.weight))
            product += size
        out["alphagrade.selections.useful_ratio"] = _ratio(graded, product)
        suites = {k: v for k, v in wall.items() if k.startswith("suites.")}
        for name, dur in suites.items():
            out[f"{name}.wall_s"] = dur
        out["suites.self_s"] = sum(self_s[name] for name in suites)
        return out

    def metrics(self, scales=None) -> dict:
        """Median over the traced passes of each per-pass value; times
        (names ending in ``_s``) are multiplied by the pass's scale."""
        scales = scales or [1.0] * len(self.passes)
        per_pass = []
        for rec, scale in zip(self.passes, scales):
            values = self._pass_metrics(rec)
            per_pass.append({k: v * scale if k.endswith("_s") else v for k, v in values.items()})
        keys = sorted({k for p in per_pass for k in p})
        return {k: statistics.median(p.get(k, 0) for p in per_pass) for k in keys}

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for k, rec in enumerate(self.passes):
                handle.write(json.dumps({
                    "pass": k,
                    "names": self.names,
                    "name": rec["name"].tolist(),
                    "start": rec["start"].tolist(),
                    "end": rec["end"].tolist(),
                    "parent": rec["parent"].tolist(),
                }) + "\n")
