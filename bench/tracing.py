"""Spans around the library's public functions, installed from outside.

``install`` replaces each traced function with a wrapper in every module
namespace that holds it, so names brought in with ``from ... import``
(``crystal.hensel_lift_root``, ``motivic.hom_space``,
``motivic.realize_one_motive``) are traced as well.  Nothing under
``src/`` changes.  Spans stay in memory as tuples
(name, start, end, parent index, operation id, detail) and are written
out once the run ends.

Traced: every public function defined in ``linalg``, ``crystal``,
``homsolver`` and ``motivic``, and the three ``padic`` functions that work
on whole polynomials.  Scalar-level helpers (``from_rational``,
``PadicScalar`` arithmetic, ``is_prime``) are left unwrapped: they run per
matrix entry, and their time is counted in the calling function.
"""

from __future__ import annotations

import inspect
import json
import time
from pathlib import Path

LAYERS = ("padic", "linalg", "crystal", "homsolver", "motivic")
PADIC_TRACED = ("hensel_lift_root", "newton_slopes", "integer_square_root")
OP = "op"

NAME, START, END, PARENT, OPID, DETAIL = range(6)


class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    def __init__(self, base_precision: int):
        self.base_precision = base_precision
        self.spans: list = []
        self.op_id = 0
        self._stack = [-1]

    def begin_op(self, index: int) -> None:
        self.op_id = index

    def wrap(self, name: str, fn, detail=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                extra = detail(args, result) if detail is not None and result is not None else None
                spans[index] = (name, start, end, stack[-1], self.op_id, extra)

        traced.__wrapped__ = fn
        return traced

    def kernel_detail(self, args, result):
        """(kind, rows, cols, rank) of a kernel solve; p-adic systems above
        the base precision are the doubled-precision re-solves."""
        m = args[0]
        if m.kind == "rational":
            kind = "rational"
        else:
            kind = "padic_2n" if m.ctx.precision > self.base_precision else "padic"
        return (kind, m.rows, m.cols, m.cols - result.dimension)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for name, start, end, parent, op_id, extra in self.spans:
                row = {"name": name, "start": start, "end": end, "parent": parent, "op": op_id}
                if extra is not None:
                    row["detail"] = extra
                out.write(json.dumps(row) + "\n")


def _traced_functions(lib) -> list[tuple[str, object]]:
    out = [(f"padic.{name}", getattr(lib.padic, name)) for name in PADIC_TRACED]
    for layer in LAYERS[1:]:
        module = getattr(lib, layer)
        for name, fn in vars(module).items():
            if not name.startswith("_") and inspect.isfunction(fn) and fn.__module__ == module.__name__:
                out.append((f"{layer}.{name}", fn))
    return out


def install(tracer: Tracer, lib):
    """Wrap the traced functions everywhere they are bound; returns a
    function that puts the originals back."""
    replaced = []
    for name, fn in _traced_functions(lib):
        detail = tracer.kernel_detail if name == "linalg.kernel" else None
        wrapper = tracer.wrap(name, fn, detail)
        for module in lib.modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    replaced.append((module, attr, fn))

    def restore():
        for module, attr, fn in replaced:
            setattr(module, attr, fn)

    return restore


# -- per-layer metrics ------------------------------------------------------------------


def layer_metrics(spans: list, wall_s: float) -> dict:
    """Counts and times per layer from one traced pass.

    Self time is a span's duration minus the time its direct children
    cover.  Counts repeat exactly for a given input list.
    """
    n = len(spans)
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * n
    hom_child = [0.0] * n
    for i, s in enumerate(spans):
        parent = s[PARENT]
        if parent >= 0:
            child[parent] += dur[i]
            if s[NAME] == "homsolver.hom_space":
                hom_child[parent] += dur[i]
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for i, s in enumerate(spans):
        name = s[NAME]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur[i]
        self_s[name] = self_s.get(name, 0.0) + dur[i] - child[i]

    def parent_is(i: int, name: str) -> bool:
        parent = spans[i][PARENT]
        return parent >= 0 and spans[parent][NAME] == name

    def count_under(name: str, parent: str) -> int:
        return sum(1 for i, s in enumerate(spans) if s[NAME] == name and parent_is(i, parent))

    def per(numerator: int, denominator_name: str) -> float:
        d = calls.get(denominator_name, 0)
        return numerator / d if d else 0.0

    m: dict[str, float] = {}
    m["trace.ops"] = calls.get(OP, 0)
    m["trace.wall_s"] = wall_s
    m["trace.top_span_share"] = sum(dur[i] for i, s in enumerate(spans) if s[PARENT] < 0) / wall_s
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(layer + "."))

    m["homsolver.closure_s"] = sum(
        dur[i] - hom_child[i] for i, s in enumerate(spans) if s[NAME] == "homsolver.end_algebra"
    )
    m["homsolver.in_span.calls"] = calls.get("homsolver.in_span", 0)
    m["homsolver.in_span_per_end"] = per(
        count_under("homsolver.in_span", "homsolver.end_algebra"), "homsolver.end_algebra"
    )
    m["homsolver.kernel_solves_per_hom"] = per(
        count_under("linalg.kernel", "homsolver.hom_space"), "homsolver.hom_space"
    )
    m["homsolver.hom_space.calls"] = calls.get("homsolver.hom_space", 0)
    m["homsolver.hom_space.self_s"] = self_s.get("homsolver.hom_space", 0.0)
    m["homsolver.hom_space.total_s"] = total.get("homsolver.hom_space", 0.0)
    for name in ("end_algebra", "classify_end", "frobenius_membership"):
        m[f"homsolver.{name}.total_s"] = total.get(f"homsolver.{name}", 0.0)
    m["motivic.hom_complex.calls"] = calls.get("motivic.hom_complex", 0)
    m["motivic.hom_complex.total_s"] = total.get("motivic.hom_complex", 0.0)
    m["motivic.hom_space_per_complex"] = per(
        count_under("homsolver.hom_space", "motivic.hom_complex"), "motivic.hom_complex"
    )

    kernels = [(i, s[DETAIL]) for i, s in enumerate(spans) if s[NAME] == "linalg.kernel" and s[DETAIL]]
    for kind in ("rational", "padic", "padic_2n"):
        mine = [(i, d) for i, d in kernels if d[0] == kind]
        m[f"linalg.kernel.{kind}.calls"] = len(mine)
        m[f"linalg.kernel.{kind}.self_s"] = sum(dur[i] - child[i] for i, _ in mine)
        m[f"linalg.kernel.{kind}.cells"] = sum(d[1] * d[2] for _, d in mine)
    m["linalg.kernel.elim_ops"] = sum(d[1] * d[2] * d[3] for _, d in kernels)
    m["linalg.kernel.max_unknowns"] = max((d[2] for _, d in kernels), default=0)
    for name in ("kron", "solve", "mat_mul", "rank", "to_padic"):
        m[f"linalg.{name}.calls"] = calls.get(f"linalg.{name}", 0)
        m[f"linalg.{name}.self_s"] = self_s.get(f"linalg.{name}", 0.0)

    realize = [k for k in calls if k.startswith("crystal.realize_")]
    m["crystal.realize.calls"] = sum(calls[k] for k in realize)
    m["crystal.realize.self_s"] = sum(self_s[k] for k in realize)
    m["crystal.direct_sum.self_s"] = self_s.get("crystal.direct_sum", 0.0)
    m["crystal.dual.self_s"] = self_s.get("crystal.dual", 0.0)
    m["padic.hensel_lift_root.calls"] = calls.get("padic.hensel_lift_root", 0)
    m["padic.hensel_lift_root.self_s"] = self_s.get("padic.hensel_lift_root", 0.0)
    return m


COUNT_METRICS = {
    "trace.ops", "homsolver.in_span_per_end", "homsolver.kernel_solves_per_hom",
    "motivic.hom_space_per_complex", "linalg.kernel.elim_ops", "linalg.kernel.max_unknowns",
}


def is_count(name: str) -> bool:
    """Whether a per-layer metric is a count (repeats exactly) rather than a time."""
    return name in COUNT_METRICS or name.endswith((".calls", ".cells"))
