"""In-memory span tracer for the choquard-lab benchmark.

The tracer wraps public functions of ``choquard_lab`` from outside the
package: every module namespace that bound a function gets the wrapper
(``riesz_apply_matrix``, for example, is imported into ``solver``,
``spectrum``, ``diagnostics`` and ``continuation``), and ``uninstall``
puts the originals back.  Each call records a span (name, start, end,
parent, op id); spans stay in memory until the run writes them out.
A function that no longer exists is reported as absent, and the layer
metrics that need it are left out instead of failing the run.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# (module, function) pairs wrapped in a traced op, by layer.
WRAPPED = [
    ("riesz", "riesz_apply_matrix"),
    ("riesz", "sector_kernel"),
    ("solver", "solve_choquard"),
    ("solver", "equation_residual"),
    ("solver", "linearized_matrix"),
    ("solver", "fit_decay"),
    ("diagnostics", "pohozaev_report"),
    ("diagnostics", "feasible_exponents"),
    ("spectrum", "assemble_lplus"),
    ("spectrum", "eig_smallest"),
    ("continuation", "sweep"),
    ("continuation", "newton_continue"),
    ("grid", "make_grid"),
    ("grid", "kinetic_tridiag"),
    ("grid", "sector_symmetric"),
    ("cli", "main"),
]

LAYER_OF = {fn: mod for mod, fn in WRAPPED}

# per-layer metric -> (unit, functions it is computed from)
LAYER_METRICS = {
    "riesz.assemble_exact_s": ("s", ["riesz_apply_matrix"]),
    "riesz.assemble_angular_s": ("s", ["riesz_apply_matrix"]),
    "riesz.assemble_newton_s": ("s", ["riesz_apply_matrix"]),
    "riesz.cache_read_s": ("s", ["riesz_apply_matrix"]),
    "riesz.apply_calls": ("count", ["riesz_apply_matrix"]),
    "riesz.apply_hit_ratio": ("ratio", ["riesz_apply_matrix"]),
    "riesz.sector_kernel_s": ("s", ["sector_kernel"]),
    "riesz.sector_kernel_calls": ("count", ["sector_kernel"]),
    "solver.solve_self_s": ("s", ["solve_choquard", "riesz_apply_matrix",
                                  "fit_decay"]),
    "solver.iterations": ("count", ["solve_choquard"]),
    "solver.residual_evals": ("count", ["equation_residual"]),
    "solver.newton_steps": ("count", ["linearized_matrix"]),
    "solver.jacobian_s": ("s", ["linearized_matrix"]),
    "solver.fit_decay_s": ("s", ["fit_decay"]),
    "diagnostics.pohozaev_s": ("s", ["pohozaev_report", "riesz_apply_matrix"]),
    "diagnostics.feasible_exponents_s": ("s", ["feasible_exponents"]),
    "spectrum.assemble_lplus_self_s": ("s", ["assemble_lplus"]),
    "spectrum.eig_s": ("s", ["eig_smallest"]),
    "spectrum.eig_calls": ("count", ["eig_smallest"]),
    "continuation.sweep_self_s": ("s", ["sweep"]),
    "continuation.sweep_calls": ("count", ["sweep"]),
    "continuation.continue_self_s": ("s", ["newton_continue"]),
    "continuation.attempts": ("count", ["newton_continue",
                                        "riesz_apply_matrix"]),
    "grid.make_grid_s": ("s", ["make_grid"]),
    "grid.kinetic_s": ("s", ["kinetic_tridiag", "sector_symmetric"]),
    "cli.self_s": ("s", ["main"]),
    "cli.bytes_written": ("bytes", ["main"]),
    "proc.cpu_util": ("ratio", []),
    "trace.overhead_frac": ("ratio", []),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    info: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op, "info": self.info}


class Tracer:
    def __init__(self, cache_dir):
        self.cache_dir = cache_dir
        self.ops: dict[int, list[Span]] = {}
        self.op = -1
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- span recording ---------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self.ops[op] = []
        self._stack = []

    def _cache_files(self) -> set:
        try:
            return set(os.listdir(self.cache_dir))
        except FileNotFoundError:
            return set()

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            info = {}
            if name == "riesz_apply_matrix":
                info = tracer._riesz_info(args, kwargs)
            spans = tracer.ops[tracer.op]
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, time.perf_counter(), 0.0, parent, tracer.op,
                        info)
            tracer._stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if name == "riesz_apply_matrix":
                new = tracer._cache_files() - info.pop("files")
                if new:
                    # the cache file is riesz_<key fields>_<route>.npy
                    info["route"] = Path(new.pop()).stem.rsplit("_", 1)[-1]
            elif name == "solve_choquard":
                info["iterations"] = int(result.iterations)
            return result

        return wrapper

    def _riesz_info(self, args, kwargs) -> dict:
        """The call's arguments, as the key of ``riesz.apply_hit_ratio``,
        and the cache listing that shows whether the call assembled."""
        names = ("grid", "alpha", "ell", "method")
        bound = dict(zip(names, args))
        bound.update(kwargs)
        grid = bound["grid"]
        key = [grid.d, grid.n, grid.r_max, grid.stretch, float(bound["alpha"]),
               int(bound.get("ell", 0)), bound.get("method", "auto")]
        return {"key": key, "files": self._cache_files()}

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every WRAPPED function in every namespace that bound it."""
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == "choquard_lab"
                                      or name.startswith("choquard_lab."))]
        self.absent = []
        for modname, fname in WRAPPED:
            home = sys.modules.get(f"choquard_lab.{modname}")
            orig = getattr(home, fname, None)
            if not callable(orig):
                self.absent.append(fname)
                continue
            wrapper = self._wrap(fname, orig)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched = []


# ---------------------------------------------------------------------------
# per-op analysis


def _children(spans):
    kids = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent is not None:
            kids[s.parent].append(i)
    return kids


def _covered(i, spans, kids, stop) -> float:
    """Time of the outermost descendants of span i for which stop(span)."""
    total = 0.0
    for c in kids[i]:
        if stop(spans[c]):
            total += spans[c].dur
        else:
            total += _covered(c, spans, kids, stop)
    return total


def check_spans(spans) -> list[str]:
    """Nesting problems in one op: children outlasting parents, negative
    self times."""
    problems = []
    kids = _children(spans)
    for i, s in enumerate(spans):
        if s.parent is not None:
            p = spans[s.parent]
            if s.start < p.start or s.end > p.end:
                problems.append(f"span {s.name} outlasts parent {p.name}")
        self_t = s.dur - sum(spans[c].dur for c in kids[i])
        if self_t < -1e-9:
            problems.append(f"span {s.name} has self time {self_t:.3e} s")
    return problems


def op_layer_metrics(spans) -> dict:
    """Per-layer values of one op from its spans."""
    kids = _children(spans)
    m = {name: 0.0 for name in LAYER_METRICS}
    keys = set()

    def any_child(s):
        return True

    def riesz_or_fit(s):
        return LAYER_OF.get(s.name) == "riesz" or s.name == "fit_decay"

    def riesz_layer(s):
        return LAYER_OF.get(s.name) == "riesz"

    for i, s in enumerate(spans):
        if s.name == "riesz_apply_matrix":
            m["riesz.apply_calls"] += 1
            keys.add(tuple(s.info["key"]))
            if "route" in s.info:
                # a route not in LAYER_METRICS is reported as unlisted
                key = f"riesz.assemble_{s.info['route']}_s"
                m[key] = m.get(key, 0.0) + s.dur
            else:
                m["riesz.cache_read_s"] += s.dur
            a = s.parent
            while a is not None and spans[a].name != "newton_continue":
                a = spans[a].parent
            if a is not None:
                m["continuation.attempts"] += 1
        elif s.name == "sector_kernel":
            m["riesz.sector_kernel_s"] += s.dur
            m["riesz.sector_kernel_calls"] += 1
        elif s.name == "solve_choquard":
            m["solver.solve_self_s"] += s.dur - _covered(i, spans, kids,
                                                         riesz_or_fit)
            m["solver.iterations"] += s.info.get("iterations", 0)
        elif s.name == "equation_residual":
            m["solver.residual_evals"] += 1
        elif s.name == "linearized_matrix":
            m["solver.newton_steps"] += 1
            m["solver.jacobian_s"] += s.dur
        elif s.name == "fit_decay":
            m["solver.fit_decay_s"] += s.dur
        elif s.name == "pohozaev_report":
            m["diagnostics.pohozaev_s"] += s.dur - _covered(i, spans, kids,
                                                            riesz_layer)
        elif s.name == "feasible_exponents":
            m["diagnostics.feasible_exponents_s"] += s.dur
        elif s.name == "assemble_lplus":
            m["spectrum.assemble_lplus_self_s"] += s.dur - _covered(
                i, spans, kids, any_child)
        elif s.name == "eig_smallest":
            m["spectrum.eig_s"] += s.dur
            m["spectrum.eig_calls"] += 1
        elif s.name == "sweep":
            m["continuation.sweep_self_s"] += s.dur - _covered(
                i, spans, kids, any_child)
            m["continuation.sweep_calls"] += 1
        elif s.name == "newton_continue":
            m["continuation.continue_self_s"] += s.dur - _covered(
                i, spans, kids, any_child)
        elif s.name == "make_grid":
            m["grid.make_grid_s"] += s.dur
        elif s.name in ("kinetic_tridiag", "sector_symmetric"):
            m["grid.kinetic_s"] += s.dur
        elif s.name == "main":
            m["cli.self_s"] += s.dur - _covered(i, spans, kids, any_child)
    calls = m["riesz.apply_calls"]
    m["riesz.apply_hit_ratio"] = 1.0 - len(keys) / calls if calls else 0.0
    return m


def layer_summary(tracer: Tracer, extra) -> tuple[dict, list, dict]:
    """Median over traced ops of every layer metric whose functions exist.

    ``extra`` maps op id -> values measured outside the spans
    (``cli.bytes_written``, ``proc.cpu_util``).  Returns (metrics, absent
    metric names, medians of assembly routes LAYER_METRICS does not list).
    """
    per_op = []
    for op, spans in tracer.ops.items():
        per_op.append(op_layer_metrics(spans))
        per_op[-1].update(extra.get(op, {}))
    absent = [name for name, (_, needs) in LAYER_METRICS.items()
              if any(fn in tracer.absent for fn in needs)]
    out = {}
    for name, (unit, _) in LAYER_METRICS.items():
        if name in absent or name == "trace.overhead_frac" or not per_op:
            continue
        out[name] = {"value": statistics.median(v[name] for v in per_op),
                     "unit": unit}
    unlisted = {k for v in per_op for k in v
                if k.startswith("riesz.assemble_")} - set(LAYER_METRICS)
    return out, absent, {k: statistics.median(v.get(k, 0.0) for v in per_op)
                         for k in sorted(unlisted)}
