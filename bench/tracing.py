"""Span tracing of lpmax layers, installed from outside the package.

``Tracer.install`` wraps each public layer function and rebinds the wrapper
under every ``lpmax.*`` module attribute that holds the original function
object, so internal callers (``mlopt`` calling ``solve_vecp``, ``Tensor``
calling ``is_supersymmetric``) are caught wherever the function is imported.
``uninstall`` restores every binding.  Spans stay in memory as
``Span`` records (name, start, end, parent, operation id) and are written out
once, when the run ends.

The wrappers assume one thread, which holds at the CLI default
``--threads 1``.
"""
from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

ROOT = "cli"

# (span name, module, attribute) for every wrapped layer function.
LAYERS = (
    ("pqnorm.solve_vecp", "lpmax.pqnorm", "solve_vecp"),
    ("pqnorm.round_gram", "lpmax.pqnorm", "round_gram"),
    ("mlopt.solve_ml", "lpmax.mlopt", "solve_ml"),
    ("hpopt.solve_hp", "lpmax.hpopt", "solve_hp"),
    ("hpopt.polarize_odd", "lpmax.hpopt", "polarize_odd"),
    ("hpopt.polarize_even", "lpmax.hpopt", "polarize_even"),
    ("sampler.sample_rademacher", "lpmax.sampler", "sample_rademacher"),
    ("sampler.sample_pgauss", "lpmax.sampler", "sample_pgauss"),
    ("sampler.derive_rng", "lpmax.sampler", "derive_rng"),
    ("tensor.eval_multilinear", "lpmax.tensor", "eval_multilinear"),
    ("tensor.is_supersymmetric", "lpmax.tensor", "is_supersymmetric"),
    ("tensor.load_tensor", "lpmax.tensor", "load_tensor"),
    ("oracle.exact_ml_linf", "lpmax.oracle", "exact_ml_linf"),
    ("oracle.grid_ml", "lpmax.oracle", "grid_ml"),
    ("oracle.grid_hp", "lpmax.oracle", "grid_hp"),
    ("symmetry.symmetrize", "lpmax.symmetry", "symmetrize"),
)

# HpInstance is a dataclass; its validation runs in __post_init__, which the
# generated __init__ looks up on the class at call time.
METHODS = (("hpopt.instance", "lpmax.hpopt", "HpInstance", "__post_init__"),)


@dataclass
class Span:
    id: int
    op: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    error: str | None = None
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _surface_points(n: int, steps: int) -> int:
    return steps ** n - max(steps - 2, 0) ** n


def _dims(arr) -> tuple:
    return tuple(np.shape(getattr(arr, "data", arr)))


def _grid_ml_info(args, kwargs, out):
    dims, steps = _dims(args[0]), int(args[2] if len(args) > 2 else kwargs["steps"])
    points = 1
    for n in dims[:-1]:
        points *= _surface_points(n, steps)
    return {"grid_points": points}


def _grid_hp_info(args, kwargs, out):
    dims, steps = _dims(args[0]), int(args[2] if len(args) > 2 else kwargs["steps"])
    return {"grid_points": _surface_points(dims[0], steps)}


def _round_gram_info(args, kwargs, out):
    g = args[1] if len(args) > 1 else kwargs["g"]
    return {"yield": out.value / g.value if g.value else None}


def _solve_hp_info(args, kwargs, out):
    return {"recovery": out.value / out.ml_value if out.ml_value else None}


INFO = {
    "oracle.grid_ml": _grid_ml_info,
    "oracle.grid_hp": _grid_hp_info,
    "pqnorm.round_gram": _round_gram_info,
    "hpopt.solve_hp": _solve_hp_info,
}


class Tracer:
    """In-memory span recorder for single-threaded lpmax calls."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._op = -1
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(id=len(self.spans), op=self._op, name=name, parent=parent,
                    start=time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span, error: str | None = None) -> None:
        span.end = time.perf_counter()
        span.error = error
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def run_op(self, op_id: int, fn):
        """Run ``fn`` as operation ``op_id`` under a root span; return its result."""
        self._op = op_id
        root = self.open(ROOT)
        try:
            return fn()
        finally:
            self.close(root)

    def wrap(self, name: str, fn):
        info = INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(span, error=type(exc).__name__)
                raise
            self.close(span)
            if info is not None:
                span.info = info(args, kwargs, out)
            return out

        return traced

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        """Rebind every lpmax module attribute holding a layer function."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "lpmax" or n.startswith("lpmax.")) and m is not None]
        for name, modname, attr in LAYERS:
            original = getattr(sys.modules[modname], attr)
            wrapper = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, value))
                        setattr(mod, key, wrapper)
        for name, modname, cls_name, meth in METHODS:
            cls = getattr(sys.modules[modname], cls_name)
            original = cls.__dict__[meth]
            self._saved.append((cls, meth, original))
            setattr(cls, meth, self.wrap(name, original))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._saved):
            setattr(owner, key, value)
        self._saved.clear()

    def dump(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "op": s.op, "name": s.name,
                                     "parent": s.parent, "start": s.start,
                                     "end": s.end, "error": s.error,
                                     "info": s.info}) + "\n")


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval that child spans cover.

    Child intervals are clipped to the parent and merged before subtracting,
    so overlapping children are not counted twice.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted((max(c.start, s.start), min(c.end, s.end))
                             for c in children.get(s.id, ())):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.id] = s.duration - covered
    return out


def _median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


# (metric, unit) for every per-layer metric, in report order.
PER_LAYER = (
    ("pqnorm.solve_vecp.calls_per_op", "count"),
    ("pqnorm.solve_vecp.s_p50", "s"),
    ("pqnorm.solve_vecp.share", "fraction"),
    ("pqnorm.solve_vecp.conv_errors", "count"),
    ("pqnorm.round_gram.calls_per_op", "count"),
    ("pqnorm.round_gram.s_p50", "s"),
    ("pqnorm.round_gram.share", "fraction"),
    ("pqnorm.round_gram.yield_p50", "ratio"),
    ("mlopt.solve_ml.calls_per_op", "count"),
    ("mlopt.solve_ml.self_share", "fraction"),
    ("mlopt.candidates_per_op", "count"),
    ("mlopt.s_per_candidate", "s"),
    ("sampler.calls_per_op", "count"),
    ("sampler.share", "fraction"),
    ("hpopt.polarize.s_p50", "s"),
    ("hpopt.polarize.share", "fraction"),
    ("hpopt.instance.share", "fraction"),
    ("hpopt.recovery_ratio_min", "ratio"),
    ("tensor.load_tensor.s_p50", "s"),
    ("tensor.load_tensor.share", "fraction"),
    ("tensor.eval_multilinear.calls_per_op", "count"),
    ("tensor.is_supersymmetric.share", "fraction"),
    ("oracle.exact_ml_linf.s_p50", "s"),
    ("oracle.grid_ml.s_p50", "s"),
    ("oracle.grid_hp.s_p50", "s"),
    ("oracle.share", "fraction"),
    ("oracle.grid_points_per_s", "1/s"),
    ("symmetry.symmetrize.s_p50", "s"),
    ("cli.self_share", "fraction"),
    ("trace.overhead", "fraction"),
    ("value_ratio_min", "ratio"),
)

POLARIZE = ("hpopt.polarize_odd", "hpopt.polarize_even")
CANDIDATE_DRAWS = ("sampler.sample_rademacher", "sampler.sample_pgauss")


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics from a span list.

    Shares divide self time summed over operations by operation time summed
    over operations.  ``hpopt.instance.share`` is the exception: it is the
    inclusive time of HpInstance validation, whose work is mostly the
    ``is_supersymmetric`` calls it makes.
    """
    st = self_times(spans)
    by = {s.id: s for s in spans}
    roots = [s for s in spans if s.name == ROOT]
    n_ops = len(roots)
    op_time = sum(s.duration for s in roots)

    def named(*names):
        return [s for s in spans if s.name in names]

    def calls(*names):
        return len(named(*names)) / n_ops if n_ops else 0.0

    def p50(*names):
        return _median([s.duration for s in named(*names)])

    def share(*names, prefix=None):
        picked = [s for s in spans if s.name in names
                  or (prefix is not None and s.name.startswith(prefix))]
        return sum(st[s.id] for s in picked) / op_time if op_time else 0.0

    solve_ml = named("mlopt.solve_ml")
    candidates = [s for s in named(*CANDIDATE_DRAWS)
                  if s.parent is not None and by[s.parent].name == "mlopt.solve_ml"]
    yields = [s.info["yield"] for s in named("pqnorm.round_gram")
              if s.info.get("yield") is not None]
    recovery = [s.info["recovery"] for s in named("hpopt.solve_hp")
                if s.info.get("recovery") is not None]
    grids = named("oracle.grid_ml", "oracle.grid_hp")
    grid_time = sum(s.duration for s in grids)
    instance_time = sum(s.duration for s in named("hpopt.instance"))

    m = {
        "pqnorm.solve_vecp.calls_per_op": calls("pqnorm.solve_vecp"),
        "pqnorm.solve_vecp.s_p50": p50("pqnorm.solve_vecp"),
        "pqnorm.solve_vecp.share": share("pqnorm.solve_vecp"),
        "pqnorm.solve_vecp.conv_errors": float(sum(
            1 for s in named("pqnorm.solve_vecp") if s.error == "ConvergenceError")),
        "pqnorm.round_gram.calls_per_op": calls("pqnorm.round_gram"),
        "pqnorm.round_gram.s_p50": p50("pqnorm.round_gram"),
        "pqnorm.round_gram.share": share("pqnorm.round_gram"),
        "pqnorm.round_gram.yield_p50": _median(yields),
        "mlopt.solve_ml.calls_per_op": calls("mlopt.solve_ml"),
        "mlopt.solve_ml.self_share": share("mlopt.solve_ml"),
        "mlopt.candidates_per_op": len(candidates) / n_ops if n_ops else 0.0,
        "mlopt.s_per_candidate": (sum(s.duration for s in solve_ml) / len(candidates)
                                  if candidates else 0.0),
        "sampler.calls_per_op": calls(*[s for s, _, _ in LAYERS if s.startswith("sampler.")]),
        "sampler.share": share(prefix="sampler."),
        "hpopt.polarize.s_p50": p50(*POLARIZE),
        "hpopt.polarize.share": share(*POLARIZE),
        "hpopt.instance.share": instance_time / op_time if op_time else 0.0,
        "hpopt.recovery_ratio_min": min(recovery) if recovery else 0.0,
        "tensor.load_tensor.s_p50": p50("tensor.load_tensor"),
        "tensor.load_tensor.share": share("tensor.load_tensor"),
        "tensor.eval_multilinear.calls_per_op": calls("tensor.eval_multilinear"),
        "tensor.is_supersymmetric.share": share("tensor.is_supersymmetric"),
        "oracle.exact_ml_linf.s_p50": p50("oracle.exact_ml_linf"),
        "oracle.grid_ml.s_p50": p50("oracle.grid_ml"),
        "oracle.grid_hp.s_p50": p50("oracle.grid_hp"),
        "oracle.share": share(prefix="oracle."),
        "oracle.grid_points_per_s": (sum(s.info["grid_points"] for s in grids) / grid_time
                                     if grid_time else 0.0),
        "symmetry.symmetrize.s_p50": p50("symmetry.symmetrize"),
        "cli.self_share": share(ROOT),
    }
    return m
