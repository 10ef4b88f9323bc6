"""Output checker that recomputes every certificate with its own numpy code.

An operation passes when the CLI exited 0, its report parses with
``RunReport.from_json``, every returned vector lies in the unit L_p ball (to
``NORM_TOL``), the reported value equals the value recomputed from those
vectors (to ``VALUE_RTOL`` relative), the value does not beat an exact
optimum by more than ``OPT_ATOL``, an oracle that reports exact enumeration
reaches that optimum to within ``OPT_ATOL``, and odd-degree ``solve-hp``
results meet the d!/d^d polarization floor.  ``symmetrize`` output is checked through the
identity f_sym(A)(stack(xs)) = d! * F_A(xs) at a seeded random point.
Nothing here calls into lpmax's numerics.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from workloads import Op, form, lp_norm, read_tensor

NORM_TOL = 1e-9
VALUE_RTOL = 1e-9
OPT_ATOL = 1e-6
FLOOR_ATOL = 1e-9
EXACT_METHOD = "vertex_enum"   # the oracle's certificate method for enumeration


@dataclass(frozen=True)
class Verdict:
    ok: bool
    reason: str = ""
    ratio: float | None = None       # certificate value / reference value
    certificate: dict | None = None  # parsed certificate, for cross-run comparison


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= VALUE_RTOL * max(abs(a), abs(b), 1e-12)


def _vectors(raw, count, dims, p):
    vecs = [np.asarray(v, dtype=float) for v in raw]
    if len(vecs) != count:
        raise ValueError(f"expected {count} vectors, got {len(vecs)}")
    for i, (v, n) in enumerate(zip(vecs, dims)):
        if v.shape != (n,):
            raise ValueError(f"vector {i} has shape {v.shape}, expected ({n},)")
        norm = lp_norm(v, p)
        if not norm <= 1.0 + NORM_TOL:
            raise ValueError(f"vector {i} has L_p norm {norm!r} > 1")
    return vecs


def _certificate_value(op: Op, cert: dict):
    """(reported value, recomputed value, ml_value or None)."""
    A, p, d = op.tensor, op.p, op.tensor.ndim
    if op.kind == "pqnorm":
        y, z = _vectors([cert["y"], cert["z"]], 2, A.shape, p)
        return float(cert["value"]), float(y @ A @ z), None
    if op.kind == "solve-ml":
        xs = _vectors(cert["xs"], d, A.shape, p)
        return float(cert["value"]), form(A, xs), None
    if op.kind == "solve-hp":
        (x,) = _vectors([cert["x_hat"]], 1, A.shape, p)
        return float(cert["value"]), form(A, [x] * d), float(cert["ml_value"])
    if op.kind == "oracle-ml":
        xs = _vectors(cert["argmax"], d, A.shape, p)
        return float(cert["value"]), form(A, xs), None
    if op.kind == "oracle-hp":
        (x,) = _vectors(cert["argmax"], 1, A.shape, p)
        return float(cert["value"]), form(A, [x] * d), None
    raise ValueError(f"unknown operation kind {op.kind!r}")


def check_symmetrize(op: Op, out: str) -> Verdict:
    A = op.tensor
    d = A.ndim
    S = read_tensor(out)
    N = sum(A.shape)
    if S.shape != (N,) * d:
        return Verdict(False, f"sym output has dims {S.shape}, expected {(N,) * d}")
    rng = np.random.default_rng(op.check_seed)
    xs = [rng.standard_normal(n) for n in A.shape]
    lhs = form(S, [np.concatenate(xs)] * d)
    rhs = math.factorial(d) * form(A, xs)
    if not _close(lhs, rhs):
        return Verdict(False, f"f_sym(stack(xs)) = {lhs!r} but d! F_A(xs) = {rhs!r}")
    return Verdict(True)


def check(op: Op, exit_code: int, stdout: str, report_cls, out: str | None = None) -> Verdict:
    """Judge one operation; ``report_cls`` is lpmax's ``RunReport`` and
    ``out`` the file a ``symmetrize`` run wrote."""
    if exit_code != 0:
        return Verdict(False, f"exit code {exit_code}")
    if op.kind == "symmetrize":
        try:
            return check_symmetrize(op, out)
        except (OSError, ValueError, KeyError) as exc:
            return Verdict(False, f"unreadable sym output: {exc}")
    try:
        report = report_cls.from_json(stdout)
        cert = report.certificate
        reported, recomputed, ml_value = _certificate_value(op, cert)
    except (ValueError, KeyError, TypeError) as exc:
        return Verdict(False, f"malformed report: {exc}")
    if list(report.instance.get("dims", ())) != list(op.tensor.shape):
        return Verdict(False, f"report dims {report.instance.get('dims')} != {list(op.tensor.shape)}")
    if not _close(reported, recomputed):
        return Verdict(False, f"reported value {reported!r} != recomputed {recomputed!r}")
    if op.exact is not None and reported > op.exact + OPT_ATOL:
        return Verdict(False, f"value {reported!r} exceeds the exact optimum {op.exact!r}")
    if (op.kind == "oracle-ml" and cert.get("method") == EXACT_METHOD and op.exact is not None
            and reported < op.exact - OPT_ATOL):
        return Verdict(False, f"exact oracle value {reported!r} is below the optimum {op.exact!r}")
    if op.kind == "solve-hp" and op.tensor.ndim % 2 == 1:
        d = op.tensor.ndim
        floor = math.factorial(d) * d ** (-d) * ml_value - FLOOR_ATOL
        if reported < floor:
            return Verdict(False, f"odd-degree value {reported!r} below the d!/d^d floor {floor!r}")
        if op.exact is not None and ml_value > op.exact + OPT_ATOL:
            return Verdict(False, f"ml_value {ml_value!r} exceeds the exact optimum {op.exact!r}")
    ratio = reported / op.reference if op.reference else None
    return Verdict(True, ratio=ratio, certificate=cert)

