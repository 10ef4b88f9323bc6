"""Command-line front end: parse tensor files, run solvers/oracles, report.

Reports are deterministic for identical (file, flags, seed) up to the timing
section, which carries wall-clock time and is meant to be stripped before
byte comparisons.  Every flag has a config-file equivalent; the JSON file
named by the LPMAX_CONFIG environment variable supplies defaults with
precedence flag > config file > built-in default.

Flag values and config-file values pass the same click type checks, so a
bad value from either source exits 2 before any solve.

Exit codes: 0 success, 2 parse/usage error, 3 degenerate or infeasible
instance, 4 resource gate, 5 non-convergence, 6 violated recovery bound.
"""
from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

import click
import numpy as np

from .config import SolverConfig
from .errors import (BoundViolationError, ConvergenceError, DegenerateInputError,
                     DomainError, LpmaxError, ResourceLimitError, ShapeError)
from .hpopt import HpInstance, solve_hp
from .mlopt import MlInstance, solve_ml
from .oracle import grid_hp, oracle_ml
from .pqnorm import round_gram, solve_vecp
from .sampler import STREAM_TRIALS, derive_rng, sample_count
from .symmetry import symmetrize
from .tensor import load_tensor, save_tensor
from .validation import INF, check_p, parse_exponent

EXIT_PARSE = 2
EXIT_DEGENERATE = 3
EXIT_RESOURCE = 4
EXIT_NOCONV = 5
EXIT_BOUND = 6

_DEFAULTS = {
    "p": "inf",
    "seed": 0,
    "trials": 100,
    "tol": 1e-6,
    "steps": 33,
    "strategy": "krivine",
    "max_samples": 256,
    "format": "text",
    "oracle": False,
    "mode": "ml",
}

# one click type per setting ("p" is parsed by _parse_p)
_TYPES = {
    "seed": click.INT,
    "trials": click.IntRange(min=1),
    "tol": click.FLOAT,
    "steps": click.INT,
    "strategy": click.Choice(["hyperplane", "krivine"]),
    "max_samples": click.IntRange(min=1),
    "format": click.Choice(["text", "json"]),
    "oracle": click.BOOL,
    "mode": click.Choice(["ml", "hp", "pqnorm"]),
}


@dataclass
class RunReport:
    command: str
    instance: dict
    seed: int
    config: dict
    certificate: dict
    oracle: dict | None
    timing: dict

    def to_json(self) -> str:
        body = {
            "command": self.command,
            "instance": self.instance,
            "seed": self.seed,
            "config": self.config,
            "certificate": self.certificate,
            "oracle": self.oracle,
            "timing": self.timing,
        }
        return json.dumps(body, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        d = json.loads(text)
        return cls(command=d["command"], instance=d["instance"], seed=d["seed"],
                   config=d["config"], certificate=d["certificate"],
                   oracle=d.get("oracle"), timing=d.get("timing", {}))

    def to_text(self) -> str:
        lines = [f"command: {self.command}"]
        inst = self.instance
        dims = "x".join(str(n) for n in inst["dims"])
        lines.append(f"instance: {inst['file']} dims={dims} order={inst['order']} p={inst['p']}")
        lines.append(f"seed: {self.seed}")
        cfg = " ".join(f"{k}={self.config[k]}" for k in sorted(self.config))
        lines.append(f"config: {cfg}")
        for key in sorted(self.certificate):
            lines.append(f"{key}: {_fmt(self.certificate[key])}")
        if self.oracle is not None:
            ora = " ".join(f"{k}={_fmt(self.oracle[k])}" for k in sorted(self.oracle))
            lines.append(f"oracle: {ora}")
        lines.append(f"wall_time_s: {self.timing.get('wall_time_s')}")
        return "\n".join(lines) + "\n"

    def render(self, fmt: str) -> str:
        return self.to_json() + "\n" if fmt == "json" else self.to_text()


def _fmt(v):
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, list):
        return "[" + ", ".join(_fmt(x) for x in v) + "]"
    return str(v)


def _listify(x):
    return np.asarray(x, dtype=float).tolist()


def _p_str(p) -> str:
    if p == INF:
        return "inf"
    return str(p if isinstance(p, Fraction) else Fraction(str(p)))


def _parse_p(text):
    """Exit-2 phase: exponent must parse and lie in (2, inf]."""
    p = parse_exponent(str(text))
    check_p(p)
    return p


def _config_defaults():
    path = os.environ.get("LPMAX_CONFIG")
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("config file must hold a JSON object")
    return doc


def _resolve(flags: dict) -> dict:
    """Apply precedence flag > config file > default for every known key, and
    check each value against its click type; ValueError on a bad value."""
    config = _config_defaults()
    out = {}
    for key, default in _DEFAULTS.items():
        v = flags.get(key)
        if v is None or (key == "oracle" and v is False):
            v = config.get(key, default)
        if key in _TYPES:
            try:
                v = _TYPES[key].convert(v, None, None)
            except click.BadParameter as exc:
                raise ValueError(f"invalid {key}: {exc.message}") from exc
        out[key] = v
    return out


def _die(code: int, exc) -> "NoReturn":
    click.echo(f"error: {exc}", err=True)
    sys.exit(code)


def _load_file(path):
    try:
        return load_tensor(path)
    except (OSError, ValueError, KeyError, TypeError, LpmaxError) as exc:
        _die(EXIT_PARSE, exc)


def _guard_solve(fn):
    try:
        return fn()
    except ConvergenceError as exc:
        _die(EXIT_NOCONV, exc)
    except BoundViolationError as exc:
        _die(EXIT_BOUND, exc)
    except ResourceLimitError as exc:
        _die(EXIT_RESOURCE, exc)
    except (DegenerateInputError, DomainError, ShapeError) as exc:
        _die(EXIT_DEGENERATE, exc)


def _instance_summary(path, A, p) -> dict:
    return {"file": str(path), "dims": list(A.dims), "order": A.order, "p": _p_str(p)}


def _oracle_block(res, value) -> dict:
    ratio = None
    if res.value != 0.0:
        ratio = float(value / res.value)
    return {
        "value": res.value,
        "method": res.method.value,
        "resolution": res.resolution,
        "ratio": ratio,
    }


def _solver_config(vals) -> SolverConfig:
    return SolverConfig(
        tol=float(vals["tol"]),
        trials=int(vals["trials"]),
        strategy=str(vals["strategy"]),
        max_samples=int(vals["max_samples"]),
        seed=int(vals["seed"]),
    )


def _config_echo(vals, keys) -> dict:
    echo = {}
    for k in keys:
        v = vals[k]
        if k == "tol":
            v = float(v)
        elif k in ("seed", "trials", "steps", "max_samples"):
            v = int(v)
        echo[k] = v
    return echo


# ---------------------------------------------------------------------------
# plain command bodies (return RunReport; raise package errors)
# ---------------------------------------------------------------------------

def cmd_solve_ml(file, p, seed=0, trials=100, tol=1e-6, format="text", *,
                 max_samples=256, strategy="krivine",
                 oracle=False, steps=33) -> RunReport:
    vals = {"p": p, "seed": seed, "trials": trials, "tol": tol, "steps": steps,
            "strategy": strategy, "max_samples": max_samples, "format": format,
            "oracle": oracle, "mode": "ml"}
    A = _load_file(file)
    pex = _parse_p(vals["p"])
    t0 = time.perf_counter()
    cfg = _solver_config(vals)

    def body():
        inst = MlInstance(A, pex, cfg)
        cert = solve_ml(inst)
        uncapped = sample_count(A.dims[0], pex, amplified=True, max_samples=None) \
            if A.order >= 3 else cfg.trials
        return cert, uncapped

    cert, uncapped = _guard_solve(body)
    certificate = {
        "value": cert.value,
        "relax_value": cert.relax_value,
        "trials_used": cert.trials_used,
        "samples_capped": bool(uncapped > cert.trials_used),
        "xs": [_listify(x) for x in cert.xs],
    }
    oracle_block = None
    if vals["oracle"]:
        res = _guard_solve(lambda: oracle_ml(A, pex, int(vals["steps"]), refine=6))
        oracle_block = _oracle_block(res, cert.value)
    wall = time.perf_counter() - t0
    return RunReport(
        command="solve-ml",
        instance=_instance_summary(file, A, pex),
        seed=int(vals["seed"]),
        config=_config_echo(vals, ("trials", "tol", "max_samples", "strategy", "steps")),
        certificate=certificate,
        oracle=oracle_block,
        timing={"wall_time_s": round(wall, 6)},
    )


def cmd_solve_hp(file, p, seed=0, trials=100, tol=1e-6, format="text", *,
                 max_samples=256, strategy="krivine",
                 oracle=False, steps=33) -> RunReport:
    vals = {"p": p, "seed": seed, "trials": trials, "tol": tol, "steps": steps,
            "strategy": strategy, "max_samples": max_samples, "format": format,
            "oracle": oracle, "mode": "hp"}
    A = _load_file(file)
    pex = _parse_p(vals["p"])
    t0 = time.perf_counter()
    cfg = _solver_config(vals)

    def body():
        inst = HpInstance(A, pex, cfg)
        return solve_hp(inst)

    cert = _guard_solve(body)
    certificate = {
        "value": cert.value,
        "ml_value": cert.ml_value,
        "parity": cert.parity,
        "x_hat": _listify(cert.x_hat),
    }
    oracle_block = None
    if vals["oracle"]:
        res = _guard_solve(lambda: grid_hp(A, pex, int(vals["steps"]), refine=8))
        oracle_block = _oracle_block(res, cert.value)
    wall = time.perf_counter() - t0
    return RunReport(
        command="solve-hp",
        instance=_instance_summary(file, A, pex),
        seed=int(vals["seed"]),
        config=_config_echo(vals, ("trials", "tol", "max_samples", "strategy", "steps")),
        certificate=certificate,
        oracle=oracle_block,
        timing={"wall_time_s": round(wall, 6)},
    )


def cmd_pqnorm(file, p, strategy="krivine", trials=100, seed=0, format="text", *,
               tol=1e-6, oracle=False, steps=33) -> RunReport:
    vals = {"p": p, "seed": seed, "trials": trials, "tol": tol, "steps": steps,
            "strategy": strategy, "max_samples": 256,
            "format": format, "oracle": oracle, "mode": "pqnorm"}
    A = _load_file(file)
    pex = _parse_p(vals["p"])
    t0 = time.perf_counter()

    def body():
        if A.order != 2:
            raise ShapeError(f"pqnorm needs an order-2 tensor, got order {A.order}")
        g = solve_vecp(A.data, pex, tol=float(vals["tol"]))
        rng = derive_rng(int(vals["seed"]), STREAM_TRIALS)
        pair = round_gram(A.data, g, pex, strategy=str(vals["strategy"]),
                          trials=int(vals["trials"]), rng=rng)
        return g, pair

    g, pair = _guard_solve(body)
    certificate = {
        "value": pair.value,
        "relax_value": g.value,
        "y": _listify(pair.y),
        "z": _listify(pair.z),
    }
    oracle_block = None
    if vals["oracle"]:
        res = _guard_solve(lambda: oracle_ml(A, pex, int(vals["steps"]), refine=6))
        oracle_block = _oracle_block(res, pair.value)
    wall = time.perf_counter() - t0
    return RunReport(
        command="pqnorm",
        instance=_instance_summary(file, A, pex),
        seed=int(vals["seed"]),
        config=_config_echo(vals, ("trials", "tol", "strategy", "steps")),
        certificate=certificate,
        oracle=oracle_block,
        timing={"wall_time_s": round(wall, 6)},
    )


def cmd_symmetrize(file, out) -> None:
    A = _load_file(file)
    S = _guard_solve(lambda: symmetrize(A))
    try:
        save_tensor(S, out)
    except OSError as exc:
        _die(EXIT_PARSE, exc)
    click.echo(f"wrote sym tensor dims={'x'.join(str(n) for n in S.dims)} to {out}")


def cmd_oracle(file, p, mode="ml", steps=33, format="text") -> RunReport:
    vals = dict(_DEFAULTS)
    vals.update({"p": p, "steps": steps, "format": format, "mode": mode})
    A = _load_file(file)
    pex = _parse_p(vals["p"])
    t0 = time.perf_counter()

    def body():
        m = str(vals["mode"])
        s = int(vals["steps"])
        if m == "ml":
            return oracle_ml(A, pex, s, refine=6)
        if m == "hp":
            return grid_hp(A, pex, s, refine=8)
        if m == "pqnorm":
            if A.order != 2:
                raise ShapeError("pqnorm oracle needs an order-2 tensor")
            return oracle_ml(A, pex, s, refine=6)
        raise DomainError(f"unknown oracle mode {m!r}")

    res = _guard_solve(body)
    certificate = {
        "value": res.value,
        "method": res.method.value,
        "resolution": res.resolution,
        "argmax": [_listify(x) for x in res.argmax],
    }
    wall = time.perf_counter() - t0
    return RunReport(
        command="oracle",
        instance=_instance_summary(file, A, pex),
        seed=0,
        config={"mode": str(vals["mode"]), "steps": int(vals["steps"])},
        certificate=certificate,
        oracle=None,
        timing={"wall_time_s": round(wall, 6)},
    )


# ---------------------------------------------------------------------------
# click wiring
# ---------------------------------------------------------------------------

def _common_options(fn):
    opts = [
        click.option("--p", "p", default=None, help="exponent in (2, inf]: rational like 5/2, decimal, or inf"),
        click.option("--seed", type=_TYPES["seed"], default=None),
        click.option("--trials", type=_TYPES["trials"], default=None,
                     help="rounding trials per matrix subproblem"),
        click.option("--tol", type=_TYPES["tol"], default=None),
        click.option("--steps", type=_TYPES["steps"], default=None, help="oracle grid points per axis"),
        click.option("--strategy", type=_TYPES["strategy"], default=None),
        click.option("--max-samples", "max_samples", type=_TYPES["max_samples"], default=None,
                     help="cap on direction samples per recursion level"),
        click.option("--format", "fmt", type=_TYPES["format"], default=None),
        click.option("--oracle", is_flag=True, default=False,
                     help="also run the independent oracle and report the ratio"),
    ]
    for opt in reversed(opts):
        fn = opt(fn)
    return fn


@click.group()
def main():
    """Randomized maximization of polynomials and multilinear forms on L_p balls."""


@main.command("solve-ml")
@click.argument("file", type=click.Path())
@_common_options
def _cli_solve_ml(file, p, seed, trials, tol, steps, strategy, max_samples, fmt, oracle):
    """Maximize the multilinear form of FILE over independent L_p balls."""
    try:
        vals = _resolve({"p": p, "seed": seed, "trials": trials, "tol": tol,
                         "steps": steps, "strategy": strategy,
                         "max_samples": max_samples, "format": fmt, "oracle": oracle})
        _parse_p(vals["p"])
    except (OSError, ValueError, DomainError) as exc:
        _die(EXIT_PARSE, exc)
    report = cmd_solve_ml(file, vals["p"], seed=int(vals["seed"]),
                          trials=int(vals["trials"]), tol=float(vals["tol"]),
                          format=vals["format"], max_samples=int(vals["max_samples"]),
                          strategy=vals["strategy"], oracle=bool(vals["oracle"]),
                          steps=int(vals["steps"]))
    click.echo(report.render(vals["format"]), nl=False)


@main.command("solve-hp")
@click.argument("file", type=click.Path())
@_common_options
def _cli_solve_hp(file, p, seed, trials, tol, steps, strategy, max_samples, fmt, oracle):
    """Maximize the homogeneous polynomial of a super-symmetric FILE."""
    try:
        vals = _resolve({"p": p, "seed": seed, "trials": trials, "tol": tol,
                         "steps": steps, "strategy": strategy,
                         "max_samples": max_samples, "format": fmt, "oracle": oracle})
        _parse_p(vals["p"])
    except (OSError, ValueError, DomainError) as exc:
        _die(EXIT_PARSE, exc)
    report = cmd_solve_hp(file, vals["p"], seed=int(vals["seed"]),
                          trials=int(vals["trials"]), tol=float(vals["tol"]),
                          format=vals["format"], max_samples=int(vals["max_samples"]),
                          strategy=vals["strategy"], oracle=bool(vals["oracle"]),
                          steps=int(vals["steps"]))
    click.echo(report.render(vals["format"]), nl=False)


@main.command("pqnorm")
@click.argument("file", type=click.Path())
@_common_options
def _cli_pqnorm(file, p, seed, trials, tol, steps, strategy, max_samples, fmt, oracle):
    """Relax and round the bilinear problem for an order-2 FILE."""
    try:
        vals = _resolve({"p": p, "seed": seed, "trials": trials, "tol": tol,
                         "steps": steps, "strategy": strategy,
                         "max_samples": max_samples, "format": fmt, "oracle": oracle})
        _parse_p(vals["p"])
    except (OSError, ValueError, DomainError) as exc:
        _die(EXIT_PARSE, exc)
    report = cmd_pqnorm(file, vals["p"], strategy=vals["strategy"],
                        trials=int(vals["trials"]), seed=int(vals["seed"]),
                        format=vals["format"], tol=float(vals["tol"]),
                        oracle=bool(vals["oracle"]), steps=int(vals["steps"]))
    click.echo(report.render(vals["format"]), nl=False)


@main.command("symmetrize")
@click.argument("file", type=click.Path())
@click.option("--out", required=True, type=click.Path())
def _cli_symmetrize(file, out):
    """Write the symmetrized block embedding of FILE to --out."""
    cmd_symmetrize(file, out)


@main.command("oracle")
@click.argument("file", type=click.Path())
@click.option("--p", "p", default=None)
@click.option("--mode", type=_TYPES["mode"], default=None)
@click.option("--steps", type=_TYPES["steps"], default=None)
@click.option("--format", "fmt", type=_TYPES["format"], default=None)
def _cli_oracle(file, p, mode, steps, fmt):
    """Independent brute-force value for FILE (never reads solver state)."""
    try:
        vals = _resolve({"p": p, "steps": steps, "format": fmt, "mode": mode})
        _parse_p(vals["p"])
    except (OSError, ValueError, DomainError) as exc:
        _die(EXIT_PARSE, exc)
    report = cmd_oracle(file, vals["p"], mode=vals["mode"],
                        steps=int(vals["steps"]), format=vals["format"])
    click.echo(report.render(vals["format"]), nl=False)


if __name__ == "__main__":
    main()
