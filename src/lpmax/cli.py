"""Command-line front end: parse tensor files, run solvers/oracles, report.

The report commands (solve-ml, solve-hp, pqnorm, oracle) are rows of one
table, COMMANDS; ``run`` builds every RunReport and is also the Python entry
point.  Reports are deterministic for identical (file, flags, seed) up to the
timing section, which carries wall-clock time and is meant to be stripped
before byte comparisons.  Every flag has a config-file equivalent; the JSON
file named by the LPMAX_CONFIG environment variable supplies defaults with
precedence flag > config file > built-in default, and a bad value from either
source exits 2 before any solve.

Exit codes: 0 success, 2 parse/usage error, 3 degenerate or infeasible
instance, 4 resource gate, 5 non-convergence, 6 violated recovery bound.
"""
from __future__ import annotations

import enum
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from typing import Callable, NamedTuple

import click
import numpy as np

from .config import SolverConfig
from .errors import (BoundViolationError, ConvergenceError, DomainError, LpmaxError,
                     ResourceLimitError, ShapeError)
from .hpopt import HpInstance, solve_hp
from .mlopt import MlInstance, solve_ml
from .oracle import grid_hp, oracle_ml
from .pqnorm import pq_norm_lb, solve_vecp  # noqa: F401  (bench/tests reads cli.solve_vecp)
from .symmetry import symmetrize
from .tensor import load_tensor, save_tensor
from .validation import INF, check_p, parse_exponent

EXIT_PARSE = 2
EXIT_DEGENERATE = 3
EXIT_RESOURCE = 4
EXIT_NOCONV = 5
EXIT_BOUND = 6

# every setting: built-in default, click type ("p" is parsed by _parse_p) and
# flag help; flag values and config-file values pass the same type check
_SETTINGS = {
    "p": ("inf", None, "exponent in (2, inf]: rational like 5/2, decimal, or inf"),
    "seed": (SolverConfig.seed, click.INT, None),
    "trials": (SolverConfig.trials, click.IntRange(min=1), "rounding trials per matrix subproblem"),
    "tol": (SolverConfig.tol, click.FloatRange(min=0, min_open=True), None),
    "steps": (33, click.IntRange(min=2), "oracle grid points per axis"),
    "strategy": (SolverConfig.strategy, click.Choice(["hyperplane", "krivine"]), None),
    "max_samples": (SolverConfig.max_samples, click.IntRange(min=1),
                    "cap on direction samples per recursion level"),
    "format": ("text", click.Choice(["text", "json"]), None),
    "oracle": (False, click.BOOL, "also run the independent oracle and report the ratio"),
    "mode": ("ml", click.Choice(["ml", "hp", "pqnorm"]), None),
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
        return json.dumps(asdict(self), indent=2, sort_keys=True)

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


def _plain(v):
    if isinstance(v, np.ndarray):
        return np.asarray(v, dtype=float).tolist()
    if isinstance(v, tuple):
        return [_plain(x) for x in v]
    return v.value if isinstance(v, enum.Enum) else v


def _block(result, drop=()) -> dict:
    """A result dataclass as a report block: vectors become lists, enums their value."""
    return {f.name: _plain(getattr(result, f.name)) for f in fields(result) if f.name not in drop}


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


def _resolve(flags: dict, config: dict) -> dict:
    """Apply precedence flag > config file > default for every known key, and
    check each value against its click type; ValueError on a bad value."""
    out = {}
    for key, (default, kind, _) in _SETTINGS.items():
        v = flags.get(key)
        if v is None or (key == "oracle" and v is False):
            v = config.get(key, default)
        # click's number types would read JSON true as 1 and 2.7 as 2
        integer = isinstance(kind, click.types.IntParamType)
        if (integer or isinstance(kind, click.types.FloatParamType)) and (
                isinstance(v, bool) or integer and isinstance(v, float)):
            raise ValueError(f"invalid {key}: {json.dumps(v)} is not "
                             + ("an integer" if integer else "a number"))
        if kind is not None:
            try:
                v = kind.convert(v, None, None)
            except click.BadParameter as exc:
                raise ValueError(f"invalid {key}: {exc.message}") from exc
        out[key] = v
    return out


# exit code of each error a phase may raise: reading the settings and the
# file, then solving; anything else is a bug and ends in a traceback
_PARSE_EXITS = dict.fromkeys((OSError, ValueError, KeyError, TypeError, LpmaxError), EXIT_PARSE)
_SOLVE_EXITS = {ConvergenceError: EXIT_NOCONV, BoundViolationError: EXIT_BOUND,
                ResourceLimitError: EXIT_RESOURCE, DomainError: EXIT_DEGENERATE,
                ShapeError: EXIT_DEGENERATE}


@contextmanager
def _exit_on(exits: dict):
    try:
        yield
    except tuple(exits) as exc:
        click.echo(f"error: {exc}", file=sys.stderr)
        sys.exit(next(code for kind, code in exits.items() if isinstance(exc, kind)))


def _solver_config(vals) -> SolverConfig:
    return SolverConfig(**{k: vals[k] for k in SolverConfig.__dataclass_fields__ if k in vals})


# ---------------------------------------------------------------------------
# the command table: each solve step maps (tensor, p, settings) to the value
# the oracle ratio compares and the certificate block of the report
# ---------------------------------------------------------------------------

def _solve_ml(A, p, vals):
    cert = solve_ml(MlInstance(A, p, _solver_config(vals)))
    return cert.value, _block(cert, drop=("seed",))


def _solve_hp(A, p, vals):
    cert = solve_hp(HpInstance(A, p, _solver_config(vals)))
    return cert.value, _block(cert, drop=("seed",))


def _pqnorm(A, p, vals):
    if A.order != 2:
        raise ShapeError(f"pqnorm needs an order-2 tensor, got order {A.order}")
    g, pair = pq_norm_lb(A.data, p, _solver_config(vals))
    return pair.value, {**_block(pair), "relax_value": g.value}


# the independent oracle of each mode; a bilinear problem is the order-2
# multilinear one.  Solvers and oracles are looked up in this module's
# globals at call time, so rebinding one (as tracers do) is seen
_ORACLES = {
    "ml": lambda A, p, steps: oracle_ml(A, p, steps, refine=6),
    "hp": lambda A, p, steps: grid_hp(A, p, steps, refine=8),
}


def _oracle(A, p, vals):
    if vals["mode"] == "pqnorm" and A.order != 2:
        raise ShapeError("pqnorm oracle needs an order-2 tensor")
    res = _ORACLES["hp" if vals["mode"] == "hp" else "ml"](A, p, vals["steps"])
    return res.value, _block(res)


class Command(NamedTuple):
    solve: Callable      # (tensor, p, settings) -> (value, certificate dict)
    echo: tuple          # settings echoed in the report's config block
    oracle: str | None   # the _ORACLES mode that --oracle attaches
    options: tuple       # the command's flags; without --seed it reports seed 0
    doc: str


_SOLVE_OPTIONS = tuple(key for key in _SETTINGS if key != "mode")
_ECHO = ("trials", "tol", "max_samples", "strategy", "steps")

COMMANDS = {
    "solve-ml": Command(_solve_ml, _ECHO, "ml", _SOLVE_OPTIONS,
                        "Maximize the multilinear form of FILE over independent L_p balls."),
    "solve-hp": Command(_solve_hp, _ECHO, "hp", _SOLVE_OPTIONS,
                        "Maximize the homogeneous polynomial of a super-symmetric FILE."),
    "pqnorm": Command(_pqnorm, ("trials", "tol", "strategy", "steps"), "ml",
                      tuple(key for key in _SOLVE_OPTIONS if key != "max_samples"),
                      "Relax and round the bilinear problem for an order-2 FILE."),
    "oracle": Command(_oracle, ("mode", "steps"), None, ("p", "mode", "steps", "format"),
                      "Independent brute-force value for FILE (never reads solver state)."),
}


def run(command, file, p, **values) -> RunReport:
    """Run one table command on FILE and return its report.

    ``values`` are the command's options; the ones left out take their
    built-in default (``LPMAX_CONFIG`` is read only by the click commands), and
    any other key exits 2.  Errors print ``error: ...`` to stderr and exit with
    the command's exit code.
    """
    cmd = COMMANDS[command]
    with _exit_on(_PARSE_EXITS):
        unknown = sorted(set(values) - set(cmd.options))
        if unknown:
            raise ValueError(f"{command} has no option {', '.join(unknown)}")
        vals = _resolve({**values, "p": p}, {})
        pex = _parse_p(vals["p"])
        A = load_tensor(file)
    t0 = time.perf_counter()
    oracle_block = None
    with _exit_on(_SOLVE_EXITS):
        value, certificate = cmd.solve(A, pex, vals)
        if cmd.oracle and vals["oracle"]:
            res = _ORACLES[cmd.oracle](A, pex, vals["steps"])
            ratio = float(value / res.value) if res.value != 0.0 else None
            oracle_block = {**_block(res, drop=("argmax",)), "ratio": ratio}
    wall = time.perf_counter() - t0
    return RunReport(
        command=command,
        instance={"file": str(file), "dims": list(A.dims), "order": A.order,
                  "p": _p_str(pex)},
        seed=vals["seed"] if "seed" in cmd.options else 0,
        config={k: vals[k] for k in cmd.echo},
        certificate=certificate,
        oracle=oracle_block,
        timing={"wall_time_s": round(wall, 6)},
    )


# ---------------------------------------------------------------------------
# click wiring
# ---------------------------------------------------------------------------

@click.group()
def main():
    """Randomized maximization of polynomials and multilinear forms on L_p balls."""


def _cli_command(name):
    def callback(file, **flags):
        with _exit_on(_PARSE_EXITS):
            vals = _resolve(flags, _config_defaults())
        # one config file serves every command, so only this one's options pass
        report = run(name, file, **{key: vals[key] for key in COMMANDS[name].options})
        click.echo(report.render(vals["format"]), file=sys.stdout, nl=False)

    for key in reversed(COMMANDS[name].options):
        _, kind, text = _SETTINGS[key]
        flag = {"is_flag": True, "default": False} if key == "oracle" else {"type": kind}
        callback = click.option("--" + key.replace("_", "-"), help=text, **flag)(callback)
    callback = click.argument("file", type=click.Path())(callback)
    main.command(name, help=COMMANDS[name].doc)(callback)


for _name in COMMANDS:
    _cli_command(_name)


@main.command("symmetrize")
@click.argument("file", type=click.Path())
@click.option("--out", required=True, type=click.Path())
def _cli_symmetrize(file, out):
    """Write the symmetrized block embedding of FILE to --out."""
    with _exit_on(_PARSE_EXITS):
        A = load_tensor(file)
    with _exit_on(_SOLVE_EXITS):
        S = symmetrize(A)
    with _exit_on({OSError: EXIT_PARSE}):
        save_tensor(S, out)
    click.echo(f"wrote sym tensor dims={'x'.join(str(n) for n in S.dims)} to {out}",
               file=sys.stdout)


if __name__ == "__main__":
    main()
