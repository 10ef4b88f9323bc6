import dataclasses
import inspect

import numpy as np
import pytest

from lpmax.cli import run
from lpmax.config import SolverConfig
from lpmax.estimators import HomogeneousPolynomialMaximizer, MultilinearFormMaximizer
from lpmax.errors import (
    BoundViolationError,
    ConvergenceError,
    DegenerateInputError,
    DomainError,
    LpmaxError,
    ResourceLimitError,
    ShapeError,
)
from lpmax.pqnorm import solve_vecp, solve_vecp_stack
from lpmax.tensor import save_tensor


def test_config_defaults():
    cfg = SolverConfig()
    assert cfg.tol == 1e-6
    assert cfg.trials == 100
    assert cfg.strategy == "krivine"
    assert cfg.max_samples == 256
    assert cfg.seed == 0


def test_every_default_is_the_configs(tmp_path):
    # the CLI, the estimators and the relaxation solver all take SolverConfig's defaults
    want = dataclasses.asdict(SolverConfig())
    save_tensor(np.ones((2, 2, 2)), tmp_path / "cube.json")
    report = run("solve-ml", tmp_path / "cube.json", "inf")
    signatures = [inspect.signature(f).parameters for f in (solve_vecp, solve_vecp_stack)]
    for params in ({"seed": report.seed, **report.config},
                   MultilinearFormMaximizer().get_params(),
                   HomogeneousPolynomialMaximizer().get_params(),
                   *({k: prm.default for k, prm in sig.items()} for sig in signatures)):
        shared = params.keys() & want.keys()
        assert len(shared) >= 2
        assert {k: params[k] for k in shared} == {k: want[k] for k in shared}


def test_config_frozen_and_updated():
    cfg = SolverConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.seed = 3
    cfg2 = dataclasses.replace(cfg, seed=3, trials=7)
    assert cfg2.seed == 3 and cfg2.trials == 7
    assert cfg.seed == 0  # original untouched
    assert cfg2.tol == cfg.tol


def test_error_hierarchy():
    assert issubclass(ShapeError, LpmaxError)
    assert issubclass(ShapeError, ValueError)
    assert issubclass(DomainError, ValueError)
    assert issubclass(DegenerateInputError, DomainError)
    assert issubclass(ResourceLimitError, RuntimeError)
    assert issubclass(ConvergenceError, RuntimeError)
    assert issubclass(BoundViolationError, RuntimeError)
    # one except clause can catch everything the package raises
    for exc in (ShapeError, DomainError, DegenerateInputError,
                ResourceLimitError, ConvergenceError, BoundViolationError):
        with pytest.raises(LpmaxError):
            raise exc("boom")


def test_convergence_error_carries_best():
    err = ConvergenceError("slow", best=[1, 2])
    assert err.best == [1, 2]
