"""Estimator-style wrappers around the solver entry points.

These follow the scikit-learn parameter protocol — constructor keywords only
store themselves, `get_params` / `set_params` round-trip them, `fit` computes
and exposes trailing-underscore attributes — without importing scikit-learn.
They exist so the solvers drop into pipelines and grid searches that only
assume that protocol.  A fitted estimator exposes its result as it is: the
dataclass as ``certificate_`` and each of its fields ``f`` as ``f_``.
"""
from __future__ import annotations

import inspect
from dataclasses import fields

from .config import SolverConfig
from .mlopt import MlInstance, solve_ml
from .hpopt import HpInstance, solve_hp


class _TensorMaximizer:
    """The estimators' parameters, whose defaults are SolverConfig's, and the
    get_params/set_params/repr/score they share; parameter names are read off
    the __init__ signature, so they are written once."""

    def __init__(self, p=2.5, seed=SolverConfig.seed, trials=SolverConfig.trials,
                 tol=SolverConfig.tol, max_samples=SolverConfig.max_samples,
                 strategy=SolverConfig.strategy):
        self.p = p
        self.seed = seed
        self.trials = trials
        self.tol = tol
        self.max_samples = max_samples
        self.strategy = strategy

    @classmethod
    def _param_names(cls):
        sig = inspect.signature(cls.__init__)
        return [name for name, prm in sig.parameters.items()
                if name != "self" and prm.kind == prm.POSITIONAL_OR_KEYWORD]

    def get_params(self, deep=True):
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = set(self._param_names())
        for key, value in params.items():
            if key not in valid:
                raise ValueError(
                    f"invalid parameter {key!r} for {type(self).__name__}; "
                    f"valid parameters are {sorted(valid)}"
                )
            setattr(self, key, value)
        return self

    def __repr__(self):
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"

    def _config(self) -> SolverConfig:
        params = self.get_params()
        del params["p"]  # the instance's exponent; every other parameter is a setting
        return SolverConfig(**params)

    def _expose(self, result):
        self.certificate_ = result
        for f in fields(result):
            setattr(self, f.name + "_", getattr(result, f.name))
        return self

    def score(self, A=None, y=None):
        if not any(k.endswith("_") and not k.endswith("__") for k in vars(self)):
            raise RuntimeError(f"{type(self).__name__} instance is not fitted yet")
        return self.value_


class MultilinearFormMaximizer(_TensorMaximizer):
    """Randomized lower-bound maximizer for multilinear forms over L_p balls.

    fit(A) runs the recursive sampling pipeline and exposes its MlCertificate.
    On a matrix B this is the bilinear problem, the p -> q norm of B: y, z =
    xs_ are the rounded pair and value_ its feasible lower bound.  At every
    order upper_bound_ caps the optimum, so value_ <= OPT <= upper_bound_.
    """

    def fit(self, A, y=None):
        return self._expose(solve_ml(MlInstance(A, self.p, self._config())))


class HomogeneousPolynomialMaximizer(_TensorMaximizer):
    """Maximize a super-symmetric polynomial over the L_p ball.

    fit(A) relaxes to the multilinear problem, solves it, and polarizes back;
    exposes its HpCertificate.
    """

    def fit(self, A, y=None):
        return self._expose(solve_hp(HpInstance(A, self.p, self._config())))
