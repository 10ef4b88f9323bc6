"""Estimator-style wrappers around the solver entry points.

These follow the scikit-learn parameter protocol — constructor keywords only
store themselves, `get_params` / `set_params` round-trip them, `fit` computes
and exposes trailing-underscore attributes — without importing scikit-learn.
They exist so the solvers drop into pipelines and grid searches that only
assume that protocol.
"""
from __future__ import annotations

import inspect

from .config import SolverConfig
from .mlopt import MlInstance, solve_ml
from .hpopt import HpInstance, solve_hp
from .pqnorm import pq_norm_lb
from .tensor import as_tensor


class ParamEstimator:
    """get_params/set_params/repr driven by the subclass __init__ signature."""

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

    def _check_fitted(self):
        if not any(k.endswith("_") and not k.endswith("__") for k in vars(self)):
            raise RuntimeError(f"{type(self).__name__} instance is not fitted yet")


def _config_from(est) -> SolverConfig:
    return SolverConfig(**{k: getattr(est, k) for k in SolverConfig.__dataclass_fields__
                           if hasattr(est, k)})


class _TensorMaximizer(ParamEstimator):
    """Shared parameters and score of the estimators; defaults are SolverConfig's."""

    def __init__(self, p=2.5, seed=SolverConfig.seed, trials=SolverConfig.trials,
                 tol=SolverConfig.tol, max_samples=SolverConfig.max_samples,
                 strategy=SolverConfig.strategy):
        self.p = p
        self.seed = seed
        self.trials = trials
        self.tol = tol
        self.max_samples = max_samples
        self.strategy = strategy

    def score(self, A=None, y=None):
        self._check_fitted()
        return self.value_


class MultilinearFormMaximizer(_TensorMaximizer):
    """Randomized lower-bound maximizer for multilinear forms over L_p balls.

    fit(A) runs the recursive sampling pipeline and exposes xs_, value_,
    relax_value_ and the full certificate_.
    """

    def fit(self, A, y=None):
        inst = MlInstance(as_tensor(A), self.p, _config_from(self))
        cert = solve_ml(inst)
        self.certificate_ = cert
        self.xs_ = cert.xs
        self.value_ = cert.value
        self.relax_value_ = cert.relax_value
        self.n_trials_used_ = cert.trials_used
        return self


class HomogeneousPolynomialMaximizer(_TensorMaximizer):
    """Maximize a super-symmetric polynomial over the L_p ball.

    fit(A) relaxes to the multilinear problem, solves it, and polarizes back;
    exposes x_hat_, value_, ml_value_, parity_ and certificate_.
    """

    def fit(self, A, y=None):
        inst = HpInstance(as_tensor(A), self.p, _config_from(self))
        cert = solve_hp(inst)
        self.certificate_ = cert
        self.x_hat_ = cert.x_hat
        self.value_ = cert.value
        self.ml_value_ = cert.ml_value
        self.parity_ = cert.parity
        return self


class PqNormEstimator(_TensorMaximizer):
    """Lower-bound estimator for the p -> q operator norm of a matrix.

    fit(B) solves the positive-semidefinite relaxation and rounds it; exposes
    relax_value_ (upper proxy), value_ (feasible lower bound) and the
    witnesses y_, z_.
    """

    def __init__(self, p=2.5, strategy=SolverConfig.strategy, trials=SolverConfig.trials,
                 seed=SolverConfig.seed, tol=SolverConfig.tol, max_iter=SolverConfig.max_iter):
        self.p = p
        self.strategy = strategy
        self.trials = trials
        self.seed = seed
        self.tol = tol
        self.max_iter = max_iter

    def fit(self, B, y=None):
        gram, pair = pq_norm_lb(B, self.p, _config_from(self))
        self.gram_ = gram
        self.relax_value_ = gram.value
        self.value_ = pair.value
        self.y_ = pair.y
        self.z_ = pair.z
        return self
