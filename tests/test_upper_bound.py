"""The certificates' upper bound: value <= OPT <= upper_bound, with no slack."""
import itertools
import tracemalloc

import numpy as np
import pytest

from lpmax.config import SolverConfig
from lpmax.hpopt import HpInstance, solve_hp
from lpmax.mlopt import MlInstance, solve_ml
from lpmax.oracle import exact_ml_linf, grid_hp
from lpmax.tensor import form_bound
from lpmax.validation import INF, conjugate_exponent

from closed_form import diagonal, diagonal_opt, rank_one
from supersym import random_supersym

_SCALES = (1.0, 1e-170, 1e160)


@pytest.mark.parametrize("family", ["rank-one", "diagonal"])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_upper_bound_on_closed_form_optima(family, d):
    # solve_ml runs up to n = 16; n = 32 checks the bound alone, which is the
    # certificate's by construction
    rng = np.random.default_rng(900 + d)
    for k, (p, scale) in enumerate(itertools.product((3.0, 3.5, 4.0, INF), _SCALES)):
        for n in (2 + k % 4, 16, 32):
            if family == "rank-one":
                A, opt = rank_one(rng, (n,) + tuple(rng.integers(2, n + 1, size=d - 1)), p, scale)
            else:
                A, opt = diagonal(rng, n, d, p, scale)
            bound = form_bound(A, conjugate_exponent(p))
            case = (family, d, p, scale, n)
            assert opt <= bound, case
            if family == "rank-one" or p == INF:  # the entrywise q-norm is OPT itself
                assert bound <= opt * (1 + 2e-9), case
            if n <= 16:
                cert = solve_ml(MlInstance(A, p, SolverConfig(seed=k, trials=4, max_samples=2)))
                assert cert.upper_bound == bound, case
                assert cert.value <= opt * (1 + 1e-12), case


@pytest.mark.parametrize("scale", [1e-170, 1e160])
def test_upper_bound_caps_the_exact_optimum_on_the_c10_corpus(scale):
    # the 30 seeded 3x3x3 tensors of acceptance criterion c10, at p = inf
    rng = np.random.default_rng(202608)
    for k in range(30):
        A = scale * rng.standard_normal((3, 3, 3))
        cert = solve_ml(MlInstance(A, INF, SolverConfig(seed=k, trials=8, max_samples=4)))
        opt = exact_ml_linf(A).value
        assert cert.value <= opt <= cert.upper_bound, (k, cert.value, opt, cert.upper_bound)


@pytest.mark.parametrize("d,p", [(2, 3.0), (3, INF), (3, 4.0), (4, 3.5), (4, INF)])
def test_polynomial_upper_bound_caps_the_grid_oracle(d, p):
    # f_A(x) = F_A(x, ..., x), so solve_ml's bound on F_A caps f_A too
    rng = np.random.default_rng(910 + d)
    for k in range(3):
        S = random_supersym(rng, 3, d)
        cert = solve_hp(HpInstance(S, p, SolverConfig(seed=k, trials=8, max_samples=4)))
        found = grid_hp(S, p, 9, refine=4).value
        assert cert.value <= cert.upper_bound and found <= cert.upper_bound, (d, p, k)


def test_polynomial_certificates_on_diagonal_optima():
    # f(x) = sum_i lambda_i x_i^d: at odd d a sign flip of x_i flips its term, so
    # OPT is the multilinear closed form; at even d only the positive lambda_i
    # count, and OPT is 0 when none is
    rng = np.random.default_rng(920)
    cases = itertools.product((3, 4), (3, 5, 8), (3.0, 4.0, INF), _SCALES)
    for k, (d, n, p, scale) in enumerate(cases):
        A, opt = diagonal(rng, n, d, p, scale)
        if d % 2 == 0:
            lam = A[(np.arange(n),) * d]
            opt = diagonal_opt(lam[lam > 0.0], d, p) if (lam > 0.0).any() else 0.0
        cert = solve_hp(HpInstance(A, p, SolverConfig(seed=k, trials=4, max_samples=2)))
        case = (d, n, p, scale)
        assert cert.value <= opt * (1 + 1e-12), case
        assert opt <= cert.upper_bound, case


def test_form_bound_memory_is_bounded():
    # one unfolding copy, its rescaled copy and one temporary at a time
    arr = np.random.default_rng(98).standard_normal((50, 200, 200))
    for q in (1.0, 4.0 / 3.0):
        tracemalloc.start()
        try:
            form_bound(arr, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * arr.nbytes, q
