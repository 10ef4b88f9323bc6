"""End-to-end acceptance checks.

Each test here is one numbered criterion with fixed seeds and explicit
tolerances; together they exercise the identities, guarantees, and
determinism the library promises.  Every test prints a single PASS line
(visible with -s, or via the -v test status) so the whole gate reads as a
checklist.  The full file is budgeted to finish well under ten minutes.
"""

import itertools
import json
import math
import subprocess
import sys

import numpy as np

from lpmax import (
    HpInstance,
    MlInstance,
    SolverConfig,
    Tensor,
    derive_rng,
    eval_multilinear,
    eval_poly,
    exact_ml_linf,
    fn_check,
    grid_ml,
    lp_norm,
    permutation_expansion,
    rebalance_blocks,
    round_gram,
    sample_pgauss,
    sample_rademacher,
    solve_hp,
    solve_ml,
    solve_vecp,
    stack,
    sym_equivalence_check,
    symmetrize,
)
from lpmax.pqnorm import _trial_sign_values

from supersym import perm_avg

INF = float("inf")


def _ok(num, name, detail=""):
    print(f"criterion {num:02d} PASS  {name}  {detail}")


def test_c01_symmetrize_polynomial_identity():
    """f_sym(A)(stacked xs) == d! * F_A(xs) on 200 random tensors."""
    rng = np.random.default_rng(101)
    for k in range(200):
        d = 2 + k % 3
        dims = rng.integers(1, 4, size=d)
        A = rng.standard_normal(dims)
        xs = [rng.standard_normal(n) for n in dims]
        lhs = eval_poly(symmetrize(A), stack(xs))
        rhs = math.factorial(d) * eval_multilinear(A, xs)
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs)), (k, lhs, rhs)
    _ok(1, "symmetrize polynomial identity", "200 tensors, d in 2..4, tol 1e-10")


def test_c02_permutation_expansion_identity():
    """F_sym(A)(z^1..z^d) equals the sum over S_d of permuted block products."""
    rng = np.random.default_rng(202)
    for k in range(100):
        d = 2 + k % 3
        dims = rng.integers(1, 4, size=d)
        A = rng.standard_normal(dims)
        N = int(dims.sum())
        zs = [rng.standard_normal(N) for _ in range(d)]
        lhs = permutation_expansion(A, zs)
        rhs = eval_multilinear(symmetrize(A), zs)
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs)), (k, lhs, rhs)
    _ok(2, "permutation expansion identity", "100 instances, d in 2..4, tol 1e-10")


def test_c03_polarization_identity():
    """Signed average over all 2^d sign patterns recovers d! * F_A."""
    rng = np.random.default_rng(303)
    for k in range(100):
        d = 3 + k % 3
        n = 2 if d == 5 else 2 + k % 2
        T = Tensor(perm_avg(rng.standard_normal((n,) * d)), supersymmetric=True)
        xs = [rng.standard_normal(n) for _ in range(d)]
        total = 0.0
        for beta in itertools.product((-1.0, 1.0), repeat=d):
            y = sum(b * x for b, x in zip(beta, xs))
            total += math.prod(beta) * eval_poly(T, y)
        avg = total / 2 ** d
        rhs = math.factorial(d) * eval_multilinear(T, xs)
        assert abs(avg - rhs) <= 1e-10 * (1.0 + abs(rhs)), (k, avg, rhs)
    _ok(3, "polarization identity", "100 instances, d in 3..5, tol 1e-10")


def test_c04_odd_degree_recovery_floor():
    """solve_hp value >= d! * d^-d * ml_value - 1e-9 on 100 seeded odd-d runs."""
    rng = np.random.default_rng(404)
    viol = 0
    for k in range(60):  # d = 3
        n = [2, 3, 4][k % 3]
        p = [INF, 3.0, 4.0][k % 3]
        A = perm_avg(rng.standard_normal((n,) * 3))
        cert = solve_hp(HpInstance(A, p, SolverConfig(seed=k, trials=24, max_samples=6)))
        if not cert.value >= math.factorial(3) * 3 ** -3 * cert.ml_value - 1e-9:
            viol += 1
    for k in range(40):  # d = 5
        p = INF if k % 4 else 3.0
        ms = 3 if p == INF else 2
        A = perm_avg(rng.standard_normal((2,) * 5))
        cert = solve_hp(HpInstance(A, p, SolverConfig(seed=1000 + k, trials=16, max_samples=ms)))
        if not cert.value >= math.factorial(5) * 5 ** -5 * cert.ml_value - 1e-9:
            viol += 1
    assert viol == 0, f"{viol} runs fell below the odd-degree recovery floor"
    _ok(4, "odd-degree recovery floor", "100 runs (60 d=3, 40 d=5), 0 violations")


def test_c05_relaxation_sandwich():
    """oracle <= relaxation + 1e-4; rounded <= oracle + 1e-6; rounded >= relax/1.783 on >= 95%."""
    rng = np.random.default_rng(777)
    floor_hits = 0
    for k in range(50):
        m, n = rng.integers(2, 7, size=2)
        B = rng.standard_normal((m, n))
        p = [3.0, 4.0, INF][k % 3]
        g = solve_vecp(B, p)
        pair = round_gram(B, g, "krivine", 200, derive_rng(k, 0x51))
        if p == INF:
            orc = exact_ml_linf(B).value
        else:
            orc = grid_ml(B, p, steps=15, refine=24).value
        assert orc <= g.value + 1e-4, (k, orc, g.value)
        assert pair.value <= orc + 1e-6, (k, pair.value, orc)
        if pair.value >= g.value / 1.783 - 1e-6:
            floor_hits += 1
    assert floor_hits >= 48, f"rounding floor held on only {floor_hits}/50 instances"
    _ok(5, "relaxation sandwich", f"50 matrices, floor hits {floor_hits}/50")


def test_c06_krivine_expected_value():
    """Single-trial mean over 1e4 roundings matches (2 ln(1+sqrt 2)/pi) * relaxation."""
    coef = 2.0 * math.log(1.0 + math.sqrt(2.0)) / math.pi
    rng = np.random.default_rng(606)
    worst = 0.0
    for k in range(10):
        B = rng.standard_normal((5, 5))
        p = INF if k % 2 == 0 else 3.0
        g = solve_vecp(B, p)
        vals, _, _ = _trial_sign_values(B, g, "krivine", 10 ** 4, derive_rng(k, 0x51))
        mean = float(np.mean(vals))
        se = float(np.std(vals)) / 100.0
        z = abs(mean - coef * g.value) / se
        worst = max(worst, z)
        assert z <= 3.0, (k, mean, coef * g.value, z)
    _ok(6, "krivine expected value", f"10 matrices, worst z = {worst:.2f}")


def test_c07_sampler_moments():
    """E|xi|^p == 1/p within 3 sigma at 1e5 draws; Rademacher mean within 3 sigma of 0."""
    rng = np.random.default_rng(707)
    n = 10 ** 5
    for p in (2.5, 3.0, 4.0):
        xi, _ = sample_pgauss(n, p, rng)
        pow_p = np.abs(xi) ** p
        mean = float(pow_p.mean())
        se = float(pow_p.std()) / math.sqrt(n)
        assert abs(mean - 1.0 / p) <= 3.0 * se, (p, mean, 1.0 / p, se)
    eps = sample_rademacher(n, np.random.default_rng(708))
    assert abs(float(eps.mean())) <= 3.0 / math.sqrt(n)
    _ok(7, "sampler moments", "p in {2.5, 3, 4} at 1e5 draws, 3 sigma")


def test_c08_auxiliary_function_maximum():
    """Grid max of the rebalancing auxiliary function matches its closed form."""
    for n in (2, 3):
        for d in (3, 4):
            for p in (2.0, 3.0, 4.0):
                # 60 intervals put the balanced point d/n exactly on the grid
                grid_max, formula = fn_check(n, d, p, steps=61)
                assert grid_max <= formula + 1e-3, (n, d, p, grid_max, formula)
                assert grid_max >= formula - 1e-3, (n, d, p, grid_max, formula)
    _ok(8, "auxiliary function maximum", "12 (n, d, p) combinations, tol 1e-3")


def test_c09_rebalancing_monotone():
    """Unit block norms within 1e-10 and F never decreases on 100 feasible inputs."""
    rng = np.random.default_rng(909)
    for k in range(100):
        d = 2 + k % 2
        n = 2 + k % 3
        A = rng.standard_normal((n,) * d)
        p = [3.0, 4.0, INF][k % 3]
        # feasible, unbalanced: every block strictly inside its unit ball
        zs = []
        for _ in range(d):
            z = rng.standard_normal(n)
            zs.append(z / lp_norm(z, p) * rng.uniform(0.2, 1.0))
        before = eval_multilinear(A, zs)
        if before < 0:
            zs[0] = -zs[0]
            before = -before
        if before <= 1e-12:
            continue
        out = rebalance_blocks(A, zs, p)
        for z in out:
            assert abs(lp_norm(z, p) - 1.0) <= 1e-10, (k, lp_norm(z, p))
        after = eval_multilinear(A, out)
        assert after >= before - 1e-9 * max(1.0, abs(before)), (k, before, after)
    _ok(9, "rebalancing monotone", "100 feasible inputs, unit norms within 1e-10")


def test_c10_end_to_end_quality():
    """solve_ml reaches 0.3x the exact optimum on >= 80% of 30 seeded 3x3x3 runs."""
    rng = np.random.default_rng(202608)
    hits = 0
    worst = INF
    for k in range(30):
        A = rng.standard_normal((3, 3, 3))
        inst = MlInstance(A, INF, SolverConfig(seed=k, trials=64, max_samples=16))
        res = solve_ml(inst)
        opt = exact_ml_linf(A).value
        assert res.value <= opt + 1e-6, (k, res.value, opt)
        ratio = res.value / opt if opt > 0 else 1.0
        worst = min(worst, ratio)
        if res.value >= 0.3 * opt:
            hits += 1
    assert hits >= 24, f"only {hits}/30 runs reached 0.3x the optimum"
    _ok(10, "end-to-end quality", f"hits {hits}/30, worst ratio {worst:.3f}")


def test_c11_symmetrization_equivalence():
    """d! * opt(A) == d^(d/p) * opt(sym(A)) for 10 tiny instances."""
    rng = np.random.default_rng(1111)
    checked = 0
    # order-2 instances, finite p: grid oracle on both sides; dims kept small
    # enough that the symmetrized side (a 4x4 or 5x5 matrix) fits the budget
    for k in range(5):
        shape = [(2, 2), (3, 2), (2, 3), (3, 2), (2, 2)][k]
        A = rng.standard_normal(shape)
        p = [3.0, 4.0][k % 2]
        assert sym_equivalence_check(A, p, steps=26), (k, shape, p)
        checked += 1
    # order-2 and order-3 instances at p = inf: exact enumeration on both sides
    for k in range(5):
        if k % 2 == 0:
            A = rng.standard_normal((2, 2, 2))
            if k == 4:  # zero-padded copy exercises degenerate directions
                Z = np.zeros((3, 3, 3))
                Z[:2, :2, :2] = A
                A = Z
        else:
            A = rng.standard_normal((3, 4))
        assert sym_equivalence_check(A, INF, steps=2), (k, A.shape)
        checked += 1
    _ok(11, "symmetrization equivalence", f"{checked}/10 instances")


def test_c12_cli_determinism(tmp_path):
    """Five identical CLI invocations give byte-identical reports sans timing."""
    doc = {"dims": [2, 2, 2],
           "coo": [[1, 1, 1, 0.7], [1, 2, 2, -1.3], [2, 1, 2, 0.4],
                   [2, 2, 1, 1.1], [2, 2, 2, -0.6]]}
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc))
    argv = [sys.executable, "-m", "lpmax.cli", "solve-ml", str(path),
            "--p", "inf", "--seed", "11", "--trials", "32",
            "--max-samples", "8", "--format", "json"]
    outs = set()
    for _ in range(5):
        res = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr
        body = json.loads(res.stdout)
        body.pop("timing")
        outs.add(json.dumps(body, sort_keys=True))
    assert len(outs) == 1, f"{len(outs)} distinct reports across 5 runs"
    _ok(12, "cli determinism", "5 invocations byte-identical sans timing")
