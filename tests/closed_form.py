"""Tensors whose multilinear optimum over unit L_p balls has a closed form,
imported by the test modules.  Each builder returns (tensor, OPT)."""
import math

import numpy as np


def norm(v, r):
    """||v||_r, taken over max|v_i| so that no power under- or overflows."""
    a = np.abs(v)
    top = float(a.max())
    if r == math.inf or top == 0.0:
        return top
    return top * float(np.sum((a / top) ** r)) ** (1.0 / r)


def rank_one(rng, dims, p, scale=1.0):
    """a_1 (x) ... (x) a_d: F_A(x^1, ..., x^d) = prod_j <a_j, x^j>, and by Holder
    each factor reaches ||a_j||_q (q = p*) on the unit L_p ball, so OPT =
    prod_j ||a_j||_q."""
    vecs = [rng.standard_normal(n) for n in dims]
    vecs[0] *= scale
    A = vecs[0]
    for v in vecs[1:]:
        A = np.multiply.outer(A, v)
    q = 1.0 if p == math.inf else p / (p - 1.0)
    return A, math.prod(norm(v, q) for v in vecs)


def diagonal(rng, n, d, p, scale=1.0):
    """sum_i lambda_i e_i^(x)d: F_A = sum_i lambda_i prod_j x^j_i.  For p > d,
    Holder with exponents (r, p, ..., p), 1/r + d/p = 1, gives OPT =
    ||lambda||_r (||lambda||_1 at p = inf).  For p <= d, sum_i prod_j |x^j_i|
    <= prod_j ||x^j||_d <= prod_j ||x^j||_p, so OPT = max|lambda_i|, at x^j = e_i."""
    lam = scale * rng.standard_normal(n)
    A = np.zeros((n,) * d)
    A[(np.arange(n),) * d] = lam
    return A, diagonal_opt(lam, d, p)


def diagonal_opt(lam, d, p):
    """OPT of the diagonal tensor of lam at order d (see diagonal)."""
    if p == math.inf:
        return norm(lam, 1.0)
    return norm(lam, p / (p - d) if p > d else math.inf)
