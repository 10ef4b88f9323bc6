"""Super-symmetric test tensors, imported by the test modules."""
import itertools
import math

import numpy as np


def perm_avg(arr):
    """Average of all index-permutation transposes: a super-symmetric tensor."""
    d = arr.ndim
    out = sum(np.transpose(arr, ax) for ax in itertools.permutations(range(d)))
    return out / math.factorial(d)


def random_supersym(rng, n, d):
    return perm_avg(rng.standard_normal((n,) * d))
