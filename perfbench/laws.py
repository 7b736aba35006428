"""Exact laws the Monte-Carlo and grid outputs are checked against.

Computed here, independently of qcap's protocol code, from the protocol's
published rules: set size M = ceil(2^(n (rate + eps/2))); a trial falls
back when none of the M iid set members shares the private output's
match class (Hamming shell for the BSC, joint type with x for a DMC).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.stats import binom, hypergeom, multinomial


def h2(p: float) -> float:
    return 0.0 if p <= 0.0 or p >= 1.0 else -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def set_size(rate_bits: float, n: int, eps: float) -> int:
    return max(math.ceil(2.0 ** (n * (rate_bits + eps / 2.0))), 1)


def bsc_fallback(p: float, n: int, eps: float) -> float:
    """sum_d Binom(n,p)(d) (1 - C(n,d)/2^n)^M with M the set size."""
    big_m = set_size(1.0 - h2(p), n, eps)
    total = 0.0
    for d in range(n + 1):
        shell = math.comb(n, d) / 2.0 ** n
        total += binom.pmf(d, n, p) * math.exp(big_m * math.log1p(-shell))
    return total


def _count_pmf(row, k: int, n: int) -> np.ndarray:
    """pmf over (c0, c1) of letter counts after k draws from a 3-letter row."""
    out = np.zeros((n + 1, n + 1))
    for c0 in range(k + 1):
        for c1 in range(k - c0 + 1):
            out[c0, c1] = multinomial.pmf([c0, c1, k - c0 - c1], k, row)
    return out


def _mi(mat: np.ndarray, q: np.ndarray) -> float:
    out = q @ mat
    total = 0.0
    for x in range(mat.shape[0]):
        for y in range(mat.shape[1]):
            if q[x] > 0 and mat[x, y] > 0:
                total += q[x] * mat[x, y] * math.log2(mat[x, y] / out[y])
    return max(total, 0.0)


def dmc_fallback_given_type(mat, a: int, n: int, eps: float) -> float:
    """sum_J P(J|x) (1 - q_J)^M for x with a zeros and n-a ones.

    Only binary-input, three-output channels (the benchmark's DMC). A set
    member is the channel output of a uniform x' of the same type; the
    number k of positions where x and x' are both 0 is hypergeometric,
    and given k each row of the member's joint type with x is a sum of
    independent multinomial counts from the two channel rows.
    """
    from scipy.signal import convolve2d

    mat = np.asarray(mat, dtype=np.float64)
    if mat.shape != (2, 3):
        raise ValueError("this law is written for a 2x3 channel")
    b = n - a
    big_m = set_size(_mi(mat, np.array([a / n, b / n])), n, eps)
    pmf = {}

    def cpmf(row, k):
        if (row, k) not in pmf:
            pmf[(row, k)] = _count_pmf(mat[row], k, n)
        return pmf[(row, k)]

    # law of the private output's joint type: row x=0 then row x=1
    p_row0 = cpmf(0, a)
    p_row1 = cpmf(1, b)
    q = np.zeros(((n + 1) ** 2, (n + 1) ** 2))
    for k in range(max(0, a - b), a + 1):
        w = hypergeom.pmf(k, n, a, a)
        if w == 0.0:
            continue
        # x=0 positions: k with x'=0, a-k with x'=1
        r0 = convolve2d(cpmf(0, k), cpmf(1, a - k))[: n + 1, : n + 1]
        # x=1 positions: a-k with x'=0, b-a+k with x'=1
        r1 = convolve2d(cpmf(0, a - k), cpmf(1, b - a + k))[: n + 1, : n + 1]
        q += w * np.outer(r0.ravel(), r1.ravel())
    pj = np.outer(p_row0.ravel(), p_row1.ravel())
    live = pj > 0.0
    return float(np.sum(pj[live] * np.exp(big_m * np.log1p(-np.minimum(q[live], 1.0)))))


def grid_spacing_bound(resolution: float, ce_upper: float) -> float:
    """How far the Bloch-grid maximum may trail the true maximum f*.

    Every point of the cube lies within delta = resolution*sqrt(3)/2 of a
    lattice point. For the optimum r*, a lattice point r' within delta of
    (1-delta) r* can be written (1-delta) r* + delta z with |z| <= 1, so
    r' is in the ball and, f being concave and nonnegative on the ball,
    f(r') >= (1-delta) f*. Hence f* - grid max <= delta f* <= delta ce_upper.
    """
    return resolution * math.sqrt(3.0) / 2.0 * ce_upper
