"""Method-of-types machinery and frequency-typical subspace checks.

Classical type classes (letter-frequency equivalence classes) drive the
channel-simulation protocol; the same counting arguments, applied to the
eigenvalue distribution of a density operator, give exact answers for
frequency-typical subspaces of rho^(x)n without ever building the
d^n-dimensional projector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .qmath import EIG_ZERO_TOL, entropy_of_spectrum, _state_matrix

MAX_ENUMERATED_TYPES = 5_000_000


@dataclass(frozen=True)
class TypeClass:
    """Letter-count vector of a string; two strings share it iff they are
    permutations of each other."""

    counts: tuple

    def __post_init__(self):
        counts = tuple(int(c) for c in self.counts)
        if any(c < 0 for c in counts):
            raise ValueError(f"negative letter count in {counts}")
        object.__setattr__(self, "counts", counts)

    @property
    def n(self) -> int:
        return sum(self.counts)

    @property
    def d(self) -> int:
        return len(self.counts)

    def multiplicity(self) -> int:
        """Number of distinct strings with these counts (exact integer)."""
        return _multinomial(self.n, self.counts)


@dataclass(frozen=True)
class JointType:
    """Pairwise letter-count matrix of two aligned strings.

    Two (input, output) pairs share a joint type iff one common position
    permutation maps one pair onto the other.
    """

    counts: tuple

    def __post_init__(self):
        rows = tuple(tuple(int(c) for c in row) for row in self.counts)
        if any(c < 0 for row in rows for c in row):
            raise ValueError("negative pair count")
        widths = {len(row) for row in rows}
        if len(widths) > 1:
            raise ValueError("ragged joint-count matrix")
        object.__setattr__(self, "counts", rows)

    @property
    def n(self) -> int:
        return sum(sum(row) for row in self.counts)

    def input_type(self) -> TypeClass:
        return TypeClass(tuple(sum(row) for row in self.counts))

    def output_type(self) -> TypeClass:
        return TypeClass(tuple(sum(col) for col in zip(*self.counts)))

    def key(self) -> tuple:
        # row-major flattening; hashable protocol dictionary key
        return tuple(c for row in self.counts for c in row)


def _letters(x) -> list:
    if isinstance(x, str):
        return [int(ch) for ch in x]
    return [int(v) for v in x]


def type_of(x, d: int) -> TypeClass:
    """Count letter occurrences of x over the alphabet {0, ..., d-1}."""
    counts = [0] * d
    for v in _letters(x):
        if not 0 <= v < d:
            raise ValueError(f"letter {v} outside alphabet of size {d}")
        counts[v] += 1
    return TypeClass(tuple(counts))


def joint_type(x, y, d_in: int | None = None, d_out: int | None = None) -> JointType:
    """Count aligned letter pairs of two equal-length strings."""
    xs, ys = _letters(x), _letters(y)
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    di = d_in if d_in is not None else (max(xs) + 1 if xs else 1)
    do = d_out if d_out is not None else (max(ys) + 1 if ys else 1)
    counts = [[0] * do for _ in range(di)]
    for a, b in zip(xs, ys):
        if not 0 <= a < di:
            raise ValueError(f"input letter {a} outside alphabet of size {di}")
        if not 0 <= b < do:
            raise ValueError(f"output letter {b} outside alphabet of size {do}")
        counts[a][b] += 1
    return JointType(tuple(tuple(row) for row in counts))


def enumerate_types(n: int, d: int) -> list:
    """All letter-count vectors of length-n strings over d letters.

    First count descending, then recursively the same on the remainder,
    so n=2, d=2 lists (2,0), (1,1), (0,2). The count is the stars-and-bars
    value C(n+d-1, d-1); enumeration refuses grids past MAX_ENUMERATED_TYPES.
    """
    if n < 0 or d < 1:
        raise ValueError(f"need n >= 0 and d >= 1, got n={n}, d={d}")
    total = math.comb(n + d - 1, d - 1)
    if total > MAX_ENUMERATED_TYPES:
        raise ValueError(f"{total} types exceed the enumeration cap")
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(TypeClass(prefix + (remaining,)))
            return
        for c in range(remaining, -1, -1):
            rec(prefix + (c,), remaining - c, slots - 1)

    rec((), n, d)
    return out


def sample_from_type(tc: TypeClass, rng) -> np.ndarray:
    """One string drawn uniformly from the type class (multiset shuffle)."""
    letters = np.repeat(np.arange(tc.d, dtype=np.int64), tc.counts)
    return rng.permutation(letters)


def _multinomial(n: int, counts) -> int:
    # each letter picks its slots among those still free; no n! at large n
    out = 1
    for c in counts:
        out *= math.comb(n, c)
        n -= c
    return out


class TypicalEigenstateSet:
    """Implicit set of delta-typical index sequences for a spectrum.

    A length-n sequence over the d eigenvalue indices is a member iff
    every letter count stays strictly within delta*n of lambda_j * n.
    Comparisons are exact: floats enter as binary rationals, so there is
    no boundary flakiness at |count - lambda n| == delta n. Cardinality
    and iteration work type class by type class; nothing of size d^n is
    ever materialized.
    """

    def __init__(self, eigs, n: int, delta):
        # keep the raw values: a Fraction (or "1/10" string) passes through
        # exactly, while a float is pinned to the binary rational it denotes
        raw = [v for v in eigs]
        arr = np.asarray([float(v) for v in raw], dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("eigenvalue vector must be 1-d and nonempty")
        if np.any(arr < -1e-12) or abs(float(arr.sum()) - 1.0) > 1e-9:
            raise ValueError("eigenvalues must form a probability distribution")
        dn = Fraction(delta) * n
        if n < 1 or dn <= 0:
            raise ValueError(f"need n >= 1 and delta > 0, got n={n}, delta={delta}")
        self.eigs = tuple(float(v) for v in arr)
        self.n = int(n)
        self.delta = float(delta)
        self._ranges = []
        for lam in raw:
            center = Fraction(lam) * n
            lo = max(math.floor(center - dn) + 1, 0)
            hi = min(math.ceil(center + dn) - 1, n)
            self._ranges.append((lo, hi))

    @property
    def d(self) -> int:
        return len(self.eigs)

    def __contains__(self, seq) -> bool:
        counts = type_of(seq, self.d).counts
        if sum(counts) != self.n:
            return False
        return all(lo <= c <= hi for c, (lo, hi) in zip(counts, self._ranges))

    def admissible_types(self):
        """Yield every letter-count vector the membership test accepts."""
        ranges = self._ranges
        d, n = self.d, self.n

        def rec(prefix, remaining, j):
            lo, hi = ranges[j]
            if j == d - 1:
                if lo <= remaining <= hi:
                    yield prefix + (remaining,)
                return
            # prune by what the remaining slots can still absorb
            tail_lo = sum(r[0] for r in ranges[j + 1:])
            tail_hi = sum(r[1] for r in ranges[j + 1:])
            for c in range(max(lo, remaining - tail_hi),
                           min(hi, remaining - tail_lo) + 1):
                yield from rec(prefix + (c,), remaining - c, j + 1)

        yield from rec((), n, 0)

    def cardinality(self) -> int:
        return sum(_multinomial(self.n, c) for c in self.admissible_types())

    def __iter__(self):
        for counts in self.admissible_types():
            yield from _arrangements(list(counts))


def _arrangements(counts):
    """All distinct sequences with the given letter counts, lexicographic."""
    if not any(counts):
        yield ()
        return
    for j, c in enumerate(counts):
        if c:
            counts[j] -= 1
            for rest in _arrangements(counts):
                yield (j,) + rest
            counts[j] += 1


def typical_eigenstate_set(eigs, n: int, delta: float) -> TypicalEigenstateSet:
    return TypicalEigenstateSet(eigs, n, delta)


@dataclass
class TypicalSubspaceReport:
    """Exact diagnostics of one frequency-typical subspace."""

    n: int
    delta: float
    eps: float
    entropy: float
    delta_prime: float
    trace_mass: float
    min_eig: float
    max_eig: float
    dim: int
    bounds_ok: tuple

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "delta": self.delta,
            "eps": self.eps,
            "entropy": self.entropy,
            "delta_prime": self.delta_prime,
            "trace_mass": self.trace_mass,
            "min_eig": self.min_eig,
            "max_eig": self.max_eig,
            "dim": self.dim,
            "bounds_ok": list(self.bounds_ok),
        }


def typical_subspace_report(rho, n: int, delta: float,
                            eps: float = 0.1) -> TypicalSubspaceReport:
    """Check the three typical-subspace properties of rho^(x)n exactly.

    The projector onto the delta-typical subspace commutes with rho^(x)n,
    so its trace mass, its eigenvalue range, and its dimension reduce to
    multinomial sums over admissible letter-count vectors of the spectrum.
    Zero eigenvalues are dropped first (the subspace lives in the support).
    The three booleans report, in order:

      1. trace mass > 1 - eps,
      2. every kept eigenvalue within [2^-n(H+delta'), 2^-n(H-delta')],
      3. (1-eps) 2^n(H-delta') <= dim <= 2^n(H+delta'),

    with delta' = delta * d * log2(lambda_max / lambda_min) on the support.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0,1), got {eps}")
    mat = _state_matrix(rho)
    spectrum = np.linalg.eigvalsh(mat)
    support = np.sort(spectrum[spectrum > EIG_ZERO_TOL])[::-1]
    d = support.size
    entropy = entropy_of_spectrum(support)
    delta_prime = float(delta) * d * math.log2(float(support[0] / support[-1]))

    # weights and multiplicities reach 2^(+-n H), past the float range for
    # n in the thousands, so every product and window test is a log2 sum
    tset = TypicalEigenstateSet(support / support.sum(), n, delta)
    trace_mass = 0.0
    dim = 0
    min_log, max_log = math.inf, -math.inf
    log_support = np.log2(support.astype(np.float64))
    for counts in tset.admissible_types():
        weight_log = float(np.dot(np.asarray(counts, dtype=np.float64), log_support))
        mult = _multinomial(n, counts)
        trace_mass += 2.0 ** (math.log2(mult) + weight_log)
        dim += mult
        min_log = min(min_log, weight_log)
        max_log = max(max_log, weight_log)

    lo_log = -n * (entropy + delta_prime)
    hi_log = -n * (entropy - delta_prime)
    prop1 = trace_mass > 1.0 - eps
    prop2 = dim == 0 or (min_log >= lo_log + math.log2(1.0 - 1e-9)
                         and max_log <= hi_log + math.log2(1.0 + 1e-9))
    prop3 = dim > 0 and (math.log2(1.0 - eps) - hi_log <= math.log2(dim)
                         <= math.log2(1.0 + 1e-9) - lo_log)
    min_eig, max_eig = (2.0 ** min_log, 2.0 ** max_log) if dim else (math.nan, math.nan)
    return TypicalSubspaceReport(
        n=n, delta=float(delta), eps=eps, entropy=entropy, delta_prime=delta_prime,
        trace_mass=float(trace_mass), min_eig=float(min_eig),
        max_eig=float(max_eig), dim=dim, bounds_ok=(prop1, prop2, prop3))
