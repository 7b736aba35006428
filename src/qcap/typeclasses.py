"""Method-of-types machinery and frequency-typical subspace checks.

Classical type classes (letter-frequency equivalence classes) drive the
channel-simulation protocol; the same counting arguments, applied to the
eigenvalue distribution of a density operator, give exact answers for
frequency-typical subspaces of rho^(x)n without ever building the
d^n-dimensional projector.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
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

    def letters(self) -> np.ndarray:
        """The class's sorted string: each letter repeated by its count (int64)."""
        return np.repeat(np.arange(self.d, dtype=np.int64), self.counts)


def letters(x, d: int | None, n: int | None = None) -> np.ndarray:
    """x as a checked int64 block over the alphabet {0, ..., d-1}.

    x is a digit string or a 1-d sequence of whole numbers. A d of None
    admits any nonnegative letter; n, if given, is the required length.
    """
    raw = np.asarray(list(x) if isinstance(x, str) else x)
    if raw.dtype.kind == "f" and not np.all(np.isfinite(raw) & (raw == np.round(raw))):
        raise ValueError(f"letters must be whole numbers, got {raw}")
    arr = raw.astype(np.int64, copy=False)  # digit characters parse here
    if arr.ndim != 1:
        raise ValueError(f"block must be one-dimensional, got shape {arr.shape}")
    if n is not None and len(arr) != n:
        raise ValueError(f"block must have length {n}, got {len(arr)}")
    if arr.size and (arr.min() < 0 or (d is not None and arr.max() >= d)):
        raise ValueError(f"letters must lie in [0, {d}), got {arr.min()}..{arr.max()}")
    return arr


def type_of(x, d: int) -> TypeClass:
    """Count letter occurrences of x over the alphabet {0, ..., d-1}."""
    return TypeClass(tuple(np.bincount(letters(x, d), minlength=d)))


def pair_counts(x: np.ndarray, ys: np.ndarray, d_in: int, d_out: int) -> np.ndarray:
    """Counts of aligned letter pairs (x_i, y_i) for each block y on ys's last axis.

    x and each y are valid blocks of one length (see letters). Entry
    a * d_out + b counts the pairs (a, b): a flat joint type.
    """
    ys = np.asarray(ys)
    m, k = math.prod(ys.shape[:-1]), d_in * d_out
    # block r's pair counts sit at r * k onwards
    codes = np.arange(m).reshape(ys.shape[:-1] + (1,)) * k + x * d_out + ys
    return np.bincount(codes.ravel(), minlength=m * k).reshape(ys.shape[:-1] + (k,))


def joint_type(x, y, d_in: int | None = None, d_out: int | None = None) -> np.ndarray:
    """pair_counts of two equal-length strings as a (d_in, d_out) array: their
    joint type, shared by two pairs iff one position permutation maps one
    onto the other. An alphabet size left out is one more than the
    largest letter (1 for no letters)."""
    xs, ys = letters(x, d_in), letters(y, d_out, len(x))
    di = d_in if d_in is not None else int(xs.max(initial=0)) + 1
    do = d_out if d_out is not None else int(ys.max(initial=0)) + 1
    return pair_counts(xs, ys, di, do).reshape(di, do)


def block_code(block, d: int) -> int:
    """Big-endian base-d code of a block as an exact Python int: its position
    among all blocks of its length, listed last letter fastest."""
    code = 0
    for v in np.asarray(block).tolist():
        code = code * d + v
    return code


def type_rank(counts: tuple) -> int:
    """Position of a letter-count vector in enumerate_types order."""
    rank, n, d = 0, sum(counts), len(counts)
    for j, c in enumerate(counts[:-1]):
        # vectors sharing counts[:j] with a larger count j, by the hockey stick
        rank += math.comb(n - c - 1 + d - j - 1, d - j - 1)
        n -= c
    return rank


def enumerate_types(n: int, d: int) -> list:
    """All letter-count vectors of length-n strings over d letters.

    First count descending, then recursively the same on the remainder,
    so n=2, d=2 lists (2,0), (1,1), (0,2): _count_vectors's order reversed.
    The count is the stars-and-bars value C(n+d-1, d-1); enumeration
    refuses grids past MAX_ENUMERATED_TYPES.
    """
    if n < 0 or d < 1:
        raise ValueError(f"need n >= 0 and d >= 1, got n={n}, d={d}")
    total = math.comb(n + d - 1, d - 1)
    if total > MAX_ENUMERATED_TYPES:
        raise ValueError(f"{total} types exceed the enumeration cap")
    return [TypeClass(c) for c in _count_vectors(n, [(0, n)] * d)][::-1]


def _count_vectors(n: int, ranges: list, prefix: tuple = ()):
    """Yield prefix + c for every count vector c summing to n with each c_j
    in [lo, hi] = ranges[j]: first count ascending, then recursively the
    same on the remainder."""
    if not ranges:
        yield prefix  # the last count took exactly what was left
        return
    (lo, hi), rest = ranges[0], ranges[1:]
    # prune by what the remaining slots can still absorb
    tail_lo, tail_hi = sum(r[0] for r in rest), sum(r[1] for r in rest)
    for c in range(max(lo, n - tail_hi), min(hi, n - tail_lo) + 1):
        yield from _count_vectors(n - c, rest, prefix + (c,))


def sample_from_type(tc: TypeClass, rng) -> np.ndarray:
    """One string drawn uniformly from the type class (a shuffle of its sorted string)."""
    return rng.permutation(tc.letters())


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
    works type class by type class; nothing of size d^n is ever
    materialized.
    """

    def __init__(self, eigs, n: int, delta):
        # keep the raw values: a Fraction (or "1/10" string) passes through
        # exactly, while a float is pinned to the binary rational it denotes
        raw = [v for v in eigs]
        arr = np.asarray([float(v) for v in raw], dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("eigenvalue vector must be 1-d and nonempty")
        if not (np.all(arr >= -1e-12) and abs(float(arr.sum()) - 1.0) <= 1e-9):
            raise ValueError("eigenvalues must form a probability distribution")
        try:
            dn = Fraction(delta) * n
        except (OverflowError, ValueError):  # inf, NaN or an unreadable string
            raise ValueError(f"delta must be a finite number, got {delta!r}") from None
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
        yield from _count_vectors(self.n, self._ranges)

    def cardinality(self) -> int:
        return sum(_multinomial(self.n, c) for c in self.admissible_types())


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
        return {**asdict(self), "bounds_ok": list(self.bounds_ok)}


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
