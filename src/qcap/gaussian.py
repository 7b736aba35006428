"""Closed-form capacities and bounds for the single-mode Gaussian channel.

The channel attenuates or amplifies the field amplitude by k and adds
thermal noise N; inputs are constrained to mean photon number S. All
returned capacities are in bits. The closed forms are scalar arithmetic.
`fock_loss_channel` is the one Fock-space object: the pure-loss channel on
the first D photon-number states, an independent numerical check of the
closed form through the constrained solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qmath import QuantumChannel

_LN2 = math.log(2.0)
G_ARG_TOL = 1e-12
INF = math.inf


@dataclass(frozen=True)
class GaussianParams:
    """Channel grid point: signal energy S, noise N, gain k."""

    S: float
    N: float
    k: float = 1.0

    def __post_init__(self):
        # chained comparisons fail for NaN and for inf alike
        if not 0.0 <= self.S < math.inf:
            raise ValueError(f"S must be finite and >= 0, got {self.S}")
        if not 0.0 <= self.N < math.inf:
            raise ValueError(f"N must be finite and >= 0, got {self.N}")
        if not 0.0 < self.k < math.inf:
            raise ValueError(f"k must be finite and > 0, got {self.k}")
        # past 1e150 the squares (S + S' + 1)^2, 4 k^2 S (S+1) and 4NS overflow
        t = self.S + output_energy(self) + 1.0
        if not t <= 1e150:
            raise ValueError(f"S + S' + 1 = {t:.3g} exceeds 1e150 (S' is the output energy)")


def g_entropy(s: float) -> float:
    """Entropy in bits of a thermal state with mean photon number s."""
    if not s >= 0.0:  # NaN fails this too
        raise ValueError(f"mean photon number must be >= 0, got {s}")
    if s == 0.0:
        return 0.0
    return ((s + 1.0) * math.log1p(s) - s * math.log(s)) / _LN2


def shannon_capacity(s: float, n: float) -> float:
    """log2(1 + s/n), the classical Gaussian-channel capacity in bits."""
    if not s >= 0.0:
        raise ValueError(f"signal must be >= 0, got {s}")
    if not n > 0.0:
        raise ValueError(f"noise must be > 0, got {n}")
    return math.log1p(s / n) / _LN2


def output_energy(params: GaussianParams) -> float:
    """Mean photon number of the channel output.

    Attenuation keeps the added noise at N; amplification contributes
    the extra k^2 - 1 quanta. The two branches agree at k = 1.
    """
    s, n, k = params.S, params.N, params.k
    if k <= 1.0:
        return k * k * s + n
    return k * k * s + n + k * k - 1.0


def big_d(s: float, s_out: float, k: float) -> float:
    """Discriminant sqrt((S + S' + 1)^2 - 4 k^2 S (S+1)) of the output spectrum."""
    rad = (s + s_out + 1.0) ** 2 - 4.0 * k * k * s * (s + 1.0)
    if rad < 0.0:
        if rad < -1e-9:
            raise ValueError(f"invalid parameters: negative discriminant {rad}")
        rad = 0.0
    return math.sqrt(rad)


def _g_diff(a: float, u: float) -> float:
    """g(a) - g(a - u) in bits, stable when u is far below a.

    Rewrites the difference as (a+1)log2((a+1)/(b+1)) - a log2(a/b)
    + u log2(1 + 1/b) with b = a - u, so nothing large ever cancels.
    """
    if u < 0.0:
        if u < -G_ARG_TOL:
            raise ValueError(f"negative entropy shift {u}")
        u = 0.0
    b = a - u
    if b <= 0.0:
        if b < -G_ARG_TOL:
            raise ValueError(f"entropy argument {b} below clamp tolerance")
        return g_entropy(a)
    return ((a + 1.0) * math.log1p(u / (b + 1.0))
            - a * math.log1p(u / b)
            + u * math.log1p(1.0 / b)) / _LN2


def gaussian_ce(params: GaussianParams) -> float:
    """Entanglement-assisted capacity of the Gaussian channel, in bits.

    g(S) + g(S') - g((D+S'-S-1)/2) - g((D-S'+S-1)/2), where the last two
    arguments are the thermal parameters of the joint input-output state's
    symplectic spectrum. Both arguments sit the same distance
    u = (S + S' + 1 - D)/2 below S' and S respectively, and multiplying
    through by the conjugate gives u = 2 k^2 S (S+1)/(S + S' + 1 + D),
    which avoids the catastrophic cancellation of the direct form when
    N dwarfs the signal.
    """
    s = params.S
    s_out = output_energy(params)
    d = big_d(s, s_out, params.k)
    t = s + s_out + 1.0
    u = 2.0 * params.k * params.k * s * (s + 1.0) / (t + d)
    return max(_g_diff(s, u) + _g_diff(s_out, u), 0.0)


def ce_over_cshan_limit(s: float) -> float:
    """Large-noise limit of the ratio gaussian_ce / shannon_capacity.

    Equals (S+1) ln(1 + 1/S): the ratio of two bit-valued capacities is a
    pure number, and expanding both at N >> S gives the natural-log form
    (it tends to 1 as S grows and diverges as S -> 0). Independent of k
    when the Shannon reference uses the received signal strength k^2 S.
    """
    if not 0.0 < s < INF:
        raise ValueError(f"signal must be finite and > 0, got {s}")
    return (s + 1.0) * math.log1p(1.0 / s)


def coherent_bounds(params: GaussianParams) -> tuple[float, float]:
    """Bounds on gaussian_ce from coherent-state encoding and simulation.

    Lower bound: encode in coherent states and heterodyne, which adds one
    noise quantum at the detector (k^2 extra quanta are picked up instead
    when the channel amplifies). Upper bound: the quantum channel can be
    simulated by measuring the input and resending over a classical
    Gaussian channel, so the capacity of that classical channel caps C_E;
    its noise budget only closes when N exceeds k^2 (attenuation) or 1
    (amplification), otherwise the upper bound is infinite.
    """
    s, n, k = params.S, params.N, params.k
    k2 = k * k
    if k <= 1.0:
        lower = math.log1p(k2 * s / (n + 1.0)) / _LN2
        upper = math.log1p((s + 1.0) / (n / k2 - 1.0)) / _LN2 if n > k2 else INF
    else:
        lower = math.log1p(k2 * s / (n + k2)) / _LN2
        upper = math.log1p(k2 * (s + 1.0) / (n - 1.0)) / _LN2 if n > 1.0 else INF
    return lower, upper


def squeezed_bound_upper_at(s: float, n: float, r: float) -> float:
    """Upper bound at squeezing r: log2(1 + (S + cosh^2 r)/(N - e^-2r)).

    Teleporting through a two-mode squeezed state turns the quantum channel
    into a classical one whose capacity caps C_E. Infinite when the
    effective noise N - e^-2r is not positive. k = 1 only.
    """
    denom = n - math.exp(-2.0 * r)
    if denom <= 0.0:
        return INF
    return math.log1p((s + math.cosh(r) ** 2) / denom) / _LN2


def squeezed_bound_lower_at(s: float, n: float, r: float) -> float:
    """Lower bound at squeezing r: log2(1 + (S - sinh^2 r)/(N + e^-2r)).

    Superdense coding through the same squeezed state achieves this rate;
    the squeezing itself costs sinh^2 r quanta of the input budget, so r
    is only usable while sinh^2 r <= S. k = 1 only.
    """
    num = s - math.sinh(r) ** 2
    if num < 0.0:
        raise ValueError(f"squeezing r={r} exceeds the input energy budget")
    return math.log1p(num / (n + math.exp(-2.0 * r))) / _LN2


def squeezed_bounds(s: float, n: float) -> tuple[float, float, float, float]:
    """Best squeezed-state bounds at k = 1: (lower, upper, r_lower, r_upper).

    The optimal squeezing solves e^2r = (D1 -+ 1)/N with
    D1 = sqrt((N+1)^2 + 4NS). Both optima are algebraically feasible for
    every S >= 0, N > 0 (the lower one is clamped to the energy budget
    anyway, as a guard against roundoff). At r = 0 the r-dependent bounds
    reduce to coherent_bounds.
    """
    if not s >= 0.0:
        raise ValueError(f"signal must be >= 0, got {s}")
    if not n > 0.0:
        raise ValueError(f"noise must be > 0, got {n}")
    d1 = math.sqrt((n + 1.0) ** 2 + 4.0 * n * s)
    r_upper = 0.5 * math.log((d1 + 1.0) / n)
    upper = math.log1p((s + (d1 + n + 1.0) / (2.0 * n)) / n) / _LN2
    # (D1-1)/N = (N+2+4S)/(D1+1) sidesteps the D1 ~ 1 cancellation
    r_lower = 0.5 * math.log((n + 2.0 + 4.0 * s) / (d1 + 1.0))
    budget = math.asinh(math.sqrt(s)) if s > 0.0 else 0.0
    if r_lower > budget:
        r_lower = budget
        lower = squeezed_bound_lower_at(s, n, r_lower)
    else:
        # S - (D1-N-1)/(2N) = S (D1+N-1)/(D1+N+1), all terms positive
        lower = math.log1p(s * (d1 + n - 1.0) / ((d1 + n + 1.0) * n)) / _LN2
    return lower, upper, r_lower, r_upper


def ch_conjectured(params: GaussianParams) -> float:
    """Holevo rate of the thermal coherent-state ensemble, in bits.

    g(S') - g(S' - k^2 S): output entropy minus the entropy of the output
    of a single coherent signal. Conjectured, not proven, to be the true
    unassisted capacity of the channel.
    """
    s_out = output_energy(params)
    return _g_diff(s_out, params.k * params.k * params.S)


def fock_loss_channel(eta: float, dim: int) -> QuantumChannel:
    """Pure-loss channel of transmissivity eta (k^2 = eta, N = 0) on dim Fock states.

    Kraus operators A_l|n> = sqrt(C(n,l) eta^(n-l) (1-eta)^l) |n-l>, one per
    number l of lost photons. Loss never raises the photon number, so the
    first dim states map into themselves and the truncated channel is exact
    there. Capped at mean photon number S by the observable diag(0..dim-1),
    its capacity is a lower bound on g(S) + g(eta S) - g((1-eta) S) that
    closes as dim grows.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    kraus = np.zeros((dim, dim, dim))
    for n in range(dim):
        for lost in range(n + 1):
            kraus[lost, n - lost, n] = math.sqrt(
                math.comb(n, lost) * eta ** (n - lost) * (1.0 - eta) ** lost)
    return QuantumChannel(kraus)


# ---------------------------------------------------------------------------
# Grid sweeps.

SWEEP_COLUMNS = ("S", "N", "k", "ce", "cshan", "ratio",
                 "lb_coh", "ub_coh", "lb_sq", "ub_sq", "ch_conj")


def sweep(s_values, n_values, k_values) -> list[tuple]:
    """Evaluate all capacity formulas over the cartesian grid.

    Rows are ordered S-major, then N, then k. cshan and the ratio use the
    received signal strength k^2 S as the classical reference, so the
    ratio approaches the k-independent ce_over_cshan_limit at large N.
    Squeezed bounds only exist at k = 1; other rows carry NaN there.
    """
    rows = []
    for s in s_values:
        for n in n_values:
            for k in k_values:
                p = GaussianParams(float(s), float(n), float(k))
                ce = gaussian_ce(p)
                cshan = shannon_capacity(p.k * p.k * p.S, p.N) if p.N > 0 else INF
                ratio = ce / cshan if cshan > 0.0 and math.isfinite(cshan) else math.nan
                lb_c, ub_c = coherent_bounds(p)
                if p.k == 1.0 and p.N > 0:
                    lb_s, ub_s, _, _ = squeezed_bounds(p.S, p.N)
                else:
                    lb_s, ub_s = math.nan, math.nan
                rows.append((p.S, p.N, p.k, ce, cshan, ratio,
                             lb_c, ub_c, lb_s, ub_s, ch_conjectured(p)))
    return rows


def sweep_csv(rows) -> str:
    """Render sweep rows as CSV with 10 significant digits per cell."""
    lines = [",".join(SWEEP_COLUMNS)]
    for row in rows:
        lines.append(",".join(f"{x:.10g}" for x in row))
    return "\n".join(lines) + "\n"
