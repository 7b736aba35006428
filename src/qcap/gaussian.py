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

from .channels import _dimension
from .qmath import QuantumChannel, _check_probability

_LN2 = math.log(2.0)
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
        # past 1e150 gaussian_ce's m^2, 4cSN and 2 k^2 S (S+1) overflow
        t = self.S + output_energy(self) + 1.0
        if not t <= 1e150:
            raise ValueError(f"S + S' + 1 = {t:.3g} exceeds 1e150 (S' is the output energy)")


def g_entropy(s: float) -> float:
    """Entropy in bits of a thermal state with mean photon number s."""
    if not 0.0 <= s < INF:  # NaN fails this too
        raise ValueError(f"mean photon number must be finite and >= 0, got {s}")
    return _g_diff(0.0, s)


def shannon_capacity(s: float, n: float) -> float:
    """log2(1 + s/n), the classical Gaussian-channel capacity in bits."""
    if not s >= 0.0:
        raise ValueError(f"signal must be >= 0, got {s}")
    if not n > 0.0:
        raise ValueError(f"noise must be > 0, got {n}")
    return _log1p_ratio(s, n) / _LN2


def output_energy(params: GaussianParams) -> float:
    """Mean photon number of the channel output.

    Attenuation keeps the added noise at N; amplification contributes
    the extra k^2 - 1 quanta. The two branches agree at k = 1.
    """
    s, n, k = params.S, params.N, params.k
    if k <= 1.0:
        return k * k * s + n
    return k * k * s + n + k * k - 1.0


def _g_diff(b: float, u: float) -> float:
    """g(b + u) - g(b) in bits, for b, u >= 0.

    With a = b + u and q = u/(a+1) it is ln(1 + u/(b+1)) + u ln(1 + 1/a)
    - b ln(1 + q/b). The last term lies in [0, q] and q <= u ln(1 + 1/a), so
    nothing large cancels. It rounds to q where q/b < 1e-16 may underflow.
    """
    if u == 0.0:
        return 0.0
    a = b + u
    q = u / (a + 1.0)
    if b == 0.0:
        tail = 0.0
    elif q < 1e-16 * b:
        tail = q
    else:
        tail = b * _log1p_ratio(q, b)
    return (math.log1p(u / (b + 1.0)) + u * _log1p_ratio(1.0, a) - tail) / _LN2


def _log1p_ratio(y: float, x: float) -> float:
    """ln(1 + y/x) for y >= 0 and x > 0, as ln y - ln x where y/x overflows."""
    r = y / x
    return math.log1p(r) if r < INF else math.log(y) - math.log(x)


def gaussian_ce(params: GaussianParams) -> float:
    """Entanglement-assisted capacity of the Gaussian channel, in bits.

    g(S) + g(S') - g(b_out) - g(b_in). b_out, b_in = (D +- (S' - S) - 1)/2 are
    the symplectic thermal parameters of the output joined with the mode that
    purifies the input (a two-mode squeezed vacuum, the maximizer). Both sit
    u = 2 k^2 S (S+1)/(S + S' + 1 + D) below S' and S. With D^2 = m^2 + 4cSN
    and e = 2cSN/(D + m), all are sums of nonnegative terms: attenuation has
    c = k^2, m = (1-k^2) S + N + 1, b_in = (1-k^2) S + e and b_out = N + e;
    amplification has c = 1, m = (k^2-1)(S+1) + N + 1, b_in = e and
    b_out = (k^2-1)(S+1) + N + e.
    """
    s, n, k = params.S, params.N, params.k
    if k <= 1.0:
        c, loss, gain = k * k, (1.0 - k) * (1.0 + k) * s, 0.0
    else:
        c, loss, gain = 1.0, 0.0, (k - 1.0) * (k + 1.0) * (s + 1.0)
    m = loss + gain + n + 1.0
    d = math.sqrt(m * m + 4.0 * c * s * n)
    e = 2.0 * c * s * n / (d + m)
    u = 2.0 * k * k * s * (s + 1.0) / (s + output_energy(params) + 1.0 + d)
    return _g_diff(loss + e, u) + _g_diff(gain + n + e, u)


def ce_over_cshan_limit(s: float) -> float:
    """Large-noise limit of the ratio gaussian_ce / shannon_capacity.

    Equals (S+1) ln(1 + 1/S): the ratio of two bit-valued capacities is a
    pure number, and expanding both at N >> S gives the natural-log form
    (it tends to 1 as S grows and diverges as S -> 0). Independent of k
    when the Shannon reference uses the received signal strength k^2 S.
    """
    if not 0.0 < s < INF:
        raise ValueError(f"signal must be finite and > 0, got {s}")
    return (s + 1.0) * _log1p_ratio(1.0, s)


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


def _check_squeezed(s: float, n: float, r: float = 0.0) -> None:
    """Refuse inputs outside the squeezed bounds' domain: S finite and >= 0,
    N finite and > 0, S + N + 1 <= 1e150, and squeezing r finite and >= 0."""
    if not 0.0 <= s < INF:  # NaN fails this too
        raise ValueError(f"signal must be finite and >= 0, got {s}")
    if not 0.0 < n < INF:
        raise ValueError(f"noise must be finite and > 0, got {n}")
    if not s + n + 1.0 <= 1e150:  # past it (N+1)^2 + 4NS overflows
        raise ValueError(f"S + N + 1 = {s + n + 1.0:.3g} exceeds 1e150")
    if not 0.0 <= r < INF:
        raise ValueError(f"squeezing must be finite and >= 0, got {r}")


def squeezed_bound_upper_at(s: float, n: float, r: float) -> float:
    """Upper bound at squeezing r: log2(1 + (S + cosh^2 r)/(N - e^-2r)).

    Teleporting through a two-mode squeezed state turns the quantum channel
    into a classical one whose capacity caps C_E. Infinite when the
    effective noise N - e^-2r is not positive. k = 1 only.
    """
    _check_squeezed(s, n, r)
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
    _check_squeezed(s, n, r)
    num = s - math.sinh(r) ** 2
    if num < 0.0:
        raise ValueError(f"squeezing r={r} exceeds the input energy budget")
    return math.log1p(num / (n + math.exp(-2.0 * r))) / _LN2


def squeezed_bounds(s: float, n: float) -> tuple[float, float, float, float]:
    """Best squeezed-state bounds at k = 1: (lower, upper, r_lower, r_upper).

    The optimal squeezing solves e^2r = (D1 -+ 1)/N with
    D1 = sqrt((N+1)^2 + 4NS). Both optima are feasible for every S >= 0,
    N > 0: (D1-1)/N <= 1 + 2S <= e^(2 asinh sqrt S), so the lower one stays
    within the energy budget sinh^2 r <= S. At r = 0 the r-dependent bounds
    reduce to coherent_bounds.
    """
    _check_squeezed(s, n)
    d1 = math.sqrt((n + 1.0) ** 2 + 4.0 * n * s)
    # (D1+1)/N and (S + (D1+N+1)/(2N))/N = (NS + (D1+N+1)/2)/N^2 overflow below
    # N ~ 1e-308 and 1e-154; there each log is the sum of its factors' logs
    r, u = (d1 + 1.0) / n, (s + (d1 + n + 1.0) / (2.0 * n)) / n
    r_upper = 0.5 * (math.log(r) if r < INF else math.log(d1 + 1.0) - math.log(n))
    upper = (math.log1p(u) if u < INF
             else math.log(n * s + (d1 + n + 1.0) / 2.0) - 2.0 * math.log(n)) / _LN2
    # with w = N+2+4S, (D1-1)/N = w/(D1+1) = 1 + 4Sw/((N+1+4S+D1)(D1+1)):
    # neither form cancels at D1 ~ 1
    w = n + 2.0 + 4.0 * s
    r_lower = 0.5 * math.log1p(4.0 * s * w / ((n + 1.0 + 4.0 * s + d1) * (d1 + 1.0)))
    # S - (D1-N-1)/(2N) = S (1 + (D1-1)/N)/(D1+N+1), all terms positive
    lower = math.log1p(s * (1.0 + w / (d1 + 1.0)) / (d1 + n + 1.0)) / _LN2
    return lower, upper, r_lower, r_upper


def ch_conjectured(params: GaussianParams) -> float:
    """Holevo rate of the thermal coherent-state ensemble, in bits.

    g(S') - g(S' - k^2 S), S' - k^2 S = N + max(k^2 - 1, 0): output entropy
    minus that of one coherent signal's output. Once conjectured, it is the
    proven capacity of phase-insensitive Gaussian channels (arXiv:1312.2251,
    1312.6225).
    """
    k = params.k
    b = params.N + (k - 1.0) * (k + 1.0) if k > 1.0 else params.N
    return _g_diff(b, k * k * params.S)


def fock_loss_channel(eta: float, dim: int) -> QuantumChannel:
    """Pure-loss channel of transmissivity eta (k^2 = eta, N = 0) on dim Fock states.

    Kraus operators A_l|n> = sqrt(C(n,l) eta^(n-l) (1-eta)^l) |n-l>, one per
    number l of lost photons. Loss never raises the photon number, so the
    first dim states map into themselves and the truncated channel is exact
    there. Capped at mean photon number S by the observable diag(0..dim-1),
    its capacity is a lower bound on g(S) + g(eta S) - g((1-eta) S) that
    closes as dim grows.
    """
    _check_probability(eta, "eta")
    dim = _dimension(dim)
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
