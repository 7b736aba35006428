"""Entanglement-assisted capacity optimization and related quantities.

The capacity is the maximum over input states of
f(rho) = H(rho) + H(N(rho)) - H(E(rho)), with E the environment output.
f is concave, and its maximizer is found by mirror ascent (the quantum
Blahut-Arimoto iteration of Ramakrishnan, Iten, Scholz and Berta,
arXiv:1905.01286): rho <- exp2(log2 rho + G) / tr, with G the gradient.
Each result carries a duality-gap certificate: for any mu >= 0,
lambda_max(G - mu A) + mu b - tr(G rho) bounds the remaining suboptimality
over every state with tr(A rho) <= b (mu = 0 without a constraint).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channels import amplitude_damping
from .qmath import (
    EIG_ZERO_TOL,
    DimensionMismatchError,
    QuantumChannel,
    _adjoint_raw,
    _apply_raw,
    _check_hermitian,
    _complementary_adjoint_raw,
    _complementary_raw,
    _state_matrix,
    entropy_of_spectrum,
    matrix_to_json,
    quantum_mutual_information,
    tensor_channels,
    von_neumann_entropy,
)

MAX_ITERS = 100_000
FEASIBILITY_SLACK = 1e-12
_MU_RTOL = 1e-12
_LN2 = float(np.log(2.0))
_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


class ConvergenceError(RuntimeError):
    """Optimizer hit the iteration cap; `.best` holds the best result so far."""

    def __init__(self, message, best):
        super().__init__(message)
        self.best = best


class OptimizationCancelled(RuntimeError):
    """Progress callback requested a stop; `.best` holds the best result so far."""

    def __init__(self, message, best):
        super().__init__(message)
        self.best = best


@dataclass
class CeResult:
    value: float
    rho: np.ndarray
    iterations: int
    gap_bound: float

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "rho": matrix_to_json(self.rho),
            "iterations": self.iterations,
            "gap_bound": self.gap_bound,
        }


@dataclass(frozen=True)
class EnergyConstraint:
    """Linear cap tr(observable rho) <= bound on the average input state."""

    observable: np.ndarray
    bound: float

    def __post_init__(self):
        obs = np.asarray(self.observable, dtype=np.complex128)
        _check_hermitian(obs)
        evals = np.linalg.eigvalsh(obs)
        if evals[0] < -1e-10:
            raise ValueError(f"observable must be PSD, min eigenvalue {evals[0]:.3e}")
        if self.bound < 0.0:
            raise ValueError(f"bound must be nonnegative, got {self.bound}")
        object.__setattr__(self, "observable", obs)


def holevo_chi(ensemble) -> float:
    """H(sum p_i rho_i) - sum p_i H(rho_i) in bits."""
    avg = ensemble.average()
    chi = von_neumann_entropy(avg)
    for p, s in zip(ensemble.probs, ensemble.states):
        if p > 0.0:
            chi -= p * von_neumann_entropy(s)
    return chi


def _entropy_and_log2(mat: np.ndarray):
    # an output may be singular: eigenvalues below the zero tolerance are
    # clamped before the log
    evals, vecs = np.linalg.eigh(mat)
    log2 = np.log2(np.clip(evals, EIG_ZERO_TOL, None))
    return entropy_of_spectrum(evals), (vecs * log2) @ vecs.conj().T


def _entropy_psd(mat: np.ndarray) -> float:
    return entropy_of_spectrum(np.linalg.eigvalsh(mat))


def _gibbs(y: np.ndarray, obs, mu: float):
    """rho proportional to exp2(y - mu obs): (log2 spectrum, eigenvectors, load, slope).

    The slope d load / d mu is exact, from the same eigendecomposition:
    with p the spectrum, h its log2 and B = V^dag obs V, it is
    -ln2 sum_ij |B_ij - load delta_ij|^2 K_ij, a sum of nonnegative terms,
    where K_ij = (p_i - p_j) / ((h_i - h_j) ln2) is the divided difference
    of the weights (p_i when h_i = h_j). K is taken from the larger weight
    of each pair through expm1, so close levels keep their accuracy and
    negligible weights never overflow.
    """
    shifted = y if mu == 0.0 else y - mu * obs
    w, vecs = np.linalg.eigh(shifted)
    w = w - w[-1]
    w -= np.log2(np.sum(np.exp2(w)))
    if obs is None:
        return w, vecs, 0.0, 0.0
    p = np.exp2(w)
    b = vecs.conj().T @ obs @ vecs
    load = float(p @ np.real(np.diagonal(b)))
    x = np.abs(w[:, None] - w) * _LN2
    k = np.maximum.outer(p, p) * np.divide(-np.expm1(-x), x, out=np.ones_like(x), where=x > 0.0)
    b[np.diag_indices_from(b)] -= load
    slope = -_LN2 * float(np.sum((b.real ** 2 + b.imag ** 2) * k))
    return w, vecs, load, slope


def _project(y: np.ndarray, obs, bound: float, mu: float = 0.0):
    """KL projection of exp2(y) onto tr(obs rho) <= bound, starting from `mu`.

    The projection is exp2(y - mu obs) normalized, with the least mu >= 0
    (to 1e-12 relative) whose load meets the bound. `obs` must have least
    eigenvalue 0, so the load falls to 0 as mu grows. A load within the
    feasibility slack of the bound is accepted at mu = 0, and at any mu when
    the bound itself is within the slack of 0: no finite mu meets such a
    bound, and the search then aims six orders under the slack. The search
    is Newton on ln(load / bound), which is close to linear in mu on the
    Gibbs tail, with the exact slope from `_gibbs`: one eigensolve per step,
    and about three in all from the previous step's mu. Each Newton root is
    overshot by a quarter of the tolerance, so the iterates end on the
    feasible side. The load falls monotonically in mu, so a bracket
    [lo, hi] is kept: an iterate outside it, or a step longer than half the
    one two steps back, becomes a doubling step (while no point is
    feasible) or a bisection step. Returns (mu, log2 spectrum, eigenvectors).
    Raises ValueError when the doubling overflows: a bound within the slack
    of 0 that the load's rounding error never lets it meet.
    """
    if obs is None:
        w, vecs, _, _ = _gibbs(y, None, 0.0)
        return 0.0, w, vecs
    pinned = bound <= FEASIBILITY_SLACK
    target = 1e-6 * FEASIBILITY_SLACK if pinned else bound
    lo, hi, best = -math.inf, math.inf, None
    steps = (math.inf, math.inf)
    while True:
        w, vecs, load, slope = _gibbs(y, obs, mu)
        if (mu == 0.0 or pinned) and load <= bound + FEASIBILITY_SLACK:
            return mu, w, vecs
        root = mu + math.log(load / target) * load / -slope if load > 0.0 > slope else math.nan
        if load <= target:
            hi, best = mu, (w, vecs)
            if mu - root <= _MU_RTOL * mu:
                return mu, w, vecs
        else:
            lo = mu
        if hi - lo <= _MU_RTOL * hi < math.inf:
            return hi, *best
        nxt = root * (1.0 + 0.25 * _MU_RTOL)
        if not lo < nxt < hi or abs(nxt - mu) > 0.5 * steps[0]:
            nxt = max(2.0 * lo, 1.0) if hi == math.inf else 0.5 * (lo + hi)
        steps = (steps[1], abs(nxt - mu))
        mu = max(nxt, 0.0)
        if mu == math.inf:
            raise ValueError(f"no finite mu brings the load within {FEASIBILITY_SLACK} of "
                             f"{bound}: the bound is below the load's rounding error")


def _mirror_ascent(channel: QuantumChannel, obs, bound: float, tol: float,
                   max_iters: int, callback) -> CeResult:
    """Mirror ascent on f under tr(obs rho) <= bound (obs None: no constraint).

    Carries rho by its eigen-decomposition, so log2 rho is exact and never
    the log of a clamped spectrum. Each step is the unit step
    rho <- exp2(log2 rho + G) / tr, projected onto the constraint; data
    processing makes it an ascent step (arXiv:1905.01286). Each projection
    starts its Newton search from the previous step's multiplier mu.
    """
    if not tol >= 0.0:  # NaN fails this too
        raise ValueError(f"tol must be a nonnegative gap, got {tol}")
    d = channel.d_in
    mu, w, vecs = _project(np.zeros((d, d), dtype=np.complex128), obs, bound)
    for it in itertools.count():
        p = np.exp2(w)
        rho = (vecs * p) @ vecs.conj().T
        h_out, log_out = _entropy_and_log2(_apply_raw(channel, rho))
        h_env, log_env = _entropy_and_log2(_complementary_raw(channel, rho))
        value = entropy_of_spectrum(p) + h_out - h_env
        # y = log2 rho + G, with G the gradient of f at rho
        y = _complementary_adjoint_raw(channel, log_env) - _adjoint_raw(channel, log_out)
        grad = y - (vecs * w) @ vecs.conj().T
        top = grad if mu == 0.0 else grad - mu * obs
        gap = (float(np.linalg.eigvalsh(top)[-1]) + mu * bound
               - float(np.vdot(rho, grad).real))
        result = CeResult(value=value, rho=rho, iterations=it, gap_bound=max(gap, 0.0))
        if gap <= tol:
            return result
        if it >= max_iters:
            raise ConvergenceError(
                f"no convergence to gap {tol} within {max_iters} iterations", result)
        if callback is not None and callback(it, value, result.gap_bound):
            raise OptimizationCancelled("cancelled by callback", result)
        mu, w, vecs = _project(y, obs, bound, mu)


def ce_maximize(channel: QuantumChannel, tol: float = 1e-7,
                max_iters: int = MAX_ITERS, callback=None) -> CeResult:
    """Maximize H(rho) + H(N(rho)) - H(E(rho)) over density operators.

    Mirror ascent (quantum Blahut-Arimoto) from the maximally mixed state.
    Stops when the duality gap lambda_max(G) - tr(G rho) drops to `tol`
    (bits); the returned value is then within `tol` of the maximum over all
    density operators. Raises ConvergenceError with the last iterate
    attached if `max_iters` steps do not reach `tol`, and
    OptimizationCancelled if `callback(iteration, value, gap)` returns true.
    """
    return _mirror_ascent(channel, None, 0.0, tol, max_iters, callback)


def ce_maximize_constrained(channel: QuantumChannel, constraint: EnergyConstraint,
                            tol: float = 1e-7, max_iters: int = MAX_ITERS,
                            callback=None) -> CeResult:
    """Capacity maximization restricted to tr(observable rho) <= bound.

    The same mirror ascent as `ce_maximize`, with every step (and the
    maximally mixed start, which becomes a Gibbs state) projected onto the
    constraint in relative entropy: rho proportional to exp2(Y - mu A), with
    mu found by safeguarded Newton steps from the previous step's mu. The
    gap lambda_max(G - mu A) + mu b - tr(G rho) certifies the value over the
    whole feasible set. A bound below the observable's least eigenvalue by
    more than 1e-12 raises ValueError; a bound within 1e-12 of it is met to
    within 1e-12.
    """
    obs = constraint.observable
    if obs.shape[0] != channel.d_in:
        raise DimensionMismatchError("observable dimension mismatch")
    lam_min = float(np.linalg.eigvalsh(obs)[0])
    bound = float(constraint.bound)
    if bound < lam_min - FEASIBILITY_SLACK:
        raise ValueError(f"infeasible constraint: bound {bound} < min eigenvalue {lam_min}")
    # moving the observable's least eigenvalue to 0 moves neither the Gibbs
    # states nor the gap, and lets the load fall to 0 as mu grows
    shifted = obs - lam_min * np.eye(channel.d_in)
    return _mirror_ascent(channel, shifted, max(bound - lam_min, 0.0), tol, max_iters, callback)


def _golden_max(fun, lo, hi, xtol):
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a > xtol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fun(d)
    x = 0.5 * (a + b)
    return x, fun(x)


# ---------------------------------------------------------------------------
# Amplitude-damping one-parameter families.

def _ad_channel_entropies(p: float, x: float):
    # the capacity objective on diag(1-x, x), through the Kraus maps; its
    # output spectrum is {1-(1-p)x, (1-p)x}, its environment's {1-px, px}
    ch = amplitude_damping(p)
    rho = np.diag([1.0 - x, x]).astype(np.complex128)
    return quantum_mutual_information(ch, rho)


def ad_ce(p: float):
    """Maximum of the capacity objective over inputs diag(1-x, x).

    Returns (value, x_star). For the damping channel the unconstrained
    maximizer is diagonal, so this equals the full capacity.
    """
    x, val = _golden_max(lambda x: _ad_channel_entropies(p, x), 0.0, 1.0, 1e-10)
    return val, x


def ad_ch(p: float):
    """Unassisted one-shot Holevo maximum over the two-state family.

    Signal states have Bloch off-diagonals +-sqrt(x(1-x)) and are used with
    equal probabilities; returns (value, x_star).
    """
    ch = amplitude_damping(p)

    def chi(x):
        s = np.sqrt(max(x * (1.0 - x), 0.0))
        plus = np.array([[1.0 - x, s], [s, x]], dtype=np.complex128)
        minus = np.array([[1.0 - x, -s], [-s, x]], dtype=np.complex128)
        out_p = _apply_raw(ch, plus)
        out_m = _apply_raw(ch, minus)
        avg = 0.5 * (out_p + out_m)
        return (_entropy_psd(avg)
                - 0.5 * _entropy_psd(out_p) - 0.5 * _entropy_psd(out_m))

    # coarse scan then golden refinement; chi need not be concave in x
    grid = np.linspace(0.0, 1.0, 201)
    vals = [chi(x) for x in grid]
    i = int(np.argmax(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    x, val = _golden_max(chi, lo, hi, 1e-10)
    return val, x


def ad_asymptotics(p: float, x: float):
    """Leading-order terms near p = 1 at fixed x.

    Returns (ce_leading, ch_leading) =
    (-x (1-p) log2(1-p), -x (1-x) (1-p) log2(1-p)).
    """
    if p >= 1.0:
        return 0.0, 0.0
    base = -(1.0 - p) * np.log2(1.0 - p)
    return x * base, x * (1.0 - x) * base


# ---------------------------------------------------------------------------
# Square-root ("pretty good") measurement for pure-state codewords.

def pgm_error(codewords, projector):
    """Exact square-root-measurement error and its quadratic upper bound.

    codewords: sequence of unit vectors t_i. projector: Hermitian idempotent
    P defining the decoding subspace. With v_i = P t_i and
    phi = sum_i v_i v_i^dag, the decoder measures
    {phi^{-1/2} v_i v_i^dag phi^{-1/2}}. Returns (exact, bound) arrays where
    bound_i = 2 (1 - S_ii) + sum_{j != i} |S_ij|^2 and S_ij = t_i^dag P t_j.
    Raises ValueError if every projected codeword vanishes.
    """
    vecs = [np.asarray(t, dtype=np.complex128).reshape(-1) for t in codewords]
    if not vecs:
        raise ValueError("no codewords")
    proj = np.asarray(projector, dtype=np.complex128)
    _check_hermitian(proj)
    if np.max(np.abs(proj @ proj - proj)) > 1e-9:
        raise ValueError("projector is not idempotent within tolerance")
    projected = [proj @ t for t in vecs]
    phi = np.zeros_like(proj)
    for v in projected:
        phi += np.outer(v, v.conj())
    evals, basis = np.linalg.eigh(phi)
    support = evals > EIG_ZERO_TOL
    if not np.any(support):
        raise ValueError("all projected codewords vanish; decoder undefined")
    inv_sqrt = (basis[:, support] / np.sqrt(evals[support])) @ basis[:, support].conj().T
    m = len(vecs)
    exact = np.empty(m)
    for i, v in enumerate(projected):
        amp = float(np.real(v.conj() @ inv_sqrt @ v))
        exact[i] = 1.0 - amp * amp
    smat = np.empty((m, m), dtype=np.complex128)
    for i, t in enumerate(vecs):
        for j, u in enumerate(vecs):
            smat[i, j] = t.conj() @ proj @ u
    bound = np.empty(m)
    for i in range(m):
        off = np.sum(np.abs(smat[i, :]) ** 2) - np.abs(smat[i, i]) ** 2
        bound[i] = 2.0 * (1.0 - smat[i, i].real) + float(off)
    return exact, bound


# ---------------------------------------------------------------------------
# Structural diagnostics.

def ce_additivity_slack(ch1: QuantumChannel, ch2: QuantumChannel,
                        tol: float = 1e-5) -> float:
    """|ce(ch1 x ch2) - ce(ch1) - ce(ch2)| with each term solved to `tol`."""
    joint = ce_maximize(tensor_channels(ch1, ch2), tol=tol).value
    single = ce_maximize(ch1, tol=tol).value + ce_maximize(ch2, tol=tol).value
    return abs(joint - single)


def concavity_slack(channel: QuantumChannel, rho0, rho1, p0: float) -> float:
    """f(p0 rho0 + (1-p0) rho1) - p0 f(rho0) - (1-p0) f(rho1); >= 0 up to float noise."""
    m0 = _state_matrix(rho0)
    m1 = _state_matrix(rho1)
    mix = p0 * m0 + (1.0 - p0) * m1
    f = quantum_mutual_information
    return f(channel, mix) - p0 * f(channel, m0) - (1.0 - p0) * f(channel, m1)


# ---------------------------------------------------------------------------
# Independent brute-force oracle for qubit-input channels.

def bloch_grid_ce(channel: QuantumChannel, resolution: float = 0.01):
    """Grid maximum of the capacity objective over the Bloch ball.

    Walks rho = (I + r . sigma)/2 on a cubic lattice of the given resolution
    intersected with the unit ball, evaluating the objective with vectorized
    closed-form 2x2 spectra (and batched eigensolves for larger environment
    or output dimensions). Independent check of `ce_maximize`; returns
    (max value, argmax Bloch vector).
    """
    if channel.d_in != 2:
        raise DimensionMismatchError("bloch_grid_ce needs a qubit-input channel")
    paulis = [np.array([[0, 1], [1, 0]], dtype=np.complex128),
              np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
              np.array([[1, 0], [0, -1]], dtype=np.complex128)]
    half = np.eye(2, dtype=np.complex128) / 2
    out0 = _apply_raw(channel, half)
    outp = [_apply_raw(channel, p) / 2 for p in paulis]
    env0 = _complementary_raw(channel, half)
    envp = [_complementary_raw(channel, p) / 2 for p in paulis]

    axis = np.arange(-1.0, 1.0 + resolution / 2, resolution)
    best_val = -np.inf
    best_r = None
    for rx in axis:
        ry_g, rz_g = np.meshgrid(axis, axis, indexing="ij")
        mask = rx * rx + ry_g**2 + rz_g**2 <= 1.0 + 1e-12
        if not mask.any():
            continue
        ry = ry_g[mask]
        rz = rz_g[mask]
        rnorm = np.sqrt(rx * rx + ry**2 + rz**2)
        h_in = _h2_vec(0.5 * (1.0 + rnorm))
        h_out = _family_entropy(out0, outp, rx, ry, rz)
        h_env = _family_entropy(env0, envp, rx, ry, rz)
        vals = h_in + h_out - h_env
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val = float(vals[i])
            best_r = (float(rx), float(ry[i]), float(rz[i]))
    return best_val, best_r


def _h2_vec(p):
    p = np.clip(p, 0.0, 1.0)
    q = 1.0 - p
    out = np.zeros_like(p)
    m = p > EIG_ZERO_TOL
    out[m] -= p[m] * np.log2(p[m])
    m = q > EIG_ZERO_TOL
    out[m] -= q[m] * np.log2(q[m])
    return out


def _family_entropy(base, parts, rx, ry, rz):
    """Entropies of base + rx parts[0] + ry parts[1] + rz parts[2], vectorized."""
    dim = base.shape[0]
    n = ry.shape[0]
    mats = np.broadcast_to(base, (n, dim, dim)).copy()
    mats += rx * parts[0]
    mats += ry[:, None, None] * parts[1]
    mats += rz[:, None, None] * parts[2]
    if dim == 2:
        m = 0.5 * (mats[:, 0, 0].real + mats[:, 1, 1].real)
        det = (mats[:, 0, 0].real * mats[:, 1, 1].real
               - (mats[:, 0, 1].real**2 + mats[:, 0, 1].imag**2))
        disc = np.sqrt(np.clip(m * m - det, 0.0, None))
        lam1 = np.clip(m + disc, 0.0, None)
        lam2 = np.clip(m - disc, 0.0, None)
        return _spec_entropy_cols(np.stack([lam1, lam2], axis=1))
    out = np.empty(n)
    step = 131072
    for lo in range(0, n, step):
        evals = np.linalg.eigvalsh(mats[lo:lo + step])
        out[lo:lo + step] = _spec_entropy_cols(np.clip(evals, 0.0, None))
    return out


def _spec_entropy_cols(lams):
    safe = np.where(lams >= EIG_ZERO_TOL, lams, 1.0)
    return -np.sum(lams * np.log2(safe), axis=1)
