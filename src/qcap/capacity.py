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
from dataclasses import asdict, dataclass

import numpy as np

from .qmath import (
    EIG_ZERO_TOL,
    DimensionMismatchError,
    QuantumChannel,
    _check_hermitian,
    _outputs,
    _pullback,
    _state_matrix,
    entropy_of_spectrum,
    hermitian_spectra,
    matrix_to_json,
    quantum_mutual_information,
    tensor_channels,
    von_neumann_entropy,
)

MAX_ITERS = 100_000
# iterations without a new least gap after which the solver gives up: a
# converging solve improves its gap at nearly every iteration
_STALL_ITERS = 1_000
FEASIBILITY_SLACK = 1e-12
_MU_RTOL = 1e-12
_LN2 = float(np.log(2.0))
_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


class ConvergenceError(RuntimeError):
    """Optimizer hit the iteration cap or stalled; `.best` holds the best result so far."""

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
        return {**asdict(self), "rho": matrix_to_json(self.rho)}


@dataclass(frozen=True)
class EnergyConstraint:
    """Linear cap tr(observable rho) <= bound on the average input state."""

    observable: np.ndarray
    bound: float

    def __post_init__(self):
        obs = np.asarray(self.observable, dtype=np.complex128)
        _check_hermitian(obs)
        evals = np.linalg.eigvalsh(obs)
        if not evals[0] >= -1e-10:
            raise ValueError(f"observable must be PSD, min eigenvalue {evals[0]:.3e}")
        if not self.bound >= 0.0:  # NaN fails this too
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


def _eig_log2(mats: np.ndarray):
    """(spectrum, log2 matrix) of a Hermitian matrix or of each in a stack."""
    # an output may be singular: eigenvalues below the zero tolerance are
    # clamped before the log
    evals, vecs = np.linalg.eigh(mats)
    log2 = np.log2(np.clip(evals, EIG_ZERO_TOL, None))
    return evals, (vecs * log2[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


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
    eigenvalue 0, so the load falls to 0 as mu grows; the constrained solver
    also divides it by its norm, so the slack is relative. A load within the
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
    Gives up, with the least-gap iterate, after `max_iters` iterations or
    once _STALL_ITERS iterations in a row bring no smaller gap.
    """
    if not tol >= 0.0:  # NaN fails this too
        raise ValueError(f"tol must be a nonnegative gap, got {tol}")
    d = channel.d_in
    mu, w, vecs = _project(np.zeros((d, d), dtype=np.complex128), obs, bound)
    best = None
    for it in itertools.count():
        p = np.exp2(w)
        rho = (vecs * p) @ vecs.conj().T
        out, env = _outputs(channel, rho)
        spec_out, log_out = _eig_log2(out)
        spec_env, log_env = _eig_log2(env)
        value = (entropy_of_spectrum(p) + entropy_of_spectrum(spec_out)
                 - entropy_of_spectrum(spec_env))
        # y = log2 rho + G, with G the gradient of f at rho
        y = _pullback(channel, log_out, log_env)
        grad = y - (vecs * w) @ vecs.conj().T
        top = grad if mu == 0.0 else grad - mu * obs
        gap = (float(np.linalg.eigvalsh(top)[-1]) + mu * bound
               - float(np.vdot(rho, grad).real))
        result = CeResult(value=value, rho=rho, iterations=it, gap_bound=max(gap, 0.0))
        if gap <= tol:
            return result
        if best is None or result.gap_bound < best.gap_bound:
            best = result
        if it >= max_iters:
            raise ConvergenceError(
                f"no convergence to gap {tol} within {max_iters} iterations", best)
        if it - best.iterations >= _STALL_ITERS:
            raise ConvergenceError(
                f"no convergence to gap {tol}: the gap has not fallen below "
                f"{best.gap_bound:.3e} for {_STALL_ITERS} iterations", best)
        if callback is not None and callback(it, value, result.gap_bound):
            raise OptimizationCancelled("cancelled by callback", result)
        mu, w, vecs = _project(y, obs, bound, mu)


def ce_maximize(channel: QuantumChannel, tol: float = 1e-7,
                max_iters: int = MAX_ITERS, callback=None) -> CeResult:
    """Maximize H(rho) + H(N(rho)) - H(E(rho)) over density operators.

    Mirror ascent (quantum Blahut-Arimoto) from the maximally mixed state.
    Stops when the duality gap lambda_max(G) - tr(G rho) drops to `tol`
    (bits); the returned value is then within `tol` of the maximum over all
    density operators. Raises ConvergenceError with the least-gap iterate
    attached if `max_iters` steps, or 1,000 steps in a row without a
    smaller gap, do not reach `tol`, and OptimizationCancelled if
    `callback(iteration, value, gap)` returns true.
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
    whole feasible set. The feasibility slack is relative to the norm
    s = max |lambda| of the observable (s = 1 when it is 0): a bound below
    lambda_min by more than 1e-12 s raises ValueError, and a bound within
    1e-12 s of it is met to within 1e-12 s.
    """
    obs = constraint.observable
    if obs.shape[0] != channel.d_in:
        raise DimensionMismatchError("observable dimension mismatch")
    evals = np.linalg.eigvalsh(obs)
    lam_min, norm = float(evals[0]), float(np.max(np.abs(evals)))
    scale = norm if norm > 0.0 else 1.0
    bound = (float(constraint.bound) - lam_min) / scale
    if bound < -FEASIBILITY_SLACK:
        raise ValueError(f"infeasible constraint: bound {float(constraint.bound)} "
                         f"< min eigenvalue {lam_min}")
    # shifting the least eigenvalue to 0 and dividing by the norm moves
    # neither the Gibbs states nor the gap, lets the load fall to 0 as mu
    # grows, and puts the load's rounding error (about eps s) on the scale
    # of the slack; dividing by the spread instead would magnify it where
    # lambda_min dwarfs the spread
    scaled = (obs - lam_min * np.eye(channel.d_in)) / scale
    return _mirror_ascent(channel, scaled, max(bound, 0.0), tol, max_iters, callback)


# ---------------------------------------------------------------------------
# Amplitude-damping one-parameter families, in closed form.

def _golden_max(fun):
    """(max, argmax) of fun over [0, 1]; fun maps an array of x to their values.

    A 201-point scan brackets the best grid point by its neighbours, so fun
    need not be concave; golden-section steps then shrink that to 1e-10.
    """
    grid = np.linspace(0.0, 1.0, 201)
    i = int(np.argmax(fun(grid)))
    a, b = float(grid[max(i - 1, 0)]), float(grid[min(i + 1, 200)])
    c, d = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
    fc, fd = fun(np.array([c, d]))
    while b - a > 1e-10:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fun(np.array([c]))[0]
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fun(np.array([d]))[0]
    return (float(fc), float(c)) if fc >= fd else (float(fd), float(d))


def _h(a):
    # binary entropies by the spectra (1 - a, a), so entries under 1e-12 count 0
    return entropy_of_spectrum(np.stack([1.0 - a, a], axis=-1))


def ad_ce(p: float):
    """Maximum of the capacity objective over inputs diag(1-x, x).

    There the output spectrum is {1-(1-p)x, (1-p)x} and the environment's
    {1-px, px}, so the objective is h(x) + h((1-p)x) - h(px). Returns
    (value, x_star); the damping channel's maximizer is diagonal, so this
    is its capacity. Raises ValueError unless 0 <= p <= 1.
    """
    if not 0.0 <= p <= 1.0:  # NaN fails this too
        raise ValueError("damping probability must lie in [0, 1]")
    return _golden_max(lambda x: _h(x) + _h((1.0 - p) * x) - _h(p * x))


def ad_ch(p: float):
    """Unassisted one-shot Holevo maximum over the two-state family.

    Signal states have Bloch off-diagonals +-sqrt(x(1-x)) and are used with
    equal probabilities, so they average to diag(1-x, x). Each is pure, so
    its output has trace 1 and determinant det = p(1-p)x^2, and chi(x) is
    h((1-p)x) - h(det / l) with l = (1 + sqrt(1 - 4 det)) / 2 its larger
    eigenvalue: the smaller one as det / l is free of cancellation. Returns
    (value, x_star). Raises ValueError unless 0 <= p <= 1.
    """
    if not 0.0 <= p <= 1.0:  # NaN fails this too
        raise ValueError("damping probability must lie in [0, 1]")

    def chi(x):
        det = p * (1.0 - p) * x * x
        larger = 0.5 + 0.5 * np.sqrt(1.0 - 4.0 * det)
        return _h((1.0 - p) * x) - _h(det / larger)

    return _golden_max(chi)


def ad_asymptotics(p: float, x: float):
    """Leading-order terms near p = 1 at fixed x.

    Returns (ce_leading, ch_leading) =
    (-x (1-p) log2(1-p), -x (1-x) (1-p) log2(1-p)). Raises ValueError
    unless 0 <= p <= 1 and 0 <= x <= 1.
    """
    if not 0.0 <= p <= 1.0:  # NaN fails this too
        raise ValueError("damping probability must lie in [0, 1]")
    if not 0.0 <= x <= 1.0:
        raise ValueError("input weight x must lie in [0, 1]")
    if p == 1.0:
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
    cols = np.array([np.asarray(t, dtype=np.complex128).reshape(-1) for t in codewords]).T
    if cols.size == 0:
        raise ValueError("no codewords")
    proj = np.asarray(projector, dtype=np.complex128)
    _check_hermitian(proj)
    if not np.max(np.abs(proj @ proj - proj)) <= 1e-9:
        raise ValueError("projector is not idempotent within tolerance")
    projected = proj @ cols
    evals, basis = np.linalg.eigh(projected @ projected.conj().T)
    support = evals > EIG_ZERO_TOL
    if not np.any(support):
        raise ValueError("all projected codewords vanish; decoder undefined")
    inv_sqrt = (basis[:, support] / np.sqrt(evals[support])) @ basis[:, support].conj().T
    amp = np.sum(projected.conj() * (inv_sqrt @ projected), axis=0).real
    smat = cols.conj().T @ projected
    diag = np.diagonal(smat)
    bound = 2.0 * (1.0 - diag.real) + np.sum(np.abs(smat) ** 2, axis=1) - np.abs(diag) ** 2
    return 1.0 - amp * amp, bound


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

_BOX = 8               # lattice points per side of a pruning box
_BOX_RADIUS = 0.98     # box centres are pulled in to this radius
_FLOOR_MARGIN = 1e-9   # covers rounding between the floor and the scan


def bloch_grid_ce(channel: QuantumChannel, resolution: float = 0.01):
    """Grid maximum of the capacity objective over the Bloch ball.

    Walks rho = (I + r . sigma)/2 on a cubic lattice of the given resolution
    intersected with the unit ball, one x-slice at a time, evaluating the
    objective with `hermitian_spectra`: closed-form spectra for output and
    environment dimensions up to 3, batched eigensolves above. Independent
    check of `ce_maximize`; returns (max value, argmax Bloch vector), the
    first lattice point in scan order to reach the maximum.

    The scan skips lattice boxes that cannot hold the maximum. f is concave
    on the ball, so the tangent plane at a box's centre c bounds it there:
    max_box f <= f(c) + sum_k |df/dr_k(c)| max_box |r_k - c_k|. A box is
    skipped when this bound is below the best value at the boxes' middle
    lattice points, less 1e-9 of rounding margin. It is never skipped when
    an output or environment eigenvalue at c is below `EIG_ZERO_TOL`, where
    the gradient is unreliable, or when its bound is not finite. Points
    that are scanned get the same floats as in a scan of the whole lattice,
    so the value and the argmax are too; a flat objective, or one singular
    everywhere, skips nothing and costs a full scan.
    Raises ValueError unless 0 < resolution <= 1; at a step of at most 1
    some lattice point lies in the ball.
    """
    if channel.d_in != 2:
        raise DimensionMismatchError("bloch_grid_ce needs a qubit-input channel")
    if not 0.0 < resolution <= 1.0:
        raise ValueError(f"resolution must be in (0, 1], got {resolution!r}")
    paulis = [np.array([[0, 1], [1, 0]], dtype=np.complex128),
              np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
              np.array([[1, 0], [0, -1]], dtype=np.complex128)]
    # rho = I/2 + rx X/2 + ry Y/2 + rz Z/2, and both maps are linear
    inputs = [np.eye(2, dtype=np.complex128) / 2] + [p / 2 for p in paulis]
    out_basis, env_basis = map(np.stack, zip(*(_outputs(channel, m) for m in inputs)))

    axis = np.arange(-1.0, 1.0 + resolution / 2, resolution)
    size = len(axis)
    keep = _surviving_boxes(out_basis, env_basis, axis)
    ry_g, rz_g = np.meshgrid(axis, axis, indexing="ij")
    ry_sq, rz_sq = ry_g**2, rz_g**2
    best_val = -np.inf
    best_r = None
    for ix, rx in enumerate(axis):
        ball = rx * rx + ry_sq + rz_sq <= 1.0 + 1e-12
        boxes = keep[ix // _BOX].repeat(_BOX, axis=0).repeat(_BOX, axis=1)
        mask = ball & boxes[:size, :size]
        count = np.count_nonzero(mask)
        if count == 0:
            continue
        if count == 1:
            # numpy multiplies a one-row batch as a matrix-vector product,
            # which rounds differently from the whole slice's matrix product
            mask = ball
        ry = ry_g[mask]
        rz = rz_g[mask]
        vals = _grid_values(out_basis, env_basis, rx, ry, rz)
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val = float(vals[i])
            best_r = (float(rx), float(ry[i]), float(rz[i]))
    return best_val, best_r


def _grid_values(out_basis, env_basis, rx, ry, rz):
    """The objective at the Bloch vectors (rx, ry, rz), rx broadcast to ry."""
    # the input's spectrum is ((1 + |r|)/2, (1 - |r|)/2)
    rnorm = np.minimum(np.sqrt(rx * rx + ry**2 + rz**2), 1.0)
    h_in = entropy_of_spectrum(0.5 * np.stack([1.0 + rnorm, 1.0 - rnorm], axis=1))
    coef = np.stack([np.ones_like(ry), np.broadcast_to(rx, ry.shape), ry, rz], axis=1)
    return h_in + _family_entropy(out_basis, coef) - _family_entropy(env_basis, coef)


def _surviving_boxes(out_basis, env_basis, axis):
    """Which _BOX-point boxes of the lattice may hold the grid maximum.

    Returns a bool array indexed by box (x, y, z); boxes that miss the ball
    read False. The tangent-plane bound at each box centre c, pulled in to
    radius _BOX_RADIUS so the input entropy's gradient is finite, is
    f(c) + sum_k |g_k| reach_k, where reach_k is the box's farthest lattice
    coordinate from c_k. Each entropy gradient comes from the basis the
    objective is affine in: every basis[k + 1] is traceless, so
    dH(M)/dr_k = -tr(log2 M . basis[k + 1]).
    """
    size = len(axis)
    first = np.arange(0, size, _BOX)
    last = np.minimum(first + _BOX - 1, size - 1)
    nb = len(first)
    # per box (x, y, z), one row each: its least, greatest and middle lattice point
    lo3, hi3, mid3 = (np.stack(np.meshgrid(v, v, v, indexing="ij"), axis=-1).reshape(-1, 3)
                      for v in (axis[first], axis[last], axis[(first + last) // 2]))
    meets = np.sum(np.clip(0.0, lo3, hi3) ** 2, axis=1) <= 1.0 + 1e-12
    lo3, hi3 = lo3[meets], hi3[meets]
    centre = 0.5 * (lo3 + hi3)
    norm = np.linalg.norm(centre, axis=1)
    centre *= (_BOX_RADIUS / np.maximum(norm, _BOX_RADIUS))[:, None]
    rn = np.minimum(norm, _BOX_RADIUS)
    h_in = entropy_of_spectrum(0.5 * np.stack([1.0 + rn, 1.0 - rn], axis=1))
    # dh_in/dr = -(1/2) log2((1 + |r|)/(1 - |r|)) r/|r|, which is 0 at r = 0
    slope = np.divide(np.log2((1.0 + rn) / (1.0 - rn)), 2.0 * rn,
                      out=np.zeros_like(rn), where=rn > 0.0)
    coef = np.concatenate([np.ones((len(rn), 1)), centre], axis=1)
    h_out, g_out, low_out = _entropy_gradient(out_basis, coef)
    h_env, g_env, low_env = _entropy_gradient(env_basis, coef)
    grad = g_out - g_env - slope[:, None] * centre
    reach = np.maximum(np.abs(lo3 - centre), np.abs(hi3 - centre))
    bound = h_in + h_out - h_env + np.sum(np.abs(grad) * reach, axis=1)

    # the floor: the objective at each box's middle lattice point in the ball
    mx, my, mz = mid3.T
    inside = mx * mx + my**2 + mz**2 <= 1.0 + 1e-12
    floor = -np.inf
    if inside.any():
        vals = _grid_values(out_basis, env_basis, mx[inside], my[inside], mz[inside])
        floor = float(np.max(vals)) - _FLOOR_MARGIN
    unsafe = (np.minimum(low_out, low_env) < EIG_ZERO_TOL) | ~np.isfinite(bound)
    keep = np.zeros(nb**3, dtype=bool)
    keep[meets] = unsafe | (bound >= floor)
    return keep.reshape(nb, nb, nb)


def _entropy_gradient(basis, coef):
    """Entropy, its gradient in coef[:, 1:] and least eigenvalue of each coef . basis."""
    dim = basis.shape[-1]
    evals, logm = _eig_log2((coef @ basis.reshape(4, -1)).reshape(-1, dim, dim))
    # tr(L B) = sum_il L_il B_li, one product against the transposed basis
    grad = -(logm.reshape(len(coef), -1) @ basis[1:].transpose(0, 2, 1).reshape(3, -1).T).real
    return entropy_of_spectrum(np.clip(evals, 0.0, None)), grad, evals[:, 0]


def _family_entropy(basis, coef):
    """Entropies of the matrices coef[j] . basis, one per row of coef.

    `basis` stacks four d x d matrices; the real (n, 4) coefficients act on
    their real and imaginary parts in one product. Spectra come from
    `hermitian_spectra`: closed forms up to 3x3, batched `eigvalsh` above.
    """
    dim = basis.shape[-1]
    flat = basis.reshape(4, -1).view(np.float64)
    mats = (coef @ flat).view(np.complex128).reshape(-1, dim, dim)
    return entropy_of_spectrum(np.clip(hermitian_spectra(mats), 0.0, None))
