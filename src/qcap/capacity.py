"""Entanglement-assisted capacity optimization and related quantities.

The capacity is the maximum over input states of
f(rho) = H(rho) + H(N(rho)) - H(E(rho)), with E the environment output.
f is concave, and its maximizer is found by mirror ascent (the quantum
Blahut-Arimoto iteration of Ramakrishnan, Iten, Scholz and Berta,
arXiv:1905.01286): rho <- exp2(log2 rho + G) / tr, with G the gradient.
That unit step is a fixed-point map of the log domain, and the solver
first tries its Anderson extrapolation (Walker and Ni, SIAM J. Numer.
Anal. 49 (2011) 1715), kept only when it does not lower f; otherwise it
takes the unit step. Each result carries a duality-gap certificate: for
any mu >= 0, lambda_max(G - mu A) + mu b - tr(G rho) bounds the remaining
suboptimality over every state with tr(A rho) <= b (mu = 0 without a
constraint).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .qmath import (
    EIG_ZERO_TOL,
    DimensionMismatchError,
    QuantumChannel,
    _check_hermitian,
    _check_probability,
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
# residual differences an Anderson step mixes, from the last 4 iterates
_ANDERSON_DEPTH = 3
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
    # the observable's least eigenvalue and max |eigenvalue|, from the
    # validating eigensolve
    lam_min: float = field(init=False, repr=False, compare=False)
    norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        obs = np.asarray(self.observable, dtype=np.complex128)
        _check_hermitian(obs)
        evals = np.linalg.eigvalsh(obs)
        if not evals[0] >= -1e-10:
            raise ValueError(f"observable must be PSD, min eigenvalue {evals[0]:.3e}")
        if not self.bound >= 0.0:  # NaN fails this too
            raise ValueError(f"bound must be nonnegative, got {self.bound}")
        object.__setattr__(self, "observable", obs)
        object.__setattr__(self, "lam_min", float(evals[0]))
        object.__setattr__(self, "norm", float(np.max(np.abs(evals))))


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
    feasible) or a bisection step, at sqrt(max(lo, 1) hi) while hi >
    4 max(lo, 1): a saturated load's tiny slope can put a Newton root near
    1e300. Returns (mu, log2 spectrum, eigenvectors).
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
            base = max(lo, 1.0)
            nxt = (max(2.0 * lo, 1.0) if hi == math.inf
                   else math.sqrt(base * hi) if hi > 4.0 * base else 0.5 * (lo + hi))
        steps = (steps[1], abs(nxt - mu))
        mu = max(nxt, 0.0)
        if mu == math.inf:
            raise ValueError(f"no finite mu brings the load within {FEASIBILITY_SLACK} of "
                             f"{bound}: the bound is below the load's rounding error")


class _Iterate(NamedTuple):
    """One evaluated state: rho(y) and what the solver reads off it."""

    y: np.ndarray      # the log-domain point whose projection is rho
    mu: float          # the projection's multiplier
    rho: np.ndarray
    value: float
    step: np.ndarray   # the unit step's next y: log2 rho + G, G the gradient at rho
    gap: float


def _evaluate(channel: QuantumChannel, obs, bound: float, y: np.ndarray,
              mu: float) -> _Iterate:
    """rho = the projection of exp2(y), from multiplier `mu`, with its value, step and gap.

    rho is carried by its eigen-decomposition, so log2 rho is exact and
    never the log of a clamped spectrum. Four eigensolves without a
    constraint: the projection, both outputs and the gap's lambda_max.
    """
    mu, w, vecs = _project(y, obs, bound, mu)
    p = np.exp2(w)
    rho = (vecs * p) @ vecs.conj().T
    out, env = _outputs(channel, rho)
    spec_out, log_out = _eig_log2(out)
    spec_env, log_env = _eig_log2(env)
    value = (entropy_of_spectrum(p) + entropy_of_spectrum(spec_out)
             - entropy_of_spectrum(spec_env))
    step = _pullback(channel, log_out, log_env)
    grad = step - (vecs * w) @ vecs.conj().T
    top = grad if mu == 0.0 else grad - mu * obs
    # the mu b term only when mu > 0: with an infinite bound, 0 inf is NaN
    gap = (float(np.linalg.eigvalsh(top)[-1]) + (mu * bound if mu > 0.0 else 0.0)
           - float(np.vdot(rho, grad).real))
    return _Iterate(y, mu, rho, value, step, gap)


def _anderson(history) -> np.ndarray:
    """Type-II Anderson extrapolation of the fixed point of y -> step over `history`.

    The residuals r_i = step_i - y_i are taken trace-free, since a multiple
    of I in y leaves rho unchanged. The weights gamma minimize
    |r_k - sum_j gamma_j (r_{j+1} - r_j)| in the Frobenius norm, a real
    least-squares fit, and the extrapolated point is
    step_k - sum_j gamma_j (step_{j+1} - step_j) (Walker and Ni, SIAM J.
    Numer. Anal. 49 (2011) 1715).
    """
    n, d = len(history), history[0].y.shape[0]
    res = np.array([it.step - it.y for it in history]).reshape(n, -1)
    # every (d + 1)-th entry of a flattened d x d matrix is on its diagonal
    res[:, ::d + 1] -= res[:, ::d + 1].sum(axis=1, keepdims=True) / d
    flat = res.view(np.float64)
    gamma = np.linalg.lstsq((flat[1:] - flat[:-1]).T, flat[-1], rcond=None)[0]
    steps = np.array([it.step for it in history]).reshape(n, -1)
    return (steps[-1] - gamma @ (steps[1:] - steps[:-1])).reshape(d, d)


def _mirror_ascent(channel: QuantumChannel, obs, bound: float, tol: float,
                   max_iters: int, callback) -> CeResult:
    """Mirror ascent on f under tr(obs rho) <= bound (obs None: no constraint).

    The unit step is rho <- exp2(log2 rho + G) / tr, projected onto the
    constraint; data processing makes it an ascent step
    (arXiv:1905.01286). It is the fixed-point map y -> step of the log
    domain, and each iteration first tries the Anderson extrapolation of
    that map over the last _ANDERSON_DEPTH + 1 iterates (`_anderson`). The
    extrapolated state is taken when its value is at least the current
    one; otherwise the iteration takes the unit step from the current
    iterate and the history restarts there. So the value never falls, and
    a rejected candidate costs one more evaluated state. Each projection
    starts its Newton search from the current iterate's multiplier mu.
    Gives up, with the least-gap iterate, after `max_iters` iterations or
    once _STALL_ITERS iterations in a row bring no smaller gap.
    """
    if not tol >= 0.0:  # NaN fails this too
        raise ValueError(f"tol must be a nonnegative gap, got {tol}")
    d = channel.d_in
    cur = _evaluate(channel, obs, bound, np.zeros((d, d), dtype=np.complex128), 0.0)
    history, best = [], None
    for it in itertools.count():
        result = CeResult(value=cur.value, rho=cur.rho, iterations=it,
                          gap_bound=max(cur.gap, 0.0))
        if cur.gap <= tol:
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
        if callback is not None and callback(it, cur.value, result.gap_bound):
            raise OptimizationCancelled("cancelled by callback", result)
        history = [*history[-_ANDERSON_DEPTH:], cur]
        nxt = None
        if len(history) > 1:
            nxt = _evaluate(channel, obs, bound, _anderson(history), cur.mu)
        if nxt is None or not nxt.value >= cur.value:  # NaN is rejected too
            history = [cur]
            nxt = _evaluate(channel, obs, bound, cur.step, cur.mu)
        cur = nxt


def ce_maximize(channel: QuantumChannel, tol: float = 1e-7,
                max_iters: int = MAX_ITERS, callback=None) -> CeResult:
    """Maximize H(rho) + H(N(rho)) - H(E(rho)) over density operators.

    Mirror ascent (quantum Blahut-Arimoto) from the maximally mixed state,
    each step the Anderson extrapolation of the unit steps when it does
    not lower the value and the unit step otherwise. Stops when the
    duality gap lambda_max(G) - tr(G rho) drops to `tol` (bits); the
    returned value is then within `tol` of the maximum over all
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

    The same safeguarded, extrapolated mirror ascent as `ce_maximize`, with
    every evaluated state (the maximally mixed start, which becomes a Gibbs
    state, the unit steps and the extrapolated candidates) projected onto the
    constraint in relative entropy: rho proportional to exp2(Y - mu A), with
    mu found by safeguarded Newton steps from the current iterate's mu. The
    gap lambda_max(G - mu A) + mu b - tr(G rho) certifies the value over the
    whole feasible set. The feasibility slack is relative to the norm
    s = max |lambda| of the observable (s = 1 when it is 0): a bound below
    lambda_min by more than 1e-12 s raises ValueError, and a bound within
    1e-12 s of it is met to within 1e-12 s.
    """
    obs = constraint.observable
    if obs.shape[0] != channel.d_in:
        raise DimensionMismatchError("observable dimension mismatch")
    lam_min, norm = constraint.lam_min, constraint.norm
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
    _check_probability(p, "damping probability")
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
    _check_probability(p, "damping probability")

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
    _check_probability(p, "damping probability")
    _check_probability(x, "input weight x")
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

_BOXES = (16, 8, 4, 2)  # lattice points per side of a pruning box, coarse to fine
_BOX_RADIUS = 0.98     # tangent points are pulled in to it, so input eigenvalues stay >= 0.01
_FLOOR_MARGIN = 1e-9   # covers rounding between the floor and the scan
_GRID_CHUNK = 1 << 12  # most lattice points in one evaluated batch


def bloch_grid_ce(channel: QuantumChannel, resolution: float = 0.01):
    """Grid maximum of the capacity objective over the Bloch ball.

    Walks rho = (I + r . sigma)/2 on a cubic lattice of the given resolution
    intersected with the unit ball, evaluating the objective in batches
    with `hermitian_spectra`: closed-form spectra for 2x2 input, output and
    environment matrices, one batched eigensolve above. Independent check
    of `ce_maximize`; returns (max value, argmax Bloch vector), the first
    lattice point in scan order (x, then y, then z) to reach the maximum.

    The scan skips lattice boxes that cannot hold the maximum. f is concave
    on the ball, so the tangent plane at a box's middle lattice point c,
    pulled in to radius 0.98 if outside it, bounds it there: max_box f <=
    f(c) + sum_k |df/dr_k(c)| max_box |r_k - c_k|. Boxes are bounded coarse
    to fine, with sides of 16, 8, 4 and 2 lattice points: each level bounds
    only the halves, along every axis, of the boxes that survived the level
    above, and raises a floor, the best f(c) at a c not pulled in, less 1e-9
    of rounding margin. A box survives when its bound reaches the floor. Two
    rules stop the refinement where it cannot pay. A box whose c has an
    output or environment eigenvalue below `EIG_ZERO_TOL`, where the
    gradient is unreliable, or whose bound is not finite, is never pruned or
    refined: it is scanned whole. A level that prunes nothing ends the
    refinement, and its survivors are scanned whole. So a flat objective, or
    one singular everywhere, bounds one level of 16-point boxes and then
    scans the whole lattice. A point's value has the same floats in any
    batch (see `_objective` and `_family`), so the value and the argmax are
    those of the whole lattice. Raises ValueError unless 0 < resolution <=
    1, a step that puts some lattice point in the ball.
    """
    if channel.d_in != 2:
        raise DimensionMismatchError("bloch_grid_ce needs a qubit-input channel")
    if not 0.0 < resolution <= 1.0:
        raise ValueError(f"resolution must be in (0, 1], got {resolution!r}")
    # rho = I/2 + rx X/2 + ry Y/2 + rz Z/2: it and both maps' outputs are affine in r
    inputs = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]],
                       [[1, 0], [0, -1]]]) / 2
    bases = (inputs, *map(np.stack, zip(*(_outputs(channel, m) for m in inputs))))

    axis = np.arange(-1.0, 1.0 + resolution / 2, resolution)
    shape = (len(axis),) * 3
    best = (-np.inf, 0)  # (value, -key): ties go to the least scan-order key
    for idx in _scan_batches(bases, axis):
        vals = _objective(bases, *axis[idx])
        top = np.max(vals)
        keys = np.ravel_multi_index(idx[:, vals == top], shape)
        best = max(best, (float(top), -int(keys.min())))
    return best[0], tuple(float(axis[i]) for i in np.unravel_index(-best[1], shape))


def _objective(bases, rx, ry, rz, gradient=False):
    """The objective at the Bloch vectors (rx, ry, rz), each the same in any batch.

    With `gradient`: (f, df/dr, the least output or environment eigenvalue).
    """
    coef = np.stack([np.ones_like(ry), rx, ry, rz], axis=1)
    (h_in, g_in, _), (h_out, g_out, low_out), (h_env, g_env, low_env) = (
        _family(basis, coef, gradient) for basis in bases)
    f = h_in + h_out - h_env
    return (f, g_in + g_out - g_env, np.minimum(low_out, low_env)) if gradient else f


def _scan_batches(bases, axis):
    """Batches of lattice points that may hold the grid maximum, as (3, m) axis indices.

    Boxes are bounded level by level over the sides in _BOXES, as
    `bloch_grid_ce` describes. Each level yields the ball points of the
    boxes it keeps whole, each point once: one batch per _GRID_CHUNK / side^3
    boxes, so no batch holds more than _GRID_CHUNK points.
    """
    size = len(axis)
    # the squared axis padded past its end with inf, which is never in the ball
    sq = np.concatenate([axis**2, np.full(_BOXES[0], np.inf)])
    floor = -np.inf
    box, above = np.zeros((1, 3), dtype=np.int64), None  # one root box holds the lattice
    for side in _BOXES:
        first = np.arange(0, size, side)
        last = np.minimum(first + side - 1, size - 1)
        nb = len(first)
        # the (x, y, z) indices of the boxes to bound: the parts of the boxes
        # split at the level above, at the first level those of the root
        part = above // side if above else nb
        box = (box[:, None, :] * part + np.indices((part,) * 3).reshape(3, -1).T).reshape(-1, 3)
        box = box[np.all(box < nb, axis=1)]
        # per box, one row each: its least, greatest and middle lattice point
        lo3, hi3, mid3 = (v[box] for v in (axis[first], axis[last], axis[(first + last) // 2]))
        meets = np.sum(np.clip(0.0, lo3, hi3) ** 2, axis=1) <= 1.0 + 1e-12
        box, lo3, hi3, mid3 = box[meets], lo3[meets], hi3[meets], mid3[meets]
        bound, unsafe, seen = _box_bounds(bases, lo3, hi3, mid3)
        floor = max(floor, float(np.max(seen, initial=-np.inf)) - _FLOOR_MARGIN)
        kept = unsafe | (bound >= floor)
        final = kept.all() or side == _BOXES[-1]
        split = np.zeros_like(kept) if final else kept & ~unsafe
        whole = box[kept & ~split] * side
        per = _GRID_CHUNK // side**3
        for i in range(0, len(whole), per):
            idx = whole[i:i + per, :, None, None, None] + np.indices((side,) * 3)
            ball = np.sum(sq[idx], axis=1) <= 1.0 + 1e-12
            if ball.any():  # a box can meet the ball between its lattice points
                yield np.moveaxis(idx, 1, 0)[:, ball]
        if not split.any():
            break
        box, above = box[split], side


def _box_bounds(bases, lo3, hi3, mid3):
    """Tangent-plane bound on the objective over each box, whether it is unsafe, and a floor.

    The boxes' least, greatest and middle lattice points are the rows of
    lo3, hi3 and mid3. The bound at the middle point c, pulled in to radius
    _BOX_RADIUS if outside it, is f(c) + sum_k |g_k| reach_k, with f and g =
    df/dr from `_objective` and reach_k the box's farthest lattice
    coordinate from c_k. A box is unsafe when an output or environment
    eigenvalue at c is below EIG_ZERO_TOL or its bound is not finite. Its
    floor is f(c), or -inf where c was pulled in.
    """
    scale = _BOX_RADIUS / np.maximum(np.linalg.norm(mid3, axis=1), _BOX_RADIUS)
    c = mid3 * scale[:, None]
    value, grad, low = _objective(bases, *c.T, gradient=True)
    reach = np.maximum(np.abs(lo3 - c), np.abs(hi3 - c))
    bound = value + np.sum(np.abs(grad) * reach, axis=1)
    return bound, (low < EIG_ZERO_TOL) | ~np.isfinite(bound), np.where(scale < 1.0, -np.inf, value)


def _family(basis, coef, gradient=False):
    """Entropy of each M = coef[j] . basis, and with `gradient` dH/dr and its least eigenvalue.

    `basis` stacks four d x d Hermitian matrices; the real (n, 4)
    coefficients act on their real and imaginary parts in one product.
    numpy multiplies a one-row product as a matrix-vector product, which
    rounds differently from a row of a larger one, so one row is taken
    twice: each row's results are then the same in any batch. Spectra come
    from `hermitian_spectra`: a closed form at 2x2, batched `eigvalsh`
    above. Every basis[k + 1] is traceless, so dH(M)/dr_k =
    -tr(log2 M . basis[k + 1]) and any multiple of I in log2 M drops out.
    A 2x2 M with eigenvalues lo <= hi, clipped at EIG_ZERO_TOL as in
    `_eig_log2`, has log2 M = a I + b M with b = log2(hi / lo) / (hi - lo),
    taken by log1p (1 / (lo ln 2) at hi = lo): no eigensolve. Other sizes
    take the spectrum and log2 M from `_eig_log2`. Returns (entropy,
    gradient, least eigenvalue), the last two None without `gradient`.
    """
    n, dim = len(coef), basis.shape[-1]
    flat = basis.reshape(4, -1).view(np.float64)
    rows = np.repeat(coef, 2, axis=0) if n == 1 else coef
    mats = (rows @ flat).view(np.complex128).reshape(-1, dim, dim)
    if gradient and dim != 2:
        evals, logm = _eig_log2(mats)
    else:
        evals = hermitian_spectra(mats)
    h = entropy_of_spectrum(np.clip(evals[:n], 0.0, None))
    if not gradient:
        return h, None, None
    if dim == 2:
        hi, lo = np.clip(evals, EIG_ZERO_TOL, None).T
        b = np.divide(np.log1p((hi - lo) / lo), hi - lo, out=1.0 / lo, where=hi > lo) / _LN2
        logm = b[:, None, None] * mats
    # tr(L B) = sum_il L_il B_li, one product against the transposed basis, in
    # complex: a real-view product rounds a 4x4 L's rows differently by batch
    grad = -(logm.reshape(len(rows), -1) @ basis[1:].transpose(0, 2, 1).reshape(3, -1).T).real
    # hermitian_spectra's 2x2 rows are (larger, smaller); eigh's rise
    return h, grad[:n], evals[:n, -1 if dim == 2 else 0]
