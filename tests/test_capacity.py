import time

import numpy as np
import pytest
import scipy.optimize

from qcap import capacity
from qcap.capacity import (
    FEASIBILITY_SLACK,
    ConvergenceError,
    EnergyConstraint,
    OptimizationCancelled,
    ad_asymptotics,
    ad_ce,
    ad_ch,
    bloch_grid_ce,
    ce_additivity_slack,
    ce_maximize,
    ce_maximize_constrained,
    concavity_slack,
    holevo_chi,
    pgm_error,
    _BOXES,
    _STALL_ITERS,
    _box_bounds,
    _eig_log2,
    _family,
    _objective,
    _project,
    _scan_batches,
)
from qcap.channels import (
    Ensemble,
    amplitude_damping,
    classical_embedding,
    depolarizing,
    dephasing,
    erasure,
    noiseless,
    superdense_ensemble,
    switched_3to2,
)
from qcap.qmath import (
    EIG_ZERO_TOL,
    DensityOperator,
    QuantumChannel,
    _outputs,
    apply_channel,
    entropy_of_spectrum,
    quantum_mutual_information,
)
from qcap.rand import generator, random_channel, random_density, random_unitary
from qcap.reverse_shannon import DMC, ba_capacity


def test_noiseless_capacity_is_twice_log_dim():
    for d in (2, 3):
        res = ce_maximize(noiseless(d))
        assert res.value == pytest.approx(2 * np.log2(d), abs=1e-9)
        assert res.gap_bound <= 1e-7


def test_erasure_capacity_scales_linearly():
    assert ce_maximize(erasure(2, 0.5)).value == pytest.approx(1.0, abs=1e-9)
    assert ce_maximize(erasure(2, 0.25)).value == pytest.approx(1.5, abs=1e-7)


def test_dephasing_capacity():
    assert ce_maximize(dephasing(2)).value == pytest.approx(1.0, abs=1e-9)


def test_depolarizing_capacity_frozen():
    assert ce_maximize(depolarizing(2, 2.0 / 3.0)).value == pytest.approx(
        0.2075187496, abs=1e-6)


def test_amplitude_damping_half_is_one_bit():
    # at p=1/2 output and environment spectra coincide, so the objective
    # reduces to the input entropy: maximum exactly 1
    val, x = ad_ce(0.5)
    assert val == pytest.approx(1.0, abs=1e-9)
    assert x == pytest.approx(0.5, abs=1e-4)
    res = ce_maximize(amplitude_damping(0.5))
    assert res.value == pytest.approx(1.0, abs=1e-9)


def test_frank_wolfe_matches_diagonal_family_on_damping():
    for p in (0.1, 0.3, 0.7):
        closed, _ = ad_ce(p)
        res = ce_maximize(amplitude_damping(p))
        assert res.value == pytest.approx(closed, abs=1e-6)


def test_random_channel_frozen_values():
    # grid-checked once at resolution 0.005; values frozen
    rng = generator(5)
    ch = random_channel(2, 2, 4, rng)
    assert ce_maximize(ch).value == pytest.approx(0.6109374425, abs=1e-6)
    rng = generator(6)
    ch = random_channel(2, 2, 4, rng)
    assert ce_maximize(ch).value == pytest.approx(0.7070988630, abs=1e-6)


def test_classical_embedding_matches_shannon_capacity():
    # entanglement cannot help a classical channel
    mat = [[1.0, 0.0], [0.4, 0.6]]
    quantum = ce_maximize(classical_embedding(mat), tol=1e-9).value
    shannon, _ = ba_capacity(DMC(mat), tol=1e-12)
    assert quantum == pytest.approx(shannon, abs=1e-7)


def test_switched_channel_reaches_two_bits():
    res = ce_maximize(switched_3to2())
    assert res.value == pytest.approx(2.0, abs=1e-3)


def test_convergence_error_carries_best_iterate():
    # two steps leave a gap near 2.5e-5 on this channel (the third reaches
    # 1.8e-8), far above the default tolerance, so the iteration cap is hit
    with pytest.raises(ConvergenceError) as exc:
        ce_maximize(amplitude_damping(0.3), max_iters=2)
    best = exc.value.best
    assert best.iterations == 2
    assert best.value == pytest.approx(ad_ce(0.3)[0], abs=1e-6)
    assert best.gap_bound > 1e-12


def test_unreachable_tol_stops_at_a_stall():
    # the iterates stay diagonal on this channel and reach a fixed point in
    # floats at iteration 5, where the gap is 2.2e-16 and stays there;
    # without the stall stop the solver ran all 100,000 iterations (12 s)
    ch = amplitude_damping(0.4)
    start = time.perf_counter()
    with pytest.raises(ConvergenceError) as exc:
        ce_maximize(ch, tol=1e-17)
    assert time.perf_counter() - start < 2.0
    best = exc.value.best
    assert 0.0 < best.gap_bound < 1e-15
    assert best.iterations < _STALL_ITERS
    assert best.value == pytest.approx(ce_maximize(ch).value, abs=1e-7)
    # a cap below the stall window still ends the run at the cap
    with pytest.raises(ConvergenceError) as exc:
        ce_maximize(ch, tol=1e-17, max_iters=50)
    assert exc.value.best.iterations <= 50


def test_superdense_chi_equals_mutual_information():
    rng = generator(31)
    for _ in range(3):
        ch = random_channel(2, 2, 2, rng)
        chi = holevo_chi(superdense_ensemble(ch))
        qmi = quantum_mutual_information(ch, DensityOperator(np.eye(2) / 2))
        assert chi == pytest.approx(qmi, abs=1e-6)


def test_holevo_chi_orthogonal_through_depolarizing():
    from qcap.channels import Ensemble
    from qcap.qmath import apply_channel

    dep = depolarizing(2, 2.0 / 3.0)
    outs = tuple(apply_channel(dep, DensityOperator(np.diag(v)))
                 for v in ([1.0, 0.0], [0.0, 1.0]))
    chi = holevo_chi(Ensemble(probs=(0.5, 0.5), states=outs))
    assert chi == pytest.approx(0.0817041659, abs=1e-6)


def test_energy_constraint_validation():
    with pytest.raises(ValueError):
        EnergyConstraint(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)  # not Hermitian
    with pytest.raises(ValueError):
        EnergyConstraint(np.diag([-1.0, 1.0]), 1.0)  # not PSD
    with pytest.raises(ValueError):
        EnergyConstraint(np.diag([0.0, 1.0]), -0.5)  # negative budget
    with pytest.raises(ValueError):
        EnergyConstraint(np.diag([0.0, 1.0]), float("nan"))  # NaN fails the check
    with pytest.raises(ValueError):
        EnergyConstraint(np.diag([0.0, np.nan]), 1.0)


def test_constrained_reduces_to_unconstrained_for_loose_budget():
    ch = amplitude_damping(0.3)
    cons = EnergyConstraint(np.diag([0.0, 1.0]), 10.0)
    free = ce_maximize(ch).value
    capped = ce_maximize_constrained(ch, cons).value
    assert capped == pytest.approx(free, abs=1e-9)


def test_constrained_infinite_bound_is_unconstrained():
    # mu stays 0, so the certificate's mu b term must not read 0 inf = NaN
    ch = amplitude_damping(0.3)
    free = ce_maximize(ch)
    capped = ce_maximize_constrained(ch, EnergyConstraint(np.diag([0.0, 1.0]), np.inf))
    assert (capped.value, capped.gap_bound, capped.iterations) == (
        free.value, free.gap_bound, free.iterations)


def test_constrained_zero_budget_pins_ground_state():
    ch = amplitude_damping(0.3)
    cons = EnergyConstraint(np.diag([0.0, 1.0]), 0.0)
    res = ce_maximize_constrained(ch, cons)
    # feasible set is the single pure ground state: objective 0
    assert res.value == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(res.rho, np.diag([1.0, 0.0]), atol=1e-9)


def test_constrained_matches_diagonal_grid():
    # diag-family scan oracle: rho = diag(1-x, x) with x <= bound
    ch = amplitude_damping(0.3)
    bound = 0.2
    cons = EnergyConstraint(np.diag([0.0, 1.0]), bound)
    res = ce_maximize_constrained(ch, cons)
    xs = np.linspace(0.0, bound, 4001)
    grid = max(quantum_mutual_information(ch, np.diag([1 - x, x]).astype(complex))
               for x in xs)
    assert res.value == pytest.approx(grid, abs=1e-7)


def _h_cols(lams):
    safe = np.where(lams > 1e-12, lams, 1.0)
    return -np.sum(lams * np.log2(safe), axis=-1)


def _qubit_spectra(mats):
    # closed-form eigenvalues of a stack of 2x2 Hermitian matrices
    mid = 0.5 * (mats[:, 0, 0].real + mats[:, 1, 1].real)
    half = np.sqrt(0.25 * (mats[:, 0, 0].real - mats[:, 1, 1].real) ** 2
                   + np.abs(mats[:, 0, 1]) ** 2)
    return np.clip(np.stack([mid + half, mid - half], axis=-1), 0.0, None)


def _capped_bloch_grid(channel, bound, resolution):
    """Objective maximum over Bloch-grid states with (1 - r_z)/2 <= bound.

    Every grid point is a feasible state, so this is a lower bound on the
    constrained maximum. The maps act through explicit Kraus sums.
    """
    axis = np.arange(-1.0, 1.0 + resolution / 2, resolution)
    zs = axis[(1.0 - axis) / 2 <= bound]
    rx, ry, rz = (g.ravel() for g in np.meshgrid(axis, axis, zs, indexing="ij"))
    keep = rx**2 + ry**2 + rz**2 <= 1.0
    rx, ry, rz = rx[keep], ry[keep], rz[keep]
    paulis = [np.eye(2), np.array([[0, 1], [1, 0]]),
              np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0])]
    coeffs = np.stack([np.ones_like(rx), rx, ry, rz], axis=1) / 2

    def family(apply):
        return np.einsum("nj,jab->nab", coeffs, np.stack([apply(s) for s in paulis]))

    ks = list(channel.kraus)
    out = family(lambda s: sum(k @ s @ k.conj().T for k in ks))
    env = family(lambda s: np.array([[np.trace(a @ s @ b.conj().T) for b in ks]
                                     for a in ks]))
    rnorm = np.sqrt(rx**2 + ry**2 + rz**2)
    h_in = _h_cols(np.stack([(1 + rnorm) / 2, (1 - rnorm) / 2], axis=-1))
    h_env = _h_cols(np.clip(np.linalg.eigvalsh(env), 0.0, None))
    return float(np.max(h_in + _h_cols(_qubit_spectra(out)) - h_env))


def test_constrained_certificate_against_capped_bloch_grid():
    rng = generator(11)
    bound = 0.15
    cons = EnergyConstraint(np.diag([0.0, 1.0]), bound)
    for i in range(6):
        ch = random_channel(2, 2, 2 + i % 3, rng)
        res = ce_maximize_constrained(ch, cons)
        grid = _capped_bloch_grid(ch, bound, 0.02)
        assert res.value >= grid - 1e-9
        assert res.gap_bound <= 1e-7
        assert float(res.rho[1, 1].real) <= bound + 1e-12


def test_large_random_channels_converge_with_certificate():
    for seed, (d, env) in enumerate([(6, 2), (8, 3), (8, 8), (16, 16)]):
        ch = random_channel(d, d, env, generator(seed))
        values = []
        res = ce_maximize(ch, callback=lambda it, value, gap: values.append(value))
        assert res.gap_bound <= 1e-7
        assert res.value == pytest.approx(quantum_mutual_information(ch, res.rho),
                                          abs=1e-9)
        assert len(values) == res.iterations >= 3
        assert np.all(np.diff(values) >= -1e-12)
        with pytest.raises(OptimizationCancelled) as exc:
            ce_maximize(ch, callback=lambda it, value, gap: it == 2)
        best = exc.value.best
        assert best.iterations == 2
        assert best.value == pytest.approx(values[2], abs=1e-12)
        assert best.value == pytest.approx(quantum_mutual_information(ch, best.rho),
                                           abs=1e-9)


def test_negative_or_nan_tol_is_rejected():
    # a gap never falls below a negative tolerance, so the solver would run
    # to its iteration cap; tol = 0 is reachable and stays allowed
    ch = amplitude_damping(0.3)
    cons = EnergyConstraint(np.diag([0.0, 1.0]), 0.2)
    for tol in (-1.0, -1e-12, float("nan")):
        with pytest.raises(ValueError):
            ce_maximize(ch, tol=tol)
        with pytest.raises(ValueError):
            ce_maximize_constrained(ch, cons, tol=tol)
    assert ce_maximize(ch, tol=0.0).value == pytest.approx(ad_ce(0.3)[0], abs=1e-9)


def test_constrained_infeasible_raises():
    ch = amplitude_damping(0.3)
    with pytest.raises(ValueError):
        ce_maximize_constrained(ch, EnergyConstraint(np.eye(2), 0.5))


def _gibbs_load(y, obs, mu):
    """tr(obs rho) for rho = exp2(y - mu obs) / tr."""
    evals, vecs = np.linalg.eigh(y - mu * obs)
    weights = np.exp2(evals - evals[-1])
    return float(np.real(np.einsum("i,ji,jk,ki->", weights, vecs.conj(), obs, vecs))
                 / weights.sum())


def _brentq_mu(y, obs, bound):
    top = 1.0
    while _gibbs_load(y, obs, top) > bound:
        top *= 2.0
    return scipy.optimize.brentq(lambda mu: _gibbs_load(y, obs, mu) - bound, 0.0, top,
                                 xtol=1e-300, rtol=1e-15)


def _hermitian(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2.0


def _psd_floor_zero(rng, d):
    # the solver hands _project observables shifted to least eigenvalue 0
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    obs = g @ g.conj().T
    return obs - np.linalg.eigvalsh(obs)[0] * np.eye(d)


def test_project_matches_independent_root_finder():
    rng = generator(2024)
    for d in range(2, 9):
        for _ in range(3):
            y, obs = _hermitian(rng, d), _psd_floor_zero(rng, d)
            for frac in (0.1, 0.5, 0.9):
                bound = frac * _gibbs_load(y, obs, 0.0)
                ref = _brentq_mu(y, obs, bound)
                for start in (0.0, 0.9 * ref, 1.1 * ref):
                    mu, _, _ = _project(y, obs, bound, start)
                    assert mu == pytest.approx(ref, rel=1e-12, abs=0.0)
                    assert _gibbs_load(y, obs, mu) <= bound


def test_project_edge_cases():
    rng = generator(2)
    for d in (2, 5, 8):
        y, obs = _hermitian(rng, d), _psd_floor_zero(rng, d)
        # inactive: the unconstrained Gibbs state already meets the bound
        loose = 1.5 * _gibbs_load(y, obs, 0.0)
        assert _project(y, obs, loose)[0] == 0.0
        # every state meets a bound at the top of the spectrum
        assert _project(y, obs, float(np.linalg.eigvalsh(obs)[-1]), 3.0)[0] == 0.0
        # a bound within 1e-13 of the least eigenvalue has no finite root; the
        # projection then meets it within the feasibility slack, also where
        # a larger observable leaves rounding noise far above 1e-18
        for scale, start in ((1.0, 0.0), (1.0, 50.0), (100.0, 0.0)):
            mu, _, _ = _project(y, scale * obs, 1e-13, start)
            assert 0.0 < mu < np.inf
            assert _gibbs_load(y, scale * obs, mu) <= 1e-13 + FEASIBILITY_SLACK


def test_project_bisection_exit(monkeypatch):
    # with the slope reported as 0 there is no Newton root, so every step
    # doubles or bisects, and a projection can stop at mu > 0 only when the
    # bracket collapses: it must return the feasible end, as Newton would
    ch, cons = amplitude_damping(0.3), EnergyConstraint(np.diag([0.0, 1.0]), 0.2)
    newton = ce_maximize_constrained(ch, cons, tol=1e-9)
    gibbs, project, ends = capacity._gibbs, capacity._project, []

    def flat(y, obs, mu):
        w, vecs, load, _ = gibbs(y, obs, mu)
        return w, vecs, load, 0.0

    def recorded(*args):
        mu, w, vecs = project(*args)
        ends.append(mu)
        return mu, w, vecs

    monkeypatch.setattr(capacity, "_gibbs", flat)
    monkeypatch.setattr(capacity, "_project", recorded)
    bisected = ce_maximize_constrained(ch, cons, tol=1e-9)
    assert max(ends) > 0.0
    assert np.trace(cons.observable @ bisected.rho).real <= cons.bound + FEASIBILITY_SLACK
    assert bisected.value == pytest.approx(newton.value, abs=1e-9)


def test_project_from_a_saturated_start_bisects_geometrically(monkeypatch):
    # at mu = 0 the load is 1 to within 2^-1000 and its slope under 1e-300,
    # so the first Newton root lands near mu = 1e300, far past the true
    # mu = 1000; arithmetic bisection alone took 996 eigensolves back down
    gibbs, calls = capacity._gibbs, [0]

    def counted(*args):
        calls[0] += 1
        return gibbs(*args)

    monkeypatch.setattr(capacity, "_gibbs", counted)
    y, obs = np.diag([0.0, 0.0, 1000.0]), np.diag([0.0, 0.5, 1.0])
    mu, _, _ = _project(y, obs, 0.5, 0.0)
    assert calls[0] <= 30
    assert mu == pytest.approx(1000.0, rel=1e-12)
    assert _gibbs_load(y, obs, mu) <= 0.5


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_project_raises_where_rounding_hides_a_pinned_bound():
    # rounding in the load of this large non-commuting observable exceeds
    # the slack, so no mu meets the bound: the doubling overflows and raises
    rng = generator(2)
    y, obs = _hermitian(rng, 2), _psd_floor_zero(rng, 2)
    with pytest.raises(ValueError):
        _project(y, 1e4 * obs, 0.0)


def _count_eigensolves(monkeypatch):
    calls = [0]
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)

        def counted(*args, _real=real, **kwargs):
            calls[0] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_constrained_eigensolve_budget(monkeypatch):
    # a step is one gradient: iterations + 1 of them, the last one unprojected;
    # no extrapolated candidate is rejected on this channel, so every
    # evaluated state is an iterate. Its qubit output makes the optimal input
    # state nearly rank 2, which keeps the solves long (33 iterations each)
    ch = random_channel(6, 2, 6, generator(5))
    cons = EnergyConstraint(np.diag(np.arange(6.0)), 0.3)
    calls = _count_eigensolves(monkeypatch)
    res = ce_maximize_constrained(ch, cons)
    assert res.iterations >= 20
    assert calls[0] <= 7 * (res.iterations + 1)
    calls[0] = 0
    res = ce_maximize(ch)
    assert calls[0] == 4 * (res.iterations + 1)


def test_feasibility_slack_is_relative_to_the_observable(monkeypatch):
    # the load's rounding error grows with the observable's norm, and so
    # does the slack: 1e4 A and its scaled bound give A's solution, at a
    # pinned bound (lambda_min = 0) as well as an interior one
    calls = _count_eigensolves(monkeypatch)
    # a rotated 0.7 I has a spread of rounding noise, which must stay
    # noise: the bound 0.7 holds for every state
    for seed in range(4):
        rng = generator(seed)
        ch = random_channel(3, 3, 2, rng)
        u = random_unitary(3, rng)
        res = ce_maximize_constrained(ch, EnergyConstraint(u @ (0.7 * u.conj().T), 0.7))
        assert res.value == pytest.approx(ce_maximize(ch).value, abs=1e-7)
    for seed in range(3):
        for d in (2, 5, 8):
            rng = generator(seed)
            ch = random_channel(d, d, 2, rng)
            obs = _psd_floor_zero(rng, d)
            for bound in (0.0, 0.2 * np.trace(obs).real / d):
                runs = []
                for scale in (1.0, 1e4):
                    calls[0] = 0
                    res = ce_maximize_constrained(
                        ch, EnergyConstraint(scale * obs, scale * bound))
                    assert calls[0] <= 7 * (res.iterations + 1), (seed, d, bound)
                    runs.append(res)
                assert runs[1].value == pytest.approx(runs[0].value, abs=1e-12)
                assert np.max(np.abs(runs[1].rho - runs[0].rho)) <= 1e-10, (seed, d, bound)


def _rotate(channel, rng, rotate_input):
    """The same channel in other bases, drawn as perfbench's solve workload does."""
    ks = np.einsum("kj,jab->kab", random_unitary(len(channel.kraus), rng), channel.kraus)
    v = random_unitary(channel.d_out, rng)
    u = random_unitary(channel.d_in, rng) if rotate_input else np.eye(channel.d_in)
    return QuantumChannel([v @ k @ u.conj().T for k in ks])


def _from_upper(diag, upper):
    d = len(diag)
    rho = np.diag(np.asarray(diag, dtype=complex))
    rho[np.triu_indices(d, 1)] = upper
    return rho + np.triu(rho, 1).conj().T


# The two constrained channels of perfbench's solve workload. The values
# were solved before the Newton projection replaced bisection; the
# iteration counts and states are those of the Anderson-accelerated solver,
# whose states moved by 2.4e-8 and 7.6e-9 from the unit-step solver's, well
# inside the 1e-7 certificate. Rotating the outputs leaves the optimal input
# state the same for every seed.
_FROZEN_CONSTRAINED = {
    (3, 3): (0.9627318322833884, 7, _from_upper(
        [0.7535390457823753, 0.1929219084353522, 0.05353904578227273],
        [-0.0031362180918554847 + 0.001666504746563917j,
         0.005832666454419192 - 0.012196286299636845j,
         -0.011703370277216353 + 0.032993168031822756j])),
    (4, 2): (1.4523449899004963, 10, _from_upper(
        [0.7718616471666419, 0.1642043546733114, 0.05600634915364042,
         0.007927649006406426],
        [-0.009197151397176853 - 0.001653394961768433j,
         -0.013117748234915141 - 0.01939932820151665j,
         -0.0014912298102582053 - 0.0017647568855621285j,
         -0.00534136039591383 - 0.00673692994435057j,
         -0.010876426735753068 + 0.01961207481079429j,
         0.002209203639742254 - 0.00474043860236204j])),
}


# The same two channels' unit-step solves, iterations and state, from the
# solver before it took Anderson steps.
_UNIT_STEP_CONSTRAINED = {
    (3, 3): (8, _from_upper(
        [0.7535390475689783, 0.19292190486235256, 0.05353904756866994],
        [-0.0031362145754783083 + 0.0016664814078400996j,
         0.005832650046674069 - 0.012196296949815154j,
         -0.011703375407129193 + 0.032993162611807125j])),
    (4, 2): (65, _from_upper(
        [0.7718616483430426, 0.16420435207713163, 0.056006350816987856,
         0.007927648762837565],
        [-0.009197148077078785 - 0.001653388795163357j,
         -0.013117745261655564 - 0.019399335209024152j,
         -0.0014912334721292543 - 0.0017647580033033135j,
         -0.005341364228265031 - 0.006736929994754665j,
         -0.010876426683059858 + 0.019612073974474155j,
         0.0022092035712579245 - 0.0047404391304303965j])),
}


def _benchmark_draws():
    """The workload's base draws from generator(0): 14 free channels, then the capped ones."""
    rng = generator(0)
    free = [random_channel(d, d, env, rng)
            for d, env in [(2, 2), (3, 2), (3, 3), (4, 2), (4, 4), (5, 2), (5, 5)]
            for _ in range(2)]
    return free, {key: random_channel(key[0], key[0], key[1], rng)
                  for key in _FROZEN_CONSTRAINED}


def test_constrained_benchmark_cases_unchanged():
    # pass 0 of seed s rotates the 14 free channels first (inputs too), then
    # the two capped ones
    free, capped = _benchmark_draws()
    for seed in (1, 7, 11):
        rng = generator([seed, 0])
        for ch in free:
            _rotate(ch, rng, True)
        for key, (value, iterations, rho) in _FROZEN_CONSTRAINED.items():
            ch = _rotate(capped[key], rng, False)
            cons = EnergyConstraint(np.diag(np.arange(key[0], dtype=float)), 0.3)
            res = ce_maximize_constrained(ch, cons)
            assert res.value == pytest.approx(value, abs=1e-11)
            assert np.max(np.abs(res.rho - rho)) <= 1e-11
            assert res.iterations == iterations


def test_env2_benchmark_draws_converge_in_few_iterations():
    # the Kraus-rank-2 draws took 30 to 218 unit steps (constrained 4x2: 65);
    # the extrapolated steps reach the gap in 30 or fewer, never losing value
    free, capped = _benchmark_draws()
    cases = [(ch, None) for ch in free if len(ch.kraus) == 2 and ch.d_in > 2]
    cases.append((capped[4, 2], EnergyConstraint(np.diag(np.arange(4.0)), 0.3)))
    assert len(cases) == 7
    for ch, cons in cases:
        values = []
        cb = lambda it, value, gap: values.append(value)
        res = (ce_maximize(ch, callback=cb) if cons is None
               else ce_maximize_constrained(ch, cons, callback=cb))
        assert res.iterations <= 30
        assert res.gap_bound <= 1e-7
        assert res.value == pytest.approx(quantum_mutual_information(ch, res.rho), abs=1e-9)
        assert np.all(np.diff(values) >= -1e-12)


def test_rejected_extrapolation_takes_the_unit_step(monkeypatch):
    # an extrapolation back to the start is worse than every later iterate,
    # so each candidate is rejected and the solve is the unit-step one: the
    # iterations and states of the solver before it took Anderson steps
    candidates = []

    def to_start(history):
        candidates.append(len(history))
        return np.zeros_like(history[-1].y)

    monkeypatch.setattr(capacity, "_anderson", to_start)
    free, capped = _benchmark_draws()
    # the env-2 draws of d 3, 4 and 5, then the two capped channels
    cases = [(ch, None, iterations, None) for ch, iterations in
             zip([ch for ch in free if len(ch.kraus) == 2 and ch.d_in > 2],
                 [78, 30, 218, 85, 123, 105])]
    cases += [(capped[key], EnergyConstraint(np.diag(np.arange(key[0], dtype=float)), 0.3),
               iterations, rho) for key, (iterations, rho) in _UNIT_STEP_CONSTRAINED.items()]
    for ch, cons, iterations, rho in cases:
        values = []
        candidates.clear()
        cb = lambda it, value, gap: values.append(value)
        res = (ce_maximize(ch, callback=cb) if cons is None
               else ce_maximize_constrained(ch, cons, callback=cb))
        assert res.iterations == iterations
        # a rejection restarts the history at the current iterate, so each
        # later candidate is offered a history of two
        assert candidates == [2] * (iterations - 1)
        assert res.gap_bound <= 1e-7
        assert np.all(np.diff(values) >= -1e-12)
        if rho is not None:
            assert np.max(np.abs(res.rho - rho)) <= 1e-11


def test_concavity_of_objective():
    rng = generator(32)
    for _ in range(25):
        ch = random_channel(2, 2, 2, rng)
        rho0 = random_density(2, rng)
        rho1 = random_density(2, rng)
        p = float(rng.uniform(0.05, 0.95))
        assert concavity_slack(ch, rho0, rho1, p) >= -1e-8


def test_additivity_of_independent_channels():
    slack = ce_additivity_slack(amplitude_damping(0.4), depolarizing(2, 0.5),
                                tol=2e-4)
    assert abs(slack) <= 1e-3


def test_bloch_grid_agrees_with_frank_wolfe():
    rng = generator(33)
    for _ in range(2):
        ch = random_channel(2, 2, 2, rng)
        grid, _ = bloch_grid_ce(ch, 0.01)
        assert ce_maximize(ch).value == pytest.approx(grid, abs=1e-4)


def test_bloch_grid_rejects_bad_resolution():
    ch = amplitude_damping(0.3)
    for res in (0.0, -0.1, 3.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="resolution"):
            bloch_grid_ce(ch, res)
    with pytest.raises(ValueError, match="qubit-input"):
        bloch_grid_ce(depolarizing(3, 0.5))
    value, r = bloch_grid_ce(ch, 1.0)
    assert np.isfinite(value) and r is not None


def _eigvalsh_grid(ch, res):
    axis = np.arange(-1.0, 1.0 + res / 2, res)
    r = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    r = r[r[:, 0] * r[:, 0] + r[:, 1] ** 2 + r[:, 2] ** 2 <= 1.0 + 1e-12]
    paulis = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    rho = 0.5 * (np.eye(2) + np.einsum("ni,ijk->njk", r, paulis))
    ks = ch.kraus
    out = np.einsum("aij,njk,alk->nil", ks, rho, ks.conj())
    env = np.einsum("aij,njk,bik->nab", ks, rho, ks.conj())

    def h(mats):
        return entropy_of_spectrum(np.clip(np.linalg.eigvalsh(mats), 0.0, None))

    vals = h(rho) + h(out) - h(env)
    i = int(np.argmax(vals))
    return vals[i], tuple(r[i])


def test_bloch_grid_matches_eigvalsh_reference():
    # the grid maps an affine basis and takes 2x2 spectra in closed form;
    # the reference applies the Kraus maps at every point and eigvalsh to all.
    # The tied channels reach their maximum at many lattice points within
    # rounding, so only their value is compared
    rng = generator(61)
    chans = [random_channel(2, 2, env, rng) for env in (3, 3, 2, 4)]
    chans += [amplitude_damping(0.5), noiseless(2)]
    tied = [_replacement_channel(np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])),
            depolarizing(2, 1.0), erasure(2, 1.0)]
    for res in (0.05, 0.07):
        for i, ch in enumerate(chans + tied):
            value, r = bloch_grid_ce(ch, res)
            ref_value, ref_r = _eigvalsh_grid(ch, res)
            assert abs(value - ref_value) <= 1e-12, (res, i)
            if i < len(chans):
                assert r == ref_r, (res, i)


def _grid_bases(channel):
    # the input, output and environment on I/2, X/2, Y/2 and Z/2
    inputs = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]],
                       [[1, 0], [0, -1]]]) / 2
    return (inputs, *map(np.stack, zip(*(_outputs(channel, m) for m in inputs))))


def _full_lattice_grid(channel, resolution):
    # the unpruned scan: every lattice point in the ball, one x-slice at a
    # time, through the grid's own evaluator
    bases = _grid_bases(channel)
    axis = np.arange(-1.0, 1.0 + resolution / 2, resolution)
    best_val, best_r = -np.inf, None
    for rx in axis:
        ry_g, rz_g = np.meshgrid(axis, axis, indexing="ij")
        mask = rx * rx + ry_g**2 + rz_g**2 <= 1.0 + 1e-12
        if not mask.any():
            continue
        ry, rz = ry_g[mask], rz_g[mask]
        vals = _objective(bases, np.full_like(ry, rx), ry, rz)
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val, best_r = float(vals[i]), (float(rx), float(ry[i]), float(rz[i]))
    return best_val, best_r


def _replacement_channel(sigma):
    # rho -> tr(rho) sigma, with Kraus operators sqrt(lam_i) |v_i><j|
    lam, vecs = np.linalg.eigh(sigma)
    return QuantumChannel([np.sqrt(lam[i]) * np.outer(vecs[:, i], np.eye(2)[j])
                           for i in range(2) for j in range(2)])


def test_bloch_grid_pruning_keeps_value_and_argmax():
    rng = generator(62)
    chans = [random_channel(2, 2, 2 + i % 3, rng) for i in range(33)]
    chans += [noiseless(2), depolarizing(2, 1.0), amplitude_damping(1.0),
              amplitude_damping(0.5),
              _replacement_channel(np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])),
              erasure(2, 1.0)]
    # axes of 41, 30, 8 and 3 points: partial boxes at the edge, one box
    for res in (0.05, 0.07, 0.3, 1.0):
        for ch in chans:
            assert bloch_grid_ce(ch, res) == _full_lattice_grid(ch, res)
    # the scan evaluates each point once, and only points in the ball
    ball = _ball_keys(0.05)
    for ch in chans[:33]:
        keys = np.concatenate(_scanned_keys(ch, 0.05))
        assert len(np.unique(keys)) == len(keys)
        assert np.isin(keys, ball).all()
    # the 101-point axis bounds all four box levels. A bound with a tenth of
    # the gradient misses the maximum on each of these five. The unpruned
    # scan takes 2x2 spectra in closed form at env 2; one env-4 channel
    # covers the batched eigvalsh, whose unpruned scan costs most
    chans = [random_channel(2, 2, 2 + i % 2, rng) for i in range(8)]
    chans += [random_channel(2, 2, 4, rng) for _ in range(2)]
    for ch in chans[0:8:2] + chans[8:9]:
        assert bloch_grid_ce(ch, 0.02) == _full_lattice_grid(ch, 0.02)


def _scanned_keys(channel, resolution):
    # the scan key of every point the pruned scan evaluates, batch by batch
    axis = np.arange(-1.0, 1.0 + resolution / 2, resolution)
    return [np.ravel_multi_index(idx, (len(axis),) * 3)
            for idx in _scan_batches(_grid_bases(channel), axis)]


def _ball_keys(resolution):
    # the scan key of every lattice point in the ball, in scan order
    axis = np.arange(-1.0, 1.0 + resolution / 2, resolution)
    sq = axis**2
    return np.flatnonzero(sq[:, None, None] + sq[None, :, None] + sq[None, None, :]
                          <= 1.0 + 1e-12)


def test_bloch_grid_refinement_stops_where_it_cannot_prune(monkeypatch):
    levels = []

    def counted(*args):
        levels.append(len(args[2]))
        return _box_bounds(*args)

    monkeypatch.setattr(capacity, "_box_bounds", counted)
    ball = _ball_keys(0.02)
    # amplitude damping at p = 1 is singular everywhere, so every box is
    # unsafe; the complete depolarizer is flat, so no box is pruned. Both
    # scan each lattice point of the ball once after one level. The
    # equality panel checks both channels' value and argmax
    for ch in (amplitude_damping(1.0), depolarizing(2, 1.0)):
        levels.clear()
        keys = np.concatenate(_scanned_keys(ch, 0.02))
        assert len(levels) == 1
        assert np.array_equal(np.sort(keys), ball)
    # a generic channel is bounded at every level and scans a few points
    levels.clear()
    keys = np.concatenate(_scanned_keys(random_channel(2, 2, 3, generator(63)), 0.02))
    assert len(levels) == len(_BOXES)
    assert len(keys) < 800


def test_scan_evaluates_each_box_once_per_level(monkeypatch):
    # each level evaluates the objective once, with its gradient, at one
    # point per bounded box: the tangent points set the floor as well
    calls, levels = [], []

    def counted(bases, rx, ry, rz, gradient=False):
        calls.append((len(rx), gradient))
        return _objective(bases, rx, ry, rz, gradient)

    def bounded(*args):
        levels.append(len(args[1]))
        return _box_bounds(*args)

    monkeypatch.setattr(capacity, "_objective", counted)
    monkeypatch.setattr(capacity, "_box_bounds", bounded)
    rng = generator(67)
    for ch in [random_channel(2, 2, env, rng) for env in (2, 3, 4)] + [amplitude_damping(1.0)]:
        calls.clear()
        levels.clear()
        _scanned_keys(ch, 0.02)
        assert calls == [(n, True) for n in levels]


def test_scan_yields_no_batch_for_a_kept_box_without_ball_points(monkeypatch):
    # at resolution 0.04863 the 2-point box over lattice indices 4-5, 20-21
    # and 34-35 meets the ball between its lattice points (y crosses 0)
    # but holds no ball point; bounds keep only the boxes around its centre
    axis = np.arange(-1.0, 1.0 + 0.04863 / 2, 0.04863)
    target = 0.5 * (axis[[4, 20, 34]] + axis[[5, 21, 35]])

    def only_target(bases, lo3, hi3, mid3):
        hit = np.all((lo3 <= target) & (target <= hi3), axis=1)
        return np.where(hit, np.inf, -np.inf), np.zeros(len(lo3), dtype=bool), np.zeros(len(lo3))

    monkeypatch.setattr(capacity, "_box_bounds", only_target)
    assert _scanned_keys(amplitude_damping(0.3), 0.04863) == []


def test_bloch_grid_one_point_slice_rounds_as_one_row():
    # amplitude damping at p = 0.999 has its maximizer near r = (0, 0, -0.64);
    # HZ turns it to +x. At resolution 0.85 the lattice's argmax
    # (0.7, -0.15, -0.15) is the one ball point of its x-slice, so the
    # unpruned scan evaluates it as a one-row batch, which numpy multiplies
    # as a matrix-vector product
    hz = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)
    ch = QuantumChannel([k @ hz for k in amplitude_damping(0.999).kraus])
    ref = _full_lattice_grid(ch, 0.85)
    assert ref[1] == pytest.approx((0.7, -0.15, -0.15))
    assert bloch_grid_ce(ch, 0.85) == ref
    x, y, z = (np.array([v]) for v in ref[1])
    assert _objective(_grid_bases(ch), x, y, z)[0] == ref[0]


def test_grid_values_are_the_same_in_any_batch():
    # numpy multiplies a one-row batch as a matrix-vector product, which
    # rounds differently from a row of a larger one; each point must get
    # the floats it gets inside a batch of any size, alone included: its
    # value, and the value, gradient and least eigenvalue a box bound reads
    rng = generator(65)
    r = rng.uniform(-0.57, 0.57, size=(3, 60))
    for env in (2, 3, 4):
        bases = _grid_bases(random_channel(2, 2, env, rng))
        whole = _objective(bases, *r)
        jet = _objective(bases, *r, gradient=True)
        for size in (1, 2, 3, 7, 16):
            cuts = [r[:, i:i + size] for i in range(0, r.shape[1], size)]
            parts = [_objective(bases, *cut) for cut in cuts]
            assert np.array_equal(np.concatenate(parts), whole), (env, size)
            parts = [_objective(bases, *cut, gradient=True) for cut in cuts]
            for got, want in zip(zip(*parts), jet):
                assert np.array_equal(np.concatenate(got), want), (env, size)


def test_entropy_gradient_closed_form_matches_eigensolve():
    # 2x2 families take log2 M = a I + b M from the closed-form spectrum;
    # the reference takes log2 M from _eig_log2, as larger families do.
    # basis[0] has the spectrum (lo, hi), first in the standard basis (so
    # hi = lo is exact) then in random ones, and the first coefficient row
    # puts M exactly there; the second moves M off it
    rng = generator(66)
    eps = np.finfo(float).eps
    spectra = [(0.3, 0.7), (0.02, 0.98), (0.5, 0.5), (0.4, 0.4 + 1e-12),
               (0.2, 0.2 + 1e-9), (1e-11, 1.0 - 1e-11), (3e-12, 0.6), (0.0, 1.0)]
    for lo, hi in spectra:
        for trial in range(20):
            v = random_unitary(2, rng) if trial else np.eye(2)
            traceless = []
            for _ in range(3):
                x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                x = x + x.conj().T
                traceless.append(x - 0.5 * np.trace(x) * np.eye(2))
            basis = np.stack([(v * [lo, hi]) @ v.conj().T] + traceless)
            coef = np.array([[1.0, 0.0, 0.0, 0.0], [1.0, *rng.uniform(-0.05, 0.05, 3)]])
            h, grad, low = _family(basis, coef, gradient=True)
            mats = (coef @ basis.reshape(4, -1)).reshape(-1, 2, 2)
            evals, logm = _eig_log2(mats)
            ref = -np.einsum("nil,kli->nk", logm, basis[1:]).real
            assert np.max(np.abs(h - entropy_of_spectrum(np.clip(evals, 0.0, None)))) <= 1e-14
            assert np.max(np.abs(low - evals[:, 0])) <= 1e-15
            # each route's least eigenvalue carries a rounding error of a few
            # eps tr(M), which moves log2 lo by that over lo ln 2: the floor
            # under any agreement near a singular M
            sure = evals[:, 0] >= EIG_ZERO_TOL
            size = np.max(np.linalg.norm(basis[1:], axis=(1, 2)))
            floor = 8 * eps * size / (evals[sure, 0] * np.log(2.0))
            err = np.abs(grad[sure] - ref[sure])
            assert np.all(err <= 1e-9 * np.abs(ref[sure]) + floor[:, None]), (lo, hi)


def test_bloch_grid_point_alone_in_its_batch_rounds_as_in_its_slice(monkeypatch):
    # bounds that keep only the boxes holding one point on the ball's
    # surface: its finest box holds no other ball point, but its x-slice
    # holds many, which a scan by x-slices evaluates together
    axis = np.arange(-1.0, 1.0 + 0.05 / 2, 0.05)
    target = axis[[5, 11, 11]]

    def only_target(bases, lo3, hi3, mid3):
        hit = np.all((lo3 <= target) & (target <= hi3), axis=1)
        return np.where(hit, np.inf, -np.inf), np.zeros(len(lo3), dtype=bool), np.zeros(len(lo3))

    monkeypatch.setattr(capacity, "_box_bounds", only_target)
    ch = random_channel(2, 2, 3, generator(64))
    value, r = bloch_grid_ce(ch, 0.05)
    assert r == tuple(target)
    sq = axis**2
    iy, iz = np.nonzero(sq[5] + sq[:, None] + sq <= 1.0 + 1e-12)
    row = _objective(_grid_bases(ch), np.full(len(iy), axis[5]), axis[iy], axis[iz])
    assert value == row[(iy == 11) & (iz == 11)][0]


def test_damping_ratio_behavior():
    vals = []
    for p in (0.9, 0.99):
        ce, _ = ad_ce(p)
        ch, _ = ad_ch(p)
        vals.append(ce / ch)
    assert vals[1] > vals[0]
    assert all(2.0 < v < 4.0 for v in vals)


def _ad_kraus_ce(ch, x):
    # the capacity objective on diag(1-x, x), through the Kraus maps
    return quantum_mutual_information(ch, np.diag([1.0 - x, x]))


def _ad_kraus_chi(ch, x):
    # chi of the two equiprobable pure signals, through the Kraus maps
    s = np.sqrt(x * (1.0 - x))
    outs = tuple(apply_channel(ch, np.array([[1.0 - x, c], [c, x]])) for c in (s, -s))
    return holevo_chi(Ensemble(probs=(0.5, 0.5), states=outs))


def test_damping_closed_forms_match_kraus_route():
    # the closed forms against the Kraus maps, at the returned maximizer and
    # over a dense grid that the returned value must dominate
    grid = np.linspace(0.0, 1.0, 1001)
    for p in (0.0, 0.1, 0.3, 0.5, 0.9, 0.999, 1.0):
        channel = amplitude_damping(p)
        ce, x_ce = ad_ce(p)
        chi, x_chi = ad_ch(p)
        assert _ad_kraus_ce(channel, x_ce) == pytest.approx(ce, abs=1e-12), p
        assert _ad_kraus_chi(channel, x_chi) == pytest.approx(chi, abs=1e-12), p
        assert max(_ad_kraus_ce(channel, x) for x in grid) <= ce + 1e-12, p
        assert max(_ad_kraus_chi(channel, x) for x in grid) <= chi + 1e-12, p


def test_damping_families_reject_bad_p():
    for p in (-0.1, 1.5, float("nan")):
        for family in (ad_ce, ad_ch):
            with pytest.raises(ValueError, match=r"damping probability must lie in \[0, 1\]"):
                family(p)
        with pytest.raises(ValueError, match=r"damping probability must lie in \[0, 1\]"):
            ad_asymptotics(p, 0.5)
    for x in (-0.1, 2.0, float("nan")):
        with pytest.raises(ValueError, match=r"input weight x must lie in \[0, 1\]"):
            ad_asymptotics(0.5, x)
    assert ad_asymptotics(1.0, 0.5) == (0.0, 0.0)


def test_asymptotic_leading_ratio_is_four():
    # objective maximizer pushes x -> 1, one-shot family keeps x = 1/2
    for p in (0.99, 0.9999):
        ce_lead, _ = ad_asymptotics(p, 1.0)
        _, ch_lead = ad_asymptotics(p, 0.5)
        assert ce_lead / ch_lead == pytest.approx(4.0, abs=1e-12)


def test_pgm_error_and_bound():
    rng = generator(34)
    d = 8
    for _ in range(5):
        raw = rng.normal(size=(d, 3)) + 1j * rng.normal(size=(d, 3))
        vecs = [c / np.linalg.norm(c) for c in raw.T]
        exact, bound = pgm_error(vecs, np.eye(d))
        assert np.all(exact <= bound + 1e-12)
        assert np.all(exact >= -1e-12)
        assert np.any(exact > 1e-4)  # overlapping codewords do err
    # orthonormal codewords decode perfectly
    basis = [np.eye(d)[:, i] for i in range(3)]
    exact, bound = pgm_error(basis, np.eye(d))
    assert np.allclose(exact, 0.0, atol=1e-12)


def test_pgm_matches_per_pair_reference():
    # more codewords than the decoding subspace's rank d - 1, so the
    # decoder errs; the reference works pair by pair with an explicit
    # phi^{-1/2} on the support of phi
    rng = generator(35)
    for d, m in ((3, 4), (4, 7), (6, 9)):
        raw = rng.normal(size=(m, d)) + 1j * rng.normal(size=(m, d))
        vecs = [t / np.linalg.norm(t) for t in raw]
        q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        proj = q[:, :d - 1] @ q[:, :d - 1].conj().T
        smat = np.array([[t.conj() @ proj @ u for u in vecs] for t in vecs])
        bound = [2.0 * (1.0 - smat[i, i].real)
                 + sum(abs(smat[i, j]) ** 2 for j in range(m) if j != i) for i in range(m)]
        projected = [proj @ t for t in vecs]
        phi = sum(np.outer(v, v.conj()) for v in projected)
        evals, basis = np.linalg.eigh(phi)
        inv_sqrt = sum(np.outer(basis[:, k], basis[:, k].conj()) / np.sqrt(lam)
                       for k, lam in enumerate(evals) if lam > 1e-12)
        exact = [1.0 - (v.conj() @ inv_sqrt @ v).real ** 2 for v in projected]
        got_exact, got_bound = pgm_error(vecs, proj)
        np.testing.assert_allclose(got_exact, exact, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(got_bound, bound, rtol=0.0, atol=1e-12)
        assert np.all(got_exact > 1e-4) and np.all(got_exact <= got_bound + 1e-12)


def test_pgm_rejects_degenerate_projector():
    with pytest.raises(ValueError):
        pgm_error([np.array([1.0, 0.0])], np.zeros((2, 2)))
    with pytest.raises(ValueError, match="no codewords"):
        pgm_error([], np.eye(2))
    with pytest.raises(ValueError, match="idempotent"):
        pgm_error([np.array([1.0, 0.0])], np.array([[1.0, 0.5], [0.5, 1.0]]))
    with pytest.raises(ValueError, match="Hermitian"):  # not a failed eigensolve
        pgm_error([np.array([1.0, 0.0])], np.diag([1.0, np.nan]))


def test_ce_result_json():
    res = ce_maximize(noiseless(2))
    d = res.to_json()
    assert d["value"] == pytest.approx(2.0, abs=1e-9)
    assert "rho" in d and "gap_bound" in d
