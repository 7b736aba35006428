import numpy as np
import pytest
import scipy.optimize

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
    _project,
)
from qcap.channels import (
    amplitude_damping,
    classical_embedding,
    depolarizing,
    dephasing,
    erasure,
    noiseless,
    superdense_ensemble,
    switched_3to2,
)
from qcap.qmath import DensityOperator, QuantumChannel, quantum_mutual_information
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
    # five mirror-ascent steps leave a gap near 1e-3 on this channel, far
    # above the default tolerance, so the iteration cap is hit
    with pytest.raises(ConvergenceError) as exc:
        ce_maximize(amplitude_damping(0.3), max_iters=5)
    best = exc.value.best
    assert best.value == pytest.approx(ad_ce(0.3)[0], abs=1e-6)
    assert best.gap_bound > 1e-12


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


def test_constrained_reduces_to_unconstrained_for_loose_budget():
    ch = amplitude_damping(0.3)
    cons = EnergyConstraint(np.diag([0.0, 1.0]), 10.0)
    free = ce_maximize(ch).value
    capped = ce_maximize_constrained(ch, cons).value
    assert capped == pytest.approx(free, abs=1e-9)


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
    # a step is one gradient: iterations + 1 of them, the last one unprojected
    ch = random_channel(4, 4, 2, generator(3))
    cons = EnergyConstraint(np.diag(np.arange(4.0)), 0.3)
    calls = _count_eigensolves(monkeypatch)
    res = ce_maximize_constrained(ch, cons)
    assert res.iterations >= 20
    assert calls[0] <= 7 * (res.iterations + 1)
    calls[0] = 0
    res = ce_maximize(ch)
    assert calls[0] == 4 * (res.iterations + 1)


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


# The two constrained channels of perfbench's solve workload, solved before
# the Newton projection replaced bisection. Rotating the outputs leaves the
# optimal input state the same for every seed.
_FROZEN_CONSTRAINED = {
    (3, 3): (0.9627318322833884, 8, _from_upper(
        [0.7535390475689783, 0.19292190486235256, 0.05353904756866994],
        [-0.0031362145754783083 + 0.0016664814078400996j,
         0.005832650046674069 - 0.012196296949815154j,
         -0.011703375407129193 + 0.032993162611807125j])),
    (4, 2): (1.4523449899004963, 65, _from_upper(
        [0.7718616483430426, 0.16420435207713163, 0.056006350816987856,
         0.007927648762837565],
        [-0.009197148077078785 - 0.001653388795163357j,
         -0.013117745261655564 - 0.019399335209024152j,
         -0.0014912334721292543 - 0.0017647580033033135j,
         -0.005341364228265031 - 0.006736929994754665j,
         -0.010876426683059858 + 0.019612073974474155j,
         0.0022092035712579245 - 0.0047404391304303965j])),
}


def test_constrained_benchmark_cases_unchanged():
    # the workload draws 14 unconstrained channels, then the two constrained
    # ones; pass 0 of seed s rotates the 14 first (inputs too), then the two
    rng = generator(0)
    free = [random_channel(d, d, env, rng)
            for d, env in [(2, 2), (3, 2), (3, 3), (4, 2), (4, 4), (5, 2), (5, 5)]
            for _ in range(2)]
    capped = {key: random_channel(key[0], key[0], key[1], rng) for key in _FROZEN_CONSTRAINED}
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


def test_damping_ratio_behavior():
    vals = []
    for p in (0.9, 0.99):
        ce, _ = ad_ce(p)
        ch, _ = ad_ch(p)
        vals.append(ce / ch)
    assert vals[1] > vals[0]
    assert all(2.0 < v < 4.0 for v in vals)


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


def test_pgm_rejects_degenerate_projector():
    with pytest.raises(ValueError):
        pgm_error([np.array([1.0, 0.0])], np.zeros((2, 2)))


def test_ce_result_json():
    res = ce_maximize(noiseless(2))
    d = res.to_json()
    assert d["value"] == pytest.approx(2.0, abs=1e-9)
    assert "rho" in d and "gap_bound" in d
