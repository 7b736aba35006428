import numpy as np
import pytest

from qcap.capacity import (
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
from qcap.qmath import DensityOperator, quantum_mutual_information
from qcap.rand import generator, random_channel, random_density
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
