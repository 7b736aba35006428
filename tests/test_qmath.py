import json
import math

import numpy as np
import pytest

from qcap.qmath import (
    DensityOperator,
    DimensionMismatchError,
    InvalidChannelError,
    InvalidStateError,
    PureState,
    QuantumChannel,
    apply_channel,
    complementary_apply,
    entropy_exchange,
    entropy_exchange_via_purification,
    entropy_of_spectrum,
    hermitian_spectra,
    matrix_from_json,
    matrix_to_json,
    purify,
    quantum_mutual_information,
    tensor_channels,
    von_neumann_entropy,
    _outputs,
    _pullback,
)
from qcap.channels import amplitude_damping, depolarizing, noiseless
from qcap.rand import generator, random_channel, random_density, random_pure, random_unitary


def test_density_operator_validation():
    with pytest.raises(InvalidStateError):
        DensityOperator(np.array([[0.5, 0.1], [0.2, 0.5]]))  # not Hermitian
    with pytest.raises(InvalidStateError):
        DensityOperator(np.diag([0.6, 0.6]))  # trace 1.2
    with pytest.raises(InvalidStateError):
        DensityOperator(np.diag([1.5, -0.5]))  # negative eigenvalue
    # NaN fails every tolerance check instead of slipping past it
    for mat in (np.diag([np.nan, 1.0]), np.array([[0.5, np.nan], [np.nan, 0.5]])):
        with pytest.raises(InvalidStateError):
            DensityOperator(mat)
    with pytest.raises(InvalidStateError):
        PureState([np.nan, 1.0])
    with pytest.raises(DimensionMismatchError, match="multiply"):
        PureState([1.0, 0.0, 0.0], dims=(2, 2))
    with pytest.raises(DimensionMismatchError, match="square"):
        DensityOperator(np.zeros((2, 3)))


def test_entropy_values():
    assert von_neumann_entropy(DensityOperator(np.eye(2) / 2)) == pytest.approx(1.0, abs=1e-12)
    assert von_neumann_entropy(DensityOperator(np.diag([1.0, 0.0]))) == pytest.approx(0.0, abs=1e-12)
    rho = DensityOperator(np.diag([0.5, 0.25, 0.25]))
    assert von_neumann_entropy(rho) == pytest.approx(1.5, abs=1e-12)
    # basis invariance
    rng = generator(3)
    u = random_unitary(3, rng)
    rot = DensityOperator(u @ np.diag([0.5, 0.25, 0.25]) @ u.conj().T)
    assert von_neumann_entropy(rot) == pytest.approx(1.5, abs=1e-10)
    # a bare matrix is checked too: an eigenvalue past -1e-12 is refused
    with pytest.raises(InvalidStateError, match="negative eigenvalue"):
        von_neumann_entropy(np.diag([1 + 1e-6, -1e-6]))


def test_entropy_of_spectrum_stack_matches_rows():
    # a stack gives each row's 1-D entropy: to the bit where every term
    # lam log2 lam is exact, and otherwise to rounding, since np.dot may
    # fuse each multiply-add that the row sum rounds twice
    dyadic = np.array([[0.5, 0.25, 0.125, 0.125], [1.0, 0.0, 0.0, 0.0],
                       [0.25, 0.25, 0.5, 0.0], [0.5, 0.5, 1e-13, 0.0]])
    assert (list(entropy_of_spectrum(dyadic)) == [entropy_of_spectrum(r) for r in dyadic]
            == [1.75, 0.0, 1.5, 1.0])
    rng = generator(21)
    for d in range(1, 6):
        lams = rng.dirichlet(np.ones(d), size=40)
        lams[::4, 0] = 0.0  # exact zeros and values below the 1e-12 cut
        lams[1::4, -1] = 1e-13
        stacked = entropy_of_spectrum(lams)
        assert stacked.shape == (40,)
        rows = [entropy_of_spectrum(row) for row in lams]
        assert np.allclose(stacked, rows, rtol=1e-15, atol=0.0)


def test_entropy_of_spectrum_empty_is_positive_zero():
    for spec in ([], [1e-13, 0.0], [5e-13, -1e-14]):
        h = entropy_of_spectrum(spec)
        assert h == 0.0 and math.copysign(1.0, h) == 1.0, spec


def test_entropy_of_pure_spectrum_is_positive_zero():
    # the negated sum gave -0.0 for a pure spectrum
    for h in (entropy_of_spectrum([1.0]), entropy_of_spectrum([0.0, 1.0]),
              *entropy_of_spectrum(np.array([[1.0, 0.0], [0.0, 1.0]]))):
        assert h == 0.0 and math.copysign(1.0, h) == 1.0


def _spectral_batches(rng, n=400):
    # 2x2 stacks, the one size with a closed form; larger ones are eigvalsh
    def ranked(rank):
        g = rng.standard_normal((n, 2, rank)) + 1j * rng.standard_normal((n, 2, rank))
        m = g @ g.conj().transpose(0, 2, 1)
        return m / np.trace(m, axis1=1, axis2=2).real[:, None, None]

    x = rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))
    x = x + x.conj().transpose(0, 2, 1)
    return {
        "full": ranked(2),
        "rank 1": ranked(1),
        "near scalar": np.eye(2) / 2 + 1e-9 * x,
        "spread 1e-120": np.eye(2) / 2 + 1e-120 * x,
        "scalar": np.broadcast_to(np.eye(2) / 2, (n, 2, 2)).astype(complex),
        "rank 1 + I/2": ranked(1) + 0.5 * np.eye(2),
        "diag(1, 0)": np.broadcast_to(np.diag([1.0, 0.0]), (n, 2, 2)).astype(complex),
    }


def test_hermitian_spectra_match_eigvalsh():
    rng = generator(57)
    for name, mats in _spectral_batches(rng).items():
        ref = np.linalg.eigvalsh(mats)
        got = hermitian_spectra(mats)
        assert np.all(np.isfinite(got)), name
        h_ref = entropy_of_spectrum(np.clip(ref, 0.0, None))
        h_got = entropy_of_spectrum(np.clip(got, 0.0, None))
        assert np.max(np.abs(h_got - h_ref)) <= 1e-12, name
        # close eigenvalues too: "near scalar" spreads them by about 1e-9
        assert np.max(np.abs(got - ref)) <= 2e-15, name


def test_channel_validation():
    with pytest.raises(InvalidChannelError):
        QuantumChannel([np.array([[1.0, 0.0], [0.0, 0.9]])])  # not trace preserving
    with pytest.raises(InvalidChannelError):
        QuantumChannel([])
    with pytest.raises(InvalidChannelError):
        QuantumChannel([np.array([[1.0, 0.0], [0.0, np.nan]])])
    with pytest.raises(InvalidChannelError, match="one 2-D shape"):
        QuantumChannel([np.eye(2), np.zeros((3, 2))])
    with pytest.raises(ValueError, match="isometry"):
        random_channel(3, 1, 2, generator(0))


def test_apply_channel_preserves_state():
    rng = generator(11)
    for d_in, d_out, env in [(2, 2, 2), (2, 3, 2), (3, 2, 4)]:
        ch = random_channel(d_in, d_out, env, rng)
        rho = random_density(d_in, rng)
        out = apply_channel(ch, rho)
        assert out.mat.shape == (d_out, d_out)
        assert np.trace(out.mat).real == pytest.approx(1.0, abs=1e-10)


def test_complementary_dimensions_and_pure_input_entropy_match():
    # for pure inputs the output and environment have equal spectra
    rng = generator(12)
    for _ in range(10):
        ch = random_channel(2, 3, 3, rng)
        psi = random_pure(2, rng)
        h_out = von_neumann_entropy(apply_channel(ch, psi))
        h_env = von_neumann_entropy(complementary_apply(ch, psi))
        assert h_out == pytest.approx(h_env, abs=1e-9)


def test_outputs_and_pullback_against_kraus_sums():
    # N(rho) = sum_k A_k rho A_k^dag, E(rho)_kl = tr(A_k rho A_l^dag), and the
    # pullback is their joint adjoint: tr(y E(rho)) - tr(x N(rho)) = tr(P rho)
    rng = generator(21)
    for d_in, d_out, env in [(2, 3, 4), (3, 2, 2), (4, 2, 3), (2, 2, 1)]:
        ch = random_channel(d_in, d_out, env, rng)
        ks = list(ch.kraus)
        rho = random_density(d_in, rng).mat
        out, e_out = _outputs(ch, rho)
        assert np.allclose(out, sum(a @ rho @ a.conj().T for a in ks), atol=1e-14)
        expect = [[np.trace(a @ rho @ b.conj().T) for b in ks] for a in ks]
        assert np.allclose(e_out, expect, atol=1e-14)
        x = random_density(d_out, rng).mat - 0.3 * np.eye(d_out)
        y = random_density(env, rng).mat - 0.2 * np.eye(env)
        pull = _pullback(ch, x, y)
        assert np.allclose(pull, pull.conj().T, atol=1e-14)
        lhs = np.trace(y @ e_out) - np.trace(x @ out)
        assert np.trace(pull @ rho) == pytest.approx(lhs, abs=1e-13)
    with pytest.raises(DimensionMismatchError):
        _outputs(ch, np.eye(3) / 3)


def test_entropy_exchange_routes_agree():
    rng = generator(13)
    for d in (2, 3, 4):
        for _ in range(5):
            ch = random_channel(d, d, 2, rng)
            rho = random_density(d, rng)
            a = entropy_exchange(ch, rho)
            b = entropy_exchange_via_purification(ch, rho)
            assert a == pytest.approx(b, abs=1e-8)


def test_purification_round_trip():
    rng = generator(15)
    generic = random_density(3, rng)
    u = random_unitary(3, rng)
    # and a degenerate rank-deficient state
    for rho in (generic, DensityOperator(u @ np.diag([0.5, 0.5, 0.0]) @ u.conj().T)):
        psi = purify(rho)
        # trace out the reference factor: back_ab = sum_j psi_aj conj(psi_bj)
        joint = np.outer(psi.vec, psi.vec.conj()).reshape(psi.dims + psi.dims)
        back = np.einsum("ajbj->ab", joint)
        assert np.allclose(back, rho.mat, atol=1e-10)
        ch = random_channel(3, 3, 2, rng)
        assert entropy_exchange_via_purification(ch, rho) == pytest.approx(
            entropy_exchange(ch, rho), abs=1e-10)


def test_qmi_additivity_on_products():
    rng = generator(16)
    ch1 = random_channel(2, 2, 2, rng)
    ch2 = random_channel(2, 2, 2, rng)
    rho1 = random_density(2, rng)
    rho2 = random_density(2, rng)
    lhs = quantum_mutual_information(tensor_channels(ch1, ch2),
                                     DensityOperator(np.kron(rho1.mat, rho2.mat)))
    rhs = (quantum_mutual_information(ch1, rho1)
           + quantum_mutual_information(ch2, rho2))
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_qmi_known_channels():
    d2 = DensityOperator(np.eye(2) / 2)
    assert quantum_mutual_information(noiseless(2), d2) == pytest.approx(2.0, abs=1e-10)
    # fully depolarizing: output carries nothing
    assert quantum_mutual_information(depolarizing(2, 1.0), d2) == pytest.approx(0.0, abs=1e-9)


def test_matrix_serialization_round_trip():
    rng = generator(19)
    m = random_density(3, rng).mat
    again = matrix_from_json(json.loads(json.dumps(matrix_to_json(m))))
    assert np.allclose(m, again, atol=0)
    for bad in ([[1, 2]], []):  # real cells; no rows
        with pytest.raises(ValueError, match="malformed complex-matrix JSON"):
            matrix_from_json(bad)


def test_entropy_exchange_equals_env_entropy():
    rng = generator(20)
    ch = random_channel(3, 2, 3, rng)
    rho = random_density(3, rng)
    assert entropy_exchange(ch, rho) == pytest.approx(
        von_neumann_entropy(complementary_apply(ch, rho)), abs=1e-10)


def test_dimension_mismatch():
    ch = amplitude_damping(0.5)
    with pytest.raises(DimensionMismatchError):
        apply_channel(ch, DensityOperator(np.eye(3) / 3))
