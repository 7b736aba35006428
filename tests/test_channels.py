import json

import numpy as np
import pytest

from qcap.channels import (
    ChannelSpec,
    Ensemble,
    amplitude_damping,
    classical_embedding,
    dephasing,
    depolarizing,
    erasure,
    generalized_pauli,
    maximally_entangled,
    noiseless,
    superdense_ensemble,
    switched_3to2,
)
from qcap.qmath import DensityOperator, DimensionMismatchError, apply_channel
from qcap.rand import generator, random_channel


def test_generalized_pauli_unitary():
    for d in (2, 3):
        for j in range(d):
            for k in range(d):
                u = generalized_pauli(d, j, k)
                assert np.allclose(u @ u.conj().T, np.eye(d), atol=1e-12)
    with pytest.raises(ValueError, match="dimension"):
        generalized_pauli(0, 0, 0)


def test_depolarizing_action():
    ch = depolarizing(2, 0.4)
    out = apply_channel(ch, DensityOperator(np.diag([1.0, 0.0])))
    assert np.allclose(out.mat, np.diag([0.8, 0.2]), atol=1e-12)
    # q=1 sends everything to the maximally mixed state
    out = apply_channel(depolarizing(3, 1.0), DensityOperator(np.diag([1.0, 0, 0])))
    assert np.allclose(out.mat, np.eye(3) / 3, atol=1e-12)


def test_erasure_action():
    ch = erasure(2, 0.3)
    assert ch.d_out == 3
    rho = DensityOperator(np.diag([0.5, 0.5]))
    out = apply_channel(ch, rho).mat
    assert out[2, 2].real == pytest.approx(0.3, abs=1e-12)
    assert np.allclose(out[:2, :2], 0.7 * rho.mat, atol=1e-12)


def test_dephasing_kills_coherences():
    plus = DensityOperator(np.full((2, 2), 0.5))
    out = apply_channel(dephasing(2), plus).mat
    assert np.allclose(out, np.diag([0.5, 0.5]), atol=1e-12)


def test_amplitude_damping_action():
    out = apply_channel(amplitude_damping(0.25), DensityOperator(np.diag([0.0, 1.0])))
    assert np.allclose(out.mat, np.diag([0.25, 0.75]), atol=1e-12)
    # p=1 pumps everything to the ground state
    out = apply_channel(amplitude_damping(1.0), DensityOperator(np.eye(2) / 2))
    assert np.allclose(out.mat, np.diag([1.0, 0.0]), atol=1e-12)


def test_switched_channel_shape():
    ch = switched_3to2()
    assert ch.d_in == 8
    assert ch.d_out == 4
    out = apply_channel(ch, DensityOperator(np.eye(8) / 8))
    assert np.trace(out.mat).real == pytest.approx(1.0, abs=1e-12)


def test_classical_embedding_diagonal_action():
    mat = [[0.7, 0.3], [0.0, 1.0]]
    ch = classical_embedding(mat)
    out = apply_channel(ch, DensityOperator(np.diag([1.0, 0.0])))
    assert np.allclose(out.mat, np.diag([0.7, 0.3]), atol=1e-12)
    # coherences die: inputs behave classically
    plus = DensityOperator(np.full((2, 2), 0.5))
    out = apply_channel(ch, plus).mat
    assert abs(out[0, 1]) < 1e-12


def test_maximally_entangled_marginal():
    psi = maximally_entangled(3)
    # trace out the second factor of |psi><psi|
    red = np.einsum("ajbj->ab", np.outer(psi.vec, psi.vec.conj()).reshape(3, 3, 3, 3))
    assert np.allclose(red, np.eye(3) / 3, atol=1e-12)


def test_ensemble_validation():
    rho = DensityOperator(np.eye(2) / 2)
    with pytest.raises(ValueError):
        Ensemble(probs=(0.5, 0.6), states=(rho, rho))
    with pytest.raises(ValueError):
        Ensemble(probs=(1.0,), states=(rho, rho))
    for probs in ((float("nan"), 1.0), (0.5, float("nan"))):
        with pytest.raises(ValueError):
            Ensemble(probs=probs, states=(rho, rho))
    with pytest.raises(DimensionMismatchError):
        Ensemble(probs=(0.5, 0.5), states=(rho, DensityOperator(np.eye(3) / 3)))


def test_superdense_ensemble_structure():
    rng = generator(21)
    ch = random_channel(2, 2, 2, rng)
    ens = superdense_ensemble(ch)
    assert len(ens.states) == 4
    assert all(p == pytest.approx(0.25) for p in ens.probs)
    # signal average = channel output of I/d tensored with I/d
    from qcap.qmath import apply_channel as apply

    avg = ens.average()
    expect = np.kron(apply(ch, DensityOperator(np.eye(2) / 2)).mat, np.eye(2) / 2)
    assert np.allclose(avg, expect, atol=1e-10)


def test_channel_spec_round_trip():
    spec = ChannelSpec(kind="depolarizing", params={"d": 2, "q": 0.5})
    again = ChannelSpec.from_json(json.loads(json.dumps(spec.to_json())))
    ch = again.resolve()
    assert ch.d_in == 2
    with pytest.raises(ValueError):
        ChannelSpec(kind="nonsense").resolve()
    with pytest.raises(ValueError):
        ChannelSpec(kind="explicit_kraus").resolve()
    for data in ([{"kind": "noiseless"}], "noiseless", None, {"params": {"d": 2}}):
        with pytest.raises(ValueError, match="object with a 'kind'"):
            ChannelSpec.from_json(data)


def test_channel_spec_explicit_kraus():
    from qcap.qmath import matrix_to_json

    ch0 = amplitude_damping(0.3)
    spec = ChannelSpec(kind="explicit_kraus",
                       kraus=[matrix_to_json(k) for k in ch0.kraus])
    again = ChannelSpec.from_json(json.loads(json.dumps(spec.to_json())))
    assert again == spec
    rho = DensityOperator(np.diag([0.2, 0.8]))
    for ch in (spec.resolve(), again.resolve()):
        assert np.allclose(apply_channel(ch, rho).mat,
                           apply_channel(ch0, rho).mat, atol=1e-12)


def test_parameter_range_errors():
    with pytest.raises(ValueError):
        depolarizing(2, -0.1)
    with pytest.raises(ValueError):
        erasure(2, 1.5)
    with pytest.raises(ValueError):
        amplitude_damping(2.0)
    for bad in (float("nan"), 4.0 / 3.0 + 1e-9):
        with pytest.raises(ValueError):
            depolarizing(2, bad)
    with pytest.raises(ValueError):
        classical_embedding([[float("nan"), 1.0], [0.5, 0.5]])
    with pytest.raises(ValueError, match="2-D"):
        classical_embedding([0.5, 0.5])


def test_dimension_must_be_whole_and_positive():
    # d = 0 divided by zero in depolarizing; ChannelSpec truncated 2.7 to 2
    # and read true as 1
    for bad in (0, -1, 2.7, True, float("nan"), float("inf")):
        for build in (noiseless, dephasing, lambda d: erasure(d, 0.3),
                      lambda d: depolarizing(d, 0.5)):
            with pytest.raises(ValueError):
                build(bad)
        for kind, params in (("noiseless", {}), ("dephasing", {}),
                             ("erasure", {"p": 0.3}), ("depolarizing", {"q": 0.5})):
            with pytest.raises(ValueError):
                ChannelSpec(kind, {"d": bad, **params}).resolve()
    # a whole float and a decimal string still give the integer dimension
    for d in (3, 3.0, "3", np.int64(3)):
        assert ChannelSpec("depolarizing", {"d": d, "q": 0.5}).resolve().d_in == 3
        assert noiseless(d).d_in == 3


def test_depolarizing_at_dimension_one_is_identity():
    # q (d^2 - 1) <= d^2 holds for every q >= 0 at d = 1: one identity Kraus
    for q in (0.0, 0.5, 3.0):
        ch = depolarizing(1, q)
        assert ch.kraus.shape == (1, 1, 1)
        assert ch.kraus[0, 0, 0] == pytest.approx(1.0, abs=1e-15)
    assert len(depolarizing(2, 4.0 / 3.0).kraus) == 4
