"""Constructors for the channel families used throughout the package."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .qmath import (
    DimensionMismatchError,
    PureState,
    QuantumChannel,
    _check_count,
    _check_distribution,
    _check_probability,
    apply_channel,
    extend_channel,
    matrix_from_json,
)


def generalized_pauli(d: int, j: int, k: int) -> np.ndarray:
    """Unitary U_{j,k} = T^j R^k on dimension d.

    T is the cyclic shift with T[a, b] = 1 iff a = b-1 mod d and R is the
    diagonal phase R[a, a] = exp(2 pi i a / d). The d^2 operators (j, k)
    are orthogonal: tr(U_{j,k} U_{j',k'}^dag) = d delta.
    """
    if d < 1:
        raise ValueError("dimension must be positive")
    shift = np.zeros((d, d), dtype=np.complex128)
    for b in range(d):
        shift[(b - 1) % d, b] = 1.0
    phases = np.exp(2j * np.pi * np.arange(d) / d)
    mat = np.diag(phases ** (k % d))
    return np.linalg.matrix_power(shift, j % d) @ mat


def _dimension(d) -> int:
    """d as an int: a whole number >= 1 such as 3 or 3.0, or a decimal string; not a bool."""
    value = int(d) if isinstance(d, str) else d
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    _check_count(value, "dimension")
    return int(value)


def noiseless(d: int) -> QuantumChannel:
    return QuantumChannel([np.eye(_dimension(d), dtype=np.complex128)])


def depolarizing(d: int, q: float) -> QuantumChannel:
    """Channel rho -> (1-q) rho + q I/d via mixed generalized Paulis.

    Kraus weights: sqrt(1 - q + q/d^2) on the identity and sqrt(q/d^2) on
    each of the d^2 - 1 nontrivial U_{j,k}. Valid for q >= 0 with
    q (d^2 - 1) <= d^2: every such q at d = 1, where the map is the identity.
    """
    d = _dimension(d)
    if not (0.0 <= q and q * (d * d - 1) <= d * d):  # NaN fails this too
        raise ValueError(f"depolarizing weight {q} out of range for d={d}")
    ops = [np.sqrt(1.0 - q + q / d**2) * np.eye(d, dtype=np.complex128)]
    w = np.sqrt(q) / d
    for j in range(d):
        for k in range(d):
            if j == 0 and k == 0:
                continue
            ops.append(w * generalized_pauli(d, j, k))
    return QuantumChannel(ops)


def erasure(d: int, p: float) -> QuantumChannel:
    """With probability p the input is replaced by an orthogonal flag state.

    Output dimension is d+1; the flag is the added basis vector |d>.
    """
    d = _dimension(d)
    _check_probability(p, "erasure probability")
    embed = np.zeros((d + 1, d), dtype=np.complex128)
    embed[:d, :] = np.eye(d)
    ops = [np.sqrt(1.0 - p) * embed]
    for i in range(d):
        op = np.zeros((d + 1, d), dtype=np.complex128)
        op[d, i] = np.sqrt(p)
        ops.append(op)
    return QuantumChannel(ops)


def dephasing(d: int) -> QuantumChannel:
    """Kills all off-diagonal matrix elements in the computational basis."""
    return classical_embedding(np.eye(_dimension(d)))


def amplitude_damping(p: float) -> QuantumChannel:
    """Qubit decay channel with excited-state survival amplitude sqrt(1-p)."""
    _check_probability(p, "damping probability")
    a1 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - p)]], dtype=np.complex128)
    a2 = np.array([[0.0, np.sqrt(p)], [0.0, 0.0]], dtype=np.complex128)
    return QuantumChannel([a1, a2])


def switched_3to2() -> QuantumChannel:
    """Three-qubit to two-qubit switched channel.

    The first input qubit is measured in the computational basis. On result
    |0> the remaining two qubits are dephased and transmitted as classical
    bits. On result |1> the second input qubit is transmitted intact into the
    first output slot and the second output slot carries the maximally mixed
    qubit; the third input qubit is discarded.
    """
    ops = []
    # |0> branch: dephase-transmit qubits 2 and 3
    for a in range(2):
        for b in range(2):
            op = np.zeros((4, 8), dtype=np.complex128)
            op[2 * a + b, 0 * 4 + 2 * a + b] = 1.0
            ops.append(op)
    # |1> branch: keep qubit 2, trace qubit 3, fresh mixed qubit in slot 2
    for c in range(2):
        for e in range(2):
            op = np.zeros((4, 8), dtype=np.complex128)
            for m in range(2):
                op[2 * m + c, 4 + 2 * m + e] = 1.0 / np.sqrt(2.0)
            ops.append(op)
    return QuantumChannel(ops)


def classical_embedding(matrix) -> QuantumChannel:
    """Embed a row-stochastic matrix P(y|x) as a quantum channel.

    The matrix is indexed [x][y]. Kraus set {sqrt(P(y|x)) |y><x|} over the
    nonzero entries; the channel dephases inputs and applies the classical
    transition law on the diagonal.
    """
    mat = _check_distribution(matrix, "transition matrix")
    if mat.ndim != 2:
        raise ValueError("transition matrix must be 2-D")
    d_in, d_out = mat.shape
    ops = []
    for x in range(d_in):
        for y in range(d_out):
            if mat[x, y] <= 0.0:
                continue
            op = np.zeros((d_out, d_in), dtype=np.complex128)
            op[y, x] = np.sqrt(mat[x, y])
            ops.append(op)
    return QuantumChannel(ops)


def maximally_entangled(d: int) -> PureState:
    vec = np.zeros(d * d, dtype=np.complex128)
    for i in range(d):
        vec[i * d + i] = 1.0
    return PureState(vec / np.sqrt(d), dims=(d, d))


@dataclass(frozen=True)
class Ensemble:
    """Finite ensemble of states with probabilities summing to 1."""

    probs: tuple
    states: tuple

    def __post_init__(self):
        probs = _check_distribution(self.probs, "probs", len(self.states))
        dims = {s.dim for s in self.states}
        if len(dims) != 1:
            raise DimensionMismatchError("ensemble states must share a dimension")
        object.__setattr__(self, "probs", tuple(float(p) for p in probs))
        object.__setattr__(self, "states", tuple(self.states))

    def average(self) -> np.ndarray:
        acc = np.zeros_like(self.states[0].mat)
        for p, s in zip(self.probs, self.states):
            acc = acc + p * s.mat
        return acc


def superdense_ensemble(channel: QuantumChannel) -> Ensemble:
    """Signal states of dense coding through the channel.

    Alice applies each of the d^2 generalized Paulis to her half of a
    maximally entangled pair and sends it through the channel: the ensemble
    holds the d^2 states (N x I)((U_{j,k} x I) phi (U_{j,k} x I)^dag), each
    with probability 1/d^2. Its Holevo quantity equals the quantum mutual
    information of the channel at the maximally mixed input.
    """
    d = channel.d_in
    phi = maximally_entangled(d)
    base = np.outer(phi.vec, phi.vec.conj())
    big = extend_channel(channel, d)
    states = []
    eye = np.eye(d, dtype=np.complex128)
    for j in range(d):
        for k in range(d):
            u = np.kron(generalized_pauli(d, j, k), eye)
            states.append(apply_channel(big, u @ base @ u.conj().T))
    return Ensemble(probs=(1.0 / d**2,) * (d * d), states=tuple(states))


@dataclass
class ChannelSpec:
    """Declarative channel description with a JSON wire form.

    kind: one of noiseless, depolarizing, erasure, dephasing,
    amplitude_damping, switched_3to2, classical_embedding, explicit_kraus.
    params: the keyword arguments of the kind's constructor in this module,
    such as {"d": 2, "q": 0.5} for depolarizing(d, q). A name the
    constructor does not take, a missing one, or a value it cannot read
    (the string "0.5" for q) is a ValueError. kraus: only for
    explicit_kraus, which takes no params.
    """

    kind: str
    params: dict = field(default_factory=dict)
    kraus: list | None = None

    _BUILDERS = {
        "noiseless": noiseless,
        "depolarizing": depolarizing,
        "erasure": erasure,
        "dephasing": dephasing,
        "amplitude_damping": amplitude_damping,
        "switched_3to2": switched_3to2,
        "classical_embedding": classical_embedding,
    }

    def resolve(self) -> QuantumChannel:
        if self.kind == "explicit_kraus":
            if not self.kraus or self.params:
                raise ValueError("explicit_kraus takes a kraus list and no params")
            return QuantumChannel([matrix_from_json(m) for m in self.kraus])
        try:
            builder = self._BUILDERS[self.kind]
        except KeyError:
            raise ValueError(f"unknown channel kind {self.kind!r}") from None
        try:
            return builder(**self.params)
        except TypeError as exc:  # an unknown or missing name, or a string for a float
            raise ValueError(f"bad params for channel kind {self.kind!r}: {exc}") from exc

    def to_json(self) -> dict:
        out = {"kind": self.kind, "params": dict(self.params)}
        if self.kraus is not None:
            out["kraus"] = self.kraus
        return out

    @classmethod
    def from_json(cls, data: dict) -> "ChannelSpec":
        if not isinstance(data, dict) or "kind" not in data:
            raise ValueError("channel spec JSON must be an object with a 'kind'")
        return cls(kind=data["kind"], params=dict(data.get("params", {})),
                   kraus=data.get("kraus"))
