"""Finite-dimensional density operators, quantum channels, and entropy primitives.

All entropies are in bits (log base 2). Matrices are dense complex numpy
arrays; a channel is one stacked (c, d_out, d_in) array of Kraus operators,
whose rows form its isometry V. The output N(rho) and the c x c environment
output E(rho)_{kl} = tr(A_k rho A_l^dag), whose entropy is the channel's
entropy exchange on rho, are the two partial traces of V rho V^dag.
"""

from __future__ import annotations

import numpy as np

HERM_TOL = 1e-10
TRACE_TOL = 1e-9  # a state's trace and a law's sum: diag(law) is a state
PSD_TOL = 1e-10
KRAUS_TOL = 1e-9
EIG_ZERO_TOL = 1e-12


class InvalidStateError(ValueError):
    """Matrix fails a density-operator invariant beyond tolerance."""


class InvalidChannelError(ValueError):
    """Kraus list fails the completeness relation beyond tolerance."""


class DimensionMismatchError(ValueError):
    """Operands have incompatible dimensions."""


def _as_complex_matrix(mat) -> np.ndarray:
    arr = np.asarray(mat, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {arr.shape}")
    return arr


def _check_count(value, name: str) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be a whole number >= 1, got {value!r}")


def _check_probability(p, name: str) -> None:
    if not 0.0 <= p <= 1.0:  # NaN fails this too
        raise ValueError(f"{name} must lie in [0, 1], got {p!r}")


def _check_distribution(values, name: str, size: int | None = None) -> np.ndarray:
    """values as float64 laws, one per row (1-d or 2-d), or one law over size letters.

    The package's one rule: entries >= -1e-12 and each row summing to 1
    within TRACE_TOL (NaN fails both). Accepted entries are clipped to
    [0, 1], never renormalised.
    """
    arr = np.array(values, dtype=np.float64)
    if arr.ndim not in (1, 2 if size is None else 1) or size not in (None, arr.size) or not arr.size:
        shape = "a nonempty 1-d or 2-d array" if size is None else f"a law over {size} letters"
        raise ValueError(f"{name} must be {shape}, got shape {arr.shape}")
    rows = arr.reshape(-1, arr.shape[-1])
    off, least = np.abs(rows.sum(axis=1) - 1.0), rows.min(axis=1)
    ok = (off <= TRACE_TOL) & (least >= -1e-12)
    if not ok.all():  # name the worst row
        i = int(np.argmax(np.where(ok, -np.inf, np.nan_to_num(np.maximum(off, -least), nan=np.inf))))
        where = f"row {i} of {name}" if arr.ndim == 2 else name
        raise ValueError(f"{where} is not a probability distribution: its sum is off 1 by "
                         f"{float(off[i])!r} and its least entry is {float(least[i])!r}")
    return np.clip(arr, 0.0, 1.0)


def _check_hermitian(mat: np.ndarray, tol: float = HERM_TOL) -> None:
    dev = np.max(np.abs(mat - mat.conj().T)) if mat.size else 0.0
    if not dev <= tol:  # NaN fails this too
        raise InvalidStateError(f"matrix is not Hermitian (deviation {dev:.3e})")


class DensityOperator:
    """Validated density operator.

    Parameters
    ----------
    mat : array_like
        Square complex matrix. Must be Hermitian within 1e-10, unit trace
        within 1e-9, and positive semidefinite with eigenvalues >= -1e-10.

    Raises
    ------
    InvalidStateError
        If any invariant fails beyond tolerance.
    """

    __slots__ = ("mat",)

    def __init__(self, mat):
        arr = _as_complex_matrix(mat)
        _check_hermitian(arr)
        tr = arr.trace().real
        if not abs(arr.trace() - 1.0) <= TRACE_TOL:
            raise InvalidStateError(f"trace is {tr!r}, expected 1")
        evals = np.linalg.eigvalsh(arr)
        if not evals.min() >= -PSD_TOL:
            raise InvalidStateError(f"negative eigenvalue {evals.min():.3e}")
        arr = 0.5 * (arr + arr.conj().T)
        arr.flags.writeable = False
        self.mat = arr

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def __repr__(self) -> str:
        return f"DensityOperator(dim={self.dim})"


class PureState:
    """Unit vector on a tensor product of registers.

    `dims` records the tensor factors; their product must equal the vector
    length and the norm must be 1 within 1e-10.
    """

    __slots__ = ("vec", "dims")

    def __init__(self, vec, dims=None):
        arr = np.asarray(vec, dtype=np.complex128).reshape(-1)
        if dims is None:
            dims = (arr.size,)
        dims = tuple(int(d) for d in dims)
        if int(np.prod(dims)) != arr.size:
            raise DimensionMismatchError(f"dims {dims} do not multiply to {arr.size}")
        norm = np.linalg.norm(arr)
        if not abs(norm - 1.0) <= 1e-10:  # NaN fails this too
            raise InvalidStateError(f"norm is {norm!r}, expected 1")
        arr = arr.copy()
        arr.flags.writeable = False
        self.vec = arr
        self.dims = dims

    def __repr__(self) -> str:
        return f"PureState(dims={self.dims})"


class QuantumChannel:
    """Completely positive trace-preserving map given by Kraus operators.

    Parameters
    ----------
    kraus : sequence of array_like
        Operators of common shape (d_out, d_in). Completeness
        sum_k A_k^dag A_k = I must hold within 1e-9. They are kept as one
        read-only (c, d_out, d_in) array, which the maps below act on with
        batched matrix products.
    """

    __slots__ = ("kraus", "d_in", "d_out")

    def __init__(self, kraus):
        ops = [np.asarray(k, dtype=np.complex128) for k in kraus]
        if not ops:
            raise InvalidChannelError("empty Kraus list")
        shape = ops[0].shape
        if len(shape) != 2 or any(op.shape != shape for op in ops):
            raise InvalidChannelError("Kraus operators must share one 2-D shape")
        d_out, d_in = shape
        stack = np.stack(ops)
        rows = stack.reshape(-1, d_in)
        dev = np.max(np.abs(rows.conj().T @ rows - np.eye(d_in)))
        if not dev <= KRAUS_TOL:  # NaN fails this too
            raise InvalidChannelError(f"completeness violated by {dev:.3e}")
        stack.flags.writeable = False
        self.kraus = stack
        self.d_in = d_in
        self.d_out = d_out

    @property
    def env_dim(self) -> int:
        return len(self.kraus)

    def __repr__(self) -> str:
        return f"QuantumChannel(d_in={self.d_in}, d_out={self.d_out}, env={self.env_dim})"


def _state_matrix(rho) -> np.ndarray:
    if isinstance(rho, DensityOperator):
        return rho.mat
    if isinstance(rho, PureState):
        return np.outer(rho.vec, rho.vec.conj())
    return _as_complex_matrix(rho)


def von_neumann_entropy(rho) -> float:
    """Entropy -tr(rho log2 rho) in bits.

    Accepts a DensityOperator or a Hermitian PSD matrix. Eigenvalues below
    1e-12 contribute zero. Raises InvalidStateError for non-Hermitian or
    non-PSD input beyond tolerance.
    """
    mat = _state_matrix(rho)
    if not isinstance(rho, (DensityOperator, PureState)):
        _check_hermitian(mat)
    evals = np.linalg.eigvalsh(mat)
    if evals.size and evals.min() < -PSD_TOL:
        raise InvalidStateError(f"negative eigenvalue {evals.min():.3e}")
    return entropy_of_spectrum(evals)


def entropy_of_spectrum(evals):
    """Shannon entropy -sum lam log2 lam in bits of a nonnegative spectrum.

    Eigenvalues below 1e-12 contribute zero. A 1-D spectrum gives a float
    (0.0 when no eigenvalue reaches 1e-12); a 2-D stack of spectra, one
    per row, gives an array with the entropy of each row.
    """
    lam = np.asarray(evals, dtype=np.float64)
    if lam.ndim > 1:
        safe = np.where(lam >= EIG_ZERO_TOL, lam, 1.0)
        return 0.0 - np.sum(lam * np.log2(safe), axis=-1)
    lam = lam[lam >= EIG_ZERO_TOL]
    if lam.size == 0:
        return 0.0
    return float(0.0 - np.dot(lam, np.log2(lam)))


def hermitian_spectra(mats) -> np.ndarray:
    """Eigenvalues of a stack of Hermitian matrices, one row per matrix.

    `mats` has shape (n, d, d). Each row rises, as `np.linalg.eigvalsh`
    gives it. A 2x2 stack gives rows (smaller, larger) from the diagonal's
    real part a, d and the upper corner c as
    (a + d)/2 -+ sqrt(((a - d)/2)^2 + |c|^2), a sum of squares that keeps
    close eigenvalues accurate. It serves the Bloch grid's 2x2 entropies and
    their gradients at every box level. Larger stacks go through one batched
    `np.linalg.eigvalsh`.
    """
    mats = np.asarray(mats)
    if mats.shape[-1] != 2:
        return np.linalg.eigvalsh(mats)
    a, d, c = mats[:, 0, 0].real, mats[:, 1, 1].real, mats[:, 0, 1]
    disc = np.sqrt((0.5 * (a - d))**2 + c.real**2 + c.imag**2)
    m = 0.5 * (a + d)
    return np.stack([m - disc, m + disc], axis=1)


def apply_channel(channel: QuantumChannel, rho) -> DensityOperator:
    """Primary output sum_k A_k rho A_k^dag as a validated DensityOperator."""
    return DensityOperator(_outputs(channel, _state_matrix(rho))[0])


def complementary_apply(channel: QuantumChannel, rho) -> DensityOperator:
    """Environment output E(rho)_{kl} = tr(A_k rho A_l^dag)."""
    return DensityOperator(_outputs(channel, _state_matrix(rho))[1])


def _outputs(channel: QuantumChannel, mat: np.ndarray):
    """(N(rho), E(rho)), the two partial traces of V rho V^dag.

    V stacks the Kraus operators as rows, and both maps read the one
    product V rho: N(rho) = sum_k A_k rho A_k^dag and
    E(rho)_{kl} = tr(A_k rho A_l^dag) = sum_{ij} (A_k rho)_{ij} conj(A_l)_{ij}.
    """
    if mat.shape[0] != channel.d_in:
        raise DimensionMismatchError(
            f"state dim {mat.shape[0]} != channel input dim {channel.d_in}")
    ks, conj = channel.kraus, channel.kraus.conj()
    prods = ks.reshape(-1, channel.d_in) @ mat
    out = (prods.reshape(ks.shape) @ conj.transpose(0, 2, 1)).sum(axis=0)
    return out, prods.reshape(len(ks), -1) @ conj.reshape(len(ks), -1).T


def _pullback(channel: QuantumChannel, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """E^dag(y) - N^dag(x) = sum_{kl} y_{kl} A_k^dag A_l - sum_k A_k^dag x A_k."""
    # each adjoint keeps its own summation order: one fused product
    # V^dag (y x I - I x x) V rounds differently and moves solver gaps
    ks = channel.kraus
    rows = ks.reshape(-1, channel.d_in)
    env = rows.conj().T @ (y @ ks.reshape(len(ks), -1)).reshape(rows.shape)
    return env - (ks.conj().transpose(0, 2, 1) @ x @ ks).sum(axis=0)


def entropy_exchange(channel: QuantumChannel, rho) -> float:
    """Entropy of the environment output, H(E(rho)), in bits."""
    return von_neumann_entropy(complementary_apply(channel, rho))


def entropy_exchange_via_purification(channel: QuantumChannel, rho) -> float:
    """Entropy exchange computed as H((N x I) Phi_rho) on a purification of rho.

    Numerically independent route used to cross-check `entropy_exchange`.
    """
    mat = _state_matrix(rho)
    psi = purify(DensityOperator(mat))
    big = extend_channel(channel, mat.shape[0])
    joint, _ = _outputs(big, np.outer(psi.vec, psi.vec.conj()))
    return von_neumann_entropy(joint)


def purify(rho: DensityOperator) -> PureState:
    """A purification sum_i sqrt(lambda_i) |v_i> x |i> of rho.

    lambda_i, v_i are the eigenpairs in the order and with the phases the
    eigensolver returns them; eigenvalues below 1e-12 are dropped and the
    vector renormalized. Every purification gives the same entropies.
    Tracing out the second (reference) factor returns rho.
    """
    evals, vecs = np.linalg.eigh(rho.mat)
    vec = (vecs * np.sqrt(np.where(evals >= EIG_ZERO_TOL, evals, 0.0))).reshape(-1)
    return PureState(vec / np.linalg.norm(vec), dims=(rho.dim, rho.dim))


def extend_channel(channel: QuantumChannel, ref_dim: int) -> QuantumChannel:
    """Channel acting as N on the first factor and identity on a reference."""
    eye = np.eye(ref_dim, dtype=np.complex128)
    return QuantumChannel([np.kron(op, eye) for op in channel.kraus])


def tensor_channels(a: QuantumChannel, b: QuantumChannel) -> QuantumChannel:
    """Tensor product channel with Kraus set {A_i x B_j}."""
    return QuantumChannel([np.kron(x, y) for x in a.kraus for y in b.kraus])


def quantum_mutual_information(channel: QuantumChannel, rho) -> float:
    """H(rho) + H(N(rho)) - H(E(rho)) in bits.

    This is the quantity whose maximum over input states is the
    entanglement-assisted classical capacity of the channel.
    """
    mat = _state_matrix(rho)
    out, env = _outputs(channel, mat)
    return von_neumann_entropy(mat) + von_neumann_entropy(out) - von_neumann_entropy(env)


# ---------------------------------------------------------------------------
# JSON wire format: complex matrices as nested [re, im] pairs, row-major.

def matrix_to_json(mat) -> list:
    arr = np.asarray(mat, dtype=np.complex128)
    return [[[float(z.real), float(z.imag)] for z in row] for row in arr]


def matrix_from_json(data) -> np.ndarray:
    try:
        rows = [[complex(cell[0], cell[1]) for cell in row] for row in data]
    except (TypeError, IndexError) as exc:
        raise ValueError(f"malformed complex-matrix JSON: {exc}") from exc
    arr = np.asarray(rows, dtype=np.complex128)
    if arr.ndim != 2:
        raise ValueError("malformed complex-matrix JSON: not a 2-D array")
    return arr

