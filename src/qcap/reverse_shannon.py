"""Exact simulation of a noisy classical channel over a noiseless one.

A sender and receiver holding shared randomness can make a noiseless bit
pipe behave exactly like n uses of a discrete memoryless channel, spending
asymptotically only n times the channel capacity in bits. Both parties
derive a large random codeword set from the shared seed; the sender picks
a set member matching the statistics of a privately simulated channel
output and transmits its index, falling back to the raw output when no
member matches. The substitution is distribution-preserving at every
block length, not just asymptotically.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .typeclasses import (TypeClass, enumerate_types, joint_type, sample_from_type,
                          type_of)

BA_MAX_ITERS = 10 ** 6
MAX_SET_EXPONENT = 26.0  # sets beyond ~6.7e7 members are not scannable here
ORACLE_MAX_COMBOS = 10 ** 7
_SCAN_CHUNK = 1 << 20  # words per streamed Z block; multiple of 4
_MEMBER_CHUNK = 1 << 16  # letters per batch of generated DMC set members

# numpy's Philox4x64-10 (Random123): round multipliers, key-bump constants
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_LO32 = np.uint64(0xFFFFFFFF)
_U64 = 2 ** 64


class DMC:
    """Discrete memoryless channel: row-stochastic transition table.

    Row x holds the output distribution P(y | input x).
    """

    def __init__(self, matrix):
        mat = np.array(matrix, dtype=np.float64)
        if mat.ndim != 2 or mat.size == 0:
            raise ValueError("transition matrix must be 2-d and nonempty")
        if np.any(mat < -1e-12) or np.any(mat > 1.0 + 1e-12):
            raise ValueError("transition probabilities must lie in [0, 1]")
        rows = mat.sum(axis=1)
        if np.any(np.abs(rows - 1.0) > 1e-12):
            raise ValueError(f"rows must sum to 1, got sums {rows}")
        mat = np.clip(mat, 0.0, 1.0)
        mat.setflags(write=False)
        self.matrix = mat
        self._cum = np.cumsum(mat, axis=1)
        # a row summing to just under 1 would let u land past its last
        # entry and yield the letter d_out; uniforms are always below 1
        self._cum[:, -1] = 1.0

    @property
    def d_in(self) -> int:
        return self.matrix.shape[0]

    @property
    def d_out(self) -> int:
        return self.matrix.shape[1]

    def sample_outputs(self, x: np.ndarray, rng: Generator) -> np.ndarray:
        """One channel use per letter of x, consuming len(x) uniforms."""
        u = rng.random(len(x))
        cum = self._cum[x]
        return (u[:, None] > cum).sum(axis=1).astype(np.int64)

    def block_probability(self, x, y) -> float:
        """Probability of output block y given input block x."""
        return float(np.prod(self.matrix[np.asarray(x), np.asarray(y)]))

    def to_json(self) -> dict:
        return {"matrix": [[float(v) for v in row] for row in self.matrix]}

    @classmethod
    def from_json(cls, obj: dict) -> "DMC":
        return cls(obj["matrix"])


def bsc(p: float) -> DMC:
    """Binary symmetric channel flipping each bit with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"flip probability must be in [0, 1], got {p}")
    return DMC([[1.0 - p, p], [p, 1.0 - p]])


def _h2(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def bsc_capacity(p: float) -> float:
    return 1.0 - _h2(p)


def ba_capacity(dmc: DMC, tol: float = 1e-10):
    """Channel capacity in bits with the achieving input distribution.

    Alternating fixed-point iteration; at each step the bracket
    [I(q), max_x D(row_x || q N)] pins the capacity, and iteration stops
    when it is narrower than tol.
    """
    mat = dmc.matrix
    with np.errstate(divide="ignore", invalid="ignore"):
        nlogn = np.where(mat > 0.0, mat * np.log2(np.where(mat > 0.0, mat, 1.0)), 0.0)
    row_neg_ent = nlogn.sum(axis=1)
    q = np.full(dmc.d_in, 1.0 / dmc.d_in)
    for _ in range(BA_MAX_ITERS):
        out = q @ mat
        with np.errstate(divide="ignore"):
            log_out = np.where(out > 0.0, np.log2(np.where(out > 0.0, out, 1.0)), 0.0)
        # D(row_x || qN) in bits; rows put no mass on zero-probability outputs
        div = row_neg_ent - mat @ log_out
        lower = float(q @ div)
        upper = float(div.max())
        if upper - lower <= tol:
            return lower, q
        q = q * np.exp2(div - div.max())
        q /= q.sum()
    raise RuntimeError(f"no convergence within {BA_MAX_ITERS} iterations")


def constrained_mi(dmc: DMC, q) -> float:
    """Single-letter mutual information I(q, N) in bits."""
    q = np.asarray(q, dtype=np.float64)
    if q.ndim != 1 or q.size != dmc.d_in:
        raise ValueError(f"input distribution must have length {dmc.d_in}")
    if np.any(q < -1e-12) or abs(float(q.sum()) - 1.0) > 1e-9:
        raise ValueError("input distribution must be nonnegative and sum to 1")
    q = np.clip(q, 0.0, None)
    mat = dmc.matrix
    out = q @ mat
    total = 0.0
    for x in range(dmc.d_in):
        if q[x] <= 0.0:
            continue
        row = mat[x]
        mask = row > 0.0
        total += q[x] * float(np.sum(row[mask] * np.log2(row[mask] / out[mask])))
    return max(total, 0.0)


@dataclass(frozen=True)
class ProtocolConfig:
    n: int
    eps: float
    variant: str = "bsc"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"block length must be >= 1, got {self.n}")
        if self.eps <= 0.0:
            raise ValueError(f"slack must be > 0, got {self.eps}")
        if self.variant not in ("bsc", "general"):
            raise ValueError(f"unknown variant {self.variant!r}")


@dataclass
class Transcript:
    """Everything the sender put on the wire for one block.

    index_bits is the payload width after the direction prefix: the
    codeword-index width on the index path, the raw-output width on the
    fallback path, so bits_sent = itc_bits + 1 + index_bits either way.
    """

    bits_sent: int
    fallback: bool
    itc_bits: int
    index_bits: int
    output: tuple
    message: str

    def to_json(self) -> dict:
        return {
            "bits_sent": self.bits_sent,
            "fallback": self.fallback,
            "itc_bits": self.itc_bits,
            "index_bits": self.index_bits,
            "output": list(self.output),
            "message": self.message,
        }


@dataclass(frozen=True)
class SharedRandomness:
    """Seed both parties hold; all randomness is derived, never stored.

    Streams are keyed by hashing (seed, tag, indices) into a counter-based
    generator, so the receiver can regenerate any single set element in
    O(1) without replaying the sender's scan. The general protocol's
    sender builds set members in batches straight from the element keys
    (_batch_members); they are bit-identical to the receiver's
    one-at-a-time regeneration through element_stream.
    """

    seed: int

    def __post_init__(self):
        object.__setattr__(self, "seed", int(self.seed) & (2 ** 64 - 1))

    def _key(self, tag: str, *idx) -> np.ndarray:
        label = f"{self.seed}|{tag}|" + ",".join(str(int(i)) for i in idx)
        h = hashlib.sha256(label.encode("ascii")).digest()
        return np.frombuffer(h[:16], dtype=np.uint64).copy()

    def bitgen(self, tag: str, *idx) -> Philox:
        return Philox(key=self._key(tag, *idx))

    def stream(self, tag: str, *idx) -> Generator:
        return Generator(self.bitgen(tag, *idx))

    def element_stream(self, tag: str, k: int, i: int) -> Generator:
        # key word 0 names the set, word 1 is the element index: any
        # element is reachable without generating its predecessors
        key = self._key(tag, k)
        key[1] = np.uint64(i)
        return Generator(Philox(key=key))

    def derive(self, tag: str, *idx) -> "SharedRandomness":
        key = self._key(tag, *idx)
        return SharedRandomness(int(key[0]))


def _set_size(rate_bits: float, n: int, eps: float) -> int:
    exponent = n * (rate_bits + eps / 2.0)
    if exponent > MAX_SET_EXPONENT:
        raise ValueError(
            f"codeword set of 2^{exponent:.1f} elements exceeds the simulation budget")
    return max(math.ceil(2.0 ** exponent), 1)


def _index_width(size: int) -> int:
    # == ceil(log2(size)) for size >= 1, computed exactly
    return (size - 1).bit_length()


def _bits_to_int(bits: np.ndarray) -> int:
    out = 0
    for b in bits:
        out = (out << 1) | int(b)
    return out


def _letters_array(x, d: int, n: int) -> np.ndarray:
    if isinstance(x, str):
        arr = np.array([int(ch) for ch in x], dtype=np.int64)
    else:
        arr = np.asarray(x, dtype=np.int64)
    if arr.ndim != 1 or len(arr) != n:
        raise ValueError(f"input block must have length {n}")
    if arr.size and (arr.min() < 0 or arr.max() >= d):
        raise ValueError(f"letters must lie in [0, {d})")
    return arr


def _substitute(shared: SharedRandomness, cfg: ProtocolConfig, d_out: int,
                rate: float, prefix: str, draw, scan, member):
    """The set-substitution game, shared by both channel kinds.

    The shared set holds _set_size(rate, n, eps) members. The sender draws
    its private output y = draw(priv) and asks scan(size, y) for the
    ascending indices of the members in y's match class. It sends prefix,
    then 0 and the index of a uniformly picked match, or 1 and y as one
    big-endian base-d_out integer when nothing matches. member(i)
    regenerates set member i, which is all the receiver needs to decode.

    Returns (receiver's output block, Transcript).
    """
    size = _set_size(rate, cfg.n, cfg.eps)
    priv = shared.stream("private")
    y = draw(priv)
    matches = scan(size, y)
    if len(matches):
        chosen = int(matches[int(priv.integers(len(matches)))])
        y_out, direction = member(chosen), "0"
        width, payload = _index_width(size), chosen
    else:
        y_out, direction = y, "1"
        width, payload = _index_width(d_out ** cfg.n), 0
        for v in y:
            payload = payload * d_out + int(v)
    message = prefix + direction + (format(payload, f"0{width}b") if width else "")
    tr = Transcript(bits_sent=len(message), fallback=direction == "1",
                    itc_bits=len(prefix), index_bits=width,
                    output=tuple(int(v) for v in y_out), message=message)
    return y_out, tr


def _regen_bsc_word(shared: SharedRandomness, index: int) -> int:
    # element i is word i of the raw stream: 4 words per counter block
    bg = shared.bitgen("Z")
    bg.advance(index // 4)
    return int(bg.random_raw(4)[index % 4])


def bsc_simulate(p: float, cfg: ProtocolConfig, shared: SharedRandomness, x):
    """One protocol run over the binary symmetric channel.

    The shared set Z holds ceil(2^(n(C+eps/2))) uniform n-bit strings,
    materialized as consecutive 64-bit words of one keyed stream. The
    sender privately simulates the channel, then transmits either
    (prefix 0, index of a uniformly chosen set member at the same
    Hamming distance from x) or (prefix 1, the raw simulated output).
    Swapping the simulated output for an equidistant set member leaves
    the output distribution exactly BSC(p)^n because the channel law is
    constant on each Hamming shell and set members are exchangeable.

    Returns (receiver's output block, Transcript).
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"flip probability must be in (0, 1), got {p}")
    n = cfg.n
    if n > 64:
        raise ValueError("bit blocks above 64 are not supported")
    xs = _letters_array(x, 2, n)
    x_word = np.uint64(_bits_to_int(xs))
    mask = np.uint64((1 << n) - 1)

    def scan(size, y):
        # stream over Z in chunks, collecting indices on y's shell around x
        dist = np.uint8((y != xs).sum())
        matches = []
        bg = shared.bitgen("Z")
        offset = 0
        # popcounts and shell flags land in buffers reused by every chunk
        width = min(_SCAN_CHUNK, ((size + 3) // 4) * 4)
        pops, on_shell = np.empty(width, dtype=np.uint8), np.empty(width, dtype=bool)
        while offset < size:
            m = min(_SCAN_CHUNK, ((size - offset + 3) // 4) * 4)
            words = bg.random_raw(m)
            np.bitwise_and(words, mask, out=words)
            np.bitwise_xor(words, x_word, out=words)
            np.bitwise_count(words, out=pops[:m])
            hits = np.flatnonzero(np.equal(pops[:m], dist, out=on_shell[:m]))
            hits = hits[hits + offset < size]
            if hits.size:
                matches.append(hits.astype(np.int64) + offset)
            offset += m
        return np.concatenate(matches) if matches else []

    def member(i):
        word = _regen_bsc_word(shared, i) & int(mask)
        return np.array([(word >> (n - 1 - j)) & 1 for j in range(n)],
                        dtype=np.int64)

    return _substitute(shared, cfg, 2, bsc_capacity(p), "",
                       lambda priv: (xs ^ (priv.random(n) < p)).astype(np.int64),
                       scan, member)


def _type_rank(counts: tuple) -> int:
    """Position of a letter-count vector in first-count-descending order."""
    rank = 0
    n = sum(counts)
    d = len(counts)
    for j, c in enumerate(counts[:-1]):
        slots = d - j - 1
        for v in range(n, c, -1):
            rank += math.comb(n - v + slots - 1, slots - 1)
        n -= c
    return rank


def _class_rate(dmc: DMC, tc: TypeClass) -> float:
    """Set-sizing rate of the general protocol: I(type of x, N)."""
    return constrained_mi(dmc, np.asarray(tc.counts, dtype=np.float64) / tc.n)


def _mulhilo(m: int, v: np.ndarray):
    """Low and high 64-bit words of the 128-bit products m * v.

    The high word is assembled from 32-bit partial products (Hacker's
    Delight, mulhu), none of which overflows a uint64.
    """
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    v_lo, v_hi = v & _LO32, v >> 32
    t = v_lo * m_hi
    t += (v_lo * m_lo) >> 32
    hi = v_hi * m_hi
    hi += t >> 32
    t &= _LO32
    t += v_hi * m_lo
    hi += t >> 32
    return np.uint64(m) * v, hi


def _philox_words(key0: int, idx, n_blocks: int, first: int = 1) -> np.ndarray:
    """Raw words of many element streams, computed as array arithmetic.

    Row r holds the 4 * n_blocks words that Philox(key=[key0, idx[r]])
    yields from counter block first onwards. numpy increments the counter
    before each block, so a fresh stream starts at block 1. Philox is
    counter-based (Salmon et al., SC'11): any block of any key is a pure
    function of the two, with no generator to build.
    """
    idx = np.asarray(idx, dtype=np.uint64).reshape(-1, 1)
    c0 = np.broadcast_to(np.arange(first, first + n_blocks, dtype=np.uint64),
                         (len(idx), n_blocks))
    c1 = c2 = c3 = np.zeros(c0.shape, dtype=np.uint64)
    for r in range(_PHILOX_ROUNDS):
        k0 = np.uint64((key0 + r * _PHILOX_W[0]) % _U64)
        k1 = idx + np.uint64(r * _PHILOX_W[1] % _U64)
        lo0, hi0 = _mulhilo(_PHILOX_M[0], c0)
        lo1, hi1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return np.stack((c0, c1, c2, c3), axis=2).reshape(len(idx), 4 * n_blocks)


def _shuffle_blocks(n: int) -> int:
    """Philox blocks holding the mean uint32 draw count of an n-letter shuffle."""
    # position i accepts a draw masked to 2^b - 1 >= i with odds (i+1)/2^b
    mean = sum((1 << i.bit_length()) / (i + 1) for i in range(1, n))
    return max(math.ceil(mean / 8), 1)


def _batch_type_samples(tc: TypeClass, key0: int, idx: np.ndarray) -> np.ndarray:
    """Row r is sample_from_type(tc, stream of key [key0, idx[r]]).

    numpy's 1-d shuffle is Fisher-Yates from the last position down to 1:
    position i swaps with random_interval(i), which masks uint32 draws to
    the smallest 2^b - 1 >= i and rejects them while above i. The draws
    are consumed column by column, every row at its own position; rows
    that use up their words get the next blocks of their own counter.
    """
    m, n = len(idx), tc.n
    blocks = _shuffle_blocks(n)
    masks = np.array([(1 << i.bit_length()) - 1 for i in range(n)])
    bound = np.arange(n)
    bound[0] = -1  # a finished row rejects everything
    step = np.full(m, n - 1)  # position each row is drawing a partner for
    base = np.arange(m) * n
    # partner[r * n + i]: where position i swaps to; a rejected draw is
    # overwritten by the next one at the same position
    partner = np.zeros(m * n, dtype=np.int64)
    live, first = np.flatnonzero(step), 1
    while live.size:
        s, b = step[live], base[live]
        words = _philox_words(key0, idx[live], blocks, first).T
        # numpy's next_uint32 takes each word's low half, then its high half
        draws = np.stack((words & _LO32, words >> 32), axis=1).reshape(-1, len(live))
        for v in draws.view(np.int64):
            v &= masks[s]
            partner[b + s] = v
            s -= v <= bound[s]
        step[live] = s
        live, first = live[s > 0], first + blocks
    out = np.tile(np.repeat(np.arange(tc.d, dtype=np.int64), tc.counts), (m, 1))
    rows = np.arange(m)
    partner = partner.reshape(m, n)
    for i in range(n - 1, 0, -1):
        j = partner[:, i]
        picked = out[rows, j]
        out[rows, j] = out[:, i]
        out[:, i] = picked
    return out


def _batch_members(dmc: DMC, tc: TypeClass, keys: tuple, idx: np.ndarray) -> np.ndarray:
    """Set members idx of a DMC class set, one row each.

    keys holds word 0 of the "X" and "Y" element-stream keys. Row r is
    bit-identical to what sample_from_type and DMC.sample_outputs draw
    from element_stream("X"/"Y", k, idx[r]): uniforms are the top 53 bits
    of each Y word, counted against the cumulative rows as sample_outputs
    counts them.
    """
    xp = _batch_type_samples(tc, keys[0], idx)
    n = tc.n
    words = _philox_words(keys[1], idx, -(-n // 4))[:, :n]
    u = (words >> 11).astype(np.float64) * 2.0 ** -53
    y = np.zeros(xp.shape, dtype=np.int64)
    for c in range(dmc.d_out - 1):  # no u < 1 passes the last entry, 1.0
        y += u > dmc._cum[:, c][xp]
    return y


def dmc_simulate(dmc: DMC, cfg: ProtocolConfig, shared: SharedRandomness, x):
    """One protocol run over a general discrete memoryless channel.

    The sender announces the letter-frequency class of x (its index among
    all count vectors, fixed width), then plays the set-substitution game
    within that class: the shared set holds outputs of the channel fed
    with uniform inputs of the same class, one independent keyed stream
    per element, and a set member replaces the privately simulated output
    when their pair-count matrices against x agree. The block transition
    law is constant on each such pair class, so the swap is exact.

    Returns (receiver's output block, Transcript).
    """
    n = cfg.n
    xs = _letters_array(x, dmc.d_in, n)
    tc = type_of(xs, dmc.d_in)
    k = _type_rank(tc.counts)
    itc_bits = _index_width(math.comb(n + dmc.d_in - 1, dmc.d_in - 1))
    # pair-count match done on flat bincounts; equals joint-type equality
    n_pair = dmc.d_in * dmc.d_out
    pair_base = xs * dmc.d_out

    def scan(size, y):
        # members in batches; row r's pair counts sit at r * n_pair onwards
        target = np.bincount(pair_base + y, minlength=n_pair)
        keys = tuple(int(shared._key(tag, k)[0]) for tag in ("X", "Y"))
        rows = max(_MEMBER_CHUNK // n, 1)
        matches = []
        for lo in range(0, size, rows):
            idx = np.arange(lo, min(lo + rows, size))
            codes = (np.arange(len(idx))[:, None] * n_pair + pair_base
                     + _batch_members(dmc, tc, keys, idx))
            counts = np.bincount(codes.ravel(), minlength=len(idx) * n_pair)
            matches.append(idx[(counts.reshape(-1, n_pair) == target).all(axis=1)])
        return np.concatenate(matches)

    def member(i):
        xp = sample_from_type(tc, shared.element_stream("X", k, i))
        return dmc.sample_outputs(xp, shared.element_stream("Y", k, i))

    prefix = format(k, f"0{itc_bits}b") if itc_bits else ""
    return _substitute(shared, cfg, dmc.d_out, _class_rate(dmc, tc), prefix,
                       lambda priv: dmc.sample_outputs(xs, priv), scan, member)


def _channel_kind(channel):
    """The one dispatch on the channel kind.

    A flip probability (bit protocol) or a DMC (general protocol) maps to
    (DMC, capacity(), rate(x), simulate(cfg, shared, x), law(x)), where
    rate(x) sizes the shared set for input block x and law(x) gives the
    exact oracle the law of one set member over the output blocks (as
    ordered by _blocks) and the match label of each output block.
    """
    if isinstance(channel, DMC):
        d_in, d_out = channel.d_in, channel.d_out

        def law(x):
            # members: channel outputs of a uniform input of x's type class
            n = len(x)
            same = (np.sort(_blocks(d_in, n), axis=1) == np.sort(x)).all(axis=1)
            return (_block_law(channel, n)[same].mean(axis=0),
                    [joint_type(x, y, d_in, d_out).key() for y in _blocks(d_out, n)])

        return (channel, lambda: ba_capacity(channel, 1e-10)[0],
                lambda x: _class_rate(channel, type_of(x, d_in)),
                lambda cfg, shared, x: dmc_simulate(channel, cfg, shared, x), law)

    def law(x):
        # members: uniform words; a match lies on y's Hamming shell around x
        ys = _blocks(2, len(x))
        return np.full(len(ys), 1.0 / len(ys)), (ys != x).sum(axis=1)

    p = float(channel)
    return (bsc(p), lambda: bsc_capacity(p), lambda x: bsc_capacity(p),
            lambda cfg, shared, x: bsc_simulate(p, cfg, shared, x), law)


# ---------------------------------------------------------------------------
# Faithfulness verification.

def _blocks(d: int, n: int) -> np.ndarray:
    """All length-n blocks over d letters, one per row, last letter fastest."""
    return np.indices((d,) * n).reshape(n, -1).T


def _block_law(dmc: DMC, n: int) -> np.ndarray:
    """N^(x)n: row x, column y holds P(y | x), both indexed as by _blocks."""
    return functools.reduce(np.kron, [dmc.matrix] * n)


def exact_faithfulness_oracle(channel, n: int, eps: float | None = None,
                              zsize: int | None = None) -> float:
    """Max deviation of the induced block channel from the true one.

    Integrates the protocol analytically, summing over multisets of set
    draws. A set of M iid members is summarized by its count vector c
    over the output blocks, of weight multinomial(M; c) * prod(law^c).
    Given c, a private output in match class s, which holds K_s > 0
    members, ends on member y' of s with odds c_y' / K_s: the law of any
    exchangeable pick among the matches. With K_s = 0 it falls back to
    itself. channel is a flip probability (bit protocol) or a DMC
    (general protocol). The set size comes from zsize, or from eps via
    the protocol's own sizing rule. Refuses sums beyond
    ORACLE_MAX_COMBOS weight terms.
    """
    if zsize is None and eps is None:
        raise ValueError("need either eps or an explicit set size")
    dmc, _, rate, _, law = _channel_kind(channel)
    block = _block_law(dmc, n)
    n_out = block.shape[1]
    multisets = {}
    worst = 0.0
    for x, true in zip(_blocks(dmc.d_in, n), block):
        size = zsize if zsize is not None else _set_size(rate(x), n, eps)
        n_sets = math.comb(n_out + size - 1, size)
        if n_sets * n_out > ORACLE_MAX_COMBOS:
            raise ValueError(
                f"{n_sets} multisets of {size} set draws exceed the enumeration guard")
        if size not in multisets:
            types = enumerate_types(size, n_out)
            multisets[size] = (np.array([t.counts for t in types]),
                               np.array([float(t.multiplicity()) for t in types]))
        counts, mult = multisets[size]
        member, labels = law(x)
        sig = np.unique(np.asarray(labels), axis=0, return_inverse=True)[1].ravel()
        in_class = sig[:, None] == np.arange(sig.max() + 1)
        weight = mult * np.prod(member ** counts, axis=1)
        k = (counts @ in_class)[:, sig]  # members in each output's class
        with np.errstate(divide="ignore", invalid="ignore"):
            share = np.where(k > 0, (true @ in_class)[sig] * counts / k, true)
        worst = max(worst, float(np.max(np.abs(weight @ share - true))))
    return worst


def empirical_faithfulness(channel, cfg: ProtocolConfig, trials: int,
                           seed: int, x=None) -> dict:
    """Monte-Carlo output histogram for one fixed input vs the exact law.

    Returns the total-variation estimate and a chi-square p-value
    (expected bins below 5 are pooled). Each trial reseeds the whole
    protocol, so trial outputs are independent draws of the block law.
    """
    from scipy.stats import chisquare  # the one scipy use; kept off the import path

    if trials < 1000:
        raise ValueError("need at least 1000 trials for a stable histogram")
    dmc, _, _, simulate, _ = _channel_kind(channel)
    n = cfg.n
    if dmc.d_out ** n > 10 ** 4:
        raise ValueError("output space too large to bin")
    xs = (_letters_array(x, dmc.d_in, n) if x is not None
          else np.zeros(n, dtype=np.int64))
    exact = functools.reduce(np.kron, dmc.matrix[xs])

    base = SharedRandomness(seed)
    hist = np.zeros(dmc.d_out ** n, dtype=np.int64)
    radix = dmc.d_out ** np.arange(n - 1, -1, -1)
    for t in range(trials):
        y_out, _ = simulate(cfg, base.derive("trial", t), xs)
        hist[int(np.dot(y_out, radix))] += 1

    tv = 0.5 * float(np.abs(hist / trials - exact).sum())
    expected = exact * trials
    big = expected >= 5.0
    obs = np.append(hist[big], hist[~big].sum())
    exp = np.append(expected[big], expected[~big].sum())
    keep = exp > 0.0
    stat, pvalue = chisquare(obs[keep], exp[keep] * obs[keep].sum() / exp[keep].sum())
    return {"tv_estimate": tv, "chi2_pvalue": float(pvalue),
            "chi2_stat": float(stat), "bins": int(keep.sum()), "trials": trials}


def cost_statistics(channel, cfg: ProtocolConfig, trials: int, source,
                    seed: int) -> dict:
    """Monte-Carlo communication-cost statistics for a protocol setup.

    source is ("fixed", block), ("iid", letter distribution) or
    ("itc-uniform", letter counts). Reports mean bits per symbol, the
    rate of blocks costing more than n(C+eps), and the fallback rate,
    each with a standard error.
    """
    dmc, capacity, _, simulate, _ = _channel_kind(channel)
    n = cfg.n
    cap = capacity()
    threshold = n * (cap + cfg.eps)

    base = SharedRandomness(seed)
    kind, arg = source
    if kind == "fixed":
        fixed = _letters_array(arg, dmc.d_in, n)
        inputs = lambda t: fixed
    elif kind == "iid":
        q = np.asarray(arg, dtype=np.float64)
        if (q.ndim != 1 or q.size != dmc.d_in or abs(q.sum() - 1.0) > 1e-9
                or np.any(q < -1e-12)):
            raise ValueError("iid source needs a distribution over the input alphabet")
        qcum = np.cumsum(q)
        qcum[-1] = 1.0  # as in DMC._cum: no uniform lands past the last letter
        inputs = lambda t: np.searchsorted(
            qcum, base.stream("input", t).random(n)).astype(np.int64)
    elif kind == "itc-uniform":
        tc = TypeClass(tuple(arg))
        if tc.n != n or tc.d != dmc.d_in:
            raise ValueError("type counts must sum to n over the input alphabet")
        inputs = lambda t: sample_from_type(tc, base.stream("input", t))
    else:
        raise ValueError(f"unknown source kind {kind!r}")

    bits = np.empty(trials)
    exceed = np.empty(trials, dtype=bool)
    fell = np.empty(trials, dtype=bool)
    itc_bits = 0
    for t in range(trials):
        _, tr = simulate(cfg, base.derive("trial", t), inputs(t))
        bits[t] = tr.bits_sent
        exceed[t] = tr.bits_sent > threshold
        fell[t] = tr.fallback
        itc_bits = tr.itc_bits

    mean_bits = float(bits.mean()) / n
    sem_bits = float(bits.std(ddof=1)) / n / math.sqrt(trials)
    p_exc = float(exceed.mean())
    p_fb = float(fell.mean())
    return {
        "n": n, "eps": cfg.eps, "capacity": cap, "trials": trials,
        "mean_bits_per_symbol": mean_bits, "mean_bits_se": sem_bits,
        "p_exceed": p_exc,
        "p_exceed_se": math.sqrt(max(p_exc * (1 - p_exc), 0.0) / trials),
        "fallback_rate": p_fb,
        "fallback_rate_se": math.sqrt(max(p_fb * (1 - p_fb), 0.0) / trials),
        "itc_bits": itc_bits,
    }
