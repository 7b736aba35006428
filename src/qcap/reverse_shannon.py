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
import numbers
from dataclasses import asdict, dataclass

import numpy as np
from numpy.random import PCG64DXSM, Generator, SeedSequence

from .qmath import entropy_of_spectrum
from .typeclasses import (TypeClass, block_code, letters, pair_counts, sample_from_type,
                          type_of, type_rank)

BA_MAX_ITERS = 10 ** 6
MAX_SET_EXPONENT = 26.0  # sets beyond ~6.7e7 members are not scannable here
ORACLE_MAX_COMBOS = 10 ** 7
_SCAN_CHUNK = 1 << 16  # shared-set words drawn per step of a scan


class DMC:
    """Discrete memoryless channel: row-stochastic transition table.

    Row x holds the output distribution P(y | input x).
    """

    def __init__(self, matrix):
        mat = np.array(matrix, dtype=np.float64)
        if mat.ndim != 2 or mat.size == 0:
            raise ValueError("transition matrix must be 2-d and nonempty")
        if not np.all((mat >= -1e-12) & (mat <= 1.0 + 1e-12)):  # NaN fails this too
            raise ValueError("transition probabilities must lie in [0, 1]")
        rows = mat.sum(axis=1)
        if not np.all(np.abs(rows - 1.0) <= 1e-12):
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

    def outputs(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Channel outputs on inputs x, each driven by the uniform in u at its place."""
        y = np.zeros(np.shape(x), dtype=np.int64)
        for c in range(self.d_out - 1):  # no u < 1 passes the last entry, 1.0
            y += u > self._cum[:, c][x]
        return y

    def sample_outputs(self, x: np.ndarray, rng: Generator) -> np.ndarray:
        """One channel use per letter of x, consuming len(x) uniforms."""
        return self.outputs(x, rng.random(len(x)))

    @functools.cached_property
    def _capacity(self) -> float:
        # computed once: the transition table is read-only
        return ba_capacity(self, 1e-10)[0]

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


def bsc_capacity(p: float) -> float:
    return 1.0 - entropy_of_spectrum([p, 1.0 - p])


def _divergences(dmc: DMC, q: np.ndarray) -> np.ndarray:
    """D(N(.|x) || qN) in bits for every input letter x: row x's N log2(N / qN)
    summed over its entries with N > 0 and qN > 0 (a letter q never uses
    may reach an output qN misses; that entry is left out)."""
    mat = dmc.matrix
    out = q @ mat
    live = (mat > 0.0) & (out > 0.0)
    ratio = np.where(live, mat, 1.0) / np.where(live, out, 1.0)
    return (mat * np.log2(ratio)).sum(axis=1)


def ba_capacity(dmc: DMC, tol: float = 1e-10):
    """Channel capacity in bits with the achieving input distribution.

    Alternating fixed-point iteration; at each step the bracket
    [I(q), max_x D(row_x || q N)] pins the capacity, and iteration stops
    when it is narrower than tol.
    """
    if not tol >= 0.0:  # NaN fails this too
        raise ValueError(f"tol must be a nonnegative gap, got {tol}")
    q = np.full(dmc.d_in, 1.0 / dmc.d_in)
    for _ in range(BA_MAX_ITERS):
        div = _divergences(dmc, q)
        lower, upper = float(q @ div), div.max()
        if upper - lower <= tol:
            return lower, q
        q = q * np.exp2(div - upper)
        q /= q.sum()
    raise RuntimeError(f"no convergence within {BA_MAX_ITERS} iterations")


def constrained_mi(dmc: DMC, q) -> float:
    """Single-letter mutual information I(q, N) in bits."""
    q = np.asarray(q, dtype=np.float64)
    if q.ndim != 1 or q.size != dmc.d_in:
        raise ValueError(f"input distribution must have length {dmc.d_in}")
    if not (np.all(q >= -1e-12) and abs(float(q.sum()) - 1.0) <= 1e-9):
        raise ValueError("input distribution must be nonnegative and sum to 1")
    q = np.clip(q, 0.0, None)
    return max(float((q * _divergences(dmc, q)).sum()), 0.0)


@dataclass(frozen=True)
class ProtocolConfig:
    n: int
    eps: float
    variant: str = "bsc"

    def __post_init__(self):
        if (isinstance(self.n, bool) or not isinstance(self.n, numbers.Integral)
                or self.n < 1):
            raise ValueError(f"block length must be a whole number >= 1, got {self.n!r}")
        if not self.eps > 0.0:  # NaN fails this too
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
        return {**asdict(self), "output": list(self.output)}


@dataclass(frozen=True)
class SharedRandomness:
    """Seed both parties hold; all randomness is derived, never stored.

    Streams are keyed: the first 16 bytes of sha256("seed|tag|indices"),
    read as a little-endian 128-bit integer, seed a PCG64DXSM generator
    through SeedSequence. PCG64DXSM advances exactly by any number of
    words (a 128-bit LCG jump, O(log i)), so the receiver can regenerate
    any single set element without replaying the sender's scan. Each
    shared set is one stream, bitgen("Z", *set index), whose words are
    cut into little-endian lanes (8 to 64 bits; several BSC members share
    a word), its members consecutive runs of lanes: the sender scans them
    in chunks, and the receiver advances straight to the word holding the
    one it was sent.
    """

    seed: int

    def __post_init__(self):
        object.__setattr__(self, "seed", int(self.seed) & (2 ** 64 - 1))

    def _key(self, tag: str, *idx) -> int:
        label = f"{self.seed}|{tag}|" + ",".join(str(int(i)) for i in idx)
        return int.from_bytes(hashlib.sha256(label.encode("ascii")).digest()[:16], "little")

    def bitgen(self, tag: str, *idx) -> PCG64DXSM:
        return PCG64DXSM(SeedSequence(self._key(tag, *idx)))

    def stream(self, tag: str, *idx) -> Generator:
        return Generator(self.bitgen(tag, *idx))

    def element_stream(self, tag: str, k: int, i: int) -> Generator:
        """The stream of element i of set k: stream(tag, k, i). The protocol
        never calls it; it stays because perfbench/ wraps it by name."""
        return self.stream(tag, k, i)

    def derive(self, tag: str, *idx) -> "SharedRandomness":
        return SharedRandomness(self._key(tag, *idx))


def _set_size(rate_bits: float, n: int, eps: float) -> int:
    exponent = n * (rate_bits + eps / 2.0)
    if exponent > MAX_SET_EXPONENT:
        raise ValueError(
            f"codeword set of 2^{exponent:.1f} elements exceeds the simulation budget")
    return max(math.ceil(2.0 ** exponent), 1)


def _index_width(size: int) -> int:
    # == ceil(log2(size)) for size >= 1, computed exactly
    return (size - 1).bit_length()


def _lanes(words: np.ndarray, lane_bits: int) -> np.ndarray:
    """Words read as little-endian unsigned lane_bits-bit lanes, lowest lane first."""
    return words.astype("<u8", copy=False).view(f"<u{lane_bits // 8}")


def _first_match(bg, size: int, width: int, hit, lane_bits: int):
    """Index of the first of size set members that hit flags, or None.

    Member i is lanes [i * width, (i + 1) * width) of bg's stream, its
    words cut into lane_bits-bit lanes (_lanes). The scan draws about
    _SCAN_CHUNK words at a time, drops the spare lanes past the last
    member, hands hit one row of lanes per member, and stops at the first
    chunk holding a match. A chunk holds whole words and whole members,
    as the layouts in use have width 1 or 64-bit lanes.
    """
    per_word = 64 // lane_bits
    rows = max(_SCAN_CHUNK * per_word // width, 1)
    for lo in range(0, size, rows):
        m = min(rows, size - lo)
        words = bg.random_raw(-(-m * width // per_word))
        lanes = _lanes(words, lane_bits)[:m * width].reshape(m, width)
        hits = np.flatnonzero(hit(lanes))
        if hits.size:
            return lo + int(hits[0])
    return None


def _member_words(bg, i: int, width: int, lane_bits: int) -> np.ndarray:
    """The lanes of member i alone, without drawing its predecessors.

    Advances bg to the word holding lane i * width, draws the words that
    hold the member's width lanes, and cuts them as _first_match does.
    """
    per_word = 64 // lane_bits
    first, off = divmod(i * width, per_word)  # word holding lane i * width
    bg.advance(first)
    return _lanes(bg.random_raw(-(-(off + width) // per_word)), lane_bits)[off:off + width]


def _substitute(shared: SharedRandomness, cfg: ProtocolConfig, d_out: int,
                rate: float, prefix: str, set_idx: tuple, member_width: int,
                lane_bits: int, draw, hit, decode):
    """The set-substitution game, shared by both channel kinds.

    The shared set holds _set_size(rate, n, eps) members; member i is
    lanes [i * member_width, (i + 1) * member_width) of the keyed stream
    bitgen("Z", *set_idx), read as little-endian lane_bits-bit lanes
    (_lanes), and decode maps rows of member lanes to output blocks. The
    sender draws its private output y = draw(priv) and sends prefix,
    then 0 and the index of the first member that hit(y) flags, or 1 and
    y as one big-endian base-d_out integer when no member matches.
    Members are iid, so the first match is a uniform pick among the
    matches. The receiver regenerates the sent member with
    _member_words, which is all it needs to decode.

    Returns (receiver's output block, Transcript).
    """
    size = _set_size(rate, cfg.n, cfg.eps)
    y = draw(shared.stream("private"))
    zset = ("Z",) + set_idx
    chosen = _first_match(shared.bitgen(*zset), size, member_width, hit(y), lane_bits)
    if chosen is not None:
        lanes = _member_words(shared.bitgen(*zset), chosen, member_width, lane_bits)
        y_out, direction = decode(lanes[None])[0], "0"
        width, payload = _index_width(size), chosen
    else:
        y_out, direction = y, "1"
        width, payload = _index_width(d_out ** cfg.n), block_code(y, d_out)
    message = prefix + direction + (format(payload, f"0{width}b") if width else "")
    tr = Transcript(bits_sent=len(message), fallback=direction == "1",
                    itc_bits=len(prefix), index_bits=width,
                    output=tuple(int(v) for v in y_out), message=message)
    return y_out, tr


def bsc_simulate(p: float, cfg: ProtocolConfig, shared: SharedRandomness, x):
    """One protocol run over the binary symmetric channel.

    The shared set Z holds ceil(2^(n(C+eps/2))) uniform n-bit strings:
    member i is the low n bits of lane i of one keyed stream, whose
    64-bit words are cut into the narrowest of 8-, 16-, 32- and 64-bit
    little-endian lanes that holds n bits (8 members per word at n <= 8,
    2 at n = 32). The sender privately simulates the channel, then
    transmits either (prefix 0, index of the first set member at the
    same Hamming distance from x) or (prefix 1, the raw simulated
    output). Swapping the simulated output for an equidistant set member
    leaves the output distribution exactly BSC(p)^n because the channel
    law is constant on each Hamming shell and set members are iid.

    Returns (receiver's output block, Transcript).
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"flip probability must be in (0, 1), got {p}")
    n = cfg.n
    if n > 64:
        raise ValueError("bit blocks above 64 are not supported")
    xs = letters(x, 2, n)
    lane_bits = next(b for b in (8, 16, 32, 64) if b >= n)
    lane = np.dtype(f"u{lane_bits // 8}").type
    x_lane, mask = lane(block_code(xs, 2)), lane((1 << n) - 1)
    shifts = np.arange(n - 1, -1, -1, dtype=lane)

    def hit(y):
        # members on y's Hamming shell around x
        dist = (y != xs).sum()
        return lambda lanes: np.bitwise_count((lanes[:, 0] & mask) ^ x_lane) == dist

    return _substitute(shared, cfg, 2, bsc_capacity(p), "", (), 1, lane_bits,
                       lambda priv: (xs ^ (priv.random(n) < p)).astype(np.int64),
                       hit, lambda lanes: (lanes >> shifts & lane(1)).astype(np.int64))


def _class_rate(dmc: DMC, tc: TypeClass) -> float:
    """Set-sizing rate of the general protocol: I(type of x, N)."""
    return constrained_mi(dmc, np.asarray(tc.counts, dtype=np.float64) / tc.n)


def _class_members(dmc: DMC, tc: TypeClass, words: np.ndarray) -> np.ndarray:
    """Members of class tc's shared set from their 2n words, one row each.

    A member is tc's letters ordered by its first n words, a uniform
    shuffle: each word's low ceil(log2 n) bits are replaced by the
    letter's position, so the keys are unique and the order is by the
    top 64 - ceil(log2 n) bits, ties broken by position (odds below
    C(n, 2) * 2^(ceil(log2 n) - 64)). Then the channel on those letters
    is driven by n uniforms, the top 53 bits of its other n words.
    """
    n = tc.n
    low = np.uint64((1 << (n - 1).bit_length()) - 1)
    keys = words[:, :n] & ~low | np.arange(n, dtype=np.uint64)
    xp = tc.letters()[np.argsort(keys, axis=1)]
    return dmc.outputs(xp, (words[:, n:] >> 11) * 2.0 ** -53)


def dmc_simulate(dmc: DMC, cfg: ProtocolConfig, shared: SharedRandomness, x):
    """One protocol run over a general discrete memoryless channel.

    The sender announces the letter-frequency class of x (its index among
    all count vectors, fixed width), then plays the set-substitution game
    within that class: the shared set, one keyed stream per class, holds
    outputs of the channel fed with uniform inputs of the same class
    (_class_members), and a set member replaces the privately simulated
    output when their pair-count matrices against x agree. The block
    transition law is constant on each such pair class, so the swap is
    exact.

    Returns (receiver's output block, Transcript).
    """
    n = cfg.n
    xs = letters(x, dmc.d_in, n)
    tc = type_of(xs, dmc.d_in)
    k = type_rank(tc.counts)
    itc_bits = _index_width(math.comb(n + dmc.d_in - 1, dmc.d_in - 1))
    decode = functools.partial(_class_members, dmc, tc)
    counts = functools.partial(pair_counts, xs, d_in=dmc.d_in, d_out=dmc.d_out)

    def hit(y):
        target = counts(y)
        return lambda words: (counts(decode(words)) == target).all(axis=1)

    prefix = format(k, f"0{itc_bits}b") if itc_bits else ""
    return _substitute(shared, cfg, dmc.d_out, _class_rate(dmc, tc), prefix, (k,),
                       2 * n, 64, lambda priv: dmc.sample_outputs(xs, priv), hit, decode)


def _channel_kind(channel):
    """The one dispatch on the channel kind.

    A flip probability (bit protocol) or a DMC (general protocol) maps to
    (DMC, capacity(), rate(x), simulate(cfg, shared, x), law(x, rows)),
    where rate(x) sizes the shared set for input block x and, given the
    block law rows = _block_law(DMC, len(x)), law gives the exact oracle
    the law of one set member over the output blocks (as ordered by
    _blocks) and an integer match label for each output block.
    """
    if isinstance(channel, DMC):
        d_in, d_out = channel.d_in, channel.d_out

        def law(x, rows):
            # members: channel outputs of a uniform input of x's type class;
            # a match shares y's joint type with x, which the sorted pair
            # letters a * d_out + b fix: their block code, below the
            # (d_in d_out)^n that the oracle's guard bounds, labels it
            n = len(x)
            same = (np.sort(_blocks(d_in, n), axis=1) == np.sort(x)).all(axis=1)
            pairs = np.sort(x * d_out + _blocks(d_out, n), axis=1)
            return rows[same].mean(axis=0), pairs @ (d_in * d_out) ** np.arange(n)

        return (channel, lambda: channel._capacity,
                lambda x: _class_rate(channel, type_of(x, d_in)),
                lambda cfg, shared, x: dmc_simulate(channel, cfg, shared, x), law)

    def law(x, rows):
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

    Integrates the protocol in closed form, building the block law once.
    For input block x, law(x, block law) gives m, one set member's law
    over the output blocks, and each block's match class; m(s) and t(s)
    are the member and true masses of class s. No member of M lands in s
    with odds miss(s) = (1 - m(s))^M, and a private output in s then
    falls back to itself. Given K_s > 0, the first member in s is
    distributed as m restricted to s, as members are iid. So the induced
    law on y' in class s is

        (1 - miss(s)) t(s) m(y') / m(s) + miss(s) true(y'),

    with m(y') / m(s) read as 0 where m(s) = 0. channel is a flip
    probability (bit protocol) or a DMC (general protocol). M comes from
    zsize (at least 1), or from eps via the protocol's own sizing rule.
    n, and eps where given, must pass ProtocolConfig's checks. Refuses
    block laws beyond ORACLE_MAX_COMBOS entries before building any.
    """
    if zsize is None and eps is None:
        raise ValueError("need either eps or an explicit set size")
    ProtocolConfig(n, 1.0 if eps is None else eps)
    if zsize is not None and zsize < 1:
        raise ValueError(f"set size zsize must be >= 1, got {zsize}")
    dmc, _, rate, _, law = _channel_kind(channel)
    entries = dmc.d_in ** n * dmc.d_out ** n
    if entries > ORACLE_MAX_COMBOS:
        raise ValueError(f"a block law of {entries} entries exceeds the enumeration guard")
    worst, rows = 0.0, _block_law(dmc, n)
    for x, true in zip(_blocks(dmc.d_in, n), rows):
        size = zsize if zsize is not None else _set_size(rate(x), n, eps)
        member, labels = law(x, rows)
        sig = np.unique(labels, return_inverse=True)[1]
        m_s, t_s = np.bincount(sig, member)[sig], np.bincount(sig, true)[sig]
        miss = (1.0 - m_s) ** size
        share = np.divide(member, m_s, out=np.zeros_like(member), where=m_s > 0)
        induced = (1.0 - miss) * t_s * share + miss * true
        worst = max(worst, float(np.max(np.abs(induced - true))))
    return worst


def _run_trials(kind, cfg: ProtocolConfig, trials: int, source, seed: int):
    """Trials 0, ..., trials - 1 of the protocol in order, trials >= 1.

    kind is _channel_kind(channel) and source is as in cost_statistics.
    Trial t runs on SharedRandomness(seed).derive("trial", t), a random
    source drawing its input from stream("input", t), so any trial
    reproduces alone. Returns (outputs, bits sent, fallback flags,
    itc_bits): a row or entry per trial, and the class prefix width.
    """
    dmc, _, _, simulate, _ = kind
    n = cfg.n
    base = SharedRandomness(seed)
    name, arg = source
    if name == "fixed":
        fixed = letters(arg, dmc.d_in, n)
        inputs = lambda t: fixed
    elif name == "iid":
        q = np.asarray(arg, dtype=np.float64)
        if not (q.ndim == 1 and q.size == dmc.d_in and abs(q.sum() - 1.0) <= 1e-9
                and np.all(q >= -1e-12)):  # NaN fails this too
            raise ValueError("iid source needs a distribution over the input alphabet")
        qcum = np.cumsum(q)
        qcum[-1] = 1.0  # as in DMC._cum: no uniform lands past the last letter
        inputs = lambda t: np.searchsorted(
            qcum, base.stream("input", t).random(n)).astype(np.int64)
    elif name == "itc-uniform":
        tc = TypeClass(tuple(arg))
        if tc.n != n or tc.d != dmc.d_in:
            raise ValueError("type counts must sum to n over the input alphabet")
        inputs = lambda t: sample_from_type(tc, base.stream("input", t))
    else:
        raise ValueError(f"unknown source kind {name!r}")

    outputs = np.empty((trials, n), dtype=np.int64)
    bits, fell = np.empty(trials), np.empty(trials, dtype=bool)
    for t in range(trials):
        outputs[t], tr = simulate(cfg, base.derive("trial", t), inputs(t))
        bits[t], fell[t] = tr.bits_sent, tr.fallback
    return outputs, bits, fell, tr.itc_bits


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
    kind = _channel_kind(channel)
    dmc, n = kind[0], cfg.n
    if dmc.d_out ** n > 10 ** 4:
        raise ValueError("output space too large to bin")
    xs = letters(x, dmc.d_in, n) if x is not None else np.zeros(n, dtype=np.int64)
    exact = functools.reduce(np.kron, dmc.matrix[xs])
    outputs = _run_trials(kind, cfg, trials, ("fixed", xs), seed)[0]
    hist = np.bincount([block_code(y, dmc.d_out) for y in outputs],
                       minlength=dmc.d_out ** n)

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
    each with a standard error; the mean's standard error is None for a
    single trial. Raises ValueError for fewer than one trial.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    kind, n = _channel_kind(channel), cfg.n
    cap = kind[1]()
    _, bits, fell, itc_bits = _run_trials(kind, cfg, trials, source, seed)

    mean_bits = float(bits.mean()) / n
    sem_bits = float(bits.std(ddof=1)) / n / math.sqrt(trials) if trials > 1 else None
    p_exc = float((bits > n * (cap + cfg.eps)).mean())
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
