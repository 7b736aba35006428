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
from dataclasses import asdict, dataclass

import numpy as np
from numpy.random import PCG64DXSM, Generator, SeedSequence

from .qmath import _check_count, _check_distribution, _check_probability, entropy_of_spectrum
from .typeclasses import (TypeClass, _joint_type_labels, block_code, letters, sample_from_type,
                          type_of, type_rank)

BA_MAX_ITERS = 10 ** 6
MAX_SET_EXPONENT = 26.0  # sets beyond ~6.7e7 members are not scannable here
ORACLE_MAX_COMBOS = 10 ** 7
# Shared-set words drawn per step of a scan. At 2^14 no array a chunk
# makes (its 128 KiB of words, and for 512 DMC members at n = 16 the sort
# keys, which become the positions, the letters, the shifted words, a
# column's gathered thresholds, the outputs and the labels of about
# 64 KiB each) is large enough for glibc's malloc to map fresh pages for
# it, and they fit a 2 MiB L2 cache. Measured when DMC members still
# formed uniform arrays (a pass still takes about 1 fault at 2^14
# without them):
# in a fresh process a 16-trial pass of the 2 -> 3 DMC at n = 16 took 1
# minor page fault at 2^14, 2,764 at 2^15 and 5,337 at 2^16. Against 2^16 the pass ran 1.30x faster at 2^12, 1.49x at 2^13,
# 1.62x at 2^14 and 1.64x at 2^15, and 8 BSC trials at n = 32 ran 0.94x,
# 1.10x, 1.17x and 1.19x (medians of 40 runs, 2-vCPU Xeon VM, one
# thread). Head to head over 60 runs, 2^14 was 1.19x faster than 2^15 on
# the DMC pass and 5% slower on the BSC trials.
_SCAN_CHUNK = 1 << 14


class DMC:
    """Discrete memoryless channel: row-stochastic transition table.

    Row x holds the output distribution P(y | input x). One rule drives
    every channel use here, from one 64-bit stream word: with k its top
    53 bits, the output on letter x is the number of columns
    c < d_out - 1 with k >= K[c, x] = floor(cum[x, c] 2^53) + 1, cum
    being the row's running sums. That is inverse-CDF sampling on the
    uniform u = k 2^-53, as u > cum[x, c] holds exactly when
    k >= K[c, x]; for PCG64DXSM, u is the stream's random().
    """

    def __init__(self, matrix):
        mat = _check_distribution(matrix, "transition matrix")
        if mat.ndim != 2:
            raise ValueError("transition matrix must be 2-d")
        mat.setflags(write=False)
        self.matrix = mat
        # K, one row per column c < d_out - 1: the scaling by 2^53 is exact,
        # and the + 1 comes after the cast, as 2^53 + 1 is not a double (a
        # cumulative 1.0 gives K = 2^53 + 1, past every k)
        scaled = np.floor(np.cumsum(mat, axis=1)[:, :-1].T * 2.0 ** 53)
        self._thresholds = scaled.astype(np.uint64) + np.uint64(1)
        self._class_rates = {}  # TypeClass.counts -> _class_rate, filled as classes come up

    @property
    def d_in(self) -> int:
        return self.matrix.shape[0]

    @property
    def d_out(self) -> int:
        return self.matrix.shape[1]

    def outputs(self, x: np.ndarray, words: np.ndarray) -> np.ndarray:
        """Channel outputs on inputs x, each driven by the uint64 word in
        words at its place, by the rule in the class docstring."""
        k = words >> np.uint64(11)
        y = np.zeros(np.shape(x), dtype=np.int64)
        for column in self._thresholds:  # a k past every one of these gives d_out - 1
            y += k >= column[x]
        return y

    def sample_outputs(self, x: np.ndarray, rng: Generator) -> np.ndarray:
        """One channel use per letter of x (DMC.outputs), consuming len(x) raw words of rng."""
        return self.outputs(x, rng.bit_generator.random_raw(len(x)))

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
    _check_probability(p, "flip probability")
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
    q = _check_distribution(q, "q", dmc.d_in)
    return max(float((q * _divergences(dmc, q)).sum()), 0.0)


@dataclass(frozen=True)
class ProtocolConfig:
    n: int
    eps: float
    variant: str = "bsc"

    def __post_init__(self):
        _check_count(self.n, "block length")
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
    chunk holding a match, whose first flagged row argmax finds. A chunk
    holds whole words and whole members, as the layouts in use have width
    1 or 64-bit lanes, so the chunk size never changes which member is sent.
    """
    per_word = 64 // lane_bits
    rows = max(_SCAN_CHUNK * per_word // width, 1)
    for lo in range(0, size, rows):
        m = min(rows, size - lo)
        words = bg.random_raw(-(-m * width // per_word))
        flags = hit(_lanes(words, lane_bits)[:m * width].reshape(m, width))
        first = int(flags.argmax())
        if flags[first]:
            return lo + first
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
                lane_bits: int, draw, label, member_label, decode):
    """The set-substitution game, shared by both channel kinds.

    The shared set holds _set_size(rate, n, eps) members; member i is
    lanes [i * member_width, (i + 1) * member_width) of the keyed stream
    bitgen("Z", *set_idx), read as little-endian lane_bits-bit lanes
    (_lanes), and decode maps rows of member lanes to output blocks. The
    sender draws its private output y = draw(priv) and sends prefix,
    then 0 and the index of the first member whose member_label (of its
    row of lanes) equals label(y), or 1 and y as one big-endian
    base-d_out integer when no member matches. Members are iid, so the
    first match is a uniform pick among the matches. The receiver
    regenerates the sent member with _member_words, which is all it
    needs to decode.

    Returns (receiver's output block, Transcript).
    """
    size = _set_size(rate, cfg.n, cfg.eps)
    y = draw(shared.stream("private"))
    target, zset = label(y), ("Z",) + set_idx
    chosen = _first_match(shared.bitgen(*zset), size, member_width,
                          lambda lanes: member_label(lanes) == target, lane_bits)
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
    _check_probability(p, "flip probability")
    n = cfg.n
    if n > 64:
        raise ValueError("bit blocks above 64 are not supported")
    xs = letters(x, 2, n)
    lane_bits = next(b for b in (8, 16, 32, 64) if b >= n)
    lane = np.dtype(f"u{lane_bits // 8}").type
    x_lane, mask = lane(block_code(xs, 2)), lane((1 << n) - 1)
    shifts = np.arange(n - 1, -1, -1, dtype=lane)
    # labels: a block's Hamming distance from x, as a packed member's popcount finds it
    return _substitute(shared, cfg, 2, bsc_capacity(p), "", (), 1, lane_bits,
                       lambda priv: (xs ^ (priv.random(n) < p)).astype(np.int64),
                       lambda y: (y != xs).sum(),
                       lambda lanes: np.bitwise_count((lanes[:, 0] & mask) ^ x_lane),
                       lambda lanes: (lanes >> shifts & lane(1)).astype(np.int64))


def _class_rate(dmc: DMC, tc: TypeClass) -> float:
    """Set-sizing rate of the general protocol: I(type of x, N), computed
    once per class, as the transition table is read-only."""
    rate = dmc._class_rates.get(tc.counts)
    if rate is None:
        rate = constrained_mi(dmc, np.asarray(tc.counts, dtype=np.float64) / tc.n)
        dmc._class_rates[tc.counts] = rate
    return rate


def _class_members(dmc: DMC, tc: TypeClass, words: np.ndarray) -> np.ndarray:
    """Members of class tc's shared set from their 2n words, one row each.

    A member is tc's letters ordered by its first n words, a uniform
    shuffle: each word's low ceil(log2 n) bits are replaced by the
    letter's position, so the keys are unique and the order is by the
    top 64 - ceil(log2 n) bits, ties broken by position (odds below
    C(n, 2) * 2^(ceil(log2 n) - 64)). The sorted keys' low bits are then
    that order, with no argsort. The channel on those letters is driven
    by the other n words: place j's output is DMC.outputs on the letter
    at place j and word n + j.
    """
    n = tc.n
    low = np.uint64((1 << (n - 1).bit_length()) - 1)
    keys = words[:, :n] & ~low
    keys |= np.arange(n, dtype=np.uint64)
    keys.sort(axis=1)
    keys &= low
    pos = keys.view(np.int64)  # uint64 indices would be cast
    return dmc.outputs(tc.letters()[pos], words[:, n:])


def dmc_simulate(dmc: DMC, cfg: ProtocolConfig, shared: SharedRandomness, x):
    """One protocol run over a general discrete memoryless channel.

    The sender announces the letter-frequency class of x (its index among
    all count vectors, fixed width), then plays the set-substitution game
    within that class: the shared set, one keyed stream per class, holds
    outputs of the channel fed with uniform inputs of the same class
    (_class_members), and a set member replaces the privately simulated
    output when it has the same joint type with x, that is the same
    _joint_type_labels label. The block transition law is constant on
    each such pair class, so the swap is exact.

    Returns (receiver's output block, Transcript).
    """
    n = cfg.n
    xs = letters(x, dmc.d_in, n)
    tc = type_of(xs, dmc.d_in)
    k = type_rank(tc.counts)
    itc_bits = _index_width(math.comb(n + dmc.d_in - 1, dmc.d_in - 1))
    decode = functools.partial(_class_members, dmc, tc)
    label = _joint_type_labels(xs, dmc.d_in, dmc.d_out)
    prefix = format(k, f"0{itc_bits}b") if itc_bits else ""
    return _substitute(shared, cfg, dmc.d_out, _class_rate(dmc, tc), prefix, (k,),
                       2 * n, 64, lambda priv: dmc.sample_outputs(xs, priv), label,
                       lambda words: label(decode(words)), decode)


def _channel_kind(channel):
    """The one dispatch on the channel kind.

    A flip probability (bit protocol) or a DMC (general protocol) maps to
    (DMC, capacity(), rate(x), simulate(cfg, shared, x), members(rows, xs),
    label(x)), where rate(x) sizes the shared set for input block x and
    depends on x only through its member class. Given the block law rows
    and the input blocks xs, members gives the exact oracle each block's
    member class and, per class, one set member's law over the output
    blocks; label(x) maps output blocks, one per row, to their match
    labels, one value per block, which the simulators' match rule
    compares: a member replaces y when its label equals y's.
    """
    if isinstance(channel, DMC):
        d_in, d_out = channel.d_in, channel.d_out

        def members(rows, xs):
            # the channel on a uniform input of x's type: the mean row of x's
            # type class, which the code of the sorted block names
            cls = np.unique(np.sort(xs, axis=1) @ d_in ** np.arange(xs.shape[1]),
                            return_inverse=True)[1]
            return cls, np.array([rows[cls == c].mean(axis=0) for c in range(cls.max() + 1)])

        return (channel, lambda: channel._capacity,
                lambda x: _class_rate(channel, type_of(x, d_in)),
                lambda cfg, shared, x: dmc_simulate(channel, cfg, shared, x), members,
                lambda x: _joint_type_labels(x, d_in, d_out))  # a match shares y's joint type

    p = float(channel)
    return (bsc(p), lambda: bsc_capacity(p), lambda x: bsc_capacity(p),
            lambda cfg, shared, x: bsc_simulate(p, cfg, shared, x),
            # members are uniform words, one class; a match lies on y's Hamming shell
            lambda rows, xs: (np.zeros(len(xs), dtype=np.intp),
                              np.full((1, rows.shape[1]), 1.0 / rows.shape[1])),
            lambda x: lambda ys: (ys != x).sum(axis=1))


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

    Integrates the protocol in closed form, building the block law and the
    member laws once. For input block x, m is its class's member law, and
    one np.unique of label(x) over the output blocks groups them into
    match classes, the blocks sharing one label; m(s) and t(s) are the
    member and true masses of class s. No member of M lands in s with
    odds miss(s) = (1 - m(s))^M, and a private output in s then falls
    back to itself. Otherwise the first member in s is distributed as m
    restricted to s, as members are iid. So the induced law on y' in
    class s is

        (1 - miss(s)) t(s) m(y') / m(s) + miss(s) true(y'),

    with m(y') / m(s) read as 0 where m(s) = 0. channel is a flip
    probability (bit protocol) or a DMC (general protocol). M comes from
    exactly one of zsize (at least 1) and eps, through the protocol's own
    sizing rule, applied once per member class; both or neither raise
    ValueError. n, and eps where given, must pass ProtocolConfig's checks.
    Refuses block laws beyond ORACLE_MAX_COMBOS entries before building any.
    """
    if (zsize is None) == (eps is None):
        raise ValueError("need exactly one of eps and an explicit set size zsize")
    ProtocolConfig(n, 1.0 if eps is None else eps)
    if zsize is not None:
        _check_count(zsize, "set size zsize")
    dmc, _, rate, _, members, label = _channel_kind(channel)
    entries = dmc.d_in ** n * dmc.d_out ** n
    if entries > ORACLE_MAX_COMBOS:
        raise ValueError(f"a block law of {entries} entries exceeds the enumeration guard")
    rows, xs, ys = _block_law(dmc, n), _blocks(dmc.d_in, n), _blocks(dmc.d_out, n)
    classes, laws = members(rows, xs)
    if zsize is None:  # one rate per member class, read off its first block
        sizes = [_set_size(rate(xs[i]), n, eps)
                 for i in np.unique(classes, return_index=True)[1]]
    else:
        sizes = [zsize] * len(laws)
    worst = 0.0
    for x, true, c in zip(xs, rows, classes):
        member, sig = laws[c], np.unique(label(x)(ys), return_inverse=True)[1]
        m_s, t_s = np.bincount(sig, member)[sig], np.bincount(sig, true)[sig]
        miss = (1.0 - m_s) ** sizes[c]
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
    dmc, _, _, simulate, _, _ = kind
    n = cfg.n
    base = SharedRandomness(seed)
    name, arg = source
    if name == "fixed":
        fixed = letters(arg, dmc.d_in, n)
        inputs = lambda t: fixed
    elif name == "iid":
        # the law as a one-row channel: its output on letter 0 is the input
        law, zeros = DMC([_check_distribution(arg, "iid source", dmc.d_in)]), np.zeros(n, int)
        inputs = lambda t: law.sample_outputs(zeros, base.stream("input", t))
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

    _check_count(trials, "trial count")
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
    single trial. Raises ValueError unless trials is a whole number >= 1.
    """
    _check_count(trials, "trial count")
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
