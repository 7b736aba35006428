import dataclasses
import hashlib
import itertools
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

import qcap.reverse_shannon as rs
from qcap.reverse_shannon import (
    DMC,
    ProtocolConfig,
    SharedRandomness,
    Transcript,
    ba_capacity,
    bsc,
    bsc_capacity,
    bsc_simulate,
    constrained_mi,
    cost_statistics,
    dmc_simulate,
    empirical_faithfulness,
    exact_faithfulness_oracle,
)
from qcap.reverse_shannon import (
    _channel_kind,
    _class_members,
    _class_rate,
    _first_match,
    _index_width,
    _member_words,
    _run_trials,
    _set_size,
)
from qcap.typeclasses import (TypeClass, block_code, enumerate_types, joint_type, pair_counts,
                              type_of, type_rank)


def test_dmc_validation():
    with pytest.raises(ValueError):
        DMC([[0.5, 0.4], [0.5, 0.5]])  # row sums off
    with pytest.raises(ValueError):
        DMC([[1.5, -0.5], [0.5, 0.5]])  # entries outside [0, 1]
    with pytest.raises(ValueError):
        DMC([[float("nan"), 1.0], [0.5, 0.5]])  # NaN fails the range check
    with pytest.raises(ValueError, match="2-d"):
        DMC([0.5, 0.5])  # one law, not a table
    with pytest.raises(ValueError):
        constrained_mi(DMC([[0.7, 0.3], [0.2, 0.8]]), [float("nan"), 1.0])
    d = DMC([[0.7, 0.3], [0.2, 0.8]])
    assert d.d_in == 2 and d.d_out == 2
    d.matrix[0, 0]  # readable
    with pytest.raises(ValueError):
        d.matrix[0, 0] = 0.9  # frozen


def test_dmc_sample_outputs_stays_in_alphabet():
    # every word 2^64 - 1, so k = 2^53 - 1, the largest top-53-bit value
    top_words = SimpleNamespace(bit_generator=SimpleNamespace(
        random_raw=lambda size: np.full(size, 2 ** 64 - 1, dtype=np.uint64)))
    # passes validation, but its row sums round below 1
    d = DMC([[0.5, 0.5 - 5e-13], [0.5, 0.5]])
    assert d.sample_outputs(np.array([0, 1]), top_words).tolist() == [1, 1]


def test_dmc_json_round_trip():
    d = DMC([[0.7, 0.2, 0.1], [0.0, 0.5, 0.5]])
    d2 = DMC.from_json(d.to_json())
    assert np.allclose(d.matrix, d2.matrix, atol=0)


def test_bsc_matrix():
    d = bsc(0.3)
    assert np.allclose(d.matrix, [[0.7, 0.3], [0.3, 0.7]], atol=0)
    assert bsc_capacity(0.5) == pytest.approx(0.0, abs=1e-15)
    assert bsc_capacity(0.0) == 1.0 and bsc_capacity(1.0) == 1.0
    for p in (0.05, 0.1, 0.3, 0.5, 0.9):
        h2 = -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)
        assert abs(bsc_capacity(p) - (1.0 - h2)) <= 1e-15, p


def test_blahut_arimoto_closed_forms():
    lo, q = ba_capacity(bsc(0.1))
    assert lo == pytest.approx(0.5310044064107188, abs=5e-11)
    assert q == pytest.approx([0.5, 0.5], abs=1e-6)
    lo, _ = ba_capacity(bsc(0.3))
    assert lo == pytest.approx(0.1187091007693073, abs=5e-11)
    lo, _ = ba_capacity(DMC([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert lo == pytest.approx(math.log2(3.0), abs=1e-9)
    # erasure with probability e: capacity 1 - e
    e = 0.35
    lo, _ = ba_capacity(DMC([[1 - e, 0, e], [0, 1 - e, e]]))
    assert lo == pytest.approx(1 - e, abs=1e-9)
    # asymmetric case with known optimum: log2(5/4) at q = (0.6, 0.4)
    lo, q = ba_capacity(DMC([[1.0, 0.0], [0.5, 0.5]]))
    assert lo == pytest.approx(math.log2(1.25), abs=1e-9)
    assert q == pytest.approx([0.6, 0.4], abs=1e-5)


def test_constrained_mi_at_optimum_equals_capacity():
    d = DMC([[1.0, 0.0], [0.5, 0.5]])
    cap, q = ba_capacity(d, tol=1e-12)
    assert constrained_mi(d, q) == pytest.approx(cap, abs=1e-10)
    assert constrained_mi(d, [0.5, 0.5]) <= cap + 1e-12
    with pytest.raises(ValueError):
        constrained_mi(d, [0.5, 0.5, 0.0])
    with pytest.raises(ValueError):
        constrained_mi(d, [0.7, 0.7])
    with pytest.raises(ValueError):
        constrained_mi(d, [1.2, -0.2])


def _per_letter_mi(dmc, q):
    # the per-letter reference: a row's terms over its entries with N > 0
    q = np.asarray(q, dtype=np.float64)
    out, total = q @ dmc.matrix, 0.0
    for x in range(dmc.d_in):
        if q[x] <= 0.0:
            continue
        row = dmc.matrix[x]
        mask = row > 0.0
        total += q[x] * float(np.sum(row[mask] * np.log2(row[mask] / out[mask])))
    return max(total, 0.0)


def test_constrained_mi_matches_per_letter_reference():
    sim = DMC([[0.8, 0.15, 0.05], [0.1, 0.2, 0.7]])
    for tc in enumerate_types(16, 2):
        q = np.asarray(tc.counts, dtype=np.float64) / 16
        assert constrained_mi(sim, q) == _per_letter_mi(sim, q), tc.counts
    eye, third = DMC(np.eye(3)), np.array([4, 4, 4], dtype=np.float64) / 12
    assert constrained_mi(eye, third) == _per_letter_mi(eye, third)
    # letter 1 alone reaches output 2, and q never uses it
    lone = DMC([[0.7, 0.3, 0.0], [0.2, 0.3, 0.5], [0.4, 0.6, 0.0]])
    for q in ([0.5, 0.0, 0.5], [1.0, 0.0, 0.0], [0.25, 0.0, 0.75]):
        assert constrained_mi(lone, q) == _per_letter_mi(lone, q), q
    # set sizes at the rounding boundary: a differently grouped divergence
    # gives 17 and 4,251,529 here
    assert _set_size(constrained_mi(sim, [1.0, 0.0]), 16, 0.5) == 16
    assert _set_size(constrained_mi(eye, third), 12, 0.5) == 4_251_528


def test_ba_capacity_rejects_bad_tol_at_once():
    import time

    d = DMC([[0.8, 0.15, 0.05], [0.1, 0.2, 0.7]])
    for tol in (float("nan"), -1e-10):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="tol"):
            ba_capacity(d, tol)
        assert time.perf_counter() - start < 1.0, tol


def test_protocol_config_validation():
    with pytest.raises(ValueError):
        ProtocolConfig(n=0, eps=0.1, variant="bsc")
    with pytest.raises(ValueError):
        ProtocolConfig(n=4, eps=0.0, variant="bsc")
    with pytest.raises(ValueError):
        ProtocolConfig(n=4, eps=float("nan"), variant="bsc")
    with pytest.raises(ValueError):
        ProtocolConfig(n=4, eps=0.1, variant="qubit")
    # a fractional or boolean block length used to fail deep in the protocol
    for n in (2.5, True):
        with pytest.raises(ValueError):
            ProtocolConfig(n, 1.0)
    assert ProtocolConfig(np.int64(4), 1.0).n == 4


def test_set_sizing_and_budget_guard():
    assert _set_size(bsc_capacity(0.1), 8, 0.25) == 39
    assert _index_width(39) == 6
    assert _index_width(1) == 0
    with pytest.raises(ValueError):
        _set_size(bsc_capacity(0.1), 64, 0.25)  # 2^42 words


def test_shared_randomness_determinism_and_tag_separation():
    a = SharedRandomness(123)
    b = SharedRandomness(123)
    assert a.stream("x").random(5) == pytest.approx(b.stream("x").random(5))
    assert not np.allclose(a.stream("x").random(5), a.stream("y").random(5))
    assert not np.allclose(a.stream("x", 0).random(5), a.stream("x", 1).random(5))
    # derive() gives an independent child with the same type
    child = a.derive("trial", 7)
    assert isinstance(child, SharedRandomness)
    assert child.seed != a.seed


def test_bsc_simulate_frozen_transcript():
    cfg = ProtocolConfig(n=8, eps=0.25, variant="bsc")
    y, tr = bsc_simulate(0.1, cfg, SharedRandomness(0), [0] * 8)
    assert not tr.fallback
    assert tr.bits_sent == 7 and tr.index_bits == 6 and tr.itc_bits == 0
    assert tr.message == "0011001"
    assert tr.output == (0, 1, 0, 0, 0, 0, 0, 0)
    assert tuple(int(v) for v in y) == tr.output


def test_bsc_simulate_receiver_decode():
    # receiver reconstructs the output from the message and shared key alone
    cfg = ProtocolConfig(n=8, eps=0.25, variant="bsc")
    sh = SharedRandomness(0)
    y, tr = bsc_simulate(0.1, cfg, sh, [0] * 8)
    assert tr.message[0] == "0"
    idx = int(tr.message[1:], 2)
    lane = int(_member_words(sh.bitgen("Z"), idx, 1, 8)[0])  # 8-bit lanes at n=8
    decoded = tuple((lane >> (7 - j)) & 1 for j in range(8))
    assert decoded == tr.output


def test_bsc_simulate_accepts_strings_and_is_deterministic():
    cfg = ProtocolConfig(n=8, eps=0.25, variant="bsc")
    y1, t1 = bsc_simulate(0.1, cfg, SharedRandomness(5), "01100001")
    y2, t2 = bsc_simulate(0.1, cfg, SharedRandomness(5), [0, 1, 1, 0, 0, 0, 0, 1])
    assert t1 == t2
    assert len(t1.message) == t1.bits_sent


def test_bsc_simulate_fallback_path():
    # a near-noiseless channel with tiny eps keeps the shared set small,
    # so misses are common and the raw path gets exercised
    cfg = ProtocolConfig(n=4, eps=1e-9, variant="bsc")
    hits = 0
    for seed in range(30):
        y, tr = bsc_simulate(0.02, cfg, SharedRandomness(seed), [0, 1, 1, 0])
        assert len(tr.message) == tr.bits_sent
        if tr.fallback:
            hits += 1
            assert tr.message[0] == "1"
            assert tr.bits_sent == 1 + 4
            assert tuple(int(b) for b in tr.message[1:]) == tr.output
    assert hits > 0


def test_bsc_simulate_guards():
    cfg = ProtocolConfig(n=65, eps=0.25, variant="bsc")
    with pytest.raises(ValueError):
        bsc_simulate(0.1, cfg, SharedRandomness(0), [0] * 65)
    cfg = ProtocolConfig(n=4, eps=0.25, variant="bsc")
    for p in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError, match=r"flip probability must lie in \[0, 1\]"):
            bsc_simulate(p, cfg, SharedRandomness(0), [0] * 4)
    with pytest.raises(ValueError):
        bsc_simulate(0.1, cfg, SharedRandomness(0), [0] * 3)  # length mismatch
    with pytest.raises(ValueError):
        bsc_simulate(0.1, cfg, SharedRandomness(0), [0, 2, 0, 0])


def test_bsc_simulate_at_flip_probability_zero_and_one():
    # p = 0 and 1 are channels like any other: bsc, the oracle and the
    # protocol all take them (the protocol used to refuse both)
    cfg = ProtocolConfig(n=8, eps=0.25, variant="bsc")
    x = np.array([0, 1, 1, 0, 1, 0, 0, 1])
    for p, want in ((0.0, x), (1.0, 1 - x)):
        fell = set()
        for seed in range(40):
            y, tr = bsc_simulate(p, cfg, SharedRandomness(seed), x)
            assert y.tolist() == want.tolist() and list(tr.output) == want.tolist(), (p, seed)
            fell.add(tr.fallback)
        assert fell == {False, True}, p  # both paths ran
        assert exact_faithfulness_oracle(p, 4, eps=0.25) <= 1e-12
        assert exact_faithfulness_oracle(p, 3, zsize=5) <= 1e-12


def test_type_rank_matches_enumeration_order():
    for n, d in ((5, 2), (4, 3), (3, 4)):
        for rank, tc in enumerate(enumerate_types(n, d)):
            assert type_rank(tc.counts) == rank


def test_dmc_simulate_announces_class_and_preserves_joint_type():
    d = DMC([[0.75, 0.25], [0.25, 0.75]])
    cfg = ProtocolConfig(n=6, eps=0.5, variant="general")
    x = [0, 0, 1, 0, 0, 0]
    y, tr = dmc_simulate(d, cfg, SharedRandomness(3), x)
    assert tr.itc_bits == _index_width(math.comb(7, 1)) == 3
    assert len(tr.message) == tr.bits_sent == tr.itc_bits + 1 + tr.index_bits
    if not tr.fallback:
        # replaying the private channel shows the swap kept the pair counts
        priv = SharedRandomness(3).stream("private")
        y_priv = d.sample_outputs(np.asarray(x), priv)
        assert np.array_equal(joint_type(x, list(y_priv), 2, 2),
                              joint_type(x, list(int(v) for v in y), 2, 2))


def test_dmc_simulate_deterministic():
    d = DMC([[0.6, 0.3, 0.1], [0.1, 0.2, 0.7]])
    cfg = ProtocolConfig(n=5, eps=0.8, variant="general")
    runs = [dmc_simulate(d, cfg, SharedRandomness(17), [0, 1, 0, 1, 1])
            for _ in range(2)]
    assert runs[0][1] == runs[1][1]
    assert np.array_equal(runs[0][0], runs[1][0])


def test_dmc_simulate_frozen_transcript():
    d = DMC([[0.6, 0.3, 0.1], [0.1, 0.2, 0.7]])
    x = [0, 1, 0, 1, 1]
    y, tr = dmc_simulate(d, ProtocolConfig(n=5, eps=0.8, variant="general"),
                         SharedRandomness(1), x)
    assert tr.fallback
    assert tr.message == "011101000111"
    assert (tr.bits_sent, tr.itc_bits, tr.index_bits) == (12, 3, 8)
    assert tr.output == (0, 2, 1, 2, 2)
    assert tuple(int(v) for v in y) == tr.output

    y, tr = dmc_simulate(d, ProtocolConfig(n=5, eps=0.8, variant="general"),
                         SharedRandomness(13), x)
    assert not tr.fallback
    assert tr.message == "01100010"
    assert (tr.bits_sent, tr.itc_bits, tr.index_bits) == (8, 3, 4)
    assert tr.output == (0, 1, 0, 2, 1)
    assert tuple(int(v) for v in y) == tr.output

    y, tr = dmc_simulate(d, ProtocolConfig(n=5, eps=1e-9, variant="general"),
                         SharedRandomness(0), x)
    assert not tr.fallback
    assert tr.message == "011000"
    assert (tr.bits_sent, tr.itc_bits, tr.index_bits) == (6, 3, 2)
    assert tr.output == (0, 2, 0, 2, 2)
    assert tuple(int(v) for v in y) == tr.output


def test_dmc_batch_members_match_reference():
    # every member decoded from the scan's batches is the receiver's lone
    # regeneration of it, for member widths 2n from 2 to 32 words
    shared = SharedRandomness(11)
    classes = {2: [(1, 0), (0, 1), (5, 0), (2, 3), (0, 16), (9, 7)],
               3: [(0, 1, 0), (2, 0, 3), (16, 0, 0), (7, 0, 9), (5, 5, 6)]}
    for matrix in ([[0.9, 0.1], [0.2, 0.8]], [[0.6, 0.3, 0.1], [0.1, 0.2, 0.7]],
                   [[0.7, 0.3], [0.4, 0.6], [0.1, 0.9]],
                   [[0.5, 0.3, 0.2], [0.1, 0.1, 0.8], [0.3, 0.4, 0.3]]):
        d = DMC(matrix)
        for counts in classes[d.d_in]:
            tc, k = TypeClass(counts), type_rank(counts)
            size, width = _set_size(_class_rate(d, tc), tc.n, 0.5), 2 * tc.n
            batches = []

            def record(words):
                batches.append(_class_members(d, tc, words))
                return np.zeros(len(words), dtype=bool)

            assert _first_match(shared.bitgen("Z", k), size, width, record, 64) is None
            batch = np.concatenate(batches)
            assert batch.shape == (size, tc.n)
            for i in range(size):
                alone = _member_words(shared.bitgen("Z", k), i, width, 64)
                assert np.array_equal(batch[i], _class_members(d, tc, alone[None])[0]), (
                    matrix, counts, i)


def test_dmc_member_law_matches_oracle_law():
    from scipy.stats import chisquare

    d = DMC([[0.6, 0.3, 0.1], [0.1, 0.2, 0.7]])
    x = np.array([0, 1, 1])
    tc = type_of(x, 2)
    words = SharedRandomness(1).bitgen("Z", type_rank(tc.counts)).random_raw(60000 * 6)
    members = _class_members(d, tc, words.reshape(60000, 6))
    hist = np.bincount(members @ [9, 3, 1], minlength=27)
    xs = rs._blocks(2, 3)
    classes, laws = _channel_kind(d).members(rs._block_law(d, 3), xs)
    assert np.array_equal(xs[3], x)
    assert chisquare(hist, laws[classes[3]] * 60000).pvalue > 1e-3


def test_member_thresholds_match_float_rule():
    # DMC.outputs, _class_members and sample_outputs against the inverse CDF
    # on u = k 2^-53: the number of columns c < d_out - 1 with u > cum[a, c],
    # at and around every threshold floor(cum 2^53) + 1, the low 11 bits of
    # each word ignored; a cumulative entry of 1.0 before the last column
    # puts its threshold past every k
    top, rng = 2 ** 53 - 1, np.random.default_rng(5)
    for matrix in ([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5]],
                   [[1.0 - 2.0 ** -53, 2.0 ** -53, 0.0], [0.3, 0.3, 0.4]],
                   [[0.0, 0.25, 0.0, 0.75], [0.5, 0.0, 0.5, 0.0], [0.0, 0.0, 0.0, 1.0]],
                   [[0.8, 0.15, 0.05], [0.1, 0.2, 0.7]], [[1.0], [1.0]]):
        d, cum = DMC(matrix), np.cumsum(matrix, axis=1)
        for a in range(d.d_in):
            near = [int(c * 2.0 ** 53) + 1 + step for c in cum[a, :-1] for step in (-1, 0, 1)]
            ks = np.array(sorted({v for v in [0, top] + near if 0 <= v <= top}), dtype=np.uint64)
            words = ks << np.uint64(11) | rng.integers(0, 2 ** 11, len(ks), dtype=np.uint64)
            want = (ks[:, None] * 2.0 ** -53 > cum[a, :-1]).sum(axis=1)
            x = np.full(len(ks), a)
            assert np.array_equal(d.outputs(x, words), want), (matrix, a)
            raw = SimpleNamespace(bit_generator=SimpleNamespace(random_raw=lambda size: words))
            assert np.array_equal(d.sample_outputs(x, raw), want), (matrix, a)
            keyed = np.stack([rng.integers(0, 2 ** 63, len(ks), dtype=np.uint64), words], axis=1)
            counts = np.eye(d.d_in, dtype=int)[a]
            got = _class_members(d, TypeClass(tuple(counts)), keyed)[:, 0]
            assert np.array_equal(got, want), (matrix, a)
    # a one-output channel's members are all zeros on any class
    words = rng.integers(0, 2 ** 63, (4, 10), dtype=np.uint64)
    assert _class_members(DMC([[1.0], [1.0]]), TypeClass((2, 3)), words).tolist() == [[0] * 5] * 4
    # PCG64DXSM's random() is exactly (raw word >> 11) 2^-53, so a private
    # draw is the inverse CDF on the stream's own uniforms
    for matrix in ([[0.8, 0.15, 0.05], [0.1, 0.2, 0.7]], [[0.3, 0.3, 0.4], [1.0, 0.0, 0.0]],
                   [[0.0, 0.25, 0.0, 0.75], [0.5, 0.0, 0.5, 0.0], [0.0, 0.0, 0.0, 1.0]]):
        d, cum = DMC(matrix), np.cumsum(matrix, axis=1)
        x = rng.integers(0, d.d_in, 64)
        for seed in range(50):
            shared = SharedRandomness(seed)
            k = shared.bitgen("private").random_raw(len(x)) >> np.uint64(11)
            u = shared.stream("private").random(len(x))
            assert np.array_equal(u, k * 2.0 ** -53)
            want = (u[:, None] > cum[x, :-1]).sum(axis=1)
            assert np.array_equal(d.sample_outputs(x, shared.stream("private")), want), seed


def test_oracle_class_laws_are_type_class_means():
    # one member law per input type class: the mean of the class's block-law
    # rows, as each input block's own masked mean gives it
    cases = [(DMC([[0.5, 0.3, 0.2], [0.1, 0.1, 0.8]]), 4),
             (DMC([[0.6, 0.3, 0.1], [0.1, 0.2, 0.7], [0.3, 0.3, 0.4]]), 3),
             (DMC(0.1 + 0.3 * np.eye(7)), 2)]  # its labels take two words
    for d, n in cases:
        rows, xs = rs._block_law(d, n), rs._blocks(d.d_in, n)
        classes, laws = _channel_kind(d).members(rows, xs)
        types = np.array([type_of(x, d.d_in).counts for x in xs])
        assert len(laws) == len(np.unique(types, axis=0)) == math.comb(n + d.d_in - 1, n)
        for x, c, counts in zip(xs, classes, types):
            same = (types == counts).all(axis=1)
            assert np.array_equal(laws[c], rows[same].mean(axis=0)), (d.d_in, x)
    # the bit protocol's members are uniform words: one class, law 2^-n
    classes, laws = _channel_kind(0.3).members(rs._block_law(bsc(0.3), 3), rs._blocks(2, 3))
    assert classes.tolist() == [0] * 8 and laws.tolist() == [[2.0 ** -3] * 8]


# SHA-256 of json.dumps of the to_json() dicts of dmc_simulate's transcripts,
# inputs in order, seeds 0..7 each, computed when members still drew float
# uniforms: a change to member generation must not move them. Each case
# sends some blocks by index and some raw
PINNED_TRANSCRIPTS = {
    "sim-dmc": ([[0.8, 0.15, 0.05], [0.1, 0.2, 0.7]], 0.5,
                [[0, 1] * 4 + [0] * 8, [1] * 13 + [0] * 3, [0] * 16],
                "045d0ee2be33d439e08dc5f87dd3147bd5c74ef86e9f65736557657f0e4b5708"),
    "4x4-two-word-labels": (0.24 + 0.04 * np.eye(4), 1.5, [[3, 0] * 8, [0, 1, 2, 3] * 4],
                             "5117a6962eb803960bb9c85cdb7d3440a17f5dfa75e446791975875ac2f7e93b"),
    "cum-one-before-last-column": (
        [[1.0, 0.0, 0.0], [0.0, 0.5, 0.5]], 0.5, [[0, 1] * 4, [1] * 8, [1, 1, 0, 1]],
        "b1d61216610da4ca7417211dd46f6d71bb4bf40f0654f9609df2e7cf5a401f5b"),
    "entry-2^-53": ([[1.0 - 2.0 ** -53, 2.0 ** -53, 0.0], [0.3, 0.3, 0.4]], 0.5,
                    [[0] * 8, [0, 1] * 4, [1, 1, 0, 1, 1, 1]],
                    "f729fa79fa014acc5f27f466ca8fae5bcf76f37f340b6bc56099d58ca202cb22"),
}


@pytest.mark.parametrize("case", PINNED_TRANSCRIPTS)
def test_dmc_transcripts_pinned(case):
    matrix, eps, inputs, digest = PINNED_TRANSCRIPTS[case]
    d = DMC(matrix)
    trs = [dmc_simulate(d, ProtocolConfig(len(x), eps, "general"), SharedRandomness(s), x)[1]
           for x in inputs for s in range(8)]
    assert 0 < sum(tr.fallback for tr in trs) < len(trs)
    dump = json.dumps([tr.to_json() for tr in trs]).encode()
    assert hashlib.sha256(dump).hexdigest() == digest


def test_first_match_sends_no_later_member():
    # no member before the sent index lies in the private output's match class;
    # BSC members sit in the low n bits of 8-, 16- and 32-bit little-endian
    # lanes, filling them or not, and x = 0^n and a mixed x take both sides of
    # the scan's mask and XOR skips; the 4x4 channel's labels at n = 16 take
    # two words
    for (n, eps, lane_bits), mixed in itertools.product(
            ((8, 1.0, 8), (16, 0.5, 16), (24, 0.5, 32), (32, 0.5, 32)), (False, True)):
        cfg, sent_late = ProtocolConfig(n=n, eps=eps, variant="bsc"), 0
        x = np.resize([0, 1, 1, 0, 0, 1], n) if mixed else np.zeros(n, dtype=int)
        for seed in range(8):
            sh = SharedRandomness(seed)
            _, tr = bsc_simulate(0.2, cfg, sh, x)
            priv = sh.stream("private").random(n) < 0.2
            if tr.fallback:
                continue
            chosen = int(tr.message[1:], 2)
            lanes = np.frombuffer(
                sh.bitgen("Z").random_raw(chosen * lane_bits // 64 + 1).astype("<u8").tobytes(),
                dtype=f"<u{lane_bits // 8}")[:chosen + 1] & (1 << n) - 1
            shells = [bin(int(v) ^ block_code(x, 2)).count("1") for v in lanes]  # distance to x
            assert shells.index(int(priv.sum())) == chosen
            sent_late += chosen > 0
        assert sent_late >= 2, (n, mixed)
    cases = [(DMC([[0.6, 0.3, 0.1], [0.1, 0.2, 0.7]]), 0.8, np.array([0, 1, 1, 0])),
             (DMC(0.24 + 0.04 * np.eye(4)), 1.5, np.array([3, 0] * 8))]
    for d, eps, x in cases:
        n, sent_late = len(x), 0
        cfg = ProtocolConfig(n=n, eps=eps, variant="general")
        tc = type_of(x, d.d_in)
        k = type_rank(tc.counts)
        for seed in range(12):
            sh = SharedRandomness(seed)
            _, tr = dmc_simulate(d, cfg, sh, x)
            if tr.fallback:
                continue
            y = d.sample_outputs(x, sh.stream("private"))
            chosen = int(tr.message[tr.itc_bits + 1:], 2)
            members = _class_members(d, tc, sh.bitgen("Z", k).random_raw(
                (chosen + 1) * 2 * n).reshape(chosen + 1, 2 * n))
            keys = pair_counts(x, members, d.d_in, d.d_out).tolist()
            assert keys.index(pair_counts(x, y, d.d_in, d.d_out).tolist()) == chosen
            sent_late += chosen > 0
        assert sent_late >= 2, d.matrix


def test_dmc_scan_chunking_leaves_transcripts_unchanged(monkeypatch):
    # the 4x4 channel at n = 16 has 17^16 > 2^63, so its labels take two words
    dmcs = [(DMC([[0.8, 0.15, 0.05], [0.1, 0.2, 0.7]]), 0.5, [0, 1] * 4 + [0] * 8),
            (DMC(0.24 + 0.04 * np.eye(4)), 1.5, [3, 0] * 8)]
    cfg_b = ProtocolConfig(n=16, eps=0.25, variant="bsc")
    x_b = [0, 1, 1] * 5 + [1]

    def runs():
        return [[dmc_simulate(d, ProtocolConfig(16, eps, "general"), SharedRandomness(s), x)[1]
                 for s in range(12)] for d, eps, x in dmcs] + [
                [bsc_simulate(0.1, cfg_b, SharedRandomness(s), x_b)[1] for s in range(12)]]

    whole = runs()
    assert all(any(not tr.fallback for tr in kind) for kind in whole)
    assert all(any(int(tr.message[tr.itc_bits + 1:], 2) >= 7 for tr in kind if not tr.fallback)
               for kind in whole)
    for (d, _, x), kind in zip(dmcs, whole):
        for s, tr in enumerate(kind):
            if not tr.fallback:
                y = d.sample_outputs(np.array(x), SharedRandomness(s).stream("private"))
                assert np.array_equal(joint_type(x, tr.output, d.d_in, d.d_out),
                                      joint_type(x, y, d.d_in, d.d_out))
    # the old and the current default, then 7 DMC members (896 BSC ones) and
    # 1 DMC member (28 BSC ones) per chunk
    for chunk in (1 << 16, 1 << 14, 7 * 32, 7):
        monkeypatch.setattr(rs, "_SCAN_CHUNK", chunk)
        assert runs() == whole, chunk


def test_bsc_packed_batches_match_lone_regeneration(monkeypatch):
    # BSC members are the narrowest 8/16/32/64-bit little-endian lanes that
    # hold n bits; every lane a scan batch hands over is the receiver's lone
    # regeneration of that member, across chunk edges and partial last words
    monkeypatch.setattr(rs, "_SCAN_CHUNK", 5)
    shared = SharedRandomness(9)
    for n in (1, 7, 8, 9, 16, 17, 31, 32, 33, 64):
        lane_bits = next(b for b in (8, 16, 32, 64) if b >= n)
        per_word = 64 // lane_bits
        for size in (1, 3, 61, 203):
            assert per_word == 1 or size % per_word
            batches = []

            def record(lanes):
                batches.append(lanes[:, 0].copy())
                return np.zeros(len(lanes), dtype=bool)

            assert _first_match(shared.bitgen("Z"), size, 1, record, lane_bits) is None
            batch = np.concatenate(batches)
            raw = shared.bitgen("Z").random_raw(-(-size // per_word)).astype("<u8")
            assert np.array_equal(batch, np.frombuffer(
                raw.tobytes(), dtype=f"<u{lane_bits // 8}")[:size]), (n, size)
            for i in range(size):
                alone = _member_words(shared.bitgen("Z"), i, 1, lane_bits)
                assert alone.shape == (1,) and alone[0] == batch[i], (n, size, i)

            seen = [0]

            def past_end(lanes):
                # flags only places at or past size: lanes a scan must drop
                idx = seen[0] + np.arange(len(lanes))
                seen[0] += len(lanes)
                return idx >= size

            assert _first_match(shared.bitgen("Z"), size, 1, past_end, lane_bits) is None
            assert seen[0] == size


def test_member_words_far_jump_matches_contiguous_stream():
    # the receiver's jump to a far member lands on the same lanes as one
    # contiguous draw of the set's stream from its start
    shared = SharedRandomness(21)
    size = _set_size(bsc_capacity(0.1), 32, 0.25)
    assert size == 2_085_759
    words = shared.bitgen("Z").random_raw(-(-size // 2))  # two 32-bit lanes a word
    lanes = np.frombuffer(words.astype("<u8").tobytes(), dtype="<u4")
    for i in (0, 1, 1_000_001, size - 1):
        assert np.array_equal(_member_words(shared.bitgen("Z"), i, 1, 32), lanes[i:i + 1]), i
    # a DMC member at n = 16: 32 words of 64-bit lanes
    i, width, k = 123_457, 32, 5
    stream = shared.bitgen("Z", k)
    stream.random_raw(i * width)
    assert np.array_equal(_member_words(shared.bitgen("Z", k), i, width, 64),
                          stream.random_raw(width))


def test_bsc_fallback_rate_matches_exact_law():
    # P(fallback) = sum_d Binom(n, p)(d) * (1 - C(n, d) / 2^n)^M for the
    # fixed input 0^n; an index-path block costs 1 + ceil(log2 M) bits
    p, trials = 0.1, 4000
    for n in (16, 24):
        cfg = ProtocolConfig(n=n, eps=0.25, variant="bsc")
        size = _set_size(bsc_capacity(p), n, cfg.eps)
        law = sum(math.comb(n, d) * p ** d * (1 - p) ** (n - d)
                  * (1 - math.comb(n, d) / 2 ** n) ** size for d in range(n + 1))
        cs = cost_statistics(p, cfg, trials, ("fixed", [0] * n), seed=11)
        se = math.sqrt(law * (1 - law) / trials)
        assert abs(cs["fallback_rate"] - law) <= 3 * se, (n, cs["fallback_rate"], law)
        fallbacks = round(cs["fallback_rate"] * trials)
        bits = fallbacks * (1 + n) + (trials - fallbacks) * (1 + _index_width(size))
        assert cs["mean_bits_per_symbol"] == pytest.approx(bits / trials / n, rel=1e-12)


# perfbench/laws.py: dmc_fallback_given_type([[.8, .15, .05], [.1, .2, .7]], 10, 16, 0.5)
DMC_FALLBACK_10_6 = 0.7319276289963357


def test_dmc_fallback_rate_matches_exact_law():
    # the member law (keyed stream, shuffle, channel draw) shows no bias in
    # the fallback rate against its exact law for x of type (10, 6)
    d = DMC([[0.8, 0.15, 0.05], [0.1, 0.2, 0.7]])
    trials = 1000
    cs = cost_statistics(d, ProtocolConfig(n=16, eps=0.5, variant="general"), trials,
                         ("itc-uniform", (10, 6)), seed=19)
    se = math.sqrt(DMC_FALLBACK_10_6 * (1 - DMC_FALLBACK_10_6) / trials)
    assert abs(cs["fallback_rate"] - DMC_FALLBACK_10_6) <= 3 * se, cs["fallback_rate"]


def test_dmc_simulate_fallback_raw_width():
    # 3-letter outputs: raw path packs the block as one base-3 integer
    d = DMC([[0.6, 0.3, 0.1], [0.1, 0.2, 0.7]])
    cfg = ProtocolConfig(n=5, eps=1e-9, variant="general")
    seen_fallback = False
    for seed in range(40):
        y, tr = dmc_simulate(d, cfg, SharedRandomness(seed), [0, 1, 0, 1, 1])
        if tr.fallback:
            seen_fallback = True
            assert tr.index_bits == _index_width(3 ** 5) == 8
            payload = tr.message[tr.itc_bits + 1:]
            val = int(payload, 2)
            letters = []
            for _ in range(5):
                val, r = divmod(val, 3)
                letters.append(r)
            assert tuple(reversed(letters)) == tr.output
            break
    assert seen_fallback


def test_transcript_json():
    tr = Transcript(bits_sent=7, fallback=False, itc_bits=0, index_bits=6,
                    output=(0, 1), message="0010111")
    d = tr.to_json()
    assert d["bits_sent"] == 7 and d["fallback"] is False
    assert d["message"] == "0010111"


def test_exact_oracle_bsc():
    assert exact_faithfulness_oracle(0.3, 1, eps=1.0) <= 1e-12
    assert exact_faithfulness_oracle(0.3, 2, eps=1.0) <= 1e-12
    assert exact_faithfulness_oracle(0.1, 2, zsize=5) <= 1e-12


def test_exact_oracle_general():
    d = DMC([[0.75, 0.25], [0.25, 0.75]])
    assert exact_faithfulness_oracle(d, 2, zsize=8) <= 1e-12
    tall = DMC([[0.5, 0.3, 0.2], [0.1, 0.1, 0.8]])
    assert exact_faithfulness_oracle(tall, 2, zsize=4) <= 1e-12
    # zsize=1 forces heavy fallback use and must still be exact
    assert exact_faithfulness_oracle(d, 2, zsize=1) <= 1e-12


def test_exact_oracle_past_ordered_draw_guard():
    assert exact_faithfulness_oracle(0.1, 3, eps=1.0) <= 1e-12
    assert exact_faithfulness_oracle(DMC([[0.75, 0.25], [0.25, 0.75]]), 3,
                                     zsize=6) <= 1e-12
    assert exact_faithfulness_oracle(0.1, 10, eps=0.5) <= 1e-12
    assert exact_faithfulness_oracle(DMC([[0.5, 0.3, 0.2], [0.1, 0.1, 0.8]]), 5,
                                     eps=1.0) <= 1e-12


def _first_match_reference(matrix, n, size, member, label):
    """Max over inputs x of |induced - true|, by a plain loop over every ordered
    tuple of size set members.

    member(x, y) is one member's odds of being block y. The private output y
    ends on the first member z with label(x, z) == label(x, y), or on itself
    when there is none.
    """
    prob = lambda x, y: math.prod(matrix[a][b] for a, b in zip(x, y))
    ys = list(itertools.product(range(len(matrix[0])), repeat=n))
    worst = 0.0
    for x in itertools.product(range(len(matrix)), repeat=n):
        odds = {y: member(x, y) for y in ys}
        lab = {y: label(x, y) for y in ys}
        induced = dict.fromkeys(ys, 0.0)
        for zs in itertools.product(ys, repeat=size):
            weight = math.prod(odds[z] for z in zs)
            for y in ys:
                out = next((z for z in zs if lab[z] == lab[y]), y)
                induced[out] += weight * prob(x, y)
        worst = max(worst, max(abs(induced[y] - prob(x, y)) for y in ys))
    return worst


def test_exact_oracle_matches_literal_first_match(monkeypatch):
    p, tall = 0.2, [[0.5, 0.3, 0.2], [0.1, 0.1, 0.8]]

    def from_x_type(x, y):
        # a general-protocol member: the channel on a uniform rearrangement of x
        perms = set(itertools.permutations(x))
        return sum(math.prod(tall[a][b] for a, b in zip(xp, y)) for xp in perms) / len(perms)

    cases = [
        (p, [[1 - p, p], [p, 1 - p]], lambda x, y: 0.25,
         lambda x, y: sum(a != b for a, b in zip(x, y))),  # Hamming shell around x
        (DMC(tall), tall, from_x_type,
         lambda x, y: tuple(sorted(zip(x, y)))),  # joint type of (x, y)
    ]
    for channel, matrix, member, label in cases:
        assert _first_match_reference(matrix, 2, 3, member, label) <= 1e-14
        assert exact_faithfulness_oracle(channel, 2, zsize=3) <= 1e-14

    # labels coarsened to the output weight break faithfulness; both must
    # still agree on how far
    kind = rs._channel_kind

    def coarse(channel):
        return dataclasses.replace(kind(channel), label=lambda x: lambda ys: ys.sum(axis=1))

    monkeypatch.setattr(rs, "_channel_kind", coarse)
    for (channel, matrix, member, _), value in zip(cases, (0.2625, 0.15838875)):
        ref = _first_match_reference(matrix, 2, 3, member, lambda x, y: sum(y))
        assert ref == pytest.approx(value, abs=1e-12)
        assert abs(exact_faithfulness_oracle(channel, 2, zsize=3) - ref) <= 1e-13


def test_kronecker_block_law_matches_block_probability():
    d = DMC([[0.5, 0.3, 0.2], [0.1, 0.1, 0.8]])
    law = rs._block_law(d, 3)
    xs, ys = rs._blocks(d.d_in, 3), rs._blocks(d.d_out, 3)
    assert law.shape == (len(xs), len(ys)) == (8, 27)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            assert law[i, j] == np.prod(d.matrix[x, y])


def test_exact_oracle_sizes_each_member_class_once(monkeypatch):
    # a set's size depends on x only through x's type: one constrained_mi per
    # type class with eps (9 at n = 8 over 2 letters, 21 at n = 5 over 3
    # letters, against one per input block before), none with zsize. Each
    # case has a fresh DMC, whose class rates no earlier case has cached
    mi, calls = rs.constrained_mi, []
    monkeypatch.setattr(rs, "constrained_mi", lambda dmc, q: calls.append(q) or mi(dmc, q))
    tall = [[0.5, 0.3, 0.2], [0.1, 0.1, 0.8]]
    square = [[0.6, 0.3, 0.1], [0.1, 0.2, 0.7], [0.3, 0.3, 0.4]]
    for matrix, n, kwargs, want in ((tall, 8, {"eps": 1.0}, 9), (square, 5, {"eps": 1.5}, 21),
                                    (tall, 8, {"zsize": 4}, 0)):
        d = DMC(matrix)
        calls.clear()
        assert exact_faithfulness_oracle(d, n, **kwargs) <= 1e-12
        assert len(calls) == want, (n, kwargs)


def test_exact_oracle_guards():
    with pytest.raises(ValueError):
        exact_faithfulness_oracle(0.3, 2)  # neither eps nor zsize
    with pytest.raises(ValueError, match="exactly one"):
        exact_faithfulness_oracle(0.3, 2, eps=1.0, zsize=5)  # both
    with pytest.raises(ValueError):
        exact_faithfulness_oracle(0.3, 12, zsize=1)  # block law past the guard
    # a million-member set is fine: the guard bounds the block law, not the set
    assert exact_faithfulness_oracle(0.3, 4, zsize=10**6) <= 1e-12
    for zsize in (0, -1, 2.5, 3.0, True):
        with pytest.raises(ValueError, match="set size"):
            exact_faithfulness_oracle(0.3, 2, zsize=zsize)
    assert exact_faithfulness_oracle(0.3, 2, zsize=np.int64(3)) <= 1.0


def test_exact_oracle_guard_precedes_block_law():
    # the 2^12 x 2^12 block law is past the guard; the refusal must come
    # before it is built
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="enumeration guard"):
            exact_faithfulness_oracle(0.1, 12, zsize=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


def test_empirical_faithfulness_matches_channel():
    cfg = ProtocolConfig(n=4, eps=0.5, variant="bsc")
    r = empirical_faithfulness(0.3, cfg, 4000, seed=5)
    assert r["trials"] == 4000
    assert r["tv_estimate"] < 0.05
    assert r["chi2_pvalue"] > 1e-3
    again = empirical_faithfulness(0.3, cfg, 4000, seed=5)
    assert again == r


def test_empirical_faithfulness_general_variant():
    d = DMC([[0.75, 0.25], [0.25, 0.75]])
    cfg = ProtocolConfig(n=4, eps=0.8, variant="general")
    r = empirical_faithfulness(d, cfg, 2000, seed=4)
    assert r["tv_estimate"] < 0.06
    assert r["chi2_pvalue"] > 1e-3


def test_empirical_faithfulness_mixed_type_input():
    # x = 0110 has a six-member type class, so the shuffle of the class's
    # members varies from trial to trial, unlike at x = 0000
    d = DMC([[0.5, 0.3, 0.2], [0.1, 0.1, 0.8]])
    cfg = ProtocolConfig(n=4, eps=0.5, variant="general")
    r = empirical_faithfulness(d, cfg, 4000, seed=4, x="0110")
    assert r["tv_estimate"] < 0.06
    assert r["chi2_pvalue"] > 1e-3


def test_empirical_faithfulness_guards():
    cfg = ProtocolConfig(n=4, eps=0.5, variant="bsc")
    with pytest.raises(ValueError):
        empirical_faithfulness(0.3, cfg, 999, seed=5)
    for trials in (1000.0, 2500.5, True):
        with pytest.raises(ValueError):
            empirical_faithfulness(0.3, cfg, trials, seed=5)
    with pytest.raises(ValueError):
        empirical_faithfulness(0.3, ProtocolConfig(n=20, eps=0.5, variant="bsc"),
                               1000, seed=5)  # 2^20 bins over budget


def test_cost_statistics_sources_and_determinism():
    cfg = ProtocolConfig(n=8, eps=0.25, variant="bsc")
    fixed = cost_statistics(0.1, cfg, 400, ("fixed", [0] * 8), seed=2)
    assert fixed["capacity"] == pytest.approx(bsc_capacity(0.1), abs=1e-12)
    assert fixed["n"] == 8 and fixed["trials"] == 400
    assert 0.0 <= fixed["fallback_rate"] <= 1.0
    assert fixed["mean_bits_per_symbol"] > 0.0
    assert cost_statistics(0.1, cfg, 400, ("fixed", [0] * 8), seed=2) == fixed

    iid = cost_statistics(0.1, cfg, 200, ("iid", [0.5, 0.5]), seed=3)
    assert iid["p_exceed_se"] >= 0.0

    d = DMC([[0.75, 0.25], [0.25, 0.75]])
    cfg_g = ProtocolConfig(n=8, eps=0.6, variant="general")
    itc = cost_statistics(d, cfg_g, 100, ("itc-uniform", [6, 2]), seed=4)
    assert itc["itc_bits"] == _index_width(math.comb(9, 1)) == 4
    with pytest.raises(ValueError):
        cost_statistics(0.1, cfg, 100, ("bad-kind", None), seed=1)
    # a trial count is a whole number >= 1: a bool, 2.5 or 3.0 used to
    # raise TypeError from inside numpy
    for trials in (0, -1, True, 2.5, 3.0):
        with pytest.raises(ValueError, match="trial count"):
            cost_statistics(0.1, cfg, trials, ("fixed", [0] * 8), seed=1)
    assert cost_statistics(0.1, cfg, np.int64(2), ("fixed", [0] * 8), seed=2)["trials"] == 2
    one = cost_statistics(0.1, cfg, 1, ("fixed", [0] * 8), seed=2)
    assert one["trials"] == 1 and one["mean_bits_se"] is None


def test_cost_statistics_computes_dmc_capacity_once(monkeypatch):
    calls = []

    def counted(dmc, tol=1e-10):
        calls.append(tol)
        return ba_capacity(dmc, tol)

    monkeypatch.setattr(rs, "ba_capacity", counted)
    d = DMC([[0.6, 0.3, 0.1], [0.1, 0.2, 0.7]])
    cfg = ProtocolConfig(n=6, eps=1.2, variant="general")
    runs = [cost_statistics(d, cfg, 20, ("iid", [0.6, 0.4]), seed=4) for _ in range(3)]
    assert calls == [1e-10]
    assert runs[0] == runs[1] == runs[2]
    assert runs[0]["capacity"] == ba_capacity(d, 1e-10)[0]


def test_dmc_class_rate_computed_once_per_class(monkeypatch):
    # the set-sizing rate depends on the input only through its type: one
    # constrained_mi per class on a DMC, however many trials and calls
    mi, calls = rs.constrained_mi, []
    monkeypatch.setattr(rs, "constrained_mi", lambda dmc, q: calls.append(q) or mi(dmc, q))
    d = DMC([[0.6, 0.3, 0.1], [0.1, 0.2, 0.7]])
    cfg = ProtocolConfig(n=6, eps=1.2, variant="general")
    runs = [cost_statistics(d, cfg, 20, ("itc-uniform", [2, 4]), seed=s) for s in (4, 4, 5)]
    assert len(calls) == 1 and runs[0] == runs[1]
    assert _class_rate(d, TypeClass((2, 4))) == mi(d, [2 / 6, 4 / 6]) and len(calls) == 1
    cost_statistics(d, cfg, 30, ("iid", [0.5, 0.5]), seed=4)
    assert len(calls) == len({tuple(q) for q in calls}) <= 7  # the 7 classes at n = 6
    before = len(calls)  # the rates live on the channel object
    assert _class_rate(DMC(d.matrix), TypeClass((2, 4))) == mi(d, [2 / 6, 4 / 6])
    assert len(calls) == before + 1


def test_oracle_labels_group_by_joint_type():
    # the labels split the output blocks exactly as the pair-count rows do,
    # so the oracle's class sums are unchanged; the 7x7 channel's labels
    # take two words (3^49 > 2^63)
    cases = [(DMC([[0.5, 0.3, 0.2], [0.1, 0.1, 0.8]]), n) for n in (3, 4)]
    cases.append((DMC(0.1 + 0.3 * np.eye(7)), 2))
    for d, n in cases:
        kind = _channel_kind(d)
        rows, xs, ys = rs._block_law(d, n), rs._blocks(d.d_in, n), rs._blocks(d.d_out, n)
        classes, laws = kind.members(rows, xs)
        worst = 0.0
        for x, true, c in zip(xs, rows, classes):
            member, labels = laws[c], kind.label(x)(ys)
            assert labels.shape == (len(ys),)
            assert labels.dtype == (np.dtype((np.void, 16)) if d.d_in == 7 else np.int64)
            sig = np.unique(labels, return_inverse=True)[1]
            ref = np.unique(pair_counts(x, ys, d.d_in, d.d_out), axis=0,
                            return_inverse=True)[1].ravel()
            # the same partition: each class of one is one class of the other
            pairs = np.unique(np.stack([sig, ref]), axis=1).shape[1]
            assert pairs == len(np.unique(sig)) == len(np.unique(ref))
            m_s, t_s = np.bincount(ref, member)[ref], np.bincount(ref, true)[ref]
            miss = (1.0 - m_s) ** 4
            share = np.divide(member, m_s, out=np.zeros_like(member), where=m_s > 0)
            worst = max(worst, float(np.max(np.abs((1.0 - miss) * t_s * share
                                                   + miss * true - true))))
        assert exact_faithfulness_oracle(d, n, zsize=4) == worst
    # the bit kind's label is the one shell rule: on one block, the form the
    # private draw takes, as on a stack of blocks, its Hamming distance from x
    label = _channel_kind(0.3).label
    for n in (1, 3, 5):
        ys = rs._blocks(2, n)
        for x in ys:
            stacked = label(x)(ys)
            assert stacked.tolist() == [label(x)(y) for y in ys] == (ys != x).sum(axis=1).tolist()


def test_trial_t_reproduces_alone():
    # row t of the trial runner is one direct protocol call on trial t's
    # keys and input, so a split of the trials gives the same rows
    seed, trials = 13, 12
    base = SharedRandomness(seed)
    d = DMC([[0.6, 0.3, 0.1], [0.1, 0.2, 0.7]])
    x = np.array([0, 1, 1, 0, 1, 0, 0, 1])
    general = ProtocolConfig(n=6, eps=1.2, variant="general")
    cases = [
        (0.1, ProtocolConfig(n=8, eps=0.25), ("fixed", x), lambda t: x),
        (d, general, ("iid", [0.6, 0.4]),
         lambda t: np.searchsorted([0.6, 1.0], base.stream("input", t).random(6))),
        (d, general, ("itc-uniform", [4, 2]),
         lambda t: base.stream("input", t).permutation([0, 0, 0, 0, 1, 1])),
    ]
    for channel, cfg, source, input_of in cases:
        outputs, bits, fell, itc_bits = _run_trials(
            _channel_kind(channel), cfg, trials, source, seed)
        assert outputs.shape == (trials, cfg.n) and 0 < fell.sum() < trials, source
        for t in range(trials):
            shared = base.derive("trial", t)
            if isinstance(channel, DMC):
                y, tr = dmc_simulate(channel, cfg, shared, input_of(t))
            else:
                y, tr = bsc_simulate(channel, cfg, shared, input_of(t))
            assert outputs[t].tolist() == list(tr.output) == y.tolist(), (source, t)
            assert (bits[t], fell[t], itc_bits) == (tr.bits_sent, tr.fallback, tr.itc_bits)


def test_cost_statistics_dmc_iid_frozen():
    d = DMC([[0.6, 0.3, 0.1], [0.1, 0.2, 0.7]])
    cfg = ProtocolConfig(n=6, eps=1.2, variant="general")
    cs = cost_statistics(d, cfg, 200, ("iid", [0.6, 0.4]), seed=4)
    assert cs["capacity"] == pytest.approx(0.33288667259985943, abs=1e-15)
    assert (cs["n"], cs["trials"], cs["itc_bits"]) == (6, 200, 3)
    # bit counts, exceedances and fallbacks are integers: exact ratios
    assert cs["mean_bits_per_symbol"] == 2412 / 200 / 6
    assert cs["p_exceed"] == 164 / 200
    assert cs["fallback_rate"] == 115 / 200
    assert cs["mean_bits_se"] == pytest.approx(0.02724150116674884, rel=1e-12)


def test_cost_stays_below_capacity_plus_eps_margin():
    # the whole point: n per-symbol bits approach I(q) + eps from below
    d = DMC([[0.75, 0.25], [0.25, 0.75]])
    cfg = ProtocolConfig(n=32, eps=0.6, variant="general")
    q = np.array([29, 3], dtype=np.float64) / 32
    mi = constrained_mi(d, q)
    cs = cost_statistics(d, cfg, 50, ("itc-uniform", [29, 3]), seed=9)
    assert cs["fallback_rate"] <= 0.1
    assert mi < cs["mean_bits_per_symbol"] <= mi + cfg.eps
