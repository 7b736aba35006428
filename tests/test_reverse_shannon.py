import math

import numpy as np
import pytest
from numpy.random import Philox

import qcap.reverse_shannon as rs
from qcap.rand import generator
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
    _batch_members,
    _class_rate,
    _index_width,
    _philox_words,
    _regen_bsc_word,
    _set_size,
    _shuffle_blocks,
    _type_rank,
)
from qcap.typeclasses import TypeClass, enumerate_types, joint_type, sample_from_type


def test_dmc_validation():
    with pytest.raises(ValueError):
        DMC([[0.5, 0.4], [0.5, 0.5]])  # row sums off
    with pytest.raises(ValueError):
        DMC([[1.5, -0.5], [0.5, 0.5]])  # entries outside [0, 1]
    d = DMC([[0.7, 0.3], [0.2, 0.8]])
    assert d.d_in == 2 and d.d_out == 2
    d.matrix[0, 0]  # readable
    with pytest.raises(ValueError):
        d.matrix[0, 0] = 0.9  # frozen


def test_dmc_sample_outputs_stays_in_alphabet():
    class TopUniform:
        def random(self, size):
            return np.full(size, 1.0 - 1e-13)

    # passes validation, but its row sums round below 1
    d = DMC([[0.5, 0.5 - 5e-13], [0.5, 0.5]])
    assert d.sample_outputs(np.array([0, 1]), TopUniform()).tolist() == [1, 1]


def test_dmc_json_round_trip():
    d = DMC([[0.7, 0.2, 0.1], [0.0, 0.5, 0.5]])
    d2 = DMC.from_json(d.to_json())
    assert np.allclose(d.matrix, d2.matrix, atol=0)


def test_bsc_matrix():
    d = bsc(0.3)
    assert np.allclose(d.matrix, [[0.7, 0.3], [0.3, 0.7]], atol=0)
    assert bsc_capacity(0.5) == pytest.approx(0.0, abs=1e-15)
    assert bsc_capacity(0.0) == 1.0


def test_block_probability_factorizes():
    d = DMC([[0.7, 0.3], [0.2, 0.8]])
    assert d.block_probability([0, 1, 0], [1, 1, 0]) == pytest.approx(
        0.3 * 0.8 * 0.7, abs=1e-15)


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


def test_protocol_config_validation():
    with pytest.raises(ValueError):
        ProtocolConfig(n=0, eps=0.1, variant="bsc")
    with pytest.raises(ValueError):
        ProtocolConfig(n=4, eps=0.0, variant="bsc")
    with pytest.raises(ValueError):
        ProtocolConfig(n=4, eps=0.1, variant="qubit")


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
    assert tr.message == "0010111"
    assert tr.output == (0, 1, 0, 0, 0, 0, 0, 1)
    assert tuple(int(v) for v in y) == tr.output


def test_bsc_simulate_receiver_decode():
    # receiver reconstructs the output from the message and shared key alone
    cfg = ProtocolConfig(n=8, eps=0.25, variant="bsc")
    sh = SharedRandomness(0)
    y, tr = bsc_simulate(0.1, cfg, sh, [0] * 8)
    assert tr.message[0] == "0"
    idx = int(tr.message[1:], 2)
    word = _regen_bsc_word(sh, idx) & 0xFF
    decoded = tuple((word >> (7 - j)) & 1 for j in range(8))
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
    with pytest.raises(ValueError):
        bsc_simulate(0.0, cfg, SharedRandomness(0), [0] * 4)
    with pytest.raises(ValueError):
        bsc_simulate(1.0, cfg, SharedRandomness(0), [0] * 4)
    with pytest.raises(ValueError):
        bsc_simulate(0.1, cfg, SharedRandomness(0), [0] * 3)  # length mismatch
    with pytest.raises(ValueError):
        bsc_simulate(0.1, cfg, SharedRandomness(0), [0, 2, 0, 0])


def test_type_rank_matches_enumeration_order():
    for n, d in ((5, 2), (4, 3), (3, 4)):
        for rank, tc in enumerate(enumerate_types(n, d)):
            assert _type_rank(tc.counts) == rank


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
        assert joint_type(x, list(y_priv), 2, 2).key() == joint_type(
            x, list(int(v) for v in y), 2, 2).key()


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
    assert not tr.fallback
    assert tr.message == "01100101"
    assert (tr.bits_sent, tr.itc_bits, tr.index_bits) == (8, 3, 4)
    assert tr.output == (0, 2, 1, 1, 2)
    assert tuple(int(v) for v in y) == tr.output

    y, tr = dmc_simulate(d, ProtocolConfig(n=5, eps=1e-9, variant="general"),
                         SharedRandomness(0), x)
    assert tr.fallback
    assert tr.message == "011110001101"
    assert (tr.bits_sent, tr.itc_bits, tr.index_bits) == (12, 3, 8)
    assert tr.output == (1, 2, 0, 2, 0)
    assert tuple(int(v) for v in y) == tr.output


def test_dmc_batch_members_match_reference(monkeypatch):
    # the kernel reproduces numpy's Philox words, keys with the top bit set
    # included, from the first block or any later one
    key0 = 0xF1E2D3C4B5A69788
    idx = [0, 1, 2 ** 26, 2 ** 63, 2 ** 63 + 12345, 2 ** 64 - 1]
    words, later = _philox_words(key0, idx, 3), _philox_words(key0, idx, 2, first=3)
    for r, i in enumerate(idx):
        ref = Philox(key=np.array([key0, i], dtype=np.uint64)).random_raw(16)
        assert np.array_equal(words[r], ref[:12])
        assert np.array_equal(later[r], ref[8:])

    # every member the sender's batches build is the receiver's member(i)
    refills = []

    def spy(key0, idx, n_blocks, first=1):
        if first > 1:
            refills.append(first)
        return _philox_words(key0, idx, n_blocks, first)

    monkeypatch.setattr(rs, "_philox_words", spy)
    shared = SharedRandomness(11)
    classes = {2: [(1, 0), (0, 1), (5, 0), (2, 3), (0, 16), (9, 7)],
               3: [(0, 1, 0), (2, 0, 3), (16, 0, 0), (7, 0, 9), (5, 5, 6)]}
    long_shuffles = 0
    for matrix in ([[0.9, 0.1], [0.2, 0.8]], [[0.6, 0.3, 0.1], [0.1, 0.2, 0.7]],
                   [[0.7, 0.3], [0.4, 0.6], [0.1, 0.9]],
                   [[0.5, 0.3, 0.2], [0.1, 0.1, 0.8], [0.3, 0.4, 0.3]]):
        d = DMC(matrix)
        for counts in classes[d.d_in]:
            tc, k = TypeClass(counts), _type_rank(counts)
            size = _set_size(_class_rate(d, tc), tc.n, 0.5)
            keys = tuple(int(shared._key(tag, k)[0]) for tag in ("X", "Y"))
            batch = _batch_members(d, tc, keys, np.arange(size))
            assert batch.shape == (size, tc.n)
            for i in range(size):
                x_stream = shared.element_stream("X", k, i)
                xp = sample_from_type(tc, x_stream)
                ref = d.sample_outputs(xp, shared.element_stream("Y", k, i))
                assert np.array_equal(batch[i], ref), (matrix, counts, i)
                # shuffles that drew past the first blocks of their stream
                blocks_used = int(x_stream.bit_generator.state["state"]["counter"][0])
                long_shuffles += blocks_used > _shuffle_blocks(tc.n)
    assert long_shuffles > 0 and refills


def test_dmc_scan_chunking_leaves_transcripts_unchanged(monkeypatch):
    d = DMC([[0.8, 0.15, 0.05], [0.1, 0.2, 0.7]])
    cfg = ProtocolConfig(n=16, eps=0.5, variant="general")
    x = [0, 1] * 4 + [0] * 8
    whole = [dmc_simulate(d, cfg, SharedRandomness(s), x)[1] for s in range(6)]
    assert any(not tr.fallback for tr in whole)
    monkeypatch.setattr(rs, "_MEMBER_CHUNK", 7 * 16)  # 7-member chunks
    assert [dmc_simulate(d, cfg, SharedRandomness(s), x)[1] for s in range(6)] == whole


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
    # a 9-member set over 8 outputs was 8^10 ordered draws; 11,440 multisets now
    assert exact_faithfulness_oracle(0.1, 3, eps=1.0) <= 1e-12
    assert exact_faithfulness_oracle(DMC([[0.75, 0.25], [0.25, 0.75]]), 3,
                                     zsize=6) <= 1e-12


def test_kronecker_block_law_matches_block_probability():
    d = DMC([[0.5, 0.3, 0.2], [0.1, 0.1, 0.8]])
    law = rs._block_law(d, 3)
    xs, ys = rs._blocks(d.d_in, 3), rs._blocks(d.d_out, 3)
    assert law.shape == (len(xs), len(ys)) == (8, 27)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            assert law[i, j] == d.block_probability(x, y)


def test_exact_oracle_guards():
    with pytest.raises(ValueError):
        exact_faithfulness_oracle(0.3, 2)  # neither eps nor zsize
    with pytest.raises(ValueError):
        exact_faithfulness_oracle(0.3, 4, zsize=10**6)  # enumeration blowup


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


def test_empirical_faithfulness_guards():
    cfg = ProtocolConfig(n=4, eps=0.5, variant="bsc")
    with pytest.raises(ValueError):
        empirical_faithfulness(0.3, cfg, 999, seed=5)
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


def test_cost_statistics_dmc_iid_frozen():
    d = DMC([[0.6, 0.3, 0.1], [0.1, 0.2, 0.7]])
    cfg = ProtocolConfig(n=6, eps=1.2, variant="general")
    cs = cost_statistics(d, cfg, 200, ("iid", [0.6, 0.4]), seed=4)
    assert cs["capacity"] == pytest.approx(0.33288667259985943, abs=1e-15)
    assert (cs["n"], cs["trials"], cs["itc_bits"]) == (6, 200, 3)
    # bit counts, exceedances and fallbacks are integers: exact ratios
    assert cs["mean_bits_per_symbol"] == 2460 / 200 / 6
    assert cs["p_exceed"] == 174 / 200
    assert cs["fallback_rate"] == 123 / 200
    assert cs["mean_bits_se"] == pytest.approx(0.025803665354531387, rel=1e-12)


def test_cost_stays_below_capacity_plus_eps_margin():
    # the whole point: n per-symbol bits approach I(q) + eps from below
    d = DMC([[0.75, 0.25], [0.25, 0.75]])
    cfg = ProtocolConfig(n=32, eps=0.6, variant="general")
    q = np.array([29, 3], dtype=np.float64) / 32
    mi = constrained_mi(d, q)
    cs = cost_statistics(d, cfg, 50, ("itc-uniform", [29, 3]), seed=9)
    assert cs["fallback_rate"] <= 0.1
    assert mi < cs["mean_bits_per_symbol"] <= mi + cfg.eps
