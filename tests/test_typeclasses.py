import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from qcap.rand import generator
from qcap.reverse_shannon import _blocks
from qcap.typeclasses import (
    TypeClass,
    TypicalEigenstateSet,
    block_code,
    enumerate_types,
    joint_type,
    letters,
    pair_counts,
    sample_from_type,
    type_of,
    typical_subspace_report,
)


def test_type_class_multiplicity():
    assert TypeClass((3, 2)).multiplicity() == 10
    assert TypeClass((2, 2, 2)).multiplicity() == 90
    assert TypeClass((5, 0)).multiplicity() == 1
    with pytest.raises(ValueError):
        TypeClass((2, -1))


def test_enumerate_types_order_and_count():
    got = [tc.counts for tc in enumerate_types(2, 2)]
    assert got == [(2, 0), (1, 1), (0, 2)]
    for n, d in ((5, 2), (4, 3), (6, 4)):
        types = enumerate_types(n, d)
        assert len(types) == math.comb(n + d - 1, d - 1)
        assert len(set(t.counts for t in types)) == len(types)
        # every string is counted exactly once across classes
        assert sum(t.multiplicity() for t in types) == d ** n


def test_type_of_accepts_strings_and_ints():
    assert type_of("01101", 2).counts == (2, 3)
    assert type_of([0, 1, 1, 0, 1], 2).counts == (2, 3)
    assert type_of(np.array([2, 0, 2]), 3).counts == (1, 0, 2)
    with pytest.raises(ValueError):
        type_of([0, 3], 2)


def test_joint_type_counts_and_marginals():
    jt = joint_type("0011", "0101", 2, 2)
    assert jt.tolist() == [[1, 1], [1, 1]]
    # the marginals are the input and output types
    assert tuple(jt.sum(axis=1)) == type_of("0011", 2).counts == (2, 2)
    assert tuple(jt.sum(axis=0)) == type_of("0101", 2).counts == (2, 2)
    assert jt.ravel().tolist() == pair_counts(letters("0011", 2), letters("0101", 2),
                                              2, 2).tolist() == [1, 1, 1, 1]
    x, y = "01201", "20110"
    jt = joint_type(x, y, 3, 3)
    assert jt.shape == (3, 3) and jt.sum() == 5
    assert tuple(jt.sum(axis=1)) == type_of(x, 3).counts
    assert tuple(jt.sum(axis=0)) == type_of(y, 3).counts
    with pytest.raises(ValueError):
        joint_type("00", "000")
    with pytest.raises(ValueError):
        joint_type("02", "01", 2, 2)
    # alphabets left out are inferred from the largest letters
    assert joint_type("021", "110").tolist() == [[0, 1], [1, 0], [0, 1]]
    assert joint_type("", "").tolist() == [[0]]


def test_letters_parses_and_validates():
    for x in ("0121", [0, 1, 2, 1], np.array([0, 1, 2, 1]), (0, 1, 2, 1)):
        block = letters(x, 3, 4)
        assert block.dtype == np.int64 and block.tolist() == [0, 1, 2, 1]
    assert letters("", 2).shape == (0,)
    assert letters([7, 0], None).tolist() == [7, 0]  # any nonnegative letter
    assert letters([1.0, 0.0], 2).tolist() == [1, 0]
    for x, d, n in (("012", 3, 4), ("013", 3, None), ([0, -1], 2, None),
                    ("0x1", 2, None), (np.zeros((2, 2), dtype=int), 2, None),
                    ([0.0, 1.5], 2, None), ([0.0, np.nan], 2, None)):
        with pytest.raises(ValueError):
            letters(x, d, n)
    # a type class's own letters: its sorted string
    assert TypeClass((2, 0, 3)).letters().tolist() == [0, 0, 2, 2, 2]


def test_pair_counts_match_brute_force():
    rng = generator(5)
    for d_in, d_out in ((2, 2), (2, 3), (3, 2), (3, 3)):
        x = rng.integers(0, d_in, 7)
        ys = rng.integers(0, d_out, (4, 5, 7))
        got = pair_counts(x, ys, d_in, d_out)
        assert got.shape == (4, 5, d_in * d_out)
        for idx in np.ndindex(4, 5):
            want = [0] * (d_in * d_out)
            for a, b in zip(x.tolist(), ys[idx].tolist()):
                want[a * d_out + b] += 1
            assert got[idx].tolist() == want
        assert pair_counts(x, ys[0, 0], d_in, d_out).tolist() == got[0, 0].tolist()
        assert np.array_equal(joint_type(x, ys[0, 0], d_in, d_out),
                              got[0, 0].reshape(d_in, d_out))


def test_block_code_is_the_block_row():
    for d in (2, 3):
        for n in range(1, 6):
            codes = [block_code(row, d) for row in _blocks(d, n)]
            assert codes == list(range(d ** n))
    assert block_code([], 2) == 0
    assert block_code([1] * 64, 2) == 2 ** 64 - 1
    assert block_code(np.full(64, 2), 3) == 3 ** 64 - 1  # past int64, exact


def test_membership_window_is_exact():
    # the float 0.1 is slightly below 1/10, so |5 - 5| < 10*0.1 admits
    # neighbours 4 and 6; the exact fraction admits only the center
    ts = TypicalEigenstateSet([0.5, 0.5], 10, 0.1)
    assert sorted(ts.admissible_types()) == [(4, 6), (5, 5), (6, 4)]
    # listed first count ascending: the report sums its floats in this order
    assert list(ts.admissible_types()) == [(4, 6), (5, 5), (6, 4)]
    ts = TypicalEigenstateSet([Fraction(1, 2), Fraction(1, 2)], 10, Fraction(1, 10))
    assert sorted(ts.admissible_types()) == [(5, 5)]


def test_membership_matches_brute_force():
    ts = TypicalEigenstateSet([0.6, 0.4], 6, 0.25)
    seqs = list(itertools.product(range(2), repeat=6))
    members = [s for s in seqs if s in ts]
    # |count - lambda n| < delta n = 1.5 leaves 3, 4 or 5 zeros
    assert members == [s for s in seqs if s.count(0) in (3, 4, 5)]
    assert len(members) == ts.cardinality() == 41


def test_membership_rejects_wrong_length():
    ts = TypicalEigenstateSet([0.5, 0.5], 10, 0.1)
    assert (0, 1, 0, 1) not in ts  # length 4, not 10
    assert tuple([0] * 5 + [1] * 5) in ts
    assert tuple([0] * 9 + [1]) not in ts
    with pytest.raises(ValueError):
        (5, 5) in ts  # letters outside the alphabet


def test_cardinality_three_letters():
    ts = TypicalEigenstateSet([0.5, 0.3, 0.2], 7, 0.2)
    brute = sum(1 for s in itertools.product(range(3), repeat=7) if s in ts)
    assert ts.cardinality() == brute


def test_sampling_stays_in_class_and_covers_it():
    rng = generator(7)
    tc = TypeClass((2, 1, 1))
    seen = set()
    for _ in range(300):
        s = sample_from_type(tc, rng)
        assert type_of(s, 3).counts == tc.counts
        seen.add(tuple(int(v) for v in s))
    assert len(seen) == tc.multiplicity() == 12


def test_report_frozen_values():
    # multinomial sums computed exactly; all figures pinned
    rep = typical_subspace_report(np.diag([0.7, 0.3]), 20, 0.1)
    assert rep.trace_mass == pytest.approx(0.5347640185405581, abs=1e-12)
    assert rep.dim == 131784
    assert rep.delta_prime == pytest.approx(0.24447848426728963, abs=1e-12)
    assert rep.entropy == pytest.approx(0.8812908992306927, abs=1e-12)
    assert rep.min_eig == pytest.approx(2.118962657601084e-06, rel=1e-9)
    assert rep.max_eig == pytest.approx(1.1536574469161481e-05, rel=1e-9)
    assert rep.bounds_ok == (False, True, True)


def test_report_mass_grows_with_block_length():
    masses = [typical_subspace_report(np.diag([0.7, 0.3]), n, 0.1).trace_mass
              for n in (10, 20, 40, 80)]
    assert all(b > a for a, b in zip(masses, masses[1:]))
    rep = typical_subspace_report(np.diag([0.7, 0.3]), 80, 0.1)
    assert rep.bounds_ok == (True, True, True)


def test_report_maximally_mixed():
    rep = typical_subspace_report(np.eye(2) / 2, 80, 0.1)
    assert rep.trace_mass == pytest.approx(0.943335573654879, abs=1e-12)
    assert rep.entropy == pytest.approx(1.0, abs=1e-12)
    assert rep.bounds_ok == (True, True, True)


def test_report_pure_state_is_trivial():
    rep = typical_subspace_report(np.diag([1.0, 0.0]), 12, 0.1)
    assert rep.trace_mass == pytest.approx(1.0, abs=1e-15)
    assert rep.dim == 1
    assert rep.entropy == pytest.approx(0.0, abs=1e-15)
    assert rep.bounds_ok == (True, True, True)


def test_report_restricts_to_support():
    # a zero eigenvalue must not blow up the eigenvalue-ratio width
    full = typical_subspace_report(np.diag([0.7, 0.3]), 20, 0.1)
    padded = typical_subspace_report(np.diag([0.7, 0.3, 0.0]), 20, 0.1)
    assert padded.dim == full.dim
    assert padded.trace_mass == pytest.approx(full.trace_mass, abs=1e-15)
    assert padded.delta_prime == pytest.approx(full.delta_prime, abs=1e-15)


def test_report_nondiagonal_input():
    # basis rotation leaves every figure unchanged
    theta = 0.6
    u = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    rot = u @ np.diag([0.7, 0.3]) @ u.T
    rep = typical_subspace_report(rot, 20, 0.1)
    assert rep.trace_mass == pytest.approx(0.5347640185405581, abs=1e-9)
    assert rep.dim == 131784


def test_report_json_round_trip():
    rep = typical_subspace_report(np.diag([0.7, 0.3]), 10, 0.1)
    d = rep.to_json()
    assert d["n"] == 10 and d["dim"] == rep.dim
    assert d["bounds_ok"] == list(rep.bounds_ok)
    assert isinstance(d["bounds_ok"][0], bool)


def test_report_validation():
    with pytest.raises(ValueError):
        typical_subspace_report(np.eye(2) / 2, 10, 0.1, eps=0.0)
    with pytest.raises(ValueError):
        TypicalEigenstateSet([0.5, 0.5], 0, 0.1)
    with pytest.raises(ValueError):
        TypicalEigenstateSet([0.5, 0.5], 10, 0.0)
    with pytest.raises(ValueError):
        TypicalEigenstateSet([0.9, 0.3], 10, 0.1)
    with pytest.raises(ValueError, match="probability distribution"):
        TypicalEigenstateSet([float("nan"), 1.0], 10, 0.1)
    for delta in (float("inf"), float("nan")):  # no binary rational to pin
        with pytest.raises(ValueError, match="delta must be a finite number"):
            TypicalEigenstateSet([0.5, 0.5], 10, delta)


def test_enumeration_cap():
    with pytest.raises(ValueError):
        enumerate_types(10**6, 6)
    with pytest.raises(ValueError):
        enumerate_types(-1, 2)
