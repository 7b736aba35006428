"""End-to-end acceptance checks, one test per advertised guarantee.

Each test prints a single "[criterion N] PASS/FAIL: ..." line with the
measured numbers before asserting, so the verdict and the evidence stay
together in the pytest output."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from qcap.capacity import (
    ad_asymptotics,
    ad_ce,
    ad_ch,
    bloch_grid_ce,
    ce_additivity_slack,
    ce_maximize,
    concavity_slack,
    holevo_chi,
    pgm_error,
)
from qcap.channels import (
    Ensemble,
    dephasing,
    depolarizing,
    erasure,
    noiseless,
    superdense_ensemble,
    switched_3to2,
)
from qcap.gaussian import (
    GaussianParams,
    ce_over_cshan_limit,
    ch_conjectured,
    coherent_bounds,
    gaussian_ce,
    shannon_capacity,
    squeezed_bounds,
)
from qcap.qmath import (
    DensityOperator,
    apply_channel,
    entropy_exchange,
    entropy_exchange_via_purification,
    quantum_mutual_information,
)
from qcap.rand import generator, random_channel, random_density
from qcap.reverse_shannon import (
    DMC,
    ProtocolConfig,
    bsc_capacity,
    cost_statistics,
    exact_faithfulness_oracle,
)
from qcap.typeclasses import typical_subspace_report


def verdict(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_01_table1():
    t0 = time.perf_counter()
    cases = [
        ("noiseless qubit", noiseless(2), 2.0),
        ("50% erasure", erasure(2, 0.5), 1.0),
        ("2/3 depolarizing", depolarizing(2, 2.0 / 3.0), 0.2075),
        ("100% dephasing", dephasing(2), 1.0),
    ]
    deltas = []
    for _, ch, ref in cases:
        deltas.append(abs(ce_maximize(ch).value - ref))
    dep = depolarizing(2, 2.0 / 3.0)
    outs = tuple(apply_channel(dep, DensityOperator(np.diag(v)))
                 for v in ([1.0, 0.0], [0.0, 1.0]))
    chi = holevo_chi(Ensemble(probs=(0.5, 0.5), states=outs))
    chi_delta = abs(chi - 0.0817)
    elapsed = time.perf_counter() - t0
    ok = max(deltas) <= 5e-4 and chi_delta <= 5e-4 and elapsed < 10.0
    verdict(1, ok, f"max capacity delta {max(deltas):.2e}, "
                   f"orthogonal-input chi delta {chi_delta:.2e}, {elapsed:.1f}s")
    assert max(deltas) <= 5e-4, f"capacity deltas {deltas}"
    assert chi_delta <= 5e-4, f"chi {chi}"
    assert elapsed < 10.0


def test_criterion_02_switched_channel():
    t0 = time.perf_counter()
    ch = switched_3to2()
    assert ch.d_in == 8
    res = ce_maximize(ch)
    elapsed = time.perf_counter() - t0
    ok = abs(res.value - 2.0) <= 1e-3 and elapsed < 120.0
    verdict(2, ok, f"capacity {res.value:.6f} vs 2.0, {elapsed:.1f}s")
    assert abs(res.value - 2.0) <= 1e-3, f"value {res.value}"
    assert elapsed < 120.0


def test_criterion_03_superdense_consistency():
    rng = generator(1003)
    worst = 0.0
    for i in range(20):
        ch = random_channel(2, 2, 2 + i % 3, rng)
        chi = holevo_chi(superdense_ensemble(ch))
        qmi = quantum_mutual_information(ch, DensityOperator(np.eye(2) / 2))
        worst = max(worst, abs(chi - qmi))
    ok = worst <= 1e-6
    verdict(3, ok, f"max |chi - mutual information| = {worst:.2e} over 20 channels")
    assert worst <= 1e-6


def test_criterion_04_entropy_exchange_routes():
    rng = generator(1004)
    worst = 0.0
    for i in range(100):
        d = (2, 3, 4)[i % 3]
        ch = random_channel(d, d, 2 + i % 3, rng)
        rho = random_density(d, rng)
        a = entropy_exchange(ch, rho)
        b = entropy_exchange_via_purification(ch, rho)
        worst = max(worst, abs(a - b))
    ok = worst <= 1e-8
    verdict(4, ok, f"max route disagreement {worst:.2e} over 100 pairs")
    assert worst <= 1e-8


def test_criterion_05_concavity_and_additivity():
    rng = generator(1005)
    worst = 0.0
    for i in range(500):
        d = (2, 3)[i % 2]
        ch = random_channel(d, d, 2, rng)
        s = concavity_slack(ch, random_density(d, rng), random_density(d, rng),
                            float(rng.uniform(0.02, 0.98)))
        worst = min(worst, s)
    slacks = []
    for _ in range(3):
        a = random_channel(2, 2, 2, rng)
        b = random_channel(2, 2, 2, rng)
        slacks.append(abs(ce_additivity_slack(a, b, tol=2e-4)))
    ok = worst >= -1e-8 and max(slacks) <= 1e-3
    verdict(5, ok, f"min concavity slack {worst:.2e} over 500 triples, "
                   f"max additivity slack {max(slacks):.2e} over 3 qubit pairs")
    assert worst >= -1e-8
    assert max(slacks) <= 1e-3


def test_criterion_06_bloch_grid_oracle():
    rng = generator(1006)
    worst = 0.0
    for i in range(10):
        ch = random_channel(2, 2, 2 + i % 3, rng)
        grid, _ = bloch_grid_ce(ch, 0.01)
        worst = max(worst, abs(ce_maximize(ch).value - grid))
    ok = worst <= 1e-4
    verdict(6, ok, f"max |optimizer - grid| = {worst:.2e} over 10 channels")
    assert worst <= 1e-4


def test_criterion_07_damping_ratio():
    ratios = []
    for p in (0.9, 0.99, 0.999, 0.9999):
        ce, _ = ad_ce(p)
        ch, _ = ad_ch(p)
        ratios.append(ce / ch)
    increasing = all(b > a for a, b in zip(ratios, ratios[1:]))
    bounded = all(r < 4.0 for r in ratios)
    ce, xce = ad_ce(0.999)
    ch, xch = ad_ch(0.999)
    rel_ce = abs(ad_asymptotics(0.999, xce)[0] - ce) / ce
    rel_ch = abs(ad_asymptotics(0.999, xch)[1] - ch) / ch
    lead = ad_asymptotics(0.999, 1.0)[0] / ad_asymptotics(0.999, 0.5)[1]
    ok = (increasing and bounded and rel_ce <= 0.2 and rel_ch <= 0.2
          and lead == 4.0)
    verdict(7, ok, f"ratios {[round(r, 4) for r in ratios]}, asymptotic rel err "
                   f"({rel_ce:.3f}, {rel_ch:.3f}) at p=0.999, leading-term "
                   f"ratio {lead}")
    assert increasing and bounded, f"ratios {ratios}"
    assert rel_ce <= 0.2 and rel_ch <= 0.2, f"rel errs {rel_ce}, {rel_ch}"
    assert lead == 4.0


def test_criterion_08a_gaussian_ratio_limit():
    worst = 0.0
    for s in (0.1, 1.0, 10.0):
        lim = ce_over_cshan_limit(s)
        for k in (0.1, 1.0, 3.0):
            p = GaussianParams(s, 1e6, k)
            ratio = gaussian_ce(p) / shannon_capacity(k * k * s, 1e6)
            worst = max(worst, abs(ratio / lim - 1.0))
    ok = worst <= 0.005
    verdict("8a", ok, f"max relative limit mismatch {worst:.2e} on the 3x3 grid")
    assert worst <= 0.005


def test_criterion_08b_gaussian_bound_sandwich():
    violations = []
    for s in (0.1, 0.3, 1.0, 3.0, 10.0):
        for n in (0.3, 1.0, 3.0, 10.0, 30.0):
            ce = gaussian_ce(GaussianParams(s, n, 1.0))
            lb_c, ub_c = coherent_bounds(GaussianParams(s, n, 1.0))
            lb_s, ub_s, _, _ = squeezed_bounds(s, n)
            chain = (lb_c <= lb_s + 1e-12 and lb_s <= ce + 1e-12
                     and ce <= ub_s + 1e-12 and ub_s <= ub_c + 1e-12)
            if not chain:
                violations.append((s, n))
    ok = not violations
    verdict("8b", ok, f"bound chain holds at all 25 grid points"
            if ok else f"violated at {violations}")
    assert not violations


def test_criterion_08c_gaussian_leading_orders():
    s, n = 1e-3, 1.0
    r1 = ch_conjectured(GaussianParams(s, n, 1.0)) / s
    r2 = shannon_capacity(s, n) / (math.log2(math.e) * s)
    r3 = gaussian_ce(GaussianParams(s, n, 1.0)) / (-0.5 * s * math.log2(s))
    ok = 0.95 <= r1 <= 1.05 and 0.95 <= r2 <= 1.05 and 0.9 <= r3 <= 1.1
    verdict("8c", ok, f"leading-order ratios {r1:.4f}, {r2:.4f}, {r3:.4f} "
                      f"(windows [0.95,1.05], [0.95,1.05], [0.9,1.1])")
    assert 0.95 <= r1 <= 1.05, f"conjectured-rate ratio {r1}"
    assert 0.95 <= r2 <= 1.05, f"classical-rate ratio {r2}"
    # the half-S-log-S term only dominates once log2(1/S) dwarfs the
    # constant-order correction, far below S = 1e-3; measured 1.145 here
    assert 0.9 <= r3 <= 1.1, f"assisted-rate ratio {r3}"


def test_criterion_09_protocol_exactness():
    t0 = time.perf_counter()
    devs = [
        exact_faithfulness_oracle(0.3, 1, eps=1.0),
        exact_faithfulness_oracle(0.3, 2, eps=1.0),
        exact_faithfulness_oracle(DMC([[0.5, 0.3, 0.2], [0.1, 0.1, 0.8]]), 2,
                                  zsize=5),
    ]
    elapsed = time.perf_counter() - t0
    ok = max(devs) <= 1e-12 and elapsed < 60.0
    verdict(9, ok, f"max induced-vs-true deviation {max(devs):.2e}, {elapsed:.1f}s")
    assert max(devs) <= 1e-12, f"deviations {devs}"
    assert elapsed < 60.0


def test_criterion_10_protocol_cost_trend():
    t0 = time.perf_counter()
    cap = bsc_capacity(0.1)
    eps = 0.25
    stats = {}
    for n in (8, 16, 24, 32):
        cfg = ProtocolConfig(n=n, eps=eps, variant="bsc")
        stats[n] = cost_statistics(0.1, cfg, 10_000, ("fixed", [0] * n), seed=10)
    elapsed = time.perf_counter() - t0
    exceeds = [stats[n]["p_exceed"] for n in (8, 16, 24, 32)]
    mean32 = stats[32]["mean_bits_per_symbol"]
    decreasing = all(b < a for a, b in zip(exceeds, exceeds[1:]))
    small = exceeds[-1] <= 0.10
    mean_ok = cap <= mean32 <= cap + eps
    ok = decreasing and small and mean_ok and elapsed < 600.0
    verdict(10, ok, f"P(exceed) {[round(v, 4) for v in exceeds]}, "
                    f"mean {mean32:.4f} vs window [{cap:.4f}, {cap + eps:.4f}], "
                    f"{elapsed:.0f}s")
    assert decreasing, f"exceed probabilities {exceeds}"
    assert elapsed < 600.0
    # at n=32 the shared set is still too small for sub-10% overshoot: the
    # index path already costs 22 bits > n(C+eps) = 24.99 - 3 so every
    # fallback (about a third of trials) exceeds, and the fallback surcharge
    # keeps the mean above C+eps; by the exact fallback law the mean first
    # enters the window at n=47 and P(exceed) first falls under 0.10 at n=145
    assert small and mean_ok, (
        f"P(exceed at n=32) = {exceeds[-1]:.4f} (need <= 0.10), "
        f"mean {mean32:.4f} not in [{cap:.4f}, {cap + eps:.4f}]")


def test_criterion_11_typicality_properties():
    rep = typical_subspace_report(np.diag([0.7, 0.3]), 20, 0.1, eps=0.1)
    p1, p2, p3 = rep.bounds_ok
    ok = p1 and p2 and p3
    verdict(11, ok, f"mass {rep.trace_mass:.4f} (> 0.9: {p1}), eigenvalue "
                    f"window: {p2}, dimension window: {p3}")
    assert p2, "eigenvalue range left the typical window"
    assert p3, "dimension left the typical window"
    # exact binomial mass at n=20 is 0.535; the > 1-eps threshold is first
    # cleared between n=40 and n=80
    assert p1, f"trace mass {rep.trace_mass:.4f} <= 0.9"


def test_criterion_12_pgm_bound():
    rng = generator(1012)
    d = 8
    worst = -math.inf
    for i in range(50):
        raw = rng.normal(size=(d, 3)) + 1j * rng.normal(size=(d, 3))
        vecs = [c / np.linalg.norm(c) for c in raw.T]
        if i % 2:
            cols = np.linalg.qr(rng.normal(size=(d, d))
                                + 1j * rng.normal(size=(d, d)))[0][:, :5]
            proj = cols @ cols.conj().T
        else:
            proj = np.eye(d)
        exact, bound = pgm_error(vecs, proj)
        worst = max(worst, float(np.max(exact - bound)))
    ok = worst <= 1e-12
    verdict(12, ok, f"max (exact - bound) = {worst:.2e} over 50 instances")
    assert worst <= 1e-12


# ---------------------------------------------------------------------------
# Executable analyses of the honest failures. The criteria above stay as
# they are; these tests pin down why and where each one is missed.

def test_analysis_08c_assisted_ratio_approaches_one():
    # r3(S) = C_E / (-S log2(S) / 2) falls toward 1 only as log2(1/S) grows:
    # 1.1451, 1.1086 and 1.0869 at S = 1e-3, 1e-4 and 1e-5
    r3 = [gaussian_ce(GaussianParams(s, 1.0, 1.0)) / (-0.5 * s * math.log2(s))
          for s in (1e-3, 1e-4, 1e-5)]
    assert r3 == pytest.approx([1.1451, 1.1086, 1.0869], abs=5e-5)
    assert r3[0] > r3[1] > r3[2]
    assert 0.9 <= r3[2] <= 1.1


def _first_match_law(n, size, p=0.1, eps=0.25):
    # the BSC protocol's exact law on input 0^n with a shared set of `size`
    # iid uniform words: the private output's Hamming distance d is
    # Binom(n, p), a word lies on shell d with q_d = C(n, d) / 2^n, and no
    # word matches with (1 - q_d)^size. The index path sends 1 + ceil(log2
    # size) bits, the fallback 1 + n. Returns (fallback rate, mean bits per
    # symbol, P(bits > n(C + eps)))
    cap = bsc_capacity(p)
    fallback = sum(math.comb(n, d) * p**d * (1.0 - p)**(n - d)
                   * math.exp(size * math.log1p(-math.comb(n, d) / 2.0**n))
                   for d in range(n + 1))
    index_bits, budget = 1 + (size - 1).bit_length(), n * (cap + eps)
    mean = ((1.0 - fallback) * index_bits + fallback * (1 + n)) / n
    exceed = (1.0 - fallback) * (index_bits > budget) + fallback * (1 + n > budget)
    return fallback, mean, exceed


def test_analysis_10_exact_law_explains_the_miss():
    # criterion 10's set holds ceil(2^(n(C + eps/2))) words; at n = 32
    # it measured fallback 0.3448 (+0.84 SE from the law) and mean 0.8060
    cap, eps = bsc_capacity(0.1), 0.25

    def law(n):
        return _first_match_law(n, math.ceil(2.0 ** (n * (cap + eps / 2.0))))

    assert math.ceil(2.0 ** (32 * (cap + eps / 2.0))) == 2_085_759
    fallback, mean, exceed = law(32)
    assert fallback == pytest.approx(0.34079, abs=5e-6)
    assert mean == pytest.approx(0.80465, abs=5e-6)
    # the 22-bit index path fits the 24.99-bit budget and the 33-bit
    # fallback does not, so P(exceed) is the fallback rate
    assert exceed == fallback
    # the mean first enters the window at n = 47; P(exceed) first reaches
    # 0.10 at n = 145
    assert min(n for n in range(1, 200) if cap <= law(n)[1] <= cap + eps) == 47
    assert min(n for n in range(1, 200) if law(n)[2] <= 0.10) == 145
    # no set of 2^k words meets either bound at n = 32: past 2^23 the index
    # path itself exceeds the budget, and at 2^23 P(exceed) is the
    # fallback rate 0.22878. The least mean, at 2^21, is above C + eps
    laws = {k: _first_match_law(32, 2**k) for k in range(64)}
    assert not any(e <= 0.10 or cap <= m <= cap + eps for _, m, e in laws.values())
    assert laws[23][2] == laws[23][0] == pytest.approx(0.22878, abs=5e-6)
    assert laws[24][2] == 1.0
    assert min(laws, key=lambda k: laws[k][1]) == 21
    assert laws[21][1] == pytest.approx(0.80447, abs=5e-6)
    # without a fallback the first match's index is geometric on each
    # shell; at most 2^24 indices fit in 24 bits, and the index exceeds
    # 2^24 with the fallback rate of a 2^24-word set
    assert laws[24][0] == pytest.approx(0.17223, abs=5e-6)


def _binomial_typical_mass(n):
    # exact mass of the delta = 0.1 typical projector of diag(0.7, 0.3)^(x)n:
    # both letter counts strictly within delta*n of their centres, with the
    # floats 0.1, 0.3 and 0.7 taken as the binary rationals they denote
    width = Fraction(0.1) * n
    return sum(math.comb(n, k) * 0.3**k * 0.7**(n - k) for k in range(n + 1)
               if abs(k - Fraction(0.3) * n) < width
               and abs(n - k - Fraction(0.7) * n) < width)


def test_analysis_11_trace_mass_crossings():
    mass = {}
    for n in range(20, 301):
        rep = typical_subspace_report(np.diag([0.7, 0.3]), n, 0.1, eps=0.1)
        assert rep.trace_mass == pytest.approx(_binomial_typical_mass(n), abs=1e-12), n
        mass[n] = rep.trace_mass
    assert mass[20] == pytest.approx(0.5348, abs=5e-5)
    # the mass first clears 1 - eps at n = 53, then dips under it at six
    # more lengths up to n = 65, and stays above it from n = 66 on
    assert min(n for n in mass if mass[n] > 0.9) == 53
    assert mass[53] == pytest.approx(0.9021, abs=5e-5)
    assert [n for n in range(53, 301) if mass[n] <= 0.9] == [54, 55, 56, 57, 60, 65]
    assert mass[65] == pytest.approx(0.8968, abs=5e-5)
