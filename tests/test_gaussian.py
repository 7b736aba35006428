import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from qcap.capacity import EnergyConstraint, ce_maximize_constrained

from qcap.gaussian import (
    GaussianParams,
    ce_over_cshan_limit,
    ch_conjectured,
    coherent_bounds,
    fock_loss_channel,
    g_entropy,
    gaussian_ce,
    output_energy,
    shannon_capacity,
    squeezed_bound_lower_at,
    squeezed_bound_upper_at,
    squeezed_bounds,
    sweep,
    sweep_csv,
    SWEEP_COLUMNS,
)


def _reference(s, n, k, digits=200):
    """(C_E, thermal-ensemble rate) in bits from the direct closed forms.

    C_E = g(S) + g(S') - g((D+S'-S-1)/2) - g((D-S'+S-1)/2) with
    D^2 = (S + S' + 1)^2 - 4 k^2 S (S+1), and the rate g(S') - g(S' - k^2 S).
    The floats S, N, k are exact decimals. The cancellations the float code
    avoids cost digits here: g(x) = (x+1) ln(x+1) - x ln x is off by about
    x ln x 10^-digits, so at 200 digits and S, N <= 1e60 a C_E as small as
    1e-68 keeps over 60 digits.
    """
    with localcontext() as ctx:
        ctx.prec = digits
        one, s, n, k2 = Decimal(1), Decimal(s), Decimal(n), Decimal(k) ** 2

        def g(x):
            # a thermal parameter that is exactly 0 may round to +-1e-100 here
            return (x + one) * (x + one).ln() - x * x.ln() if x > 0 else Decimal(0)
        s_out = k2 * s + n + max(k2 - one, Decimal(0))
        d = ((s + s_out + one) ** 2 - 4 * k2 * s * (s + one)).sqrt()
        ce = g(s) + g(s_out) - g((d + s_out - s - one) / 2) - g((d - s_out + s - one) / 2)
        ch = g(s_out) - g(s_out - k2 * s)
        ln2 = Decimal(2).ln()
        return float(ce / ln2), float(ch / ln2)


def _assert_matches_reference(points):
    for s, n, k in points:
        p = GaussianParams(s, n, k)
        ref_ce, ref_ch = _reference(s, n, k)
        assert gaussian_ce(p) == pytest.approx(ref_ce, rel=1e-12, abs=0.0), p
        assert ch_conjectured(p) == pytest.approx(ref_ch, rel=1e-12, abs=0.0), p


def test_thermal_entropy_values():
    assert g_entropy(0.0) == 0.0
    assert g_entropy(1.0) == pytest.approx(2.0, abs=1e-14)
    assert g_entropy(3.0) == pytest.approx(3.2451124978365313, abs=1e-12)
    with pytest.raises(ValueError):
        g_entropy(-0.1)
    with pytest.raises(ValueError):
        g_entropy(float("nan"))
    with pytest.raises(ValueError):
        g_entropy(math.inf)


def test_noiseless_unit_gain_capacity_doubles_entropy():
    # N=0, k=1: joint state is pure two-mode squeezed, C_E = 2 g(S)
    p = GaussianParams(1.5, 0.0, 1.0)
    assert gaussian_ce(p) == pytest.approx(2 * g_entropy(1.5), abs=1e-12)
    assert gaussian_ce(p) == pytest.approx(4.854752972273344, abs=1e-10)


def test_shannon_capacity():
    assert shannon_capacity(3.0, 1.0) == pytest.approx(2.0, abs=1e-14)
    with pytest.raises(ValueError):
        shannon_capacity(1.0, 0.0)
    with pytest.raises(ValueError):
        shannon_capacity(-1.0, 1.0)
    for s, n in ((float("nan"), 1.0), (1.0, float("nan"))):
        with pytest.raises(ValueError):
            shannon_capacity(s, n)
        with pytest.raises(ValueError):
            squeezed_bounds(s, n)


def test_shannon_capacity_where_the_ratio_overflows():
    # s/n overflowed to inf at n = 1e-320; the value is log2(1 + 1e320)
    assert shannon_capacity(1.0, 1e-320) == pytest.approx(1063.017006, abs=1e-6)
    assert shannon_capacity(1e300, 1e-300) == pytest.approx(600 * math.log2(10), rel=1e-15)
    for s, n in ((3.0, 1.0), (0.0, 1.0), (1e-3, 7.0), (1e6, 1e-6)):
        assert shannon_capacity(s, n) == math.log1p(s / n) / math.log(2.0)


def test_output_energy_continuous_at_unit_gain():
    below = output_energy(GaussianParams(1.0, 0.5, 1.0 - 1e-12))
    at = output_energy(GaussianParams(1.0, 0.5, 1.0))
    assert at == pytest.approx(below, abs=1e-10)
    # amplifier adds k^2 - 1 quanta
    assert output_energy(GaussianParams(1.0, 0.5, 2.0)) == pytest.approx(7.5)


def test_large_noise_ratio_limit():
    assert ce_over_cshan_limit(1.0) == pytest.approx(2 * math.log(2), abs=1e-14)
    # tends to 1 from above as the signal grows
    assert ce_over_cshan_limit(1e6) == pytest.approx(1.0, abs=1e-5)
    assert ce_over_cshan_limit(0.01) > ce_over_cshan_limit(0.1) > 1.0
    for s in (0.0, float("nan"), math.inf):
        with pytest.raises(ValueError):
            ce_over_cshan_limit(s)
    # below S of about 5.6e-309, 1/S overflows; the limit is then
    # (S + 1)(ln(1 + S) - ln S), about 736.83 at 1e-320
    for s in (1e-308, 1e-320, 5e-324):
        assert ce_over_cshan_limit(s) == pytest.approx(-math.log(s), rel=1e-15)


def test_ratio_converges_to_limit_and_ignores_gain():
    # classical reference uses the received signal k^2 S
    for s in (0.1, 1.0, 10.0):
        lim = ce_over_cshan_limit(s)
        for k in (0.5, 1.0, 3.0):
            p = GaussianParams(s, 1e6, k)
            ratio = gaussian_ce(p) / shannon_capacity(k * k * s, 1e6)
            assert ratio == pytest.approx(lim, rel=1e-4)


def test_coherent_bounds_values():
    lb, ub = coherent_bounds(GaussianParams(1.0, 2.0, 1.0))
    assert lb == pytest.approx(math.log2(4.0 / 3.0), abs=1e-12)
    assert ub == pytest.approx(math.log2(3.0), abs=1e-12)


def test_coherent_upper_bound_diverges_at_low_noise():
    lb, ub = coherent_bounds(GaussianParams(1.0, 1.0, 1.0))
    assert math.isfinite(lb)
    assert ub == math.inf
    # amplifier branch: finite only above one noise quantum
    assert coherent_bounds(GaussianParams(1.0, 0.5, 2.0))[1] == math.inf
    assert math.isfinite(coherent_bounds(GaussianParams(1.0, 1.5, 2.0))[1])


def test_squeezed_bounds_frozen_values():
    lb, ub, r_lb, r_ub = squeezed_bounds(1.0, 1.0)
    assert lb == pytest.approx(0.6651984922762122, abs=1e-10)
    assert ub == pytest.approx(2.1421564297813918, abs=1e-10)
    assert 0.0 < r_lb < r_ub


def _squeezed_lower_reference(s, n, digits=400):
    """log2(1 + S (D1+N-1)/((D1+N+1) N)), D1 = sqrt((N+1)^2 + 4NS), in decimal."""
    with localcontext() as ctx:
        ctx.prec = digits
        one, s, n = Decimal(1), Decimal(s), Decimal(n)
        d1 = ((n + one) ** 2 + 4 * n * s).sqrt()
        x = s * (d1 + n - one) / ((d1 + n + one) * n)
        return float((one + x).ln() / Decimal(2).ln())


def test_squeezed_lower_bound_at_small_noise():
    # S (D1+N-1)/((D1+N+1) N) cancelled in D1 - 1: at S = 1 it gave
    # 1.5849946 at N = 1e-12, 1.0774 at N = 1e-16 and 0 at N = 1e-320
    for n in (1e-16, 1e-100, 1e-320):
        assert squeezed_bounds(1.0, n)[0] == pytest.approx(math.log2(3.0), rel=1e-15)
    for s in (1e-300, 1e-6, 1.0, 1e6):
        for n in (1e-320, 1e-200, 1e-16, 1e-3, 1.0, 1e3):
            ref = _squeezed_lower_reference(s, n)
            assert squeezed_bounds(s, n)[0] == pytest.approx(ref, rel=1e-13, abs=0.0), (s, n)


def _squeezed_upper_reference(s, n, digits=400):
    """(log2(1 + (S + (D1+N+1)/(2N))/N), ln((D1+1)/N)/2) in decimal."""
    with localcontext() as ctx:
        ctx.prec = digits
        one, s, n = Decimal(1), Decimal(s), Decimal(n)
        d1 = ((n + one) ** 2 + 4 * n * s).sqrt()
        x = (s + (d1 + n + one) / (2 * n)) / n
        return float((one + x).ln() / Decimal(2).ln()), float(((d1 + one) / n).ln() / 2)


def test_squeezed_upper_bound_at_small_noise():
    # (S + (D1+N+1)/(2N))/N and (D1+1)/N overflowed below N ~ 1e-154 and
    # 1e-308: ub_sq was inf at S = N = 1e-300 and r_upper inf at N = 1e-320
    for s in (1e-300, 1e-6, 1.0, 1e6):
        for n in (1e-320, 1e-200, 1e-16, 1e-3, 1.0, 1e3):
            upper, r_upper = _squeezed_upper_reference(s, n)
            _, ub, _, r_ub = squeezed_bounds(s, n)
            assert ub == pytest.approx(upper, rel=1e-12, abs=0.0), (s, n)
            assert r_ub == pytest.approx(r_upper, rel=1e-12, abs=0.0), (s, n)
    assert squeezed_bounds(1e-300, 1e-300)[1] == pytest.approx(1993.156857, rel=1e-9)
    # where neither ratio overflows, the floats are those of the direct form
    for s in (0.0, 1e-300, 1e-6, 1.0, 1e6, 1e149):
        for n in (1e-150, 1e-16, 1e-3, 1.0, 1e3, 1e149):
            if s + n + 1.0 > 1e150:
                continue
            d1 = math.sqrt((n + 1.0) ** 2 + 4.0 * n * s)
            _, ub, _, r_ub = squeezed_bounds(s, n)
            assert ub == math.log1p((s + (d1 + n + 1.0) / (2.0 * n)) / n) / math.log(2.0)
            assert r_ub == 0.5 * math.log((d1 + 1.0) / n)


def test_squeezed_bounds_reject_non_finite_and_huge_energies():
    # S = 1e300 gave lower = inf above upper = 996.58; inf gave NaN. The
    # pointwise bounds took S, N and r unchecked: N = -1 divided by zero in
    # the lower one, a NaN N gave NaN and S = -5 an infinite upper bound
    inf, nan = math.inf, math.nan
    pointwise = (squeezed_bound_lower_at, squeezed_bound_upper_at)
    for s, n in ((1e300, 1.0), (inf, 1.0), (1.0, inf), (2e150, 1.0), (1.0, 2e150),
                 (1.0, -1.0), (1.0, nan), (-5.0, 1.0)):
        with pytest.raises(ValueError):
            squeezed_bounds(s, n)
        for bound in pointwise:
            with pytest.raises(ValueError):
                bound(s, n, 0.0)
    for r in (nan, -0.1, inf):
        for bound in pointwise:
            with pytest.raises(ValueError, match="squeezing"):
                bound(1.0, 1.0, r)
    lb, ub, _, _ = squeezed_bounds(1e149, 1e-3)
    assert 0.0 < lb <= ub < inf


def test_squeezed_bounds_match_pointwise_evaluations():
    s, n = 2.0, 0.7
    lb, ub, r_lb, r_ub = squeezed_bounds(s, n)
    assert squeezed_bound_lower_at(s, n, r_lb) == pytest.approx(lb, abs=1e-12)
    assert squeezed_bound_upper_at(s, n, r_ub) == pytest.approx(ub, abs=1e-12)
    # optima beat the r=0 (coherent) points
    assert lb >= squeezed_bound_lower_at(s, n, 0.0) - 1e-12
    assert ub <= squeezed_bound_upper_at(s, n, 0.0) + 1e-12


def test_squeezed_at_zero_reduces_to_coherent():
    s, n = 1.3, 2.1
    lb_c, ub_c = coherent_bounds(GaussianParams(s, n, 1.0))
    assert squeezed_bound_lower_at(s, n, 0.0) == pytest.approx(lb_c, abs=1e-12)
    assert squeezed_bound_upper_at(s, n, 0.0) == pytest.approx(ub_c, abs=1e-12)


def test_squeezed_lower_respects_energy_budget():
    with pytest.raises(ValueError):
        squeezed_bound_lower_at(0.5, 1.0, 2.0)  # sinh^2(2) > 0.5


def test_bound_sandwich_on_grid():
    for s in (0.2, 1.0, 5.0):
        for n in (1.5, 3.0, 8.0):
            ce = gaussian_ce(GaussianParams(s, n, 1.0))
            lb_c, ub_c = coherent_bounds(GaussianParams(s, n, 1.0))
            lb_s, ub_s, _, _ = squeezed_bounds(s, n)
            assert lb_c <= lb_s + 1e-12
            assert lb_s <= ce + 1e-12
            assert ce <= ub_s + 1e-12
            assert ub_s <= ub_c + 1e-12


def test_conjectured_unassisted_rate_never_exceeds_assisted():
    for s in (0.1, 1.0, 4.0):
        for n in (0.0, 0.5, 2.0):
            for k in (0.6, 1.0, 1.8):
                p = GaussianParams(s, n, k)
                assert ch_conjectured(p) <= gaussian_ce(p) + 1e-12


def test_assisted_capacity_monotone_in_gain_at_moderate_noise():
    # with the fixed-N reference, ce grows with k once N is not tiny
    for n in (0.5, 2.0):
        vals = [gaussian_ce(GaussianParams(1.0, n, k))
                for k in (0.5, 0.8, 1.0, 1.5, 2.5)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_low_signal_asymptotics():
    s, n = 1e-3, 1.0
    # C_H ~ S log2 e at small S through unit-gain unit-noise channel... the
    # conjectured rate tracks S to leading order in this regime
    assert ch_conjectured(GaussianParams(s, n, 1.0)) / s == pytest.approx(
        1.0, rel=0.06)
    assert shannon_capacity(s, n) / (math.log2(math.e) * s) == pytest.approx(
        1.0, rel=1e-3)
    ce = gaussian_ce(GaussianParams(s, n, 1.0))
    assert ce / (-0.5 * s * math.log2(s)) == pytest.approx(1.0, rel=0.2)


def test_subnormal_signal_capacity_is_finite():
    # below S of about 1e-308 the stable form's 1/b overflows
    top = gaussian_ce(GaussianParams(1e-300, 1.0, 1.0))
    for s in (1e-308, 1e-310, 1e-320, 5e-324):
        ce = gaussian_ce(GaussianParams(s, 1.0, 1.0))
        assert math.isfinite(ce) and 0.0 <= ce <= top


def test_random_points_match_high_precision_reference():
    # S and N over 66 decades, one point in ten noiseless, k over three
    rng = np.random.default_rng(2026)
    points = [(10.0 ** rng.uniform(-6, 60),
               0.0 if rng.random() < 0.1 else 10.0 ** rng.uniform(-6, 60),
               10.0 ** rng.uniform(-1.5, 1.5)) for _ in range(300)]
    _assert_matches_reference(points)


def test_noiseless_channels_match_high_precision_reference():
    # pure loss, the identity and the quantum-limited amplifier: at N = 0 one
    # thermal parameter is exactly 0 and the old discriminant cancelled to it
    points = [(float(s), 0.0, math.sqrt(k2))
              for k2 in (0.1, 0.5, 0.9, 0.99, 1.0, 4.0)
              for s in np.logspace(0, 8, 25)]
    points += [(7.8e7, 0.0, 1.0), (1536.0, 0.0, 0.9486832980505138)]
    _assert_matches_reference(points)
    # the identity channel: C_E = 2 g(S)
    assert gaussian_ce(GaussianParams(7.8e7, 0.0, 1.0)) == pytest.approx(
        2.0 * g_entropy(7.8e7), rel=1e-15)


def test_bound_chain_on_log_grid():
    # 67 x 52 x 6 = 20,904 points: S and N over 66 decades, N = 0 included
    def le(x, y):
        return x <= y + 1e-12 * abs(y)
    for s in np.logspace(-6, 60, 67):
        for n in np.concatenate(([0.0], np.logspace(-6, 60, 51))):
            for k in (10 ** -1.5, 0.5, 0.9486832980505138, 1.0, 2.0, 10 ** 1.5):
                p = GaussianParams(float(s), float(n), k)
                ce, ch = gaussian_ce(p), ch_conjectured(p)
                lb, ub = coherent_bounds(p)
                assert le(lb, ce) and le(ce, ub), (p, lb, ce, ub)
                assert 0.0 <= ch and le(ch, ce), (p, ch, ce)
                if k == 1.0 and n > 0.0:
                    lb_s, ub_s, _, _ = squeezed_bounds(p.S, p.N)
                    assert le(lb_s, ce) and le(ce, ub_s), (p, lb_s, ce, ub_s)
    # noise down to 1e-320 at k = 1, where the squeezed lower bound was 0
    # or, at a tiny S, raised on its energy-budget guard
    for s in np.logspace(-300, 60, 37):
        for n in np.logspace(-320, -6, 158):
            p = GaussianParams(float(s), float(n), 1.0)
            lb_c, lb_s = coherent_bounds(p)[0], squeezed_bounds(p.S, p.N)[0]
            assert le(lb_c, lb_s) and le(lb_s, gaussian_ce(p)), (p, lb_c, lb_s)


def test_thermal_entropy_at_large_photon_number():
    # (s+1) ln(1+s) - s ln s cancelled to 0.0 at s = 1e16
    assert g_entropy(1e16) == pytest.approx(54.59354456, abs=5e-9)
    for s in (1e16, 1e100, 1e-100):
        ref = _reference(s, 0.0, 1.0)[0] / 2  # C_E = 2 g(S) on the identity
        assert g_entropy(s) == pytest.approx(ref, rel=1e-14)


def test_extreme_thermal_parameters_stay_accurate():
    # a subnormal thermal parameter b makes u/(b(a+1)) overflow; a huge b
    # beside a small shift u makes it underflow, at u/b^2 below 1e-308,
    # which the rate g(N + S) - g(N) at N = 1e149 shows
    assert gaussian_ce(GaussianParams(1.0, 1e-320, 2.0)) == pytest.approx(
        2.2068, abs=1e-4)
    for s, n, k in ((1.0, 1e-320, 2.0), (1.0, 1e140, 1.0), (10.0, 1e145, 0.5),
                    (1e-20, 1e149, 1.0)):
        p = GaussianParams(s, n, k)
        ref_ce, ref_ch = _reference(s, n, k, digits=400)
        assert gaussian_ce(p) == pytest.approx(ref_ce, rel=1e-12, abs=0.0)
        assert ch_conjectured(p) == pytest.approx(ref_ch, rel=1e-12, abs=0.0)


def test_params_validation():
    with pytest.raises(ValueError):
        GaussianParams(-1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        GaussianParams(1.0, -0.1, 1.0)
    with pytest.raises(ValueError):
        GaussianParams(1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        GaussianParams(float("nan"), 0.0, 1.0)
    # an infinite S, N or k made the sweep print NaN cells
    inf = float("inf")
    for args in ((inf, 1.0, 1.0), (1.0, inf, 1.0), (1.0, 1.0, inf)):
        with pytest.raises(ValueError):
            GaussianParams(*args)
    # S + S' + 1 past 1e150 overflowed (S + S' + 1)^2 or made C_E NaN
    for args in ((1.0, 1e200, 1.0), (1.0, 1.0, 1e200), (1e200, 0.0, 1.0)):
        with pytest.raises(ValueError):
            GaussianParams(*args)
    assert math.isfinite(gaussian_ce(GaussianParams(1e149, 1e149, 1.0)))


def test_sweep_grid_order_and_columns():
    rows = sweep([1.0, 2.0], [0.5, 1.0], [1.0])
    assert len(rows) == 4
    assert [r[:2] for r in rows] == [(1.0, 0.5), (1.0, 1.0), (2.0, 0.5), (2.0, 1.0)]
    assert len(SWEEP_COLUMNS) == len(rows[0]) == 11


def test_sweep_squeezed_columns_nan_away_from_unit_gain():
    rows = sweep([1.0], [1.0], [0.5, 1.0])
    off, on = rows
    assert math.isnan(off[8]) and math.isnan(off[9])
    assert math.isfinite(on[8]) and math.isfinite(on[9])


def test_sweep_csv_renders_every_cell():
    text = sweep_csv(sweep([1.0], [1.0], [1.0, 2.0]))
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 3
    assert "nan" in lines[2]  # squeezed columns away from k=1
    for line in lines[1:]:
        assert len(line.split(",")) == 11


def test_fock_loss_channel_kraus_and_validation():
    ch = fock_loss_channel(0.3, 4)
    assert ch.kraus.shape == (4, 4, 4)
    # |2> loses one photon with amplitude sqrt(2 eta (1 - eta))
    assert ch.kraus[1, 1, 2] == pytest.approx(math.sqrt(2 * 0.3 * 0.7), abs=1e-15)
    assert fock_loss_channel(1.0, 3).kraus[0] == pytest.approx(np.eye(3))
    # the channel constructors' dimension rule: 3.0 is 3, 2.5 and True are not
    assert fock_loss_channel(0.5, 3.0).kraus.shape == (3, 3, 3)
    for eta, dim in ((-0.1, 4), (1.5, 4), (0.5, 0), (0.5, 2.5), (0.5, True), (0.5, "x")):
        with pytest.raises(ValueError):
            fock_loss_channel(eta, dim)


def test_truncated_pure_loss_approaches_closed_form():
    # the truncated channel is exact on its Fock subspace, so its capped
    # capacity is a lower bound on the bosonic one that closes as D grows
    s, eta, tol = 2.0, 0.3, 1e-9
    closed = g_entropy(s) + g_entropy(eta * s) - g_entropy((1 - eta) * s)
    assert gaussian_ce(GaussianParams(s, 0.0, math.sqrt(eta))) == pytest.approx(closed,
                                                                                abs=1e-12)
    shortfall = {}
    for dim in (24, 32):
        cons = EnergyConstraint(np.diag(np.arange(dim, dtype=float)), s)
        res = ce_maximize_constrained(fock_loss_channel(eta, dim), cons, tol=tol)
        assert res.gap_bound <= tol
        shortfall[dim] = closed - res.value
        assert shortfall[dim] >= -tol
    assert shortfall[32] < shortfall[24]
