import math

import numpy as np
import pytest

from qcap.capacity import EnergyConstraint, ce_maximize_constrained

from qcap.gaussian import (
    GaussianParams,
    big_d,
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


def test_thermal_entropy_values():
    assert g_entropy(0.0) == 0.0
    assert g_entropy(1.0) == pytest.approx(2.0, abs=1e-14)
    assert g_entropy(3.0) == pytest.approx(3.2451124978365313, abs=1e-12)
    with pytest.raises(ValueError):
        g_entropy(-0.1)
    with pytest.raises(ValueError):
        g_entropy(float("nan"))


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


def test_output_energy_continuous_at_unit_gain():
    below = output_energy(GaussianParams(1.0, 0.5, 1.0 - 1e-12))
    at = output_energy(GaussianParams(1.0, 0.5, 1.0))
    assert at == pytest.approx(below, abs=1e-10)
    # amplifier adds k^2 - 1 quanta
    assert output_energy(GaussianParams(1.0, 0.5, 2.0)) == pytest.approx(7.5)


def test_big_d_rejects_unphysical_combination():
    with pytest.raises(ValueError):
        big_d(1.0, 0.0, 5.0)


def test_large_noise_ratio_limit():
    assert ce_over_cshan_limit(1.0) == pytest.approx(2 * math.log(2), abs=1e-14)
    # tends to 1 from above as the signal grows
    assert ce_over_cshan_limit(1e6) == pytest.approx(1.0, abs=1e-5)
    assert ce_over_cshan_limit(0.01) > ce_over_cshan_limit(0.1) > 1.0
    for s in (0.0, float("nan"), math.inf):
        with pytest.raises(ValueError):
            ce_over_cshan_limit(s)


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
    for eta, dim in ((-0.1, 4), (1.5, 4), (0.5, 0)):
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
