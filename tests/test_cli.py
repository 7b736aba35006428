import json
import os
import subprocess
import sys

import numpy as np
import pytest

from qcap.cli import main
from qcap.gaussian import ce_over_cshan_limit


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_table1_hits_references(capsys):
    code, out, err = run(capsys, "table1")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 4
    for row in rows:
        assert row["delta"] <= 5e-4
    depol = rows[2]
    assert depol["chi_delta"] <= 5e-4
    assert "config:" in err


def test_capacity_preset_amplitude_damping(capsys):
    code, out, _ = run(capsys, "capacity", "ce", "--preset", "amplitude-damping:0.5")
    assert code == 0
    res = json.loads(out)
    assert res["value"] == pytest.approx(1.0, abs=1e-5)


def test_capacity_preset_noiseless(capsys):
    code, out, _ = run(capsys, "capacity", "ce", "--preset", "noiseless:2")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(2.0, abs=1e-9)


def test_capacity_preset_dimension_one(capsys):
    # every one-dimensional channel is the identity on one state: C_E = 0
    for preset in ("depolarizing:0.5:1", "noiseless:1", "dephasing:1"):
        code, out, _ = run(capsys, "capacity", "ce", "--preset", preset)
        assert code == 0, preset
        assert json.loads(out)["value"] == 0.0, preset


def test_capacity_spec_file(tmp_path, capsys):
    spec = tmp_path / "chan.json"
    spec.write_text(json.dumps({"kind": "depolarizing", "params": {"d": 2, "q": 2 / 3}}))
    code, out, _ = run(capsys, "capacity", "ce", "--spec", str(spec))
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.2075187496, abs=1e-5)


def test_capacity_with_constraint_file(tmp_path, capsys):
    cons = tmp_path / "cons.json"
    obs = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]  # [re, im] cells
    cons.write_text(json.dumps({"observable": obs, "bound": 10.0}))
    code, out, _ = run(capsys, "capacity", "ce", "--preset", "amplitude-damping:0.3",
                       "--constraint", str(cons))
    assert code == 0
    free = json.loads(out)["value"]
    code, out, _ = run(capsys, "capacity", "ce", "--preset", "amplitude-damping:0.3")
    assert json.loads(out)["value"] == pytest.approx(free, abs=1e-7)


def test_capacity_with_infinite_constraint_bound(tmp_path, capsys):
    cons = tmp_path / "cons.json"
    obs = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    cons.write_text('{"observable": %s, "bound": Infinity}' % json.dumps(obs))
    code, out, _ = run(capsys, "capacity", "ce", "--preset", "amplitude-damping:0.3",
                       "--constraint", str(cons))
    assert code == 0
    capped = json.loads(out)
    code, out, _ = run(capsys, "capacity", "ce", "--preset", "amplitude-damping:0.3")
    assert capped == json.loads(out)


def test_malformed_spec_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "capacity", "ce", "--spec", str(bad))
    assert code == 2
    assert "error" in err.lower()


def test_unknown_preset_is_usage_error(capsys):
    code, _, err = run(capsys, "capacity", "ce", "--preset", "teleport:3")
    assert code == 2


def test_preset_bad_parameter_is_usage_error(capsys):
    code, _, _ = run(capsys, "capacity", "ce", "--preset", "amplitude-damping:1.5")
    assert code == 2



def test_preset_surplus_fields_are_usage_errors(capsys):
    for preset in ("noiseless:2:9", "switched-3to2:1", "amplitude-damping:0.3:0.1"):
        code, out, err = run(capsys, "capacity", "ce", "--preset", preset)
        assert code == 2, preset
        assert out == "" and "error:" in err, preset

def test_sweep_endpoints(capsys):
    code, out, _ = run(capsys, "sweep", "--pmin", "0", "--pmax", "0.9999",
                       "--count", "3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "p,ce,ch,ratio"
    assert lines[1] == "0,2,1,2"
    last = lines[-1].split(",")
    assert float(last[0]) == pytest.approx(0.9999)
    assert 2.0 < float(last[3]) < 4.0


def test_sweep_ratio_monotone(capsys):
    code, out, _ = run(capsys, "sweep", "--pmin", "0.9", "--pmax", "0.999",
                       "--count", "4")
    ratios = [float(l.split(",")[3]) for l in out.strip().split("\n")[1:]]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))


def test_sweep_stdout_frozen(capsys):
    # frozen from the Kraus-map route that the closed forms replaced
    code, out, _ = run(capsys, "sweep", "--count", "5")
    assert code == 0
    assert out == ("p,ce,ch,ratio\n"
                   "0,2,1,2\n"
                   "0.249975,1.41223462,0.6836888901,2.065610017\n"
                   "0.49995,1.000079248,0.4717694269,2.119847517\n"
                   "0.749925,0.592779394,0.2698840647,2.196422358\n"
                   "0.9999,0.001060531338,0.0003700771947,2.86570303\n")


def test_sweep_bad_grid_is_usage_error(capsys):
    assert run(capsys, "sweep", "--pmin", "0.5", "--pmax", "0.2")[0] == 2
    assert run(capsys, "sweep", "--count", "1")[0] == 2
    assert run(capsys, "sweep", "--pmax", "1.0")[0] == 2


def test_gaussian_grid(capsys):
    code, out, _ = run(capsys, "gaussian", "--S", "1", "--N", "2", "--k", "1")
    assert code == 0
    header, row = out.strip().split("\n")
    cells = dict(zip(header.split(","), row.split(",")))
    assert float(cells["ce"]) > float(cells["lb_sq"]) >= float(cells["lb_coh"])
    assert float(cells["ub_coh"]) >= float(cells["ub_sq"]) >= float(cells["ce"])


def test_gaussian_subnormal_signal_prints_finite_capacity(capsys):
    code, out, _ = run(capsys, "gaussian", "--S", "1e-320", "--N", "1", "--k", "1")
    assert code == 0
    header, row = out.strip().split("\n")
    ce = float(dict(zip(header.split(","), row.split(",")))["ce"])
    assert np.isfinite(ce) and ce >= 0.0


def _gaussian_row(capsys, *argv):
    code, out, _ = run(capsys, "gaussian", *argv)
    assert code == 0
    header, row = out.strip().split("\n")
    return row, {key: float(v) for key, v in zip(header.split(","), row.split(","))}


def test_gaussian_noiseless_loss_prints_a_row(capsys):
    # 1536 photons through pure loss at k^2 = 0.9 exited 2 on a clamp
    _, cells = _gaussian_row(capsys, "--S", "1536", "--N", "0", "--k", "0.9486832980505138")
    assert cells["lb_coh"] <= cells["ce"] and 0.0 < cells["ch_conj"] <= cells["ce"]


def test_gaussian_large_signal_through_amplifier(capsys):
    # at 1e17 photons the old thermal parameters cancelled: ce printed
    # 120.0412442, above ub_coh, and ch_conj -1017.370509
    row, cells = _gaussian_row(capsys, "--S", "1e17", "--N", "1e3", "--k", "1.5")
    assert row.split(",")[3] == "47.67601702"
    assert cells["lb_coh"] <= cells["ce"] <= cells["ub_coh"] == 47.67836175
    assert 0.0 < cells["ch_conj"] <= cells["ce"]


def test_gaussian_rows_at_subnormal_noise(capsys):
    # at N = 1e-320, s/n overflowed: cshan printed inf and ratio nan
    row, cells = _gaussian_row(capsys, "--S", "1", "--N", "1e-320", "--k", "1")
    assert row.split(",")[4] == "1063.017006"
    assert cells["ratio"] == pytest.approx(4.0 / 1063.017006, rel=1e-9)
    # the squeezed lower bound printed 0, below the coherent one, and the
    # upper one inf
    for argv in (("--S", "1", "--N", "1e-320"), ("--S", "1e-300", "--N", "1e-300")):
        _, cells = _gaussian_row(capsys, *argv, "--k", "1")
        assert 0.0 < cells["lb_coh"] <= cells["lb_sq"] <= cells["ce"]
        assert cells["ce"] <= cells["ub_sq"] <= cells["ub_coh"]
    assert cells["ub_sq"] == pytest.approx(1993.156857, rel=1e-9)


def test_gaussian_limit_column(capsys):
    code, out, _ = run(capsys, "gaussian", "--S", "0.5,2", "--limit")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "S,ce_over_cshan_limit"
    for line in lines[1:]:
        s, v = line.split(",")
        assert float(v) == pytest.approx(ce_over_cshan_limit(float(s)), rel=1e-9)


def test_gaussian_limit_at_subnormal_signal(capsys):
    code, out, _ = run(capsys, "gaussian", "--S", "1e-320", "--limit")
    assert code == 0
    assert out.strip().split("\n")[1] == "9.999888672e-321,736.8272409"


def test_typical_check_fraction_delta(capsys):
    code, out, _ = run(capsys, "typical", "check", "--probs", "0.7,0.3",
                       "--n", "20", "--delta", "1/10")
    assert code == 0
    rep = json.loads(out)
    assert rep["dim"] == 131784
    assert rep["bounds_ok"] == [False, True, True]
    assert rep["trace_mass"] == pytest.approx(0.5347640185, abs=1e-9)


def test_typical_check_float_delta_matches_fraction(capsys):
    _, out_f, _ = run(capsys, "typical", "check", "--probs", "0.7,0.3",
                      "--n", "20", "--delta", "0.1")
    _, out_q, _ = run(capsys, "typical", "check", "--probs", "0.7,0.3",
                      "--n", "20", "--delta", "1/10")
    assert json.loads(out_f)["dim"] == json.loads(out_q)["dim"]


def test_typical_check_large_block_length(capsys):
    # multiplicities and weights at n=2000 lie far outside the float range
    code, out, _ = run(capsys, "typical", "check", "--probs", "0.7,0.3",
                       "--n", "2000", "--delta", "1/10")
    assert code == 0
    rep = json.loads(out)
    assert len(rep["bounds_ok"]) == 3
    assert all(isinstance(flag, bool) for flag in rep["bounds_ok"])


def test_typical_check_pure_source_prints_positive_zero_entropy(capsys):
    code, out, _ = run(capsys, "typical", "check", "--probs", "1.0,0",
                       "--n", "3", "--delta", "0.5")
    assert code == 0
    assert '"entropy": 0.0,' in out and "-0.0" not in out


def test_typical_check_bad_probs(capsys):
    code, _, _ = run(capsys, "typical", "check", "--probs", "0.7,0.7",
                     "--n", "10", "--delta", "0.1")
    assert code == 2


def test_typical_and_gaussian_input_errors(capsys):
    # malformed or out-of-range flag values exit 2 before printing anything
    for argv in (
        ("typical", "check", "--probs", "0.7,0.3", "--n", "20", "--delta", "abc"),
        ("typical", "check", "--probs", "0.7,x", "--n", "20", "--delta", "1/10"),
        ("typical", "check", "--probs", "0.7,0.3", "--n", "0", "--delta", "1/10"),
        ("typical", "check", "--probs", "0.7,0.3", "--n", "20", "--delta", "1/10",
         "--eps", "2"),
        ("gaussian", "--S", "-1", "--N", "1", "--k", "1"),
        ("gaussian", "--S", "1", "--N", "1,x", "--k", "1"),
        ("gaussian", "--S", "0", "--limit"),
        ("gaussian", "--S", "1", "--N", "1e200", "--k", "1"),
        ("gaussian", "--S", "1", "--N", "1", "--k", "1e200"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == "" and "error:" in err, argv


def test_rst_verify_exact(capsys):
    code, out, _ = run(capsys, "rst", "verify-exact", "--bsc", "0.3", "--n", "2",
                       "--eps", "1.0")
    assert code == 0
    res = json.loads(out)
    assert res["exact"] is True
    assert res["max_deviation"] <= 1e-12


def test_rst_verify_exact_dmc(tmp_path, capsys):
    mat = tmp_path / "dmc.json"
    mat.write_text(json.dumps({"matrix": [[0.75, 0.25], [0.25, 0.75]]}))
    code, out, _ = run(capsys, "rst", "verify-exact", "--dmc", str(mat),
                       "--n", "2", "--zsize", "8")
    assert code == 0
    assert json.loads(out)["exact"] is True


def test_rst_verify_exact_input_errors(capsys):
    # neither --eps nor --zsize, or both; a block law past the oracle's
    # enumeration guard; eps <= 0 or NaN and n < 1, which rst simulate rejects too
    for extra in (("--n", "2"), ("--n", "2", "--eps", "1.0", "--zsize", "5"),
                  ("--n", "12", "--zsize", "1"),
                  ("--n", "2", "--eps", "-1"), ("--n", "2", "--eps", "0"),
                  ("--n", "2", "--eps", "nan"), ("--n", "0", "--eps", "1.0"),
                  ("--n", "0", "--zsize", "4"), ("--n", "2", "--eps", "0", "--zsize", "4")):
        code, out, err = run(capsys, "rst", "verify-exact", "--bsc", "0.3", *extra)
        assert code == 2, extra
        assert out == "" and "error:" in err


def test_rst_simulate_reports_cost(capsys):
    code, out, _ = run(capsys, "rst", "simulate", "--bsc", "0.1", "--n", "8",
                       "--eps", "0.25", "--trials", "1000", "--seed", "1")
    assert code == 0
    res = json.loads(out)
    for key in ("mean_bits_per_symbol", "p_exceed", "fallback_rate", "capacity"):
        assert key in res
    assert res["variant"] == "bsc"
    assert res["units"] == "bits"
    # flip probabilities 0 and 1 exited 2 with "must be in (0, 1)"
    for p in ("0", "1"):
        code, out, _ = run(capsys, "rst", "simulate", "--bsc", p, "--n", "8",
                           "--eps", "0.25", "--trials", "50")
        assert code == 0 and json.loads(out)["capacity"] == 1.0, p


def test_rst_simulate_single_trial_is_strict_json(capsys):
    # one trial has no standard error of the mean: null, never NaN
    code, out, _ = run(capsys, "rst", "simulate", "--bsc", "0.1", "--n", "4",
                       "--eps", "0.5", "--trials", "1")
    assert code == 0

    def reject(name):
        raise ValueError(f"non-JSON constant {name}")
    res = json.loads(out, parse_constant=reject)
    assert res["trials"] == 1 and res["mean_bits_se"] is None


def test_rst_simulate_source_parsing(capsys):
    code, out, _ = run(capsys, "rst", "simulate", "--bsc", "0.1", "--n", "6",
                       "--eps", "0.3", "--trials", "1000", "--source", "iid:0.5,0.5")
    assert code == 0
    code, out, _ = run(capsys, "rst", "simulate", "--bsc", "0.1", "--n", "6",
                       "--eps", "0.3", "--trials", "1000", "--source", "fixed:010101")
    assert code == 0
    code, _, _ = run(capsys, "rst", "simulate", "--bsc", "0.1", "--n", "6",
                     "--eps", "0.3", "--trials", "1000", "--source", "weird:1")
    assert code == 2
    # malformed sources are input errors, whether the CLI or the library
    # rejects them: wrong alphabet size, wrong length, bad letter, counts
    # not summing to n, non-numeric probabilities
    for source in ("iid:0.3", "fixed:0101", "fixed:01x10101",
                   "itc-uniform:3,3", "itc-uniform:", "iid:a,b", "iid:1.5,-0.5"):
        code, out, err = run(capsys, "rst", "simulate", "--bsc", "0.1", "--n", "8",
                             "--eps", "0.3", "--trials", "10", "--source", source)
        assert code == 2, source
        assert out == "" and "error:" in err


def test_byte_determinism(capsys):
    args = ("rst", "simulate", "--bsc", "0.1", "--n", "8", "--eps", "0.25",
            "--trials", "500", "--seed", "7")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    _, t1, _ = run(capsys, "table1")
    _, t2, _ = run(capsys, "table1")
    assert t1 == t2


def test_argparse_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-verb"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--frobnicate"])
    assert exc.value.code == 2



def test_rst_needs_exactly_one_channel_flag(tmp_path, capsys):
    mat = tmp_path / "dmc.json"
    mat.write_text(json.dumps({"matrix": [[0.75, 0.25], [0.25, 0.75]]}))
    for verb, rest in (("simulate", ("--n", "4", "--eps", "0.3", "--trials", "10")),
                       ("verify-exact", ("--n", "2", "--zsize", "4"))):
        for flags in (("--bsc", "0.1", "--dmc", str(mat)), ()):
            with pytest.raises(SystemExit) as exc:
                main(["rst", verb, *flags, *rest])
            assert exc.value.code == 2, (verb, flags)
            assert capsys.readouterr().out == ""

def test_config_echo_goes_to_stderr(capsys):
    code, out, err = run(capsys, "gaussian", "--S", "1", "--N", "1", "--k", "1")
    assert code == 0
    assert "config:" in err
    assert "config:" not in out
    # --limit needs no N or k; anything else does
    assert run(capsys, "gaussian", "--S", "1", "--N", "1")[0] == 2


def test_input_errors_exit_2(tmp_path, capsys):
    # a ValueError from any argument's value is a usage error: exit 2,
    # nothing on stdout, one error line on stderr
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    def cons(name, obs, bound):
        return write(name, {"observable": [[[v, 0.0] for v in row] for row in obs],
                            "bound": bound})

    bad_row = write("dmc.json", {"matrix": [[0.5, 0.4], [0.25, 0.75]]})
    # NaN fails every tolerance and range check (json reads and writes NaN)
    nan = float("nan")
    nan_row = write("nan_dmc.json", {"matrix": [[nan, 1.0], [0.5, 0.5]]})
    nan_kraus = write("nan_kraus.json", {
        "kind": "explicit_kraus", "kraus": [[[[1, 0], [0, 0]], [[0, 0], [nan, 0]]]]})
    ad = ("capacity", "ce", "--preset", "amplitude-damping:0.3", "--constraint")
    for argv in (
        ("capacity", "ce", "--spec", write("kind.json", {"kind": "teleporter"})),
        ("capacity", "ce", "--spec", write("kraus.json", {
            "kind": "explicit_kraus", "kraus": [[[[1, 0], [0, 0]], [[0, 0], [0.5, 0]]]]})),
        ad + (cons("herm.json", [[0.0, 1.0], [0.0, 1.0]], 1.0),),
        ad + (cons("neg.json", [[0.0, 0.0], [0.0, 1.0]], -0.5),),
        ad + (cons("lam.json", [[1.0, 0.0], [0.0, 2.0]], 0.5),),  # below lambda_min
        ad + (cons("dim.json", np.eye(3).tolist(), 1.0),),
        ("rst", "simulate", "--dmc", bad_row, "--n", "4", "--eps", "0.3",
         "--trials", "10"),
        ("rst", "verify-exact", "--dmc", bad_row, "--n", "2", "--zsize", "4"),
        ("rst", "simulate", "--bsc", "0.1", "--n", "4", "--eps", "0.3", "--trials", "0"),
        ("rst", "simulate", "--bsc", "0.1", "--n", "4", "--eps", "nan", "--trials", "10"),
        ("rst", "verify-exact", "--bsc", "0.3", "--n", "2", "--zsize", "0"),
        ("rst", "verify-exact", "--bsc", "0.3", "--n", "2", "--zsize", "-1"),
        ("capacity", "ce", "--spec", str(tmp_path / "missing.json")),
        ("typical", "check", "--probs", "0.7,0.3", "--n", "20", "--delta", "1/0"),
        ("typical", "check", "--probs", "0.5,0.5", "--n", "10", "--delta", "inf"),
        ("typical", "check", "--probs", "0.5,0.5", "--n", "10", "--delta", "1e400"),
        ("table1", "--tol", "-1"),                      # rejected before any step
        ("capacity", "ce", "--preset", "amplitude-damping:0.3", "--tol", "nan"),
        ("rst", "verify-exact", "--dmc", nan_row, "--n", "2", "--zsize", "2"),
        ("rst", "simulate", "--dmc", nan_row, "--n", "4", "--eps", "0.3", "--trials", "10"),
        ("capacity", "ce", "--spec", nan_kraus),
        ("typical", "check", "--probs", "nan,1", "--n", "5", "--delta", "0.1"),
        ("rst", "simulate", "--bsc", "0.1", "--n", "8", "--eps", "0.25",
         "--source", "iid:nan,1"),
        ("gaussian", "--S", "nan", "--limit"),
        ("gaussian", "--S", "inf", "--limit"),
        ad + (cons("nan_bound.json", [[0.0, 0.0], [0.0, 1.0]], nan),),
        ("gaussian", "--S", "1", "--N", "inf", "--k", "1"),
        ("gaussian", "--S", "1", "--N", "1", "--k", "inf"),
        ("gaussian", "--S", "inf", "--N", "1", "--k", "1"),
        ("gaussian", "--S", ",", "--N", "1", "--k", "1"),  # empty value lists
        ("gaussian", "--S", "1", "--N", ",", "--k", "1"),
        ("gaussian", "--S", "1", "--N", "1", "--k", ","),
        ("gaussian", "--S", ",", "--limit"),
        ("capacity", "ce", "--preset", "depolarizing:0.5:0"),
        ("capacity", "ce", "--spec", write("frac_d.json", {
            "kind": "depolarizing", "params": {"d": 2.7, "q": 0.5}})),
        ("capacity", "ce", "--spec", write("bool_d.json", {
            "kind": "noiseless", "params": {"d": True}})),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == "" and "error:" in err, argv


def test_convergence_failure_exits_1(monkeypatch, capsys):
    # a solver that stops short of its tolerance is exit 1, not a usage error
    from qcap import capacity

    def stalled(*args, **kwargs):
        raise capacity.ConvergenceError("stalled at gap 5.6e-17", None)

    monkeypatch.setattr(capacity, "ce_maximize", stalled)
    code, out, err = run(capsys, "capacity", "ce", "--preset", "amplitude-damping:0.5")
    assert code == 1
    assert out == "" and "error:" in err


def test_capacity_without_convergence_exits_1(monkeypatch, tmp_path, capsys):
    # Blahut-Arimoto past its iteration cap raises RuntimeError: exit 1
    from qcap import reverse_shannon as rs

    matrix = [[1.0, 0.0], [0.5, 0.5]]
    monkeypatch.setattr(rs, "BA_MAX_ITERS", 3)
    with pytest.raises(RuntimeError, match="no convergence within 3 iterations"):
        rs.ba_capacity(rs.DMC(matrix), 0.0)
    mat = tmp_path / "dmc.json"
    mat.write_text(json.dumps({"matrix": matrix}))
    code, out, err = run(capsys, "rst", "simulate", "--dmc", str(mat), "--n", "4",
                         "--eps", "0.5", "--trials", "2")
    assert code == 1
    assert out == "" and "error:" in err


def test_typical_check_refuses_sets_too_large_to_enumerate(capsys):
    # 2.2e20 admissible types: refused before the first is enumerated
    code, out, err = run(capsys, "typical", "check", "--probs", ",".join(["0.1"] * 10),
                         "--n", "1000", "--delta", "0.1")
    assert code == 2
    assert out == "" and "error:" in err and "enumeration cap" in err


def test_zero_tol_is_allowed(capsys):
    code, out, _ = run(capsys, "capacity", "ce", "--preset", "amplitude-damping:0.3",
                       "--tol", "0")
    assert code == 0
    assert json.loads(out)["gap_bound"] == 0.0


def _child_env(**extra):
    """This environment with extra set and the repository's src first on PYTHONPATH."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


def test_import_leaves_scipy_unloaded():
    # scipy serves only empirical_faithfulness's p-value; the package and
    # the CLI start without it
    code = ("import sys, qcap, qcap.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


DEMO_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "demos")


# protocol_cost.py is left out: its Monte Carlo takes about 16 s, and
# criterion 10 runs the same protocol at scale
@pytest.mark.parametrize("demo", sorted(
    name for name in os.listdir(DEMO_DIR)
    if name.endswith(".py") and name != "protocol_cost.py"))
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, os.path.join(DEMO_DIR, demo)],
                          env=_child_env(QCAP_THREADS="1"), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
