import json
import math

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


def test_gaussian_limit_column(capsys):
    code, out, _ = run(capsys, "gaussian", "--S", "0.5,2", "--limit")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "S,ce_over_cshan_limit"
    for line in lines[1:]:
        s, v = line.split(",")
        assert float(v) == pytest.approx(ce_over_cshan_limit(float(s)), rel=1e-9)


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
    # neither --eps nor --zsize; a set past the oracle's enumeration guard
    for extra in (("--n", "2"), ("--n", "4", "--zsize", "1000")):
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
                   "itc-uniform:3,3", "iid:a,b", "iid:1.5,-0.5"):
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


def test_config_echo_goes_to_stderr(capsys):
    code, out, err = run(capsys, "gaussian", "--S", "1", "--N", "1", "--k", "1")
    assert code == 0
    assert "config:" in err
    assert "config:" not in out
    # --limit needs no N or k; anything else does
    assert run(capsys, "gaussian", "--S", "1", "--N", "1")[0] == 2
