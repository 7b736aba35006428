"""One rule for what counts as a probability: every entry point agrees."""

import json
import math

import numpy as np
import pytest

from qcap.channels import ChannelSpec, Ensemble, classical_embedding
from qcap.cli import main
from qcap.qmath import DensityOperator, _check_distribution, _check_probability
from qcap.reverse_shannon import DMC, ProtocolConfig, constrained_mi, cost_statistics
from qcap.typeclasses import TypicalEigenstateSet

OTHER_ROW = [0.2, 0.3, 0.5]
THREE_INPUTS = [[0.8, 0.2], [0.5, 0.5], [0.1, 0.9]]

# law over three letters -> the verdict of the rule (True: accepted)
EDGE_LAWS = {
    "ten-digit thirds": ([0.3333333333] * 3, True),
    "entry -5e-13": ([0.5, 0.5 + 5e-13, -5e-13], True),
    "row 2e-9 off": ([0.5, 0.3 + 2e-9, 0.2], False),
    "NaN": ([0.5, math.nan, 0.5], False),
    # no letters: the one wrong length that the entry points fixing no
    # alphabet size (a spectrum) refuse too
    "wrong length": ([], False),
}


def _library_entry_points():
    rho = DensityOperator(np.eye(2) / 2)
    three = DMC(THREE_INPUTS)
    cfg = ProtocolConfig(4, 0.5, variant="general")
    return {
        "DMC": lambda law: DMC([law, OTHER_ROW]),
        "classical_embedding": lambda law: classical_embedding([law, OTHER_ROW]),
        "ChannelSpec": lambda law: ChannelSpec(
            "classical_embedding", {"matrix": [law, OTHER_ROW]}).resolve(),
        "constrained_mi": lambda law: constrained_mi(three, law),
        "iid source": lambda law: cost_statistics(three, cfg, 1, ("iid", law), seed=1),
        "Ensemble": lambda law: Ensemble(probs=tuple(law), states=(rho,) * 3),
        "TypicalEigenstateSet": lambda law: TypicalEigenstateSet(law, 8, 0.1),
    }


def _cli_entry_points(tmp_path):
    def write(name, matrix):
        path = tmp_path / name
        path.write_text(json.dumps({"matrix": matrix}))  # json round-trips NaN
        return str(path)

    three = write("three.json", THREE_INPUTS)

    def floats(law):
        return ",".join(repr(v) for v in law)

    return {
        "--dmc": lambda law: ["rst", "verify-exact", "--dmc", write("dmc.json", [law, OTHER_ROW]),
                              "--n", "1", "--zsize", "2"],
        "--source iid:": lambda law: ["rst", "simulate", "--dmc", three, "--n", "4", "--eps",
                                      "0.5", "--trials", "1", "--source", "iid:" + floats(law)],
        "typical --probs": lambda law: ["typical", "check", "--probs", floats(law), "--n", "8",
                                        "--delta", "0.1"],
    }


def test_every_entry_point_gives_one_verdict_per_law(tmp_path, capsys):
    # the thirds were refused by DMC, classical_embedding, Ensemble and
    # typical --probs, and accepted by the rest
    verdicts = {}
    for label, (law, accept) in EDGE_LAWS.items():
        for entry, call in _library_entry_points().items():
            try:
                call(law)
                verdicts[label, entry] = True
            except ValueError:
                verdicts[label, entry] = False
        for entry, argv in _cli_entry_points(tmp_path).items():
            code = main(argv(law))
            out = capsys.readouterr().out
            assert code in (0, 2) and (code == 0) == (out != ""), (label, entry, code)
            verdicts[label, entry] = code == 0
    wrong = {key: got for key, got in verdicts.items() if got != EDGE_LAWS[key[0]][1]}
    assert not wrong, wrong


def test_accepted_laws_keep_their_floats():
    # clipped to [0, 1], never renormalised
    law = [0.5, 0.5 + 5e-13, -5e-13]
    assert _check_distribution(law, "law").tolist() == [0.5, 0.5 + 5e-13, 0.0]
    thirds = [0.3333333333] * 3
    assert DMC([thirds, OTHER_ROW]).matrix[0].tolist() == thirds
    assert Ensemble(probs=thirds, states=(DensityOperator(np.eye(2) / 2),) * 3).probs == tuple(thirds)
    assert TypicalEigenstateSet(thirds, 8, 0.1).eigs == tuple(thirds)
    assert _check_distribution([[1.0, 0.0], [0.25, 0.75]], "rows").tolist() == [[1.0, 0.0], [0.25, 0.75]]


def test_distribution_errors_name_the_worst_row():
    rows = [[0.5, 0.5], [0.5, 0.4], [0.5, 0.5 - 2e-9], [1.0, -1e-11]]
    with pytest.raises(ValueError, match=r"row 1 of rows is not a probability distribution") as exc:
        _check_distribution(rows, "rows")
    assert repr(abs(0.5 + 0.4 - 1.0)) in str(exc.value)  # full precision
    with pytest.raises(ValueError, match=r"row 2 of m .* least entry is nan"):
        _check_distribution([[0.5, 0.5], [0.5, 0.4], [math.nan, 1.0]], "m")
    with pytest.raises(ValueError, match=r"^q is not a probability distribution"):
        _check_distribution([1.0, -1e-11], "q")
    for values, size in (([], None), ([[[1.0]]], None), (0.5, None), ([[1.0]], 1),
                         ([0.5, 0.5], 3)):
        with pytest.raises(ValueError, match="q must"):
            _check_distribution(values, "q", size)


def test_probability_is_a_closed_unit_interval():
    for p in (0.0, 1.0, 0.5, np.float64(1.0)):
        _check_probability(p, "p")
    for p in (-1e-300, 1.0 + 2.0 ** -52, math.nan, math.inf):
        with pytest.raises(ValueError, match=r"p must lie in \[0, 1\]"):
            _check_probability(p, "p")
