"""End-to-end command-line checks."""

import math

import pytest

from mvhmm import cli
from mvhmm.oracles import OracleReport

FV_CONFIG = """model = fv
theta = 2.0
base = discrete
atom.A = 0.5
atom.B = 0.5
seed = 7
"""

FV_NONATOMIC_CONFIG = """model = fv
theta = 1.0
seed = 7
"""

DW_CONFIG = """model = dw
theta = 1.5
beta = 1.0
seed = 7
"""

FV_DATA = """time,label,count
0.0,A,1
0.5,A,1
0.5,B,1
"""

DW_DATA = """time,draw,label,count
0.0,1,A,2
0.5,1,B,1
"""


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def run(argv):
    return cli.main(argv)


def test_filter_single_time_one_component(files, capsys):
    cfg = files("cfg", FV_CONFIG)
    data = files("data.csv", "time,label,count\n0.0,A,2\n")
    assert run(["filter", "--config", cfg, "--data", data, "--at", "0"]) == 0
    out = capsys.readouterr().out
    assert "n_components 1" in out
    assert "index 2" in out
    assert "weight 1" in out


def test_smooth_output_deterministic(files, capsys):
    cfg = files("cfg", FV_CONFIG)
    data = files("data.csv", FV_DATA)
    assert run(["smooth", "--config", cfg, "--data", data, "--at", "0"]) == 0
    first = capsys.readouterr().out
    assert run(["smooth", "--config", cfg, "--data", data, "--at", "0"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "query smooth" in first


def test_smooth_shared_value_support(files, capsys):
    # three types, the second shared between the flanking times and the third
    # between the present and the future: every component must keep them
    cfg = files("cfg", FV_NONATOMIC_CONFIG)
    data = files(
        "data.csv",
        "time,label,count\n"
        "0.0,y1,1\n0.0,y2,3\n"
        "0.5,y3,1\n"
        "1.0,y2,2\n1.0,y3,1\n",
    )
    assert run(["smooth", "--config", cfg, "--data", data, "--at", "1"]) == 0
    out = capsys.readouterr().out
    indices = [
        line.split()[1] for line in out.splitlines() if line.startswith("index ")
    ]
    assert indices
    for text in indices:
        counts = [int(v) for v in text.split(",")]
        assert counts[1] >= 2  # k2 > 0 and k2' > 0
        assert counts[2] >= 2  # n3 = 1 and k3' > 0


def test_predict_pmf_sums_to_one(files, capsys):
    cfg = files("cfg", FV_CONFIG)
    data = files("data.csv", FV_DATA)
    assert run(
        ["predict", "--config", cfg, "--data", data, "--at", "1", "--pmf"]
    ) == 0
    out = capsys.readouterr().out
    probs = [
        float(line.split()[1])
        for line in out.splitlines()
        if line.startswith("probability ")
    ]
    assert probs
    assert math.fsum(probs) == pytest.approx(1.0, abs=1e-12)


def test_predict_samples_reproducible(files, capsys):
    cfg = files("cfg", FV_CONFIG)
    data = files("data.csv", FV_DATA)
    args = ["predict", "--config", cfg, "--data", data, "--at", "1", "--samples", "5"]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args) == 0
    assert capsys.readouterr().out == first
    assert "n_samples 5" in first


def test_dw_commands(files, capsys):
    cfg = files("cfg", DW_CONFIG)
    data = files("data.csv", DW_DATA)
    assert run(["filter", "--config", cfg, "--data", data, "--at", "1"]) == 0
    out = capsys.readouterr().out
    assert "rate_offset" in out
    assert run(
        ["predict", "--config", cfg, "--data", data, "--at", "1", "--pmf"]
    ) == 0
    out = capsys.readouterr().out
    assert "count_mean" in out


def test_model_data_mismatch(files, capsys):
    cfg = files("cfg", FV_CONFIG)
    data = files("data.csv", DW_DATA)
    assert run(["filter", "--config", cfg, "--data", data, "--at", "0"]) == 1
    assert "error" in capsys.readouterr().err


def test_at_out_of_range(files, capsys):
    cfg = files("cfg", FV_CONFIG)
    data = files("data.csv", FV_DATA)
    assert run(["filter", "--config", cfg, "--data", data, "--at", "5"]) == 1


def test_simulate_then_filter(files, tmp_path, capsys):
    cfg = files("cfg", FV_CONFIG)
    out_path = str(tmp_path / "sim.csv")
    assert (
        run(
            [
                "simulate",
                "--config",
                cfg,
                "--times",
                "0.0,0.5,1.0",
                "--out",
                out_path,
                "--counts",
                "2,2,2",
            ]
        )
        == 0
    )
    capsys.readouterr()
    assert run(["filter", "--config", cfg, "--data", out_path, "--at", "2"]) == 0
    assert "n_components" in capsys.readouterr().out


def test_simulate_dw(files, tmp_path, capsys):
    cfg = files("cfg", DW_CONFIG.replace(
        "theta = 1.5", "theta = 1.5\nbase = discrete\natom.A = 0.6\natom.B = 0.4"
    ))
    out_path = str(tmp_path / "sim.csv")
    assert (
        run(
            [
                "simulate",
                "--config",
                cfg,
                "--times",
                "0.0,0.4",
                "--out",
                out_path,
                "--cards",
                "1,2",
            ]
        )
        == 0
    )
    capsys.readouterr()
    assert run(["smooth", "--config", cfg, "--data", out_path, "--at", "0"]) == 0


def test_simulate_requires_full_atoms(files, tmp_path, capsys):
    cfg = files("cfg", FV_NONATOMIC_CONFIG)
    assert (
        run(
            [
                "simulate",
                "--config",
                cfg,
                "--times",
                "0.0,0.5",
                "--out",
                str(tmp_path / "x.csv"),
            ]
        )
        == 1
    )


def test_validate_plumbing(files, capsys, monkeypatch):
    cfg = files("cfg", FV_CONFIG)
    good = [OracleReport("check a", 1.0, 1.0, 0.1, 0.0, True)]
    bad = good + [OracleReport("check b", 1.0, 2.0, 0.1, 10.0, False)]
    monkeypatch.setattr(
        "mvhmm.oracles.run_duality_suite", lambda seed, kappa: good
    )
    assert run(["validate", "--config", cfg, "--suite", "duality"]) == 0
    assert "failures 0" in capsys.readouterr().out
    monkeypatch.setattr(
        "mvhmm.oracles.run_duality_suite", lambda seed, kappa: bad
    )
    assert run(["validate", "--config", cfg, "--suite", "duality"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "failures 1" in out


def test_non_finite_theta_config_exits_1(files, capsys):
    cfg = files("cfg", "model = fv\ntheta = nan\n")
    data = files("data.csv", FV_DATA)
    assert run(["smooth", "--config", cfg, "--data", data, "--at", "0"]) == 1
    assert "theta" in capsys.readouterr().err


def test_predict_pmf_lists_configured_atoms_the_data_never_shows(files, capsys):
    cfg = files(
        "cfg", "model = fv\ntheta = 2.0\nbase = discrete\n"
        "atom.A = 0.3\natom.B = 0.3\natom.C = 0.4\n",
    )
    data = files("data.csv", FV_DATA)
    assert run(
        ["predict", "--config", cfg, "--data", data, "--at", "1", "--pmf"]
    ) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "label C" in lines
    probs = [
        float(line.split()[1]) for line in lines if line.startswith("probability ")
    ]
    assert math.fsum(probs) == pytest.approx(1.0, abs=1e-12)
