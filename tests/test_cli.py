"""CLI tests: flag parsing, config-file defaults and overrides, outputs."""

import numpy as np
import pytest

from tsousim.cli import load_config_file, main

BASE = [
    "--process", "cts-ou",
    "--alpha", "0.5",
    "--beta", "1.4",
    "--c", "0.8",
    "--b", "10",
    "--dt", "0.00273972602739726",
    "--paths", "2000",
    "--seed", "321",
]


def test_cumulants_writes_table(tmp_path, capsys):
    out = tmp_path / "table.csv"
    rc = main(["cumulants", *BASE, "--batches", "10", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "alpha,dt,method,k_order,true,estimated,err_pct,se"
    assert len(lines) == 5
    k_orders = [int(line.split(",")[3]) for line in lines[1:]]
    assert k_orders == [1, 2, 3, 4]
    assert "k4:" in capsys.readouterr().out


def test_simulate_writes_trajectories(tmp_path):
    out = tmp_path / "traj.csv"
    rc = main(["simulate", *BASE, "--steps", "10", "--paths", "3", "--out", str(out)])
    assert rc == 0
    data = np.genfromtxt(out, delimiter=",", skip_header=1)
    assert data.shape == (11, 4)


def test_simulate_requires_out():
    with pytest.raises(SystemExit):
        main(["simulate", *BASE])


def test_missing_required_parameter():
    with pytest.raises(SystemExit):
        main(["cumulants", "--process", "cts-ou", "--alpha", "0.5"])


@pytest.mark.parametrize("flag, value", [("--x0", "nan"), ("--x0", "inf"), ("--dt", "inf")])
def test_non_finite_parameter_rejected(tmp_path, flag, value):
    out = tmp_path / "traj.csv"
    with pytest.raises(SystemExit, match="invalid configuration"):
        main(["simulate", *BASE, "--steps", "2", "--paths", "2", flag, value, "--out", str(out)])
    assert not out.exists()


def test_validate_report(tmp_path, capsys):
    out = tmp_path / "report.txt"
    rc = main(["validate", "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert "overall: PASS" in text
    assert text == capsys.readouterr().out


def test_config_file_defaults_and_override(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "# reference parameters\n"
        "process = cts-ou\n"
        "alpha = 0.5\n"
        "beta = 1.4\n"
        "c = 0.8\n"
        "b = 10\n"
        "dt = 0.1\n"
        "paths = 2000\n"
        "seed = 11\n"
        "batches = 10\n"
    )
    monkeypatch.setenv("TSOUSIM_CONFIG", str(cfg))
    out_a = tmp_path / "a.csv"
    assert main(["cumulants", "--out", str(out_a)]) == 0
    out_b = tmp_path / "b.csv"
    assert main(["cumulants", "--seed", "12", "--out", str(out_b)]) == 0
    rows_a = out_a.read_text().splitlines()[1:]
    rows_b = out_b.read_text().splitlines()[1:]
    # same truth column, different estimates: the flag overrode the file seed
    assert [r.split(",")[4] for r in rows_a] == [r.split(",")[4] for r in rows_b]
    assert rows_a != rows_b


def test_config_file_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("alpa = 0.5\n")
    with pytest.raises(ValueError, match="unknown config key"):
        load_config_file(str(cfg))


def test_byte_identical_csv_between_runs(tmp_path):
    outs = []
    for name in ("r1.csv", "r2.csv"):
        out = tmp_path / name
        main(["cumulants", *BASE, "--batches", "10", "--out", str(out)])
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
