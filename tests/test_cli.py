"""CLI tests: flag parsing, config-file defaults and overrides, outputs."""

import os

import numpy as np
import pytest

from _helpers import force_single_chord
from tsousim import cli, harness, rand_core
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
    with pytest.raises(SystemExit, match="set --out FILE"):
        main(["simulate", *BASE])


def test_allocation_the_host_cannot_hold_ends_in_one_line(tmp_path, monkeypatch):
    # np.empty refuses any array over 1e9 values, as numpy does on a host
    # without the memory, so the test never asks for it
    real_empty = np.empty

    def empty(shape, *args, **kwargs):
        if np.prod(shape, dtype=float) > 1e9:
            raise MemoryError(f"Unable to allocate an array with shape {shape}")
        return real_empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", empty)
    out = tmp_path / "x.csv"
    argv = ["simulate", *BASE, "--steps", "100000000000", "--paths", "1000", "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    message = str(exc.value)
    assert message.startswith("cannot allocate: Unable to allocate") and "\n" not in message
    assert not out.exists()


def test_missing_required_parameter():
    with pytest.raises(SystemExit):
        main(["cumulants", "--process", "cts-ou", "--alpha", "0.5"])


@pytest.mark.parametrize(
    "flag, value",
    [("--x0", "nan"), ("--x0", "inf"), ("--dt", "inf"),
     ("--beta", "inf"), ("--c", "inf"), ("--b", "inf"), ("--T", "inf")],
)
def test_non_finite_parameter_rejected(tmp_path, monkeypatch, flag, value):
    # a missing check on beta or c would spin in the CTS rejection loop
    monkeypatch.setattr(rand_core, "_MAX_REJECTION_ROUNDS", 10)
    out = tmp_path / "traj.csv"
    with pytest.raises(SystemExit, match="invalid configuration"):
        main(["simulate", *BASE, "--steps", "2", "--paths", "2", flag, value, "--out", str(out)])
    assert not out.exists()


def test_tilt_too_heavy_for_double_rejection_is_a_configuration_error(tmp_path):
    # every estimate used to print as 0 (k1 is about 3.8e-43)
    out = tmp_path / "table.csv"
    argv = ["cumulants", "--process", "ou-cts", "--method", "x1-only", "--alpha", "0.5",
            "--beta", "1e80", "--c", "0.8", "--b", "10", "--dt", "0.00274", "--paths", "1000",
            "--batches", "10", "--seed", "1", "--out", str(out)]
    with pytest.raises(SystemExit, match="^invalid configuration: CTS tilt .* too heavy"):
        main(argv)
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


@pytest.mark.parametrize(
    "line, what",
    [
        ("alpa = 0.5", "unknown config key 'alpa'"),
        ("alpha 0.5", "expected 'key = value'"),
        ("alpha = abc", "alpha: could not convert string to float: 'abc'"),
        ("paths = 1e3", "paths: invalid literal for int"),
    ],
    ids=["unknown-key", "no-equals", "bad-float", "bad-int"],
)
def test_config_file_errors_name_the_file_and_line(line, what, tmp_path, monkeypatch):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"# defaults\n{line}\n")
    where = f"{cfg}:2: "
    with pytest.raises(ValueError) as exc:
        load_config_file(str(cfg))
    assert str(exc.value).startswith(where + what)
    monkeypatch.setenv("TSOUSIM_CONFIG", str(cfg))
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", *BASE, "--paths", "2", "--out", str(out)])
    assert str(exc.value).startswith(f"invalid configuration: {where}{what}")
    assert not out.exists()


@pytest.mark.parametrize("second", ["seed = 2", "seed = 1", "seed=2  # again"])
def test_config_file_refuses_a_repeated_key(second, tmp_path):
    # the second line used to win silently
    cfg = tmp_path / "twice.cfg"
    cfg.write_text(f"seed = 1\n# defaults\n{second}\n")
    with pytest.raises(ValueError) as exc:
        load_config_file(str(cfg))
    assert str(exc.value) == f"{cfg}:3: config key 'seed' is already set on line 1"


def test_byte_identical_csv_between_runs(tmp_path):
    outs = []
    for name in ("r1.csv", "r2.csv"):
        out = tmp_path / name
        main(["cumulants", *BASE, "--batches", "10", "--out", str(out)])
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("command", ["simulate", "cumulants"])
@pytest.mark.parametrize(
    "extra, config",
    [
        (["--dt", "74"], None),
        (["--dt", "74", "--method", "scaled-bdlp"], None),
        ([], "target_g = 1.0\n"),
    ],
    ids=["underflow", "underflow-scaled-bdlp", "target-g"],
)
def test_oucts_invalid_step_law_is_a_configuration_error(command, extra, config, tmp_path, monkeypatch):
    # b*dt = 740: exp(-b*dt) underflows and the CTS part's rate beta/a is
    # infinite, in the exact step and in the scaled driving increment alike.
    # The envelope target is fixed, so a config file that still sets it is
    # refused rather than silently ignored.
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        monkeypatch.setenv("TSOUSIM_CONFIG", str(cfg))
    out = tmp_path / "out.csv"
    argv = [command, *BASE, "--process", "ou-cts", "--steps", "1", "--batches", "10", *extra, "--out", str(out)]
    with pytest.raises(SystemExit, match="invalid configuration"):
        main(argv)
    assert not out.exists()


@pytest.mark.parametrize("paths", ["0", "-3"])
def test_simulate_without_paths_is_a_configuration_error(paths, tmp_path):
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit, match="invalid configuration"):
        main(["simulate", *BASE, "--paths", paths, "--out", str(out)])
    assert not out.exists()


def test_validate_exits_1_when_a_check_fails(monkeypatch, capsys):
    force_single_chord(monkeypatch)
    assert main(["validate"]) == 1
    assert "overall: FAIL" in capsys.readouterr().out


def test_unreadable_config_file_exits_with_its_path(tmp_path, monkeypatch):
    missing = tmp_path / "missing.cfg"
    monkeypatch.setenv("TSOUSIM_CONFIG", str(missing))
    with pytest.raises(SystemExit, match="cannot read config file") as exc:
        main(["simulate", *BASE, "--paths", "2", "--out", str(tmp_path / "out.csv")])
    assert str(missing) in str(exc.value)


def _never(*args, **kwargs):
    raise AssertionError("ran before the output path was checked")


# each command with the function that does its work, run only after the
# output path is checked
WRITERS = {
    "simulate": (["simulate", *BASE, "--paths", "2"], "trajectories", harness, "_run_blocks"),
    "cumulants": (["cumulants", *BASE, "--batches", "10"], "err table", harness, "_run_blocks"),
    "validate": (["validate"], "report", cli, "validate_suite"),
}


@pytest.mark.parametrize("writable", [False, True], ids=["unwritable", "control"])
@pytest.mark.parametrize("command", list(WRITERS))
def test_unwritable_out_exits_with_its_path(command, writable, tmp_path, monkeypatch):
    # the path is checked before any path is drawn or the suite runs; the
    # control shows that the patched function is on the command's path
    argv, what, module, name = WRITERS[command]
    monkeypatch.setattr(module, name, _never)
    if writable:
        with pytest.raises(AssertionError, match="ran before"):
            main([*argv, "--out", str(tmp_path / "out.csv")])
        return
    out = tmp_path / "no-such-dir" / "out.csv"
    with pytest.raises(SystemExit, match=f"cannot write {what}") as exc:
        main([*argv, "--out", str(out)])
    assert str(out) in str(exc.value)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device whose writes fail")
@pytest.mark.parametrize("command", list(WRITERS))
def test_failed_write_exits_with_its_path(command, monkeypatch, capsys):
    argv, what, _, _ = WRITERS[command]
    report = harness.ValidationReport()
    report.add("stub check", True, "detail")
    monkeypatch.setattr(cli, "validate_suite", lambda: report)
    # /dev/full opens for writing, but every write fails with ENOSPC
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", "/dev/full"])
    message = str(exc.value)
    assert message.startswith(f"cannot write {what} to '/dev/full': ")
    assert "\n" not in message
    if command == "validate":
        # the report is printed before the file is written
        assert capsys.readouterr().out == report.to_text()


@pytest.mark.parametrize(
    "extra, what",
    [(["--steps", "0"], "a cumulant run needs steps >= 1"), (["--paths", "9"], "need paths >= batches")],
    ids=["no-step", "paths-below-batches"],
)
def test_cumulants_need_a_step(extra, what, tmp_path):
    # at horizon 0 every cumulant is a constant and err% would be NaN; a
    # batch needs at least one path
    out = tmp_path / "table.csv"
    with pytest.raises(SystemExit, match=f"invalid configuration: {what}"):
        main(["cumulants", *BASE, "--batches", "10", *extra, "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "cumulants"])
def test_one_step_law_per_run(command, tmp_path, monkeypatch):
    # the run validates its configuration once and steps every path with
    # the law validate() built
    built = []
    check = rand_core.StepLaw.__post_init__

    def counted(law):
        built.append(type(law).__name__)
        check(law)

    monkeypatch.setattr(rand_core.StepLaw, "__post_init__", counted)
    argv = [command, *BASE, "--steps", "3", "--batches", "10", "--out", str(tmp_path / "out.csv")]
    assert main(argv) == 0
    assert len(built) == 1, built


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seed_outside_64_bits_is_a_configuration_error(seed, tmp_path):
    # RngStream would otherwise wrap it onto the stream of seed mod 2^64
    out = tmp_path / "table.csv"
    with pytest.raises(SystemExit, match="invalid configuration: seed must be in"):
        main(["cumulants", *BASE, "--batches", "10", "--seed", seed, "--out", str(out)])
    assert not out.exists()


def test_simulate_without_steps_writes_the_start(tmp_path):
    out = tmp_path / "traj.csv"
    assert main(["simulate", *BASE, "--steps", "0", "--paths", "2", "--x0", "0.7", "--out", str(out)]) == 0
    assert out.read_text().splitlines() == ["time,path_0,path_1", "0.0,0.7,0.7"]


REFUSED_LAWS = {
    # alpha 0.9, b dt = 10: about 1.03e4 jumps per path, so a 65536-path
    # block expects 6.7e8 jumps in one call, ten times the cap
    "jump-cap": (["--alpha", "0.9", "--c", "0.8", "--dt", "1.0", "--paths", "100000"], "jump rate"),
    # the CTS part's scale (c Gamma(1-alpha)/alpha)^(1/alpha) is about 10^1000
    "cts-scale": (["--alpha", "0.001", "--c", "1", "--dt", "0.01", "--paths", "1000"], "CTS scale"),
}


@pytest.mark.parametrize("command", ["cumulants", "simulate"])
@pytest.mark.parametrize("case", list(REFUSED_LAWS))
def test_undrawable_step_law_is_a_configuration_error(command, case, tmp_path):
    # both used to end in a traceback from the first draw
    extra, what = REFUSED_LAWS[case]
    out = tmp_path / "out.csv"
    argv = [command, "--process", "ou-cts", "--beta", "1.4", "--b", "10", "--seed", "1", *extra]
    with pytest.raises(SystemExit, match=f"invalid configuration: {what}"):
        main([*argv, "--out", str(out)])
    assert not out.exists()
