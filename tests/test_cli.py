"""CLI tests: config parsing, scenario runs, CSV contract, exit codes."""

import ast
import dataclasses
import importlib.util
import inspect
import math
import os
import re
import subprocess
import sys
import textwrap
import time
import tracemalloc

import numpy as np
import pytest

import iongate
from iongate import cli, quantum, semiclassical
from iongate.errors import ConvergenceError, ParameterError
from iongate.schedule import WalshGateParams, build_walsh_schedule
from iongate.slerb import FullScheduleModel, ParametricModel, collect_dataset


def write_config(tmp_path, text, name="conf.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


def set_key(text, key, value):
    """The config text with every ``key = ...`` line set to ``value``."""
    new = re.sub(rf"(?m)^(\s*{key} = ).*$", rf"\g<1>{value}", text)
    assert f"{key} = {value}" in new
    return new


def assert_both_reject(tmp_path, capsys, text):
    """`validate` and `run` both exit 1 with a config error, and nothing is written."""
    path = write_config(tmp_path, text)
    codes = [cli.main(["validate", path, "--quiet"]),
             cli.main(["run", path, "--output-dir", str(tmp_path / "out"), "--quiet"])]
    assert codes == [1, 1]
    assert capsys.readouterr().err.count("config error") == 2
    assert not (tmp_path / "out").exists()


def strip_created(text):
    lines = [l for l in text.splitlines()
             if not l.startswith("# created") and not l.startswith("created")]
    return "\n".join(lines)


WALSH_COMPARE = """\
    [scenario]
    name = walsh-compare
    output = cmp.csv

    [walsh-compare]
    loops = 1,2,4
    omega_hz = 5e3
"""

TRAJECTORY = """\
    [scenario]
    name = trajectory
    output = traj.csv

    [schedule]
    type = walsh

    [walsh]
    loops = 2
    omega_hz = 5e3

    [trajectory]
    branch = 2
    points = 80
"""

CALIBRATION_GATE = """\
    [smooth]
    delta_max_hz = -400e3
    delta_min_hz = -21.7e3
    omega_hz = 6e3
    tau_g = 5e-6
    tau_d = 100e-6
    t_c = 15.8e-6
    j = 3
    calibrate = omega
"""

FILTERFN = """\
    [scenario]
    name = filterfn
    output = ff.csv

    [smooth]
    delta_max_hz = -400e3
    delta_min_hz = -14161.0
    omega_hz = 5e3
    tau_g = 5e-6
    tau_d = 95e-6
    t_c = 0
    j = 4

    [filterfn]
    nbars = 0,10
    walsh_orders = 1,3
    points = 8
    omega_min_hz = 100
    omega_max_hz = 1e6
"""

SCAN_GATE = """\
    [scenario]
    name = calibration-scan
    output = cal.csv

    [smooth]
    delta_max_hz = -400e3
    delta_min_hz = -21700
    omega_hz = 5925.6
    tau_g = 5e-6
    tau_d = 100e-6
    t_c = 15.8e-6
    j = 3
"""
# the grid lies on one side of the balanced point, so `run` exits 2
CALIBRATION_SCAN = SCAN_GATE + """
    [scan]
    start_hz = -40e3
    stop_hz = -38e3
    points = 2
    nbar = 0
"""
# this grid brackets the balanced point, so `run` succeeds
CALIBRATION_SCAN_CROSSING = set_key(set_key(CALIBRATION_SCAN, "start_hz", "-25e3"),
                                    "stop_hz", "-19e3")

SLERB_PARAMETRIC = """\
    [scenario]
    name = slerb
    output = rb.csv
    seed = 7

    [slerb]
    lengths = 2,20,60
    sequences = 4
    shots = 200
    model = parametric
    eps_rb = 2e-3
    eps_leak = 1e-3
    resamples = 200
"""


# ---------------------------------------------------------------------------
# CSV layer


def test_emit_read_round_trip(tmp_path):
    table = {
        "x": np.array([1.0, np.pi, 1e-300, -3.25]),
        "k": np.array([0, 1, 2, 3]),
        "y": np.array([0.1, 0.2, 0.3, 0.4]) / 3.0,
    }
    path = str(tmp_path / "t.csv")
    cli._write_atomic(path, cli._render_csv(table, {"seed": "0"}))
    meta, back = cli.read_csv(path)
    assert meta["seed"] == "0"
    assert back["k"].dtype.kind == "i"
    for key in table:
        assert np.array_equal(back[key], table[key])
    # a second emit of the parsed columns reproduces the bytes exactly
    path2 = str(tmp_path / "t2.csv")
    cli._write_atomic(path2, cli._render_csv(back, {"seed": "0"}))
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "t2.csv").read_bytes()


def test_emit_csv_empty_table(tmp_path):
    path = str(tmp_path / "e.csv")
    cli._write_atomic(path, cli._render_csv({"a": np.array([]), "b": np.array([])},
                                            {"note": "x"}))
    lines = (tmp_path / "e.csv").read_text().splitlines()
    assert lines == ["# note = x", "a,b"]
    _, back = cli.read_csv(path)
    assert back["a"].size == 0


def test_emit_csv_rejects_nan(tmp_path):
    with pytest.raises(ConvergenceError):
        cli._write_atomic(str(tmp_path / "n.csv"), cli._render_csv({"a": np.array([1.0, np.nan])}))
    assert not (tmp_path / "n.csv").exists()


def test_emit_csv_rejects_ragged(tmp_path):
    with pytest.raises(ParameterError):
        cli._write_atomic(str(tmp_path / "r.csv"),
                          cli._render_csv({"a": np.zeros(3), "b": np.zeros(2)}))


# ---------------------------------------------------------------------------
# subcommands and exit codes


def test_schema_prints_reference(capsys):
    assert cli.main(["schema"]) == 0
    out = capsys.readouterr().out
    assert "[scenario]" in out
    assert "walsh-compare" in out
    # the Hz-to-angular convention must be stated up front
    assert "2*pi" in out


def test_schema_documents_every_known_key(capsys):
    assert cli.main(["schema"]) == 0
    out = capsys.readouterr().out
    # split the reference into its [section] blocks
    blocks = dict(re.findall(r"^\[([\w-]+)\](.*?)(?=^\[|\Z)", out, re.M | re.S))
    for section, (_, keys) in cli._KEYS.items():
        assert section in blocks
        documented = set(re.findall(r"^  (\w+)", blocks[section], re.M))
        assert keys.keys() <= documented, (section, keys.keys() - documented)


def test_validate_ok(tmp_path, capsys):
    path = write_config(tmp_path, WALSH_COMPARE)
    assert cli.main(["validate", path]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_unknown_scenario(tmp_path, capsys):
    path = write_config(tmp_path, "[scenario]\nname = nope\noutput = x.csv\n")
    assert cli.main(["validate", path]) == 1
    assert "config error" in capsys.readouterr().err


def test_validate_unknown_key(tmp_path):
    path = write_config(tmp_path, WALSH_COMPARE + "typo_key = 3\n")
    assert cli.main(["validate", path]) == 1


def test_validate_missing_required(tmp_path):
    path = write_config(tmp_path, """\
        [scenario]
        name = trajectory
        output = t.csv

        [schedule]
        type = walsh

        [walsh]
        loops = 2
    """)
    assert cli.main(["validate", path]) == 1


def test_validate_malformed_ini(tmp_path):
    path = write_config(tmp_path, "not an ini file at all\n")
    assert cli.main(["validate", path]) == 1


def test_run_missing_config_file(tmp_path):
    assert cli.main(["run", str(tmp_path / "absent.ini")]) == 1


def test_numeric_failure_exits_2_and_writes_nothing(tmp_path):
    # detuning grid entirely on one side of the balanced point: the scan
    # cannot bracket the crossing and must fail without partial outputs
    path = write_config(tmp_path, CALIBRATION_SCAN)
    out_dir = tmp_path / "out"
    assert cli.main(["run", path, "--output-dir", str(out_dir), "--quiet"]) == 2
    assert not out_dir.exists() or os.listdir(out_dir) == []


# ---------------------------------------------------------------------------
# scenario runs


def test_run_walsh_compare(tmp_path, capsys):
    path = write_config(tmp_path, WALSH_COMPARE)
    assert cli.main(["run", path, "--output-dir", str(tmp_path)]) == 0
    printed = capsys.readouterr().out.strip()
    assert printed.endswith("cmp.csv")
    meta, cols = cli.read_csv(str(tmp_path / "cmp.csv"))
    assert meta["scenario"] == "walsh-compare"
    assert meta["tool_version"]
    assert len(meta["config_hash"]) == 16
    assert list(cols["loops"]) == [1, 2, 4]
    # every calibrated loop count hits the same entangling angle
    assert np.allclose(cols["gate_angle_rad"], -np.pi / 2, atol=1e-9)
    # duration grows like sqrt(loops)
    assert cols["duration_s"][2] == pytest.approx(2 * cols["duration_s"][0])


def test_run_trajectory(tmp_path):
    path = write_config(tmp_path, TRAJECTORY)
    assert cli.main(["run", path, "--output-dir", str(tmp_path), "--quiet"]) == 0
    _, cols = cli.read_csv(str(tmp_path / "traj.csv"))
    assert list(cols) == ["t_s", "re_gamma", "im_gamma", "eta_rad", "theta_rad"]
    assert cols["t_s"][0] == 0.0
    assert cols["re_gamma"][0] == 0.0
    # loop closes and the geometric angle lands on the gate angle
    assert abs(cols["re_gamma"][-1]) < 1e-6
    assert abs(cols["im_gamma"][-1]) < 1e-6
    assert cols["theta_rad"][-1] == pytest.approx(-np.pi / 2, abs=1e-6)


def test_run_trajectory_default_grid_on_smooth_gate(tmp_path):
    # no points key: the default grid resolves the 400 kHz detuning
    path = write_config(tmp_path, textwrap.dedent("""\
        [scenario]
        name = trajectory
        output = traj.csv

        [schedule]
        type = smooth
    """) + textwrap.dedent(CALIBRATION_GATE))
    assert cli.main(["run", path, "--output-dir", str(tmp_path), "--quiet"]) == 0
    _, cols = cli.read_csv(str(tmp_path / "traj.csv"))
    assert np.all(np.diff(cols["t_s"]) > 0)
    assert cols["theta_rad"][-1] == pytest.approx(-np.pi / 2, abs=1e-6)


def test_run_solves_calibration_once(tmp_path, monkeypatch):
    calls = []
    solve = cli.calibrate_omega

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(cli, "calibrate_omega", counted)
    path = write_config(tmp_path, textwrap.dedent("""\
        [scenario]
        name = filterfn
        output = ff.csv

        [filterfn]
        nbars = 0
        walsh_orders = 1
        points = 4
    """) + textwrap.dedent(CALIBRATION_GATE))
    assert cli.main(["run", path, "--output-dir", str(tmp_path), "--quiet"]) == 0
    assert len(calls) == 1
    # validate still builds (and so calibrates) the gate without running it
    assert cli.main(["validate", path, "--quiet"]) == 0
    assert len(calls) == 2


def test_run_filterfn_columns(tmp_path):
    path = write_config(tmp_path, FILTERFN)
    assert cli.main(["run", path, "--output-dir", str(tmp_path), "--quiet"]) == 0
    _, cols = cli.read_csv(str(tmp_path / "ff.csv"))
    expected = {"omega_rad_s", "S_smooth_nbar0", "S_smooth_nbar10",
                "S_walsh1_nbar0", "S_walsh1_nbar10",
                "S_walsh3_nbar0", "S_walsh3_nbar10"}
    assert set(cols) == expected
    for name in expected:
        assert np.all(np.isfinite(cols[name]))
    # heating the mode can only raise the noise sensitivity
    assert np.all(cols["S_smooth_nbar10"] >= cols["S_smooth_nbar0"])


def test_run_offset_scan(tmp_path):
    path = write_config(tmp_path, """\
        [scenario]
        name = offset-scan
        output = off.csv

        [schedule]
        type = walsh

        [walsh]
        loops = 2
        omega_hz = 20e3

        [scan]
        start_hz = -400
        stop_hz = 400
        points = 3
        nbar = 0
    """)
    assert cli.main(["run", path, "--output-dir", str(tmp_path), "--quiet"]) == 0
    _, cols = cli.read_csv(str(tmp_path / "off.csv"))
    assert cols["offset_hz"][1] == 0.0
    assert cols["p_uu"][1] == pytest.approx(0.5, abs=1e-9)
    assert cols["fidelity"][1] == pytest.approx(1.0, abs=1e-9)


def test_run_thermal_sweep(tmp_path):
    path = write_config(tmp_path, """\
        [scenario]
        name = thermal-sweep
        output = th.csv

        [schedule]
        type = walsh

        [walsh]
        loops = 2
        omega_hz = 20e3

        [sweep]
        nbars = 0,2
        offset_hz = 120
    """)
    assert cli.main(["run", path, "--output-dir", str(tmp_path), "--quiet"]) == 0
    _, cols = cli.read_csv(str(tmp_path / "th.csv"))
    assert list(cols["nbar"]) == [0, 2]
    # under a detuning offset the hotter mode loses more fidelity
    assert cols["infidelity"][1] > cols["infidelity"][0] > 0


def test_thermal_sweep_scores_a_positive_detuning_gate_against_its_own_target(tmp_path):
    # sign(theta_g) = sign(delta): the mirrored calibration gate makes the
    # +pi/2 gate, and the sweep must score it against that target
    gate = set_key(set_key(CALIBRATION_GATE, "delta_max_hz", "400e3"), "delta_min_hz", "21.7e3")
    path = write_config(tmp_path, textwrap.dedent("""\
        [scenario]
        name = thermal-sweep
        output = th.csv

        [schedule]
        type = smooth

        [sweep]
        nbars = 0,3.5
    """) + textwrap.dedent(gate))
    assert cli.main(["run", path, "--output-dir", str(tmp_path), "--quiet"]) == 0
    _, cols = cli.read_csv(str(tmp_path / "th.csv"))
    assert np.all(cols["infidelity"] < 1e-8)


def test_thermal_sweep_integrates_the_endpoints_once(tmp_path, monkeypatch):
    calls = []
    endpoints = quantum.branch_endpoints

    def counting(*args, **kwargs):
        calls.append(args)
        return endpoints(*args, **kwargs)

    monkeypatch.setattr(quantum, "branch_endpoints", counting)
    path = write_config(tmp_path, """\
        [scenario]
        name = thermal-sweep
        output = th.csv

        [schedule]
        type = walsh

        [walsh]
        loops = 2
        omega_hz = 20e3

        [sweep]
        nbars = 0,3.5,10
        offset_hz = 120
    """)
    assert cli.main(["run", path, "--output-dir", str(tmp_path), "--quiet"]) == 0
    assert len(calls) == 1
    _, cols = cli.read_csv(str(tmp_path / "th.csv"))
    # each row is the thermal average at its own occupation
    schedule = calls[0][0]
    for nbar, fidelity in zip(cols["nbar"], cols["fidelity"]):
        expected = quantum.thermal_average(schedule, quantum.ThermalEnsemble.build(nbar))
        assert fidelity == expected.fidelity


FULL_MODEL = """\
    [scenario]
    name = slerb
    output = full.csv

    [walsh]
    loops = 1
    omega_hz = 20e3

    [slerb]
    lengths = {lengths}
    sequences = 2
    shots = 50
    model = full
    resamples = 100
"""


def test_run_slerb_full_model_rejects_numerics(tmp_path):
    # the full model sizes its Fock cutoff itself and has no step size
    path = write_config(tmp_path, FULL_MODEL.format(lengths="1,4,8"))
    assert cli.main(["run", path, "--output-dir", str(tmp_path), "--quiet"]) == 0
    _, cols = cli.read_csv(str(tmp_path / "full.csv"))
    assert np.all(cols["n_survival"] == cols["shots"])
    path = write_config(tmp_path, FULL_MODEL.format(lengths="1,4,8")
                        + "\n    [numerics]\n    n_max = 20\n", name="numerics.ini")
    assert cli.main(["run", path, "--output-dir", str(tmp_path / "x"), "--quiet"]) == 1
    assert not (tmp_path / "x").exists()


def test_run_slerb_empty_lengths_is_config_error(tmp_path, capsys):
    path = write_config(tmp_path, FULL_MODEL.format(lengths=""))
    assert cli.main(["run", path, "--output-dir", str(tmp_path), "--quiet"]) == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "full.csv").exists()


def test_run_slerb_and_fit_report(tmp_path):
    path = write_config(tmp_path, SLERB_PARAMETRIC)
    assert cli.main(["run", path, "--output-dir", str(tmp_path), "--quiet"]) == 0
    _, cols = cli.read_csv(str(tmp_path / "rb.csv"))
    assert list(cols) == ["N", "sequence_id", "shots",
                          "n_survival", "n_flip", "n_leak"]
    assert np.all(cols["n_survival"] + cols["n_flip"] + cols["n_leak"] == 200)
    report = (tmp_path / "rb_fit.txt").read_text()
    entries = dict(line.split(" = ", 1) for line in report.splitlines())
    assert float(entries["eps_rb"]) == pytest.approx(2e-3, rel=0.5)
    assert float(entries["eps_leak"]) == pytest.approx(1e-3, rel=0.5)
    assert float(entries["eps_rb_ci16"]) < float(entries["eps_rb_ci84"])
    assert entries["model"] == "parametric"


def test_run_slerb_ideal_model(tmp_path):
    # model = ideal is the zero-rate parametric model: every shot survives
    path = write_config(tmp_path, set_key(SLERB_PARAMETRIC, "model", "ideal"))
    assert cli.main(["run", path, "--output-dir", str(tmp_path), "--quiet"]) == 0
    _, cols = cli.read_csv(str(tmp_path / "rb.csv"))
    assert np.all(cols["n_survival"] == cols["shots"])
    report = (tmp_path / "rb_fit.txt").read_text()
    assert "model = ideal\n" in report
    assert "eps_rb = 0\n" in report and "eps_leak = 0\n" in report


def test_run_slerb_external_input(tmp_path):
    first = write_config(tmp_path, SLERB_PARAMETRIC)
    assert cli.main(["run", first, "--output-dir", str(tmp_path), "--quiet"]) == 0
    second = write_config(tmp_path, f"""\
        [scenario]
        name = slerb
        output = refit.csv

        [slerb]
        input = {tmp_path / 'rb.csv'}
        resamples = 200
    """, name="refit.ini")
    assert cli.main(["run", second, "--output-dir", str(tmp_path), "--quiet"]) == 0
    original = dict(line.split(" = ", 1)
                    for line in (tmp_path / "rb_fit.txt").read_text().splitlines())
    refit = dict(line.split(" = ", 1)
                 for line in (tmp_path / "refit_fit.txt").read_text().splitlines())
    # refitting the written dataset reproduces the rates exactly
    assert refit["eps_rb"] == original["eps_rb"]
    assert refit["eps_leak"] == original["eps_leak"]
    assert refit["model"] == "external"


def test_determinism_excluding_timestamp(tmp_path):
    path = write_config(tmp_path, SLERB_PARAMETRIC)
    for sub in ("a", "b"):
        assert cli.main(["run", path, "--output-dir", str(tmp_path / sub),
                         "--quiet"]) == 0
    for name in ("rb.csv", "rb_fit.txt"):
        a = strip_created((tmp_path / "a" / name).read_text())
        b = strip_created((tmp_path / "b" / name).read_text())
        assert a == b


def test_seed_flag_overrides_config(tmp_path):
    path = write_config(tmp_path, SLERB_PARAMETRIC)
    assert cli.main(["run", path, "--output-dir", str(tmp_path / "a"),
                     "--quiet"]) == 0
    assert cli.main(["run", path, "--output-dir", str(tmp_path / "b"),
                     "--seed", "99", "--quiet"]) == 0
    meta_a, cols_a = cli.read_csv(str(tmp_path / "a" / "rb.csv"))
    meta_b, cols_b = cli.read_csv(str(tmp_path / "b" / "rb.csv"))
    assert meta_a["seed"] == "7"
    assert meta_b["seed"] == "99"
    assert not np.array_equal(cols_a["n_survival"], cols_b["n_survival"])


def test_negative_seed_flag_is_config_error(tmp_path, capsys):
    path = write_config(tmp_path, SLERB_PARAMETRIC)
    assert cli.main(["run", path, "--output-dir", str(tmp_path / "out"),
                     "--seed", "-1", "--quiet"]) == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# three well-formed lengths: a run on them fits, so only the row appended can fail it
SLERB_ROWS = ("N,sequence_id,shots,n_survival,n_flip,n_leak\n"
              "2,0,100,95,3,2\n20,0,100,80,12,8\n60,0,100,60,25,15\n")


@pytest.mark.parametrize("body", ["N,sequence_id,shots,n_survival,n_flip,n_leak\n"
                                  "2,0,100,90,5,5\n2,1,100,90\n",
                                  "N,sequence_id,shots,n_survival,n_flip,n_leak\n"
                                  "2,0,100,ninety,5,5\n",
                                  SLERB_ROWS + "2.5,1,100,90,5,5\n",
                                  SLERB_ROWS + "nan,1,100,90,5,5\n",
                                  SLERB_ROWS + "0,1,100,90,5,5\n",
                                  SLERB_ROWS.encode() + b"# note = \xff\n",
                                  "N,sequence_id,shots,n_survival,n_flip,n_leak\n"
                                  + "".join(f"{n},{k},0,0,0,0\n" for n in (2, 20, 60, 150, 400)
                                            for k in range(10)),
                                  SLERB_ROWS + "2,1,100000000000000000000000,"
                                               "100000000000000000000000,0,0\n",
                                  # each cell fits, but length 2's 1024 x 9e15 shots sum past 2**53
                                  SLERB_ROWS + "".join(f"2,{k},9000000000000000,9000000000000000,"
                                                       "0,0\n" for k in range(1, 1025))],
                         ids=["short-row", "non-numeric-cell", "fractional-length",
                              "nan-length", "zero-length", "not-utf8", "zero-shot-rows",
                              "cell-beyond-int64", "shot-sum-beyond-2**53"])
def test_run_slerb_malformed_input_is_config_error(tmp_path, capsys, body):
    (tmp_path / "bad.csv").write_bytes(body if isinstance(body, bytes) else body.encode())
    path = write_config(tmp_path, f"""\
        [scenario]
        name = slerb
        output = refit.csv

        [slerb]
        input = {tmp_path / 'bad.csv'}
    """)
    assert cli.main(["run", path, "--output-dir", str(tmp_path), "--quiet"]) == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "refit.csv").exists()


@pytest.mark.parametrize("name", ["../escaped.csv", "sub/x.csv", "/abs/x.csv"],
                         ids=["parent-dir", "subdir", "absolute"])
def test_scenario_output_must_be_a_plain_file_name(tmp_path, capsys, name):
    assert_both_reject(tmp_path, capsys, set_key(WALSH_COMPARE, "output", name))
    assert not (tmp_path / "escaped.csv").exists()


def test_scenario_output_plain_file_name_is_written_under_output_dir(tmp_path):
    path = write_config(tmp_path, set_key(WALSH_COMPARE, "output", "plain.csv"))
    assert cli.main(["validate", path, "--quiet"]) == 0
    assert cli.main(["run", path, "--output-dir", str(tmp_path / "out"), "--quiet"]) == 0
    assert (tmp_path / "out" / "plain.csv").exists()


def test_readme_example_configs_validate(tmp_path):
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as handle:
        blocks = re.findall(r"(?ms)^```ini\n(.*?)^```", handle.read())
    assert blocks
    for k, block in enumerate(blocks):
        path = tmp_path / f"readme_{k}.ini"
        path.write_text(block)
        assert cli.main(["validate", str(path), "--quiet"]) == 0, block


def test_non_utf8_config_is_config_error(tmp_path, capsys):
    path = tmp_path / "conf.ini"
    path.write_bytes(textwrap.dedent(WALSH_COMPARE).encode() + b"# \xff\n")
    codes = [cli.main(["validate", str(path), "--quiet"]),
             cli.main(["run", str(path), "--output-dir", str(tmp_path / "out"), "--quiet"])]
    assert codes == [1, 1]
    assert capsys.readouterr().err.count(f"config error: {path}: not UTF-8") == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("text", [
    "[scenario]\nname = thermal-sweep\noutput = th.csv\n[schedule]\ntype = walsh\n"
    "[walsh]\nloops = 2\nomega_hz = 5e3\n[sweep]\nnbars = 0,{}\n",
    "[scenario]\nname = trajectory\noutput = traj.csv\n[schedule]\ntype = walsh\n"
    "[walsh]\nloops = 2\nomega_hz = {}\n",
], ids=["sweep-nbars", "walsh-omega"])
def test_non_finite_config_number_is_config_error(tmp_path, capsys, text, value):
    path = write_config(tmp_path, text.format(value))
    assert cli.main(["run", path, "--output-dir", str(tmp_path), "--quiet"]) == 1
    assert "finite number" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["conf.ini"]


@pytest.mark.parametrize("text", [
    FULL_MODEL.format(lengths="1,4").replace("[walsh]\n    loops = 1\n    omega_hz = 20e3\n", ""),
    FULL_MODEL.format(lengths="1,4").replace("model = full", "model = bogus"),
    WALSH_COMPARE.replace("loops = 1,2,4", "loops = 1,3"),
    set_key(SLERB_PARAMETRIC, "seed", "-3"),
], ids=["full-without-walsh", "unknown-model", "walsh-compare-three-loops", "negative-seed"])
def test_validate_agrees_with_run(tmp_path, capsys, text):
    path = write_config(tmp_path, text)
    assert cli.main(["validate", path, "--quiet"]) == 1
    assert cli.main(["run", path, "--output-dir", str(tmp_path), "--quiet"]) == 1
    assert capsys.readouterr().err.count("config error") == 2


@pytest.mark.parametrize("key,value", [
    ("resamples", "50"),
    ("shots", "0"),
    ("sequences", "0"),
    ("lengths", "2,50"),
    ("lengths", "2,2,50"),
    ("lengths", "0,2,20,60"),
    ("lengths", "2,20.5,60"),
], ids=["resamples-50", "shots-0", "sequences-0", "two-lengths", "repeated-length",
        "zero-length", "fractional-length"])
def test_validate_and_run_agree_on_bad_slerb_keys(tmp_path, capsys, key, value):
    assert_both_reject(tmp_path, capsys, set_key(SLERB_PARAMETRIC, key, value))


@pytest.mark.parametrize("key,value", [("shots", "1e19"), ("sequences", "1e30"),
                                       ("lengths", "2,5,1e30")],
                         ids=["shots-1e19", "sequences-1e30", "lengths-1e30"])
def test_run_rejects_integers_beyond_64_bits(tmp_path, capsys, key, value):
    # numpy's samplers overflow on these; `run` must stop at the parse step
    assert_both_reject(tmp_path, capsys, set_key(SLERB_PARAMETRIC, key, value))


@pytest.mark.parametrize("key,value", [("seed", "9007199254740993"), ("lengths", "2,5,1e18")],
                         ids=["seed-2**53+1", "lengths-1e18"])
def test_run_rejects_integers_a_float_cannot_hold(tmp_path, capsys, key, value):
    # integers parse through float, which holds them exactly only below 2**53:
    # the seed would silently run as 2**53, and 1e18 lengths exhaust memory
    assert_both_reject(tmp_path, capsys, set_key(SLERB_PARAMETRIC, key, value))


SCAN_SCHEDULE = """\
    [schedule]
    type = walsh

    [walsh]
    loops = 2
    omega_hz = 20e3
"""
OFFSET_SCAN = """\
    [scenario]
    name = offset-scan
    output = off.csv

    [scan]
    start_hz = -400
    stop_hz = 400
    points = 3
    nbar = 0
""" + SCAN_SCHEDULE
THERMAL_SWEEP = """\
    [scenario]
    name = thermal-sweep
    output = th.csv

    [sweep]
    nbars = 0,2
    offset_hz = 120
""" + SCAN_SCHEDULE


@pytest.mark.parametrize("base,key,value", [
    (OFFSET_SCAN, "points", "1"),
    (OFFSET_SCAN, "points", "2.5"),
    (OFFSET_SCAN, "stop_hz", "inf"),
    (OFFSET_SCAN, "nbar", "-1"),
    (THERMAL_SWEEP, "nbars", "0,nan"),
    (THERMAL_SWEEP, "nbars", "0,-1"),
    (THERMAL_SWEEP, "offset_hz", "nan"),
], ids=["scan-points-1", "scan-points-fractional", "scan-stop-inf", "scan-nbar-negative",
        "sweep-nbars-nan", "sweep-nbars-negative", "sweep-offset-nan"])
def test_validate_and_run_agree_on_bad_scan_and_sweep_keys(tmp_path, capsys, base, key, value):
    assert_both_reject(tmp_path, capsys, set_key(base, key, value))


@pytest.mark.parametrize("base,key,value", [(OFFSET_SCAN, "nbar", "1e9"),
                                            (THERMAL_SWEEP, "nbars", "0,1e9")],
                         ids=["offset-scan", "thermal-sweep"])
def test_closed_form_scans_run_at_huge_occupation(tmp_path, base, key, value):
    # the closed-form scans read only nbar; the truncated thermal weights
    # (1.4e10 states at nbar = 1e9) belong to the Fock-space oracle alone
    path = write_config(tmp_path, set_key(base, key, value))
    assert cli.main(["run", path, "--output-dir", str(tmp_path), "--quiet"]) == 0


REFIT = """\
    [scenario]
    name = slerb
    output = refit.csv

    [slerb]
    input = {dir}/rb.csv
    resamples = 200
"""
DATASET_HEADER = ["N", "sequence_id", "shots", "n_survival", "n_flip", "n_leak"]


@pytest.mark.parametrize("text,output,header", [
    (set_key(set_key(CALIBRATION_SCAN, "start_hz", "-25e3"), "stop_hz", "-19e3"), "cal.csv",
     ["delta_min_hz", "p_uu", "p_dd", "p_odd", "fidelity"]),
    (OFFSET_SCAN, "off.csv", ["offset_hz", "p_uu", "p_dd", "p_odd", "fidelity"]),
    (THERMAL_SWEEP, "th.csv", ["nbar", "p_uu", "p_dd", "p_odd", "fidelity", "infidelity"]),
    (SLERB_PARAMETRIC, "rb.csv", DATASET_HEADER),
    (REFIT, "refit.csv", DATASET_HEADER),
], ids=["calibration-scan", "offset-scan", "thermal-sweep", "slerb", "slerb-refit"])
def test_output_csv_headers(tmp_path, text, output, header):
    # a refit reads the simulated dataset, so the simulation runs first
    for k, config in enumerate([SLERB_PARAMETRIC, text] if text is REFIT else [text]):
        path = write_config(tmp_path, config.format(dir=tmp_path), name=f"conf{k}.ini")
        assert cli.main(["run", path, "--output-dir", str(tmp_path), "--quiet"]) == 0
    _, cols = cli.read_csv(str(tmp_path / output))
    assert list(cols) == header


@pytest.mark.parametrize("base,key,value", [
    (SLERB_PARAMETRIC, "lengths", "2,5,1e15"),
    (SLERB_PARAMETRIC, "sequences", "2e6"),  # 2e6 x 82 Clifford draws
    (SLERB_PARAMETRIC, "resamples", "5e7"),  # 5e7 x 3 lengths
    (FILTERFN, "points", "1e9"),
    (OFFSET_SCAN, "points", "1e9"),
    (CALIBRATION_SCAN, "points", "1e9"),
    (TRAJECTORY, "points", "1e9"),
], ids=["slerb-lengths", "slerb-sequences", "slerb-resamples", "filterfn-points",
        "offset-scan-points", "calibration-scan-points", "trajectory-points"])
def test_array_sizes_beyond_the_limit_are_config_errors(tmp_path, capsys, base, key, value):
    # each would ask numpy for gigabytes in `run`; `validate` allocates nothing
    path = write_config(tmp_path, set_key(base, key, value))
    assert cli.main(["validate", path, "--quiet"]) == 1
    assert "config error" in capsys.readouterr().err


def test_filterfn_top_frequency_size_limit(tmp_path):
    # the Fourier sums of this 200 us gate pass the limit between 450 and
    # 500 MHz; the benchmark's 1.6 MHz grid stays far below it
    for top, code in (("1.6e6", 0), ("4.5e8", 0), ("5e8", 1)):
        path = write_config(tmp_path, set_key(FILTERFN, "omega_max_hz", top))
        assert cli.main(["validate", path, "--quiet"]) == code


def test_array_size_limit_is_inclusive(tmp_path):
    # one sequence of lengths 1, 8 and N holds 4 B per Clifford draw, 384 B
    # per row and 4 B per Clifford of N for each of its 3 rows: 16 N + 1188
    # bytes, the limit at N = 67108789; one more draw does not validate
    for last, code in ((67108789, 0), (67108790, 1)):
        text = set_key(set_key(SLERB_PARAMETRIC, "lengths", f"1,8,{last}"), "sequences", "1")
        assert cli.main(["validate", write_config(tmp_path, text), "--quiet"]) == code


def charged_dataset_bytes(tmp_path, monkeypatch, text):
    """The bytes `validate` charges a [slerb] config for its simulated dataset."""
    charged = {}
    check = cli._check_size

    def record(cfg, section, what, nbytes):
        charged[what] = nbytes
        return check(cfg, section, what, nbytes)

    with monkeypatch.context() as patch:
        patch.setattr(cli, "_check_size", record)
        assert cli.main(["validate", write_config(tmp_path, text), "--quiet"]) == 0
    return charged["sequences x the sum of lengths"]


def traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind,small,large", [
    ("parametric", ((1, 2, 3), 300), ((1, 2, 3), 600)),
    ("full", ((1, 2, 3), 50), ((1, 2, 3), 100)),
    ("parametric", ((1, 2, 3, 4, 5, 6, 7, 8, 200), 100), ((1, 2, 3, 4, 5, 6, 7, 8, 400), 100)),
    ("full", ((100, 200, 400), 10), ((200, 400, 800), 10)),
], ids=["parametric-rows", "full-rows", "parametric-draws", "full-draws"])
def test_slerb_byte_costs_cover_the_measured_peaks(tmp_path, monkeypatch, kind, small, large):
    # many short rows weigh the cost per row; long ones the cost per Clifford
    # draw and per entry of the table padded to the longest row, which holds
    # SEQUENCE_BLOCK rows however many are short.  The growth of the
    # tracemalloc peak of collect_dataset between two sizes is at most the
    # growth of what _parse_slerb charges; the propagator blocks and the
    # stepped state do not grow with the config, and are not charged.
    base = SLERB_PARAMETRIC if kind == "parametric" else FULL_MODEL.format(lengths="1,2,3")
    gate = WalshGateParams.calibrated(1, 2 * math.pi * 20e3)
    model = (ParametricModel(eps_rb=2e-3, eps_leak=1e-3) if kind == "parametric"
             else FullScheduleModel(build_walsh_schedule(gate)))
    collect_dataset([1, 2, 3], 2, 50, model, seed=1)  # builds the cached tables
    peaks, charges = [], []
    for lengths, sequences in (small, large):
        text = set_key(set_key(base, "lengths", ",".join(map(str, lengths))),
                       "sequences", sequences)
        charges.append(charged_dataset_bytes(tmp_path, monkeypatch, text))
        peaks.append(traced_peak(lambda: collect_dataset(lengths, sequences, 50, model, seed=1)))
    assert peaks[1] - peaks[0] <= charges[1] - charges[0]


def test_bootstrap_size_limit_is_inclusive(tmp_path):
    # 24 B per length per resample and 32 B per resample: four lengths take
    # 128 B per resample, so 2**23 resamples fill the limit and one more does not
    text = set_key(SLERB_PARAMETRIC, "lengths", "2,20,60,100")
    for resamples, code in ((2 ** 23, 0), (2 ** 23 + 1, 1)):
        path = write_config(tmp_path, set_key(text, "resamples", str(resamples)))
        assert cli.main(["validate", path, "--quiet"]) == code, resamples


@pytest.mark.parametrize("base", [OFFSET_SCAN, CALIBRATION_SCAN, TRAJECTORY],
                         ids=["offset-scan", "calibration-scan", "trajectory"])
def test_grid_rows_are_bounded_by_their_peak_memory(tmp_path, base):
    # an offset scan peaks at about 1.4 kB per offset, so a million rows
    # would take more than the 1 GiB limit; the bound is inclusive
    limit = cli._MAX_BYTES // cli._ROW_BYTES
    for points, code in ((limit, 0), (limit + 1, 1), ("1e6", 1)):
        path = write_config(tmp_path, set_key(base, "points", points))
        assert cli.main(["validate", path, "--quiet"]) == code, points


def test_filterfn_table_size_counts_its_columns(tmp_path):
    # 200 000 frequencies fit with the 7 columns of 2 occupations x 3 filter
    # functions, not with the 51 of 10 occupations x 5
    wide = set_key(set_key(FILTERFN, "nbars", "0,1,2,3,4,5,6,7,8,9"), "walsh_orders", "1,3,7,15")
    for text, code in ((FILTERFN, 0), (wide, 1)):
        path = write_config(tmp_path, set_key(text, "points", "200000"))
        assert cli.main(["validate", path, "--quiet"]) == code


def test_refit_resamples_beyond_the_limit_is_config_error(tmp_path, capsys):
    # a refit's lengths are known only once `run` reads the dataset
    path = write_config(tmp_path, SLERB_PARAMETRIC, name="rb.ini")
    assert cli.main(["run", path, "--output-dir", str(tmp_path), "--quiet"]) == 0
    refit = write_config(tmp_path, set_key(REFIT.format(dir=tmp_path), "resamples", "5e7"))
    assert cli.main(["run", refit, "--output-dir", str(tmp_path), "--quiet"]) == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "refit.csv").exists()


AGREEMENT_CASES = {
    "trajectory-points-1": set_key(TRAJECTORY, "points", "1"),
    "trajectory-points-too-coarse": set_key(TRAJECTORY, "points", "10"),
    "filterfn-points-1": set_key(FILTERFN, "points", "1"),
    "filterfn-walsh-order-2": set_key(FILTERFN, "walsh_orders", "2"),
    "filterfn-walsh-order-fractional": set_key(FILTERFN, "walsh_orders", "1.5"),
    "filterfn-nbars-empty": set_key(FILTERFN, "nbars", ""),
    "filterfn-walsh-orders-empty": set_key(FILTERFN, "walsh_orders", ""),
    "filterfn-nbars-negative": set_key(FILTERFN, "nbars", "0,-1"),
    # output columns are keyed by f"{value:g}": a repeat would collapse to one
    "filterfn-nbars-repeated": set_key(FILTERFN, "nbars", "3,3.0"),
    "filterfn-walsh-orders-repeated": set_key(FILTERFN, "walsh_orders", "1,1"),
    # the Fourier sums would ask numpy for petabytes
    "filterfn-omega-max-1e20": set_key(FILTERFN, "omega_max_hz", "1e20"),
    "calibration-scan-without-scan": SCAN_GATE,
    "calibration-scan-points-1": set_key(CALIBRATION_SCAN, "points", "1"),
    "calibration-scan-start-wrong-sign": set_key(CALIBRATION_SCAN, "start_hz", "40e3"),
    "calibration-scan-start-at-delta-max": set_key(CALIBRATION_SCAN, "start_hz", "-400e3"),
    # only the grid's end at +5 kHz has the wrong sign
    "calibration-scan-grid-crosses-zero": set_key(CALIBRATION_SCAN, "stop_hz", "5e3"),
    "walsh-compare-fractional-loops": set_key(WALSH_COMPARE, "loops", "1.5,2"),
    "walsh-compare-loops-empty": set_key(WALSH_COMPARE, "loops", ""),
    "walsh-compare-nbar-negative": WALSH_COMPARE + "    nbar = -1\n",
    "sweep-nbars-empty": set_key(THERMAL_SWEEP, "nbars", ""),
    # a repeated length would write its rows twice, with colliding sequence ids
    "slerb-lengths-repeated": set_key(SLERB_PARAMETRIC, "lengths", "2,2,50,150"),
    # 3 x 4e15 shots per length: the per-length sums of shots are no longer exact
    "slerb-sequences-x-shots-2**53": set_key(set_key(SLERB_PARAMETRIC, "sequences", "3"),
                                             "shots", "4e15"),
}


@pytest.mark.parametrize("text", AGREEMENT_CASES.values(), ids=AGREEMENT_CASES.keys())
def test_validate_and_run_agree_on_bad_keys(tmp_path, capsys, text):
    assert_both_reject(tmp_path, capsys, text)


def test_agreement_bases_validate_and_cover_every_scenario(tmp_path):
    # each agreement case above breaks one key of one of these configs; a new
    # scenario needs a base here, and cases of its own
    bases = [SLERB_PARAMETRIC, OFFSET_SCAN, THERMAL_SWEEP, FILTERFN, CALIBRATION_SCAN,
             WALSH_COMPARE, TRAJECTORY]
    names = set()
    for k, text in enumerate(bases):
        path = write_config(tmp_path, text, name=f"base{k}.ini")
        assert cli.main(["validate", path, "--quiet"]) == 0
        names.add(re.search(r"(?m)^\s*name = (\S+)$", text).group(1))
    assert names == set(cli._PARSERS)


@pytest.mark.parametrize("base,key,template", [
    (OFFSET_SCAN, "loops", "{loops}"),
    (WALSH_COMPARE, "loops", "1,{loops}"),
    (FILTERFN, "walsh_orders", "1,{order}"),
], ids=["walsh", "walsh-compare", "filterfn-walsh-orders"])
def test_walsh_loop_counts_are_bounded(tmp_path, capsys, base, key, template):
    # a Walsh schedule holds one segment per loop: at the limit the config
    # validates, at twice the limit `validate` and `run` reject it
    def text(loops):
        return set_key(base, key, template.format(loops=loops, order=loops - 1))

    assert cli.main(["validate", write_config(tmp_path, text(cli._MAX_LOOPS)), "--quiet"]) == 0
    assert_both_reject(tmp_path, capsys, text(2 * cli._MAX_LOOPS))


def test_huge_loop_count_is_rejected_before_any_schedule_is_built(tmp_path, capsys, monkeypatch):
    def build(params):
        raise AssertionError(f"built a schedule of {params.loops} loops")

    monkeypatch.setattr(cli, "build_walsh_schedule", build)
    start = time.perf_counter()
    assert_both_reject(tmp_path, capsys, set_key(OFFSET_SCAN, "loops", str(2 ** 40)))
    assert time.perf_counter() - start < 2.0


def test_calibration_scan_checks_its_grid_at_the_two_ends(tmp_path, monkeypatch):
    calls = []
    with_delta_min = cli.SmoothGateParams.with_delta_min

    def counting(self, delta_min):
        calls.append(delta_min)
        return with_delta_min(self, delta_min)

    monkeypatch.setattr(cli.SmoothGateParams, "with_delta_min", counting)
    path = write_config(tmp_path, set_key(CALIBRATION_SCAN_CROSSING, "points", "1000"))
    assert cli.main(["validate", path, "--quiet"]) == 0
    assert len(calls) <= 2


def with_key(text, section, key, value=None):
    """The config text with ``key`` left out of ``[section]``, or set to ``value``."""
    head, header, tail = textwrap.dedent(text).partition(f"[{section}]\n")
    assert header, section
    own, next_header, rest = tail.partition("\n[")
    own = re.sub(rf"(?m)^{key} = .*\n?", "", own)
    if value is not None:
        own = f"{key} = {value}\n" + own
    return head + header + own + next_header + rest


def test_printed_defaults_are_the_defaults_used(tmp_path, capsys):
    # each defaulted key the schema prints, run on the agreement base that
    # reads it: left out and set to its printed default, the outputs agree
    # apart from the creation time and the config hash
    assert cli.main(["schema"]) == 0
    out = re.sub(r"\n {18}", " ", capsys.readouterr().out)
    blocks = dict(re.findall(r"^\[([\w-]+)\](.*?)(?=^\[|\Z)", out, re.M | re.S))
    bases = {"scenario": SLERB_PARAMETRIC, "smooth": FILTERFN, "filterfn": FILTERFN,
             "calibration-scan": CALIBRATION_SCAN_CROSSING, "offset-scan": OFFSET_SCAN,
             "sweep": THERMAL_SWEEP, "slerb": SLERB_PARAMETRIC, "walsh-compare": WALSH_COMPARE,
             "trajectory": TRAJECTORY}
    cases = []
    for section, block in blocks.items():
        for key, default in re.findall(r"(?m)^  (\w+) .*\(default ([^)]*)\)$", block):
            if " for " in default:  # "3.5 for calibration-scan, 0 for offset-scan"
                cases += [(bases[name], section, key, value) for value, name in
                          (part.split(" for ") for part in default.split(", "))]
            else:
                cases.append((bases[section], section, key, default))
    # one case per printed default: two for a default that depends on the scenario
    table = [(section, key, default) for section, (_, keys) in cli._KEYS.items()
             for key, (_, default, _) in keys.items()]
    expected = [(section, key) for section, key, default in table if isinstance(default, str)]
    expected += [(section, key) for section, key, default in table
                 if isinstance(default, dict) for _ in default]
    assert sorted((section, key) for _, section, key, _ in cases) == sorted(expected)
    for k, (base, section, key, value) in enumerate(cases):
        outputs = []
        for variant, text in (("omitted", with_key(base, section, key)),
                              ("printed", with_key(base, section, key, value))):
            out_dir = tmp_path / f"{k}-{variant}"
            path = write_config(tmp_path, text, name=f"{k}-{variant}.ini")
            assert cli.main(["run", path, "--output-dir", str(out_dir), "--quiet"]) == 0
            outputs.append({name: [line for line in (out_dir / name).read_text().splitlines()
                                   if not re.match(r"(# )?(created|config_hash) = ", line)]
                            for name in sorted(os.listdir(out_dir))})
        assert outputs[0] == outputs[1], (section, key, value)


DELTA_MIN_SWEEP = THERMAL_SWEEP.replace(SCAN_SCHEDULE, """\
    [schedule]
    type = smooth

""" + set_key(CALIBRATION_GATE, "calibrate", "delta_min"))


def test_cli_import_loads_no_scipy(tmp_path):
    # scipy is a test dependency only: importing the CLI, the closed-form
    # scenarios, the full SLERB model and both calibrations load none of it
    package_root = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": package_root}
    loaded = "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", "import sys, iongate.cli; " + loaded],
                         env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
    path = write_config(tmp_path, FULL_MODEL.format(lengths="1,4,8"))
    run = ("import sys; from iongate import cli; "
           "code = cli.main(['run', sys.argv[1], '--output-dir', sys.argv[2], '--quiet']); "
           "assert code == 0, code; " + loaded)
    out = subprocess.run([sys.executable, "-c", run, path, str(tmp_path / "out")], env=env,
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
    assert (tmp_path / "out" / "full.csv").exists()
    # propagate applies the exact blocks, built with numpy's eigensolver
    walsh = ("import math, sys; import numpy as np; "
             "from iongate import WalshGateParams, build_walsh_schedule, propagate; "
             "s = build_walsh_schedule(WalshGateParams.calibrated(2, 2 * math.pi * 5e3)); "
             "psi0 = np.zeros((4, 31)); psi0[0, 0] = 1; propagate(s, psi0); "
             + loaded)
    out = subprocess.run([sys.executable, "-c", walsh], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
    # the default calibration works on the kernel's panels
    calibrate = ("import math, sys; from iongate import SmoothGateParams, calibrate_omega; "
                 "p = SmoothGateParams(delta_max=-2 * math.pi * 400e3, delta_min=-2 * math.pi * 21.7e3, "
                 "omega_g=2 * math.pi * 6e3, tau_g=5e-6, tau_d=100e-6, t_c=15.8e-6); "
                 "calibrate_omega(p); " + loaded)
    out = subprocess.run([sys.executable, "-c", calibrate], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
    # calibrate = delta_min runs where scipy cannot be imported, and writes
    # what an in-process run of the same config writes
    path = write_config(tmp_path, DELTA_MIN_SWEEP)
    blocked = ("import sys; sys.modules['scipy'] = None; from iongate import cli; "
               "sys.exit(cli.main(['run', sys.argv[1], '--output-dir', sys.argv[2], '--quiet']))")
    subprocess.run([sys.executable, "-c", blocked, path, str(tmp_path / "blocked")], env=env,
                   capture_output=True, text=True, check=True, timeout=60)
    assert cli.main(["run", path, "--output-dir", str(tmp_path / "here"), "--quiet"]) == 0
    written = [[line for line in (tmp_path / where / "th.csv").read_text().splitlines()
                if not re.match(r"# (created|config_hash) = ", line)]
               for where in ("blocked", "here")]
    assert written[0] == written[1]


@pytest.mark.parametrize("delta_max_hz", ["-900", "-1.05e3"])
def test_empty_delta_min_search_is_config_error(tmp_path, capsys, monkeypatch, delta_max_hz):
    # 0.9*|delta_max| at or below 1 kHz leaves nothing to search: a config
    # error before any gate is integrated
    monkeypatch.setattr(semiclassical, "gate_angle_exact", None)
    text = set_key(set_key(DELTA_MIN_SWEEP, "delta_max_hz", delta_max_hz), "delta_min_hz", "-500")
    assert_both_reject(tmp_path, capsys, text)


BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "bench")


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def package_imports(tree):
    """Each name ``tree`` imports from iongate, bound to a one-item list of its object."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("iongate"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
                names[alias.asname or alias.name] = [getattr(module, alias.name)]
        elif isinstance(node, ast.Import):
            names.update((alias.asname or alias.name, [importlib.import_module(alias.name)])
                         for alias in node.names if alias.name.startswith("iongate"))
    return names


def resolved_calls(tree, names):
    """(call, callables) for each call in ``tree``: the objects its callee can
    name through ``names``, by a bound name, a method or attribute of one,
    either branch of a conditional, or a name assigned one of these
    (``solve = a if c else b``).  Names are bound for the whole file, so only
    callables and modules are bound, and only attributes an owner has are
    followed: ``value = math.nan`` in one function leaves ``value.strip()``
    in another unresolved."""
    names = dict(names)

    def callees(expr):
        if isinstance(expr, ast.IfExp):
            return callees(expr.body) + callees(expr.orelse)
        if isinstance(expr, ast.Attribute):
            return [getattr(owner, expr.attr) for owner in callees(expr.value)
                    if hasattr(owner, expr.attr)]
        return names.get(expr.id, []) if isinstance(expr, ast.Name) else []

    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            bound = [obj for obj in callees(node.value) if callable(obj) or inspect.ismodule(obj)]
            if bound:
                names[node.targets[0].id] = bound
    return [(call, callees(call.func)) for call in ast.walk(tree) if isinstance(call, ast.Call)]


def test_resolved_calls_binds_only_callables_and_modules():
    source = textwrap.dedent("""\
        def f():
            value = math.nan
            return math.sqrt(value)

        def g(value):
            solve = math.floor if value else math.ceil
            return value.strip(), math.no_such_name(), solve(value)
    """)
    calls = resolved_calls(ast.parse(source), {"math": [math]})
    assert [targets for _, targets in calls] == [[math.sqrt], [], [], [math.floor, math.ceil]]


def test_bench_contract_with_the_package():
    # the benchmark harness imports, calls and traces these names; a rename
    # in the package would otherwise only show up as a failed bench run
    tracing = load_bench_module("tracing")
    for layer, attr, _ in tracing.TARGETS:
        owner = getattr(iongate, layer)
        *classes, name = attr.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        assert name in vars(owner), f"{layer}.{attr}"
    # every iongate import of every bench file, inside functions too, must
    # resolve, and every call it names must bind: each keyword a parameter
    # of its callee (**solver_kwargs are passed on to the kernel's
    # tolerances), and the arguments enough and not too many
    kernel = inspect.signature(semiclassical.branch_endpoints).parameters
    imported, checked = set(), set()
    for name in sorted(os.listdir(BENCH)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(BENCH, name)) as handle:
            tree = ast.parse(handle.read())
        callables = package_imports(tree)
        imported.update(callables)
        for call, targets in resolved_calls(tree, callables):
            for target in targets:
                signature = inspect.signature(target)
                params = dict(signature.parameters)
                if "solver_kwargs" in params:
                    params.update(kernel)
                for keyword in call.keywords:
                    assert keyword.arg in params, f"{target.__qualname__}({keyword.arg}=)"
                    checked.add((target.__qualname__, keyword.arg))
                if not any(isinstance(arg, ast.Starred) for arg in call.args):
                    signature.bind(*call.args, **{k.arg: k.value for k in call.keywords})
    assert {"clifford_table", "read_csv", "cli"} <= imported
    assert {("calibrate_omega", "use"), ("thermal_average", "props"),
            ("run_scenario", "seed")} <= checked


@pytest.mark.parametrize("workload", ["gate", "slerb"])
def test_every_bench_config_validates(tmp_path, workload):
    # the benchmark runs these configs as they are; a CLI change that rejects
    # one would otherwise only show up as a failed bench run
    workloads = load_bench_module("workloads")
    for name, text in workloads.configs(workload, str(tmp_path)).items():
        path = tmp_path / name
        path.write_text(text)
        assert cli.main(["validate", str(path), "--quiet"]) == 0, name


def test_package_modules_use_every_import():
    # no linter ships with the package, so this keeps dead imports out
    package = os.path.dirname(iongate.__file__)
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py") or name == "__init__.py":
            continue
        with open(os.path.join(package, name)) as handle:
            tree = ast.parse(handle.read())
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, f"{name}: unused imports {sorted(imported - used)}"


def test_package_private_names_are_read():
    # a private module-level def, class or assignment target that nothing in
    # the package reads is dead code the import check above cannot see
    package = os.path.dirname(iongate.__file__)
    defined, read = {}, set()
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name)) as handle:
            tree = ast.parse(handle.read())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
                targets = [n.id for t in nodes for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined.update((t, name) for t in targets
                           if t.startswith("_") and not t.startswith("__"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    unread = sorted(f"{module}: {target}" for target, module in defined.items()
                    if target not in read)
    assert not unread, f"private names nothing reads: {unread}"


def test_package_options_are_set_by_some_caller():
    # a defaulted parameter or dataclass field of a public callable that no
    # call in the package or the benchmark sets is a constant dressed as an
    # option.  Calls are resolved to objects, so an alias such as
    # branch_factorized_blocks counts for gate_propagator; keywords passed on
    # through **solver_kwargs count for branch_endpoints, and keywords of
    # dataclasses.replace for every package dataclass field of that name.
    # A literal equal to the default does not set the option.  A script's `if __name__ == "__main__"` block is the command line's
    # call, not the package's.
    package = os.path.dirname(iongate.__file__)
    sources = [(os.path.join(package, name), importlib.import_module(f"iongate.{name[:-3]}"))
               for name in sorted(os.listdir(package))
               if name.endswith(".py") and name != "__init__.py"]
    sources += [(os.path.join(BENCH, name), None)
                for name in sorted(os.listdir(BENCH)) if name.endswith(".py")]
    kernel = semiclassical.branch_endpoints
    kernel_params = inspect.signature(kernel).parameters
    options, supplied, replaced = {}, set(), set()
    # bench/references.py pins use="exact"; these go when the benchmark's
    # pins do (ROADMAP item 1)
    exempt = {"calibrate_omega(use)", "calibrate_delta_min(use)"}

    def is_default(node, param):
        try:
            value = ast.literal_eval(node)
        except ValueError:
            return False
        return type(value) is type(param.default) and value == param.default

    def public(obj):
        qualname = getattr(obj, "__qualname__", "_")
        return (getattr(obj, "__module__", None) or "").startswith("iongate") \
            and not any(part.startswith("_") for part in qualname.split("."))

    for path, module in sources:
        with open(path) as handle:
            tree = ast.parse(handle.read())
        names = {key: [value] for key, value in vars(module).items()} if module else {}
        script = {id(node) for guard in tree.body if isinstance(guard, ast.If)
                  and "__main__" in ast.unparse(guard.test) for node in ast.walk(guard)}
        for call, targets in resolved_calls(tree, {**names, **package_imports(tree)}):
            if id(call) in script:
                continue
            for target in targets:
                if target is dataclasses.replace:
                    replaced.update(keyword.arg for keyword in call.keywords)
                # the error classes have no Python signature, and no options
                if not public(target) or isinstance(target, type) and issubclass(target, Exception):
                    continue
                key = getattr(target, "__func__", target)
                params = inspect.signature(target).parameters
                for name, param in params.items():
                    if param.default is not param.empty:
                        options[key, name] = f"{key.__qualname__}({name})"
                positional = [name for name, param in params.items()
                              if param.kind in (param.POSITIONAL_ONLY, param.POSITIONAL_OR_KEYWORD)]
                if any(isinstance(arg, ast.Starred) for arg in call.args):
                    supplied.update((key, name) for name in positional)
                else:
                    supplied.update((key, name) for name, arg in zip(positional, call.args)
                                    if not is_default(arg, params[name]))
                for keyword in call.keywords:
                    if keyword.arg in params:
                        owner, param = key, params[keyword.arg]
                    elif "solver_kwargs" in params and keyword.arg in kernel_params:
                        owner, param = kernel, kernel_params[keyword.arg]
                    else:
                        continue
                    if not is_default(keyword.value, param):
                        supplied.add((owner, keyword.arg))
    unset = sorted(label for (key, name), label in options.items()
                   if (key, name) not in supplied and label not in exempt
                   and not (dataclasses.is_dataclass(key) and name in replaced))
    assert not unset, f"options no call in the package or the benchmark sets: {unset}"


def test_failing_hypothesis_test_is_reported_as_one_failure(tmp_path):
    # under filterwarnings = error, a warning raised while Hypothesis writes
    # its failure report would abort the session and skip every later test
    (tmp_path / "test_pair.py").write_text(textwrap.dedent("""\
        from hypothesis import given, strategies as st


        @given(st.integers())
        def test_fails(x):
            assert x < 0


        def test_after():
            pass
        """))
    config = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "-c", config, "--rootdir", str(tmp_path), "test_pair.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert "1 failed, 1 passed" in out.stdout
