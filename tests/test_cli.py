"""CLI tests: config parsing, scenario runs, CSV contract, exit codes."""

import ast
import importlib.util
import inspect
import os
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import iongate
from iongate import cli, quantum, semiclassical
from iongate.errors import ConvergenceError, ParameterError


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
    cli.emit_csv(table, path, {"seed": "0"})
    meta, back = cli.read_csv(path)
    assert meta["seed"] == "0"
    assert back["k"].dtype.kind == "i"
    for key in table:
        assert np.array_equal(back[key], table[key])
    # a second emit of the parsed columns reproduces the bytes exactly
    path2 = str(tmp_path / "t2.csv")
    cli.emit_csv(back, path2, {"seed": "0"})
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "t2.csv").read_bytes()


def test_emit_csv_empty_table(tmp_path):
    path = str(tmp_path / "e.csv")
    cli.emit_csv({"a": np.array([]), "b": np.array([])}, path, {"note": "x"})
    lines = (tmp_path / "e.csv").read_text().splitlines()
    assert lines == ["# note = x", "a,b"]
    _, back = cli.read_csv(path)
    assert back["a"].size == 0


def test_emit_csv_rejects_nan(tmp_path):
    with pytest.raises(ConvergenceError):
        cli.emit_csv({"a": np.array([1.0, np.nan])}, str(tmp_path / "n.csv"))
    assert not (tmp_path / "n.csv").exists()


def test_emit_csv_rejects_ragged(tmp_path):
    with pytest.raises(ParameterError):
        cli.emit_csv({"a": np.zeros(3), "b": np.zeros(2)}, str(tmp_path / "r.csv"))


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
    for section, keys in cli._KNOWN_KEYS.items():
        assert section in blocks
        documented = set(re.findall(r"^  (\w+)", blocks[section], re.M))
        assert keys <= documented, (section, keys - documented)


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
                                  SLERB_ROWS + "0,1,100,90,5,5\n"],
                         ids=["short-row", "non-numeric-cell", "fractional-length",
                              "nan-length", "zero-length"])
def test_run_slerb_malformed_input_is_config_error(tmp_path, capsys, body):
    (tmp_path / "bad.csv").write_text(body)
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
    "calibration-scan-without-scan": SCAN_GATE,
    "calibration-scan-points-1": set_key(CALIBRATION_SCAN, "points", "1"),
    "calibration-scan-start-wrong-sign": set_key(CALIBRATION_SCAN, "start_hz", "40e3"),
    "calibration-scan-start-at-delta-max": set_key(CALIBRATION_SCAN, "start_hz", "-400e3"),
    "walsh-compare-fractional-loops": set_key(WALSH_COMPARE, "loops", "1.5,2"),
    "walsh-compare-loops-empty": set_key(WALSH_COMPARE, "loops", ""),
    "walsh-compare-nbar-negative": WALSH_COMPARE + "    nbar = -1\n",
    "sweep-nbars-empty": set_key(THERMAL_SWEEP, "nbars", ""),
    # a repeated length would write its rows twice, with colliding sequence ids
    "slerb-lengths-repeated": set_key(SLERB_PARAMETRIC, "lengths", "2,2,50,150"),
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


def test_cli_import_loads_no_scipy(tmp_path):
    # scipy.linalg alone is most of the start-up time; the closed-form
    # scenarios and the full SLERB model never need it, so every scipy
    # import is deferred to its use
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
    walsh = ("import math, sys; from iongate import (CompositeState, WalshGateParams, "
             "build_walsh_schedule, propagate); "
             "s = build_walsh_schedule(WalshGateParams.calibrated(2, 2 * math.pi * 5e3)); "
             "psi0 = CompositeState.from_spin_fock((1, 0, 0, 0), 0, 30); propagate(s, psi0); "
             + loaded)
    out = subprocess.run([sys.executable, "-c", walsh], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
    # the adiabatic estimate and the default calibration work on the
    # kernel's panels
    adiabatic = ("import math, sys; from iongate import (SmoothGateParams, build_smooth_schedule, "
                 "calibrate_omega, gate_angle_adiabatic); "
                 "p = SmoothGateParams(delta_max=-2 * math.pi * 400e3, delta_min=-2 * math.pi * 21.7e3, "
                 "omega_g=2 * math.pi * 6e3, tau_g=5e-6, tau_d=100e-6, t_c=15.8e-6); "
                 "gate_angle_adiabatic(build_smooth_schedule(p)); calibrate_omega(p); " + loaded)
    out = subprocess.run([sys.executable, "-c", adiabatic], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "bench")


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_bench_contract_with_the_package():
    # the benchmark harness imports and traces these names; a rename in the
    # package would otherwise only show up as a failed traced bench run
    tracing = load_bench_module("tracing")
    for layer, attr, _ in tracing.TARGETS:
        owner = getattr(iongate, layer)
        *classes, name = attr.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        assert name in vars(owner), f"{layer}.{attr}"
    with open(os.path.join(BENCH, "references.py")) as handle:
        tree = ast.parse(handle.read())
    imports = [node for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module.startswith("iongate")]
    assert imports
    callables = {}
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
            callables[alias.asname or alias.name] = [getattr(module, alias.name)]

    def callees(expr):
        """The package callables an expression can name: an imported name, a
        method of one, or either branch of a conditional (``solve = a if c else b``)."""
        if isinstance(expr, ast.IfExp):
            return callees(expr.body) + callees(expr.orelse)
        if isinstance(expr, ast.Attribute):
            return [getattr(owner, expr.attr) for owner in callees(expr.value)]
        return callables.get(expr.id, []) if isinstance(expr, ast.Name) else []

    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) and callees(node.value):
            callables[node.targets[0].id] = callees(node.value)
    # every keyword the references pass must still be a parameter of its
    # callee; **solver_kwargs are passed on to the kernel's tolerances
    kernel = inspect.signature(semiclassical.branch_endpoints).parameters
    checked = set()
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        for target in callees(call.func):
            params = dict(inspect.signature(target).parameters)
            if "solver_kwargs" in params:
                params.update(kernel)
            for keyword in call.keywords:
                assert keyword.arg in params, f"{target.__qualname__}({keyword.arg}=)"
                checked.add((target.__qualname__, keyword.arg))
    assert {("calibrate_omega", "use"), ("thermal_average", "props")} <= checked


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
