"""Scenario runner: config-file driven sweeps with CSV outputs.

Configs are flat INI files (key = value sections).  All frequencies in a
config are plain cyclic Hz and are multiplied by 2*pi internally; times are
seconds.  Every output file starts with '#' metadata lines recording the
tool version, a hash of the config, and the effective seed, followed by a
CSV header row and '%.17g'-formatted values so a round trip through the
file reproduces the numbers bit for bit.

Exit codes: 0 success, 1 config error, 2 numeric failure (non-convergence,
truncation, NaN in a result table), 3 I/O error.
"""

from __future__ import annotations

import argparse
import configparser
import datetime
import hashlib
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .errors import (ConfigError, ConvergenceError, DomainError, GridError,
                     ParameterError, TruncationError)
from .filterfn import filter_function_numeric, filter_function_walsh_analytic
from .quantum import ThermalEnsemble, calibration_scan, offset_scan, thermal_sweep
from .schedule import (SmoothGateParams, WalshGateParams, build_smooth_schedule,
                       build_walsh_schedule)
from .semiclassical import (calibrate_delta_min, calibrate_omega, check_output_grid,
                            gate_angle_exact, propagate_displacement)
from .slerb import (FullScheduleModel, ParametricModel, SlerbDataset, bootstrap_ci,
                    collect_dataset, fit_decays, mean_gates_per_clifford)

TWO_PI = 2.0 * math.pi

# Largest array a config may size, in elements: 1 GiB of float64.
_MAX_ELEMENTS = 2 ** 27

_SCHEMA = f"""\
Scenario config reference (INI format, flat key = value sections).

UNITS: every *_hz key is a plain cyclic frequency in Hz and is converted to
angular units (2*pi rad/s) internally.  Times are seconds.  Detunings keep
their sign.  Every comma list needs at least one value.

SIZES: no array a config sizes may exceed {_MAX_ELEMENTS} elements (1 GiB
of float64): points in [filterfn], [scan] and [trajectory]; in [slerb],
sequences x sum of lengths and resamples x number of lengths.

[scenario]
  name    one of: filterfn, calibration-scan, offset-scan, thermal-sweep,
          slerb, walsh-compare, trajectory          (required)
  output  output file name, written under --output-dir   (required)
  seed    integer RNG seed >= 0, overridden by --seed    (default 0)

[smooth]          five-step adiabatic gate (needed when a scenario uses it)
  delta_max_hz    signed starting detuning, e.g. -400e3  (required)
  delta_min_hz    signed detuning at the ramp bottom     (required)
  omega_hz        gate Rabi frequency                    (required)
  tau_g           amplitude ramp time, s                 (required)
  tau_d           detuning ramp time, s                  (required)
  t_c             hold time at delta_min, s              (default 0)
  j               detuning ramp exponent, integer        (required)
  calibrate       none | delta_min | omega: solve the named parameter so
                  |angle| = pi/2, signed as the detuning (default none)

[walsh]           sign-flip loop gate
  loops           number of loops, power of two          (required)
  omega_hz        gate Rabi frequency                    (required)

[schedule]        scenario-level schedule choice (offset-scan, thermal-sweep,
                  trajectory)
  type            smooth | walsh -> which block above to use

[filterfn]        filterfn scenario
  nbars           comma list of thermal occupations      (default 0,10)
  walsh_orders    comma list of integer Walsh orders     (default 1,3)
  points          frequency grid size                    (default 400)
  omega_min_hz    grid start                             (default 20)
  omega_max_hz    grid stop                              (default 1.6e6)

[scan]            calibration-scan and offset-scan grids
  start_hz        first grid value (delta_min or offset) (required)
  stop_hz         last grid value                        (required)
  points          grid size                              (required)
  nbar            thermal occupation                     (default 3.5 / 0)

[sweep]           thermal-sweep scenario
  nbars           comma list of occupations              (required)
  offset_hz       static detuning error                  (default 0)

[slerb]           benchmarking scenario
  lengths         comma list of sequence lengths, at least
                  three positive integers, none repeated (required)
  sequences       random sequences per length, >= 1      (required)
  shots           shots per sequence, >= 1               (required)
  model           ideal | parametric | full              (required)
  eps_rb          parametric depolarizing rate           (parametric only)
  eps_leak        parametric leak rate                   (parametric only)
  resamples       bootstrap resamples, >= 100            (default 10000)
                  (memory: 24 bytes per length per resample;
                  the fit runs 1024 resamples at a time)
  input           existing dataset CSV to fit instead of simulating
                  (model/lengths/... ignored when set; read by
                  run, not by validate)
  pauli_randomize boolean: fold a logical X into the inverter of
                  about half the sequences               (default true)
  (model = full also needs a [walsh] block; its Fock cutoff is automatic)

[walsh-compare]   walsh-compare scenario
  loops           comma list of integer loop counts      (required)
  omega_hz        shared Rabi frequency                  (required)
  nbar            occupation for the leak filter value   (default 0)

[trajectory]      trajectory scenario
  branch          collective-spin eigenvalue             (default 2)
  points          uniform time samples, >= 20 per detuning period
                  (default: 20 per fastest period of each segment)
"""


# ---------------------------------------------------------------------------
# CSV plumbing


def _render_csv(table: dict, metadata: dict | None = None) -> str:
    """Render a column table as CSV text, '#' metadata lines above the header.

    Floats use 17 significant digits so reading the file back reproduces
    them exactly; NaN anywhere in the table is a numeric failure.
    """
    columns = {name: np.atleast_1d(np.asarray(col)) for name, col in table.items()}
    lengths = {col.size for col in columns.values()}
    if len(columns) == 0 or (len(lengths) > 1):
        raise ParameterError("CSV table must have columns of one common length")
    for name, col in columns.items():
        if np.issubdtype(col.dtype, np.floating) and not np.all(np.isfinite(col)):
            raise ConvergenceError(f"non-finite values in output column {name!r}")

    lines = []
    for key, value in (metadata or {}).items():
        lines.append(f"# {key} = {value}")
    lines.append(",".join(columns))
    n_rows = next(iter(lengths))
    cells = []
    for col in columns.values():
        if np.issubdtype(col.dtype, np.integer):
            cells.append([str(int(v)) for v in col])
        else:
            cells.append([format(float(v), ".17g") for v in col])
    for i in range(n_rows):
        lines.append(",".join(c[i] for c in cells))
    return "\n".join(lines) + "\n"


def _write_atomic(path: str, body: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".part")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(body)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def emit_csv(table: dict, path: str, metadata: dict | None = None) -> None:
    """Write a column table as CSV; see :func:`_render_csv` for the format."""
    _write_atomic(path, _render_csv(table, metadata))


def read_csv(path: str) -> tuple[dict, dict]:
    """Read a file written by :func:`emit_csv`; returns (metadata, columns)."""
    metadata, header, rows = {}, None, []
    with open(path, "r") as handle:
        for raw in handle:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                if "=" in line:
                    key, _, value = line[1:].partition("=")
                    metadata[key.strip()] = value.strip()
                continue
            if header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    if header is None:
        raise ConfigError(f"{path}: no CSV header found")
    bad = next((k for k, row in enumerate(rows, 1) if len(row) != len(header)), None)
    if bad is not None:
        raise ConfigError(f"{path}: data row {bad} does not have the header's {len(header)} cells")
    columns = {}
    for j, name in enumerate(header):
        values = [row[j] for row in rows]
        try:
            columns[name] = np.array([int(v) for v in values])
        except ValueError:
            try:
                columns[name] = np.array([float(v) for v in values])
            except ValueError:
                raise ConfigError(f"{path}: column {name!r} is not numeric") from None
    return metadata, columns


def _outcome_table(name: str, grid, outcomes) -> dict:
    """A ``name`` column of grid values, then each outcome's populations and fidelity."""
    table = {name: np.asarray(grid, dtype=float)}
    for key in ("p_uu", "p_dd", "p_odd", "fidelity"):
        table[key] = np.array([getattr(o, key) for o in outcomes])
    return table


# SlerbDataset's fields as columns: written by simulating runs, read by refits
_DATASET_COLUMNS = ("N", "sequence_id", "shots", "n_survival", "n_flip", "n_leak")


def _render_report(entries: dict) -> str:
    lines = []
    for key, value in entries.items():
        if isinstance(value, float):
            value = format(value, ".17g")
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# config parsing


_KNOWN_KEYS = {
    "scenario": {"name", "output", "seed"},
    "smooth": {"delta_max_hz", "delta_min_hz", "omega_hz", "tau_g", "tau_d",
               "t_c", "j", "calibrate"},
    "walsh": {"loops", "omega_hz"},
    "schedule": {"type"},
    "filterfn": {"nbars", "walsh_orders", "points", "omega_min_hz", "omega_max_hz"},
    "scan": {"start_hz", "stop_hz", "points", "nbar"},
    "sweep": {"nbars", "offset_hz"},
    "slerb": {"lengths", "sequences", "shots", "model", "eps_rb", "eps_leak",
              "resamples", "input", "pauli_randomize"},
    "walsh-compare": {"loops", "omega_hz", "nbar"},
    "trajectory": {"branch", "points"},
}


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not finite")
    return value


class _Config:
    """Typed accessors over one parsed INI file; numbers must be finite."""

    def __init__(self, text: str, path: str):
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from None
        self._cp = parser
        self.path = path
        for section in parser.sections():
            if section not in _KNOWN_KEYS:
                raise ConfigError(f"{path}: unknown section [{section}]")
            unknown = set(parser[section]) - _KNOWN_KEYS[section]
            if unknown:
                raise ConfigError(
                    f"{path}: unknown key {sorted(unknown)[0]!r} in [{section}]")

    def has(self, section: str) -> bool:
        return self._cp.has_section(section)

    def _raw(self, section: str, key: str, default=None, required=False):
        if self._cp.has_option(section, key):
            return self._cp.get(section, key).strip()
        if required:
            raise ConfigError(f"{self.path}: missing {key!r} in [{section}]")
        return default

    def text(self, section, key, default=None, required=False):
        return self._raw(section, key, default, required)

    def number(self, section, key, default=None, required=False) -> float | None:
        raw = self._raw(section, key, default, required)
        if raw is None or isinstance(raw, (int, float)):
            return raw
        try:
            return _finite(raw)
        except ValueError:
            raise ConfigError(f"{self.path}: {key} in [{section}] is not a finite number") from None

    def integer(self, section, key, default=None, required=False) -> int | None:
        value = self.number(section, key, default, required)
        if value is None:
            return None
        if float(value) != int(value) or abs(value) >= 2 ** 53:
            raise ConfigError(f"{self.path}: {key} in [{section}] must be an integer below 2**53 "
                              "in magnitude")
        return int(value)

    def boolean(self, section, key, default=False) -> bool:
        raw = self._raw(section, key, None)
        if raw is None:
            return default
        low = str(raw).lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"{self.path}: {key} in [{section}] is not a boolean")

    def number_list(self, section, key, default=None, required=False) -> list[float]:
        """A non-empty comma list; ``default`` is list text such as "0,10"."""
        raw = self._raw(section, key, default, required)
        try:
            values = [_finite(tok) for tok in raw.split(",") if tok.strip()]
        except ValueError:
            raise ConfigError(f"{self.path}: {key} in [{section}] is not a list of finite numbers") from None
        if not values:
            raise ConfigError(f"{self.path}: {key} in [{section}] needs at least one value")
        return values

    def integer_list(self, section, key, default=None, required=False) -> list[int]:
        values = self.number_list(section, key, default, required)
        if any(v != int(v) or abs(v) >= 2 ** 53 for v in values):
            raise ConfigError(f"{self.path}: {key} in [{section}] must hold integers below 2**53 "
                              "in magnitude")
        return [int(v) for v in values]


def _check_size(cfg: _Config, section: str, what: str, elements: int) -> None:
    """Config error if ``what`` sizes an array of more than ``_MAX_ELEMENTS`` elements."""
    if elements > _MAX_ELEMENTS:
        raise ConfigError(f"{cfg.path}: {what} in [{section}] sizes {elements} elements, "
                          f"above the limit of {_MAX_ELEMENTS}")


def _smooth_params(cfg: _Config) -> SmoothGateParams:
    if not cfg.has("smooth"):
        raise ConfigError(f"{cfg.path}: this scenario needs a [smooth] section")
    params = SmoothGateParams(
        delta_max=TWO_PI * cfg.number("smooth", "delta_max_hz", required=True),
        delta_min=TWO_PI * cfg.number("smooth", "delta_min_hz", required=True),
        omega_g=TWO_PI * cfg.number("smooth", "omega_hz", required=True),
        tau_g=cfg.number("smooth", "tau_g", required=True),
        tau_d=cfg.number("smooth", "tau_d", required=True),
        t_c=cfg.number("smooth", "t_c", 0.0),
        j=cfg.integer("smooth", "j", required=True),
    )
    mode = cfg.text("smooth", "calibrate", "none")
    if mode == "delta_min":
        params = calibrate_delta_min(params, use="exact")
    elif mode == "omega":
        params = calibrate_omega(params, use="exact")
    elif mode != "none":
        raise ConfigError(f"{cfg.path}: calibrate must be none, delta_min or omega")
    return params


def _walsh_params(cfg: _Config) -> WalshGateParams:
    if not cfg.has("walsh"):
        raise ConfigError(f"{cfg.path}: this scenario needs a [walsh] section")
    return WalshGateParams.calibrated(
        cfg.integer("walsh", "loops", required=True),
        TWO_PI * cfg.number("walsh", "omega_hz", required=True))


def _scenario_schedule(cfg: _Config):
    kind = cfg.text("schedule", "type", required=True)
    if kind == "smooth":
        return build_smooth_schedule(_smooth_params(cfg))
    if kind == "walsh":
        return build_walsh_schedule(_walsh_params(cfg))
    raise ConfigError(f"{cfg.path}: schedule type must be smooth or walsh")


def _scan(cfg: _Config, nbar_default: float):
    """The [scan] grid in rad/s and the ensemble at its occupation."""
    start = cfg.number("scan", "start_hz", required=True)
    stop = cfg.number("scan", "stop_hz", required=True)
    points = cfg.integer("scan", "points", required=True)
    if points < 2:
        raise ConfigError(f"{cfg.path}: scan needs at least two points")
    _check_size(cfg, "scan", "points", points)
    ensemble = ThermalEnsemble.build(cfg.number("scan", "nbar", nbar_default))
    return TWO_PI * np.linspace(start, stop, points), ensemble


# ---------------------------------------------------------------------------
# scenarios: each _parse_<name>(cfg) reads and checks the whole config and
# builds every parameter object; it returns job(seed), which only computes
# and returns (table, extra_meta, report or None).  `validate` runs the parse.


def _parse_filterfn(cfg: _Config):
    params = _smooth_params(cfg)
    schedule = build_smooth_schedule(params)
    nbars = cfg.number_list("filterfn", "nbars", "0,10")
    orders = cfg.integer_list("filterfn", "walsh_orders", "1,3")
    points = cfg.integer("filterfn", "points", 400)
    lo = TWO_PI * cfg.number("filterfn", "omega_min_hz", 20.0)
    hi = TWO_PI * cfg.number("filterfn", "omega_max_hz", 1.6e6)
    if points < 2 or hi <= lo or lo <= 0:
        raise ConfigError(f"{cfg.path}: bad filter-function frequency grid")
    _check_size(cfg, "filterfn", "points", points)
    if min(nbars) < 0:
        raise ConfigError(f"{cfg.path}: nbars in [filterfn] must be >= 0")
    # output columns are keyed by f"{value:g}", so a repeat would collapse
    for key, values in (("nbars", nbars), ("walsh_orders", orders)):
        if len({f"{v:g}" for v in values}) < len(values):
            raise ConfigError(f"{cfg.path}: {key} in [filterfn] repeats a value")
    omega = np.geomspace(lo, hi, points)
    walsh = {order: WalshGateParams.calibrated(order + 1, params.omega_g) for order in orders}

    def job(seed: int):
        table = {"omega_rad_s": omega}
        for nbar in nbars:
            ff = filter_function_numeric(schedule, nbar=nbar, omega=omega)
            table[f"S_smooth_nbar{nbar:g}"] = ff.total
        extra = {}
        for order, gate in walsh.items():
            for nbar in nbars:
                ff = filter_function_walsh_analytic(gate, nbar=nbar, omega=omega)
                table[f"S_walsh{order}_nbar{nbar:g}"] = ff.total
            extra[f"walsh{order}_delta_g_hz"] = gate.delta_g / TWO_PI
        extra["smooth_duration_s"] = schedule.duration
        return table, extra, None

    return job


def _parse_calibration_scan(cfg: _Config):
    base = _smooth_params(cfg)
    grid, ensemble = _scan(cfg, 3.5)
    for delta_min in grid:
        base.with_delta_min(delta_min)  # SmoothGateParams checks each grid gate

    def job(seed: int):
        outcomes, crossing = calibration_scan(base, grid, ensemble)
        table = _outcome_table("delta_min_hz", grid / TWO_PI, outcomes)
        return table, {"nbar": f"{ensemble.nbar:g}", "crossing_hz": crossing / TWO_PI}, None

    return job


def _parse_offset_scan(cfg: _Config):
    schedule = _scenario_schedule(cfg)
    offsets, ensemble = _scan(cfg, 0.0)

    def job(seed: int):
        table = _outcome_table("offset_hz", offsets / TWO_PI,
                               offset_scan(schedule, offsets, ensemble))
        return table, {"nbar": f"{ensemble.nbar:g}"}, None

    return job


def _parse_thermal_sweep(cfg: _Config):
    schedule = _scenario_schedule(cfg)
    nbars = cfg.number_list("sweep", "nbars", required=True)
    offset = TWO_PI * cfg.number("sweep", "offset_hz", 0.0)
    if offset:
        schedule = schedule.with_detuning_offset(offset)
    ensembles = [ThermalEnsemble.build(nbar) for nbar in nbars]

    def job(seed: int):
        table = _outcome_table("nbar", nbars, thermal_sweep(schedule, ensembles))
        table["infidelity"] = 1.0 - table["fidelity"]
        return table, {"offset_hz": f"{offset / TWO_PI:g}"}, None

    return job


def _slerb_model(cfg: _Config):
    """The simulated error model, (name, model); builds no propagator."""
    name = cfg.text("slerb", "model", required=True)
    if name == "ideal":
        return name, ParametricModel(eps_rb=0.0, eps_leak=0.0)
    if name == "parametric":
        return name, ParametricModel(eps_rb=cfg.number("slerb", "eps_rb", required=True),
                                     eps_leak=cfg.number("slerb", "eps_leak", required=True))
    if name == "full":
        return name, FullScheduleModel(build_walsh_schedule(_walsh_params(cfg)))
    raise ConfigError(f"{cfg.path}: slerb model must be ideal, parametric or full")


def _parse_slerb(cfg: _Config):
    """Read and check [slerb].  An ``input`` dataset is read by the job, not
    here: it may be the output of a run that has not happened yet."""
    resamples = cfg.integer("slerb", "resamples", 10000)
    if resamples < 100:
        raise ConfigError(f"{cfg.path}: resamples in [slerb] must be >= 100")
    source = cfg.text("slerb", "input")
    model_name = "external"
    if source is None:
        model_name, model = _slerb_model(cfg)
        lengths = cfg.integer_list("slerb", "lengths", required=True)
        sequences = cfg.integer("slerb", "sequences", required=True)
        shots = cfg.integer("slerb", "shots", required=True)
        pauli_randomize = cfg.boolean("slerb", "pauli_randomize", True)
        if min(lengths) < 1 or len(set(lengths)) < 3:
            raise ConfigError(f"{cfg.path}: lengths in [slerb] must hold at least "
                              "three distinct positive integers")
        # a repeat would write its rows twice, with colliding sequence ids
        if len(set(lengths)) < len(lengths):
            raise ConfigError(f"{cfg.path}: lengths in [slerb] repeats a value")
        if sequences < 1 or shots < 1:
            raise ConfigError(f"{cfg.path}: sequences and shots in [slerb] must be >= 1")
        _check_size(cfg, "slerb", "sequences x the sum of lengths", sequences * sum(lengths))
        _check_size(cfg, "slerb", "resamples x the number of lengths", resamples * len(lengths))

    def job(seed: int):
        if source is not None:
            _, columns = read_csv(source)
            missing = [k for k in _DATASET_COLUMNS if k not in columns]
            if missing:
                raise ConfigError(f"{source}: missing dataset column {missing[0]!r}")
            data = SlerbDataset.from_columns(*(columns[k] for k in _DATASET_COLUMNS))
            _check_size(cfg, "slerb", "resamples x the number of lengths",
                        resamples * np.unique(data.n).size)
        else:
            data = collect_dataset(lengths, sequences, shots, model, seed,
                                   pauli_randomize=pauli_randomize)
        fit = fit_decays(data)
        report = {
            "model": model_name,
            "seed": seed,
            "eps_rb": fit.eps_rb,
            "eps_leak": fit.eps_leak,
            "eps_flip": fit.eps_flip,
            "eps_2q": fit.eps_2q,
            "gates_per_clifford": mean_gates_per_clifford(),
        }
        try:
            ci = bootstrap_ci(data, resamples=resamples, seed=seed)
        except DomainError:
            report["bootstrap"] = "skipped (degenerate data)"
        else:
            report["bootstrap_resamples"] = resamples
            for key, (lo, hi) in ci.items():
                report[f"{key}_ci16"] = lo
                report[f"{key}_ci84"] = hi
        table = dict(zip(_DATASET_COLUMNS, (data.n, data.sequence_id, data.shots,
                                            data.n_survival, data.n_flip, data.n_leak)))
        return table, {"model": model_name}, report

    return job


def _parse_walsh_compare(cfg: _Config):
    loops = cfg.integer_list("walsh-compare", "loops", required=True)
    omega = TWO_PI * cfg.number("walsh-compare", "omega_hz", required=True)
    nbar = cfg.number("walsh-compare", "nbar", 0.0)
    if nbar < 0:
        raise ConfigError(f"{cfg.path}: nbar in [walsh-compare] must be >= 0")
    gates = [WalshGateParams.calibrated(k, omega) for k in loops]

    def job(seed: int):
        schedules = [build_walsh_schedule(p) for p in gates]
        low = [filter_function_walsh_analytic(p, nbar=nbar, omega=np.array([1e-3 * abs(p.delta_g)]))
               for p in gates]
        table = {
            "loops": np.array(loops),
            "delta_g_hz": np.array([p.delta_g / TWO_PI for p in gates]),
            "duration_s": np.array([s.duration for s in schedules]),
            "gate_angle_rad": np.array([gate_angle_exact(s) for s in schedules]),
            "low_freq_filter_value": np.array([ff.total[0] for ff in low]),
        }
        return table, {"omega_hz": f"{omega / TWO_PI:g}", "nbar": f"{nbar:g}"}, None

    return job


def _parse_trajectory(cfg: _Config):
    schedule = _scenario_schedule(cfg)
    branch = cfg.number("trajectory", "branch", 2.0)
    points = cfg.integer("trajectory", "points")
    t_eval = None
    if points is not None:
        if points < 2:
            raise ConfigError(f"{cfg.path}: trajectory needs at least two points")
        _check_size(cfg, "trajectory", "points", points)
        t_eval = np.linspace(0.0, schedule.duration, points)
        check_output_grid(schedule, t_eval)

    def job(seed: int):
        traj = propagate_displacement(schedule, branch_eigenvalue=branch, t_eval=t_eval)
        table = {"t_s": traj.t, "re_gamma": traj.gamma.real, "im_gamma": traj.gamma.imag,
                 "eta_rad": traj.eta, "theta_rad": traj.theta}
        return table, {"branch": f"{branch:g}"}, None

    return job


_PARSERS = {
    "filterfn": _parse_filterfn,
    "calibration-scan": _parse_calibration_scan,
    "offset-scan": _parse_offset_scan,
    "thermal-sweep": _parse_thermal_sweep,
    "slerb": _parse_slerb,
    "walsh-compare": _parse_walsh_compare,
    "trajectory": _parse_trajectory,
}


def _load_config(path: str) -> tuple[_Config, str, bytes]:
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    cfg = _Config(raw.decode("utf-8"), path)
    name = cfg.text("scenario", "name", required=True)
    if name not in _PARSERS:
        raise ConfigError(f"{path}: unknown scenario {name!r}")
    cfg.text("scenario", "output", required=True)
    if cfg.integer("scenario", "seed", 0) < 0:
        raise ConfigError(f"{path}: seed in [scenario] must be >= 0")
    return cfg, name, raw


def run_scenario(config_path: str, output_dir: str = ".", seed: int | None = None,
                 quiet: bool = False) -> list[str]:
    """Execute one scenario; returns the list of files written."""
    cfg, name, raw = _load_config(config_path)
    if seed is not None and seed < 0:
        raise ConfigError("--seed must be >= 0")
    effective_seed = seed if seed is not None else cfg.integer("scenario", "seed", 0)
    output_name = cfg.text("scenario", "output", required=True)

    table, extra_meta, report = _PARSERS[name](cfg)(effective_seed)

    metadata = {
        "tool_version": __version__,
        "scenario": name,
        "config_hash": hashlib.sha256(raw).hexdigest()[:16],
        "seed": str(effective_seed),
        "created": datetime.datetime.now(datetime.timezone.utc)
                   .isoformat(timespec="seconds"),
    }
    for key, value in extra_meta.items():
        if isinstance(value, float):
            value = format(value, ".17g")
        metadata[key] = str(value)

    # render every file body first so a failure writes nothing at all
    base = os.path.join(output_dir, output_name)
    bodies = [(base, _render_csv(table, metadata))]
    if report is not None:
        stem, _ = os.path.splitext(base)
        bodies.append((f"{stem}_fit.txt", _render_report({**metadata, **report})))

    os.makedirs(output_dir, exist_ok=True)
    written = []
    for path, body in bodies:
        _write_atomic(path, body)
        written.append(path)
    if not quiet:
        for path in written:
            print(path)
    return written


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="iongate",
        description="Run gate-simulation scenarios from INI configs. "
                    "Frequencies in configs are cyclic Hz (converted to "
                    "2*pi rad/s internally); times are seconds.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario config")
    run_p.add_argument("config")
    run_p.add_argument("--output-dir", default=".")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the seed in the config")
    run_p.add_argument("--quiet", action="store_true")

    val_p = sub.add_parser("validate", help="parse and check a config, run nothing")
    val_p.add_argument("config")
    val_p.add_argument("--quiet", action="store_true")

    sub.add_parser("schema", help="print the config file reference")

    args = parser.parse_args(argv)

    try:
        if args.command == "schema":
            print(_SCHEMA, end="")
            return 0
        if args.command == "validate":
            cfg, name, _ = _load_config(args.config)
            _PARSERS[name](cfg)
            if not args.quiet:
                print(f"ok: {name}")
            return 0
        run_scenario(args.config, output_dir=args.output_dir, seed=args.seed,
                     quiet=args.quiet)
        return 0
    except (ConfigError, ParameterError, GridError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ConvergenceError, TruncationError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
