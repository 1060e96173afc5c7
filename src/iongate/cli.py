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
import textwrap
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .errors import (ConfigError, ConvergenceError, DomainError, GridError,
                     ParameterError, TruncationError)
from .filterfn import filter_function_numeric, filter_function_walsh_analytic
from .quantum import ThermalEnsemble, calibration_scan, offset_scan, thermal_sweep
from .schedule import (SmoothGateParams, WalshGateParams, build_smooth_schedule,
                       build_walsh_schedule)
from .semiclassical import (_FOURIER_PHASE, PANEL_NODES, calibrate_delta_min, calibrate_omega,
                            check_output_grid, gate_angle_exact, propagate_displacement)
from .slerb import (RESAMPLE_BLOCK, SEQUENCE_BLOCK, FullScheduleModel, ParametricModel,
                    SlerbDataset, bootstrap_ci, collect_dataset, fit_decays,
                    mean_gates_per_clifford)

TWO_PI = 2.0 * math.pi

# Most memory a config may make `run` hold.  The checks count what `run`
# holds at its peak, from per-item costs measured with tracemalloc.
_MAX_BYTES = 2 ** 30
# Per row of a [scan] or [trajectory] grid: an offset scan peaks at about
# 1.4 kB per offset, the most of any grid (a five-cell CSV row takes 0.74 kB).
_ROW_BYTES = 1536
# Per cell of a [filterfn] table: about 148 B of CSV text, plus the filter
# functions' own arrays.
_CELL_BYTES = 176
# Per node of the numeric filter function's Fourier sums: about 410 B for the
# node columns, the (nodes, PANEL_NODES) interpolation weights and the
# (_FOURIER_BLOCK, nodes) phase blocks that are held together.
_NODE_BYTES = 448
# Per sequence of a simulated [slerb] dataset: about 260 B on the parametric
# model and 220 B on the full one (marginal tracemalloc peaks), mostly the
# slotted SlerbSequence, its outcome columns and, on the full model, its gate
# path.  Per Clifford draw: 1 B in the row's bytes, and on the full model
# about 2.4 B more for its compiled gates in the row's gate path (3.4 B in
# all).  The full model also copies SEQUENCE_BLOCK rows at a time into a
# uint8 table padded to the block's longest row: at most 4 gates of 1 B per
# Clifford; the parametric model, which holds no table, is charged the same
# as an upper bound.
_SEQUENCE_BYTES = 384
_DRAW_BYTES = 4
_PATH_BYTES = 4
# Per bootstrap resample: 24 B per length for the int64 sums of shots,
# survivals and flips, and 24 B for the three fitted rates, which the
# percentiles partition in place; 32 B leaves a margin.
_SUM_BYTES = 24
_RESAMPLE_BYTES = 32

# Most loops a Walsh gate may have: the schedule holds one segment per loop,
# and validating 4096 loops takes about 0.1 s.
_MAX_LOOPS = 4096

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


def read_csv(path: str) -> tuple[dict, dict]:
    """Read a CSV table written by :func:`run_scenario`; returns (metadata, columns)."""
    metadata, header, rows = {}, None, []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = [raw.strip() for raw in handle]
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    for line in filter(None, lines):  # blank lines carry nothing
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
            columns[name] = np.array([int(v) for v in values], dtype=np.int64)
        except (ValueError, OverflowError):  # a cell beyond int64 makes the column float
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


def _number(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _integer(text: str) -> int:
    value = _number(text)
    if value != int(value) or abs(value) >= 2 ** 53:
        raise ValueError(f"{text!r} is not an integer below 2**53 in magnitude")
    return int(value)


class _Kind(NamedTuple):
    """How a key's value is read: ``parse`` turns the text of one value into
    a value (ValueError if it cannot), ``ok`` bounds it, and ``doc`` says what
    the value must be.  A list kind reads a comma list of such values."""

    doc: str
    parse: Callable = str
    ok: Callable = lambda value: True
    is_list: bool = False

    def read(self, token: str):
        value = self.parse(token)
        if not self.ok(value):
            raise ValueError(f"{token!r} is not {self.doc}")
        return value


def _choice(*values: str) -> _Kind:
    return _Kind(" | ".join(values), ok=values.__contains__)


def _list_of(kind: _Kind) -> _Kind:
    return kind._replace(is_list=True)


_TEXT = _Kind("")
_NUMBER = _Kind("a finite number", _number)
_NONNEGATIVE = _Kind("a finite number >= 0", _number, lambda v: v >= 0)
_SEED = _Kind("an integer >= 0", _integer, lambda v: v >= 0)
_COUNT = _Kind("an integer >= 1", _integer, lambda v: v >= 1)
_POINTS = _Kind(f"an integer from 2 to {_MAX_BYTES // _ROW_BYTES}", _integer,
                lambda v: 2 <= v <= _MAX_BYTES // _ROW_BYTES)
_FILE_NAME = _Kind("a plain file name, without a directory",
                   ok=lambda v: v == os.path.basename(v) and v not in ("", ".", ".."))
_RESAMPLES = _Kind("an integer >= 100", _integer, lambda v: v >= 100)
_LOOPS = _Kind(f"a power of two up to {_MAX_LOOPS}", _integer,
               lambda v: 1 <= v <= _MAX_LOOPS and v & (v - 1) == 0)
_WALSH_ORDER = _Kind(f"K - 1 for K a power of two up to {_MAX_LOOPS}", _integer,
                     lambda v: _LOOPS.ok(v + 1))
# the spellings ConfigParser.getboolean accepts: 1/0, true/false, yes/no, on/off
_BOOLEAN = _Kind("true or false",
                 lambda text: configparser.ConfigParser.BOOLEAN_STATES.get(text.lower()),
                 lambda v: v is not None)

# the default of a key that a config must set wherever a parser reads it
_REQUIRED = object()


class _Config:
    """One parsed INI file, checked and read by the key table."""

    def __init__(self, text: str, path: str):
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from None
        self._cp = parser
        self.path = path
        for section in parser.sections():
            if section not in _KEYS:
                raise ConfigError(f"{path}: unknown section [{section}]")
            unknown = set(parser[section]) - set(_KEYS[section][1])
            if unknown:
                raise ConfigError(f"{path}: unknown key {min(unknown)!r} in [{section}]")

    def get(self, section: str, key: str):
        """The value of ``key`` in ``[section]``, read and bounded by its kind.
        A key left out takes its table default, None when the table has none."""
        kind, default, _ = _KEYS[section][1][key]
        text = self._cp.get(section, key, fallback=default)
        if text is _REQUIRED:
            raise ConfigError(f"{self.path}: missing {key!r} in [{section}]")
        if isinstance(text, dict):  # a default that depends on the scenario
            text = text[self.get("scenario", "name")]
        if text is None:
            return None
        tokens = [tok for tok in text.split(",") if tok.strip()] if kind.is_list else [text]
        if not tokens:
            raise ConfigError(f"{self.path}: {key} in [{section}] needs at least one value")
        try:
            values = [kind.read(tok.strip()) for tok in tokens]
        except ValueError as exc:
            raise ConfigError(f"{self.path}: {key} in [{section}]: {exc}") from None
        return values if kind.is_list else values[0]


def _check_size(cfg: _Config, section: str, what: str, nbytes: float) -> None:
    """Config error if ``what`` makes `run` hold more than ``_MAX_BYTES``."""
    if nbytes > _MAX_BYTES:
        raise ConfigError(f"{cfg.path}: {what} in [{section}] would take about "
                          f"{nbytes / 2 ** 20:.0f} MiB, above the limit of {_MAX_BYTES >> 20} MiB")


def _smooth_params(cfg: _Config) -> SmoothGateParams:
    params = SmoothGateParams(
        delta_max=TWO_PI * cfg.get("smooth", "delta_max_hz"),
        delta_min=TWO_PI * cfg.get("smooth", "delta_min_hz"),
        omega_g=TWO_PI * cfg.get("smooth", "omega_hz"),
        tau_g=cfg.get("smooth", "tau_g"),
        tau_d=cfg.get("smooth", "tau_d"),
        t_c=cfg.get("smooth", "t_c"),
        j=cfg.get("smooth", "j"),
    )
    mode = cfg.get("smooth", "calibrate")
    if mode == "delta_min":
        params = calibrate_delta_min(params, use="exact")
    elif mode == "omega":
        params = calibrate_omega(params, use="exact")
    return params


def _walsh_params(cfg: _Config) -> WalshGateParams:
    return WalshGateParams.calibrated(cfg.get("walsh", "loops"),
                                      TWO_PI * cfg.get("walsh", "omega_hz"))


def _scenario_schedule(cfg: _Config):
    if cfg.get("schedule", "type") == "smooth":
        return build_smooth_schedule(_smooth_params(cfg))
    return build_walsh_schedule(_walsh_params(cfg))


def _scan(cfg: _Config):
    """The [scan] grid in rad/s and the ensemble at its occupation."""
    start = cfg.get("scan", "start_hz")
    stop = cfg.get("scan", "stop_hz")
    points = cfg.get("scan", "points")
    ensemble = ThermalEnsemble.build(cfg.get("scan", "nbar"))
    return TWO_PI * np.linspace(start, stop, points), ensemble


# ---------------------------------------------------------------------------
# scenarios: each _parse_<name>(cfg) reads and checks the whole config and
# builds every parameter object; it returns job(seed), which only computes
# and returns (table, extra_meta, report or None).  `validate` runs the parse.


def _parse_filterfn(cfg: _Config):
    nbars = cfg.get("filterfn", "nbars")
    orders = cfg.get("filterfn", "walsh_orders")
    points = cfg.get("filterfn", "points")
    lo = TWO_PI * cfg.get("filterfn", "omega_min_hz")
    hi = TWO_PI * cfg.get("filterfn", "omega_max_hz")
    if not 0 < lo < hi:
        raise ConfigError(f"{cfg.path}: bad filter-function frequency grid")
    # output columns are keyed by f"{value:g}", so a repeat would collapse
    for key, values in (("nbars", nbars), ("walsh_orders", orders)):
        if len({f"{v:g}" for v in values}) < len(values):
            raise ConfigError(f"{cfg.path}: {key} in [filterfn] repeats a value")
    _check_size(cfg, "filterfn", "points x output columns",
                _CELL_BYTES * points * (1 + len(nbars) * (1 + len(orders))))
    params = _smooth_params(cfg)
    schedule = build_smooth_schedule(params)
    # the Fourier sums' nodes at the top frequency: PANEL_NODES per
    # _FOURIER_PHASE rad of omega*t or more
    _check_size(cfg, "filterfn", "omega_max_hz",
                _NODE_BYTES * PANEL_NODES * schedule.duration * hi / _FOURIER_PHASE)
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
    grid, ensemble = _scan(cfg)
    # SmoothGateParams accepts delta_min on an interval, so a linspace is a
    # valid grid exactly when both its ends are
    base.with_delta_min(grid[0])
    base.with_delta_min(grid[-1])

    def job(seed: int):
        outcomes, crossing = calibration_scan(base, grid, ensemble)
        table = _outcome_table("delta_min_hz", grid / TWO_PI, outcomes)
        return table, {"nbar": f"{ensemble.nbar:g}", "crossing_hz": crossing / TWO_PI}, None

    return job


def _parse_offset_scan(cfg: _Config):
    schedule = _scenario_schedule(cfg)
    offsets, ensemble = _scan(cfg)

    def job(seed: int):
        table = _outcome_table("offset_hz", offsets / TWO_PI,
                               offset_scan(schedule, offsets, ensemble))
        return table, {"nbar": f"{ensemble.nbar:g}"}, None

    return job


def _parse_thermal_sweep(cfg: _Config):
    schedule = _scenario_schedule(cfg)
    nbars = cfg.get("sweep", "nbars")
    offset = TWO_PI * cfg.get("sweep", "offset_hz")
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
    name = cfg.get("slerb", "model")
    if name == "ideal":
        return name, ParametricModel(eps_rb=0.0, eps_leak=0.0)
    if name == "parametric":
        return name, ParametricModel(eps_rb=cfg.get("slerb", "eps_rb"),
                                     eps_leak=cfg.get("slerb", "eps_leak"))
    return name, FullScheduleModel(build_walsh_schedule(_walsh_params(cfg)))


def _parse_slerb(cfg: _Config):
    """Read and check [slerb].  An ``input`` dataset is read by the job, not
    here: it may be the output of a run that has not happened yet."""
    resamples = cfg.get("slerb", "resamples")
    source = cfg.get("slerb", "input")
    model_name = "external"
    if source is None:
        model_name, model = _slerb_model(cfg)
        lengths = cfg.get("slerb", "lengths")
        sequences = cfg.get("slerb", "sequences")
        shots = cfg.get("slerb", "shots")
        pauli_randomize = cfg.get("slerb", "pauli_randomize")
        # a repeat would write its rows twice, with colliding sequence ids
        if len(set(lengths)) < max(3, len(lengths)):
            raise ConfigError(f"{cfg.path}: lengths in [slerb] must hold at least three "
                              "values, none repeated")
        rows = sequences * len(lengths)
        _check_size(cfg, "slerb", "sequences x the sum of lengths",
                    _DRAW_BYTES * sequences * sum(lengths) + _SEQUENCE_BYTES * rows
                    + _PATH_BYTES * max(lengths) * min(rows, SEQUENCE_BLOCK))
        _check_size(cfg, "slerb", "resamples x the number of lengths",
                    resamples * (_SUM_BYTES * len(lengths) + _RESAMPLE_BYTES))
        if sequences * shots >= 2 ** 53:
            raise ConfigError(f"{cfg.path}: sequences x shots in [slerb] must lie below 2**53")

    def job(seed: int):
        if source is not None:
            _, columns = read_csv(source)
            missing = [k for k in _DATASET_COLUMNS if k not in columns]
            if missing:
                raise ConfigError(f"{source}: missing dataset column {missing[0]!r}")
            data = SlerbDataset.from_columns(*(columns[k] for k in _DATASET_COLUMNS))
            _check_size(cfg, "slerb", "resamples x the number of lengths",
                        resamples * (_SUM_BYTES * np.unique(data.n).size + _RESAMPLE_BYTES))
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
    loops = cfg.get("walsh-compare", "loops")
    omega = TWO_PI * cfg.get("walsh-compare", "omega_hz")
    nbar = cfg.get("walsh-compare", "nbar")
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
    branch = cfg.get("trajectory", "branch")
    points = cfg.get("trajectory", "points")
    t_eval = None
    if points is not None:
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


# ---------------------------------------------------------------------------
# the key table: `iongate schema` prints it and _Config reads by it; the
# parsers keep only the checks that involve more than one key.

_KEYS = {
    "scenario": ("", {
        "name": (_choice(*_PARSERS), _REQUIRED, "the scenario to run"),
        "output": (_FILE_NAME, _REQUIRED, "output file name, written under --output-dir"),
        "seed": (_SEED, "0", "RNG seed, overridden by --seed"),
    }),
    "smooth": ("five-step adiabatic gate (needed when a scenario uses it)", {
        "delta_max_hz": (_NUMBER, _REQUIRED, "signed starting detuning, e.g. -400e3"),
        "delta_min_hz": (_NUMBER, _REQUIRED, "signed detuning at the ramp bottom"),
        "omega_hz": (_NUMBER, _REQUIRED, "gate Rabi frequency"),
        "tau_g": (_NUMBER, _REQUIRED, "amplitude ramp time, s"),
        "tau_d": (_NUMBER, _REQUIRED, "detuning ramp time, s"),
        "t_c": (_NUMBER, "0", "hold time at delta_min, s"),
        "j": (_COUNT, _REQUIRED, "detuning ramp exponent"),
        "calibrate": (_choice("none", "delta_min", "omega"), "none",
                      "solve the named parameter so |angle| = pi/2, signed as the detuning"),
    }),
    "walsh": ("sign-flip loop gate", {
        "loops": (_LOOPS, _REQUIRED, "number of loops"),
        "omega_hz": (_NUMBER, _REQUIRED, "gate Rabi frequency"),
    }),
    "schedule": ("scenario-level schedule choice (offset-scan, thermal-sweep, trajectory)", {
        "type": (_choice("smooth", "walsh"), _REQUIRED, "which gate block above to use"),
    }),
    "filterfn": ("filterfn scenario", {
        "nbars": (_list_of(_NONNEGATIVE), "0,10", "thermal occupations"),
        "walsh_orders": (_list_of(_WALSH_ORDER), "1,3", "Walsh gate orders"),
        "points": (_POINTS, "400", "frequency grid size"),
        "omega_min_hz": (_NUMBER, "20", "grid start, above 0"),
        "omega_max_hz": (_NUMBER, "1.6e6", "grid stop, above the start"),
    }),
    "scan": ("calibration-scan and offset-scan grids", {
        "start_hz": (_NUMBER, _REQUIRED, "first grid value (delta_min or offset)"),
        "stop_hz": (_NUMBER, _REQUIRED, "last grid value"),
        "points": (_POINTS, _REQUIRED, "grid size (calibration-scan integrates one gate per "
                   "point, about 3 ms each)"),
        "nbar": (_NONNEGATIVE, {"calibration-scan": "3.5", "offset-scan": "0"},
                 "thermal occupation"),
    }),
    "sweep": ("thermal-sweep scenario", {
        "nbars": (_list_of(_NONNEGATIVE), _REQUIRED, "thermal occupations"),
        "offset_hz": (_NUMBER, "0", "static detuning error"),
    }),
    "slerb": ("benchmarking scenario (model = full also needs a [walsh] block; its Fock "
              "cutoff is automatic)", {
        "lengths": (_list_of(_COUNT), _REQUIRED, "sequence lengths, at least three, none repeated"),
        "sequences": (_COUNT, _REQUIRED, "random sequences per length"),
        "shots": (_COUNT, _REQUIRED, "shots per sequence"),
        "model": (_choice("ideal", "parametric", "full"), _REQUIRED, "simulated error model"),
        "eps_rb": (_NUMBER, _REQUIRED, "depolarizing rate, read for model = parametric"),
        "eps_leak": (_NUMBER, _REQUIRED, "leak rate, read for model = parametric"),
        "resamples": (_RESAMPLES, "10000", "bootstrap resamples (memory: per-length sums of "
                      f"shots, survivals and flips, {_SUM_BYTES} bytes per length per resample, "
                      f"and the fitted rates, {_RESAMPLE_BYTES} bytes per resample; the fit "
                      f"runs {RESAMPLE_BLOCK} resamples at a time)"),
        "input": (_TEXT, None, "existing dataset CSV to fit instead of simulating (model, "
                  "lengths, sequences, shots and pauli_randomize are ignored when set; read "
                  "by run, not by validate)"),
        "pauli_randomize": (_BOOLEAN, "true",
                            "fold a logical X into the inverter of about half the sequences"),
    }),
    "walsh-compare": ("walsh-compare scenario", {
        "loops": (_list_of(_LOOPS), _REQUIRED, "loop counts"),
        "omega_hz": (_NUMBER, _REQUIRED, "shared Rabi frequency"),
        "nbar": (_NONNEGATIVE, "0", "occupation for the leak filter value"),
    }),
    "trajectory": ("trajectory scenario", {
        "branch": (_NUMBER, "2", "collective-spin eigenvalue"),
        "points": (_POINTS, None, "uniform time samples, at least 20 per detuning period "
                   "(left out: 20 per fastest period of each segment)"),
    }),
}

_SCHEMA_HEAD = f"""\
Scenario config reference (INI format, flat key = value sections), printed
from the key table that `validate` and `run` check every config against.

UNITS: every *_hz key is a plain cyclic frequency in Hz and is converted to
angular units (2*pi rad/s) internally.  Times are seconds.  Detunings keep
their sign.  Every comma list needs at least one value.  Integers must lie
below 2**53 in magnitude, where the float they are parsed through holds
them exactly.

SIZES: a config may make `run` hold at most {_MAX_BYTES >> 20} MiB, counted from
measured peaks: {_ROW_BYTES} bytes per row of a grid in [scan] or [trajectory];
{_CELL_BYTES} bytes per cell of the filterfn table, points x (1 + nbars x (1 +
walsh_orders)) cells; {_NODE_BYTES} bytes per node of the smooth gate's Fourier sums
in [filterfn], {PANEL_NODES} nodes per {_FOURIER_PHASE:g} rad of 2*pi x omega_max_hz x t over the
gate.  In [slerb]: {_DRAW_BYTES} bytes per Clifford draw, sequences x the sum of
lengths; {_SEQUENCE_BYTES} bytes per sequence of each length; {_PATH_BYTES} bytes per
Clifford of the longest length for each of up to {SEQUENCE_BLOCK} sequences that the
full model compiles together (charged to both models); and for the bootstrap,
{_SUM_BYTES} bytes per length per resample plus {_RESAMPLE_BYTES} per resample.  In [slerb],
sequences x shots must lie below 2**53, so that every per-length sum of shots is exact."""


def _schema() -> str:
    """The config reference, printed from the key table."""
    def fill(line):
        return textwrap.fill(line, 78, subsequent_indent=" " * 18, break_on_hyphens=False)

    lines = [_SCHEMA_HEAD]
    for section, (about, keys) in _KEYS.items():
        lines += ["", fill(f"[{section}]".ljust(18) + about)]
        for key, (kind, default, doc) in keys.items():
            if kind.doc:
                doc += f"; {'comma list, each ' if kind.is_list else ''}{kind.doc}"
            if default is _REQUIRED:
                doc += " (required)"
            elif isinstance(default, dict):
                doc += " (default " + ", ".join(f"{v} for {k}" for k, v in default.items()) + ")"
            elif default is not None:
                doc += f" (default {default})"
            lines.append(fill(f"  {key:<15} {doc}"))
    return "\n".join(lines) + "\n"


def _load_config(path: str) -> tuple[_Config, str, bytes]:
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
        text = raw.decode("utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    cfg = _Config(text, path)
    name = cfg.get("scenario", "name")
    cfg.get("scenario", "output")
    cfg.get("scenario", "seed")
    return cfg, name, raw


def run_scenario(config_path: str, output_dir: str = ".", seed: int | None = None,
                 quiet: bool = False) -> list[str]:
    """Execute one scenario; returns the list of files written."""
    cfg, name, raw = _load_config(config_path)
    if seed is not None and seed < 0:
        raise ConfigError("--seed must be >= 0")
    effective_seed = seed if seed is not None else cfg.get("scenario", "seed")
    output_name = cfg.get("scenario", "output")

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
            print(_schema(), end="")
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
