"""Workload definitions: the INI configs each workload writes and the
operations (one ``run_scenario`` call each) it times.

Working points are those of the paper and of the acceptance tests:

- the calibration gate: delta_max = -400 kHz, delta_min = -21.7 kHz,
  tau_g = 5 us, tau_d = 100 us, hold 15.8 us, j = 3, drive solved for the
  -pi/2 angle (``calibrate = omega``);
- the matched smooth gate: 200 us long, j = 4, delta_min = -14 161 Hz
  (the delta_min that gives -pi/2 at Omega = 5 kHz), with Omega solved for
  the -pi/2 angle (``calibrate = omega``).  Solving delta_min instead is a
  brentq over exact gate angles that takes about 20 s per scenario run,
  too long to repeat within one benchmark run;
- Walsh gates calibrated to -pi/2 (2 loops at 5 kHz, 1 loop at 20 kHz).

Two workloads: ``gate`` runs the gate-design scenarios (``filterfn``,
``trajectory``, ``walsh-compare``, where ``semiclassical`` does the work)
and the thermal ones (calibration and offset scans and the thermal sweep,
where ``quantum`` does) in one pass; ``slerb`` runs the randomized
benchmarking scenarios.  The gate-design scenarios are not a workload of
their own: their Python-heavy ODE code swings by up to 70 % with the load
on the host, and alone they spread past the 0.25 bound between runs.

Only ``slerb`` uses the benchmark seed: it derives each dataset's
``--seed`` from it.  The ``gate`` inputs are fixed, so its runs differ
only in timing.

This module imports nothing heavy, so that set-up time is measured from
the first import of numpy and iongate.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

WORKLOADS = ("gate", "slerb")

CALIBRATION_GATE = {
    "delta_max_hz": -400e3, "delta_min_hz": -21.7e3, "omega_hz": 6e3,
    "tau_g": 5e-6, "tau_d": 100e-6, "t_c": 15.8e-6, "j": 3,
    "calibrate": "omega",
}
MATCHED_GATE = {
    "delta_max_hz": -400e3, "delta_min_hz": -14161.0, "omega_hz": 5e3,
    "tau_g": 5e-6, "tau_d": 95e-6, "t_c": 0, "j": 4,
    "calibrate": "omega",
}
FILTER_GRID = {"nbars": "0,10", "walsh_orders": "1,3", "points": 400,
               "omega_min_hz": 20, "omega_max_hz": 1.6e6}
# The scenario's default of 1200 points is too coarse for the 400 kHz
# detuning (at least 1808 are needed over 225.8 us) and exits with a
# GridError, so the workload sets the grid explicitly.
TRAJECTORY_POINTS = 2401
WALSH_COMPARE_LOOPS = "1,2,4,8,16"
CALIBRATION_SCAN = {"start_hz": -25e3, "stop_hz": -19e3, "points": 7, "nbar": 3.5}
SWEEP_NBARS = "0,3.5,10"
SMOOTH_OFFSETS = {"start_hz": -1e3, "stop_hz": 1e3, "points": 5, "nbar": 3.5}
WALSH_OFFSET_GATE = {"loops": 2, "omega_hz": 5e3}
WALSH_OFFSETS = {"start_hz": -2e3, "stop_hz": 2e3, "points": 201, "nbar": 3.5}
PARAMETRIC = {"lengths": "2,50,150,300,500", "sequences": 50, "shots": 100,
              "model": "parametric", "eps_rb": 1.5e-4, "eps_leak": 8e-5,
              "resamples": 10000}
PARAMETRIC_DATASETS = 4
FULL_GATE = {"loops": 1, "omega_hz": 20e3}
FULL = {"lengths": "1,16,64,128", "sequences": 10, "shots": 100,
        "model": "full", "resamples": 10000}


@dataclass(frozen=True)
class Operation:
    """One scenario run: config file, the seed passed to it, and the
    end-to-end metric whose time it adds to."""

    name: str
    config: str
    metric: str
    check: str
    seed: int | None = None
    source: str | None = None  # the op whose fit a refit must reproduce


def _section(name: str, entries: dict) -> str:
    return f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in entries.items())


def _scenario(name: str, output: str) -> str:
    return _section("scenario", {"name": name, "output": output})


def dataset_seed(seed: int, index: int) -> int:
    """The --seed of the index-th dataset, derived from the benchmark seed."""
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def configs(workload: str, out_dir: str) -> dict[str, str]:
    """INI text of every config the workload runs, by file name."""
    if workload == "gate":
        return {
            "filterfn.ini": _scenario("filterfn", "filterfn.csv")
            + _section("smooth", MATCHED_GATE) + _section("filterfn", FILTER_GRID),
            "trajectory.ini": _scenario("trajectory", "trajectory.csv")
            + _section("schedule", {"type": "smooth"})
            + _section("smooth", CALIBRATION_GATE)
            + _section("trajectory", {"branch": 2, "points": TRAJECTORY_POINTS}),
            "walsh_compare.ini": _scenario("walsh-compare", "walsh_compare.csv")
            + _section("walsh-compare", {"loops": WALSH_COMPARE_LOOPS, "omega_hz": 5e3}),
            "calibration_scan.ini": _scenario("calibration-scan", "calibration_scan.csv")
            + _section("smooth", CALIBRATION_GATE) + _section("scan", CALIBRATION_SCAN),
            "thermal_sweep.ini": _scenario("thermal-sweep", "thermal_sweep.csv")
            + _section("schedule", {"type": "smooth"})
            + _section("smooth", CALIBRATION_GATE)
            + _section("sweep", {"nbars": SWEEP_NBARS}),
            "offset_scan_smooth.ini": _scenario("offset-scan", "offset_scan_smooth.csv")
            + _section("schedule", {"type": "smooth"})
            + _section("smooth", CALIBRATION_GATE) + _section("scan", SMOOTH_OFFSETS),
            "offset_scan_walsh.ini": _scenario("offset-scan", "offset_scan_walsh.csv")
            + _section("schedule", {"type": "walsh"})
            + _section("walsh", WALSH_OFFSET_GATE) + _section("scan", WALSH_OFFSETS),
        }
    if workload == "slerb":
        texts = {}
        for k in range(PARAMETRIC_DATASETS):
            texts[f"parametric_{k}.ini"] = (_scenario("slerb", f"parametric_{k}.csv")
                                            + _section("slerb", PARAMETRIC))
            texts[f"refit_{k}.ini"] = (
                _scenario("slerb", f"refit_{k}.csv")
                + _section("slerb", {"input": f"{out_dir}/parametric_{k}.csv",
                                     "resamples": PARAMETRIC["resamples"]}))
        texts["full.ini"] = (_scenario("slerb", "full.csv")
                             + _section("walsh", FULL_GATE) + _section("slerb", FULL))
        return texts
    raise ValueError(f"unknown workload {workload!r}")


def operations(workload: str, seed: int) -> list[Operation]:
    """The operations of one pass, in the order they run."""
    if workload == "gate":
        return [Operation("filterfn", "filterfn.ini", "filterfn_s", "filterfn"),
                Operation("trajectory", "trajectory.ini", "trajectory_s", "trajectory"),
                Operation("walsh_compare", "walsh_compare.ini", "walsh_compare_s",
                          "walsh_compare"),
                Operation("calibration_scan", "calibration_scan.ini",
                          "calibration_scan_s", "populations"),
                Operation("thermal_sweep", "thermal_sweep.ini", "thermal_sweep_s",
                          "populations"),
                Operation("offset_scan_smooth", "offset_scan_smooth.ini",
                          "offset_scan_smooth_s", "populations"),
                Operation("offset_scan_walsh", "offset_scan_walsh.ini",
                          "offset_scan_walsh_s", "populations")]
    if workload == "slerb":
        ops = [Operation(f"parametric_{k}", f"parametric_{k}.ini", "slerb_parametric_s",
                         "slerb", seed=dataset_seed(seed, k))
               for k in range(PARAMETRIC_DATASETS)]
        ops.append(Operation("full", "full.ini", "slerb_full_s", "slerb_full",
                             seed=dataset_seed(seed, PARAMETRIC_DATASETS)))
        # the refit passes the simulating run's seed, so that its report
        # differs from the simulating run's only in the model line
        ops += [Operation(f"refit_{k}", f"refit_{k}.ini", "slerb_refit_s", "slerb_refit",
                          seed=dataset_seed(seed, k), source=f"parametric_{k}")
                for k in range(PARAMETRIC_DATASETS)]
        return ops
    raise ValueError(f"unknown workload {workload!r}")
