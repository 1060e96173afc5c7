"""Generate the converged references behind the accuracy metrics.

    python3 bench/references.py            # writes bench/references.json

The references come from routes independent of the timed scenarios:

- populations, fidelities and the calibration crossing: ``thermal_average``
  with ``props=branch_factorized_blocks(...)`` (displacement operators from
  the branch endpoints, no Fock-space stepping) and a Fock cutoff above the
  automatic one;
- filter values: ``filter_function_numeric`` with a tight-tolerance
  ``propagate_displacement`` on a finer time grid;
- gate angles: the exact -pi/2; gates per Clifford: the exact 13/6;
  full-model survival of the exact Walsh gate: 1.

Every computed set is evaluated at two refinement levels.  The finer one is
stored, and the largest difference between the two is stored as its
precision, which floors the accuracy metrics so that round-off does not
register as a regression.  Takes a few minutes on two cores.
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np

import workloads
from prepare import ROOT, import_iongate

import_iongate()
from iongate.quantum import (FockConfig, ThermalEnsemble,  # noqa: E402
                             branch_factorized_blocks, thermal_average)
from iongate.schedule import (SmoothGateParams, WalshGateParams,  # noqa: E402
                              build_smooth_schedule, build_walsh_schedule)
from iongate.semiclassical import (calibrate_delta_min, calibrate_omega,  # noqa: E402
                                   propagate_displacement)
from iongate.filterfn import filter_function_numeric  # noqa: E402

TWO_PI = 2.0 * math.pi
EPS = float(np.finfo(float).eps)
OUTPUT = os.path.join(ROOT, "bench", "references.json")
COMMAND = "python3 bench/references.py"

# (ODE rtol, ODE atol, extra Fock levels above the automatic cutoff,
#  time-grid refinement of the filter-function quadrature)
LEVELS = ((1e-12, 1e-15, 8, 2), (1e-13, 1e-16, 16, 4))

# filter values are compared at these indices of the 400-point grid
# (20 Hz to about 55 kHz, where the filter is far above round-off)
FILTER_INDICES = (0, 40, 80, 120, 160, 200, 240, 280)


def smooth_params(gate: dict, rtol: float, atol: float) -> SmoothGateParams:
    base = SmoothGateParams(
        delta_max=TWO_PI * gate["delta_max_hz"], delta_min=TWO_PI * gate["delta_min_hz"],
        omega_g=TWO_PI * gate["omega_hz"], tau_g=gate["tau_g"], tau_d=gate["tau_d"],
        t_c=gate["t_c"], j=gate["j"])
    solve = calibrate_omega if gate["calibrate"] == "omega" else calibrate_delta_min
    return solve(base, use="exact", rtol=rtol, atol=atol)


def max_displacement(schedule, rtol: float) -> float:
    traj = propagate_displacement(schedule, branch_eigenvalue=2.0, rtol=rtol)
    return float(np.max(np.abs(traj.gamma)))


def outcomes(schedules, nbar: float, disp: float, level) -> np.ndarray:
    """(p_uu, p_dd, p_odd, fidelity) rows from the factorized propagators."""
    rtol, _, extra, _ = level
    auto = FockConfig.auto(nbar=nbar, max_displacement=disp)
    fock = FockConfig(n_max=auto.n_max + extra)
    ensemble = ThermalEnsemble.build(nbar)
    rows = []
    for schedule in schedules:
        props = branch_factorized_blocks(schedule, fock, rtol=rtol)
        out = thermal_average(schedule, ensemble, fock=fock, props=props)
        rows.append((out.p_uu, out.p_dd, out.p_odd, out.fidelity))
    return np.array(rows)


def grid(scan: dict) -> np.ndarray:
    return TWO_PI * np.linspace(scan["start_hz"], scan["stop_hz"], scan["points"])


def crossing(delta_min: np.ndarray, pops: np.ndarray) -> float:
    """Linear interpolation of P(uu) = P(dd), as calibration-scan reports it."""
    diff = pops[:, 0] - pops[:, 1]
    k = int(np.nonzero(np.sign(diff[1:]) * np.sign(diff[:-1]) < 0)[0][0])
    return float(delta_min[k] - diff[k] * (delta_min[k + 1] - delta_min[k])
                 / (diff[k + 1] - diff[k]))


def thermal_level(level) -> dict:
    rtol, atol, _, _ = level
    cal = smooth_params(workloads.CALIBRATION_GATE, rtol, atol)
    cal_schedule = build_smooth_schedule(cal)
    disp = max_displacement(cal_schedule, rtol)

    scan = workloads.CALIBRATION_SCAN
    dm = grid(scan)
    deepest = build_smooth_schedule(cal.with_delta_min(dm[np.argmin(np.abs(dm))]))
    cal_pops = outcomes([build_smooth_schedule(cal.with_delta_min(x)) for x in dm],
                        scan["nbar"], max_displacement(deepest, rtol), level)

    sweep = np.concatenate([outcomes([cal_schedule], float(nbar), disp, level)
                            for nbar in workloads.SWEEP_NBARS.split(",")])

    smooth = workloads.SMOOTH_OFFSETS
    smooth_pops = outcomes([cal_schedule.with_detuning_offset(off) for off in grid(smooth)],
                           smooth["nbar"], disp + 0.5, level)

    walsh_gate = WalshGateParams.calibrated(workloads.WALSH_OFFSET_GATE["loops"],
                                            TWO_PI * workloads.WALSH_OFFSET_GATE["omega_hz"])
    walsh_schedule = build_walsh_schedule(walsh_gate)
    walsh = workloads.WALSH_OFFSETS
    walsh_pops = outcomes([walsh_schedule.with_detuning_offset(off) for off in grid(walsh)],
                          walsh["nbar"], max_displacement(walsh_schedule, rtol) + 0.5, level)
    return {
        "calibration_scan": cal_pops,
        "thermal_sweep": sweep,
        "offset_scan_smooth": smooth_pops,
        "offset_scan_walsh": walsh_pops,
        "crossing_hz": crossing(dm, cal_pops) / TWO_PI,
    }


def design_level(level) -> dict:
    rtol, atol, _, refine = level
    schedule = build_smooth_schedule(smooth_params(workloads.MATCHED_GATE, rtol, atol))
    spec = workloads.FILTER_GRID
    omega = np.geomspace(TWO_PI * spec["omega_min_hz"], TWO_PI * spec["omega_max_hz"],
                         spec["points"])
    # one extra, higher frequency refines the quadrature's time grid
    extended = np.append(omega, refine * omega[-1])
    picks = list(FILTER_INDICES)
    out = {"omega_rad_s": omega[picks]}
    for nbar in spec["nbars"].split(","):
        ff = filter_function_numeric(schedule, nbar=float(nbar), omega=extended,
                                     rtol=rtol, atol=atol)
        out[f"S_smooth_nbar{float(nbar):g}"] = ff.total[picks]
    return out


def precision_abs(coarse: np.ndarray, fine: np.ndarray) -> float:
    return max(float(np.max(np.abs(coarse - fine))), EPS)


def precision_rel(coarse, fine) -> float:
    coarse, fine = np.asarray(coarse), np.asarray(fine)
    return max(float(np.max(np.abs(coarse - fine) / np.abs(fine))), EPS)


def main() -> int:
    print("design references ...", file=sys.stderr, flush=True)
    d0, d1 = (design_level(level) for level in LEVELS)
    filter_cols = [k for k in d1 if k.startswith("S_")]
    design = {
        "filterfn": {
            "columns": {k: d1[k].tolist() for k in filter_cols},
            "indices": list(FILTER_INDICES),
            "omega_rad_s": d1["omega_rad_s"].tolist(),
            "precision_rel": max(precision_rel(d0[k], d1[k]) for k in filter_cols),
        },
    }
    print("thermal references ...", file=sys.stderr, flush=True)
    t0, t1 = (thermal_level(level) for level in LEVELS)
    columns = ("p_uu", "p_dd", "p_odd", "fidelity")
    thermal = {}
    for op in ("calibration_scan", "thermal_sweep", "offset_scan_smooth",
               "offset_scan_walsh"):
        thermal[op] = {
            "columns": {c: t1[op][:, i].tolist() for i, c in enumerate(columns)},
            "precision_abs": precision_abs(t0[op], t1[op]),
        }
    thermal["calibration_scan"]["crossing_hz"] = t1["crossing_hz"]
    thermal["calibration_scan"]["crossing_precision_rel"] = precision_rel(
        t0["crossing_hz"], t1["crossing_hz"])

    exact = {
        "gate_angle_rad": -math.pi / 2.0,
        "gates_per_clifford": 13.0 / 6.0,
        "full_model_survival": 1.0,
        "precision": EPS,
    }
    import iongate
    import scipy

    payload = {
        "command": COMMAND,
        "levels": [dict(zip(("rtol", "atol", "fock_extra", "time_refine"), lv))
                   for lv in LEVELS],
        "versions": {"iongate": iongate.__version__, "numpy": np.__version__,
                     "scipy": scipy.__version__, "python": sys.version.split()[0]},
        "exact": exact,
        "design": design,
        "thermal": thermal,
    }
    with open(OUTPUT, "w") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")
    print(f"wrote {OUTPUT}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
