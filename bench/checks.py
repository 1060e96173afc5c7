"""Per-operation output checks and deviations from the converged references.

An operation fails when any problem is found.  Deviations are collected as
(deviation, reference precision) pairs, so the accuracy metrics can be
floored at the precision the reference itself has.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

POP_SUM_TOL = 1e-9
CROSSING_HZ = -21.7e3
CROSSING_SHARE = 0.05
ANGLE_TOL = 1e-6
POPULATIONS = ("p_uu", "p_dd", "p_odd", "fidelity")
RATES = ("eps_rb", "eps_leak", "eps_flip", "eps_2q")


@dataclass
class Outcome:
    problems: list[str] = field(default_factory=list)
    prob: list[tuple[float, float]] = field(default_factory=list)
    value: list[tuple[float, float]] = field(default_factory=list)
    rates: dict[str, str] = field(default_factory=dict)


def read_report(path: str) -> dict[str, str]:
    with open(path) as handle:
        return dict(line.rstrip("\n").split(" = ", 1) for line in handle if " = " in line)


def check(op, paths: list[str], refs: dict, rates_by_op: dict) -> Outcome:
    """Check one operation's files; ``rates_by_op`` holds earlier slerb fits."""
    from iongate.cli import read_csv

    out = Outcome()
    csvs = [p for p in paths if p.endswith(".csv")]
    if len(csvs) != 1:
        out.problems.append(f"expected one CSV, got {len(csvs)}")
        return out
    meta, cols = read_csv(csvs[0])
    for name, col in cols.items():
        if col.size == 0 or not np.all(np.isfinite(col)):
            out.problems.append(f"column {name} is empty or not finite")
    exact = refs["exact"]
    eps = exact["precision"]

    if op.check == "filterfn":
        ref = refs["design"]["filterfn"]
        idx = ref["indices"]
        if not np.allclose(cols["omega_rad_s"][idx], ref["omega_rad_s"], rtol=1e-12, atol=0):
            out.problems.append("frequency grid differs from the reference grid")
        for name, values in ref["columns"].items():
            rel = np.abs(cols[name][idx] - values) / np.abs(values)
            out.value.append((float(np.max(rel)), ref["precision_rel"]))
    elif op.check == "trajectory":
        theta = float(cols["theta_rad"][-1])
        if abs(theta - exact["gate_angle_rad"]) > ANGLE_TOL:
            out.problems.append(f"trajectory ends at {theta!r}, not -pi/2")
        out.value.append((abs(theta / exact["gate_angle_rad"] - 1.0), eps))
    elif op.check == "walsh_compare":
        for angle in cols["gate_angle_rad"]:
            out.value.append((abs(angle / exact["gate_angle_rad"] - 1.0), eps))
    elif op.check == "populations":
        ref = refs["thermal"][op.name]
        total = cols["p_uu"] + cols["p_dd"] + cols["p_odd"]
        if np.max(np.abs(total - 1.0)) > POP_SUM_TOL:
            out.problems.append("populations do not sum to 1 within 1e-9")
        for name in POPULATIONS:
            if cols[name].size != len(ref["columns"][name]):
                out.problems.append(f"{name} has {cols[name].size} rows, reference "
                                    f"{len(ref['columns'][name])}")
                continue
            dev = float(np.max(np.abs(cols[name] - ref["columns"][name])))
            out.prob.append((dev, ref["precision_abs"]))
        if "crossing_hz" in ref:
            crossing = float(meta["crossing_hz"])
            if abs(crossing / CROSSING_HZ - 1.0) > CROSSING_SHARE:
                out.problems.append(f"crossing {crossing:.1f} Hz not within 5% of -21.7 kHz")
            out.value.append((abs(crossing / ref["crossing_hz"] - 1.0),
                              ref["crossing_precision_rel"]))
    elif op.check.startswith("slerb"):
        reports = [p for p in paths if p.endswith("_fit.txt")]
        if len(reports) != 1:
            out.problems.append("missing fit report")
            return out
        report = read_report(reports[0])
        out.rates = {k: report[k] for k in RATES}
        if np.any(cols["n_survival"] + cols["n_flip"] + cols["n_leak"] != cols["shots"]):
            out.problems.append("shot counts do not sum to shots")
        per_clifford = float(report["gates_per_clifford"])
        out.value.append((abs(per_clifford / exact["gates_per_clifford"] - 1.0), eps))
        if op.check == "slerb_full":
            survival = cols["n_survival"] / cols["shots"]
            if np.any(cols["n_survival"] != cols["shots"]):
                out.problems.append("a full-model Walsh sequence did not survive")
            out.prob.append((float(np.max(np.abs(survival - exact["full_model_survival"]))),
                             eps))
        if op.check == "slerb_refit":
            source = rates_by_op.get(op.source)
            if source is None:
                out.problems.append(f"no fit of {op.source} to compare with")
            elif source != out.rates:
                out.problems.append(f"refit rates differ from those of {op.source}")
    else:
        raise ValueError(f"unknown check {op.check!r}")
    return out


def without_created(path: str) -> bytes:
    """File bytes minus the timestamp line, for rerun comparisons."""
    with open(path, "rb") as handle:
        lines = handle.read().splitlines(keepends=True)
    return b"".join(l for l in lines
                    if not (l.startswith(b"# created = ") or l.startswith(b"created = ")))
