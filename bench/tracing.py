"""Spans around the public functions of iongate's six layers.

The tracer replaces a function at every module attribute bound to it (a
function imported with ``from .x import f`` is bound in several modules;
one imported inside a function body is looked up in its home module at
call time, which is patched too).  Each call records a span (name, start,
end, parent, run id) in memory, plus counters taken from its arguments or
result; :meth:`Tracer.write` saves them once, at the end of the run.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys

from time import perf_counter

LAYERS = ("cli", "schedule", "semiclassical", "filterfn", "quantum", "slerb")


def _bound(fn, args, kwargs, name):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _bytes_written(fn, args, kwargs, result):
    return {"bytes_written": sum(os.path.getsize(p) for p in result)}


def _samples(fn, args, kwargs, result):
    return {"samples": int(result.t.size)}


def _omega_points(fn, args, kwargs, result):
    return {"omega_points": int(result.omega.size)}


def _fock_dim(fn, args, kwargs, result):
    return {"fock_dim": int(result.dim)}


def _compiled_gates(fn, args, kwargs, result):
    return {"compiled_gates": int(_bound(fn, args, kwargs, "seq").total_gates)}


def _resamples(fn, args, kwargs, result):
    return {"resamples": int(_bound(fn, args, kwargs, "resamples"))}


# (module, attribute, counters); "Class.method" wraps a method in place.
# Functions without a metric of their own are wrapped so that their time
# counts to their own layer rather than to the caller's.
TARGETS = (
    ("cli", "run_scenario", _bytes_written),
    ("schedule", "build_smooth_schedule", None),
    ("schedule", "build_walsh_schedule", None),
    ("schedule", "PulseSchedule.with_detuning_offset", None),
    ("semiclassical", "propagate_displacement", _samples),
    ("semiclassical", "gate_angle_exact", None),
    ("semiclassical", "calibrate_omega", None),
    ("semiclassical", "calibrate_delta_min", None),
    ("filterfn", "filter_function_numeric", _omega_points),
    ("filterfn", "filter_function_walsh_analytic", None),
    ("quantum", "gate_propagator", _fock_dim),
    ("quantum", "thermal_average", None),
    ("quantum", "propagate", None),
    ("quantum", "calibration_scan", None),
    ("quantum", "offset_scan", None),
    ("slerb", "generate_sequence", None),
    ("slerb", "simulate_sequence", _compiled_gates),
    ("slerb", "collect_dataset", None),
    ("slerb", "fit_decays", None),
    ("slerb", "bootstrap_ci", _resamples),
)


class Tracer:
    """Records spans while installed; restores every binding on removal."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, run_id, counters]
        self.run_id: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counters):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, perf_counter(), None, stack[-1] if stack else -1,
                      self.run_id, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if counters is not None:
                record[5] = counters(fn, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "iongate" or key.startswith("iongate.")]
        for layer, attr, counters in TARGETS:
            home = sys.modules[f"iongate.{layer}"]
            name = f"{layer}.{attr.rpartition('.')[2]}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original, counters))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name, original, counters)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def remove(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for name, start, end, parent, run_id, counters in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "run_id": run_id,
                                         "counters": counters}) + "\n")

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [end - start for _, start, end, *_ in self.spans]
        for _, start, end, parent, *_ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own


def _per_function(tracer: Tracer) -> dict[str, dict[str, float]]:
    stats: dict[str, dict[str, float]] = {}
    for span, own in zip(tracer.spans, tracer.self_times()):
        name, start, end, parent, _, counters = span
        entry = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += own
        entry["total_s"] += end - start
        for key, value in (counters or {}).items():
            if key == "fock_dim":
                entry["fock_dim_max"] = max(entry.get("fock_dim_max", 0), value)
                entry["fock_dim_sum"] = entry.get("fock_dim_sum", 0) + value
            else:
                entry[key] = entry.get(key, 0) + value
    return stats


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from the spans."""
    stats = _per_function(tracer)

    def get(fn: str, key: str) -> float:
        return stats.get(fn, {}).get(key, 0)

    def group(fns: tuple[str, ...], key: str) -> float:
        return sum(get(fn, key) for fn in fns)

    builders = ("schedule.build_smooth_schedule", "schedule.build_walsh_schedule",
                "schedule.with_detuning_offset")
    calibrators = ("semiclassical.calibrate_omega", "semiclassical.calibrate_delta_min")
    out = {
        "cli.run_scenario.self_s": get("cli.run_scenario", "self_s"),
        "cli.bytes_written": get("cli.run_scenario", "bytes_written"),
        "schedule.build.calls": group(builders, "calls"),
        "schedule.build.self_s": group(builders, "self_s"),
        "semiclassical.calibrate.calls": group(calibrators, "calls"),
        "semiclassical.calibrate.self_s": group(calibrators, "self_s"),
        "semiclassical.calibrate.total_s": group(calibrators, "total_s"),
        "quantum.fock_dim_max": get("quantum.gate_propagator", "fock_dim_max"),
        "quantum.fock_dim_sum": get("quantum.gate_propagator", "fock_dim_sum"),
        "slerb.compiled_gates": get("slerb.simulate_sequence", "compiled_gates"),
        "slerb.bootstrap_resamples": get("slerb.bootstrap_ci", "resamples"),
    }
    for fn, extra in (("semiclassical.propagate_displacement", "samples"),
                      ("filterfn.filter_function_numeric", "omega_points"),
                      ("filterfn.filter_function_walsh_analytic", None),
                      ("quantum.gate_propagator", None),
                      ("quantum.thermal_average", None),
                      ("quantum.propagate", None),
                      ("slerb.generate_sequence", None),
                      ("slerb.simulate_sequence", None),
                      ("slerb.fit_decays", None),
                      ("slerb.bootstrap_ci", None)):
        out[f"{fn}.calls"] = get(fn, "calls")
        out[f"{fn}.self_s"] = get(fn, "self_s")
        if extra:
            out[f"{fn}.{extra}"] = get(fn, extra)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(entry["self_s"] for fn, entry in stats.items()
                                     if fn.split(".")[0] == layer)
    return out
