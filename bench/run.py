"""iongate benchmark: time the CLI scenarios end to end and per layer.

    python3 bench/run.py --workload gate --seed 1 --seconds 55 --trace 0

Each operation is one in-process ``iongate.cli.run_scenario`` call on a
config the benchmark writes.  A run repeats the workload's operations in
passes until ``--seconds`` would be exceeded, with at least two passes, so
that every output is also checked against a rerun with the same seed.
With ``--trace 0`` it reports the end-to-end metrics (medians over
passes); with ``--trace 1`` it runs one untraced and one traced pass and
reports the per-layer metrics.  The last line of standard output is the
JSON result; a manifest with every raw value goes to ``bench/out``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import prepare
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(BENCH, "out")
SETUP_SAMPLES = 5
MIN_PASSES = 2
PROBE_TIMEOUT_S = 120


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def probe_setup(workload: str, directory: str) -> float:
    """Set-up time in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "prepare.py"), "--workload", workload,
         "--dir", directory],
        cwd=prepare.ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise prepare.SetupError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_pass(index, ops, config_dir, out_dir, refs, tracer=None):
    """Run every operation once; returns per-op records."""
    import checks
    from iongate import cli  # looked up per call, so the tracer's wrapper is seen

    records, rates = [], {}
    if tracer is not None:
        tracer.install()
    try:
        for op in ops:
            if tracer is not None:
                tracer.run_id = f"{index}:{op.name}"
            record = {"name": op.name, "metric": op.metric, "problems": []}
            start = perf_counter()
            try:
                paths = cli.run_scenario(os.path.join(config_dir, op.config), out_dir,
                                         seed=op.seed, quiet=True)
                record["seconds"] = perf_counter() - start
                outcome = checks.check(op, paths, refs, rates)
                record["problems"] += outcome.problems
                record["prob"], record["value"] = outcome.prob, outcome.value
                rates[op.name] = outcome.rates
                record["files"] = {os.path.basename(p): checks.without_created(p)
                                   for p in paths}
            except Exception:
                record.setdefault("seconds", perf_counter() - start)
                traceback.print_exc()
                record["problems"].append(traceback.format_exc().strip().splitlines()[-1])
            records.append(record)
    finally:
        if tracer is not None:
            tracer.remove()
    return records


def compare_reruns(passes) -> None:
    """Every pass must write the bytes the first pass wrote, bar timestamps."""
    first = {r["name"]: r.get("files") for r in passes[0]}
    for records in passes[1:]:
        for record in records:
            expected = first.get(record["name"])
            if expected is not None and record.get("files") not in (None, expected):
                record["problems"].append("rerun output differs from the first pass")


def pass_times(records) -> dict[str, float]:
    times = {"wall_s": sum(r["seconds"] for r in records)}
    for r in records:
        times[r["metric"]] = times.get(r["metric"], 0.0) + r["seconds"]
    return times


def accuracy(passes, kind: str, floor: float) -> float:
    """Largest deviation, floored at each reference's precision."""
    worst = floor
    for records in passes:
        for r in records:
            for deviation, precision in r.get(kind, ()):
                worst = max(worst, deviation, precision)
    return worst


def system_facts() -> dict:
    import ctypes

    import numpy
    import scipy

    facts = {
        "git_sha": None,
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name"),
        "blas_threads": {},
    }
    try:
        facts["git_sha"] = subprocess.run(
            ["git", "--git-dir", os.path.join(prepare.ROOT, ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    with open("/proc/self/maps") as maps:
        libraries = sorted({line.split()[-1] for line in maps if "openblas" in line})
    for path in libraries:
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads"):
            if hasattr(library, symbol):
                facts["blas_threads"][os.path.basename(path)] = getattr(library, symbol)()
                break
    return facts


def main(argv=None) -> int:
    args = parse_args(argv)
    work = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    config_dir, out_dir = os.path.join(work, "configs"), os.path.join(work, "out")
    try:
        setup = [prepare.prepare(args.workload, config_dir, out_dir)]
        for k in range(1, SETUP_SAMPLES):
            probe = os.path.join(work, f"probe{k}")
            setup.append(probe_setup(args.workload, probe))
            shutil.rmtree(probe)
    except prepare.SetupError as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2

    import tracing

    with open(os.path.join(prepare.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    with open(os.path.join(BENCH, "references.json")) as handle:
        refs = json.load(handle)
    ops = workloads.operations(args.workload, args.seed)
    tracer = tracing.Tracer() if args.trace else None

    passes = []
    started = perf_counter()
    while True:
        traced = tracer is not None and len(passes) == 1
        passes.append(run_pass(len(passes), ops, config_dir, out_dir, refs,
                               tracer if traced else None))
        if traced:
            break
        elapsed = perf_counter() - started
        if len(passes) >= MIN_PASSES and elapsed * (1 + 1 / len(passes)) > args.seconds:
            break
    compare_reruns(passes)

    times = [pass_times(records) for records in passes]
    floor = refs["exact"]["precision"]
    computed = {name: statistics.median(t[name] for t in times)
                for name in times[0]}
    computed.update({
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "prob_abs_err": accuracy(passes, "prob", floor),
        "value_rel_err": accuracy(passes, "value", floor),
    })
    if tracer is not None:
        computed.update(times[1])  # the traced pass's scenario times
        computed.update(tracing.layer_metrics(tracer))
        computed["trace.overhead_s"] = times[1]["wall_s"] - times[0]["wall_s"]
        tracer.write(os.path.join(OUT, f"{args.workload}-seed{args.seed}-spans.jsonl"))

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for entry in wanted:
        if entry["name"] not in computed:
            if args.trace:  # a scenario this workload does not run
                computed[entry["name"]] = 0.0
            else:
                print(f"metric {entry['name']} was not measured", file=sys.stderr)
                return 2
        metrics[entry["name"]] = {"value": computed[entry["name"]], "unit": entry["unit"]}

    every_op = [r for records in passes for r in records]
    failed = [r for r in every_op if r["problems"]]
    for r in failed:
        print(f"FAILED {r['name']}: {'; '.join(r['problems'])}", file=sys.stderr)
    units = {e["name"]: e["unit"] for e in spec["end_to_end"] + spec["per_layer"]}
    for name, value in computed.items():
        print(f"{name:48s} {value:<14.6g} {units.get(name, 's')}")
    manifest = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "system": system_facts(), "setup_s_samples": setup,
        "passes": [[{k: v for k, v in r.items() if k != "files"} for r in records]
                   for records in passes],
        "pass_times": times, "metrics": computed,
    }
    with open(f"{work}.json", "w") as handle:
        json.dump(manifest, handle, indent=1)
    shutil.rmtree(work)
    print(json.dumps({"correct": not failed, "attempted": len(every_op),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
