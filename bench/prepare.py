"""Benchmark set-up: import iongate from the checkout, build the Clifford
table and write the workload's configs.

``run.py`` calls :func:`prepare` once in its own process and runs this
file as a script a few more times to sample set-up time in fresh
interpreters:

    python3 bench/prepare.py --workload gate --dir bench/out/probe
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark."""


def import_iongate():
    """Import iongate from the checkout's ``src``, never from elsewhere."""
    package = os.path.join(SRC, "iongate")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise SetupError(f"no iongate package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import iongate

    if os.path.dirname(os.path.abspath(iongate.__file__)) != package:
        raise SetupError(f"iongate imported from {iongate.__file__}, not from {package}")
    return iongate


def prepare(workload: str, config_dir: str, out_dir: str) -> float:
    """Do the set-up and return its duration in seconds."""
    start = time.perf_counter()
    import numpy  # noqa: F401  (its import is part of what users pay)

    import_iongate()
    from iongate.slerb import clifford_table

    clifford_table()
    os.makedirs(config_dir, exist_ok=True)
    for name, text in workloads.configs(workload, out_dir).items():
        with open(os.path.join(config_dir, name), "w") as handle:
            handle.write(text)
    return time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args()
    try:
        elapsed = prepare(args.workload, args.dir, os.path.join(args.dir, "out"))
    except SetupError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"setup_s": elapsed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
