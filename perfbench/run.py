"""End-to-end benchmark of the MemPool-3D reproduction.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sim-sweep --seed 1 --seconds 10 --trace 0

Runs one workload, checks the program's outputs against the
benchmark's own oracles, and prints one JSON object as the last line of
standard output::

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run.  The exit code is 0 unless
a correctness check fails (1) or the checkout has no program to run (2).
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import signal
import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
# Bytecode of the benchmark and the program stays in the output directory.
sys.pycache_prefix = str(_HERE / "_out" / "pycache")
sys.path.insert(0, str(_HERE))

from bench import common  # noqa: E402

#: Workload name -> module with ``run(seed, seconds, trace, workdir)``.
WORKLOADS = {
    "sim-sweep": "bench.sim_sweep",
    "tier0-sweep": "bench.tier0_sweep",
    "service-mixed": "bench.service_mixed",
}

#: Units of every metric either mode can print.
UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "points_per_s": "points/s",
    "warm_points_per_s": "points/s",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("minstr_per_s"):
        return "Minstr/s"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_per_point"):
        return "1/point"
    for suffix, unit in (("_pct", "%"), ("_us", "us"), ("_ms", "ms"),
                         ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated benchmark still unwinds, stopping its program processes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {common.SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(common.SRC))
    module = importlib.import_module(WORKLOADS[args.workload])
    workdir = common.make_workdir(args.workload, args.seed)
    correct = True
    try:
        outcome = module.run(args.seed, args.seconds, bool(args.trace),
                             workdir)
    except common.CheckFailed as exc:
        print(f"perfbench: correctness check failed: {exc}", file=sys.stderr)
        correct = False
        outcome = {"metrics": {}, "attempted": 1, "failed": 0}
    finally:
        if args.trace:
            keep = common.OUT / f"trace-{args.workload}-seed{args.seed}"
            common.remove_tree(keep)
            keep.mkdir(parents=True)
            for path in workdir.glob("*.spans.jsonl"):
                path.rename(keep / path.name)
        common.remove_tree(workdir)

    result = {
        "correct": correct,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in outcome["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
