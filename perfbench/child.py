"""Run one ``repro`` CLI command as the benchmark's program process.

Usage: ``python3 perfbench/child.py <repro argv...>``

The command runs through ``repro.__main__.main`` exactly as
``python -m repro`` would.  ``probe <argv>`` parses a sweep command and
expands its design points without evaluating them: the set-up cost of a
sweep process.  With ``BENCH_TRACE_SINK`` set, the layer spans of
:mod:`bench.layers` are recorded into that file.  At exit the process
writes its peak RSS (``VmHWM``, kB) to ``BENCH_RSS_FILE``: unlike
``ru_maxrss`` it does not count the parent's memory at the fork.
"""

from __future__ import annotations

import atexit
import os
import sys
from pathlib import Path


def _write_peak_rss(path: str) -> None:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                Path(path).write_text(line.split()[1])


def main() -> int:
    atexit.register(_write_peak_rss, os.environ["BENCH_RSS_FILE"])
    argv = sys.argv[1:]
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    import repro.__main__ as cli

    sink = os.environ.get("BENCH_TRACE_SINK")
    if sink:
        from bench import layers

        layers.install(sink)

    if argv[0] == "probe":
        return _probe(cli, argv[1:])
    return cli.main(argv)


def _probe(cli, argv) -> int:
    """Everything a sweep process does before its first evaluation."""
    from repro.engine import resolve_backend
    from repro.sweep import ResultCache, SweepSpec

    args = cli.build_parser().parse_args(argv)
    cli._apply_sim_engine(args)
    spec = SweepSpec(
        capacities_mib=args.capacities,
        flows=args.flows,
        bandwidths=args.bandwidths,
        matrix_dims=args.matrix_dims,
        core_counts=args.core_counts,
        kernels=args.kernels,
    )
    jobs = list(spec.jobs())
    ResultCache(args.cache_dir).refresh()
    resolve_backend(args.backend, workers=args.workers)
    return 0 if jobs else 1


if __name__ == "__main__":
    sys.exit(main())
