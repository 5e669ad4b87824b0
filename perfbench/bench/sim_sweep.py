"""``sim-sweep``: cold serial ``repro sweep`` over the simulated kernels.

Two commands per pass, one per kernel shape (1-D element counts and 2-D
image edges cannot share one ``--matrix-dims`` cross product), against
one cache directory, so both flows of an architecture share the cycle
memo and each architecture is implemented once.
"""

from __future__ import annotations

import numpy as np

from . import layers, oracles, sweeps
from .common import Children, check, median

KERNELS_1D = ("dotp", "axpy")
KERNELS_2D = ("conv2d", "matvec", "stencil5")
#: Element counts; each seed moves them by a few elements.
BASE_1D = (1024, 2560, 4096)
#: Image edges, fixed: the simulation cost grows with their square.
DIMS_2D = (16, 32, 48)
CORES = (16, 256)
CAPACITIES = (1, 4)
#: Design points checked bit-for-bit against the reference engine.
REFERENCE_SAMPLE = 3
SETUP_REPEATS = 3


def make_commands(rng: np.random.Generator) -> tuple:
    dims_1d = tuple(int(b + rng.integers(-16, 17)) for b in BASE_1D)
    bandwidth = (float(rng.choice([4.0, 8.0, 16.0, 32.0, 64.0])),)
    return (
        sweeps.SweepCommand(KERNELS_1D, dims_1d, CORES, CAPACITIES, bandwidth),
        sweeps.SweepCommand(KERNELS_2D, DIMS_2D, CORES, CAPACITIES, bandwidth),
    )


def check_reference(records: list, rng: np.random.Generator) -> int:
    """Cycles of a seeded sample equal the reference engine's."""
    from repro.api.pipeline import Pipeline
    from repro.sweep.spec import Job

    # Sample among the cheaper cells: the reference engine steps every
    # core every cycle and is several times slower than the fast one.
    small = sorted(
        {(r["job"]["kernel"], r["job"]["matrix_dim"], r["job"]["num_cores"],
          r["job"]["capacity_mib"]): r for r in records
         if r["job"]["kernel"] in KERNELS_1D
         or r["job"]["matrix_dim"] < DIMS_2D[2]}.items()
    )
    picks = rng.choice(len(small), size=REFERENCE_SAMPLE, replace=False)
    reference = Pipeline(engine="reference")
    for index in picks:
        record = small[int(index)][1]
        scenario = Job.from_params(record["job"]).scenario()
        cycles = reference.cycles(scenario)
        check(cycles == record["metrics"]["cycles"],
              f"reference engine: {cycles} cycles != fast "
              f"{record['metrics']['cycles']} for {record['job']}")
    return REFERENCE_SAMPLE


def run(seed: int, seconds: float, trace: bool, workdir) -> dict:
    rng = np.random.default_rng(seed)
    commands = make_commands(rng)
    children = Children()
    try:
        probe = commands[0].argv(workdir / "probe-cache", None)
        setups = [
            children.run(["probe", *probe], workdir, name=f"probe{i}").cpu_s
            for i in range(SETUP_REPEATS)
        ]
        rounds = sweeps.run_rounds(children, commands, seconds, workdir,
                                   trace)
    finally:
        children.close()
    sweeps.check_rounds_agree(rounds)
    checks = check_reference(rounds[0].cold.records, rng)
    checks += oracles.check_kernels(rng)
    attempted = sum(r.cold.points + r.warm.points for r in rounds) + checks
    if trace:
        traced = rounds[1]
        metrics = layers.layer_metrics(
            layers.read_spans(workdir.glob("*.spans.jsonl")),
            traced.cold.points + traced.warm.points,
            sweeps.trace_extra(rounds),
        )
        layers.check_counts(metrics, traced.cold.points, traced.warm.points)
    else:
        metrics = sweeps.end_to_end(rounds, median(setups))
    return {"metrics": metrics, "attempted": attempted, "failed": 0}
