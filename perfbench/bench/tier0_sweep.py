"""``tier0-sweep``: ``repro sweep --sim-engine analytic`` on fresh caches.

Set-up is the calibration pass that fits the five simulated kernels'
predictors for one arch class (256 cores, 1 MiB).  Each round copies
those calibrations into a fresh cache directory, sweeps cold, then
re-runs the same commands warm in fresh processes.  The problem sizes
are fixed, so the predictions that miss their declared error bound are
the same in every run; only the bandwidths come from the seed.
"""

from __future__ import annotations

import shutil

import numpy as np

from . import layers, sweeps
from .common import Children, check, median

KERNELS_1D = ("dotp", "axpy")
KERNELS_2D = ("conv2d", "matvec", "stencil5")
#: Element counts below (34-256) and inside (640-8000) the 1-D
#: predictors' calibration range of 512-8192.
DIMS_1D = (34, 98, 130, 162, 256, 640, 1200, 2500, 5000, 8000)
#: Image edges inside the simulator's domain (<= 192).
DIMS_2D = (24, 40, 56, 72, 96, 120)
CORES = (256,)
CAPACITIES = (1,)
BANDWIDTHS = 24
SETUP_REPEATS = 3
CALIBRATIONS = "calibrations.jsonl"


def make_commands(rng: np.random.Generator) -> tuple:
    bandwidths = tuple(sorted({round(float(v), 3)
                               for v in rng.uniform(2.0, 256.0, BANDWIDTHS)}))
    check(len(bandwidths) == BANDWIDTHS, "duplicate seeded bandwidths")
    return (
        sweeps.SweepCommand(KERNELS_1D, DIMS_1D, CORES, CAPACITIES,
                            bandwidths, sim_engine="analytic"),
        sweeps.SweepCommand(KERNELS_2D, DIMS_2D, CORES, CAPACITIES,
                            bandwidths, sim_engine="analytic"),
    )


def calibration_command() -> sweeps.SweepCommand:
    """One analytic point per kernel: fits every predictor of the class."""
    return sweeps.SweepCommand(KERNELS_1D + KERNELS_2D, (64,), CORES,
                               CAPACITIES, (16.0,), flows=("2D",),
                               sim_engine="analytic")


def accuracy(records: list) -> tuple:
    """Simulate every distinct cycles point on the fast engine.

    Returns ``(relative errors in %, keys outside the declared bound)``.
    """
    from repro.api.pipeline import Pipeline
    from repro.api.registry import PREDICTORS
    from repro.sweep.spec import Job

    fast = Pipeline(engine="fast")
    simulated: dict = {}
    errors = []
    outside = set()
    for record in records:
        job = record["job"]
        cell = (job["kernel"], job["matrix_dim"], job["num_cores"],
                job["capacity_mib"])
        if cell not in simulated:
            # bandwidth does not enter the simulated kernels' cycles
            simulated[cell] = fast.cycles(Job.from_params(job).scenario())
        truth = simulated[cell]
        error = abs(record["metrics"]["cycles"] - truth) / truth
        errors.append(100.0 * error)
        bound = getattr(PREDICTORS.get(job["kernel"]), "error_bound", 0.05)
        if error > bound:
            outside.add(record["key"])
    return errors, outside


def run(seed: int, seconds: float, trace: bool, workdir) -> dict:
    rng = np.random.default_rng(seed)
    commands = make_commands(rng)
    calibrate = calibration_command()
    children = Children()
    try:
        setups = []
        for i in range(1 if trace else SETUP_REPEATS):
            cache = workdir / f"calibrated-{i}"
            sink = workdir / f"setup{i}.spans.jsonl" if trace else None
            setups.append(children.run(
                calibrate.argv(cache, None), workdir, trace_sink=sink,
                name=f"setup{i}").cpu_s)
        fitted = workdir / "calibrated-0" / CALIBRATIONS
        check(fitted.is_file(), "the calibration pass stored no calibrations")
        size = fitted.stat().st_size

        def prepare(cache) -> None:
            shutil.copy(fitted, cache / CALIBRATIONS)

        rounds = sweeps.run_rounds(children, commands, seconds, workdir,
                                   trace, prepare)
    finally:
        children.close()
    sweeps.check_rounds_agree(rounds)
    for index in range(len(rounds)):
        check((workdir / f"cache-{index}" / CALIBRATIONS).stat().st_size
              == size, f"round {index} re-fitted a calibration")
    errors, outside = accuracy(rounds[0].cold.records)
    attempted = failed = 0
    for rnd in rounds:
        for record in rnd.cold.records + rnd.warm.records:
            attempted += 1
            failed += record["key"] in outside
    if trace:
        traced = rounds[1]
        extra = sweeps.trace_extra(rounds)
        extra["analytic.err_p50_pct"] = median(errors)
        metrics = layers.layer_metrics(
            layers.read_spans(workdir.glob("*.spans.jsonl")),
            traced.cold.points + traced.warm.points, extra,
        )
        layers.check_counts(metrics, traced.cold.points + calibrate.points,
                            traced.warm.points)
    else:
        metrics = sweeps.end_to_end(rounds, median(setups))
    return {"metrics": metrics, "attempted": attempted, "failed": failed}
