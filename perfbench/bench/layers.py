"""Per-layer spans for the traced run, and their analysis.

:func:`install` runs inside a program process.  It arms the program's
own tracer (``engine.*``, ``stage.*`` and ``service.*`` spans), keeps
every span record in memory instead of one file write per span, and
wraps the public functions of each layer in a span named
``<layer>.<operation>``.  The records are written to the sink file once,
when the process exits.

:func:`layer_metrics` turns the records of one traced run into the
per-layer metrics.  Totals suffixed ``_s`` are inclusive wall time of
that operation; per-call means (``_us``/``_ms``) are self time (the
span minus the part its child spans cover); ``<layer>.self_s`` is the
layer's summed self time.
"""

from __future__ import annotations

import atexit
import functools
import json
import sys
from collections import defaultdict
from pathlib import Path

from .common import check

#: Layers in the order the per-layer metrics list them.
LAYERS = ("api", "sweep", "core", "engine", "physical", "arch", "kernels",
          "simulator", "analytic", "service")

#: Program span prefixes that belong to another layer's name.
_PROGRAM_LAYER = {"stage": "api"}

_SIM_KERNELS = ("dotp", "axpy", "conv2d", "matvec", "stencil5")


# ----------------------------------------------------------------------
# In the program process
# ----------------------------------------------------------------------
def _wrap(fn, name, annotate=None):
    from repro.obs import trace

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with trace.span(name) as span:
            out = fn(*args, **kwargs)
            if annotate is not None:
                annotate(span, out)
            return out

    return wrapper


def _patch_function(module, attr, name, annotate=None):
    """Wrap ``module.attr`` and every ``from module import attr`` alias."""
    original = getattr(module, attr)
    wrapped = _wrap(original, name, annotate)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("repro"):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def _patch_method(cls, attr, name, annotate=None):
    raw = cls.__dict__[attr]
    if isinstance(raw, staticmethod):
        setattr(cls, attr, staticmethod(_wrap(raw.__func__, name, annotate)))
    else:
        setattr(cls, attr, _wrap(raw, name, annotate))


def _wrap_prepare(fn):
    """``prepare_*`` returns ``(cluster, finish)``; span both halves."""
    from repro.obs import trace

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with trace.span("kernels.prepare"):
            cluster, finish = fn(*args, **kwargs)
        return cluster, _wrap(finish, "kernels.verify")

    return wrapper


def install(sink: str) -> None:
    """Arm tracing into memory and wrap each layer's public functions."""
    from importlib import import_module

    from repro.api.registry import FLOWS, WORKLOADS
    from repro.api.scenario import Scenario
    from repro.arch.cluster import MemPoolCluster
    from repro.engine.cache import StageCache, TieredCache
    from repro.obs import trace
    from repro.sweep.spec import Job, SweepSpec
    from repro.sweep.store import ResultStore

    # Modules by path: some packages re-export a function under the
    # name of its submodule.
    calibrate = import_module("repro.analytic.calibrate")
    tier = import_module("repro.analytic.tier")
    explorer = import_module("repro.core.explorer")
    workloads = import_module("repro.kernels.workloads")
    sim_engine = import_module("repro.simulator.engine")
    report = import_module("repro.sweep.report")

    spans: list = []
    trace._write = spans.append  # one list append per span, no file I/O
    trace.enable(sink)

    def dump() -> None:
        with open(sink, "w", encoding="utf-8") as fh:
            for record in spans:
                fh.write(json.dumps(record) + "\n")

    atexit.register(dump)

    # api: scenario/job construction and content addresses.
    _patch_method(Scenario, "__post_init__", "api.scenario")
    _patch_method(Job, "__post_init__", "api.scenario")
    _patch_method(Scenario, "_digest", "api.key")

    # sweep: expansion (materialized, as the executor lists it anyway),
    # the summary, and the record store.
    expand = SweepSpec.jobs

    def jobs(self):
        with trace.span("sweep.expand"):
            items = list(expand(self))
        return iter(items)

    SweepSpec.jobs = jobs
    _patch_function(report, "summarize", "sweep.summary")
    _patch_method(ResultStore, "append", "sweep.store_append")

    # core
    _patch_function(explorer, "pareto_front", "core.pareto")

    # engine: the two-tier result cache and the stage-memo journal.
    _patch_method(TieredCache, "get", "engine.lookup",
                  lambda span, out: span.set(hit=out is not None))
    _patch_method(TieredCache, "put", "engine.put")
    _patch_method(TieredCache, "refresh", "engine.refresh")
    _patch_method(StageCache, "refresh", "engine.refresh")

    # physical: every registered flow's implement().
    FLOWS.get("2D")  # seeds the registry
    for name in list(FLOWS._items):
        FLOWS._items[name] = _wrap(FLOWS._items[name], "physical.implement")

    # arch
    _patch_method(MemPoolCluster, "__init__", "arch.cluster_build")
    _patch_method(MemPoolCluster, "write_words", "arch.spm_write")
    _patch_method(MemPoolCluster, "read_words", "arch.spm_read")
    _patch_method(MemPoolCluster, "load_program", "arch.load_program")

    # kernels: prepare/verify of the simulated kernels, the matmul model.
    for kernel in _SIM_KERNELS:
        attr = f"prepare_{kernel}"
        setattr(workloads, attr, _wrap_prepare(getattr(workloads, attr)))
    WORKLOADS.get("matmul")
    WORKLOADS._items["matmul"] = _wrap(
        WORKLOADS._items["matmul"], "kernels.matmul_model"
    )

    # simulator
    _patch_function(
        sim_engine, "run_cluster", "simulator.run",
        lambda span, out: span.set(cycles=out.cycles,
                                   instructions=out.instructions),
    )

    # analytic
    _patch_function(tier, "predict_cycles", "analytic.predict",
                    lambda span, out: span.set(fallback=out is None))
    _patch_function(calibrate, "calibrate", "analytic.calibrate")


# ----------------------------------------------------------------------
# In the benchmark process
# ----------------------------------------------------------------------
def read_spans(paths) -> list:
    spans = []
    for path in paths:
        for line in Path(path).read_text().splitlines():
            if line.strip():
                spans.append(json.loads(line))
    return spans


def layer_of(name: str) -> str:
    prefix = name.split(".", 1)[0]
    return _PROGRAM_LAYER.get(prefix, prefix)


def self_times(spans: list) -> dict:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for record in spans:
        if record.get("parent"):
            children[record["parent"]].append(record)
    out = {}
    for record in spans:
        start = record["start_unix"]
        end = start + record["duration_s"]
        intervals = sorted(
            (max(start, c["start_unix"]),
             min(end, c["start_unix"] + c["duration_s"]))
            for c in children.get(record["span"], ())
        )
        covered, cursor = 0.0, start
        for lo, hi in intervals:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[record["span"]] = max(0.0, record["duration_s"] - covered)
    return out


def layer_metrics(spans: list, points: int, extra: dict) -> dict:
    """The per-layer metrics of one traced run.

    Args:
        spans: Every span record of the traced run.
        points: Design points the traced phase requested (the base of
            the per-point ratios).
        extra: Metrics measured outside the spans (client round trips,
            tracing overhead, tier-0 accuracy), merged in last.
    """
    own = self_times(spans)
    count = defaultdict(int)
    total = defaultdict(float)
    self_total = defaultdict(float)
    layer_self = defaultdict(float)
    hits = 0
    fallbacks = 0
    cycles = 0
    instructions = 0
    for record in spans:
        name = record["name"]
        count[name] += 1
        total[name] += record["duration_s"]
        self_total[name] += own[record["span"]]
        layer_self[layer_of(name)] += own[record["span"]]
        attrs = record.get("attrs", {})
        if name == "engine.lookup" and attrs.get("hit"):
            hits += 1
        if name == "analytic.predict" and attrs.get("fallback"):
            fallbacks += 1
        if name == "simulator.run":
            cycles += int(attrs.get("cycles", 0))
            instructions += int(attrs.get("instructions", 0))

    def mean_self(name: str, scale: float) -> float:
        return self_total[name] / count[name] * scale if count[name] else 0.0

    sim_s = total["simulator.run"]
    metrics = {
        "api.scenario_us": mean_self("api.scenario", 1e6),
        "api.builds_per_point": count["api.scenario"] / max(points, 1),
        "api.key_us": mean_self("api.key", 1e6),
        "api.keys_per_point": count["api.key"] / max(points, 1),
        "sweep.expand_s": total["sweep.expand"],
        "sweep.summary_s": total["sweep.summary"],
        "sweep.store_append_us": mean_self("sweep.store_append", 1e6),
        "core.pareto_s": total["core.pareto"],
        "engine.refresh_s": total["engine.refresh"],
        "engine.lookup_us": mean_self("engine.lookup", 1e6),
        "engine.put_us": mean_self("engine.put", 1e6),
        "engine.evaluations": count["engine.job"],
        "engine.cache_hits": hits,
        "physical.implement_ms": mean_self("physical.implement", 1e3),
        "physical.implements": count["physical.implement"],
        "arch.cluster_build_ms": mean_self("arch.cluster_build", 1e3),
        "arch.spm_write_ms": mean_self("arch.spm_write", 1e3),
        "arch.spm_read_ms": mean_self("arch.spm_read", 1e3),
        "arch.load_program_ms": mean_self("arch.load_program", 1e3),
        "kernels.prepare_ms": mean_self("kernels.prepare", 1e3),
        "kernels.verify_ms": mean_self("kernels.verify", 1e3),
        "kernels.matmul_model_us": mean_self("kernels.matmul_model", 1e6),
        "simulator.run_ms": mean_self("simulator.run", 1e3),
        "simulator.runs": count["simulator.run"],
        "simulator.minstr_per_s": instructions / sim_s / 1e6 if sim_s else 0.0,
        "simulator.cycles": cycles,
        "simulator.instructions": instructions,
        "analytic.predict_us": mean_self("analytic.predict", 1e6),
        "analytic.predictions": count["analytic.predict"] - fallbacks,
        "analytic.fallbacks": fallbacks,
        "analytic.calibrate_s": total["analytic.calibrate"],
        "analytic.calibrations": count["analytic.calibrate"],
        # The whole server-side span of a sync request, children included.
        "service.server_ms": total["service.runs"]
        / max(count["service.runs"], 1) * 1e3,
        "service.requests": count["service.runs"],
        # measured outside the spans; see ``extra``
        "service.http_ms": 0.0,
        "service.p50_ms": 0.0,
        "service.p99_ms": 0.0,
        "service.req_per_s": 0.0,
        "analytic.err_p50_pct": 0.0,
        "trace.overhead_pct": 0.0,
        "trace.round_s": 0.0,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer]
    metrics["trace.spans"] = len(spans)
    metrics.update(extra)
    return metrics


def check_counts(metrics: dict, evaluations: int, hits: int) -> None:
    """The traced engine did exactly the expected work."""
    check(metrics["engine.evaluations"] == evaluations,
          f"traced run evaluated {metrics['engine.evaluations']} points, "
          f"expected {evaluations}")
    check(metrics["engine.cache_hits"] == hits,
          f"traced run had {metrics['engine.cache_hits']} cache hits, "
          f"expected {hits}")
