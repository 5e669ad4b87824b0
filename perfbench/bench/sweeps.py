"""Helpers for workloads that drive ``repro sweep`` commands."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .common import Children, check, median
from .oracles import comparable


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


@dataclass(frozen=True)
class SweepCommand:
    """One ``repro sweep`` cross product."""

    kernels: tuple
    dims: tuple
    cores: tuple
    capacities: tuple
    bandwidths: tuple
    flows: tuple = ("2D", "3D")
    sim_engine: Optional[str] = None

    @property
    def points(self) -> int:
        return (len(self.kernels) * len(self.dims) * len(self.cores)
                * len(self.capacities) * len(self.bandwidths)
                * len(self.flows))

    def argv(self, cache_dir: Path, store: Optional[Path]) -> list:
        argv = [
            "sweep", "--backend", "serial",
            "--kernels", _csv(self.kernels),
            "--matrix-dims", _csv(self.dims),
            "--core-counts", _csv(self.cores),
            "--capacities", _csv(self.capacities),
            "--flows", _csv(self.flows),
            "--bandwidths", _csv(self.bandwidths),
            "--cache-dir", str(cache_dir),
        ]
        if store is not None:
            argv += ["--store", str(store)]
        if self.sim_engine:
            argv += ["--sim-engine", self.sim_engine]
        return argv


@dataclass
class PassResult:
    """One pass: every command of a workload, each in a fresh process.

    Times are CPU seconds of the program processes (user plus system).
    The commands are single-threaded and CPU-bound, so this is their wall
    time without the time a shared host steals from the machine, which
    made wall times of identical runs differ by 15-30 %.
    """

    cpu_s: float = 0.0
    points: int = 0
    peak_rss_mb: float = 0.0
    records: list = field(default_factory=list)


def run_pass(children: Children, commands, cache_dir: Path, workdir: Path,
             tag: str, trace_dir: Optional[Path] = None) -> PassResult:
    """Run ``commands`` one after another against one cache directory."""
    out = PassResult()
    for i, command in enumerate(commands):
        name = f"{tag}-{i}"
        store = workdir / f"{name}.records.jsonl"
        sink = trace_dir / f"{name}.spans.jsonl" if trace_dir else None
        result = children.run(command.argv(cache_dir, store), workdir,
                              trace_sink=sink, name=name)
        out.cpu_s += result.cpu_s
        out.points += command.points
        out.peak_rss_mb = max(out.peak_rss_mb, result.peak_rss_mb)
        records = [json.loads(line) for line in
                   store.read_text().splitlines() if line.strip()]
        check(len(records) == command.points,
              f"{name}: {len(records)} records for {command.points} points")
        out.records += records
    return out


def check_cold(result: PassResult, tag: str) -> None:
    """Every record of a cold pass is a fresh, successful evaluation."""
    for record in result.records:
        check(record["status"] == "ok",
              f"{tag}: {record['job']} failed: {record.get('error')}")
        check(record["source"] == "evaluated",
              f"{tag}: cold pass served {record['key'][:12]} from cache")
        check(record["metrics"]["cycles"] > 0,
              f"{tag}: non-positive cycles for {record['job']}")


def check_warm(cold: PassResult, warm: PassResult, tag: str) -> None:
    """A warm re-run evaluates nothing and returns the cold records."""
    check(len(warm.records) == len(cold.records),
          f"{tag}: warm pass returned {len(warm.records)} records, "
          f"cold {len(cold.records)}")
    by_key = {r["key"]: comparable(r) for r in cold.records}
    for record in warm.records:
        check(record["source"] == "cache",
              f"{tag}: warm pass evaluated {record['job']}")
        check(by_key.get(record["key"]) == comparable(record),
              f"{tag}: warm record differs from cold for {record['job']}")


@dataclass
class Round:
    """A cold pass on a fresh cache directory, then its warm re-run."""

    cold: PassResult
    warm: PassResult
    traced: bool

    @property
    def cpu_s(self) -> float:
        return self.cold.cpu_s + self.warm.cpu_s


def run_rounds(children: Children, commands, seconds: float, workdir: Path,
               trace: bool, prepare=None) -> list:
    """Whole rounds until ``seconds`` have passed (at least one).

    With ``trace`` the run makes exactly two rounds, the first untraced
    and the second traced, so the pair gives the tracing overhead.
    ``prepare(cache_dir)`` seeds each fresh cache directory.
    """
    rounds: list = []
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and len(rounds) == 1
        index = len(rounds)
        cache = workdir / f"cache-{index}"
        cache.mkdir()
        if prepare is not None:
            prepare(cache)
        trace_dir = workdir if traced else None
        cold = run_pass(children, commands, cache, workdir, f"cold{index}",
                        trace_dir)
        warm = run_pass(children, commands, cache, workdir, f"warm{index}",
                        trace_dir)
        check_cold(cold, f"round {index}")
        check_warm(cold, warm, f"round {index}")
        rounds.append(Round(cold, warm, traced))
        if trace:
            if len(rounds) == 2:
                return rounds
        elif time.perf_counter() >= deadline:
            return rounds


def check_rounds_agree(rounds: list) -> None:
    """Every round evaluated the same points to the same results."""
    first = sorted(comparable(r) for r in rounds[0].cold.records)
    for i, rnd in enumerate(rounds[1:], 1):
        check(sorted(comparable(r) for r in rnd.cold.records) == first,
              f"round {i} results differ from round 0")


def end_to_end(rounds: list, setup_s: float) -> dict:
    """The end-to-end metrics of the untraced rounds."""
    plain = [r for r in rounds if not r.traced]
    return {
        "setup_s": setup_s,
        "peak_rss_mb": median([r.cold.peak_rss_mb for r in plain]),
        "points_per_s": median([r.cold.points / r.cold.cpu_s
                                for r in plain]),
        "warm_points_per_s": median([r.warm.points / r.warm.cpu_s
                                     for r in plain]),
    }


def trace_extra(rounds: list) -> dict:
    """Tracing overhead: the traced round against the untraced one."""
    plain, traced = rounds
    return {"trace.overhead_pct": 100.0 * (traced.cpu_s / plain.cpu_s - 1.0),
            "trace.round_s": traced.cpu_s}
