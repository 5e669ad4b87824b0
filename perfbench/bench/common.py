"""Shared plumbing: checkout paths, child processes, statistics.

Every program process the benchmark starts is a :class:`Child` tracked
by :class:`Children` and reaped with ``os.wait4``, which gives its CPU
time; nothing is left running when a workload returns or raises.
"""

from __future__ import annotations

import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

#: The benchmark's own directory (``perfbench/``).
BENCH_DIR = Path(__file__).resolve().parent.parent
#: Root of the checkout the benchmark measures.
ROOT = BENCH_DIR.parent
#: The program's sources.
SRC = ROOT / "src"
#: Everything a run writes lives here (ignored by git).
OUT = BENCH_DIR / "_out"
#: The child entry point that runs the program's CLI.
CHILD = BENCH_DIR / "child.py"


class CheckFailed(Exception):
    """A correctness oracle rejected the program's output."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def child_env(rss_file: Path, trace_sink: Optional[Path] = None) -> dict:
    """Environment of a program process: no inherited ``REPRO_*`` knobs,
    bytecode kept under the benchmark's output directory."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["BENCH_RSS_FILE"] = str(rss_file)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    env["PYTHONHASHSEED"] = "0"
    if trace_sink is not None:
        env["BENCH_TRACE_SINK"] = str(trace_sink)
    return env


@dataclass
class ChildResult:
    """One finished program process."""

    returncode: int
    wall_s: float
    #: CPU time of the process, user plus system, from ``wait4``.
    cpu_s: float
    #: The process's own peak RSS, as it reported at exit.
    peak_rss_mb: float
    stdout: str


class Child:
    """A running ``perfbench/child.py`` process running the repro CLI."""

    def __init__(self, argv: list, workdir: Path,
                 trace_sink: Optional[Path] = None, name: str = "child"):
        self.stdout_path = workdir / f"{name}.stdout"
        self.rss_path = workdir / f"{name}.rss"
        self._stdout = open(self.stdout_path, "w+b")
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(CHILD), *argv],
            cwd=str(workdir),
            env=child_env(self.rss_path, trace_sink),
            stdout=self._stdout,
            stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL,
        )
        self.result: Optional[ChildResult] = None

    def stdout_text(self) -> str:
        self._stdout.flush()
        return self.stdout_path.read_text(errors="replace")

    def _reap(self, flags: int) -> bool:
        pid, status, usage = os.wait4(self.proc.pid, flags)
        if not pid:
            return False
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self._stdout.close()
        self.result = ChildResult(
            returncode=self.proc.returncode,
            wall_s=time.perf_counter() - self.t0,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=(int(self.rss_path.read_text()) / 1024.0
                         if self.rss_path.is_file() else 0.0),
            stdout=self.stdout_path.read_text(errors="replace"),
        )
        return True

    def running(self) -> bool:
        return self.result is None and not self._reap(os.WNOHANG)

    def wait(self, timeout: float = 150.0) -> ChildResult:
        """Reap the process (killing it past ``timeout``)."""
        deadline = time.monotonic() + timeout
        while self.running():
            if time.monotonic() > deadline:
                self.kill()
                break
            time.sleep(0.002)
        return self.result

    def stop(self, timeout: float = 30.0) -> ChildResult:
        """SIGTERM (the service drains and exits 0), then reap."""
        if self.running():
            self.proc.send_signal(signal.SIGTERM)
        return self.wait(timeout)

    def kill(self) -> None:
        if self.running():
            self.proc.kill()
            self._reap(0)


class Children:
    """Tracks every child of a run so none outlives it."""

    def __init__(self) -> None:
        self.live: list[Child] = []

    def start(self, *args, **kwargs) -> Child:
        child = Child(*args, **kwargs)
        self.live.append(child)
        return child

    def run(self, argv: list, workdir: Path,
            trace_sink: Optional[Path] = None, name: str = "child"
            ) -> ChildResult:
        """Run one CLI command to completion; it must exit 0."""
        result = self.start(argv, workdir, trace_sink, name).wait()
        check(
            result.returncode == 0,
            f"`repro {' '.join(map(str, argv[:2]))} ...` exited "
            f"{result.returncode}:\n{result.stdout[-2000:]}",
        )
        return result

    def close(self) -> None:
        for child in self.live:
            child.kill()
        self.live.clear()


def cpu_seconds(pid: int) -> float:
    """On-CPU time of the live threads of a running process.

    Read from ``/proc/<pid>/task/*/schedstat`` (nanoseconds), so it is
    exact for threads that are not running at that moment.
    """
    total = 0
    for task in Path(f"/proc/{pid}/task").iterdir():
        try:
            total += int((task / "schedstat").read_text().split()[0])
        except FileNotFoundError:  # the thread ended meanwhile
            pass
    return total / 1e9


def make_workdir(workload: str, seed: int) -> Path:
    OUT.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{workload}-s{seed}-", dir=OUT))


def remove_tree(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def quantile(values: list, q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1] of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: list) -> float:
    return statistics.median(values)
