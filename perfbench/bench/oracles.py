"""Oracles the benchmark computes itself.

Nothing here imports the program's expected values: the kernel results
come from numpy on inputs this module generates, and the paper figures
are transcribed from the MemPool-3D paper (DATE 2022).
"""

from __future__ import annotations

import numpy as np

from .common import check

#: Fig. 7: MemPool-3D over MemPool-2D performance gain (%) on the
#: blocked matmul at 16 B/cycle off-chip bandwidth, per SPM capacity.
PAPER_PERF_GAIN_PCT = {1: 4.2, 2: 5.3, 4: 9.1, 8: 5.1}
#: Abstract: MemPool-3D-4MiB energy relative to MemPool-2D-4MiB (%).
PAPER_ENERGY_4MIB_PCT = -15.0
#: Tolerances, in percentage points.
PERF_TOLERANCE_PP = 1.0
ENERGY_TOLERANCE_PP = 3.0
#: The paper's design-space grid: capacities x flows x bandwidths.
PAPER_CAPACITIES = (1, 2, 4, 8)
PAPER_FLOWS = ("2D", "3D")
PAPER_BANDWIDTHS = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

_MASK = 0xFFFFFFFF


def _words(values) -> list:
    return [int(v) & _MASK for v in np.ravel(values)]


def _signed(words) -> np.ndarray:
    return np.array(words, dtype=np.uint64).astype(np.uint32).view(np.int32)


def check_kernels(rng: np.random.Generator) -> int:
    """Run each simulated kernel on inputs generated here and compare the
    SPM read-back with numpy.  Returns the number of kernels checked."""
    from repro.arch.cluster import MemPoolCluster
    from repro.core.config import Flow, MemPoolConfig
    from repro.kernels import workloads as k
    from repro.simulator.engine import run_cluster

    config = MemPoolConfig(capacity_mib=1, flow=Flow.FLOW_2D)
    cores = int(rng.integers(4, 17))

    def simulate(program, writes) -> MemPoolCluster:
        cluster = MemPoolCluster(config)
        for base, values in writes:
            cluster.write_words(base, _words(values))
        cluster.load_program(program, num_cores=cores)
        run_cluster(cluster)
        return cluster

    # dot product: one partial sum per core.
    n = int(rng.integers(200, 800))
    a = rng.integers(-100, 100, n)
    b = rng.integers(-100, 100, n)
    out = 8 * n
    cluster = simulate(k.dotp_program(n, cores, 0, 4 * n, out),
                       [(0, a), (4 * n, b)])
    total = int(_signed(cluster.read_words(out, cores)).astype(np.int64).sum())
    check(total == int(a @ b), f"dotp: SPM {total} != numpy {int(a @ b)}")

    # axpy: y += s * x in place.
    s = int(rng.integers(-7, 8))
    x = rng.integers(-100, 100, n)
    y = rng.integers(-100, 100, n)
    cluster = simulate(k.axpy_program(n, cores, s, 0, 4 * n),
                       [(0, x), (4 * n, y)])
    got = _signed(cluster.read_words(4 * n, n))
    check(np.array_equal(got, y + s * x), "axpy: SPM != numpy")

    # 3x3 convolution (valid, correlation order).
    h, w = (int(v) for v in rng.integers(cores + 2, 24, 2))
    image = rng.integers(-20, 20, (h, w))
    kern = rng.integers(-5, 5, (3, 3))
    base_k = 4 * h * w
    base_o = base_k + 36
    cluster = simulate(
        k.conv2d_3x3_program(w, h, cores, 0, base_k, base_o),
        [(0, image), (base_k, kern)],
    )
    expected = sum(
        kern[i, j] * image[i:h - 2 + i, j:w - 2 + j]
        for i in range(3) for j in range(3)
    )
    got = _signed(cluster.read_words(base_o, (h - 2) * (w - 2)))
    check(np.array_equal(got.reshape(h - 2, w - 2), expected),
          "conv2d: SPM != numpy")

    # matrix-vector product.
    rows, cols = (int(v) for v in rng.integers(cores, 40, 2))
    m = rng.integers(-30, 30, (rows, cols))
    v = rng.integers(-30, 30, cols)
    base_x = 4 * rows * cols
    base_y = base_x + 4 * cols
    cluster = simulate(
        k.matvec_program(rows, cols, cores, 0, base_x, base_y),
        [(0, m), (base_x, v)],
    )
    check(np.array_equal(_signed(cluster.read_words(base_y, rows)), m @ v),
          "matvec: SPM != numpy")

    # 5-point Laplacian stencil on the interior.
    image = rng.integers(-50, 50, (h, w))
    base_o = 4 * h * w
    cluster = simulate(k.stencil5_program(w, h, cores, 0, base_o),
                       [(0, image)])
    expected = (4 * image[1:-1, 1:-1] - image[:-2, 1:-1] - image[2:, 1:-1]
                - image[1:-1, :-2] - image[1:-1, 2:])
    got = _signed(cluster.read_words(base_o, (h - 2) * (w - 2)))
    check(np.array_equal(got.reshape(h - 2, w - 2), expected),
          "stencil5: SPM != numpy")
    return 5


def check_paper_figures(records: list) -> dict:
    """Check the served 16 B/cycle paper points against the paper.

    Returns the measured gains (for the log)."""
    at16 = {
        (r["job"]["capacity_mib"], r["job"]["flow"]): r["metrics"]
        for r in records
        if r["job"]["bandwidth"] == 16.0 and r["job"]["kernel"] == "matmul"
    }
    measured = {}
    for cap, paper in PAPER_PERF_GAIN_PCT.items():
        two, three = at16[(cap, "2D")], at16[(cap, "3D")]
        gain = 100.0 * (three["performance"] / two["performance"] - 1.0)
        measured[f"perf_gain_{cap}MiB_pct"] = gain
        check(abs(gain - paper) <= PERF_TOLERANCE_PP,
              f"Fig. 7 {cap} MiB: 3D gain {gain:+.2f}% vs paper {paper:+.1f}%")
    two, three = at16[(4, "2D")], at16[(4, "3D")]
    # energy per kernel run is the inverse of energy efficiency
    energy = 100.0 * (two["energy_efficiency"] / three["energy_efficiency"]
                      - 1.0)
    measured["energy_4MiB_pct"] = energy
    check(abs(energy - PAPER_ENERGY_4MIB_PCT) <= ENERGY_TOLERANCE_PP,
          f"3D-4MiB energy {energy:+.2f}% vs paper "
          f"{PAPER_ENERGY_4MIB_PCT:+.1f}%")
    return measured


def comparable(record: dict) -> tuple:
    """The parts of a record that must match between two evaluations."""
    return (record["key"], record["status"], record["job"],
            record.get("metrics"))
