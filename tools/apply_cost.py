"""Print the cost of one kernel apply per route and dimension, fitted as a
fixed part plus nanoseconds per node.

Run from the repository root (takes about half a minute):

    python3 tools/apply_cost.py [TREE] [--sizes 650,1300,...] [--repeats 9]

``TREE`` (default: this repository) is the source tree whose ``src/`` is
imported, so that a parent commit's copy is measured with the same sweep.
For d = 1, 2 and 3 and each lattice size n, one jump row is applied on the
nodes i h, i < n, with h = R / n: a lattice of fixed reach R = 4 at the step
t = 0.01 of the default solves, so the anchored route keeps its 400 anchors
and only the nodes per anchor grow with n.  The row carries the jumps of the
uniform-ball profile (r / R_0)^d, R_0 = 0.6 R, on the first 0.6 n nodes.  The
first call builds the cached lattice data; the time given is the median of
the next ``--repeats`` calls, as in a solve's steady state.  A least-squares
line through (n, time) gives the fixed part and the cost per node.  d = 1 and
3 take the image route and d = 2 the anchored route (``mixture_node_values``).
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import paths

REACH, STEP, SUPPORT = 4.0, 0.01, 0.6
SIZES = (650, 1300, 2600, 5200, 10400, 20800)


def apply_seconds(kernels, dim: int, n: int, repeats: int) -> float:
    """Median wall time of one one-row apply on n nodes, after a first call."""
    h = REACH / n
    r = np.arange(n) * h
    m = int(SUPPORT * n)
    sizes = np.diff((np.arange(m + 1) / m) ** dim)[None, :]
    kernels._IMAGE_CACHE.clear()
    kernels.mixture_node_values(dim, STEP, r[:m], sizes, r, lattice_h=h)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernels.mixture_node_values(dim, STEP, r[:m], sizes, r, lattice_h=h)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def fit(sizes, seconds) -> tuple[float, float]:
    """Least-squares fixed part (s) and cost per node (s) of seconds against sizes."""
    slope, fixed = np.polyfit(np.asarray(sizes, float), np.asarray(seconds, float), 1)
    return float(fixed), float(slope)


def table(kernels, sizes, repeats: int) -> str:
    head = "| d | route | " + " | ".join(f"{n} nodes" for n in sizes) + " | fixed | per node |"
    lines = [head, "|" + "---|" * (len(sizes) + 4)]
    for dim in (1, 2, 3):
        seconds = [apply_seconds(kernels, dim, n, repeats) for n in sizes]
        fixed, slope = fit(sizes, seconds)
        route = "image" if dim in (1, 3) else "anchored"
        lines.append(f"| {dim} | {route} | "
                     + " | ".join(f"{1e3 * s:.3f} ms" for s in seconds)
                     + f" | {1e3 * fixed:.3f} ms | {1e9 * slope:.1f} ns |")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", nargs="?", type=Path, default=paths.ROOT)
    parser.add_argument("--sizes", default=",".join(map(str, SIZES)))
    parser.add_argument("--repeats", type=int, default=9)
    args = parser.parse_args(argv)
    error = paths.import_package(args.tree.resolve())
    if error:
        print(error, file=sys.stderr)
        return 2
    from nbbm import kernels
    sizes = [int(s) for s in args.sizes.split(",")]
    print(table(kernels, sizes, args.repeats))
    return 0


if __name__ == "__main__":
    sys.exit(main())
