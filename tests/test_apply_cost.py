"""tools/apply_cost.py: a tiny sweep prints one fitted row per route and dimension."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import apply_cost  # tools/ is not a package: its modules import each other by name
from nbbm import kernels


def test_fit_recovers_a_line():
    fixed, slope = apply_cost.fit([100, 200, 400], [1e-4 + 100e-9, 1e-4 + 200e-9, 1e-4 + 400e-9])
    assert fixed == pytest.approx(1e-4) and slope == pytest.approx(1e-9)


def test_tiny_sweep_prints_each_route():
    lines = apply_cost.table(kernels, [200, 400], 2).splitlines()
    assert lines[0].startswith("| d | route | 200 nodes | 400 nodes | fixed | per node |")
    rows = [line.split(" | ") for line in lines[2:]]
    assert [(row[0], row[1]) for row in rows] == [("| 1", "image"), ("| 2", "anchored"),
                                                  ("| 3", "image")]
    for row in rows:
        assert all(cell.endswith(" ms") and float(cell[:-3]) > 0.0 for cell in row[2:4])
