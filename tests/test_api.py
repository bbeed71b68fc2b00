"""The package's public surface: one export list, and the bench scripts that
import it."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import lowrankpde
from lowrankpde import analysis, galerkin, manifold, stepping

ROOT = Path(__file__).resolve().parent.parent
MODULES = (analysis, galerkin, manifold, stepping)


def test_package_exports_the_module_lists():
    assert lowrankpde.__all__ == [name for module in MODULES for name in module.__all__]
    assert len(set(lowrankpde.__all__)) == len(lowrankpde.__all__)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(lowrankpde, name) is getattr(module, name), name


@pytest.mark.parametrize("script", ["step_scan.py", "suite_scan.py"])
def test_bench_script_starts(script):
    # the scans import the public API at start-up, before parsing arguments
    done = subprocess.run([sys.executable, str(ROOT / "bench" / script), "--help"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def plain_and_ab_rows(tmp_path, script, grid):
    """The one row of ``bench/<script>`` restricted to ``grid``, as a plain
    scan and in the A/B mode against this very tree."""
    rows = {}
    for name, extra in (("plain", []), ("ab", ["--against", str(ROOT)])):
        out = tmp_path / f"{name}.json"
        done = subprocess.run([sys.executable, str(ROOT / "bench" / script), *grid, *extra,
                               "--out", str(out)], capture_output=True, text=True, timeout=600)
        assert done.returncode == 0, done.stderr
        rows[name] = json.loads(out.read_text())["rows"]
    (plain,), (ab,) = rows["plain"], rows["ab"]
    low, high = ab["speedup_range"]
    assert ab["pairs"] == 9 and 0 < low <= ab["speedup"] <= high < float("inf")
    return plain, ab


def test_step_scan_against_its_own_tree(tmp_path):
    # the A/B mode on a one-row grid, run against this very tree: the plain
    # scan's row keys plus the A/B fields, and the same counts (a12 != 0, so
    # the inner CG runs).  The ratio itself is CPU time on whatever host runs
    # the suite and is not checked beyond being a finite positive median of
    # its own range.
    plain, ab = plain_and_ab_rows(tmp_path, "step_scan.py",
                                  ["--method", "splitting", "--N", "128", "--a12", "0.25"])
    assert set(ab) == set(plain) | {"against_ms_per_step", "speedup", "speedup_range", "pairs"}
    for key in ("method", "N", "r", "a12", "sweeps_per_step", "inner_iterations_per_half_sweep"):
        assert ab[key] == plain[key], key
    assert plain["inner_iterations_per_half_sweep"] > 0


def test_suite_scan_against_its_own_tree(tmp_path):
    # the same for the suite scan's cheapest row: the keys, and the report,
    # which depends only on (N, r, trials, seed); the ratio is not checked
    plain, ab = plain_and_ab_rows(tmp_path, "suite_scan.py", ["--suite", "tangency", "--N", "16"])
    assert set(ab) == set(plain) | {"against_cpu_ms", "speedup", "speedup_range", "pairs"}
    for key in ("suite", "N", "r", "trials", "violations", "worst_ratio"):
        assert ab[key] == plain[key], key
