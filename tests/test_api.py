"""The package's public surface: one export list, and the bench scripts that
import it."""

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
