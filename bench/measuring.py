"""Measuring code shared by the bench scans.

Importing this module pins BLAS to one thread (so it must come before numpy
is imported anywhere in the process) and puts the repository's ``src/``
first on the path.  ``measure`` times a call the way every scan reports it,
and ``write_json`` writes a scan's rows under the common header that names
the clock, the statistic and the machine.

``ab_row`` is the scans' A/B mode (``--against DIR``): each row runs in
pairs of fresh processes, one importing the package from ``DIR/src`` and one
from this tree's ``src/``, on the same inputs and with alternating order, so
that both sides see the same state of a shared machine.  A child process is

    python3 bench/measuring.py SRC SCRIPT ARGS_JSON

which imports the package from SRC, then the scan module SCRIPT, and prints
the JSON row of ``SCRIPT.scan_row(*ARGS_JSON)``.  ``src_sha256`` names the
source each side ran, for a git checkout and a ``git archive`` export alike.
"""

import os

# pin BLAS before numpy is imported anywhere in this process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib
import importlib
import json
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

REPEATS = 5
#: How ``measure`` times a call, as recorded in each scan's settings.
TIMING = {"warmup": 1, "repeats": REPEATS, "statistic": "median of repeats"}
#: Process pairs per row in the A/B mode (odd, so each median is one run).
AB_PAIRS = 9


def measure(call):
    """Call ``call()`` once to warm up, ``REPEATS`` times under the process
    CPU clock (``time.process_time``) and once more under ``tracemalloc``.
    Returns (result of the warm-up call, median CPU seconds, traced peak
    bytes)."""
    result = call()
    times = []
    for _ in range(REPEATS):
        t0 = time.process_time()
        call()
        times.append(time.process_time() - t0)
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, statistics.median(times), peak


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')}-{blas.get('version')}",
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"])}


def write_json(path: Path, what: str, settings: dict, rows: list):
    """Write a scan's rows with the common header to ``path``."""
    result = {
        "what": what,
        "deterministic": False,
        "clock": "time.process_time (process CPU time)",
        "note": "CPU timings; they vary between runs and machines",
        "machine": machine(),
        "settings": settings,
        "rows": rows,
    }
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {path}")


def _child_row(src: Path, script: str, args: list) -> dict:
    done = subprocess.run([sys.executable, __file__, str(src), script, json.dumps(args)],
                          capture_output=True, text=True)
    if done.returncode:
        raise RuntimeError(f"{script}.scan_row{tuple(args)} on {src} failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def ab_row(script: str, args: list, against: Path, timed: str) -> dict:
    """The A/B mode for one row: ``AB_PAIRS`` pairs of processes run
    ``script.scan_row(*args)``, one on ``against/src`` and one on this tree's
    ``src/``, the order alternating from pair to pair.  ``timed`` names the
    row's time (``ms_per_step`` of the step scan, ``cpu_ms`` of the suite
    scan).  Returns this tree's run with the median time, plus ``against``,
    DIR's run with the median time (so the two rows' counts and reports can
    be compared), ``speedup``, the median over pairs of DIR's time divided by
    this tree's (above 1: this tree is faster), ``speedup_range``, the
    smallest and largest of those ratios, and ``pairs``."""
    own, other = [], []
    for k in range(AB_PAIRS):
        sides = [(own, ROOT / "src"), (other, against / "src")]
        for runs, src in sides[::-1] if k % 2 else sides:
            runs.append(_child_row(src, script, args))
    ratios = [b[timed] / a[timed] for a, b in zip(own, other)]
    row = sorted(own, key=lambda r: r[timed])[AB_PAIRS // 2]
    row.update({"against": sorted(other, key=lambda r: r[timed])[AB_PAIRS // 2],
                "speedup": round(statistics.median(ratios), 4),
                "speedup_range": [round(min(ratios), 4), round(max(ratios), 4)],
                "pairs": AB_PAIRS})
    return row


def src_sha256(tree: Path) -> str:
    """sha256 over ``tree``'s ``src/**/*.py``: each file's path under ``src/``
    and the sha256 of its bytes, in path order."""
    src, digest = tree / "src", hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


if __name__ == "__main__":
    _src, _script, _args = sys.argv[1:]
    sys.path.insert(0, _src)
    import lowrankpde  # noqa: E402  (SRC's package; the scan's own imports find it loaded)

    assert Path(lowrankpde.__file__).resolve().is_relative_to(Path(_src).resolve())
    print(json.dumps(importlib.import_module(_script).scan_row(*json.loads(_args))))
