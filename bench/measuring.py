"""Measuring code shared by the bench scans.

Importing this module pins BLAS to one thread (so it must come before numpy
is imported anywhere in the process) and puts the repository's ``src/``
first on the path.  ``measure`` times a call the way every scan reports it,
and ``write_json`` writes a scan's rows under the common header that names
the clock, the statistic and the machine.
"""

import os

# pin BLAS before numpy is imported anywhere in this process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import platform
import statistics
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
