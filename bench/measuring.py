"""Measuring code, command line and child process shared by the bench scripts.

Importing this module pins BLAS to one thread (so it must come before numpy
is imported anywhere in the process) and puts the repository's ``src/``
first on the path.  ``measure`` times a call the way every scan reports it,
and ``write_json`` writes a scan's rows under the common header that names
the clock, the statistic and the machine.

``scan`` is a scan's whole command line:

    python3 bench/SCAN.py [--out PATH] [--AXIS V ...] [--against DIR]

with one flag per grid axis that restricts it.  Each row is a call of
``SCAN.scan_row``, and the rows go to ``--out``, by default
``BENCH_SCAN.json`` at the repository root.

With ``--against DIR`` the scan is an A/B measurement against the source
tree DIR (for example a checkout or a ``git archive`` export of the parent
commit), written by default to ``BENCH_SCAN_ab.json``.  ``ab_row`` runs
each row in ``AB_PAIRS`` = 9 pairs of fresh processes, one importing the
package from ``DIR/src`` and one from this tree's ``src/``, on the same
inputs and with alternating order, so that both sides see the same state of
a shared machine.  Only ``src/`` is taken from DIR: both sides run this
tree's scan code.  The row is this tree's median run, plus ``against``
(DIR's median run, with its own counts or report), ``speedup`` (the median
over pairs of DIR's time over this tree's) with its ``speedup_range``, and
``pairs``.  The settings add ``pairs``, and ``src_sha256`` and
``against_src_sha256``, which name the source each side ran, for a git
checkout and an export alike.

A child process, of the A/B mode and of ``artifact_diff.py`` alike, is

    python3 bench/measuring.py SRC SCRIPT ARGS_JSON

which imports the package from SRC, checks that it did, imports the bench
module SCRIPT, and prints the JSON of ``SCRIPT.scan_row(*ARGS_JSON)``
(``_child_row``).
"""

import os

# pin BLAS before numpy is imported anywhere in this process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import importlib
import itertools
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


def _child_row(src: Path, script: str, args: list):
    """``script.scan_row(*args)`` in a child process on the package in
    ``src``; raises, with the child's stderr, if the child fails."""
    done = subprocess.run([sys.executable, __file__, str(src), script, json.dumps(args)],
                          capture_output=True, text=True)
    if done.returncode:
        raise RuntimeError(f"{script}.scan_row{tuple(args)} on {src} failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def ab_row(script: str, args: list, against: Path, timed: str) -> dict:
    """The A/B row of ``script.scan_row(*args)`` against the tree ``against``
    (see the module docstring), comparing the row's time ``timed``.  A
    ``speedup`` above 1 means this tree is faster."""
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


def scan(module, argv, axes: dict, loop: tuple, timed: str, what: str, settings: dict,
         keep=None) -> int:
    """Run the scan ``module`` (``bench/SCAN.py``) on the command line ``argv``.

    ``axes`` maps each grid axis to its values, in the order of
    ``module.scan_row``'s arguments, and each axis gets a flag that
    restricts it.  The rows run with ``loop``'s first axis outermost, and
    ``keep(*args)``, when given, drops a cell of the grid.  ``timed`` names
    the row's time, which the A/B mode compares; ``what`` and ``settings``
    go into the JSON header."""
    name = Path(module.__file__).stem
    parser = argparse.ArgumentParser(description=module.__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=None)
    for axis, values in axes.items():
        parser.add_argument(f"--{axis}", nargs="+", type=type(values[0]), default=values,
                            choices=values if isinstance(values[0], str) else None)
    parser.add_argument("--against", type=Path, default=None, metavar="DIR",
                        help="A/B mode against the source tree DIR")
    args = parser.parse_args(argv)
    if args.against:
        settings = dict(settings, src_sha256=src_sha256(ROOT),
                        against_src_sha256=src_sha256(args.against), pairs=AB_PAIRS)
        what += ", as interleaved A/B runs against another source tree"
    rows = []
    for cell in itertools.product(*(getattr(args, axis) for axis in loop)):
        row_args = [dict(zip(loop, cell))[axis] for axis in axes]
        if keep and not keep(*row_args):
            continue
        row = (ab_row(name, row_args, args.against, timed) if args.against
               else module.scan_row(*row_args))
        print("  ".join(f"{axis}={value}" for axis, value in zip(axes, row_args))
              + f"  {timed} {row[timed]}"
              + (f"  speedup {row['speedup']} {row['speedup_range']}" if args.against else ""),
              flush=True)
        rows.append(row)
    write_json(args.out or ROOT / f"BENCH_{name}{'_ab' if args.against else ''}.json",
               what, settings, rows)
    return 0


if __name__ == "__main__":
    _src, _script, _args = sys.argv[1:]
    sys.path.insert(0, _src)
    import lowrankpde  # noqa: E402  (SRC's package; the scan's own imports find it loaded)

    if not Path(lowrankpde.__file__).resolve().is_relative_to(Path(_src).resolve()):
        raise ImportError(f"lowrankpde was imported from {lowrankpde.__file__}, not from {_src}")
    print(json.dumps(importlib.import_module(_script).scan_row(*json.loads(_args))))
