"""CPU cost and traced peak of the geometry suites.

Times ``curvature_suite``, ``projection_regularity_suite`` and
``tangency_suite`` at rank r = 4 with 1000 trials over a grid of basis
sizes N, and writes the result as JSON (default ``BENCH_suite_scan.json``
at the repository root):

    python3 bench/suite_scan.py [--out PATH] [--suite S ...] [--N N ...]

``--suite`` and ``--N`` restrict the grid.  With ``--against DIR`` each row
is an interleaved A/B measurement against the source tree DIR (for example
a checkout of the parent commit) instead, written by default to
``BENCH_suite_scan_ab.json``:

    python3 bench/suite_scan.py --against DIR [--suite ...] [--N ...]

Each row then runs in ``measuring.AB_PAIRS`` = 9 pairs of processes, one on
``DIR/src`` and one on this tree's ``src/``, and adds ``against`` (DIR's
median run, with its own report) and ``speedup`` (the median over pairs of
DIR's CPU time over this tree's) with its range (``measuring.ab_row``); the
settings name each side's source by ``src_sha256`` and
``against_src_sha256``.  Only ``src/`` is taken from DIR: both sides run
this scan's code on the same inputs.

Each row records, for one (suite, N):

- ``cpu_ms``: process CPU time (``time.process_time``) of one suite call,
  the median of ``REPEATS`` timed calls after one warm-up call
  (``measuring.measure``).  BLAS is pinned to one thread, so this is the
  time of that thread.
- ``peak_traced_mb``: peak allocation traced by ``tracemalloc`` over one
  further, untimed call.
- ``violations`` and ``worst_ratio``: the suite's report, which depends only
  on (N, r, trials, seed), so a change of speed cannot hide a change of
  result.

One more row per N, ``geometry-suites``, times the three suites as the
``geometry-suites`` CLI experiment calls them (tangency on half the
trials).  The scan passes no tensor: the projection and tangency suites
sample that of ``rotating_diffusion(1.0, 0.25, 1.0)`` themselves.  The
timings are not deterministic: they vary from run to run and machine to
machine, which is why the JSON records the machine and the clock.
"""

import argparse
import sys
from pathlib import Path

from measuring import (AB_PAIRS, ROOT, TIMING, ab_row, measure,  # pins BLAS, puts src/ on the path
                       src_sha256, write_json)

from lowrankpde import curvature_suite, projection_regularity_suite, tangency_suite  # noqa: E402

RANK = 4
TRIALS = 1000
SIZES = (16, 32, 64)
SEED = 2020

SUITES = {
    "curvature": lambda n: curvature_suite(n, RANK, TRIALS, SEED),
    "projection": lambda n: projection_regularity_suite(n, RANK, TRIALS, SEED),
    "tangency": lambda n: tangency_suite(n, RANK, TRIALS, SEED),
    "geometry-suites": lambda n: (curvature_suite(n, RANK, TRIALS, SEED),
                                  projection_regularity_suite(n, RANK, TRIALS, SEED),
                                  tangency_suite(n, RANK, TRIALS // 2, SEED)),
}


def scan_row(name: str, n: int) -> dict:
    report, cpu_s, peak = measure(lambda: SUITES[name](n))
    row = {"suite": name, "N": n, "r": RANK, "trials": TRIALS,
           "cpu_ms": round(1e3 * cpu_s, 2),
           "peak_traced_mb": round(peak / 1e6, 3)}
    if not isinstance(report, tuple):
        row["violations"] = report.violations
        row["worst_ratio"] = {k: float(v) for k, v in report.worst_ratio.items()}
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--suite", nargs="+", choices=tuple(SUITES), default=tuple(SUITES))
    parser.add_argument("--N", nargs="+", type=int, default=SIZES)
    parser.add_argument("--against", type=Path, default=None, metavar="DIR",
                        help="A/B mode against the source tree DIR")
    args = parser.parse_args(argv)
    settings = {"rank": RANK, "trials": TRIALS, "seed": SEED, **TIMING}
    if args.against:
        settings.update(src_sha256=src_sha256(ROOT), against_src_sha256=src_sha256(args.against),
                        pairs=AB_PAIRS)
    rows = []
    for n in args.N:
        for name in args.suite:
            row = (ab_row("suite_scan", [name, n], args.against, "cpu_ms") if args.against
                   else scan_row(name, n))
            print(f"{name:16s} N={n:3d}  {row['cpu_ms']:9.1f} ms CPU"
                  f"  peak {row['peak_traced_mb']:7.3f} MB"
                  + (f"  speedup {row['speedup']:.3f} {row['speedup_range']}"
                     if args.against else ""), flush=True)
            rows.append(row)
    out = args.out or ROOT / ("BENCH_suite_scan_ab.json" if args.against
                              else "BENCH_suite_scan.json")
    write_json(out, "CPU ms per call of the geometry suites over N"
               + (", as interleaved A/B runs against another source tree"
                  if args.against else ""), settings, rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
