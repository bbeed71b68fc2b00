"""CPU cost and traced peak of the geometry suites.

Times ``curvature_suite``, ``projection_regularity_suite`` and
``tangency_suite`` at rank r = 4 with 1000 trials over a grid of basis
sizes N, and writes the result as JSON (default ``BENCH_suite_scan.json``
at the repository root):

    python3 bench/suite_scan.py [--out PATH] [--suite S ...] [--N N ...] [--against DIR]

``--suite`` and ``--N`` restrict the grid.  With ``--against DIR`` each
row is an interleaved A/B measurement of ``cpu_ms`` against the source tree
DIR, written by default to ``BENCH_suite_scan_ab.json`` (``measuring``'s
docstring describes that mode); its ``against`` run carries DIR's own
report.

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

import sys

from measuring import TIMING, measure, scan  # pins BLAS, puts src/ on the path

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
    return scan(sys.modules[__name__], argv, {"suite": tuple(SUITES), "N": SIZES}, ("N", "suite"),
                "cpu_ms", "CPU ms per call of the geometry suites over N",
                {"rank": RANK, "trials": TRIALS, "seed": SEED, **TIMING})


if __name__ == "__main__":
    sys.exit(main())
