"""Per-step cost scan of the rank-r integrators.

Times ``integrate`` for the ALS and splitting methods at rank r = 8 over a
grid of basis sizes N and mixed coefficients a12, and writes the result as
JSON (default ``BENCH_step_scan.json`` at the repository root):

    python3 bench/step_scan.py [--out PATH] [--method M ...] [--N N ...] [--a12 A ...]
                               [--against DIR]

``--method``, ``--N`` and ``--a12`` restrict the grid.  With ``--against
DIR`` each row is an interleaved A/B measurement of ``ms_per_step`` against
the source tree DIR, written by default to ``BENCH_step_scan_ab.json``
(``measuring``'s docstring describes that mode); its ``against`` run carries
DIR's own sweep and CG counts.

Each row records, for one (method, N, a12):

- ``ms_per_step``: process CPU time (``time.process_time``) of one
  ``integrate`` call divided by its step count, the median of ``REPEATS``
  timed calls after one warm-up call (``measuring.measure``).  The call includes
  ``build_operator``, as it does for every caller.  CPU time leaves out the
  time the process waits for a core on a shared host; BLAS runs on one
  thread, so it is the time of that thread.
- ``sweeps_per_step`` and ``ms_per_sweep`` (ALS sweeps; 1 for splitting).
- ``inner_iterations_per_half_sweep``: conjugate-gradient iterations of the
  half-sweep solves (``StepDiagnostics.inner_iterations``) over the two
  half-sweeps of every sweep; 0 without a mixed term.
- ``peak_traced_mb``: peak allocation traced by ``tracemalloc`` over one
  further, untimed call.  An N x N array of floats is 8 N^2 bytes, so a
  peak far below that shows that no dense matrix was formed.
- splitting rows only, ``post_ms`` and ``post_peak_traced_mb``: the same
  two measures of the post-processing of the scanned trajectory,
  ``energy_audit``, which reads the trajectory alone, builds no operator
  and measures each step's increment once for the balance and the
  interpolant gap.  With a source the audit's V* Gram sums over
  its N x N weights a chunk of at most ``analysis._CHUNK_BYTES`` of columns
  at a time.

Inputs are seeded: a smooth rank-r start (Gaussian factor blocks weighted
by n^-2, orthonormalised, singular values geometric from 1 to 1e-2) and two
smooth separable cosine sources.  BLAS is pinned to one thread.  The timings
are not deterministic: they vary from run to run and machine to machine,
which is why the JSON records the machine and the clock.  ALS with a12 != 0 stops at
N = 1024, where one call already takes seconds.
"""

import sys

import numpy as np

from measuring import TIMING, measure, scan  # pins BLAS, puts src/ on the path

from lowrankpde import (LowRankState, TimeProfile, constant_diffusion,  # noqa: E402
                        energy_audit, integrate, separable_source)

RANK = 8
SIZES = (128, 256, 512, 1024, 2048)
MIXED = (0.0, 0.25)
METHODS = ("als", "splitting")
#: Largest N scanned for ALS with a mixed term.
ALS_MIXED_MAX_N = 1024
STEP = 1e-3
N_STEPS = 5
SEED = 2020


def smooth_inputs(n: int, r: int, seed: int):
    """Seeded smooth start and two-term source for basis size ``n``."""
    rng = np.random.default_rng([seed, n])
    weight = np.arange(1, n + 1, dtype=float) ** -2.0
    u, _ = np.linalg.qr(rng.standard_normal((n, r)) * weight[:, None])
    v, _ = np.linalg.qr(rng.standard_normal((n, r)) * weight[:, None])
    start = LowRankState(u, np.diag(np.geomspace(1.0, 1e-2, r)), v)
    cosine = TimeProfile("cosine", 1.0, 3.0)
    source = separable_source(n, [(cosine, rng.standard_normal(n) * weight,
                                   rng.standard_normal(n) * weight) for _ in range(2)])
    return start, source


def scan_row(method: str, n: int, a12: float) -> dict:
    start, source = smooth_inputs(n, RANK, SEED)
    model = constant_diffusion([[1.0, a12], [a12, 0.5]])

    def call():
        return integrate(method, start, STEP * N_STEPS, N_STEPS, model, source)

    traj, cpu_s, peak = measure(call)
    steps = len(traj.diagnostics)
    sweeps = sum(d.sweeps_used for d in traj.diagnostics) / steps
    iterations = sum(d.inner_iterations for d in traj.diagnostics) / steps
    ms_per_step = 1e3 * cpu_s / steps
    row = {"method": method, "N": n, "r": RANK, "a12": a12,
           "ms_per_step": round(ms_per_step, 4),
           "sweeps_per_step": sweeps,
           "ms_per_sweep": round(ms_per_step / sweeps, 4),
           "inner_iterations_per_half_sweep": round(iterations / (2.0 * sweeps), 4),
           "peak_traced_mb": round(peak / 1e6, 4),
           "dense_matrix_mb": round(8.0 * n * n / 1e6, 4)}
    if method == "splitting":
        _, post_s, post_peak = measure(lambda: energy_audit(traj))
        row.update(post_ms=round(1e3 * post_s, 4), post_peak_traced_mb=round(post_peak / 1e6, 4))
    return row


def main(argv=None) -> int:
    return scan(
        sys.modules[__name__], argv, {"method": METHODS, "N": SIZES, "a12": MIXED},
        ("method", "a12", "N"), "ms_per_step",
        "ms/step of integrate for the rank-r methods over N and a12, "
        "and ms of post-processing the splitting runs",
        {"rank": RANK, "h": STEP, "n_steps": N_STEPS, **TIMING, "seed": SEED,
         "als_mixed_max_n": ALS_MIXED_MAX_N},
        keep=lambda method, n, a12: not (method == "als" and a12 != 0.0 and n > ALS_MIXED_MAX_N))


if __name__ == "__main__":
    sys.exit(main())
