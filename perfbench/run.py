"""Benchmark of the lowrankpde solver: integrators, reference oracle and CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload als-rotating --seed 1 --seconds 30 --trace 0

It imports the package from ``src/`` of the checkout it sits in, drives it
from this one process in a closed loop (one caller, one BLAS thread), checks
every output, prints a readable table and, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the per-layer ones from
spans recorded around calls into the package.  The gated times are
normalised: process CPU seconds, which leave out the time the process waits
for a core, divided by the CPU time of a fixed reference kernel run next to
each operation, which takes out how fast the shared machine runs at the
moment.  CPU and wall times are printed beside them.  Exit status 1 means a
correctness check failed, 2 that the package could not be imported.
"""

import os

# pin BLAS before numpy is imported anywhere in this process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import itertools
import json
import math
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

import spans
from workloads import (EXPERIMENTS, REF_NOMINAL_S, ROOT_SPAN, WORKLOADS, CliWorkload,
                       ReferenceKernel)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Setups before and again after the timed loop; setup_s is the median of all.
SETUP_REPEATS = 8

TRACED = (
    "stepping.integrate", "stepping.als_variational_step", "stepping.splitting_euler_step",
    "stepping.reference_step", "stepping.step_objective", "stepping.galerkin_residual",
    "stepping.cg",
    "galerkin.build_operator", "galerkin.apply_operator", "galerkin.rhs_mean",
    "galerkin.operator_matrix",
    "manifold.to_dense", "manifold.qr_nonneg", "manifold.singular_values",
    "manifold.tangent_project",
    "analysis.energy_audit", "analysis.convergence_study", "analysis.interpolant_gap",
    "analysis.curvature_suite", "analysis.projection_regularity_suite",
    "analysis.tangency_suite",
    "cli.run",
)
#: Layers every workload calls; their self times are reported on all of them.
SHARED_LAYERS = (
    "stepping.integrate", "stepping.step_objective", "stepping.galerkin_residual",
    "galerkin.build_operator", "galerkin.apply_operator", "galerkin.rhs_mean",
    "manifold.to_dense", "manifold.qr_nonneg", "manifold.singular_values",
    "manifold.tangent_project",
)
#: The inner solve: the steppers' own code (Kronecker assembly, dense solve,
#: right-hand sides) plus scipy's cg.
INNER_SOLVE = ("stepping.als_variational_step", "stepping.splitting_euler_step",
               "stepping.reference_step", "stepping.cg")


def machine() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={np.__version__} scipy={scipy.__version__} "
            f"blas={blas.get('name')}-{blas.get('version')} "
            f"threads={os.environ['OPENBLAS_NUM_THREADS']}")


def measure(workload, ctx, seed, seconds, workdir, kernel, recorder=None):
    """Closed loop for ``seconds``; with a recorder, every operation runs once
    untraced and once traced, in alternating order.  Operations go in rounds
    (one trajectory, or one pass over the four CLI configs); after the first
    rounds, a round starts only if the last one would still fit.  The
    reference ``kernel`` runs between operations; each operation keeps the
    mean of the kernel times just before and just after it."""
    size = len(EXPERIMENTS) if isinstance(workload, CliWorkload) else 1
    minimum = 1 if isinstance(workload, CliWorkload) else 3
    plain, traced = [], []
    before = kernel()

    def run(index, rec=None):
        nonlocal before
        outcome = workload.run(ctx, seed, index, workdir, rec)
        after = kernel()
        outcome.ref_s = 0.5 * (before + after)
        before = after
        return outcome

    deadline = time.perf_counter() + seconds
    last = 0.0
    for round_index in itertools.count():
        start = time.perf_counter()
        if round_index >= minimum and start + last > deadline:
            return plain, traced
        for index in range(round_index * size, (round_index + 1) * size):
            if recorder is None:
                plain.append(run(index))
                continue
            for with_trace in ((False, True) if index % 2 else (True, False)):
                if with_trace:
                    traced.append(run(index, recorder))
                else:
                    plain.append(run(index))
        last = time.perf_counter() - start


def op_time(workload, outcomes, clock="norm_s") -> float:
    """Median seconds per operation on ``clock`` (``norm_s``, ``cpu_s`` or
    ``wall_s``); for the CLI, the mean over the four configs of each
    config's median seconds per experiment."""
    if isinstance(workload, CliWorkload):
        return statistics.fmean(
            statistics.median(getattr(o, clock) for o in outcomes if o.label == e)
            for e in EXPERIMENTS)
    return statistics.median(getattr(o, clock) / o.attempted for o in outcomes)


def end_to_end(workload, outcomes, setup_s):
    checked = [o for o in outcomes if not math.isnan(o.rel_error)]
    rel_error = statistics.median(o.rel_error for o in checked)
    error_ratio = statistics.median(o.error_ratio for o in checked)
    metrics = {"setup_s": (setup_s, "s"),
               "ops_per_ref_s": (1.0 / op_time(workload, outcomes), "1/s"),
               "error_ratio": (error_ratio, "1")}
    sweeps = [s for o in outcomes for s in o.sweeps]
    ref = statistics.median(o.ref_s for o in outcomes)
    lines = [f"setup_s             {setup_s:.6f} s (normalised CPU)",
             f"reference kernel    {ref:.6f} s CPU (median; nominal {REF_NOMINAL_S:g} s)",
             f"{workload.op_unit}_per_ref_s".ljust(22)
             + f"{metrics['ops_per_ref_s'][0]:.6f} 1/s (ops_per_ref_s, normalised CPU)",
             f"{workload.op_unit}_per_cpu_s".ljust(22)
             + f"{1.0 / op_time(workload, outcomes, 'cpu_s'):.6f} 1/s (CPU time)",
             f"{workload.op_unit}_per_s".ljust(22)
             + f"{1.0 / op_time(workload, outcomes, 'wall_s'):.6f} 1/s (wall time)",
             f"rel_error           {rel_error:.6e}",
             f"error_ratio         {error_ratio:.6f}",
             f"sweeps_per_step     {statistics.fmean(sweeps) if sweeps else 0.0:.3f}"]
    if isinstance(workload, CliWorkload):
        for e in EXPERIMENTS:
            walls = [o.wall_s for o in outcomes if o.label == e]
            cpus = [o.cpu_s for o in outcomes if o.label == e]
            lines.append(f"experiment_s.{e}".ljust(32)
                         + f"{statistics.median(walls):.6f} s wall, "
                         f"{statistics.median(cpus):.6f} s CPU (median of {len(walls)})")
    return metrics, lines


def per_layer(workload, traced, plain, recorder):
    calls, self_s = spans.summarize(recorder.spans)
    metrics = {}
    for name in TRACED:
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
    for name in SHARED_LAYERS:
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    inner = sum(self_s.get(name, 0.0) for name in INNER_SOLVE)
    step_total = sum(s.end - s.start for s in recorder.spans if s.name == "stepping.integrate")
    metrics["stepping.inner_solve.self_s"] = (inner, "s")
    metrics["stepping.inner_solve_pct"] = (100.0 * inner / step_total if step_total else 0.0,
                                           "%")
    metrics["stepping.cg.iterations"] = (recorder.counters.get("stepping.cg.iterations", 0),
                                         "count")
    sweeps = [s for o in traced for s in o.sweeps]
    converged = [c for o in traced for c in o.converged]
    metrics["stepping.sweeps_per_step"] = (statistics.fmean(sweeps) if sweeps else 0.0,
                                           "count")
    metrics["stepping.converged_ratio"] = (
        sum(converged) / len(converged) if converged else 1.0, "1")
    metrics["cli.artifact_bytes"] = (sum(o.artifact_bytes for o in traced), "bytes")
    metrics[f"{ROOT_SPAN}.self_s"] = (self_s.get(ROOT_SPAN, 0.0), "s")
    wall = sum(s.end - s.start for s in recorder.spans if s.name == ROOT_SPAN)
    metrics["trace.wall_s"] = (wall, "s")
    overhead = 100.0 * (op_time(workload, traced) / op_time(workload, plain) - 1.0)
    metrics["trace.overhead_pct"] = (overhead, "%")

    lines = [f"{'layer':44s} {'calls':>8s} {'self_s':>12s} {'share':>7s}"]
    for name in TRACED + (ROOT_SPAN,):
        if calls.get(name):
            lines.append(f"{name:44s} {calls[name]:8d} {self_s[name]:12.6f} "
                         f"{100.0 * self_s[name] / wall:6.2f}%")
    accounted = sum(self_s.values())
    lines.append(f"self times sum to {accounted:.6f} s of {wall:.6f} s traced wall time")
    lines.append(f"inner solve share of integrate time: "
                 f"{metrics['stepping.inner_solve_pct'][0]:.2f}%")
    lines.append(f"tracing overhead: {overhead:+.2f}% (median normalised op time "
                 f"{op_time(workload, traced):.6f} s traced, "
                 f"{op_time(workload, plain):.6f} s untraced)")
    return metrics, lines, {"calls": calls, "self_s": self_s}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if not (SRC / "lowrankpde" / "__init__.py").is_file():
        print(f"perfbench: no package source under {SRC}", file=sys.stderr)
        return 2
    kernel = ReferenceKernel()
    setups, setup_walls = [], []

    def set_up():
        cpu, wall = time.process_time(), time.perf_counter()
        ctx = workload.setup(SRC, args.seed)
        setup_walls.append(time.perf_counter() - wall)
        setups.append((time.process_time() - cpu) * REF_NOMINAL_S / kernel())
        return ctx

    for _ in range(SETUP_REPEATS):
        ctx = set_up()

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    recorder = spans.Recorder(TRACED, {"stepping.cg": spans.counting_cg}) \
        if args.trace else None
    try:
        plain, traced = measure(workload, ctx, args.seed, args.seconds, workdir, kernel,
                                recorder)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for _ in range(SETUP_REPEATS):
        set_up()
    setup_s = statistics.median(setups)
    outcomes = plain + traced
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    wrong = [w for o in outcomes for w in o.wrong]

    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print(f"# {machine()}")
    print(f"# closed loop, 1 caller; setup median of {len(setups)}; "
          f"{len(outcomes)} timed calls")
    if args.trace:
        metrics, lines, summary = per_layer(workload, traced, plain, recorder)
        trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "machine": machine(),
            "summary": summary,
            "spans": [[s.name, s.start, s.end, s.parent] for s in recorder.spans]}))
        lines.append(f"spans written to {trace_file.relative_to(ROOT)}")
    else:
        metrics, lines = end_to_end(workload, outcomes, setup_s)
        lines.insert(1, f"setup_wall_s        {statistics.median(setup_walls):.6f} s")
    lines.append(f"failed_ratio        {failed / attempted:.6f} ({failed}/{attempted})")
    for line in lines:
        print(line)
    for problem in dict.fromkeys(wrong):
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = not wrong
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
