"""The per-run correctness gate and the failure count on small inputs."""

from dataclasses import replace
from pathlib import Path

import numpy as np

import workloads
from workloads import IntegratorWorkload

SRC = Path(__file__).resolve().parents[2] / "src"
SMALL = {
    "als": IntegratorWorkload("als-small", "als", n=16, r=3, h=1e-3, steps=2, n_terms=2,
                              rotating=(1.0, 0.25, 1.0)),
    "splitting": IntegratorWorkload("splitting-small", "splitting", n=16, r=3, h=1e-3,
                                    steps=2, n_terms=3, diagonal=(1.0, 0.1)),
}


def _run(workload, seed=0):
    ctx = workload.setup(SRC, seed)
    return ctx, workload.run(ctx, seed, 1, Path("."))


def test_correct_outputs_pass_the_gate():
    for workload in SMALL.values():
        _, out = _run(workload)
        assert out.wrong == [] and out.failed == 0
        assert 0.0 < out.rel_error < workloads.REL_ERROR_TOL
        assert out.error_ratio >= 1.0 - 1e-9     # no rank-r matrix beats the best one


def test_a_wrong_final_state_is_reported(monkeypatch):
    workload = SMALL["splitting"]
    ctx = workload.setup(SRC, 0)
    pkg = ctx["pkg"]
    integrate = pkg.integrate

    def skewed(*args, **kwargs):
        traj = integrate(*args, **kwargs)
        last = traj.states[-1]
        traj.states[-1] = pkg.LowRankState(last.u1_factors, 1.1 * last.core,
                                           last.u2_factors)
        return traj

    monkeypatch.setattr(pkg, "integrate", skewed)
    out = workload.run(ctx, 0, 1, Path("."))
    assert out.failed == workload.steps
    assert out.wrong and "rel_error" in out.wrong[0]


def test_sweep_cap_hits_count_as_failed_steps(monkeypatch):
    workload = SMALL["als"]
    ctx = workload.setup(SRC, 0)
    pkg = ctx["pkg"]
    capped = replace(pkg.StepOptions(), als_max_sweeps=1)
    monkeypatch.setattr(pkg, "StepOptions", lambda: capped)
    out = workload.run(ctx, 0, 1, Path("."))
    assert out.converged == [False] * workload.steps
    assert out.failed == workload.steps
    assert out.wrong == []                      # not converged, but not wrong


def test_inputs_depend_only_on_the_seed():
    workload = SMALL["als"]
    pkg = workload.setup(SRC, 0)["pkg"]
    a = workload.inputs(pkg, 5, 2)
    b = workload.inputs(pkg, 5, 2)
    c = workload.inputs(pkg, 6, 2)
    assert np.array_equal(a[0].u1_factors, b[0].u1_factors)
    assert not np.array_equal(a[0].u1_factors, c[0].u1_factors)
