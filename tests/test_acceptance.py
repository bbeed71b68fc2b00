"""End-to-end acceptance checks, one per shipped guarantee.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  Each check carries its tolerance inline; the dense oracles
here are assembled from scratch (quadrature tables, resolvent solves) rather
than reusing the library's own closed forms.
"""

import time

import numpy as np
import pytest

from dense_oracles import mode_state
from lowrankpde.analysis import (curvature_suite, convergence_study, energy_audit,
                                 equivalence_test,
                                 projection_regularity_suite, sample_spd_tensor,
                                 sample_state, tangency_suite)
from lowrankpde.cli import main, parse_config
from lowrankpde.galerkin import (TimeProfile, build_operator, constant_diffusion, h_norm,
                                 rotating_diffusion, separable_source, zero_source)
from lowrankpde.manifold import DEFAULT_RANK_FLOOR, factorize, to_dense
from lowrankpde.stepping import (StepOptions, als_variational_step, integrate,
                                 reference_step)


def _report(criterion: int, passed: bool, detail: str):
    print(f"[criterion {criterion}] {'PASS' if passed else 'FAIL'} — {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def test_criterion_1_single_sweep_equals_splitting():
    rep = equivalence_test(trials=50, seed=0)
    worst = rep.worst_ratio["single_sweep_vs_splitting"]
    _report(1, rep.violations == 0 and worst <= 1.0,
            f"50 configs, worst relative gap ratio vs 1e-10 bound: {worst:.3e}")


def test_criterion_2_first_order_convergence_to_closed_form():
    start = time.perf_counter()
    n, r, big_t = 32, 2, 0.1
    u0 = mode_state(n, [(0, 1.0), (1, 1.0)])
    model = constant_diffusion(0.02 * np.eye(2))
    u0_norm = h_norm(to_dense(u0))
    details = []
    ok = True
    for method in ("als", "splitting"):
        table = convergence_study("step", u0, big_t, model, zero_source(n),
                                  method=method, step_counts=(1, 2, 4, 8, 16))
        order = table.rows[-1].observed_order
        err = table.rows[-1].error
        ok &= 0.8 <= order <= 1.2
        ok &= err <= 1e-3 * u0_norm
        details.append(f"{method}: order {order:.3f}, err(h=1/160) {err:.3e}")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    _report(2, ok, "; ".join(details)
            + f"; bound {1e-3 * u0_norm:.3e}; runtime {elapsed:.2f}s")


@pytest.fixture(scope="module")
def rotating_trajectory():
    model = rotating_diffusion(1.0, 0.1, 1.0)
    u0 = sample_state(np.random.default_rng([7, 0]), 16, 3, sigma_range=(0.1, 1.0))
    traj = integrate("als", u0, 0.5, 200, model, zero_source(16))
    return traj, model


def test_criterion_3_energy_ledger(rotating_trajectory):
    traj, _ = rotating_trajectory
    rep = energy_audit(traj)
    worst_slack = max(rep.slack.values())
    monotone = all(d.objective_decreased for d in traj.diagnostics)
    norms = [h_norm(to_dense(s)) for s in traj.states]
    nonincreasing = all(b <= a * (1 + 1e-12) for a, b in zip(norms, norms[1:]))
    ok = not rep.violations and worst_slack < 1e-7 and monotone and nonincreasing
    _report(3, ok, f"worst slack {worst_slack:.3e} (< 1e-7), "
            f"objective monotone: {monotone}, h-norm nonincreasing: {nonincreasing}")


def test_criterion_4_interpolation_identity(rotating_trajectory):
    rng = np.random.default_rng(4)
    traj3, _ = rotating_trajectory
    sourced_model = constant_diffusion([[0.5, 0.2], [0.2, 0.4]])
    src = separable_source(8, [(TimeProfile("constant", 1.0), rng.standard_normal(8),
                                rng.standard_normal(8))])
    trajs = [
        traj3,
        integrate("als", sample_state(rng, 8, 2, sigma_range=(0.2, 1.0)),
                  0.2, 40, sourced_model, src),
        integrate("splitting", sample_state(rng, 8, 3, sigma_range=(0.2, 1.0)),
                  0.1, 25, sourced_model, zero_source(8)),
    ]
    worst = 0.0
    for traj in trajs:
        h = traj.step_size
        dense = [to_dense(s) for s in traj.states]
        increments = sum(np.linalg.norm(b - a) ** 2
                         for a, b in zip(dense, dense[1:]))
        closed = h / 3.0 * increments
        rel = abs(energy_audit(traj).interpolant_gap - closed) / max(closed, np.finfo(float).tiny)
        worst = max(worst, rel)
    _report(4, worst <= 1e-12,
            f"{len(trajs)} trajectories, worst relative identity gap {worst:.3e}")


def test_criterion_5_curvature_and_projection_suites():
    curv = curvature_suite(16, 3, 1000, seed=11)
    proj = projection_regularity_suite(16, 3, 1000, seed=12)
    ok = curv.violations == 0 and proj.violations == 0
    ratios = {**{f"curv.{k}": v for k, v in curv.worst_ratio.items()},
              **{f"proj.{k}": v for k, v in proj.worst_ratio.items()}}
    summary = ", ".join(f"{k}={v:.3f}" for k, v in sorted(ratios.items()))
    _report(5, ok, f"1000 trials each, zero violations, worst ratios: {summary}")


def test_criterion_6_divergence_part_is_tangent():
    reports = [tangency_suite(16, 2, 250, seed=21), tangency_suite(16, 5, 250, seed=22)]
    ok = all(r.violations == 0 for r in reports)
    worst = max(r.worst_ratio["a1_tangency"] for r in reports)
    _report(6, ok, f"500 states/times, worst tangent-defect ratio vs 1e-10: "
            f"{worst:.3e}")


def test_criterion_7_reference_solver_oracle():
    # oracle route: 1-d quadrature tables -> kronecker assembly -> dense solve;
    # no closed-form matrix from the library is reused
    nodes, weights = np.polynomial.legendre.leggauss(200)
    nodes = 0.5 * (nodes + 1.0)
    weights = 0.5 * weights

    def tables(n):
        phi = np.array([np.sqrt(2.0) * np.sin((k + 1) * np.pi * nodes)
                        for k in range(n)])
        dphi = np.array([np.sqrt(2.0) * (k + 1) * np.pi * np.cos((k + 1) * np.pi * nodes)
                         for k in range(n)])
        mass = (phi * weights) @ phi.T
        stiff = (dphi * weights) @ dphi.T
        mixed = (phi * weights) @ dphi.T          # plain mode against derivative
        return mass, stiff, mixed

    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(4, 9))
        h = float(10.0 ** rng.uniform(-3, -1))
        alpha = sample_spd_tensor(rng)
        model = constant_diffusion(alpha)
        op = build_operator(n)
        y0 = rng.standard_normal((n, n))
        f = rng.standard_normal((n, n))
        mass, stiff, mixed = tables(n)
        a_mat = (alpha[0, 0] * np.kron(mass, stiff)
                 + alpha[1, 1] * np.kron(stiff, mass)
                 + alpha[0, 1] * np.kron(mixed, mixed.T)
                 + alpha[1, 0] * np.kron(mixed.T, mixed))
        rhs = (y0 + h * f).reshape(-1, order="F")
        oracle = np.linalg.solve(np.eye(n * n) + h * a_mat, rhs).reshape((n, n),
                                                                         order="F")
        got, _ = reference_step(y0, h, h, f, op, model)
        worst = max(worst, np.linalg.norm(got - oracle) / np.linalg.norm(oracle))
    ok = worst <= 1e-10

    # full-rank manifold solve agrees with the dense reference
    worst_als = 0.0
    for k in range(5):
        rng_k = np.random.default_rng([77, k])
        n, h = 6, 0.05
        model = constant_diffusion(sample_spd_tensor(rng_k))
        op = build_operator(n)
        u0 = factorize(rng_k.standard_normal((n, n)), n)
        f = rng_k.standard_normal((n, n))
        dense, _ = reference_step(to_dense(u0), h, h, f, op, model)
        approx, _ = als_variational_step(u0, h, h, (f, np.eye(n)), op, model)
        worst_als = max(worst_als,
                        np.linalg.norm(to_dense(approx) - dense)
                        / np.linalg.norm(dense))
    ok &= worst_als <= 1e-9
    _report(7, ok, f"20 assembled-solve instances, worst rel gap {worst:.3e} "
            f"(<= 1e-10); full-rank sweep vs reference {worst_als:.3e} (<= 1e-9)")


def test_criterion_8_rank_floor_halt_prediction():
    h, floor = 0.01, DEFAULT_RANK_FLOOR
    u0 = mode_state(16, [(0, 1.0), (1, 1.0)])
    model = constant_diffusion(np.eye(2))
    traj = integrate("als", u0, 1.0, 100, model, zero_source(16), StepOptions())
    # per step the two mode weights shrink by different resolvent factors, so
    # the singular-value ratio decays geometrically and the crossing index is
    # predictable in closed form
    rho = (1.0 + 2.0 * np.pi ** 2 * h) / (1.0 + 8.0 * np.pi ** 2 * h)
    predicted = int(np.ceil(np.log(floor) / np.log(rho)))
    got = traj.halted_early
    ok = got is not None and abs(got - predicted) <= 2
    _report(8, ok, f"halted at step {got}, predicted {predicted} (± 2)")


def test_criterion_9_byte_identical_reruns(tmp_path):
    cfg_text = """\
experiment = energy-audit
N = 12
r = 3
T = 0.2
n_steps = 50
seed = 3

[alpha]
kind = rotation
lambda1 = 1.0
lambda2 = 0.2
omega = 1.0

[source]
term = cosine:0.3:2.0 | p = 1:1.0 | q = 2:0.5
"""
    cfg = tmp_path / "audit.cfg"
    cfg.write_text(cfg_text)
    codes = [main(["run", str(cfg), "--quiet", "--out", str(tmp_path / d)])
             for d in ("first", "second")]
    names = ("trajectory.csv", "diagnostics.csv", "report.csv", "run.log")
    identical = {name: (tmp_path / "first" / name).read_bytes()
                 == (tmp_path / "second" / name).read_bytes() for name in names}
    ok = codes == [0, 0] and all(identical.values())
    _report(9, ok, f"exit codes {codes}, byte-identical: "
            + ", ".join(f"{k}={v}" for k, v in identical.items()))
