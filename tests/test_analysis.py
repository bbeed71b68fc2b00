"""Estimate audits and randomized property suites.

The energy ledger is checked on a manufactured single-mode flow where every
quantity has a closed form, and the interpolation identity is checked against
a per-interval Gauss rule built here from scratch.
"""

import numpy as np
import pytest

from lowrankpde.analysis import (PropertyReport, convergence_study, curvature_suite,
                                 energy_audit, equivalence_test, interpolant_gap,
                                 projection_regularity_suite, sample_nearby_state,
                                 sample_spd_tensor, sample_state, tangency_suite)
from lowrankpde.galerkin import (build_operator, constant_diffusion, constant_profile,
                                 rotating_diffusion, separable_source, zero_source)
from lowrankpde.manifold import LowRankState, smallest_singular, to_dense
from lowrankpde.stepping import Trajectory, integrate


def mode_state(n, entries):
    r = len(entries)
    u1 = np.zeros((n, r))
    u2 = np.zeros((n, r))
    core = np.zeros((r, r))
    for k, (i, c) in enumerate(entries):
        u1[i, k] = 1.0
        u2[i, k] = 1.0
        core[k, k] = c
    return LowRankState(u1, core, u2)


# ---------------------------------------------------------------------------
# samplers


def test_sample_state_properties():
    rng = np.random.default_rng(50)
    s = sample_state(rng, 12, 4, sigma_range=(0.1, 2.0))
    assert s.basis_dim == 12 and s.rank == 4
    np.testing.assert_allclose(s.u1_factors.T @ s.u1_factors, np.eye(4), atol=1e-12)
    np.testing.assert_allclose(s.u2_factors.T @ s.u2_factors, np.eye(4), atol=1e-12)
    sig = np.linalg.svd(s.core, compute_uv=False)
    assert 0.1 * (1 - 1e-12) <= sig[-1] and sig[0] <= 2.0 * (1 + 1e-12)


def test_sample_state_deterministic():
    a = sample_state(np.random.default_rng([9, 1]), 8, 3)
    b = sample_state(np.random.default_rng([9, 1]), 8, 3)
    np.testing.assert_array_equal(to_dense(a), to_dense(b))


def test_sample_nearby_state():
    rng = np.random.default_rng(51)
    s = sample_state(rng, 10, 3, sigma_range=(0.5, 1.0))
    near = sample_nearby_state(rng, s, max_rel=0.5)
    assert near.rank == 3
    dist = np.linalg.norm(to_dense(near) - to_dense(s))
    assert 0 < dist <= 0.5 * smallest_singular(s)


def test_sample_spd_tensor():
    rng = np.random.default_rng(52)
    for _ in range(20):
        a = sample_spd_tensor(rng, eig_range=(0.3, 1.5))
        np.testing.assert_allclose(a, a.T, atol=1e-14)
        w = np.linalg.eigvalsh(a)
        assert 0.3 - 1e-12 <= w[0] and w[1] <= 1.5 + 1e-12


# ---------------------------------------------------------------------------
# energy ledger on a manufactured flow


def test_energy_audit_single_mode_closed_form():
    # u0 = (1,1) mode, alpha = a I: each backward step of every method
    # divides the coefficient by 1 + 2 a pi^2 h, so every ledger column has
    # an explicit formula
    a, n_steps, T, n = 0.02, 25, 0.25, 6
    h = T / n_steps
    rho = 1.0 / (1.0 + 2.0 * a * np.pi ** 2 * h)
    model = constant_diffusion(a * np.eye(2))
    op = build_operator(n)
    i = np.arange(n_steps + 1)
    dq = rho ** np.arange(n_steps) * (rho - 1.0) / h
    obj = (rho ** (2 * np.arange(n_steps)) * (rho - 1.0) ** 2 / (2 * h)
           + a * np.pi ** 2 * rho ** (2 * np.arange(1, n_steps + 1)))
    for method in ("als", "splitting", "reference"):
        traj = integrate(method, mode_state(n, [(0, 1.0)]), T, n_steps, model,
                         zero_source(n))
        rep = energy_audit(traj, zero_source(n), model, op)
        np.testing.assert_allclose(rep.h_norms_sq, rho ** (2 * i), rtol=1e-10)
        np.testing.assert_allclose(rep.v_norms_sq, 2.0 * np.pi ** 2 * rho ** (2 * i),
                                   rtol=1e-10)
        np.testing.assert_allclose(rep.diff_quotients_sq, dq ** 2, rtol=1e-10)
        np.testing.assert_array_equal(rep.f_dual_norms_sq, np.zeros(n_steps))
        np.testing.assert_allclose(rep.objectives, obj, rtol=1e-9)
        assert rep.passed and not rep.violations
        assert rep.step_size == pytest.approx(h)


def test_energy_audit_inequality_recomputed_from_trajectory():
    # recompute the summed balance directly from the states, independent of
    # the report's own arrays
    rng = np.random.default_rng(53)
    n, r = 10, 3
    model = rotating_diffusion(1.0, 0.3, 2.0)
    op = build_operator(n)
    src = separable_source(n, [(constant_profile(0.5), rng.standard_normal(n),
                                rng.standard_normal(n))])
    u0 = sample_state(rng, n, r, sigma_range=(0.1, 1.0))
    traj = integrate("als", u0, 0.3, 60, model, src)
    rep = energy_audit(traj, src, model, op)
    assert rep.passed, rep.violations

    from lowrankpde.galerkin import h_norm, rhs_mean_factors, v_dual_norm, v_norm
    h = traj.step_size
    dense = [to_dense(s) for s in traj.states]
    lhs = h_norm(dense[-1]) ** 2
    rhs = h_norm(dense[0]) ** 2 + rep.budget
    for k in range(1, len(dense)):
        lhs += h_norm(dense[k] - dense[k - 1]) ** 2
        lhs += h * model.mu * v_norm(op, dense[k]) ** 2
        p_mat, q_mat = rhs_mean_factors(src, traj.times[k - 1], traj.times[k])
        rhs += (h / model.mu) * v_dual_norm(op, p_mat @ q_mat.T) ** 2
    assert lhs <= rhs
    assert rep.slack["energy_sum"] == 0.0


def test_energy_audit_rejects_short_runs():
    n = 6
    model = constant_diffusion(0.05 * np.eye(2))
    traj = Trajectory(times=np.array([0.0]), states=[mode_state(n, [(0, 1.0)])],
                      diagnostics=[], method="als")
    with pytest.raises(ValueError, match="need at least one step"):
        energy_audit(traj, zero_source(n), model, build_operator(n))


def test_energy_audit_builds_no_dense_coupling():
    # F and the residual come from the step record, so auditing a
    # mixed-term run on a fresh operator never builds the N x N matrix G
    rng = np.random.default_rng(55)
    n, r = 12, 3
    model = constant_diffusion([[1.0, 0.25], [0.25, 0.5]])
    traj = integrate("splitting", sample_state(rng, n, r, sigma_range=(0.1, 1.0)), 0.05, 5,
                     model, zero_source(n))
    op = build_operator(n)
    rep = energy_audit(traj, zero_source(n), model, op)
    assert rep.passed, rep.violations
    assert "grad_coupling_1d" not in op.__dict__


def test_energy_audit_objective_anchors():
    # the anchor column stores F evaluated at the previous state, which is
    # where monotonicity is measured from
    n = 6
    model = constant_diffusion(0.05 * np.eye(2))
    op = build_operator(n)
    traj = integrate("als", mode_state(n, [(0, 1.0), (1, 0.4)]), 0.1, 10, model,
                     zero_source(n))
    rep = energy_audit(traj, zero_source(n), model, op)
    assert len(rep.objective_anchors) == len(rep.objectives)
    assert np.all(np.asarray(rep.objectives)
                  <= np.asarray(rep.objective_anchors) + 1e-11)


# ---------------------------------------------------------------------------
# interpolation identity


def test_interpolant_gap_equals_increment_sum():
    rng = np.random.default_rng(54)
    n, r = 8, 2
    model = rotating_diffusion(0.9, 0.25, 3.0)
    src = separable_source(n, [(constant_profile(1.0), rng.standard_normal(n),
                                rng.standard_normal(n))])
    u0 = sample_state(rng, n, r, sigma_range=(0.2, 1.0))
    traj = integrate("als", u0, 0.2, 30, model, src)
    h = traj.step_size
    dense = [to_dense(s) for s in traj.states]
    increments = sum(np.linalg.norm(dense[k] - dense[k - 1]) ** 2
                     for k in range(1, len(dense)))
    assert interpolant_gap(traj) == pytest.approx(h / 3.0 * increments, rel=1e-12)


def test_interpolant_gap_matches_time_quadrature():
    # brute-force oracle: 3-point Gauss in time per interval on the squared
    # distance between the piecewise-linear and piecewise-constant paths
    n = 6
    model = constant_diffusion(0.1 * np.eye(2))
    traj = integrate("als", mode_state(n, [(0, 1.0), (2, 0.7)]), 0.15, 12, model,
                     zero_source(n))
    nodes, weights = np.polynomial.legendre.leggauss(3)
    nodes = 0.5 * (nodes + 1.0)
    weights = 0.5 * weights
    h = traj.step_size
    dense = [to_dense(s) for s in traj.states]
    total = 0.0
    for k in range(1, len(dense)):
        for x, w in zip(nodes, weights):
            lin = dense[k - 1] + x * (dense[k] - dense[k - 1])
            total += h * w * np.linalg.norm(lin - dense[k]) ** 2
    assert interpolant_gap(traj) == pytest.approx(total, rel=1e-12)


def test_interpolant_gap_two_state_closed_form():
    # from the zero state to a state of norm c in one step of size h the gap
    # is (h/3) c^2; a constant trajectory has no gap at all
    h = 0.05
    u1 = np.zeros((4, 4))
    u1[0, 0] = 3.0
    traj = Trajectory(times=np.array([0.0, h]), states=[np.zeros((4, 4)), u1],
                      diagnostics=[], method="reference")
    assert interpolant_gap(traj) == pytest.approx(h / 3.0 * 9.0, rel=1e-14)
    flat = Trajectory(times=np.array([0.0, h, 2 * h]),
                      states=[u1, u1.copy(), u1.copy()],
                      diagnostics=[], method="reference")
    assert interpolant_gap(flat) == 0.0


def test_interpolant_gap_reference_trajectory():
    n = 6
    model = constant_diffusion(0.1 * np.eye(2))
    traj = integrate("reference", mode_state(n, [(0, 1.0)]), 0.1, 8, model,
                     zero_source(n))
    h = traj.step_size
    increments = sum(np.linalg.norm(traj.states[k] - traj.states[k - 1]) ** 2
                     for k in range(1, len(traj.states)))
    assert interpolant_gap(traj) == pytest.approx(h / 3.0 * increments, rel=1e-12)


# ---------------------------------------------------------------------------
# randomized suites


def test_curvature_bound_explicit_shear_pair():
    # u carries singular values (sigma, eps); v nudges it by delta in a
    # cross direction.  the projector difference, computed brute force, must
    # stay under (2 / eps) * |u - v| * |z| in both norms
    from lowrankpde.manifold import factorize, tangent_project
    sigma, eps, delta, n = 1.0, 0.05, 1e-3, 6
    du = np.zeros((n, n))
    du[0, 0] = sigma
    du[1, 1] = eps
    dv = du.copy()
    dv[0, 1] = delta
    u = factorize(du, 2)
    v = factorize(dv, 2)
    rng = np.random.default_rng(56)
    gap = np.linalg.norm(du - dv)
    for _ in range(10):
        z = rng.standard_normal((n, n))
        diff = np.linalg.norm(tangent_project(u, z) - tangent_project(v, z))
        assert diff <= (2.0 / eps) * gap * np.linalg.norm(z)
        # spectral-norm variant of the same bound
        assert diff <= (2.0 / eps) * np.linalg.norm(du - dv, 2) * np.linalg.norm(z)
    # second-order remainder: the off-manifold part of the difference
    normal = (du - dv) - tangent_project(v, du - dv)
    assert np.linalg.norm(normal) <= gap ** 2 / eps
    # degenerate pair v = u: both measured quantities vanish identically
    z = rng.standard_normal((n, n))
    assert np.linalg.norm(tangent_project(u, z) - tangent_project(u, z)) == 0.0
    assert np.linalg.norm((du - du) - tangent_project(u, du - du)) == 0.0


def test_projection_ratios_scale_invariant():
    # every audited bound is homogeneous in the state, so scaling u by c > 0
    # leaves each observed/bound ratio unchanged
    from lowrankpde.galerkin import v_norm as vn_f
    from lowrankpde.manifold import smallest_singular as ss_f
    from lowrankpde.manifold import tangent_project
    rng = np.random.default_rng(60)
    op = build_operator(8)
    u = sample_state(rng, 8, 3, sigma_range=(0.05, 1.0))
    z = rng.standard_normal((8, 8))
    lam = op.stiffness_diag

    def ratios(state):
        y = to_dense(state)
        sig = ss_f(state)
        vn = vn_f(op, y)
        proj = vn_f(op, tangent_project(state, z)) / (
            np.sqrt(1.0 + 3 * vn ** 2 / sig ** 2) * vn_f(op, z))
        mixed = np.sqrt(np.sum(np.outer(lam, lam) * y * y)) / (3 * vn ** 2 / sig)
        return proj, mixed

    c = 7.5
    scaled = LowRankState(u.u1_factors, c * u.core, u.u2_factors)
    for a, b in zip(ratios(u), ratios(scaled)):
        assert b == pytest.approx(a, rel=1e-12)


def test_factor_regularity_explicit_single_mode():
    # u = lowest mode: the factor gradient seminorm is pi while |u|_V is
    # pi sqrt(2), so the measured ratio is exactly 1/sqrt(2)
    from lowrankpde.galerkin import v_norm
    op = build_operator(6)
    lam = op.stiffness_diag
    u = mode_state(6, [(0, 1.0)])
    semi = np.sqrt(np.sum(lam * u.u1_factors[:, 0] ** 2))
    assert semi == pytest.approx(np.pi, rel=1e-13)
    assert v_norm(op, to_dense(u)) == pytest.approx(np.pi * np.sqrt(2.0), rel=1e-13)
    assert semi / v_norm(op, to_dense(u)) == pytest.approx(1.0 / np.sqrt(2.0),
                                                           rel=1e-13)


def test_tangency_explicit_single_mode():
    # with the identity tensor the divergence part sends the lowest mode to
    # 2 pi^2 times itself, which is tangent at that state by construction
    from lowrankpde.galerkin import apply_a1
    from lowrankpde.manifold import tangent_project
    op = build_operator(6)
    model = constant_diffusion(np.eye(2))
    u = mode_state(6, [(0, 1.0)])
    y = to_dense(u)
    a1u = apply_a1(op, model, 0.0, y)
    np.testing.assert_allclose(a1u, 2.0 * np.pi ** 2 * y, atol=1e-11)
    assert np.linalg.norm(a1u - tangent_project(u, a1u)) <= 1e-12


def test_curvature_suite_small_run():
    rep = curvature_suite(8, 2, 80, seed=3)
    assert rep.passed and rep.violations == 0 and rep.trials == 80
    assert set(rep.worst_ratio) == {"projector_diff_spectral",
                                    "projector_diff_frobenius",
                                    "normal_component"}
    assert all(0 <= v <= 1 for v in rep.worst_ratio.values())


def test_projection_suite_small_run():
    rep = projection_regularity_suite(8, 3, 80, seed=4)
    assert rep.passed and rep.violations == 0
    assert set(rep.worst_ratio) == {"projection_v_bound", "factor_regularity",
                                    "mixed_seminorm", "a2_h_norm"}
    assert all(0 <= v <= 1 for v in rep.worst_ratio.values())


def test_tangency_suite_small_run():
    model = rotating_diffusion(1.0, 0.25, 1.0)
    rep = tangency_suite(8, 2, 60, seed=5, model=model)
    assert rep.passed and rep.violations == 0
    assert set(rep.worst_ratio) == {"a1_tangency", "state_reproduction",
                                    "a1_projected_pairing"}


def test_equivalence_small_run():
    rep = equivalence_test(trials=8, seed=1)
    assert rep.passed and rep.violations == 0
    assert rep.worst_ratio["single_sweep_vs_splitting"] <= 1.0


def test_full_rank_both_methods_match_reference():
    from lowrankpde.manifold import factorize
    from lowrankpde.stepping import (als_variational_step, reference_step,
                                     splitting_euler_step)
    rng = np.random.default_rng(57)
    n, h = 6, 0.04
    op = build_operator(n)
    model = constant_diffusion([[0.9, 0.3], [0.3, 0.7]])
    u0 = factorize(rng.standard_normal((n, n)), n)
    f = rng.standard_normal((n, n))
    dense, _ = reference_step(to_dense(u0), h, h, f, op, model)
    scale = np.linalg.norm(dense)
    als, _ = als_variational_step(u0, h, h, (f, np.eye(n)), op, model)
    split, _ = splitting_euler_step(u0, h, h, (f, np.eye(n)), op, model)
    assert np.linalg.norm(to_dense(als) - dense) <= 1e-10 * scale
    assert np.linalg.norm(to_dense(split) - dense) <= 1e-10 * scale


def test_equivalence_vanishing_step_returns_start():
    from lowrankpde.stepping import _forward_splitting_step, splitting_euler_step
    rng = np.random.default_rng(58)
    n, r, h = 8, 3, 1e-10
    op = build_operator(n)
    model = constant_diffusion([[1.0, 0.3], [0.3, 0.8]])
    u0 = sample_state(rng, n, r, sigma_range=(0.5, 1.0))
    f = rng.standard_normal((n, n))
    y0 = to_dense(u0)
    a, _ = splitting_euler_step(u0, h, h, (f, np.eye(n)), op, model)
    b = _forward_splitting_step(u0, h, h, (f, np.eye(n)), op, model)
    # the drift of one implicit step is at most h times the defect scale
    from lowrankpde.galerkin import apply_operator
    budget = 10.0 * h * (np.linalg.norm(apply_operator(op, model, h, y0))
                         + np.linalg.norm(f))
    assert np.linalg.norm(to_dense(a) - y0) <= budget
    assert np.linalg.norm(to_dense(b) - y0) <= budget
    assert np.linalg.norm(to_dense(a) - to_dense(b)) <= 1e-10 * np.linalg.norm(y0)


def test_trajectory_scaling_homogeneity():
    # each implicit step is a linear system in (state, forcing), and the
    # rank-r set is a cone, so scaling both inputs scales the whole path
    rng = np.random.default_rng(59)
    n, r, c = 8, 2, 12.5
    model = rotating_diffusion(1.0, 0.4, 1.0)
    p, q = rng.standard_normal(n), rng.standard_normal(n)
    src = separable_source(n, [(constant_profile(1.0), p, q)])
    src_c = separable_source(n, [(constant_profile(c), p, q)])
    u0 = sample_state(rng, n, r, sigma_range=(0.2, 1.0))
    u0_c = LowRankState(u0.u1_factors, c * u0.core, u0.u2_factors)
    traj = integrate("als", u0, 0.1, 20, model, src)
    traj_c = integrate("als", u0_c, 0.1, 20, model, src_c)
    for a, b in zip(traj.states, traj_c.states):
        da, db = to_dense(a), to_dense(b)
        assert np.linalg.norm(db - c * da) <= 1e-11 * c * max(np.linalg.norm(da), 1.0)


def test_suites_are_reproducible():
    # per-trial seeding makes reports a pure function of (seed, trials)
    a = curvature_suite(8, 2, 30, seed=6)
    b = curvature_suite(8, 2, 30, seed=6)
    assert a == b
    c = equivalence_test(trials=6, seed=2)
    d = equivalence_test(trials=6, seed=2)
    assert c.worst_ratio == d.worst_ratio


def test_property_report_passed_flag():
    assert not PropertyReport(trials=5, violations=1, worst_ratio={}, seed=0).passed
    assert PropertyReport(trials=5, violations=0, worst_ratio={}, seed=0).passed


# ---------------------------------------------------------------------------
# convergence studies


def test_convergence_step_axis_first_order():
    model = constant_diffusion(0.02 * np.eye(2))
    u0 = mode_state(8, [(0, 1.0), (1, 1.0)])
    table = convergence_study("step", u0, 0.1, model, zero_source(8),
                              step_counts=(5, 10, 20, 40))
    errors = [row.error for row in table.rows]
    assert all(e1 < e0 for e0, e1 in zip(errors, errors[1:]))
    assert table.rows[0].observed_order is None
    assert table.rows[-1].observed_order == pytest.approx(1.0, abs=0.1)
    np.testing.assert_allclose([row.parameter for row in table.rows],
                               [0.1 / c for c in (5, 10, 20, 40)], atol=1e-15)


def test_convergence_step_axis_reference_oracle():
    # non-diagonal tensor forces the fine-step reference oracle; at full rank
    # nothing is truncated, so the time error still shrinks at first order
    rng = np.random.default_rng(55)
    model = constant_diffusion([[0.05, 0.02], [0.02, 0.05]])
    from lowrankpde.manifold import factorize
    u0 = factorize(rng.standard_normal((6, 6)), 6)
    table = convergence_study("step", u0, 0.1, model, zero_source(6),
                              step_counts=(5, 10, 20))
    errors = [row.error for row in table.rows]
    assert all(e1 < e0 for e0, e1 in zip(errors, errors[1:]))
    assert table.rows[-1].observed_order == pytest.approx(1.0, abs=0.3)


def test_convergence_rank_truncation_floor():
    # with a coupled tensor a rank-2 path cannot follow the true flow, so
    # refining the step stops helping: the error flattens at the rank floor
    model = constant_diffusion([[0.05, 0.02], [0.02, 0.05]])
    u0 = mode_state(8, [(0, 1.0), (1, 1.0)])
    table = convergence_study("step", u0, 0.1, model, zero_source(8),
                              step_counts=(10, 20, 40))
    # orders collapse toward zero once truncation dominates
    assert table.rows[-1].observed_order < 0.5


def test_convergence_rank_axis_monotone():
    # start with cleanly separated mode weights so each extra rank captures
    # one more mode of the diagonal decay
    model = constant_diffusion(0.02 * np.eye(2))
    u0 = mode_state(8, [(0, 1.0), (1, 0.3), (2, 0.1), (3, 0.03)])
    table = convergence_study("rank", u0, 0.05, model, zero_source(8),
                              ranks=(1, 2, 3, 4), n_steps=50)
    errors = [row.error for row in table.rows]
    assert all(e1 < e0 for e0, e1 in zip(errors, errors[1:]))
    assert [row.parameter for row in table.rows] == [1.0, 2.0, 3.0, 4.0]
    assert errors[-1] < 1e-3


def test_convergence_rank_axis_truncation_structure():
    # exact rank-2 start with diagonal decay: below rank 2 the error is the
    # discarded singular weight of the true solution; at rank 2 and above it
    # is pure time error, identical for every extra rank
    from lowrankpde.galerkin import exact_diagonal_solution
    from lowrankpde.manifold import singular_values
    model = constant_diffusion(0.02 * np.eye(2))
    u0 = mode_state(8, [(0, 1.0), (1, 0.6)])
    table = convergence_study("rank", u0, 0.1, model, zero_source(8),
                              ranks=(1, 2, 3), n_steps=50)
    errs = {int(row.parameter): row.error for row in table.rows}
    exact = exact_diagonal_solution(build_operator(8), model, u0, 0.1)
    sigma2 = singular_values(exact)[-1]
    assert errs[1] == pytest.approx(sigma2, rel=1e-6)
    assert errs[1] > 100 * errs[2]
    assert errs[2] == errs[3]


def test_convergence_zero_horizon():
    # a zero horizon is rejected like any non-positive T, not tabulated as exact
    model = constant_diffusion(0.02 * np.eye(2))
    u0 = mode_state(6, [(0, 1.0)])
    with pytest.raises(ValueError, match="final time must be positive"):
        convergence_study("step", u0, 0.0, model, zero_source(6), step_counts=(4, 8))


def test_convergence_rejects_repeated_step_counts():
    # a repeated count would divide the observed order by log(1) = 0
    model = constant_diffusion(0.02 * np.eye(2))
    u0 = mode_state(6, [(0, 1.0)])
    with pytest.raises(ValueError, match="step_counts must be distinct"):
        convergence_study("step", u0, 0.05, model, zero_source(6), step_counts=(1, 1, 2))


def test_convergence_rejects_unknown_axis():
    model = constant_diffusion(0.02 * np.eye(2))
    u0 = mode_state(6, [(0, 1.0)])
    with pytest.raises(ValueError):
        convergence_study("time", u0, 0.1, model, zero_source(6))
