"""Implicit-step solvers checked against resolvent and constructed-minimiser
oracles, plus the exact single-pass equivalence between the two rank-constrained
updates."""

import ast
import inspect
import math
import textwrap
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.sparse.linalg import LinearOperator, cg

from dense_oracles import galerkin_residual, mode_state, operator_matrix, step_objective
from lowrankpde import galerkin, manifold, stepping
from lowrankpde.analysis import sample_state
from lowrankpde.galerkin import (DiffusionModel, TimeProfile, build_operator, constant_diffusion,
                                 cosine_profile, h_distance, rhs_mean_factors,
                                 rotating_diffusion, separable_source, zero_source)
from lowrankpde.manifold import (DEFAULT_RANK_FLOOR, LowRankState, RankDeficiencyError,
                                 factorize, qr_nonneg, singular_values, tangent_project,
                                 to_dense)
from lowrankpde.stepping import (METHODS, StepOptions, _forward_splitting_step, _Step,
                                 als_variational_step, integrate, reference_step,
                                 splitting_euler_step)


def random_state(rng, n, r):
    q1, _ = np.linalg.qr(rng.standard_normal((n, r)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, r)))
    return LowRankState(q1, rng.standard_normal((r, r)) + 2 * np.eye(r), q2)


def dense_backward_euler(op, model, h, t_next, y_prev, f_mean):
    """Oracle: assemble the full matrix and solve (I + h A) y = y_prev + h f."""
    n = op.basis_dim
    a = operator_matrix(op, model.alpha(t_next))
    rhs = (y_prev + h * f_mean).reshape(-1, order="F")
    y = np.linalg.solve(np.eye(n * n) + h * a, rhs)
    return y.reshape((n, n), order="F")


# ---------------------------------------------------------------------------
# reference step


def test_reference_step_single_mode_resolvent():
    # laplacian sends the (1,1) mode to 2 pi^2 times itself, so one backward
    # step divides the coefficient by 1 + 2 pi^2 h
    n, h = 6, 0.01
    op = build_operator(n)
    model = constant_diffusion(np.eye(2))
    y0 = np.zeros((n, n))
    y0[0, 0] = 1.0
    y1, _ = reference_step(y0, h, h, np.zeros((n, n)), op, model)
    expected = np.zeros((n, n))
    expected[0, 0] = 1.0 / (1.0 + 2.0 * np.pi ** 2 * h)
    np.testing.assert_allclose(y1, expected, atol=1e-13)


def test_reference_step_matches_dense_solve_with_source():
    rng = np.random.default_rng(31)
    n, h = 5, 0.04
    op = build_operator(n)
    model = constant_diffusion([[0.7, 0.25], [0.25, 0.9]])
    y0 = rng.standard_normal((n, n))
    f = rng.standard_normal((n, n))
    got, _ = reference_step(y0, h, h, f, op, model)
    np.testing.assert_allclose(got, dense_backward_euler(op, model, h, h, y0, f),
                               atol=1e-11)


def test_reference_step_matches_dense_oracle_with_mixed_term():
    # N^2 = 2304 unknowns: the mixed term makes the step a preconditioned
    # conjugate gradient solve at a size the dense oracle still handles
    rng = np.random.default_rng(32)
    n, h = 48, 0.02
    op = build_operator(n)
    model = constant_diffusion([[1.0, 0.3], [0.3, 0.8]])
    y0 = rng.standard_normal((n, n))
    f = rng.standard_normal((n, n))
    got, _ = reference_step(y0, h, h, f, op, model)
    oracle = dense_backward_euler(op, model, h, h, y0, f)
    assert np.linalg.norm(got - oracle) <= 1e-10 * np.linalg.norm(oracle)


def test_reference_step_minimises_objective():
    rng = np.random.default_rng(33)
    n, h = 5, 0.05
    op = build_operator(n)
    model = constant_diffusion([[0.6, 0.1], [0.1, 0.6]])
    y0 = rng.standard_normal((n, n))
    f = rng.standard_normal((n, n))
    star, _ = reference_step(y0, h, h, f, op, model)

    def objective(y):
        d = y - y0
        return (np.sum(d * d) / (2 * h) + 0.5 * np.sum(_apply_full(op, model, h, y) * y)
                - np.sum(f * y))

    f_star = objective(star)
    for _ in range(10):
        other = star + 1e-3 * rng.standard_normal((n, n))
        assert objective(other) >= f_star - 1e-12


# ---------------------------------------------------------------------------
# rank-constrained steps


def test_als_single_mode_resolvent():
    # rank-1 problem whose exact minimiser is itself rank 1
    n, h = 6, 0.01
    op = build_operator(n)
    model = constant_diffusion(np.eye(2))
    u0 = mode_state(n, [(0, 1.0)])
    u1, diag = als_variational_step(u0, h, h, (np.zeros((n, n)), np.eye(n)), op, model)
    expected = np.zeros((n, n))
    expected[0, 0] = 1.0 / (1.0 + 2.0 * np.pi ** 2 * h)
    np.testing.assert_allclose(to_dense(u1), expected, atol=1e-12)
    assert diag.objective_decreased
    # the first sweep already lands on the minimiser; the second only
    # confirms stationarity
    assert diag.sweeps_used <= 2
    trace = diag.objective_trace
    assert trace[2] == pytest.approx(trace[-1], rel=1e-14)


def test_als_recovers_constructed_minimiser():
    # pick a rank-r target y*, then choose the forcing so that y* solves the
    # unconstrained optimality system: f = (y* - u0)/h + A y*.  the rank-r
    # minimiser is then y* itself, and the solver must find it.
    rng = np.random.default_rng(34)
    n, r, h = 8, 3, 0.05
    op = build_operator(n)
    model = constant_diffusion([[1.0, 0.35], [0.35, 0.8]])
    u0 = random_state(rng, n, r)
    target = random_state(rng, n, r)
    yt = to_dense(target)
    f = (yt - to_dense(u0)) / h + _apply_full(op, model, h, yt)
    u1, diag = als_variational_step(u0, h, h, (f, np.eye(n)), op, model)
    np.testing.assert_allclose(to_dense(u1), yt,
                               atol=1e-9 * np.linalg.norm(yt))
    assert diag.galerkin_residual < 1e-8


def _apply_full(op, model, t, y):
    from lowrankpde.galerkin import apply_operator
    return apply_operator(op, model.alpha(t), y)


def test_als_full_rank_matches_reference():
    # with r = N the manifold fills the whole space, so ALS and the dense
    # solve agree
    rng = np.random.default_rng(35)
    n, h = 5, 0.03
    op = build_operator(n)
    model = constant_diffusion([[0.9, 0.2], [0.2, 0.6]])
    u0 = factorize(rng.standard_normal((n, n)), n)
    f = rng.standard_normal((n, n))
    dense, _ = reference_step(to_dense(u0), h, h, f, op, model)
    u1, _ = als_variational_step(u0, h, h, (f, np.eye(n)), op, model)
    np.testing.assert_allclose(to_dense(u1), dense, atol=1e-9)


def test_als_small_step_stays_close():
    rng = np.random.default_rng(36)
    n, r = 8, 2
    op = build_operator(n)
    model = constant_diffusion([[1.0, 0.3], [0.3, 1.0]])
    u0 = random_state(rng, n, r)
    norms = []
    for h in (1e-3, 1e-4, 1e-5):
        u1, _ = als_variational_step(u0, h, h, (np.zeros((n, n)), np.eye(n)), op, model)
        norms.append(np.linalg.norm(to_dense(u1) - to_dense(u0)))
    # drift shrinks linearly with h
    assert norms[1] < 0.2 * norms[0]
    assert norms[2] < 0.2 * norms[1]


def test_als_objective_trace_monotone():
    rng = np.random.default_rng(37)
    n, r, h = 10, 3, 0.02
    op = build_operator(n)
    model = rotating_diffusion(1.0, 0.2, 1.5)
    u0 = random_state(rng, n, r)
    f = rng.standard_normal((n, n))
    u1, diag = als_variational_step(u0, h, h, (f, np.eye(n)), op, model)
    trace = np.asarray(diag.objective_trace)
    assert trace.size >= 2
    tol = 1e-12 * max(1.0, abs(trace[0]))
    assert np.all(np.diff(trace) <= tol)
    assert diag.objective_decreased
    # the final trace entry is the reported objective
    assert trace[-1] == pytest.approx(diag.objective_value, rel=1e-12)
    assert trace[-1] == pytest.approx(
        step_objective(u1, u0, h, h, (f, np.eye(n)), op, model), rel=1e-10)


def test_als_warm_start_saves_inner_iterations(monkeypatch):
    # from the first sweep on, CG starts at the current factor-with-core:
    # fewer iterations than starts at zero, the same step up to the solve
    # tolerance, and F still decreases at every half-sweep
    rng = np.random.default_rng(51)
    n, r, h = 32, 4, 0.01
    op = build_operator(n)
    model = rotating_diffusion(1.0, 0.3, 1.0)
    u0 = smooth_state(rng, n, r, 1.0)
    pair = (rng.standard_normal((n, 2)), rng.standard_normal((n, 2)))
    warm, warm_diag = als_variational_step(u0, h, h, pair, op, model)
    pcg = stepping._pcg
    monkeypatch.setattr(stepping, "_pcg", lambda apply, denom, rhs, x0, image: pcg(
        apply, denom, rhs, np.zeros_like(rhs), np.zeros_like(rhs)))
    cold, cold_diag = als_variational_step(u0, h, h, pair, op, model)
    assert warm_diag.sweeps_used == cold_diag.sweeps_used > 2
    assert 0 < warm_diag.inner_iterations < cold_diag.inner_iterations
    gap = np.linalg.norm(to_dense(warm) - to_dense(cold))
    assert gap <= 1e-10 * np.linalg.norm(to_dense(cold))
    trace = np.asarray(warm_diag.objective_trace)
    assert np.all(np.diff(trace) <= 1e-12 * max(1.0, abs(trace[0])))


def test_half_sweep_trace_entries_are_f_at_the_swept_states():
    # between the evaluated first and last entries the trace holds the
    # minimum each half-sweep's solve reports: after sweep k it is F at the
    # state a run capped at k sweeps returns, and the trace stays monotone
    rng = np.random.default_rng(51)
    n, r, h = 32, 4, 0.01
    op = build_operator(n)
    model = rotating_diffusion(1.0, 0.3, 1.0)
    u0 = smooth_state(rng, n, r, 1.0)
    pair = (rng.standard_normal((n, 2)), rng.standard_normal((n, 2)))
    _, diag = als_variational_step(u0, h, h, pair, op, model)
    trace = np.asarray(diag.objective_trace)
    assert diag.sweeps_used >= 4 and diag.inner_iterations > 0
    assert trace.size == 2 * diag.sweeps_used + 1
    for k in (1, 2, 3):
        capped, _ = als_variational_step(u0, h, h, pair, op, model,
                                         StepOptions(als_max_sweeps=k))
        assert trace[2 * k] == pytest.approx(
            step_objective(capped, u0, h, h, pair, op, model), rel=1e-12)
    assert np.all(np.diff(trace) <= 1e-12 * max(1.0, abs(trace[0])))


def test_splitting_warm_start_matches_a_cold_start(monkeypatch):
    # the splitting step's two solves start at U0 S0 and at the half-sweep's
    # V0 R^T, where CG's quadratic equals F: no more iterations than starts
    # at zero, the same step up to the solve tolerance, and F does not rise
    rng = np.random.default_rng(53)
    n, r, h = 32, 4, 0.01
    op = build_operator(n)
    model = constant_diffusion([[1.0, 0.3], [0.3, 0.6]])
    u0 = smooth_state(rng, n, r, 1.0)
    pair = (rng.standard_normal((n, 2)), rng.standard_normal((n, 2)))
    warm, warm_diag = splitting_euler_step(u0, h, h, pair, op, model)
    pcg = stepping._pcg
    monkeypatch.setattr(stepping, "_pcg", lambda apply, denom, rhs, x0, image: pcg(
        apply, denom, rhs, np.zeros_like(rhs), np.zeros_like(rhs)))
    cold, cold_diag = splitting_euler_step(u0, h, h, pair, op, model)
    assert 0 < warm_diag.inner_iterations <= cold_diag.inner_iterations
    gap = np.linalg.norm(to_dense(warm) - to_dense(cold))
    assert gap <= 1e-10 * np.linalg.norm(to_dense(cold))
    assert warm_diag.objective_decreased


def test_inner_iterations_are_recorded():
    # counted only when a mixed term makes the solve iterative
    rng = np.random.default_rng(52)
    n, r, h = 12, 3, 0.01
    op = build_operator(n)
    u0 = random_state(rng, n, r)
    pair = (rng.standard_normal((n, 1)), rng.standard_normal((n, 1)))
    for a12 in (0.0, 0.3):
        model = constant_diffusion([[1.0, a12], [a12, 0.6]])
        records = [als_variational_step(u0, h, h, pair, op, model)[1],
                   splitting_euler_step(u0, h, h, pair, op, model)[1],
                   reference_step(to_dense(u0), h, h, pair[0] @ pair[1].T, op, model)[1]]
        for diag in records:
            assert (diag.inner_iterations > 0) == (a12 != 0.0)


@pytest.mark.parametrize("field, value", [
    ("als_max_sweeps", 0), ("als_max_sweeps", -3), ("als_max_sweeps", 2.0),
    ("als_max_sweeps", True), ("als_max_sweeps", "5")])
def test_step_options_reject_bad_values(field, value):
    with pytest.raises(ValueError, match=field):
        StepOptions(**{field: value})
    # the edge that stays allowed
    StepOptions(als_max_sweeps=np.int64(1))


def test_als_beats_anchor_objective():
    # default- and single-sweep runs both end below the starting objective
    rng = np.random.default_rng(38)
    n, r, h = 8, 2, 0.05
    op = build_operator(n)
    model = constant_diffusion([[0.8, 0.3], [0.3, 0.9]])
    u0 = random_state(rng, n, r)
    f = rng.standard_normal((n, n))
    start = step_objective(u0, u0, h, h, (f, np.eye(n)), op, model)
    for opts in (StepOptions(), StepOptions(als_max_sweeps=1)):
        u1, _ = als_variational_step(u0, h, h, (f, np.eye(n)), op, model, opts)
        assert step_objective(u1, u0, h, h, (f, np.eye(n)), op, model) < start


def test_als_step_can_stop_at_a_stationary_point_above_the_minimizer():
    # ALS from the anchor guarantees F decrease and a stationary point, not
    # the minimizer of F over the rank-r set (ROADMAP item 20).  On this
    # strongly mixed step both the package's step and ALS from the rank-r
    # truncation of the unconstrained step converge (residual at roundoff),
    # and the package's F is the higher one; seed and h are those of the
    # probe that found the case
    n, r, h = 16, 3, 0.3
    op, model = build_operator(n), constant_diffusion([[1.0, 0.45], [0.45, 0.5]])
    u0 = sample_state(np.random.default_rng(1), n, r)
    pair = rhs_mean_factors(zero_source(n), 0.0, h)
    _, diag = als_variational_step(u0, h, h, pair, op, model)
    y, _ = reference_step(to_dense(u0), h, h, np.zeros((n, n)), op, model)
    step = _Step(op, model, h, h, u0, pair)
    start = factorize(y, r)
    (left, right), core = step.frames(start), start.core
    for _ in range(2000):
        left, r_k, _, _ = step.half_sweep(0, right, left, core)
        right, r_w, _, _ = step.half_sweep(1, left, right, r_k.T)
        core = r_w.T
    value = step.objective(core, left, right)
    assert diag.galerkin_residual <= 1e-10
    assert step.residual(core, left, right) <= 1e-10
    assert diag.sweeps_used < 100
    assert (diag.objective_value - value) / abs(value) > 1e-5


def test_galerkin_residual_is_projected_defect():
    rng = np.random.default_rng(39)
    n, h = 6, 0.04
    op = build_operator(n)
    model = constant_diffusion([[1.0, 0.25], [0.25, 0.7]])
    u0 = random_state(rng, n, 2)
    f = rng.standard_normal((n, n))
    u1, _ = als_variational_step(u0, h, h, (f, np.eye(n)), op, model)
    defect = (to_dense(u1) - to_dense(u0)) / h + _apply_full(op, model, h,
                                                             to_dense(u1)) - f
    oracle = np.linalg.norm(tangent_project(u1, defect))
    assert galerkin_residual(u1, u0, h, h, (f, np.eye(n)), op, model) == pytest.approx(
        oracle, abs=1e-12)
    assert oracle < 1e-9                      # converged step is near-stationary


def test_galerkin_residual_at_analytic_step():
    # the closed-form single-mode step solves the full system, so its
    # projected defect is numerically zero
    n, h = 6, 0.02
    op = build_operator(n)
    model = constant_diffusion(np.eye(2))
    u0 = mode_state(n, [(0, 1.0)])
    u1 = mode_state(n, [(0, 1.0 / (1.0 + 2.0 * np.pi ** 2 * h))])
    assert galerkin_residual(u1, u0, h, h, (np.zeros((n, n)), np.eye(n)), op,
                             model) <= 1e-11


# ---------------------------------------------------------------------------
# factored evaluation against dense formulas


def smooth_state(rng, n, r, scale):
    """Orthonormal factors of n^-2-weighted Gaussian blocks and a random,
    non-diagonal core: a state whose defect stays O(1) at any N."""
    weight = np.arange(1, n + 1, dtype=float)[:, None] ** -2.0
    q1, _ = np.linalg.qr(rng.standard_normal((n, r)) * weight)
    q2, _ = np.linalg.qr(rng.standard_normal((n, r)) * weight)
    return LowRankState(q1, scale * rng.standard_normal((r, r)), q2)


@pytest.mark.parametrize("n, a12", [
    pytest.param(n, a12, id=f"{n}" + ("" if a12 else "-no-mixed-term"))
    for a12 in (0.3, 0.0) for n in (7, 40)])
def test_factored_objective_and_residual_match_dense_formulas(n, a12):
    # both branches of the residual: with the mixed term's G blocks and without
    rng = np.random.default_rng(46 + n)
    r, h = 3, 0.05
    op = build_operator(n)
    model = constant_diffusion([[1.0, a12], [a12, 0.7]])
    weight = np.arange(1, n + 1, dtype=float) ** -2.0
    src = separable_source(n, [(cosine_profile(0.5, 2.0), rng.standard_normal(n) * weight,
                                rng.standard_normal(n) * weight),
                               (TimeProfile("constant", 0.2), rng.standard_normal(n) * weight,
                                rng.standard_normal(n) * weight)])
    pair = rhs_mean_factors(src, 0.0, h)
    f = sum(prof.mean(0.0, h) * np.outer(p, q) for prof, p, q in zip(src.profiles, src.p, src.q))
    u_prev = smooth_state(rng, n, r, 0.1)
    u = smooth_state(rng, n, r, 0.1)
    y, y_prev = to_dense(u), to_dense(u_prev)
    a_y = _apply_full(op, model, h, y)
    d = y - y_prev
    objective = np.sum(d * d) / (2 * h) + 0.5 * np.sum(a_y * y) - np.sum(f * y)
    defect = d / h + a_y - f
    p1 = u.u1_factors @ u.u1_factors.T
    p2 = u.u2_factors @ u.u2_factors.T
    residual = np.linalg.norm(p1 @ defect + defect @ p2 - p1 @ defect @ p2)
    assert residual > 0.1                     # the comparison is not of two zeros
    got = step_objective(u, u_prev, h, h, pair, op, model)
    assert abs(got - objective) <= 1e-12 * max(1.0, abs(objective))
    got = galerkin_residual(u, u_prev, h, h, pair, op, model)
    assert abs(got - residual) <= 1e-12


def test_sweep_change_resolves_nearby_states():
    # the ALS stop test's distance between the states before and after a
    # sweep: old -> mid changes the left factor-with-core, mid -> new the
    # right one; the states are 1e-13 apart relative to their norm, where a
    # difference of squared norms only sees roundoff of order sqrt(eps) |Y|
    rng = np.random.default_rng(47)
    n, r, delta = 12, 3, 1e-13
    old = random_state(rng, n, r)
    u, s, v = old.u1_factors, old.core, old.u2_factors
    u_new, r_k = qr_nonneg(u @ s + delta * rng.standard_normal((n, r)))
    v_new, r_w = qr_nonneg(v @ r_k.T + delta * rng.standard_normal((n, r)))
    new = LowRankState(u_new, r_w.T, v_new)

    exact = np.vectorize(Fraction, otypes=[object])

    def exact_dense(state):
        return exact(state.u1_factors) @ exact(state.core) @ exact(state.u2_factors).T

    gap = exact_dense(new) - exact_dense(old)
    oracle = math.sqrt(float(np.sum(gap * gap)))
    assert 1e-14 < oracle / np.linalg.norm(old.core) < 1e-12
    assert h_distance(new, old) == pytest.approx(oracle, rel=1e-2)


def test_step_linearity_under_scaling():
    rng = np.random.default_rng(40)
    n, r, h = 7, 2, 0.03
    op = build_operator(n)
    model = constant_diffusion([[0.9, 0.15], [0.15, 0.5]])
    u0 = random_state(rng, n, r)
    f = rng.standard_normal((n, n))
    c = 37.5
    scaled = LowRankState(u0.u1_factors, c * u0.core, u0.u2_factors)
    u1, _ = als_variational_step(u0, h, h, (f, np.eye(n)), op, model)
    u1c, _ = als_variational_step(scaled, h, h, (c * f, np.eye(n)), op, model)
    np.testing.assert_allclose(to_dense(u1c), c * to_dense(u1),
                               rtol=1e-11, atol=1e-11 * c)


@pytest.mark.parametrize("own_axis, a12, warm", [
    pytest.param(own_axis, a12, warm, id=f"{own_axis}-{a12}" + ("-warm" if warm else ""))
    for warm in (False, True) for own_axis in (0, 1) for a12 in (0.0, 0.3)])
def test_half_sweep_solve_matches_kronecker_oracle(own_axis, a12, warm):
    # N r = 2400 unknowns; a12 = 0 is the exact Sylvester solve, a12 != 0 the
    # preconditioned conjugate gradient, started at a zero core or from a
    # perturbed solution.  The right-hand side is the half-sweep's own, Y0 B + h F B
    # (transposed for the right axis), with a random two-term source.
    rng = np.random.default_rng(45)
    n, r, h = 300, 8, 0.05
    op = build_operator(n)
    alpha = np.array([[1.0, a12], [a12, 0.7]])
    basis, _ = np.linalg.qr(rng.standard_normal((n, r)))
    step = _Step(op, constant_diffusion(alpha), h, h, LowRankState(basis, np.eye(r), basis),
                 (rng.standard_normal((n, 2)), rng.standard_normal((n, 2))))
    frozen = step.frame(basis, 1 - own_axis)
    rhs = step.factors[own_axis] @ (step.weights[own_axis] @ frozen.overlap.T)
    own, other = (alpha[0, 0], alpha[1, 1]) if own_axis == 0 else (alpha[1, 1], alpha[0, 0])
    stiff = op.stiffness_1d
    g = op.grad_coupling_1d
    mat = (np.eye(n * r)
           + h * (np.kron(np.eye(r), own * stiff)
                  + np.kron(other * basis.T @ stiff @ basis, np.eye(n))
                  + 2 * a12 * np.kron((basis.T @ g @ basis).T, g)))
    oracle = np.linalg.solve(mat, rhs.ravel(order="F")).reshape((n, r), order="F")
    x0_basis, core = basis, np.zeros((r, r))
    if warm:
        x0_basis, core = np.linalg.qr(oracle + 1e-3 * rng.standard_normal((n, r)))
    frame, core, _, _ = step.half_sweep(own_axis, frozen, step.frame(x0_basis, own_axis), core)
    assert np.linalg.norm(frame.basis @ core - oracle) <= 1e-12 * np.linalg.norm(oracle)


def left_half_sweep(seed):
    """A left half-sweep with a12 = 0.3 at N = 60, r = 4 and a two-term
    source: the step, the frozen right frame, the current left frame and core
    (CG's warm start is their product), and the half-sweep's right-hand side
    in the original coordinates."""
    rng = np.random.default_rng(seed)
    n, r, h = 60, 4, 0.01
    op = build_operator(n)
    model = constant_diffusion([[1.0, 0.3], [0.3, 0.7]])
    u, v, w = (np.linalg.qr(rng.standard_normal((n, r)))[0] for _ in range(3))
    step = _Step(op, model, h, h, LowRankState(u, np.eye(r), v),
                 (rng.standard_normal((n, 2)), rng.standard_normal((n, 2))))
    frozen = step.frame(w, 1)
    return (step, frozen, step.frame(u, 0), rng.standard_normal((r, r)),
            step.factors[0] @ (step.weights[0] @ frozen.overlap.T))


def half_sweep_system(monkeypatch, seed):
    """The (apply, denom, rhs) that ``_Step.half_sweep`` hands to ``_pcg``
    for ``left_half_sweep(seed)`` at a zero core: the system rotated into the
    eigenbasis Q of the frozen B^T L B, with the right-hand side formed as
    one product of the stacked factors, and a zero start and image."""
    step, frozen, own, core, _ = left_half_sweep(seed)
    seen = []
    monkeypatch.setattr(stepping, "_pcg", lambda *args: seen.append(args) or (args[2], 0))
    step.half_sweep(0, frozen, own, np.zeros_like(core))
    monkeypatch.undo()
    (apply, denom, got_rhs, x0, image), = seen
    evecs = np.linalg.eigh(frozen.lam)[1]
    assert np.array_equal(got_rhs, step.factors[0] @ (step.weights[0] @ (frozen.overlap.T @ evecs)))
    assert not x0.any() and not image.any()
    return apply, denom, got_rhs


def scipy_cg(apply, precondition, rhs):
    """scipy's ``cg`` from zero on the row-major flattened blocks, at the
    stop and cap of ``_pcg``: (solution block, iterations)."""
    shape, size = rhs.shape, rhs.size

    def linear(fn):
        return LinearOperator((size, size), matvec=lambda v: fn(v.reshape(shape)).ravel(),
                              dtype=float)

    seen = []
    x, info = cg(linear(apply), rhs.ravel(), rtol=stepping._CG_RTOL, atol=0.0,
                 maxiter=max(1000, 20 * size), M=linear(precondition), callback=seen.append)
    assert info == 0
    return x.reshape(shape), len(seen)


def test_pcg_cold_start_is_scipy_cg_bitwise(monkeypatch):
    # from a zero start, with the division by denom as scipy's M
    apply, denom, rhs = half_sweep_system(monkeypatch, 46)
    want, want_iterations = scipy_cg(apply, lambda y: y / denom, rhs)
    got, iterations = stepping._pcg(apply, denom, rhs, np.zeros_like(rhs), np.zeros_like(rhs))
    assert np.array_equal(got, want)
    assert iterations == want_iterations > 0


def test_pcg_from_the_exact_solution_takes_no_iteration(monkeypatch):
    apply, denom, _ = half_sweep_system(monkeypatch, 47)
    exact = np.random.default_rng(48).standard_normal((60, 4))
    got, iterations = stepping._pcg(apply, denom, apply(exact), exact.copy(), apply(exact))
    assert iterations == 0
    assert np.array_equal(got, exact)


def test_pcg_takes_the_same_iterations_in_the_eigenbasis(monkeypatch):
    # the same system in the original coordinates X = Y Q^T, solved by
    # scipy's cg: three-term apply, Sylvester preconditioner by two products
    # with Q; preconditioned CG is invariant under that orthogonal change of
    # variables
    step, frozen, own, core, rhs = left_half_sweep(50)
    apply, denom, rotated = half_sweep_system(monkeypatch, 50)
    a, h, c, g = step.alpha, step.h, step.mixed, step.op.grad_coupling_1d
    own_lam = a[0, 0] * step.op.stiffness_diag[:, None]
    evecs = np.linalg.eigh(frozen.lam)[1]

    def apply_x(x):
        return x + h * (own_lam * x + a[1, 1] * (x @ frozen.lam) + c * (g @ x @ frozen.g))

    want, want_iterations = scipy_cg(apply_x, lambda x: ((x @ evecs) / denom) @ evecs.T, rhs)
    got, iterations = stepping._pcg(apply, denom, rotated, np.zeros_like(rotated),
                                    np.zeros_like(rotated))
    assert iterations == want_iterations > 0
    assert np.linalg.norm(got @ evecs.T - want) <= 1e-13 * np.linalg.norm(want)
    frame, core, its, _ = step.half_sweep(0, frozen, own, np.zeros_like(core))
    assert its == want_iterations
    assert np.linalg.norm(frame.basis @ core - want) <= 1e-13 * np.linalg.norm(want)


def test_reference_step_starts_cg_at_the_previous_state(monkeypatch):
    # x0 = Y_prev with the image Y_prev + h A Y_prev, where A Y_prev is the
    # product F(Y_prev) needs: the step applies A once per CG iteration plus
    # twice, and CG updates a copy, not the stored previous state
    rng = np.random.default_rng(56)
    n, h = 24, 0.01
    op = build_operator(n)
    model = constant_diffusion([[1.0, 0.3], [0.3, 0.7]])
    y_prev, f_mean = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    kept = y_prev.copy()
    pcg, apply_operator = stepping._pcg, stepping.apply_operator
    starts, applies = [], []

    def spy(apply, denom, rhs, x0, image):
        starts.append((x0.copy(), image))
        return pcg(apply, denom, rhs, x0, image)

    monkeypatch.setattr(stepping, "_pcg", spy)
    monkeypatch.setattr(stepping, "apply_operator",
                        lambda *args: applies.append(args) or apply_operator(*args))
    _, diag = reference_step(y_prev, h, h, f_mean, op, model)
    (x0, image), = starts
    assert np.array_equal(x0, kept)
    want = x0 + h * apply_operator(op, model.alpha(h), x0)
    assert np.linalg.norm(image - want) <= 1e-13 * np.linalg.norm(want)
    assert diag.inner_iterations > 0
    assert len(applies) == diag.inner_iterations + 2
    assert np.array_equal(y_prev, kept)


def test_warm_start_image_is_read_from_the_frame(monkeypatch):
    # CG starts at U S Q; its image denom * x0 + ((G U)(S Q)) Gamma' comes
    # from the own frame's G U, and equals the operator applied to x0
    step, frozen, own, core, _ = left_half_sweep(54)
    seen = []
    monkeypatch.setattr(stepping, "_pcg", lambda *args: seen.append(args) or (args[2], 0))
    step.half_sweep(0, frozen, own, core)
    (apply, _, _, x0, image), = seen
    assert np.array_equal(x0, own.basis @ (core @ np.linalg.eigh(frozen.lam)[1]))
    want = apply(x0)
    assert np.linalg.norm(image - want) <= 1e-13 * np.linalg.norm(want)


def test_warm_half_sweep_multiplies_by_g_once_per_iteration_and_frame(monkeypatch):
    # the start's image costs no product with G: one per CG iteration, and
    # one for the new frame's G U, each through galerkin._apply_g
    step, frozen, own, core, _ = left_half_sweep(55)
    products, apply_g = [], stepping._apply_g
    monkeypatch.setattr(stepping, "_apply_g", lambda *args: products.append(1) or apply_g(*args))
    _, _, iterations, _ = step.half_sweep(0, frozen, own, core)
    assert iterations > 0
    assert len(products) == iterations + 1


#: The functions of a rank-r step that run on every half-sweep or its stop test.
HOT_PATH = (_Step.frame, _Step.reduced, _Step.objective, _Step.residual, _Step.half_sweep,
            galerkin.h_distance, _forward_splitting_step, galerkin._apply_g)


def test_hot_path_multiplies_blocks_with_dot():
    # ndarray.dot reaches the same gemm as @, so results are bitwise equal,
    # without the matmul ufunc's dispatch: at r <= 8 that dispatch costs about
    # as much as the product itself
    for fn in HOT_PATH:
        tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
        lines = [node.lineno for node in ast.walk(tree)
                 if isinstance(getattr(node, "op", None), ast.MatMult)]
        assert not lines, f"{fn.__qualname__} uses @ on its lines {lines}"


def test_zero_source_factors_are_accepted():
    rng = np.random.default_rng(48)
    n, r, h = 8, 2, 0.02
    op = build_operator(n)
    model = rotating_diffusion(1.0, 0.3, 1.0)
    u0 = random_state(rng, n, r)
    pair = rhs_mean_factors(zero_source(n), 0.0, h)
    assert pair[0].shape == pair[1].shape == (n, 0)
    dense_zero = (np.zeros((n, n)), np.eye(n))
    a, _ = als_variational_step(u0, h, h, pair, op, model)
    b, _ = als_variational_step(u0, h, h, dense_zero, op, model)
    np.testing.assert_allclose(to_dense(a), to_dense(b), rtol=0, atol=1e-13)
    a, _ = splitting_euler_step(u0, h, h, pair, op, model)
    b, _ = splitting_euler_step(u0, h, h, dense_zero, op, model)
    np.testing.assert_allclose(to_dense(a), to_dense(b), rtol=0, atol=1e-13)


def test_manifold_step_allocates_no_dense_matrix():
    # one ALS step and one splitting step with its diagnostics at N = 1024
    # must stay far under the 8 MB of a single N x N array; the operator
    # itself (dense G included) is built before tracing starts
    n, r, h = 1024, 4, 1e-3
    rng = np.random.default_rng(49)
    op = build_operator(n)
    u0 = smooth_state(rng, n, r, 1.0)
    weight = np.arange(1, n + 1, dtype=float) ** -2.0
    src = separable_source(n, [(cosine_profile(1.0, 3.0), rng.standard_normal(n) * weight,
                                rng.standard_normal(n) * weight) for _ in range(2)])
    for a12 in (0.0, 0.3):
        model = constant_diffusion([[1.0, a12], [a12, 0.5]])
        if a12 != 0.0:
            op.grad_coupling_1d   # G stays a dense N x N block until it has a fast apply
        tracemalloc.start()
        try:
            pair = rhs_mean_factors(src, 0.0, h)
            als_variational_step(u0, h, h, pair, op, model)
            u1, _ = splitting_euler_step(u0, h, h, pair, op, model)
            step_objective(u1, u0, h, h, pair, op, model)
            galerkin_residual(u1, u0, h, h, pair, op, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 4, (a12, peak)
    # with a diagonal tensor nothing allocates an N x N array: neither
    # building the operator nor a 3-step integrate with either method
    diagonal = constant_diffusion([[1.0, 0.0], [0.0, 0.5]])
    for method in ("als", "splitting"):
        tracemalloc.start()
        try:
            build_operator(n)
            integrate(method, u0, 3 * h, 3, diagonal, src)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 4, (method, peak)


# ---------------------------------------------------------------------------
# splitting and equivalence


def test_splitting_single_mode_resolvent():
    n, h = 6, 0.01
    op = build_operator(n)
    model = constant_diffusion(np.eye(2))
    u1, _ = splitting_euler_step(mode_state(n, [(0, 1.0)]), h, h,
                                 (np.zeros((n, n)), np.eye(n)), op, model)
    expected = np.zeros((n, n))
    expected[0, 0] = 1.0 / (1.0 + 2.0 * np.pi ** 2 * h)
    np.testing.assert_allclose(to_dense(u1), expected, atol=1e-13)


@pytest.mark.parametrize("a12", [0.0, 0.3])
def test_integrate_splitting_reports_the_step_diagnostics(a12):
    # the one-sweep step, and ALS, report what step_objective and
    # galerkin_residual evaluate at the anchor and the result of each step;
    # the energy audit reads F from this record
    rng = np.random.default_rng(50)
    n, r, h, steps = 16, 3, 0.01, 4
    op = build_operator(n)
    model = constant_diffusion([[1.0, a12], [a12, 0.5]])
    src = separable_source(n, [(cosine_profile(1.0, 3.0), rng.standard_normal(n),
                                rng.standard_normal(n)) for _ in range(2)])
    u0 = smooth_state(rng, n, r, 1.0)
    for method in ("splitting", "als"):
        traj = integrate(method, u0, steps * h, steps, model, src)
        assert len(traj.diagnostics) == steps
        for i, diag in enumerate(traj.diagnostics):
            prev, state = traj.states[i], traj.states[i + 1]
            pair = rhs_mean_factors(src, i * h, (i + 1) * h)
            t1 = traj.times[i + 1]
            assert diag.sweeps_used == 1 or method == "als"
            assert diag.objective_trace[0] == pytest.approx(
                step_objective(prev, prev, h, t1, pair, op, model), rel=1e-12)
            assert diag.objective_value == pytest.approx(
                step_objective(state, prev, h, t1, pair, op, model), rel=1e-12)
            assert diag.galerkin_residual == pytest.approx(
                galerkin_residual(state, prev, h, t1, pair, op, model), rel=1e-12)
            assert diag.objective_decreased


def test_splitting_s_step_forms_agree():
    rng = np.random.default_rng(41)
    for trial in range(5):
        n = int(rng.integers(4, 10))
        r = int(rng.integers(1, min(4, n) + 1))
        h = 10.0 ** rng.uniform(-4, -1)
        op = build_operator(n)
        model = constant_diffusion([[1.0, 0.3], [0.3, 0.8]])
        u0 = random_state(rng, n, r)
        f = rng.standard_normal((n, n))
        a, _ = splitting_euler_step(u0, h, h, (f, np.eye(n)), op, model)
        b = _forward_splitting_step(u0, h, h, (f, np.eye(n)), op, model)
        gap = np.linalg.norm(to_dense(a) - to_dense(b))
        assert gap <= 1e-12 * np.linalg.norm(to_dense(a))


# ---------------------------------------------------------------------------
# the integration loop


@pytest.mark.parametrize("method", ["als", "splitting"])
def test_rotation_with_equal_eigenvalues_has_no_mixed_term(method):
    # lambda1 == lambda2: every rotation leaves diag(lam, lam) alone, so the
    # tensor is exactly that at every t (R^T diag R would leave rounding
    # off the diagonal), and no step runs the mixed-term conjugate gradient
    model = rotating_diffusion(0.3, 0.3, 1.0)
    assert model.constant_diagonal
    for t in (0.0, 0.1, 0.37, 1.0, 2.5):
        assert np.array_equal(model.alpha(t), np.diag([0.3, 0.3])), t
    u0 = random_state(np.random.default_rng(17), 16, 2)
    traj = integrate(method, u0, 1.0, 10, model, zero_source(16))
    assert [d.inner_iterations for d in traj.diagnostics] == [0] * 10


def test_integrate_bookkeeping():
    u0 = mode_state(8, [(0, 1.0), (1, 0.5)])
    model = constant_diffusion([[0.02, 0.0], [0.0, 0.02]])
    traj = integrate("als", u0, 0.1, 10, model, zero_source(8))
    assert len(traj.states) == 11
    assert len(traj.diagnostics) == 10
    np.testing.assert_allclose(traj.times, np.linspace(0.0, 0.1, 11), atol=1e-15)
    assert traj.step_size == pytest.approx(0.01)
    assert traj.halted_early is None


def test_integrate_reference_dense_states():
    u0 = mode_state(6, [(0, 1.0)])
    model = constant_diffusion(np.eye(2) * 0.05)
    traj = integrate("reference", u0, 0.05, 5, model, zero_source(6))
    assert isinstance(traj.states[-1], np.ndarray)
    assert all(math.isnan(d.sigma_r) and math.isnan(d.sigma_1) for d in traj.diagnostics)
    # matches the per-mode resolvent power
    rho = 1.0 / (1.0 + 0.05 * 2.0 * np.pi ** 2 * 0.01)
    assert traj.states[-1][0, 0] == pytest.approx(rho ** 5, abs=1e-12)


def test_integrate_reference_matches_dense_oracle_each_step():
    rng = np.random.default_rng(44)
    n = 8
    op = build_operator(n)
    model = constant_diffusion([[0.6, 0.2], [0.2, 0.5]])
    y0 = rng.standard_normal((n, n))
    f_p = rng.standard_normal(n)
    f_q = rng.standard_normal(n)
    src = separable_source(n, [(TimeProfile("constant", 1.0), f_p, f_q)])
    n_steps, T = 12, 0.12
    traj = integrate("reference", y0, T, n_steps, model, src)
    h = T / n_steps
    y = y0.copy()
    f = np.outer(f_p, f_q)
    for k in range(1, n_steps + 1):
        y = dense_backward_euler(op, model, h, k * h, y, f)
        assert np.linalg.norm(traj.states[k] - y) <= 1e-9 * max(np.linalg.norm(y), 1.0)


def test_integrate_rejects_a_zero_core_start():
    # an all-zero core has sigma_r = sigma_1 = 0: under the rank floor at the
    # start, as factorize counts it, not a rank collapse inside step 1; the
    # message names sigma_r and the floor, also for a start just under it
    for core, numbers in ((np.zeros((2, 2)), "sigma_2 = 0.000e+00, floor 0.000e+00"),
                          (np.diag([2.0, 1.9e-12]), "sigma_2 = 1.900e-12, floor 2.000e-12")):
        start = LowRankState(np.eye(8, 2), core, np.eye(8, 2))
        for method in ("als", "splitting"):
            with pytest.raises(RankDeficiencyError) as err:
                integrate(method, start, 0.1, 2, constant_diffusion(np.eye(2)), zero_source(8))
            assert str(err.value) == f"initial state is already under the rank floor: {numbers}"


def test_integrate_rejects_a_bool_final_time():
    # as n_steps=True is rejected, T=True must not run as T = 1
    with pytest.raises(ValueError, match="final time must be positive and finite, got True"):
        integrate("als", mode_state(6, [(0, 1.0)]), True, 2, constant_diffusion(np.eye(2)),
                  zero_source(6))


def test_integrate_validation_errors():
    u0 = mode_state(6, [(0, 1.0)])
    model = constant_diffusion(np.eye(2))
    src = zero_source(6)
    with pytest.raises(ValueError):
        integrate("rk4", u0, 0.1, 10, model, src)
    with pytest.raises(ValueError):
        integrate("als", u0, 0.1, 0, model, src)
    for n_steps in (True, 2.5):
        with pytest.raises(ValueError, match="n_steps"):
            integrate("als", u0, 0.1, n_steps, model, src)
    with pytest.raises(ValueError):
        integrate("als", u0, -0.1, 10, model, src)
    for T in (math.inf, math.nan):
        with pytest.raises(ValueError, match="final time"):
            integrate("als", u0, T, 10, model, src)
    with pytest.raises(ValueError):
        integrate("als", u0, 0.1, 10, model, zero_source(7))   # dim mismatch
    # a stack of two starts, or a non-square dense start, is rejected by name
    stack = LowRankState(*(np.stack([x, x]) for x in (u0.u1_factors, u0.core, u0.u2_factors)))
    for method in METHODS:
        with pytest.raises(ValueError, match="stacked or non-square"):
            integrate(method, stack, 0.1, 10, model, src)
    with pytest.raises(ValueError, match="stacked or non-square"):
        integrate("reference", np.ones((6, 5)), 0.1, 10, model, src)
    # a non-finite start is rejected by name, not by a failed SVD or a
    # conjugate gradient run to its cap
    nan_core = LowRankState(u0.u1_factors, np.full((1, 1), math.nan), u0.u2_factors)
    inf_factor = LowRankState(np.full((6, 1), math.inf), u0.core, u0.u2_factors)
    mixed = constant_diffusion([[1.0, 0.3], [0.3, 1.0]])
    for method in METHODS:
        for start in (nan_core, inf_factor):
            with pytest.raises(ValueError, match="start u0 must have finite entries"):
                integrate(method, start, 0.1, 10, mixed, src)
    for bad in (math.nan, math.inf):
        dense = np.eye(6)
        dense[2, 3] = bad
        with pytest.raises(ValueError, match="start u0 must have finite entries"):
            integrate("reference", dense, 0.1, 10, mixed, src)


@pytest.mark.parametrize("method", ["als", "splitting"])
def test_integrate_takes_one_svd_per_state(monkeypatch, method):
    # one SVD of the start's core and one per step: the rank monitor reads
    # sigma_r and sigma_1 from the step record, not from a second SVD; the
    # counter replaces both bindings, so a call from inside manifold counts too
    calls = []

    def counting(state):
        calls.append(state)
        return singular_values(state)

    for module in (manifold, stepping):
        monkeypatch.setattr(module, "singular_values", counting)
    n, steps = 8, 20
    model = rotating_diffusion(1.0, 0.25, 1.0)
    traj = integrate(method, random_state(np.random.default_rng(52), n, 2), 0.2, steps, model,
                     zero_source(n))
    assert len(traj.diagnostics) == steps and traj.halted_early is None
    assert len(calls) == steps + 1
    for diag, state in zip(traj.diagnostics, traj.states[1:]):
        svals = singular_values(state)
        assert (diag.sigma_r, diag.sigma_1) == (svals[-1], svals[0])


def test_integrate_rejects_missing_source():
    u0 = mode_state(6, [(0, 1.0)])
    model = constant_diffusion(np.eye(2))
    for method, start in (("als", u0), ("reference", to_dense(u0))):
        with pytest.raises(TypeError, match="zero_source"):
            integrate(method, start, 0.1, 10, model, None)


def test_integrate_rejects_collapsed_start():
    u1 = np.zeros((6, 2)); u1[0, 0] = 1.0; u1[1, 1] = 1.0
    u0 = LowRankState(u1, np.diag([1.0, 1e-14]), u1.copy())
    model = constant_diffusion(np.eye(2))
    with pytest.raises(RankDeficiencyError):
        integrate("als", u0, 0.1, 10, model, zero_source(6))


def test_integrate_halts_on_rank_collapse():
    # start with two laplacian eigenmodes; the higher one decays faster, so
    # sigma_2/sigma_1 shrinks by a fixed factor each step and must cross the
    # monitor's floor, DEFAULT_RANK_FLOOR, at a predictable index
    h, floor = 0.01, DEFAULT_RANK_FLOOR
    u0 = mode_state(8, [(0, 1.0), (1, 1.0)])
    model = constant_diffusion(np.eye(2))
    traj = integrate("als", u0, 4.0, 400, model, zero_source(8), StepOptions())
    assert traj.halted_early is not None
    rho = (1.0 + 2.0 * np.pi ** 2 * h) / (1.0 + 8.0 * np.pi ** 2 * h)
    predicted = int(np.ceil(np.log(floor) / np.log(rho)))
    assert abs(traj.halted_early - predicted) <= 2
    last = traj.diagnostics[-1]
    assert last.sigma_r < floor and last.sigma_r < floor * last.sigma_1
    # trajectory is truncated to the halt, not padded to 400 steps
    assert len(traj.states) == traj.halted_early + 1


@pytest.mark.parametrize("method", ["als", "splitting"])
def test_source_drives_a_singular_value_through_zero(method):
    # where the paper's existence theory stops: a source -2 on mode (2, 2)
    # drives that coefficient of a mode-diagonal state through zero.  Each
    # mode decays in closed form, so the coefficient steps over zero and
    # the state keeps rank 2, far above the rank floor
    h, e2 = 1e-3, np.eye(8)[1]
    source = separable_source(8, [(TimeProfile("constant", -2.0), e2, e2)])
    u0 = LowRankState(np.eye(8, 2), np.diag([1.0, 0.25]), np.eye(8, 2))
    model = constant_diffusion(np.eye(2))
    traj = integrate(method, u0, 300 * h, 300, model, source)
    assert traj.halted_early is None and len(traj.states) == 301
    diagonal = [np.array([1.0, 0.25])]
    for _ in range(300):
        y = diagonal[-1]
        diagonal.append(np.array([y[0], y[1] - 2.0 * h])
                        / (1.0 + np.array([2.0, 8.0]) * np.pi ** 2 * h))
    for state, y in zip(traj.states, diagonal):
        expected = np.zeros((8, 8))
        expected[[0, 1], [0, 1]] = y
        np.testing.assert_allclose(to_dense(state), expected, rtol=0, atol=1e-14)
    assert to_dense(traj.states[-1])[1, 1] == pytest.approx(-0.0253, abs=5e-5)
    ratio = min(d.sigma_r / d.sigma_1 for d in traj.diagnostics)
    assert ratio == pytest.approx(1.42e-3, rel=5e-3)
    # one step of h = 0.125 lands the coefficient exactly on 0.25 - 2 h = 0
    with pytest.raises(RankDeficiencyError) as err:
        integrate(method, u0, 0.125, 1, model, source)
    assert str(err.value) == ("step 1 (t = 0.125): rank collapse during left refactorization "
                              "(rank 2: least |R_kk| = 0.000e+00 under the floor 6.404e-14)")
    # a rotating tensor couples the modes, and the same step runs on
    traj = integrate(method, u0, 0.125, 1, rotating_diffusion(1.0, 0.5, 1.0), source)
    step = traj.diagnostics[0]
    assert traj.halted_early is None
    assert step.sigma_r / step.sigma_1 == pytest.approx(1.36e-2, rel=5e-3)


def test_integrate_error_mentions_step(monkeypatch):
    # force an inner failure partway: sigma collapse below the in-step hard
    # floor triggers a wrapped error naming the step
    u0 = mode_state(8, [(0, 1.0), (1, 1.0)])
    model = constant_diffusion(np.eye(2))
    monkeypatch.setattr(stepping, "DEFAULT_RANK_FLOOR", 0.0)   # disable the graceful monitor
    with pytest.raises(RankDeficiencyError, match="step .*rank collapse during"):
        integrate("als", u0, 40.0, 200, model, zero_source(8))


def numpy_collapse_check(diag):
    """The collapse check by numpy reductions: None, or (rank, sigma, floor)."""
    diag, rel = np.abs(diag), stepping._QR_COLLAPSE_REL
    if diag.min() < rel * max(diag.max(), np.finfo(float).tiny):
        return diag.size, float(diag.min()), float(rel * diag.max())
    return None


_FLOOR = stepping._QR_COLLAPSE_REL      # the in-step floor relative to the largest |R_kk|


@pytest.mark.parametrize("diag", [[1.0], [0.0], [-0.0, 0.0], [2.0, -1e-13, 0.5], [3.0, -3e-15],
                                  [1.0, _FLOOR], [1.0, np.nextafter(_FLOOR, 0.0)],
                                  [-1e-300, 1e-310, 4e-300], [5e-324, 5e-324],
                                  [1.0, np.nan, 1e-20], [np.nan, 1e-20, 1.0], [1.0, np.inf]])
def test_qr_collapse_check_agrees_with_numpy_reductions(diag):
    # the float comparison raises exactly where the numpy one does, and its
    # message names the same rank, sigma and floor
    diag = np.diagonal(np.diag(diag))               # a strided view, as R.diagonal() is
    want = numpy_collapse_check(diag)
    if want is None:
        stepping._check_qr_collapse(diag, "lost rank")
        return
    with pytest.raises(RankDeficiencyError) as err:
        stepping._check_qr_collapse(diag, "lost rank")
    rank, sigma, floor = want
    assert str(err.value) == (f"lost rank (rank {rank}: least |R_kk| = {sigma:.3e} "
                              f"under the floor {floor:.3e})")


def _alpha_turning_nan(a12, entries):
    """A model whose tensor [[1, a12], [a12, 0.5]] has NaN ``entries`` after t = 0.25."""
    def alpha(t):
        a = np.array([[1.0, a12], [a12, 0.5]])
        for i, j in entries if t > 0.25 else ():
            a[i, j] = math.nan
        return a
    return DiffusionModel(alpha, mu=0.4, beta=1.1, lipschitz_t=1.0)


@pytest.mark.parametrize("a12,entries", [(0.0, ((0, 0),)), (0.2, ((0, 1), (1, 0))),
                                         (0.2, ((0, 0), (0, 1), (1, 0), (1, 1)))],
                         ids=["diagonal", "mixed", "all"])
@pytest.mark.parametrize("method", METHODS)
def test_integrate_fails_the_step_that_reads_a_non_finite_tensor(method, a12, entries):
    # step 3 is the first at t > 0.25: it fails naming its index and t before
    # any solve reads the tensor, where the reference step would return NaN
    # states, eigh would fail unnamed, and CG would run to its iteration cap
    u0 = mode_state(8, [(0, 1.0), (1, 0.5)])
    start = u0 if method != "reference" else to_dense(u0)
    with pytest.raises(ValueError, match=r"step 3 \(t = 0\.3\): alpha\(t = 0\.3\) has a non-finite"):
        integrate(method, start, 0.5, 5, _alpha_turning_nan(a12, entries), zero_source(8))


def test_pcg_stops_at_a_residual_that_is_not_finite():
    calls = []

    def apply(x):
        calls.append(1)
        return np.full_like(x, math.nan)

    rhs = np.ones((6, 2))
    with pytest.raises(stepping.InnerSolveError, match="residual is nan at iteration 1"):
        stepping._pcg(apply, np.ones_like(rhs), rhs, np.zeros_like(rhs), np.zeros_like(rhs))
    assert len(calls) == 1


@pytest.mark.parametrize("method", METHODS)
def test_integrate_rejects_options_that_are_not_step_options(method):
    u0 = mode_state(6, [(0, 1.0)])
    start = u0 if method != "reference" else to_dense(u0)
    with pytest.raises(TypeError, match="opts must be a StepOptions or None, got int"):
        integrate(method, start, 0.1, 2, constant_diffusion(np.eye(2)), zero_source(6), 5)


def test_integrate_with_source_matches_reference_at_full_rank():
    rng = np.random.default_rng(43)
    n = 6
    u0 = factorize(rng.standard_normal((n, n)), n)
    model = rotating_diffusion(0.8, 0.3, 2.0)
    src = separable_source(n, [(TimeProfile("constant", 1.0), rng.standard_normal(n),
                                rng.standard_normal(n))])
    traj_r = integrate("reference", to_dense(u0), 0.1, 20, model, src)
    traj_a = integrate("als", u0, 0.1, 20, model, src)
    np.testing.assert_allclose(to_dense(traj_a.states[-1]), traj_r.states[-1],
                               atol=1e-8)
