"""Implicit-step solvers checked against resolvent and constructed-minimiser
oracles, plus the exact single-pass equivalence between the two rank-constrained
updates."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.sparse.linalg import LinearOperator, cg

from lowrankpde import stepping
from lowrankpde.galerkin import (build_operator, constant_diffusion,
                                 cosine_profile, operator_matrix, rhs_mean_factors,
                                 rotating_diffusion,
                                 separable_source, constant_profile, zero_source)
from lowrankpde.manifold import (LowRankState, RankDeficiencyError, factorize,
                                 qr_nonneg, tangent_project, to_dense)
from lowrankpde.stepping import (StepOptions, _forward_splitting_step, _state_change, _Step,
                                 als_variational_step, galerkin_residual, integrate,
                                 reference_step, splitting_euler_step, step_objective)

def mode_state(n, entries):
    """Rank-len(entries) state with coefficient c on the (i, i) mode pair."""
    r = len(entries)
    u1 = np.zeros((n, r))
    u2 = np.zeros((n, r))
    core = np.zeros((r, r))
    for k, (i, c) in enumerate(entries):
        u1[i, k] = 1.0
        u2[i, k] = 1.0
        core[k, k] = c
    return LowRankState(u1, core, u2)


def random_state(rng, n, r):
    q1, _ = np.linalg.qr(rng.standard_normal((n, r)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, r)))
    return LowRankState(q1, rng.standard_normal((r, r)) + 2 * np.eye(r), q2)


def dense_backward_euler(op, model, h, t_next, y_prev, f_mean):
    """Oracle: assemble the full matrix and solve (I + h A) y = y_prev + h f."""
    n = op.basis_dim
    a = operator_matrix(op, model, t_next)
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
    return apply_operator(op, model, t, y)


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
    # from the second sweep on, CG starts at the current factor-with-core:
    # fewer iterations than cold starts, the same step up to the solve
    # tolerance, and F still decreases at every half-sweep
    rng = np.random.default_rng(51)
    n, r, h = 32, 4, 0.01
    op = build_operator(n)
    model = rotating_diffusion(1.0, 0.3, 1.0)
    u0 = smooth_state(rng, n, r, 1.0)
    pair = (rng.standard_normal((n, 2)), rng.standard_normal((n, 2)))
    warm, warm_diag = als_variational_step(u0, h, h, pair, op, model)
    pcg = stepping._pcg
    monkeypatch.setattr(stepping, "_pcg",
                        lambda apply, precondition, rhs, x0=None: pcg(apply, precondition, rhs))
    cold, cold_diag = als_variational_step(u0, h, h, pair, op, model)
    assert warm_diag.sweeps_used == cold_diag.sweeps_used > 2
    assert 0 < warm_diag.inner_iterations < cold_diag.inner_iterations
    gap = np.linalg.norm(to_dense(warm) - to_dense(cold))
    assert gap <= 1e-10 * np.linalg.norm(to_dense(cold))
    trace = np.asarray(warm_diag.objective_trace)
    assert np.all(np.diff(trace) <= 1e-12 * max(1.0, abs(trace[0])))


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
    ("als_max_sweeps", True), ("als_max_sweeps", "5"),
    ("rank_floor_rel", -1e-12), ("rank_floor_rel", 1.0), ("rank_floor_rel", math.nan)])
def test_step_options_reject_bad_values(field, value):
    with pytest.raises(ValueError, match=field):
        StepOptions(**{field: value})
    # the edges that stay allowed
    StepOptions(als_max_sweeps=np.int64(1), rank_floor_rel=0.0)


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


@pytest.mark.parametrize("n", [7, 40])
def test_factored_objective_and_residual_match_dense_formulas(n):
    rng = np.random.default_rng(46 + n)
    r, h = 3, 0.05
    op = build_operator(n)
    model = constant_diffusion([[1.0, 0.3], [0.3, 0.7]])
    weight = np.arange(1, n + 1, dtype=float) ** -2.0
    src = separable_source(n, [(cosine_profile(0.5, 2.0), rng.standard_normal(n) * weight,
                                rng.standard_normal(n) * weight),
                               (constant_profile(0.2), rng.standard_normal(n) * weight,
                                rng.standard_normal(n) * weight)])
    pair = rhs_mean_factors(src, 0.0, h)
    f = sum(prof.mean(0.0, h) * np.outer(p, q) for prof, p, q in src.terms)
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
    # old -> mid changes the left factor-with-core, mid -> new the right one;
    # the states are 1e-13 apart relative to their norm, where a difference
    # of squared norms only sees roundoff of order sqrt(eps) |Y|
    rng = np.random.default_rng(47)
    n, r, delta = 12, 3, 1e-13
    old = random_state(rng, n, r)
    u_new, r_k = qr_nonneg(old.u1_factors @ old.core
                           + delta * rng.standard_normal((n, r)))
    mid = LowRankState(u_new, r_k, old.u2_factors)
    v_new, r_w = qr_nonneg(old.u2_factors @ r_k.T + delta * rng.standard_normal((n, r)))
    new = LowRankState(u_new, r_w.T, v_new)

    exact = np.vectorize(Fraction, otypes=[object])

    def exact_dense(state):
        return exact(state.u1_factors) @ exact(state.core) @ exact(state.u2_factors).T

    gap = exact_dense(new) - exact_dense(old)
    oracle = math.sqrt(float(np.sum(gap * gap)))
    assert 1e-14 < oracle / np.linalg.norm(old.core) < 1e-12
    assert _state_change(old, mid, new) == pytest.approx(oracle, rel=1e-2)


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
    # preconditioned conjugate gradient, started cold or from a perturbed
    # solution
    rng = np.random.default_rng(45)
    n, r, h = 300, 8, 0.05
    op = build_operator(n)
    alpha = np.array([[1.0, a12], [a12, 0.7]])
    basis, _ = np.linalg.qr(rng.standard_normal((n, r)))
    rhs = rng.standard_normal((n, r))
    step = _Step(op, constant_diffusion(alpha), h, h, LowRankState(basis, np.eye(r), basis),
                 (np.zeros((n, 0)), np.zeros((n, 0))))
    own, other = (alpha[0, 0], alpha[1, 1]) if own_axis == 0 else (alpha[1, 1], alpha[0, 0])
    stiff = op.stiffness_1d
    g = op.grad_coupling_1d
    mat = (np.eye(n * r)
           + h * (np.kron(np.eye(r), own * stiff)
                  + np.kron(other * basis.T @ stiff @ basis, np.eye(n))
                  + 2 * a12 * np.kron((basis.T @ g @ basis).T, g)))
    oracle = np.linalg.solve(mat, rhs.ravel(order="F")).reshape((n, r), order="F")
    x0 = oracle + 1e-3 * rng.standard_normal((n, r)) if warm else None
    frame, r_block, _ = step.half_sweep(own_axis, step.frame(basis, 1 - own_axis), rhs, x0)
    assert np.linalg.norm(frame.basis @ r_block - oracle) <= 1e-12 * np.linalg.norm(oracle)


def half_sweep_system(monkeypatch, seed):
    """A left half-sweep system with a12 = 0.3 as the (apply, precondition,
    rhs) that ``_Step.half_sweep`` hands to ``_pcg``."""
    rng = np.random.default_rng(seed)
    n, r, h = 60, 4, 0.01
    op = build_operator(n)
    model = constant_diffusion([[1.0, 0.3], [0.3, 0.7]])
    basis, _ = np.linalg.qr(rng.standard_normal((n, r)))
    rhs = rng.standard_normal((n, r))
    step = _Step(op, model, h, h, LowRankState(basis, np.eye(r), basis),
                 (np.zeros((n, 0)), np.zeros((n, 0))))
    seen = []
    monkeypatch.setattr(stepping, "_pcg", lambda *args: seen.append(args) or (rhs, 0))
    step.half_sweep(0, step.frame(basis, 1), rhs)
    monkeypatch.undo()
    apply, precondition, got_rhs, x0 = seen[0]
    assert got_rhs is rhs and x0 is None
    return apply, precondition, rhs


def test_pcg_cold_start_is_scipy_cg_bitwise(monkeypatch):
    apply, precondition, rhs = half_sweep_system(monkeypatch, 46)
    shape, size = rhs.shape, rhs.size

    def linear(fn):
        return LinearOperator((size, size), matvec=lambda v: fn(v.reshape(shape)).ravel(),
                              dtype=float)

    seen = []
    want, info = cg(linear(apply), rhs.ravel(), rtol=stepping._CG_RTOL, atol=0.0,
                    maxiter=max(1000, 20 * size), M=linear(precondition),
                    callback=seen.append)
    assert info == 0
    got, iterations = stepping._pcg(apply, precondition, rhs)
    assert np.array_equal(got, want.reshape(shape))
    assert iterations == len(seen) > 0


def test_pcg_from_the_exact_solution_takes_no_iteration(monkeypatch):
    apply, precondition, _ = half_sweep_system(monkeypatch, 47)
    exact = np.random.default_rng(48).standard_normal((60, 4))
    got, iterations = stepping._pcg(apply, precondition, apply(exact), exact.copy())
    assert iterations == 0
    assert np.array_equal(got, exact)


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


def test_integrate_bookkeeping():
    u0 = mode_state(8, [(0, 1.0), (1, 0.5)])
    model = constant_diffusion([[0.02, 0.0], [0.0, 0.02]])
    traj = integrate("als", u0, 0.1, 10, model, zero_source(8))
    assert traj.method == "als"
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
    src = separable_source(n, [(constant_profile(1.0), f_p, f_q)])
    n_steps, T = 12, 0.12
    traj = integrate("reference", y0, T, n_steps, model, src)
    h = T / n_steps
    y = y0.copy()
    f = np.outer(f_p, f_q)
    for k in range(1, n_steps + 1):
        y = dense_backward_euler(op, model, h, k * h, y, f)
        assert np.linalg.norm(traj.states[k] - y) <= 1e-9 * max(np.linalg.norm(y), 1.0)


def test_integrate_validation_errors():
    u0 = mode_state(6, [(0, 1.0)])
    model = constant_diffusion(np.eye(2))
    src = zero_source(6)
    with pytest.raises(ValueError):
        integrate("rk4", u0, 0.1, 10, model, src)
    with pytest.raises(ValueError):
        integrate("als", u0, 0.1, 0, model, src)
    with pytest.raises(ValueError):
        integrate("als", u0, -0.1, 10, model, src)
    for T in (math.inf, math.nan):
        with pytest.raises(ValueError, match="final time"):
            integrate("als", u0, T, 10, model, src)
    with pytest.raises(ValueError):
        integrate("als", u0, 0.1, 10, model, zero_source(7))   # dim mismatch


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
    # monitor threshold at a predictable index
    h, floor = 0.01, 1e-6
    u0 = mode_state(8, [(0, 1.0), (1, 1.0)])
    model = constant_diffusion(np.eye(2))
    opts = StepOptions(rank_floor_rel=floor)
    traj = integrate("als", u0, 4.0, 400, model, zero_source(8), opts)
    assert traj.halted_early is not None
    rho = (1.0 + 2.0 * np.pi ** 2 * h) / (1.0 + 8.0 * np.pi ** 2 * h)
    predicted = int(np.ceil(np.log(floor) / np.log(rho)))
    assert abs(traj.halted_early.step_index - predicted) <= 2
    assert traj.halted_early.sigma_r < floor
    # trajectory is truncated to the halt, not padded to 400 steps
    assert len(traj.states) == traj.halted_early.step_index + 1


def test_integrate_error_mentions_step():
    # force an inner failure partway: sigma collapse below the in-step hard
    # floor triggers a wrapped error naming the step
    u0 = mode_state(8, [(0, 1.0), (1, 1.0)])
    model = constant_diffusion(np.eye(2))
    opts = StepOptions(rank_floor_rel=0.0)    # disable the graceful monitor
    with pytest.raises(RankDeficiencyError, match="step .*rank collapse during"):
        integrate("als", u0, 40.0, 200, model, zero_source(8), opts)


def test_integrate_with_source_matches_reference_at_full_rank():
    rng = np.random.default_rng(43)
    n = 6
    u0 = factorize(rng.standard_normal((n, n)), n)
    model = rotating_diffusion(0.8, 0.3, 2.0)
    src = separable_source(n, [(constant_profile(1.0), rng.standard_normal(n),
                                rng.standard_normal(n))])
    traj_r = integrate("reference", to_dense(u0), 0.1, 20, model, src)
    traj_a = integrate("als", u0, 0.1, 20, model, src)
    np.testing.assert_allclose(to_dense(traj_a.states[-1]), traj_r.states[-1],
                               atol=1e-8)
