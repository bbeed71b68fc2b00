"""Implicit-step solvers checked against resolvent and constructed-minimiser
oracles, plus the exact single-pass equivalence between the two rank-constrained
updates."""

import numpy as np
import pytest

from lowrankpde.galerkin import (bilinear_a, build_operator, constant_diffusion,
                                 operator_matrix, rotating_diffusion,
                                 separable_source, constant_profile, zero_source)
from lowrankpde.manifold import (LowRankState, RankDeficiencyError, factorize,
                                 tangent_project, to_dense)
from lowrankpde.stepping import (StepOptions, _solve_projected, als_variational_step,
                                 galerkin_residual, integrate, reference_step,
                                 splitting_euler_step, step_objective)

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
    y1 = reference_step(y0, h, h, np.zeros((n, n)), op, model)
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
    got = reference_step(y0, h, h, f, op, model)
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
    got = reference_step(y0, h, h, f, op, model)
    oracle = dense_backward_euler(op, model, h, h, y0, f)
    assert np.linalg.norm(got - oracle) <= 1e-10 * np.linalg.norm(oracle)


def test_reference_step_minimises_objective():
    rng = np.random.default_rng(33)
    n, h = 5, 0.05
    op = build_operator(n)
    model = constant_diffusion([[0.6, 0.1], [0.1, 0.6]])
    y0 = rng.standard_normal((n, n))
    f = rng.standard_normal((n, n))
    star = reference_step(y0, h, h, f, op, model)
    f_star = step_objective(star, y0, h, h, f, op, model)
    for _ in range(10):
        other = star + 1e-3 * rng.standard_normal((n, n))
        assert step_objective(other, y0, h, h, f, op, model) >= f_star - 1e-12


# ---------------------------------------------------------------------------
# rank-constrained steps


def test_als_single_mode_resolvent():
    # rank-1 problem whose exact minimiser is itself rank 1
    n, h = 6, 0.01
    op = build_operator(n)
    model = constant_diffusion(np.eye(2))
    u0 = mode_state(n, [(0, 1.0)])
    u1, diag = als_variational_step(u0, h, h, np.zeros((n, n)), op, model)
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
    u1, diag = als_variational_step(u0, h, h, f, op, model)
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
    u0 = factorize(rng.standard_normal((n, n)), n, rank_floor=0.0)
    f = rng.standard_normal((n, n))
    dense = reference_step(to_dense(u0), h, h, f, op, model)
    u1, _ = als_variational_step(u0, h, h, f, op, model)
    np.testing.assert_allclose(to_dense(u1), dense, atol=1e-9)


def test_als_small_step_stays_close():
    rng = np.random.default_rng(36)
    n, r = 8, 2
    op = build_operator(n)
    model = constant_diffusion([[1.0, 0.3], [0.3, 1.0]])
    u0 = random_state(rng, n, r)
    norms = []
    for h in (1e-3, 1e-4, 1e-5):
        u1, _ = als_variational_step(u0, h, h, np.zeros((n, n)), op, model)
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
    u1, diag = als_variational_step(u0, h, h, f, op, model)
    trace = np.asarray(diag.objective_trace)
    assert trace.size >= 2
    tol = 1e-12 * max(1.0, abs(trace[0]))
    assert np.all(np.diff(trace) <= tol)
    assert diag.objective_decreased
    # the final trace entry is the reported objective
    assert trace[-1] == pytest.approx(diag.objective_value, rel=1e-12)
    assert trace[-1] == pytest.approx(
        step_objective(u1, u0, h, h, f, op, model), rel=1e-10)


def test_als_beats_anchor_objective():
    # default- and single-sweep runs both end below the starting objective
    rng = np.random.default_rng(38)
    n, r, h = 8, 2, 0.05
    op = build_operator(n)
    model = constant_diffusion([[0.8, 0.3], [0.3, 0.9]])
    u0 = random_state(rng, n, r)
    f = rng.standard_normal((n, n))
    start = step_objective(u0, u0, h, h, f, op, model)
    for opts in (StepOptions(), StepOptions(single_sweep_mode=True)):
        u1, _ = als_variational_step(u0, h, h, f, op, model, opts)
        assert step_objective(u1, u0, h, h, f, op, model) < start


def test_galerkin_residual_is_projected_defect():
    rng = np.random.default_rng(39)
    n, h = 6, 0.04
    op = build_operator(n)
    model = constant_diffusion([[1.0, 0.25], [0.25, 0.7]])
    u0 = random_state(rng, n, 2)
    f = rng.standard_normal((n, n))
    u1, _ = als_variational_step(u0, h, h, f, op, model)
    defect = (to_dense(u1) - to_dense(u0)) / h + _apply_full(op, model, h,
                                                             to_dense(u1)) - f
    oracle = np.linalg.norm(tangent_project(u1, defect))
    assert galerkin_residual(u1, u0, h, h, f, op, model) == pytest.approx(
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
    assert galerkin_residual(u1, u0, h, h, np.zeros((n, n)), op, model) <= 1e-11


def test_step_linearity_under_scaling():
    rng = np.random.default_rng(40)
    n, r, h = 7, 2, 0.03
    op = build_operator(n)
    model = constant_diffusion([[0.9, 0.15], [0.15, 0.5]])
    u0 = random_state(rng, n, r)
    f = rng.standard_normal((n, n))
    c = 37.5
    scaled = LowRankState(u0.u1_factors, c * u0.core, u0.u2_factors)
    u1, _ = als_variational_step(u0, h, h, f, op, model)
    u1c, _ = als_variational_step(scaled, h, h, c * f, op, model)
    np.testing.assert_allclose(to_dense(u1c), c * to_dense(u1),
                               rtol=1e-11, atol=1e-11 * c)


@pytest.mark.parametrize("a12", [0.0, 0.3])
@pytest.mark.parametrize("own_axis", [0, 1])
def test_half_sweep_solve_matches_kronecker_oracle(a12, own_axis):
    # N r = 2400 unknowns; a12 = 0 is the exact Sylvester solve, a12 != 0 the
    # preconditioned conjugate gradient
    rng = np.random.default_rng(45)
    n, r, h = 300, 8, 0.05
    op = build_operator(n)
    alpha = np.array([[1.0, a12], [a12, 0.7]])
    basis, _ = np.linalg.qr(rng.standard_normal((n, r)))
    rhs = rng.standard_normal((n, r))
    own, other = (alpha[0, 0], alpha[1, 1]) if own_axis == 0 else (alpha[1, 1], alpha[0, 0])
    stiff = op.stiffness_1d
    g = op.grad_coupling_1d
    mat = (np.eye(n * r)
           + h * (np.kron(np.eye(r), own * stiff)
                  + np.kron(other * basis.T @ stiff @ basis, np.eye(n))
                  + 2 * a12 * np.kron((basis.T @ g @ basis).T, g)))
    oracle = np.linalg.solve(mat, rhs.ravel(order="F")).reshape((n, r), order="F")
    got = _solve_projected(op, alpha, h, own_axis, basis, rhs)
    assert np.linalg.norm(got - oracle) <= 1e-12 * np.linalg.norm(oracle)


# ---------------------------------------------------------------------------
# splitting and equivalence


def test_splitting_single_mode_resolvent():
    n, h = 6, 0.01
    op = build_operator(n)
    model = constant_diffusion(np.eye(2))
    u1 = splitting_euler_step(mode_state(n, [(0, 1.0)]), h, h, np.zeros((n, n)),
                              op, model)
    expected = np.zeros((n, n))
    expected[0, 0] = 1.0 / (1.0 + 2.0 * np.pi ** 2 * h)
    np.testing.assert_allclose(to_dense(u1), expected, atol=1e-13)


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
        a = splitting_euler_step(u0, h, h, f, op, model)
        b = splitting_euler_step(u0, h, h, f, op, model, s_step="forward")
        gap = np.linalg.norm(to_dense(a) - to_dense(b))
        assert gap <= 1e-12 * np.linalg.norm(to_dense(a))


def test_single_sweep_als_equals_splitting():
    rng = np.random.default_rng(42)
    single = StepOptions(single_sweep_mode=True)
    for trial in range(8):
        n = int(rng.integers(3, 12))
        r = int(rng.integers(1, min(5, n) + 1))
        h = 10.0 ** rng.uniform(-4, -1)
        op = build_operator(n)
        model = rotating_diffusion(1.0, 0.4, 0.8)
        u0 = random_state(rng, n, r)
        f = rng.standard_normal((n, n)) if trial % 2 else np.zeros((n, n))
        a, diag = als_variational_step(u0, h, h, f, op, model, single)
        assert diag.sweeps_used == 1
        b = splitting_euler_step(u0, h, h, f, op, model)
        scale = max(np.linalg.norm(to_dense(a)), 1e-30)
        assert np.linalg.norm(to_dense(a) - to_dense(b)) / scale < 1e-12


def test_splitting_rejects_unknown_s_step():
    op = build_operator(4)
    model = constant_diffusion(np.eye(2))
    u0 = mode_state(4, [(0, 1.0)])
    with pytest.raises(ValueError):
        splitting_euler_step(u0, 0.01, 0.01, np.zeros((4, 4)), op, model,
                             s_step="midpoint")


def test_splitting_s_step_is_keyword_only():
    op = build_operator(4)
    model = constant_diffusion(np.eye(2))
    u0 = mode_state(4, [(0, 1.0)])
    with pytest.raises(TypeError):
        splitting_euler_step(u0, 0.01, 0.01, np.zeros((4, 4)), op, model,
                             StepOptions())


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
    with pytest.raises(RankDeficiencyError, match="step "):
        integrate("als", u0, 40.0, 200, model, zero_source(8), opts)


def test_integrate_with_source_matches_reference_at_full_rank():
    rng = np.random.default_rng(43)
    n = 6
    u0 = factorize(rng.standard_normal((n, n)), n, rank_floor=0.0)
    model = rotating_diffusion(0.8, 0.3, 2.0)
    src = separable_source(n, [(constant_profile(1.0), rng.standard_normal(n),
                                rng.standard_normal(n))])
    traj_r = integrate("reference", to_dense(u0), 0.1, 20, model, src)
    traj_a = integrate("als", u0, 0.1, 20, model, src)
    np.testing.assert_allclose(to_dense(traj_a.states[-1]), traj_r.states[-1],
                               atol=1e-8)
