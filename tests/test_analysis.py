"""Estimate audits and randomized property suites.

The energy ledger is checked on a manufactured single-mode flow where every
quantity has a closed form, and the interpolation identity is checked against
a per-interval Gauss rule built here from scratch.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from dense_oracles import mode_state, v_dual_norm
from lowrankpde import analysis
from lowrankpde.analysis import (PropertyReport, _spectral_distances, convergence_study,
                                 curvature_suite,
                                 energy_audit, equivalence_test,
                                 projection_regularity_suite, sample_nearby_state,
                                 sample_spd_tensor, sample_state, tangency_suite)
from lowrankpde.galerkin import (GalerkinOperator, TimeProfile, build_operator,
                                 constant_diffusion, cosine_profile, h_distance, h_norm,
                                 rhs_mean_factors, rotating_diffusion, separable_source, v_norm,
                                 zero_source)
from lowrankpde.manifold import LowRankState, RankDeficiencyError, singular_values, to_dense
from lowrankpde.stepping import StepDiagnostics, Trajectory, integrate


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
    near = sample_nearby_state(rng, s)
    assert near.rank == 3
    dist = np.linalg.norm(to_dense(near) - to_dense(s))
    assert 0 < dist <= 0.5 * singular_values(s)[-1]


def test_sample_spd_tensor():
    rng = np.random.default_rng(52)
    for _ in range(20):
        a = sample_spd_tensor(rng)
        np.testing.assert_allclose(a, a.T, atol=1e-14)
        w = np.linalg.eigvalsh(a)
        assert 0.2 - 1e-12 <= w[0] and w[1] <= 2.0 + 1e-12


# ---------------------------------------------------------------------------
# energy ledger on a manufactured flow


def test_energy_audit_single_mode_closed_form():
    # u0 = (1,1) mode, alpha = a I: each backward step of every method
    # divides the coefficient by 1 + 2 a pi^2 h, so every norm, increment and
    # objective the audit reads from the trajectory has an explicit formula,
    # and without a source the Rothe bound is h/3 |u_0|^2
    a, n_steps, T, n = 0.02, 25, 0.25, 6
    h = T / n_steps
    rho = 1.0 / (1.0 + 2.0 * a * np.pi ** 2 * h)
    model = constant_diffusion(a * np.eye(2))
    i = np.arange(n_steps + 1)
    dq = rho ** np.arange(n_steps) * (rho - 1.0) / h
    obj = (rho ** (2 * np.arange(n_steps)) * (rho - 1.0) ** 2 / (2 * h)
           + a * np.pi ** 2 * rho ** (2 * np.arange(1, n_steps + 1)))
    for method in ("als", "splitting", "reference"):
        traj = integrate(method, mode_state(n, [(0, 1.0)]), T, n_steps, model,
                         zero_source(n))
        rep = energy_audit(traj)
        states = traj.states
        np.testing.assert_allclose([h_norm(y) ** 2 for y in states], rho ** (2 * i), rtol=1e-10)
        np.testing.assert_allclose([v_norm(y) ** 2 for y in states],
                                   2.0 * np.pi ** 2 * rho ** (2 * i), rtol=1e-10)
        np.testing.assert_allclose([(h_distance(b, a) / h) ** 2 for a, b in zip(states, states[1:])],
                                   dq ** 2, rtol=1e-10)
        assert rep.rothe_bound == h / 3.0 * h_norm(states[0]) ** 2
        np.testing.assert_allclose([d.objective_value for d in traj.diagnostics], obj, rtol=1e-9)
        assert not rep.violations
        assert traj.step_size == pytest.approx(h)


def test_energy_audit_inequality_recomputed_from_trajectory():
    # recompute the summed balance directly from the states, independent of
    # the report's own arrays
    rng = np.random.default_rng(53)
    n, r = 10, 3
    model = rotating_diffusion(1.0, 0.3, 2.0)
    src = separable_source(n, [(TimeProfile("constant", 0.5), rng.standard_normal(n),
                                rng.standard_normal(n))])
    u0 = sample_state(rng, n, r, sigma_range=(0.1, 1.0))
    traj = integrate("als", u0, 0.3, 60, model, src)
    rep = energy_audit(traj)
    assert not rep.violations

    h = traj.step_size
    dense = [to_dense(s) for s in traj.states]
    lhs = h_norm(dense[-1]) ** 2
    rhs = h_norm(dense[0]) ** 2 + rep.budget
    for k in range(1, len(dense)):
        lhs += h_norm(dense[k] - dense[k - 1]) ** 2
        lhs += h * model.mu * v_norm(dense[k]) ** 2
        p_mat, q_mat = rhs_mean_factors(src, traj.times[k - 1], traj.times[k])
        rhs += (h / model.mu) * v_dual_norm(p_mat @ q_mat.T) ** 2
    assert lhs <= rhs
    assert rep.slack["energy_sum"] == 0.0


def test_energy_audit_rejects_short_runs():
    n = 6
    model = constant_diffusion(0.05 * np.eye(2))
    traj = Trajectory(times=np.array([0.0]), states=[mode_state(n, [(0, 1.0)])],
                      diagnostics=[], model=model, source=zero_source(n),
                      start_sigma_r=1.0)
    with pytest.raises(ValueError, match="need at least one step"):
        energy_audit(traj)


def short_als_run():
    """Ten ALS steps at N = 8, r = 2 under a rotating tensor with a source."""
    rng = np.random.default_rng(57)
    n = 8
    src = separable_source(n, [(cosine_profile(1.0, 2.0), rng.standard_normal(n),
                                rng.standard_normal(n))])
    return integrate("als", sample_state(rng, n, 2, sigma_range=(0.1, 1.0)), 0.05, 10,
                     rotating_diffusion(1.0, 0.3, 1.0), src)


def test_energy_audit_fails_a_nan_core():
    # the NaN stays in the slacks (max(0.0, nan) would read 0.0) and every
    # comparison is written so that NaN fails it
    traj = short_als_run()
    assert not energy_audit(traj).violations
    u = traj.states[4]
    traj.states[4] = LowRankState(u.u1_factors, np.full_like(u.core, math.nan), u.u2_factors)
    rep = energy_audit(traj)
    assert {"energy_sum", "v_bound", "rothe"} <= {name for name, _, _ in rep.violations}
    assert math.isnan(rep.slack["energy_sum"]) and math.isnan(rep.slack["v_bound"])


def test_energy_audit_fails_a_nan_residual():
    # a NaN tangent residual makes the budget NaN, which no slack is within
    traj = short_als_run()
    traj.diagnostics[3] = dataclasses.replace(traj.diagnostics[3], galerkin_residual=math.nan)
    rep = energy_audit(traj)
    assert math.isnan(rep.budget)
    assert {"energy_sum", "v_bound", "rothe"} <= {name for name, _, _ in rep.violations}


def test_energy_audit_builds_no_dense_coupling(monkeypatch):
    # F and the residual come from the step record and the audit takes no
    # operator, so auditing a mixed-term run constructs no GalerkinOperator
    # and never builds the N x N matrix G
    rng = np.random.default_rng(55)
    n, r = 12, 3
    model = constant_diffusion([[1.0, 0.25], [0.25, 0.5]])
    traj = integrate("splitting", sample_state(rng, n, r, sigma_range=(0.1, 1.0)), 0.05, 5,
                     model, zero_source(n))
    op = build_operator(n)
    built, init = [], GalerkinOperator.__init__
    monkeypatch.setattr(GalerkinOperator, "__init__",
                        lambda self, *args: built.append(1) or init(self, *args))
    rep = energy_audit(traj)
    assert not rep.violations, rep.violations
    assert "grad_coupling_1d" not in op.__dict__
    assert not built


def source_bound(traj):
    """The Rothe bound the audit gives ``traj`` restarted from a zero state,
    h/3 (h/mu) sum |f_i|^2_{V*}: the source part of the balance's right side
    alone, through the V* Gram of the source blocks."""
    u = traj.states[0]
    zero = LowRankState(u.u1_factors, np.zeros_like(u.core), u.u2_factors)
    return energy_audit(dataclasses.replace(traj, states=[zero, *traj.states[1:]])).rothe_bound


def step_sources(traj):
    """The dense source mean P Q^T of each step of ``traj``."""
    return [p_mat @ q_mat.T for p_mat, q_mat in
            (rhs_mean_factors(traj.source, a, b) for a, b in zip(traj.times, traj.times[1:]))]


def dense_source_bound(traj):
    """:func:`source_bound` from the dense V* norms of the step sources."""
    h = traj.step_size
    return h / 3.0 * (h / traj.model.mu) * sum(v_dual_norm(f) ** 2 for f in step_sources(traj))


def test_energy_audit_ledger_matches_dense_norms():
    # the factored state norms and increments against dense oracles, per
    # state and per step, and the Rothe bound, with the V* Gram of two terms
    # of different profiles, against the dense dual norms
    rng = np.random.default_rng(56)
    n, r = 9, 3
    model = rotating_diffusion(1.0, 0.3, 2.0)
    src = separable_source(n, [(cosine_profile(0.7, 4.0), rng.standard_normal(n),
                                rng.standard_normal(n)),
                               (TimeProfile("linear", -1.3), rng.standard_normal(n),
                                rng.standard_normal(n))])
    traj = integrate("als", sample_state(rng, n, r, sigma_range=(0.1, 1.0)), 0.2, 20,
                     model, src)
    dense = [to_dense(s) for s in traj.states]
    np.testing.assert_allclose([h_norm(y) ** 2 for y in traj.states],
                               [h_norm(y) ** 2 for y in dense], rtol=1e-13)
    np.testing.assert_allclose([v_norm(y) ** 2 for y in traj.states],
                               [v_norm(y) ** 2 for y in dense], rtol=1e-13)
    h = traj.step_size
    np.testing.assert_allclose([(h_distance(b, a) / h) ** 2
                                for a, b in zip(traj.states, traj.states[1:])],
                               [h_norm((b - a) / h) ** 2 for a, b in zip(dense, dense[1:])],
                               rtol=1e-10)
    assert source_bound(traj) == pytest.approx(dense_source_bound(traj), rel=1e-12)
    assert energy_audit(traj).rothe_bound == pytest.approx(
        h / 3.0 * h_norm(dense[0]) ** 2 + dense_source_bound(traj), rel=1e-12)


def test_energy_audit_h_gram_matches_dense_source_norms():
    # the H Gram of the same two-term source, read through the v_bound slack
    # of a hand-built run from zero: mu = beta = 1 and no time dependence,
    # so the slack is max_i |u_i|_V^2 - 2h sum |f_i|^2, here half the peak
    rng = np.random.default_rng(56)
    n, h = 9, 0.02
    src = separable_source(n, [(cosine_profile(0.7, 4.0), rng.standard_normal(n),
                                rng.standard_normal(n)),
                               (TimeProfile("linear", -1.3), rng.standard_normal(n),
                                rng.standard_normal(n))])
    shapes = [rng.standard_normal((n, n)) for _ in range(4)]
    traj = dataclasses.replace(hand_built([np.zeros((n, n))] + shapes, h), source=src)
    f_part = 2.0 * h * sum(h_norm(f) ** 2 for f in step_sources(traj))
    scale = math.sqrt(2.0 * f_part / max(v_norm(y) ** 2 for y in shapes))
    traj.states[1:] = [scale * y for y in shapes]
    assert max(v_norm(y) ** 2 for y in traj.states) == pytest.approx(2.0 * f_part, rel=1e-14)
    assert energy_audit(traj).slack["v_bound"] == pytest.approx(f_part, rel=1e-12)


def test_post_solve_reads_factors_without_dense_arrays():
    # N = 1024, r = 8, 50 splitting steps, one source term: the audit, with
    # its interpolant gap, and both norms of every state stay under 10 MB traced;
    # one N x N array is 8.4 MB, and only the V* Gram of the source takes one:
    # its weights fit in one chunk of columns
    n, r = 1024, 8
    rng = np.random.default_rng(57)
    weight = np.arange(1, n + 1, dtype=float)[:, None] ** -2.0
    u, _ = np.linalg.qr(rng.standard_normal((n, r)) * weight)
    v, _ = np.linalg.qr(rng.standard_normal((n, r)) * weight)
    u0 = LowRankState(u, np.diag(np.geomspace(1.0, 1e-2, r)), v)
    src = separable_source(n, [(cosine_profile(1.0, 3.0), rng.standard_normal(n) * weight[:, 0],
                                rng.standard_normal(n) * weight[:, 0])])
    model = constant_diffusion([[1.0, 0.0], [0.0, 0.5]])
    traj = integrate("splitting", u0, 0.05, 50, model, src)
    assert len(traj.states) == 51
    tracemalloc.start()
    try:
        rep = energy_audit(traj)
        norms = [(h_norm(y), v_norm(y)) for y in traj.states]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6, peak
    assert not rep.violations, rep.violations
    assert rep.interpolant_gap > 0.0 and len(norms) == 51


def smooth_splitting_run(n, r, n_steps, src_terms, seed):
    """A splitting trajectory of a smooth rank-r start under a diagonal tensor
    with a separable source of ``src_terms`` smooth terms, and its source."""
    rng = np.random.default_rng(seed)
    weight = np.arange(1, n + 1, dtype=float) ** -2.0
    u, _ = np.linalg.qr(rng.standard_normal((n, r)) * weight[:, None])
    v, _ = np.linalg.qr(rng.standard_normal((n, r)) * weight[:, None])
    u0 = LowRankState(u, np.diag(np.geomspace(1.0, 1e-2, r)), v)
    src = separable_source(n, [(profile, rng.standard_normal(n) * weight,
                                rng.standard_normal(n) * weight)
                               for profile in (cosine_profile(1.0, 3.0),
                                               TimeProfile("linear", -0.7))[:src_terms]])
    model = constant_diffusion([[1.0, 0.0], [0.0, 0.5]])
    return integrate("splitting", u0, 0.01, n_steps, model, src), src, model


def test_energy_audit_source_gram_stays_under_one_dense_array():
    # N = 2048: one N x N array is 33.5 MB, two chunks of the V* weights'
    # columns are 16.8 MB each, and only one is alive at a time
    n = 2048
    traj, src, _ = smooth_splitting_run(n, 4, 3, 2, 59)
    tracemalloc.start()
    try:
        rep = energy_audit(traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n, peak
    assert not rep.violations, rep.violations
    assert source_bound(traj) == pytest.approx(dense_source_bound(traj), rel=1e-12)


@pytest.mark.parametrize("width", [1, 4, 9])
def test_energy_audit_source_gram_in_column_chunks(monkeypatch, width):
    # chunks of 1, 4 (4 + 4 + 1) and all 9 columns of the V* weights agree
    # with the dense dual norms, and give the Rothe bound of the default
    # budget (one chunk at N = 9) to the bit; one chunk is the arithmetic of
    # a whole array
    n = 9
    traj, src, model = smooth_splitting_run(n, 3, 4, 2, 60)
    whole, whole_source = energy_audit(traj).rothe_bound, source_bound(traj)
    monkeypatch.setattr(analysis, "_CHUNK_BYTES", 8 * n * width)
    assert energy_audit(traj).rothe_bound == whole
    assert source_bound(traj) == whole_source
    assert whole_source == pytest.approx(dense_source_bound(traj), rel=1e-12)
    if width == n:
        p, q, h = src.p, src.q, traj.step_size
        lam = build_operator(n).stiffness_diag
        gram = np.sum((p[:, None] * p) * ((q[:, None] * q) @ (1.0 / np.add.outer(lam, lam))),
                      axis=-1)
        means = np.array([[prof.mean(a, b) for prof in src.profiles]
                          for a, b in zip(traj.times, traj.times[1:])])
        f_dual_sq = np.sum((means @ gram) * means, axis=1)
        assert whole == h / 3.0 * (h_norm(traj.states[0]) ** 2
                                   + (h / model.mu) * float(np.sum(f_dual_sq)))


SAMPLERS = {
    "sample_state": lambda rng, **kw: sample_state(rng, 6, 2, **kw),
}


@pytest.mark.parametrize("sampler, name, value", [
    ("sample_state", "sigma_range", (0.0, 1.0)), ("sample_state", "sigma_range", (1.0, 0.1)),
    ("sample_state", "sigma_range", (1e-3, math.inf)),
], ids=str)
def test_samplers_reject_bad_ranges(sampler, name, value):
    with pytest.raises(ValueError, match=f"^{name} must"):
        SAMPLERS[sampler](np.random.default_rng(61), **{name: value})


def test_energy_audit_objective_anchors():
    # each step's record anchors F at the previous state (the first entry of
    # its trace), which is where the audit measures monotonicity from
    n = 6
    model = constant_diffusion(0.05 * np.eye(2))
    traj = integrate("als", mode_state(n, [(0, 1.0), (1, 0.4)]), 0.1, 10, model,
                     zero_source(n))
    rep = energy_audit(traj)
    excess = [d.objective_value - d.objective_trace[0] for d in traj.diagnostics]
    assert len(excess) == 10 and max(excess) <= 1e-11
    assert rep.slack["objective_monotonicity"] == max(max(excess), 0.0)


# ---------------------------------------------------------------------------
# interpolation identity


def test_interpolant_gap_equals_increment_sum():
    rng = np.random.default_rng(54)
    n, r = 8, 2
    model = rotating_diffusion(0.9, 0.25, 3.0)
    src = separable_source(n, [(TimeProfile("constant", 1.0), rng.standard_normal(n),
                                rng.standard_normal(n))])
    u0 = sample_state(rng, n, r, sigma_range=(0.2, 1.0))
    traj = integrate("als", u0, 0.2, 30, model, src)
    h = traj.step_size
    dense = [to_dense(s) for s in traj.states]
    increments = sum(np.linalg.norm(dense[k] - dense[k - 1]) ** 2
                     for k in range(1, len(dense)))
    assert energy_audit(traj).interpolant_gap == pytest.approx(h / 3.0 * increments, rel=1e-12)


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
    assert energy_audit(traj).interpolant_gap == pytest.approx(total, rel=1e-12)


def hand_built(states, h):
    """A reference trajectory of ``states`` at step ``h`` without a source,
    each step recorded as exact (zero residual, F unchanged)."""
    record = StepDiagnostics(0, 0.0, math.nan, math.nan, (0.0, 0.0))
    return Trajectory(times=h * np.arange(len(states)), states=states,
                      diagnostics=[record] * (len(states) - 1),
                      model=constant_diffusion(np.eye(2)), source=zero_source(len(states[0])),
                      start_sigma_r=math.nan)


def test_interpolant_gap_two_state_closed_form():
    # from the zero state to a state of norm c in one step of size h the gap
    # is (h/3) c^2; a constant trajectory has no gap at all
    h = 0.05
    u1 = np.zeros((4, 4))
    u1[0, 0] = 3.0
    traj = hand_built([np.zeros((4, 4)), u1], h)
    assert energy_audit(traj).interpolant_gap == pytest.approx(h / 3.0 * 9.0, rel=1e-14)
    flat = hand_built([u1, u1.copy(), u1.copy()], h)
    assert energy_audit(flat).interpolant_gap == 0.0


def test_rothe_check_fires_on_a_jump_from_zero():
    # from the zero state without a source the energy balance's right side,
    # and so the Rothe bound, is 0: any jump breaks it, and the balance too
    u1 = np.zeros((4, 4))
    u1[0, 0] = 3.0
    rep = energy_audit(hand_built([np.zeros((4, 4)), u1], 0.05))
    assert rep.rothe_bound == 0.0
    assert [v for v in rep.violations if v[0] == "rothe"] == [("rothe", -1, rep.interpolant_gap)]
    assert "energy_sum" in [name for name, _, _ in rep.violations]


def test_h_norm_check_fires_on_a_homogeneous_rise():
    # scaling the last core of a decaying homogeneous ALS run by 1.1 raises
    # the H norm at the last step; with a source the check does not apply
    n = 6
    model = constant_diffusion(0.05 * np.eye(2))
    traj = integrate("als", mode_state(n, [(0, 1.0), (1, 0.4)]), 0.1, 10, model,
                     zero_source(n))
    assert not energy_audit(traj).violations
    last = traj.states[-1]
    risen = dataclasses.replace(traj, states=traj.states[:-1] + [
        LowRankState(last.u1_factors, 1.1 * last.core, last.u2_factors)])
    rises = [v for v in energy_audit(risen).violations if v[0] == "h_norm_monotonicity"]
    assert [step for _, step, _ in rises] == [10] and rises[0][2] > 0.0
    sourced = dataclasses.replace(risen, source=separable_source(
        n, [(TimeProfile("constant", 1.0), np.ones(n), np.ones(n))]))
    assert "h_norm_monotonicity" not in [name for name, _, _ in energy_audit(sourced).violations]


def test_interpolant_gap_reference_trajectory():
    n = 6
    model = constant_diffusion(0.1 * np.eye(2))
    traj = integrate("reference", mode_state(n, [(0, 1.0)]), 0.1, 8, model,
                     zero_source(n))
    h = traj.step_size
    increments = sum(np.linalg.norm(traj.states[k] - traj.states[k - 1]) ** 2
                     for k in range(1, len(traj.states)))
    assert energy_audit(traj).interpolant_gap == pytest.approx(h / 3.0 * increments, rel=1e-12)


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
    from lowrankpde.manifold import tangent_project
    rng = np.random.default_rng(60)
    op = build_operator(8)
    u = sample_state(rng, 8, 3, sigma_range=(0.05, 1.0))
    z = rng.standard_normal((8, 8))
    lam = op.stiffness_diag

    def ratios(state):
        y = to_dense(state)
        sig = singular_values(state)[-1]
        vn = vn_f(y)
        proj = vn_f(tangent_project(state, z)) / (
            np.sqrt(1.0 + 3 * vn ** 2 / sig ** 2) * vn_f(z))
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
    assert v_norm(to_dense(u)) == pytest.approx(np.pi * np.sqrt(2.0), rel=1e-13)
    assert semi / v_norm(to_dense(u)) == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-13)


def test_tangency_explicit_single_mode():
    # with the identity tensor the divergence part sends the lowest mode to
    # 2 pi^2 times itself, which is tangent at that state by construction
    from lowrankpde.galerkin import apply_a1
    from lowrankpde.manifold import tangent_project
    op = build_operator(6)
    model = constant_diffusion(np.eye(2))
    u = mode_state(6, [(0, 1.0)])
    y = to_dense(u)
    a1u = apply_a1(op, model.alpha(0.0), y)
    np.testing.assert_allclose(a1u, 2.0 * np.pi ** 2 * y, atol=1e-11)
    assert np.linalg.norm(a1u - tangent_project(u, a1u)) <= 1e-12


def test_curvature_suite_small_run():
    rep = curvature_suite(8, 2, 80, seed=3)
    assert rep.passed and rep.violations == 0 and rep.trials == 80
    assert set(rep.worst_ratio) == {"projector_diff_spectral",
                                    "projector_diff_frobenius",
                                    "normal_component"}
    assert all(0 <= v <= 1 for v in rep.worst_ratio.values())


def test_spectral_distance_from_factors_matches_dense_norm():
    # stacks of independent pairs and of pairs 1e-2 apart, 2r > N included:
    # the 2r-by-2r block from the stacked factors' R factors has the spectral
    # norm of the dense difference
    for n, r in ((16, 4), (33, 5), (6, 4)):
        rngs = [np.random.default_rng([62, n, k]) for k in range(6)]
        u = sample_state(rngs, n, r)
        for v in (sample_state(rngs, n, r),
                  LowRankState(u.u1_factors, u.core, np.linalg.qr(
                      u.u2_factors + 1e-2 * rngs[0].standard_normal((6, n, r)))[0])):
            dense = np.linalg.norm(to_dense(u) - to_dense(v), 2, axis=(-2, -1))
            got = _spectral_distances(u, v)
            assert got.shape == (6,) and np.all(dense > 0.0)
            assert np.max(np.abs(got - dense) / dense) <= 1e-12


def test_projection_suite_small_run():
    rep = projection_regularity_suite(8, 3, 80, seed=4)
    assert rep.passed and rep.violations == 0
    assert set(rep.worst_ratio) == {"projection_v_bound", "factor_regularity",
                                    "mixed_seminorm", "a2_h_norm"}
    assert all(0 <= v <= 1 for v in rep.worst_ratio.values())


def test_tangency_suite_small_run():
    rep = tangency_suite(8, 2, 60, seed=5)
    assert rep.passed and rep.violations == 0
    assert set(rep.worst_ratio) == {"a1_tangency", "state_reproduction",
                                    "a1_projected_pairing"}


def counting_model(model, calls):
    """``model`` with an alpha that records each time it is evaluated at."""
    def alpha(t):
        calls.append(t)
        return model.alpha(t)
    return dataclasses.replace(model, alpha=alpha)


def test_geometry_suites_evaluate_the_tensor_once_per_trial(monkeypatch):
    calls = []
    monkeypatch.setattr(analysis, "rotating_diffusion",
                        lambda *args: counting_model(rotating_diffusion(*args), calls))
    projection_regularity_suite(8, 2, 30, seed=4)
    assert len(calls) == 30
    tangency_suite(8, 2, 20, seed=5)
    assert len(calls) == 50


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
    budget = 10.0 * h * (np.linalg.norm(apply_operator(op, model.alpha(h), y0))
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
    src = separable_source(n, [(TimeProfile("constant", 1.0), p, q)])
    src_c = separable_source(n, [(TimeProfile("constant", c), p, q)])
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
    assert not PropertyReport(trials=5, violations=1, worst_ratio={}).passed
    assert PropertyReport(trials=5, violations=0, worst_ratio={}).passed


def test_ratio_applies_the_zero_bound_rule_elementwise():
    # a bound <= 0 reads 0 up to an observed 1e-14 and inf above it
    observed = np.array([0.0, 1e-14, 1e-14, 2e-14, 2e-14, 3.0])
    bound = np.array([0.0, 0.0, -1.0, 0.0, -1.0, 2.0])
    assert analysis._ratio(observed, bound).tolist() == [0.0, 0.0, 0.0, math.inf, math.inf, 1.5]


def test_tally_keeps_the_worst_ratio_and_counts_each_ratio_above_the_slack():
    slack = analysis._RATIO_SLACK
    report = analysis._tally(PropertyReport(4, 0, {}), {
        "a": np.array([0.5, 1.0 + slack, 1.0 + 4 * slack]), "b": np.array([])})
    assert report.worst_ratio == {"a": 1.0 + 4 * slack, "b": 0.0} and report.violations == 1
    analysis._tally(report, {"a": np.array([0.25]), "b": np.array([0.75, 3.0])})
    assert list(report.worst_ratio) == ["a", "b"]
    assert report.worst_ratio == {"a": 1.0 + 4 * slack, "b": 3.0} and report.violations == 2


def test_tally_counts_a_nan_ratio_as_a_violation():
    # NaN compares False against the slack, so the count asks "not within"
    report = analysis._tally(PropertyReport(2, 0, {}),
                             {"x": analysis._ratio(np.array([math.nan, 0.5]), 1.0)})
    assert report.violations == 1 and not report.passed
    assert math.isnan(report.worst_ratio["x"])


def test_projection_suite_without_a_mixed_term_leaves_a2_h_norm_at_zero(monkeypatch):
    # a diagonal tensor gives every chunk an empty a2_h_norm mask; the draws
    # and the other ratios stay those of the rotating tensor
    rotating = projection_regularity_suite(8, 2, 40, seed=4)
    monkeypatch.setattr(analysis, "rotating_diffusion",
                        lambda *args: constant_diffusion(np.diag([1.0, 0.25])))
    monkeypatch.setattr(analysis, "_CHUNK_BYTES", 1)          # one trial per chunk
    diagonal = projection_regularity_suite(8, 2, 40, seed=4)
    assert rotating.worst_ratio["a2_h_norm"] > 0.0
    assert list(diagonal.worst_ratio) == list(rotating.worst_ratio)
    assert diagonal.worst_ratio == {**rotating.worst_ratio, "a2_h_norm": 0.0}
    assert diagonal.violations == rotating.violations == 0


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
    table = convergence_study("rank", u0, 0.05, model, zero_source(8), n_steps=50)
    errors = [row.error for row in table.rows]
    assert all(e1 < e0 for e0, e1 in zip(errors, errors[1:]))
    assert [row.parameter for row in table.rows] == [1.0, 2.0, 3.0, 4.0]
    assert errors[-1] < 1e-3


def test_convergence_rank_axis_truncation_structure():
    # exact rank-2 start with diagonal decay: below rank 2 the error is the
    # discarded singular weight of the true solution; at rank 2 it is pure
    # time error
    from lowrankpde.galerkin import exact_diagonal_solution
    from lowrankpde.manifold import singular_values
    model = constant_diffusion(0.02 * np.eye(2))
    u0 = mode_state(8, [(0, 1.0), (1, 0.6)])
    table = convergence_study("rank", u0, 0.1, model, zero_source(8), n_steps=50)
    errs = {int(row.parameter): row.error for row in table.rows}
    exact = exact_diagonal_solution(model, u0, 0.1)
    sigma2 = singular_values(exact)[-1]
    assert errs[1] == pytest.approx(sigma2, rel=1e-6)
    assert errs[1] > 100 * errs[2]


def test_convergence_rank_axis_factorizes_the_start_once(monkeypatch):
    # one SVD factorizes the start; each rank's start is the leading columns
    # of that factorization, bitwise the best rank-k factorization, and each
    # run adds one core SVD per state
    from lowrankpde.manifold import factorize
    rng = np.random.default_rng(57)
    n, steps, ranks = 10, 4, (1, 2, 3, 4)
    model = rotating_diffusion(1.0, 0.1, 1.0)
    u0 = sample_state(rng, n, 4)
    dense0 = to_dense(u0)
    starts, svd, calls = [], np.linalg.svd, []
    run = analysis.integrate
    monkeypatch.setattr(analysis, "integrate", lambda method, start, *args: (
        starts.append(start) if method != "reference" else None) or run(method, start, *args))
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kw: calls.append(1) or svd(*args, **kw))
    convergence_study("rank", u0, 0.05, model, zero_source(n), n_steps=steps)
    assert len(calls) == 1 + len(ranks) * (steps + 1)
    monkeypatch.undo()
    for start, rank in zip(starts, ranks, strict=True):
        want = factorize(dense0, rank)
        for got, ref in zip((start.u1_factors, start.core, start.u2_factors),
                            (want.u1_factors, want.core, want.u2_factors)):
            assert np.array_equal(got, ref)


def test_convergence_zero_horizon():
    # a zero horizon is rejected like any non-positive T, not tabulated as exact
    model = constant_diffusion(0.02 * np.eye(2))
    u0 = mode_state(6, [(0, 1.0)])
    with pytest.raises(ValueError, match="final time must be positive"):
        convergence_study("step", u0, 0.0, model, zero_source(6), step_counts=(4, 8))


def test_convergence_refuses_a_halted_run():
    # under the identity tensor the (2, 2) mode of a mode-diagonal start
    # decays 6 pi^2 faster than the (1, 1) mode, so at h = 8e-3 the rank
    # monitor halts at step 81 (t = 0.648): its last state is no state at
    # T = 0.8, and the study names the run instead of tabulating an error;
    # the 10-step run before it (h = 0.08) reaches T
    u0 = LowRankState(np.eye(8, 2), np.eye(2), np.eye(8, 2))
    model = constant_diffusion(np.eye(2))
    halt = "at step 81 (t = 0.648), before T = 0.8"
    with pytest.raises(RankDeficiencyError) as err:
        convergence_study("step", u0, 0.8, model, zero_source(8), step_counts=(10, 100))
    assert str(err.value) == f"the rank monitor halted the 100-step run {halt}"
    with pytest.raises(RankDeficiencyError) as err:
        convergence_study("rank", u0, 0.8, model, zero_source(8), n_steps=100)
    assert str(err.value) == f"the rank monitor halted the rank-2 run {halt}"


def test_convergence_rejects_empty_step_counts():
    # the same error whether the closed form or a reference run is the oracle
    u0 = mode_state(6, [(0, 1.0)])
    for model in (constant_diffusion(0.02 * np.eye(2)), rotating_diffusion(1.0, 0.5, 1.0)):
        with pytest.raises(ValueError,
                           match=r"^step_counts must be distinct and nonempty, got \(\)$"):
            convergence_study("step", u0, 0.05, model, zero_source(6), step_counts=())


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
