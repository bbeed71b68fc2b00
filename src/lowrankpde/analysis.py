"""Randomized property suites and a-posteriori audits for the steppers.

Every suite draws each trial from its own RNG stream seeded by
``(seed, trial_index)``, so results are reproducible and independent of
trial order.  Reports carry the worst observed ratio (observed quantity over
its proven bound); a passing suite has every ratio at most 1 up to a 1e-9
slack for roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .galerkin import (DiffusionModel, GalerkinOperator, SourceSpec, apply_a1, apply_a2,
                       build_operator, constant_diffusion, exact_diagonal_solution,
                       h_norm, rhs_mean, rotating_diffusion, separable_source,
                       v_dual_norm, v_norm)
from .manifold import (LowRankState, factorize, qr_nonneg, smallest_singular,
                       tangent_project, to_dense)
from .stepping import (StepOptions, Trajectory, als_variational_step, integrate,
                       splitting_euler_step, step_objective)

__all__ = [
    "ConvergenceRow",
    "ConvergenceTable",
    "EnergyReport",
    "PropertyReport",
    "convergence_study",
    "curvature_suite",
    "energy_audit",
    "equivalence_test",
    "interpolant_gap",
    "projection_regularity_suite",
    "sample_nearby_state",
    "sample_spd_tensor",
    "sample_state",
    "tangency_suite",
]

_RATIO_SLACK = 1e-9


# ---------------------------------------------------------------------------
# sampling helpers


def sample_state(rng: np.random.Generator, basis_dim: int, rank: int,
                 sigma_range=(1e-3, 1.0)) -> LowRankState:
    """Random rank-r state: orthonormal factors from QR of Gaussian blocks,
    log-uniform singular values over ``sigma_range``."""
    q1, _ = qr_nonneg(rng.standard_normal((basis_dim, rank)))
    q2, _ = qr_nonneg(rng.standard_normal((basis_dim, rank)))
    lo, hi = np.log(sigma_range[0]), np.log(sigma_range[1])
    sig = np.sort(np.exp(rng.uniform(lo, hi, rank)))[::-1]
    return LowRankState(q1, np.diag(sig), q2)


def sample_nearby_state(rng: np.random.Generator, state: LowRankState,
                        max_rel: float = 1.0) -> LowRankState:
    """Rank-preserving perturbation of ``state`` at a random small distance."""
    n = state.basis_dim
    scale = smallest_singular(state) / (3.0 * math.sqrt(n))
    delta = scale * math.exp(rng.uniform(math.log(1e-3), math.log(max_rel)))
    return factorize(to_dense(state) + delta * rng.standard_normal((n, n)), state.rank)


def sample_spd_tensor(rng: np.random.Generator, eig_range=(0.2, 2.0)) -> np.ndarray:
    """Random symmetric positive definite 2x2 tensor."""
    lam = rng.uniform(*eig_range, size=2)
    theta = rng.uniform(0.0, math.pi)
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    return rot.T @ np.diag(lam) @ rot


def _ratio(observed: float, bound: float) -> float:
    if bound <= 0.0:
        return 0.0 if observed <= 1e-14 else math.inf
    return observed / bound


# ---------------------------------------------------------------------------
# reports


@dataclass
class PropertyReport:
    trials: int
    violations: int
    worst_ratio: dict
    seed: int

    @property
    def passed(self) -> bool:
        return self.violations == 0


@dataclass
class ConvergenceRow:
    parameter: float
    error: float
    observed_order: Optional[float] = None


@dataclass
class ConvergenceTable:
    axis: str
    rows: list


@dataclass
class EnergyReport:
    """Per-step ledger plus the audited inequality slacks.

    Arrays are indexed by state (0..n) or by step (1..n).  ``slack`` maps
    each audited estimate to max(0, lhs - rhs); an estimate passes when its
    slack stays under the residual-based ``budget``.
    """

    step_size: float
    h_norms_sq: np.ndarray
    v_norms_sq: np.ndarray
    diff_quotients_sq: np.ndarray
    f_dual_norms_sq: np.ndarray
    f_h_norms_sq: np.ndarray
    objectives: np.ndarray
    objective_anchors: np.ndarray
    slack: dict
    budget: float
    violations: list = field(default_factory=list)
    passed: bool = True


# ---------------------------------------------------------------------------
# audits


def energy_audit(traj: Trajectory, source: SourceSpec, model: DiffusionModel,
                 op: GalerkinOperator) -> EnergyReport:
    """Recompute the discrete energy ledger and audit the a-priori estimates.

    Checks, in order: the summed energy balance
        |u_n|^2 + sum |u_i - u_{i-1}|^2 + h mu sum |u_i|_V^2
            <= |u_0|^2 + (h/mu) sum |f_i|_{V*}^2,
    per-step decrease of the implicit objective, and the uniform V-norm
    bound  mu |u_i|_V^2 <= beta |u_0|_V^2 + Lh (|u_0|_V^2 + sum |u_j|_V^2)
    + 2h sum |f_j|^2.  The slack budget follows the measured tangent
    residuals: an inexact minimizer only enters the balance through the
    defect tested against its own tangent space.
    """
    if traj.method == "reference":
        raise ValueError("energy audit expects a rank-constrained trajectory")
    if len(traj.states) < 2:
        raise ValueError("need at least one step to audit")
    h = traj.step_size
    n = len(traj.states) - 1
    dense = [to_dense(u) for u in traj.states]
    hn2 = np.array([h_norm(y) ** 2 for y in dense])
    vn2 = np.array([v_norm(op, y) ** 2 for y in dense])
    dq2 = np.array([h_norm((dense[i] - dense[i - 1]) / h) ** 2 for i in range(1, n + 1)])
    f_means = [rhs_mean(source, traj.times[i - 1], traj.times[i]) for i in range(1, n + 1)]
    fd2 = np.array([v_dual_norm(op, f) ** 2 for f in f_means])
    fh2 = np.array([h_norm(f) ** 2 for f in f_means])
    objectives = np.array([
        step_objective(traj.states[i], traj.states[i - 1], h, traj.times[i],
                       f_means[i - 1], op, model) for i in range(1, n + 1)])
    anchors = np.array([
        step_objective(traj.states[i - 1], traj.states[i - 1], h, traj.times[i],
                       f_means[i - 1], op, model) for i in range(1, n + 1)])
    residuals = np.array([d.galerkin_residual for d in traj.diagnostics])

    # an approximate minimizer perturbs each balance by at most
    # 2 h resid_i |u_i|; add a roundoff term scaled to the quantities involved
    resid_term = 2.0 * h * float(np.sum(residuals * np.sqrt(hn2[1:])))
    violations = []

    # squared increments |u_i - u_{i-1}|^2 enter the balance, i.e. h^2 * dq2
    lhs_energy = hn2[-1] + h * h * float(np.sum(dq2)) + h * model.mu * float(np.sum(vn2[1:]))
    rhs_energy = hn2[0] + (h / model.mu) * float(np.sum(fd2))
    scale_energy = max(abs(lhs_energy), abs(rhs_energy), 1.0)
    budget = resid_term + 1e3 * np.finfo(float).eps * scale_energy
    slack_energy = max(0.0, lhs_energy - rhs_energy)
    if slack_energy > budget:
        violations.append(("energy_sum", -1, slack_energy))

    mono_excess = 0.0
    for i in range(n):
        tol = 1e-11 * max(1.0, abs(anchors[i]))
        excess = objectives[i] - anchors[i]
        mono_excess = max(mono_excess, excess)
        if excess > tol:
            violations.append(("objective_monotonicity", i + 1, float(excess)))
    slack_mono = max(0.0, mono_excess)

    lip = model.lipschitz_t
    rhs_v = model.beta * vn2[0] + lip * h * (vn2[0] + float(np.sum(vn2[1:]))) \
        + 2.0 * h * float(np.sum(fh2))
    slack_v = 0.0
    for i in range(n + 1):
        slack_v = max(slack_v, model.mu * vn2[i] - rhs_v)
    slack_v = max(0.0, slack_v)
    budget_v = resid_term + 1e3 * np.finfo(float).eps * max(rhs_v, 1.0)
    if slack_v > budget_v:
        violations.append(("v_bound", -1, slack_v))

    return EnergyReport(step_size=h, h_norms_sq=hn2, v_norms_sq=vn2,
                        diff_quotients_sq=dq2, f_dual_norms_sq=fd2, f_h_norms_sq=fh2,
                        objectives=objectives, objective_anchors=anchors,
                        slack={"energy_sum": slack_energy,
                               "objective_monotonicity": slack_mono,
                               "v_bound": slack_v},
                        budget=budget, violations=violations,
                        passed=not violations)


def interpolant_gap(traj: Trajectory) -> float:
    """Squared-L2-in-time gap between the piecewise-linear and the
    right-continuous piecewise-constant interpolants of a trajectory.

    The integrand is quadratic on each interval, so a per-interval Simpson
    rule evaluates the integral exactly; the result coincides with
    (h/3) sum |u_i - u_{i-1}|^2.
    """
    if len(traj.states) < 2:
        raise ValueError("need at least two states")
    h = traj.step_size
    total = 0.0
    for i in range(1, len(traj.states)):
        a = to_dense(traj.states[i - 1]) if isinstance(traj.states[i - 1], LowRankState) \
            else np.asarray(traj.states[i - 1])
        b = to_dense(traj.states[i]) if isinstance(traj.states[i], LowRankState) \
            else np.asarray(traj.states[i])
        at0 = h_norm(a - b) ** 2                      # s = 0
        at_half = h_norm(0.5 * (a + b) - b) ** 2      # s = 1/2
        at1 = 0.0                                     # s = 1
        total += h * (at0 + 4.0 * at_half + at1) / 6.0
    return total


# ---------------------------------------------------------------------------
# geometry suites


def curvature_suite(basis_dim: int, rank: int, trials: int, seed: int) -> PropertyReport:
    """Projector-difference and normal-component bounds on random state pairs.

    Checks, for states u, v and a random direction Z:
      * |(P_u - P_v) Z|_F <= (2 / sigma_r(u)) |u - v|_2   |Z|_F
      * |(P_u - P_v) Z|_F <= (2 / sigma_r(u)) |u - v|_F   |Z|_F (weaker form)
      * |(I - P_v)(u - v)|_F <= |u - v|_F^2 / sigma_r(u)
    Half the trials use an independent second state, half a nearby
    rank-preserving perturbation where the bounds get tight.
    """
    worst = {"projector_diff_spectral": 0.0, "projector_diff_frobenius": 0.0,
             "normal_component": 0.0}
    violations = 0
    for k in range(trials):
        rng = np.random.default_rng([seed, k])
        u = sample_state(rng, basis_dim, rank)
        v = sample_nearby_state(rng, u) if k % 2 == 0 else sample_state(rng, basis_dim, rank)
        z = rng.standard_normal((basis_dim, basis_dim))
        du = to_dense(u) - to_dense(v)
        sig = smallest_singular(u)
        diff = tangent_project(u, z) - tangent_project(v, z)
        lhs = h_norm(diff)
        zn = h_norm(z)
        ratios = {
            "projector_diff_spectral": _ratio(lhs, 2.0 / sig * np.linalg.norm(du, 2) * zn),
            "projector_diff_frobenius": _ratio(lhs, 2.0 / sig * h_norm(du) * zn),
            "normal_component": _ratio(h_norm(du - tangent_project(v, du)),
                                       h_norm(du) ** 2 / sig),
        }
        for name, r in ratios.items():
            worst[name] = max(worst[name], r)
            if r > 1.0 + _RATIO_SLACK:
                violations += 1
    return PropertyReport(trials=trials, violations=violations, worst_ratio=worst, seed=seed)


def projection_regularity_suite(basis_dim: int, rank: int, trials: int,
                                seed: int) -> PropertyReport:
    """Smoothness bounds that survive the tangent projection.

    Checks the V-norm bound of the tangent projector, the 1D gradient
    seminorm of each singular factor, the mixed second-derivative seminorm,
    and the L2 norm of the mixed operator part against its dual-norm bound
    (2 r |a12| / sigma_r) |u|_V^2, sampling the mixed coefficient from a
    rotating tensor.
    """
    op = build_operator(basis_dim)
    model = rotating_diffusion(1.0, 0.25, 1.0)
    lam = np.diagonal(op.stiffness_1d)
    mixed_w = np.outer(lam, lam)
    worst = {"projection_v_bound": 0.0, "factor_regularity": 0.0,
             "mixed_seminorm": 0.0, "a2_h_norm": 0.0}
    violations = 0
    for k in range(trials):
        rng = np.random.default_rng([seed, k])
        u = sample_state(rng, basis_dim, rank)
        y = to_dense(u)
        z = rng.standard_normal((basis_dim, basis_dim))
        t = rng.uniform(0.0, 2.0 * math.pi)
        sig = smallest_singular(u)
        vn = v_norm(op, y)
        ratios = {}
        bound = math.sqrt(1.0 + rank * vn ** 2 / sig ** 2) * v_norm(op, z)
        ratios["projection_v_bound"] = _ratio(v_norm(op, tangent_project(u, z)), bound)
        # per singular triple: gradient seminorm of the factor <= |u|_V / sigma_k
        w1, svals, w2t = np.linalg.svd(u.core)
        left = u.u1_factors @ w1
        right = u.u2_factors @ w2t.T
        fr = 0.0
        for j in range(rank):
            semi1 = math.sqrt(float(np.sum(lam * left[:, j] ** 2)))
            semi2 = math.sqrt(float(np.sum(lam * right[:, j] ** 2)))
            fr = max(fr, _ratio(semi1, vn / svals[j]), _ratio(semi2, vn / svals[j]))
        ratios["factor_regularity"] = fr
        mixed = math.sqrt(float(np.sum(mixed_w * y * y)))
        ratios["mixed_seminorm"] = _ratio(mixed, rank * vn ** 2 / sig)
        a12 = model.alpha(t)[0, 1]
        if abs(a12) > 1e-12:
            ratios["a2_h_norm"] = _ratio(h_norm(apply_a2(op, model, t, y)),
                                         2.0 * rank * abs(a12) / sig * vn ** 2)
        for name, r in ratios.items():
            worst[name] = max(worst[name], r)
            if r > 1.0 + _RATIO_SLACK:
                violations += 1
    return PropertyReport(trials=trials, violations=violations, worst_ratio=worst, seed=seed)


def tangency_suite(basis_dim: int, rank: int, trials: int, seed: int,
                   model: DiffusionModel) -> PropertyReport:
    """The divergence part maps states into their own tangent space.

    Ratios are measured against the stated numerical tolerances:
    relative tangent defect of A1 u (1e-10), reproduction of the state by
    its tangent projector (1e-12), and agreement of a1(u, v) with
    a1(u, P_u v) on random directions (1e-10 relative).
    """
    op = build_operator(basis_dim)
    worst = {"a1_tangency": 0.0, "state_reproduction": 0.0, "a1_projected_pairing": 0.0}
    violations = 0
    for k in range(trials):
        rng = np.random.default_rng([seed, k])
        u = sample_state(rng, basis_dim, rank)
        t = rng.uniform(0.0, 1.0)
        y = to_dense(u)
        a1u = apply_a1(op, model, t, y)
        defect = h_norm(a1u - tangent_project(u, a1u))
        r1 = _ratio(defect / max(h_norm(a1u), np.finfo(float).tiny), 1e-10)
        r2 = _ratio(h_norm(tangent_project(u, y) - y) / max(h_norm(y), 1e-300), 1e-12)
        z = rng.standard_normal((basis_dim, basis_dim))
        pair_full = float(np.sum(a1u * z))
        pair_proj = float(np.sum(a1u * tangent_project(u, z)))
        r3 = _ratio(abs(pair_full - pair_proj) / max(abs(pair_full), 1e-300), 1e-10)
        for name, r in (("a1_tangency", r1), ("state_reproduction", r2),
                        ("a1_projected_pairing", r3)):
            worst[name] = max(worst[name], r)
            if r > 1.0 + _RATIO_SLACK:
                violations += 1
    return PropertyReport(trials=trials, violations=violations, worst_ratio=worst, seed=seed)


# ---------------------------------------------------------------------------
# method agreement and convergence


def _random_source(rng: np.random.Generator, basis_dim: int) -> SourceSpec:
    from .galerkin import TimeProfile
    n_terms = int(rng.integers(0, 3))
    terms = []
    for _ in range(n_terms):
        kind = ("constant", "linear", "cosine")[int(rng.integers(0, 3))]
        profile = TimeProfile(kind, float(rng.normal()), float(rng.uniform(0.5, 5.0)))
        terms.append((profile, rng.standard_normal(basis_dim),
                      rng.standard_normal(basis_dim)))
    return separable_source(basis_dim, terms)


def equivalence_test(trials: int = 50, seed: int = 0) -> PropertyReport:
    """Single-sweep alternating step versus the projector-splitting step.

    Both paths share the same inner solves (exact, or conjugate gradient
    converged far below the bound), so their results must agree to
    roundoff; the audited bound is a relative Frobenius gap of 1e-10 per
    randomized configuration.
    """
    worst = {"single_sweep_vs_splitting": 0.0}
    violations = 0
    opts = StepOptions(single_sweep_mode=True)
    for k in range(trials):
        rng = np.random.default_rng([seed, k])
        basis_dim = int(rng.integers(4, 17))
        rank = int(rng.integers(1, min(4, basis_dim) + 1))
        u0 = sample_state(rng, basis_dim, rank, sigma_range=(1e-2, 1.0))
        if rng.uniform() < 0.5:
            model = constant_diffusion(sample_spd_tensor(rng))
        else:
            lam = rng.uniform(0.2, 2.0, size=2)
            model = rotating_diffusion(float(lam[0]), float(lam[1]),
                                       float(rng.uniform(-3.0, 3.0)))
        op = build_operator(basis_dim)
        h = math.exp(rng.uniform(math.log(1e-4), math.log(1e-1)))
        t1 = h
        f_bar = rhs_mean(_random_source(rng, basis_dim), 0.0, t1) \
            if rng.uniform() < 0.7 else np.zeros((basis_dim, basis_dim))
        sweep_state, _ = als_variational_step(u0, h, t1, f_bar, op, model, opts)
        split_state = splitting_euler_step(u0, h, t1, f_bar, op, model)
        gap = h_norm(to_dense(sweep_state) - to_dense(split_state)) \
            / max(h_norm(to_dense(split_state)), np.finfo(float).tiny)
        r = _ratio(gap, 1e-10)
        worst["single_sweep_vs_splitting"] = max(worst["single_sweep_vs_splitting"], r)
        if r > 1.0 + _RATIO_SLACK:
            violations += 1
    return PropertyReport(trials=trials, violations=violations, worst_ratio=worst, seed=seed)


def convergence_study(axis: str, u0: LowRankState, T: float, model: DiffusionModel,
                      source: SourceSpec, method: str = "als",
                      step_counts=(10, 20, 40, 80, 160), ranks=None,
                      n_steps: int = 100,
                      opts: Optional[StepOptions] = None) -> ConvergenceTable:
    """Final-time error against an oracle along a step-size or rank sweep.

    With constant diagonal alpha and no source, the closed-form decayed
    state is the oracle; otherwise a fine-step full-rank reference
    trajectory is used.  Orders are base-2 logarithms of consecutive error
    ratios along the step axis.
    """
    if axis not in ("step", "rank"):
        raise ValueError(f"unknown axis {axis!r}")
    op = build_operator(u0.basis_dim)
    if T == 0.0:
        params = list(step_counts) if axis == "step" else list(ranks or range(1, u0.rank + 1))
        return ConvergenceTable(axis, [ConvergenceRow(float(p), 0.0) for p in params])

    closed_form = model.diagonal and not model.time_dependent and not source.terms
    if closed_form:
        oracle = to_dense(exact_diagonal_solution(op, model, u0, T))
    else:
        fine = 4 * (max(step_counts) if axis == "step" else n_steps)
        ref = integrate("reference", to_dense(u0), T, fine, model, source, opts)
        oracle = ref.states[-1]

    def final_dense(traj):
        last = traj.states[-1]
        return to_dense(last) if isinstance(last, LowRankState) else last

    rows = []
    if axis == "step":
        for count in step_counts:
            traj = integrate(method, u0, T, count, model, source, opts)
            rows.append(ConvergenceRow(T / count, h_norm(final_dense(traj) - oracle)))
        for i in range(1, len(rows)):
            e0, e1 = rows[i - 1].error, rows[i].error
            h0, h1 = rows[i - 1].parameter, rows[i].parameter
            if e1 > 0 and e0 > 0:
                rows[i].observed_order = math.log(e0 / e1) / math.log(h0 / h1)
    else:
        dense0 = to_dense(u0)
        svals = np.linalg.svd(dense0, compute_uv=False)
        available = int(np.sum(svals > 1e-12 * svals[0]))
        for rank in (ranks or range(1, u0.rank + 1)):
            # requesting more rank than the start actually has just reproduces
            # the best available point (the extra directions start empty)
            u0_r = factorize(dense0, min(int(rank), available))
            traj = integrate(method, u0_r, T, n_steps, model, source, opts)
            rows.append(ConvergenceRow(float(rank), h_norm(final_dense(traj) - oracle)))
    return ConvergenceTable(axis, rows)
