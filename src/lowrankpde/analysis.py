"""Randomized property suites and a-posteriori audits for the steppers.

Every suite draws each trial from its own RNG stream seeded by
``(seed, trial_index)``, so results are reproducible and independent of
trial order.  The geometry suites draw trial by trial but do their linear
algebra on stacks of trials, a chunk at a time; numpy runs a stacked call
slice by slice through the same LAPACK/BLAS routine, so a report is the same
to the last bit for any chunking.  Norms stay one BLAS dot per trial, and a
chunk of trials stays within a fixed memory budget (``_CHUNK_BYTES``).
Reports carry the worst observed ratio (observed quantity over its proven
bound); a passing suite has every ratio at most 1 up to a 1e-9 slack for
roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .galerkin import (DiffusionModel, GalerkinOperator, SourceSpec, TimeProfile, apply_a1,
                       apply_a2, build_operator, constant_diffusion, exact_diagonal_solution,
                       h_norm, rhs_mean_factors, rotating_diffusion, separable_source,
                       v_dual_norm, v_norm, zero_source)
from .manifold import (DEFAULT_RANK_FLOOR, LowRankState, factorize, qr_nonneg,
                       singular_values, tangent_project, to_dense)
from .stepping import (StepOptions, Trajectory, _forward_splitting_step, integrate,
                       splitting_euler_step)

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


def _each(rng, draw):
    """``draw(rng)``, or ``draw`` of each generator of a list, stacked."""
    return np.array([draw(g) for g in rng]) if isinstance(rng, list) else draw(rng)


def sample_state(rng: np.random.Generator | list, basis_dim: int, rank: int,
                 sigma_range=(1e-3, 1.0)) -> LowRankState:
    """Random rank-r state: orthonormal factors from QR of Gaussian blocks,
    log-uniform singular values over ``sigma_range``.  A list of generators
    gives the stack of one state per generator, each drawn as alone."""
    lo, hi = np.log(sigma_range[0]), np.log(sigma_range[1])
    g1 = _each(rng, lambda g: g.standard_normal((basis_dim, rank)))
    g2 = _each(rng, lambda g: g.standard_normal((basis_dim, rank)))
    sig = np.sort(np.exp(_each(rng, lambda g: g.uniform(lo, hi, rank))), axis=-1)[..., ::-1]
    (q1, _), (q2, _) = qr_nonneg(g1), qr_nonneg(g2)
    return LowRankState(q1, sig[..., None] * np.eye(rank), q2)


def sample_nearby_state(rng: np.random.Generator | list, state: LowRankState,
                        max_rel: float = 1.0) -> LowRankState:
    """Rank-preserving perturbation of ``state`` at a random small distance;
    stacked for a list of generators and a stack of states."""
    n = state.basis_dim
    factor = _each(rng, lambda g: math.exp(g.uniform(math.log(1e-3), math.log(max_rel))))
    noise = _each(rng, lambda g: g.standard_normal((n, n)))
    delta = singular_values(state)[..., -1] / (3.0 * math.sqrt(n)) * factor
    return factorize(to_dense(state) + delta[..., None, None] * noise, state.rank)


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
    + 2h sum |f_j|^2, for a run of any method.  F at each step's anchor and
    result is the first and last entry of its recorded objective trace, not
    evaluated again.  The slack budget follows the measured tangent
    residuals: an inexact minimizer only enters the balance through the
    defect tested against its own tangent space.
    """
    if len(traj.states) < 2:
        raise ValueError("need at least one step to audit")
    h = traj.step_size
    n = len(traj.states) - 1
    dense = [traj.dense(i) for i in range(n + 1)]
    hn2 = np.array([h_norm(y) ** 2 for y in dense])
    vn2 = np.array([v_norm(op, y) ** 2 for y in dense])
    dq2 = np.array([h_norm((dense[i] - dense[i - 1]) / h) ** 2 for i in range(1, n + 1)])
    f_pairs = [rhs_mean_factors(source, traj.times[i - 1], traj.times[i])
               for i in range(1, n + 1)]
    f_means = [p @ q.T for p, q in f_pairs]
    fd2 = np.array([v_dual_norm(op, f) ** 2 for f in f_means])
    fh2 = np.array([h_norm(f) ** 2 for f in f_means])
    objectives = np.array([d.objective_value for d in traj.diagnostics])
    anchors = np.array([d.objective_trace[0] for d in traj.diagnostics])
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

    lip = model.lipschitz_t
    rhs_v = model.beta * vn2[0] + lip * h * (vn2[0] + float(np.sum(vn2[1:]))) \
        + 2.0 * h * float(np.sum(fh2))
    slack_v = max(0.0, np.max(model.mu * vn2 - rhs_v))
    budget_v = resid_term + 1e3 * np.finfo(float).eps * max(rhs_v, 1.0)
    if slack_v > budget_v:
        violations.append(("v_bound", -1, slack_v))

    return EnergyReport(step_size=h, h_norms_sq=hn2, v_norms_sq=vn2,
                        diff_quotients_sq=dq2, f_dual_norms_sq=fd2, f_h_norms_sq=fh2,
                        objectives=objectives, objective_anchors=anchors,
                        slack={"energy_sum": slack_energy,
                               "objective_monotonicity": mono_excess,
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
        a, b = traj.dense(i - 1), traj.dense(i)
        at0 = h_norm(a - b) ** 2                      # s = 0
        at_half = h_norm(0.5 * (a + b) - b) ** 2      # s = 1/2
        at1 = 0.0                                     # s = 1
        total += h * (at0 + 4.0 * at_half + at1) / 6.0
    return total


# ---------------------------------------------------------------------------
# geometry suites


#: Memory budget, in bytes, of one chunk of trials: per trial at most _STACKED_PER_TRIAL
#: stacked N x N arrays at once, plus _TRIAL_BYTES for its generator and ratios.
_CHUNK_BYTES = 16 * 2 ** 20
_STACKED_PER_TRIAL = 12
_TRIAL_BYTES = 4096


def _chunks(basis_dim: int, rank: int, trials: int, seed: int, groups: int = 1):
    """Check a geometry suite's arguments, then yield ``(group, rngs)`` over
    chunks of the trials k with k % groups == group; ``rngs`` holds each
    trial's stream ``default_rng([seed, k])``."""
    if basis_dim < 1:
        raise ValueError(f"basis_dim must be >= 1, got {basis_dim}")
    if not 1 <= rank <= basis_dim:
        raise ValueError(f"rank must lie in [1, basis_dim={basis_dim}], got {rank}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    per_trial = _STACKED_PER_TRIAL * 8 * basis_dim ** 2 + _TRIAL_BYTES
    step = groups * max(1, _CHUNK_BYTES // per_trial)
    for group in range(groups):
        for start in range(group, trials, step):
            yield group, [np.random.default_rng([seed, k])
                          for k in range(start, min(start + step, trials), groups)]


def _h_norms(stack: np.ndarray) -> np.ndarray:
    """:func:`h_norm` of each matrix of a stack, one BLAS dot per matrix."""
    flat = stack.reshape(len(stack), 1, -1)
    return np.sqrt(flat @ flat.mT).ravel()


def _tally(report: PropertyReport, rows: list) -> None:
    """Fold per-trial ratio dicts into ``report``; max and count ignore trial order."""
    for ratios in rows:
        for name, r in ratios.items():
            report.worst_ratio[name] = max(report.worst_ratio[name], r)
            if r > 1.0 + _RATIO_SLACK:
                report.violations += 1


def curvature_suite(basis_dim: int, rank: int, trials: int, seed: int) -> PropertyReport:
    """Projector-difference and normal-component bounds on random state pairs.

    Checks, for states u, v and a random direction Z:
      * |(P_u - P_v) Z|_F <= (2 / sigma_r(u)) |u - v|_2   |Z|_F
      * |(P_u - P_v) Z|_F <= (2 / sigma_r(u)) |u - v|_F   |Z|_F (weaker form)
      * |(I - P_v)(u - v)|_F <= |u - v|_F^2 / sigma_r(u)
    Even trials use a nearby rank-preserving perturbation, where the bounds
    get tight, odd ones an independent second state.
    """
    n = basis_dim
    report = PropertyReport(trials, 0, dict.fromkeys(
        ("projector_diff_spectral", "projector_diff_frobenius", "normal_component"), 0.0), seed)
    for odd, rngs in _chunks(n, rank, trials, seed, groups=2):
        u = sample_state(rngs, n, rank)
        v = sample_state(rngs, n, rank) if odd else sample_nearby_state(rngs, u)
        z = _each(rngs, lambda g: g.standard_normal((n, n)))
        du = to_dense(u) - to_dense(v)
        cols = (singular_values(u)[:, -1],
                _h_norms(tangent_project(u, z) - tangent_project(v, z)), _h_norms(z),
                np.linalg.norm(du, 2, axis=(-2, -1)), _h_norms(du),
                _h_norms(du - tangent_project(v, du)))
        _tally(report, [
            {"projector_diff_spectral": _ratio(lhs, 2.0 / sig * spec * zn),
             "projector_diff_frobenius": _ratio(lhs, 2.0 / sig * dn * zn),
             "normal_component": _ratio(normal, dn ** 2 / sig)}
            for sig, lhs, zn, spec, dn, normal in zip(*(c.tolist() for c in cols))])
    return report


def projection_regularity_suite(basis_dim: int, rank: int, trials: int,
                                seed: int) -> PropertyReport:
    """Smoothness bounds that survive the tangent projection.

    Checks the V-norm bound of the tangent projector, the 1D gradient
    seminorm of each singular factor, the mixed second-derivative seminorm,
    and the L2 norm of the mixed operator part against its dual-norm bound
    (2 r |a12| / sigma_r) |u|_V^2, sampling the mixed coefficient from a
    rotating tensor.
    """
    n = basis_dim
    op = build_operator(n)
    model = rotating_diffusion(1.0, 0.25, 1.0)
    lam = op.stiffness_diag
    mixed_w = np.outer(lam, lam)
    report = PropertyReport(trials, 0, dict.fromkeys(
        ("projection_v_bound", "factor_regularity", "mixed_seminorm", "a2_h_norm"), 0.0), seed)
    for _, rngs in _chunks(n, rank, trials, seed):
        u = sample_state(rngs, n, rank)
        y = to_dense(u)
        z = _each(rngs, lambda g: g.standard_normal((n, n)))
        t = [g.uniform(0.0, 2.0 * math.pi) for g in rngs]
        # singular factors as rows, so each seminorm sums one contiguous row
        w1, svals, w2t = np.linalg.svd(u.core)
        left = np.ascontiguousarray((u.u1_factors @ w1).mT)
        right = np.ascontiguousarray((u.u2_factors @ w2t.mT).mT)
        cols = (singular_values(u)[:, -1], v_norm(op, y), v_norm(op, z),
                v_norm(op, tangent_project(u, z)), svals,
                np.sqrt(np.sum(lam * left ** 2, axis=-1)),
                np.sqrt(np.sum(lam * right ** 2, axis=-1)),
                np.sqrt(np.sum(mixed_w * y * y, axis=(-2, -1))),
                np.array([model.alpha(s)[0, 1] for s in t]), _h_norms(apply_a2(op, model, t, y)))
        rows = []
        for sig, vn, vz, vp, sv, semi1, semi2, mixed, a12, a2n in zip(
                *(c.tolist() for c in cols)):
            # per singular triple: gradient seminorm of the factor <= |u|_V / sigma_k
            fr = max([0.0] + [_ratio(s, vn / sv[j]) for j in range(rank)
                              for s in (semi1[j], semi2[j])])
            rows.append({"projection_v_bound": _ratio(
                             vp, math.sqrt(1.0 + rank * vn ** 2 / sig ** 2) * vz),
                         "factor_regularity": fr,
                         "mixed_seminorm": _ratio(mixed, rank * vn ** 2 / sig)})
            if abs(a12) > 1e-12:
                rows[-1]["a2_h_norm"] = _ratio(a2n, 2.0 * rank * abs(a12) / sig * vn ** 2)
        _tally(report, rows)
    return report


def tangency_suite(basis_dim: int, rank: int, trials: int, seed: int,
                   model: DiffusionModel) -> PropertyReport:
    """The divergence part maps states into their own tangent space.

    Ratios are measured against the stated numerical tolerances:
    relative tangent defect of A1 u (1e-10), reproduction of the state by
    its tangent projector (1e-12), and agreement of a1(u, v) with
    a1(u, P_u v) on random directions (1e-10 relative).
    """
    n = basis_dim
    op = build_operator(n)
    report = PropertyReport(trials, 0, dict.fromkeys(
        ("a1_tangency", "state_reproduction", "a1_projected_pairing"), 0.0), seed)
    for _, rngs in _chunks(n, rank, trials, seed):
        u = sample_state(rngs, n, rank)
        t = [g.uniform(0.0, 1.0) for g in rngs]
        z = _each(rngs, lambda g: g.standard_normal((n, n)))
        y = to_dense(u)
        a1u = apply_a1(op, model, t, y)
        cols = (_h_norms(a1u - tangent_project(u, a1u)), _h_norms(a1u),
                _h_norms(tangent_project(u, y) - y), _h_norms(y),
                np.sum(a1u * z, axis=(-2, -1)),
                np.sum(a1u * tangent_project(u, z), axis=(-2, -1)))
        _tally(report, [
            {"a1_tangency": _ratio(defect / max(a1n, np.finfo(float).tiny), 1e-10),
             "state_reproduction": _ratio(rep / max(yn, 1e-300), 1e-12),
             "a1_projected_pairing": _ratio(abs(full - proj) / max(abs(full), 1e-300), 1e-10)}
            for defect, a1n, rep, yn, full, proj in zip(*(c.tolist() for c in cols))])
    return report


# ---------------------------------------------------------------------------
# method agreement and convergence


def _random_source(rng: np.random.Generator, basis_dim: int) -> SourceSpec:
    n_terms = int(rng.integers(0, 3))
    terms = []
    for _ in range(n_terms):
        kind = ("constant", "linear", "cosine")[int(rng.integers(0, 3))]
        profile = TimeProfile(kind, float(rng.normal()), float(rng.uniform(0.5, 5.0)))
        terms.append((profile, rng.standard_normal(basis_dim),
                      rng.standard_normal(basis_dim)))
    return separable_source(basis_dim, terms)


def equivalence_test(trials: int = 50, seed: int = 0) -> PropertyReport:
    """Projector-splitting step (one alternating sweep, projection core
    update) versus the same step with the explicit-Euler core update.

    Both share the inner solves (exact, or conjugate gradient converged far
    below the bound), so their results must agree to roundoff; the audited
    bound is a relative Frobenius gap of 1e-10 per randomized configuration.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    report = PropertyReport(trials, 0, {"single_sweep_vs_splitting": 0.0}, seed)
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
        source = _random_source(rng, basis_dim) if rng.uniform() < 0.7 \
            else zero_source(basis_dim)
        f_pair = rhs_mean_factors(source, 0.0, t1)
        split_state, _ = splitting_euler_step(u0, h, t1, f_pair, op, model)
        forward_state = _forward_splitting_step(u0, h, t1, f_pair, op, model)
        gap = h_norm(to_dense(split_state) - to_dense(forward_state)) \
            / max(h_norm(to_dense(forward_state)), np.finfo(float).tiny)
        _tally(report, [{"single_sweep_vs_splitting": _ratio(gap, 1e-10)}])
    return report


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
    if axis == "step" and len(set(step_counts)) < len(step_counts):
        raise ValueError(f"step_counts must be distinct, got {tuple(step_counts)}")
    op = build_operator(u0.basis_dim)
    closed_form = model.diagonal and not model.time_dependent and not source.terms
    if closed_form:
        oracle = to_dense(exact_diagonal_solution(op, model, u0, T))
    else:
        fine = 4 * (max(step_counts) if axis == "step" else n_steps)
        ref = integrate("reference", to_dense(u0), T, fine, model, source, opts)
        oracle = ref.states[-1]

    rows = []
    if axis == "step":
        for count in step_counts:
            traj = integrate(method, u0, T, count, model, source, opts)
            rows.append(ConvergenceRow(T / count, h_norm(traj.dense(-1) - oracle)))
        for i in range(1, len(rows)):
            e0, e1 = rows[i - 1].error, rows[i].error
            h0, h1 = rows[i - 1].parameter, rows[i].parameter
            if e1 > 0 and e0 > 0:
                rows[i].observed_order = math.log(e0 / e1) / math.log(h0 / h1)
    else:
        dense0 = to_dense(u0)
        svals = np.linalg.svd(dense0, compute_uv=False)
        available = int(np.sum(svals > DEFAULT_RANK_FLOOR * svals[0]))
        for rank in (ranks or range(1, u0.rank + 1)):
            # requesting more rank than the start actually has just reproduces
            # the best available point (the extra directions start empty)
            u0_r = factorize(dense0, min(int(rank), available))
            traj = integrate(method, u0_r, T, n_steps, model, source, opts)
            rows.append(ConvergenceRow(float(rank), h_norm(traj.dense(-1) - oracle)))
    return ConvergenceTable(axis, rows)
