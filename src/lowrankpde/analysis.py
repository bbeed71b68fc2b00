"""Randomized property suites and a-posteriori audits for the steppers.

Every suite draws each trial from its own RNG stream seeded by
``(seed, trial_index)``, so results are reproducible and independent of
trial order.  The geometry suites draw trial by trial but do their linear
algebra on stacks of trials, a chunk at a time; numpy runs a stacked call
slice by slice through the same LAPACK/BLAS routine, so a report is the same
to the last bit for any chunking.  Norms stay one BLAS dot per trial, and a
chunk of trials stays within a fixed memory budget (``_CHUNK_BYTES``).
Each check is one array expression over a chunk's trials, its ratio
(observed quantity over its proven bound) one entry per trial, and
``_tally`` folds a chunk's ratio arrays into the report at once.  Reports
carry each check's worst ratio and the count of ratios above 1 + 1e-9, the
slack for roundoff; a passing suite has none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .galerkin import (DiffusionModel, SourceSpec, TimeProfile, _check_integer, _stiffness_diag,
                       apply_a1, apply_a2, build_operator, constant_diffusion,
                       exact_diagonal_solution, h_distance, h_norm, rhs_mean_factors,
                       rotating_diffusion, separable_source, v_norm, zero_source)
from .manifold import (LowRankState, RankDeficiencyError, factorize, qr_nonneg, singular_values,
                       tangent_project, to_dense)
from .stepping import Trajectory, _forward_splitting_step, integrate, splitting_euler_step

__all__ = [
    "ConvergenceRow",
    "ConvergenceTable",
    "EnergyReport",
    "PropertyReport",
    "convergence_study",
    "curvature_suite",
    "energy_audit",
    "equivalence_test",
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
    low, high = sigma_range
    if not 0.0 < low <= high < math.inf:
        raise ValueError(f"sigma_range must satisfy 0 < low <= high < inf, got {sigma_range!r}")
    lo, hi = np.log(low), np.log(high)
    g1 = _each(rng, lambda g: g.standard_normal((basis_dim, rank)))
    g2 = _each(rng, lambda g: g.standard_normal((basis_dim, rank)))
    sig = np.sort(np.exp(_each(rng, lambda g: g.uniform(lo, hi, rank))), axis=-1)[..., ::-1]
    (q1, _), (q2, _) = qr_nonneg(g1), qr_nonneg(g2)
    return LowRankState(q1, sig[..., None] * np.eye(rank), q2)


def sample_nearby_state(rng: np.random.Generator | list, state: LowRankState) -> LowRankState:
    """Rank-preserving perturbation of ``state`` at a random small distance;
    stacked for a list of generators and a stack of states.  The distance is
    log-uniform in [1e-3, 1] times sigma_r / (3 sqrt(N))."""
    n = state.basis_dim
    factor = _each(rng, lambda g: math.exp(g.uniform(math.log(1e-3), 0.0)))
    noise = _each(rng, lambda g: g.standard_normal((n, n)))
    delta = singular_values(state)[..., -1] / (3.0 * math.sqrt(n)) * factor
    return factorize(to_dense(state) + delta[..., None, None] * noise, state.rank)


def sample_spd_tensor(rng: np.random.Generator) -> np.ndarray:
    """Random symmetric positive definite 2x2 tensor, eigenvalues in [0.2, 2]."""
    lam = rng.uniform(0.2, 2.0, size=2)
    theta = rng.uniform(0.0, math.pi)
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    return rot.T @ np.diag(lam) @ rot


def _ratio(observed, bound) -> np.ndarray:
    """``observed / bound`` elementwise; where the bound is <= 0, 0 if the
    observed value is at most 1e-14 and inf otherwise."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(bound <= 0.0, np.where(observed <= 1e-14, 0.0, math.inf), observed / bound)


# ---------------------------------------------------------------------------
# reports


@dataclass
class PropertyReport:
    trials: int
    violations: int
    worst_ratio: dict

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
    closed_form: bool        # whether the oracle is exact_diagonal_solution, not a reference run
    rows: list


@dataclass
class EnergyReport:
    """The audited inequality slacks and the Rothe gap of a trajectory.

    ``slack`` maps each balance estimate to max(0, lhs - rhs), NaN kept; an
    estimate passes when its slack is at most the residual-based ``budget``,
    so NaN fails.  ``interpolant_gap`` is (h/3) sum |u_i - u_{i-1}|^2 and
    ``rothe_bound`` its cap, h/3 times the balance's right-hand side.
    ``violations`` holds (name, step, excess); the audit passes when it is
    empty.
    """

    slack: dict
    budget: float
    interpolant_gap: float
    rothe_bound: float
    violations: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# audits


def energy_audit(traj: Trajectory) -> EnergyReport:
    """Recompute the discrete energy ledger of a trajectory and audit the
    a-priori estimates of the problem it records (``model``, ``source``).

    Checks, in order: the summed energy balance
        |u_n|^2 + sum |u_i - u_{i-1}|^2 + h mu sum |u_i|_V^2
            <= |u_0|^2 + (h/mu) sum |f_i|_{V*}^2,
    per-step decrease of the implicit objective, the uniform V-norm
    bound  mu |u_i|_V^2 <= beta |u_0|_V^2 + Lh (|u_0|_V^2 + sum |u_j|_V^2)
    + 2h sum |f_j|^2, for a run of any method, the Rothe bound (``rothe``)
    on the interpolant gap, and without a source |u_i| <= |u_{i-1}| (1 + 1e-12)
    (``h_norm_monotonicity``).  The gap is h/3 of a left-side term of the
    balance and ``rothe`` gets h/3 of its budget, so ``rothe`` cannot fail
    unless ``energy_sum`` does, up to roundoff.  The norms read each state as
    stored, so a rank-r run is audited from its factors.  A step decreases
    if its record says so (``StepDiagnostics.objective_decreased``).  The
    slack budget follows the measured tangent residuals: an inexact minimizer
    only enters the balance through the defect tested against its own
    tangent space.  A splitting step is one sweep, so its residual is not at
    roundoff: on the anisotropic CLI config with ``method = splitting`` the
    budget is 3.9e-3 against a Rothe bound of 5.3e-5, and there
    ``energy_sum`` and ``v_bound`` can only fail by more than that budget.
    """
    if len(traj.states) < 2:
        raise ValueError("need at least one step to audit")
    h, model, source = traj.step_size, traj.model, traj.source
    hn2 = np.array([h_norm(y) ** 2 for y in traj.states])
    vn2 = np.array([v_norm(y) ** 2 for y in traj.states])
    steps = [h_distance(b, a) for a, b in zip(traj.states, traj.states[1:])]
    dq2 = np.array([(d / h) ** 2 for d in steps])
    # step i's source mean is P diag(c_i) Q^T for the terms' profile means c_i,
    # so |f_i|^2 = c_i^T M c_i with the (m, m) Gram M of the terms in H or V*;
    # the V* Gram sums over the N x N weights 1 / (lam_a + lam_b), built in
    # place a chunk of columns (at most _CHUNK_BYTES) at a time
    (m, n), p, q = source.p.shape, source.p, source.q
    gram_dual = np.zeros((m, m))
    if m:
        lam, width = _stiffness_diag(n), max(1, _CHUNK_BYTES // (8 * n))
        pp, qq, parts = p[:, None] * p, q[:, None] * q, []
        for j in range(0, n, width):
            weights = np.add.outer(lam, lam[j:j + width])
            np.reciprocal(weights, out=weights)
            parts.append(np.sum(pp[..., j:j + width] * (qq @ weights), axis=-1))
            del weights                 # so the next chunk is not built beside it
        gram_dual = np.add.reduce(parts)
    means = np.array([[profile.mean(t_a, t_b) for profile in source.profiles]
                      for t_a, t_b in zip(traj.times, traj.times[1:])])
    fd2 = np.sum((means @ gram_dual) * means, axis=1)
    fh2 = np.sum((means @ ((p @ p.T) * (q @ q.T))) * means, axis=1)
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
    slack_energy = float(np.maximum(lhs_energy - rhs_energy, 0.0))   # NaN stays NaN
    if not slack_energy <= budget:
        violations.append(("energy_sum", -1, slack_energy))

    excess = objectives - anchors
    violations += [("objective_monotonicity", i + 1, float(excess[i]))
                   for i, d in enumerate(traj.diagnostics) if not d.objective_decreased]

    lip = model.lipschitz_t
    rhs_v = model.beta * vn2[0] + lip * h * (vn2[0] + float(np.sum(vn2[1:]))) \
        + 2.0 * h * float(np.sum(fh2))
    slack_v = float(np.maximum(np.max(model.mu * vn2 - rhs_v), 0.0))
    budget_v = resid_term + 1e3 * np.finfo(float).eps * max(rhs_v, 1.0)
    if not slack_v <= budget_v:
        violations.append(("v_bound", -1, slack_v))

    # at t_{i-1} + s the interpolants differ by (1 - s/h)(u_{i-1} - u_i)
    gap, bound = h / 3.0 * sum(d ** 2 for d in steps), h / 3.0 * rhs_energy
    if not gap <= bound + h / 3.0 * budget:
        violations.append(("rothe", -1, gap - bound))

    hn = np.sqrt(hn2)       # without a source the H norm may not rise
    violations += [("h_norm_monotonicity", i, float(hn[i] - hn[i - 1])) for i in range(1, len(hn))
                   if not source.profiles and hn[i] > hn[i - 1] * (1 + 1e-12)]

    return EnergyReport(slack={"energy_sum": slack_energy,
                               "objective_monotonicity": float(np.maximum(np.max(excess), 0.0)),
                               "v_bound": slack_v}, budget=budget,
                        interpolant_gap=gap, rothe_bound=bound, violations=violations)


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
    _check_integer("basis_dim", basis_dim, 1)
    _check_integer("rank", rank, 1)
    if rank > basis_dim:
        raise ValueError(f"rank must lie in [1, basis_dim={basis_dim}], got {rank}")
    _check_integer("trials", trials, 1)
    _check_integer("seed", seed, 0)
    per_trial = _STACKED_PER_TRIAL * 8 * basis_dim ** 2 + _TRIAL_BYTES
    step = groups * max(1, _CHUNK_BYTES // per_trial)
    for group in range(groups):
        for start in range(group, trials, step):
            yield group, [np.random.default_rng([seed, k])
                          for k in range(start, min(start + step, trials), groups)]


def _spectral_distances(u: LowRankState, v: LowRankState) -> np.ndarray:
    """Spectral norm of u - v for two stacks of states: u - v = [U_u U_v]
    diag(S_u, -S_v) [V_u V_v]^T, the norm of a 2r-by-2r block of R factors."""
    k = u.rank
    r1, r2 = (np.linalg.qr(np.concatenate(pair, axis=-1), mode="r")
              for pair in ((u.u1_factors, v.u1_factors), (u.u2_factors, v.u2_factors)))
    block = r1[..., :k] @ u.core @ r2[..., :k].mT - r1[..., k:] @ v.core @ r2[..., k:].mT
    return np.linalg.norm(block, 2, axis=(-2, -1))


def _tally(report: PropertyReport, ratios: dict) -> PropertyReport:
    """Fold ``{name: ratio array}`` into ``report`` and return it: each name's
    worst ratio (from 0.0, so an empty array leaves it at 0.0) and one
    violation per ratio not at most 1 + _RATIO_SLACK, so a NaN ratio is one.
    Max and count ignore trial order."""
    for name, r in ratios.items():
        report.worst_ratio[name] = float(np.max(r, initial=report.worst_ratio.get(name, 0.0)))
        report.violations += int(np.count_nonzero(~(r <= 1.0 + _RATIO_SLACK)))
    return report


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
    report = PropertyReport(trials, 0, {})
    for odd, rngs in _chunks(n, rank, trials, seed, groups=2):
        u = sample_state(rngs, n, rank)
        v = sample_state(rngs, n, rank) if odd else sample_nearby_state(rngs, u)
        z = _each(rngs, lambda g: g.standard_normal((n, n)))
        du = to_dense(u) - to_dense(v)
        sig, zn, dn = singular_values(u)[:, -1], h_norm(z), h_norm(du)
        lhs = h_norm(tangent_project(u, z) - tangent_project(v, z))
        _tally(report, {
            "projector_diff_spectral": _ratio(lhs, 2.0 / sig * _spectral_distances(u, v) * zn),
            "projector_diff_frobenius": _ratio(lhs, 2.0 / sig * dn * zn),
            "normal_component": _ratio(h_norm(du - tangent_project(v, du)), dn ** 2 / sig)})
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
    report = PropertyReport(trials, 0, {})
    for _, rngs in _chunks(n, rank, trials, seed):
        u = sample_state(rngs, n, rank)
        y = to_dense(u)
        z = _each(rngs, lambda g: g.standard_normal((n, n)))
        a = np.array([model.alpha(g.uniform(0.0, 2.0 * math.pi)) for g in rngs])
        # singular factors as rows (left or right, trial, triple, mode), copied
        # contiguous so each seminorm sums its row in memory order
        w1, svals, w2t = np.linalg.svd(u.core)
        factors = np.ascontiguousarray(np.stack((u.u1_factors @ w1, u.u2_factors @ w2t.mT)).mT)
        sig, vn, a12 = svals[:, -1], v_norm(y), a[:, 0, 1]
        _tally(report, {
            "projection_v_bound": _ratio(v_norm(tangent_project(u, z)),
                                         np.sqrt(1.0 + rank * vn ** 2 / sig ** 2) * v_norm(z)),
            # per singular triple: gradient seminorm of the factor <= |u|_V / sigma_k
            "factor_regularity": np.max(_ratio(np.sqrt(np.sum(lam * factors ** 2, axis=-1)),
                                               vn[:, None] / svals), axis=(0, 2)),
            "mixed_seminorm": _ratio(np.sqrt(np.sum(mixed_w * y * y, axis=(-2, -1))),
                                     rank * vn ** 2 / sig),
            "a2_h_norm": _ratio(h_norm(apply_a2(op, a, y)),
                                2.0 * rank * np.abs(a12) / sig * vn ** 2)[np.abs(a12) > 1e-12]})
    return report


def tangency_suite(basis_dim: int, rank: int, trials: int, seed: int) -> PropertyReport:
    """The divergence part maps states into their own tangent space.

    Ratios are measured against the stated numerical tolerances:
    relative tangent defect of A1 u (1e-10), reproduction of the state by
    its tangent projector (1e-12), and agreement of a1(u, v) with
    a1(u, P_u v) on random directions (1e-10 relative), sampling the
    tensor of ``rotating_diffusion(1.0, 0.25, 1.0)`` at times in [0, 1].
    """
    n = basis_dim
    op = build_operator(n)
    model = rotating_diffusion(1.0, 0.25, 1.0)
    report = PropertyReport(trials, 0, {})
    for _, rngs in _chunks(n, rank, trials, seed):
        u = sample_state(rngs, n, rank)
        a = np.array([model.alpha(g.uniform(0.0, 1.0)) for g in rngs])
        z = _each(rngs, lambda g: g.standard_normal((n, n)))
        y = to_dense(u)
        a1u = apply_a1(op, a, y)
        full = np.sum(a1u * z, axis=(-2, -1))
        proj = np.sum(a1u * tangent_project(u, z), axis=(-2, -1))
        _tally(report, {
            "a1_tangency": _ratio(h_norm(a1u - tangent_project(u, a1u))
                                  / np.maximum(h_norm(a1u), np.finfo(float).tiny), 1e-10),
            "state_reproduction": _ratio(h_norm(tangent_project(u, y) - y)
                                         / np.maximum(h_norm(y), 1e-300), 1e-12),
            "a1_projected_pairing": _ratio(np.abs(full - proj)
                                           / np.maximum(np.abs(full), 1e-300), 1e-10)})
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

    Both solve the same systems (exactly, or by conjugate gradient converged
    far below the bound, started warm in the step and at a zero core in the
    check), so their results must agree to roundoff; the audited bound is a
    relative Frobenius gap of 1e-10 per randomized configuration, read from
    the factors.
    """
    _check_integer("trials", trials, 1)
    _check_integer("seed", seed, 0)
    gaps = np.empty(trials)
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
        gaps[k] = h_distance(split_state, forward_state) / max(h_norm(forward_state),
                                                                np.finfo(float).tiny)
    return _tally(PropertyReport(trials, 0, {}), {"single_sweep_vs_splitting": _ratio(gaps, 1e-10)})


def convergence_study(axis: str, u0: LowRankState, T: float, model: DiffusionModel,
                      source: SourceSpec, method: str = "als",
                      step_counts=(10, 20, 40, 80, 160), n_steps: int = 100) -> ConvergenceTable:
    """Final-time error against an oracle along a step-size or rank sweep.

    With constant diagonal alpha and no source, the closed-form decayed
    state is the oracle (the table's ``closed_form``); otherwise a fine-step
    full-rank reference trajectory is used.  Orders are base-2 logarithms
    of consecutive error ratios along the step axis; the rank axis runs
    ranks 1 .. u0.rank from the best rank-k approximations of the start.
    A run that the rank monitor halts before T has no final-time error: it
    raises RankDeficiencyError naming its step count or rank.
    """
    if axis not in ("step", "rank"):
        raise ValueError(f"unknown axis {axis!r}")
    if axis == "step" and (len(step_counts) == 0 or len(set(step_counts)) < len(step_counts)):
        raise ValueError(f"step_counts must be distinct and nonempty, got {tuple(step_counts)}")
    closed_form = model.constant_diagonal and not source.profiles
    if closed_form:
        oracle = exact_diagonal_solution(model, u0, T)
    else:
        fine = 4 * (max(step_counts) if axis == "step" else n_steps)
        ref = integrate("reference", to_dense(u0), T, fine, model, source)
        oracle = ref.states[-1]

    def error(traj: Trajectory, run: str) -> float:
        if traj.halted_early is not None:
            raise RankDeficiencyError(f"the rank monitor halted the {run} run at step "
                                      f"{traj.halted_early} (t = {traj.times[-1]:.6g}), "
                                      f"before T = {T:.6g}")
        return h_distance(traj.states[-1], oracle)

    rows = []
    if axis == "step":
        for count in step_counts:
            traj = integrate(method, u0, T, count, model, source)
            rows.append(ConvergenceRow(T / count, error(traj, f"{count}-step")))
        for i in range(1, len(rows)):
            e0, e1 = rows[i - 1].error, rows[i].error
            h0, h1 = rows[i - 1].parameter, rows[i].parameter
            if e1 > 0 and e0 > 0:
                rows[i].observed_order = math.log(e0 / e1) / math.log(h0 / h1)
    else:
        best = factorize(to_dense(u0), u0.rank)
        for k in range(1, u0.rank + 1):
            # the best rank-k start is the leading k columns of the best rank-r one
            u0_k = LowRankState(best.u1_factors[:, :k].copy(), best.core[:k, :k].copy(),
                                best.u2_factors[:, :k].copy())
            traj = integrate(method, u0_k, T, n_steps, model, source)
            rows.append(ConvergenceRow(float(k), error(traj, f"rank-{k}")))
    return ConvergenceTable(closed_form, rows)
