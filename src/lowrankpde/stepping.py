"""Backward-Euler time steppers: unconstrained reference solve, the
rank-constrained variational step solved by alternating half-sweeps, and the
projector-splitting step (one half-sweep plus a core update).

Each implicit step minimizes

    F(y) = |y - u_i|_F^2 / (2h) + a(y, y; t_next) / 2 - <f_mean, y>_F

over the admissible set: all matrices for the reference solver, the rank-r
set for the manifold methods.  The coefficient tensor is frozen at t_next
for the whole step (all sweeps), and f_mean is the exact interval mean of
the source.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.sparse.linalg import LinearOperator, cg

from .galerkin import (DiffusionModel, GalerkinOperator, SourceSpec, apply_operator,
                       build_operator, h_norm, rhs_mean)
from .manifold import (LowRankState, RankDeficiencyError, qr_nonneg, singular_values,
                       smallest_singular, tangent_project, to_dense)

__all__ = [
    "HaltRecord",
    "InnerSolveError",
    "StepDiagnostics",
    "StepOptions",
    "Trajectory",
    "als_variational_step",
    "galerkin_residual",
    "integrate",
    "reference_step",
    "splitting_euler_step",
    "step_objective",
]

log = logging.getLogger(__name__)

# Relative residual at which the inner conjugate gradient stops; tight
# enough that converged steps keep their Galerkin residual at roundoff.
_CG_RTOL = 1e-14

# Hard floor for the triangular blocks produced inside a step; deliberately
# far below any trajectory-level rank floor so the integration monitor gets
# to halt gracefully before a step blows up.
_QR_COLLAPSE_REL = 1e3 * np.finfo(float).eps


class InnerSolveError(RuntimeError):
    """The iterative inner solver did not reach its tolerance."""


@dataclass(frozen=True)
class StepOptions:
    """Knobs shared by all steppers.

    single_sweep_mode stops the alternating solver after exactly one sweep.
    """

    als_tol: float = 1e-11
    als_max_sweeps: int = 100
    rank_floor_rel: float = 1e-12
    single_sweep_mode: bool = False


@dataclass(frozen=True)
class StepDiagnostics:
    """Per-step record emitted by the manifold steppers.

    objective_trace holds the objective after the warm start and after each
    half-sweep, so monotonicity of the alternating solver is observable.
    """

    sweeps_used: int
    galerkin_residual: float
    objective_value: float
    sigma_r: float
    objective_decreased: bool
    objective_trace: tuple = ()


@dataclass(frozen=True)
class HaltRecord:
    step_index: int
    sigma_r: float


@dataclass
class Trajectory:
    times: np.ndarray
    states: list
    diagnostics: list
    method: str
    halted_early: Optional[HaltRecord] = None

    @property
    def step_size(self) -> float:
        return float(self.times[1] - self.times[0])


def _dense(u) -> np.ndarray:
    return to_dense(u) if isinstance(u, LowRankState) else np.asarray(u, dtype=float)


def step_objective(u, u_prev, h: float, t_next: float, f_mean: np.ndarray,
                   op: GalerkinOperator, model: DiffusionModel) -> float:
    """Value of the implicit-step objective F at ``u`` anchored at ``u_prev``."""
    y = _dense(u)
    d = y - _dense(u_prev)
    quad = float(np.sum(apply_operator(op, model, t_next, y) * y))
    return float(np.sum(d * d)) / (2.0 * h) + 0.5 * quad - float(np.sum(f_mean * y))


# ---------------------------------------------------------------------------
# inner solves


def _pcg(apply, precondition, rhs: np.ndarray) -> np.ndarray:
    """Solve the SPD system ``apply(X) = rhs`` by preconditioned conjugate
    gradient; ``precondition`` applies an SPD approximate inverse."""
    shape, n = rhs.shape, rhs.size

    def linear(fn):
        return LinearOperator((n, n), matvec=lambda v: fn(v.reshape(shape)).ravel())

    x, info = cg(linear(apply), rhs.ravel(), rtol=_CG_RTOL, atol=0.0,
                 maxiter=max(1000, 20 * n), M=linear(precondition))
    if info != 0:
        raise InnerSolveError(f"conjugate gradient stopped with info={info}")
    return x.reshape(shape)


def _solve_projected(op: GalerkinOperator, alpha: np.ndarray, h: float, own_axis: int,
                     basis: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve one half-sweep system  X + h * A_red(X) = rhs  for X (N, r).

    ``own_axis`` selects which coordinate keeps its full 1D stiffness
    (0: left factor update, 1: right factor update); the other direction is
    compressed onto ``basis``.  The reduced operator

        A_red(X) = own * L X + other * X (B^T L B) + c * G X (B^T G B)

    is symmetric positive definite as a compression of the full operator.
    Without the mixed term it is a Sylvester equation with diagonal L,
    solved exactly in the eigenbasis of the (r, r) block; with it, that
    solve preconditions conjugate gradient.
    """
    lam = np.diagonal(op.stiffness_1d)
    g = op.grad_coupling_1d
    own = alpha[0, 0] if own_axis == 0 else alpha[1, 1]
    other = alpha[1, 1] if own_axis == 0 else alpha[0, 0]
    c = alpha[0, 1] + alpha[1, 0]
    b_block = (basis.T * lam) @ basis             # (r, r) symmetric
    evals, evecs = np.linalg.eigh(b_block)
    denom = 1.0 + h * (own * lam[:, None] + other * evals[None, :])

    def sylvester(x):
        return ((x @ evecs) / denom) @ evecs.T

    if c == 0.0:
        return sylvester(rhs)
    h_block = basis.T @ g @ basis                 # (r, r) skew

    def apply(x):
        return x + h * (own * lam[:, None] * x + other * (x @ b_block)
                        + c * (g @ x @ h_block))

    return _pcg(apply, sylvester, rhs)


def _check_collapse(r_block: np.ndarray, what: str):
    diag = np.abs(np.diagonal(r_block))
    if diag.min() < _QR_COLLAPSE_REL * max(diag.max(), np.finfo(float).tiny):
        raise RankDeficiencyError(
            f"rank collapse during {what} refactorization",
            rank=r_block.shape[0], sigma=float(diag.min()),
            floor=float(_QR_COLLAPSE_REL * diag.max()))


# ---------------------------------------------------------------------------
# steppers


def reference_step(y_prev: np.ndarray, h: float, t_next: float, f_mean: np.ndarray,
                   op: GalerkinOperator, model: DiffusionModel) -> np.ndarray:
    """Unconstrained backward-Euler step: solve (I + h A(t_next)) Y = Y_i + h f_mean.

    The divergence part of A is diagonal in the coefficients, so its exact
    inverse solves the step without a mixed term and preconditions
    conjugate gradient with one.
    """
    alpha = model.alpha(t_next)
    lam = np.diagonal(op.stiffness_1d)
    denom = 1.0 + h * (alpha[0, 0] * lam[:, None] + alpha[1, 1] * lam[None, :])
    rhs = np.asarray(y_prev, dtype=float) + h * f_mean
    if alpha[0, 1] + alpha[1, 0] == 0.0:
        return rhs / denom
    return _pcg(lambda x: x + h * apply_operator(op, model, t_next, x),
                lambda x: x / denom, rhs)


def galerkin_residual(u_next: LowRankState, u_prev, h: float, t_next: float,
                      f_mean: np.ndarray, op: GalerkinOperator,
                      model: DiffusionModel) -> float:
    """Norm of the step defect tested against the tangent space at u_next.

    The defect (u_next - u_prev)/h + A(t_next) u_next - f_mean is projected
    onto the tangent space of the new state; its Frobenius norm equals the
    norm of the residual functional in any orthonormal tangent basis.
    """
    y = to_dense(u_next)
    defect = (y - _dense(u_prev)) / h + apply_operator(op, model, t_next, y) - f_mean
    return h_norm(tangent_project(u_next, defect))


def als_variational_step(u_prev: LowRankState, h: float, t_next: float,
                         f_mean: np.ndarray, op: GalerkinOperator,
                         model: DiffusionModel,
                         opts: Optional[StepOptions] = None):
    """Rank-constrained backward-Euler step by alternating half-sweeps.

    Starting from the previous state, each sweep exactly minimizes F over
    the left factor-with-core (right basis frozen), then over the right
    factor-with-core (new left basis frozen).  The anchor u_prev stays fixed
    across sweeps, so each half-sweep can only decrease F.  Sweeping stops
    when the relative state change drops under ``als_tol``, after one sweep
    in single-sweep mode, or at the sweep cap (flagged in the log).

    Returns (state, diagnostics).
    """
    opts = opts or StepOptions()
    alpha = model.alpha(t_next)
    u0, s0, v0 = u_prev.u1_factors, u_prev.core, u_prev.u2_factors
    u_basis, v_basis = u0, v0
    state = u_prev
    trace = [step_objective(u_prev, u_prev, h, t_next, f_mean, op, model)]
    dense_old = to_dense(u_prev)
    sweeps = 0
    converged = False
    rel_change = math.inf
    for _ in range(opts.als_max_sweeps):
        sweeps += 1
        # left half-sweep: unknown K = U S with the right basis frozen
        rhs_k = u0 @ (s0 @ (v0.T @ v_basis)) + h * (f_mean @ v_basis)
        k = _solve_projected(op, alpha, h, 0, v_basis, rhs_k)
        u_basis, r_k = qr_nonneg(k)
        _check_collapse(r_k, "left")
        state = LowRankState(u_basis, r_k, v_basis)
        trace.append(step_objective(state, u_prev, h, t_next, f_mean, op, model))
        # right half-sweep: unknown W = V S^T with the new left basis frozen
        rhs_w = v0 @ (s0.T @ (u0.T @ u_basis)) + h * (f_mean.T @ u_basis)
        w = _solve_projected(op, alpha, h, 1, u_basis, rhs_w)
        v_basis, r_w = qr_nonneg(w)
        _check_collapse(r_w, "right")
        state = LowRankState(u_basis, r_w.T, v_basis)
        trace.append(step_objective(state, u_prev, h, t_next, f_mean, op, model))
        dense_new = to_dense(state)
        rel_change = h_norm(dense_new - dense_old) / max(h_norm(dense_new),
                                                         np.finfo(float).tiny)
        dense_old = dense_new
        if opts.single_sweep_mode or rel_change <= opts.als_tol:
            converged = True
            break
    residual = galerkin_residual(state, u_prev, h, t_next, f_mean, op, model)
    if not converged and residual > 1e3 * opts.als_tol * max(1.0, h_norm(dense_old)):
        log.warning("sweep cap %d reached at t=%.6g with residual %.3e",
                    opts.als_max_sweeps, t_next, residual)
    decreased = trace[-1] <= trace[0] + 1e-12 * abs(trace[0]) + 1e-300
    diag = StepDiagnostics(sweeps_used=sweeps, galerkin_residual=residual,
                           objective_value=trace[-1],
                           sigma_r=smallest_singular(state),
                           objective_decreased=bool(decreased),
                           objective_trace=tuple(trace))
    return state, diag


def splitting_euler_step(u_prev: LowRankState, h: float, t_next: float,
                         f_mean: np.ndarray, op: GalerkinOperator,
                         model: DiffusionModel, *,
                         s_step: str = "projection") -> LowRankState:
    """Projector-splitting backward-Euler step.

    Implicit solve for the left factor-with-core, core update, implicit
    solve for the right factor-with-core.  The core update defaults to the
    projection form ``S <- U_new^T U_old S``; ``s_step="forward"`` uses the
    algebraically equivalent explicit-Euler form, which reproduces the
    projection exactly whenever the first solve is exact.
    """
    alpha = model.alpha(t_next)
    u0, s0, v0 = u_prev.u1_factors, u_prev.core, u_prev.u2_factors

    rhs_k = u0 @ s0 + h * (f_mean @ v0)
    k = _solve_projected(op, alpha, h, 0, v0, rhs_k)
    u1, s1_plus = qr_nonneg(k)
    _check_collapse(s1_plus, "left")

    if s_step == "projection":
        s0_plus = (u1.T @ u0) @ s0
    elif s_step == "forward":
        # S0+ = S1+ + h * A_red(S1+) - h * U1^T f V0 with both directions compressed
        lam, g = np.diagonal(op.stiffness_1d), op.grad_coupling_1d
        bu = (u1.T * lam) @ u1
        bv = (v0.T * lam) @ v0
        hu = u1.T @ g @ u1
        hv = v0.T @ g @ v0
        c = alpha[0, 1] + alpha[1, 0]
        a_red = alpha[0, 0] * bu @ s1_plus + alpha[1, 1] * s1_plus @ bv
        if c != 0.0:
            a_red += c * (hu @ s1_plus @ hv)
        s0_plus = s1_plus + h * a_red - h * (u1.T @ f_mean @ v0)
    else:
        raise ValueError(f"unknown s_step {s_step!r}")

    rhs_w = v0 @ s0_plus.T + h * (f_mean.T @ u1)
    w = _solve_projected(op, alpha, h, 1, u1, rhs_w)
    v1, r_w = qr_nonneg(w)
    _check_collapse(r_w, "right")
    return LowRankState(u1, r_w.T, v1)


# ---------------------------------------------------------------------------
# integration loop


def integrate(method: str, u0, T: float, n_steps: int, model: DiffusionModel,
              source: SourceSpec, opts: Optional[StepOptions] = None) -> Trajectory:
    """Uniform-step backward-Euler integration over [0, T].

    method: "reference" (dense states), "als", or "splitting".  For the
    manifold methods the trajectory monitor halts once
    sigma_r < rank_floor_rel * sigma_1, recording the halt index; the
    initial state must sit safely above that floor.
    """
    opts = opts or StepOptions()
    if method not in ("reference", "als", "splitting"):
        raise ValueError(f"unknown method {method!r}")
    if not isinstance(source, SourceSpec):
        raise TypeError("source must be a SourceSpec; pass zero_source(N) for no source")
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if not T > 0:
        raise ValueError("final time must be positive")
    manifold = method != "reference"
    if manifold:
        if not isinstance(u0, LowRankState):
            raise TypeError("manifold methods need a LowRankState start")
        svals = singular_values(u0)
        if svals[-1] < opts.rank_floor_rel * svals[0]:
            raise RankDeficiencyError("initial state is already under the rank floor",
                                      rank=u0.rank, sigma=float(svals[-1]),
                                      floor=float(opts.rank_floor_rel * svals[0]))
    else:
        u0 = to_dense(u0) if isinstance(u0, LowRankState) else np.array(u0, dtype=float)
    n = u0.basis_dim if manifold else u0.shape[0]
    if source.basis_dim != n:
        raise ValueError("source and state disagree on the basis dimension")
    op = build_operator(n)

    h = T / n_steps
    times = [0.0]
    states = [u0]
    diagnostics = []
    halted = None
    for i in range(n_steps):
        t0, t1 = i * h, (i + 1) * h
        f_bar = rhs_mean(source, t0, t1)
        try:
            if method == "als":
                state, diag = als_variational_step(states[-1], h, t1, f_bar, op, model, opts)
            elif method == "splitting":
                state = splitting_euler_step(states[-1], h, t1, f_bar, op, model)
                f_prev = step_objective(states[-1], states[-1], h, t1, f_bar, op, model)
                f_new = step_objective(state, states[-1], h, t1, f_bar, op, model)
                diag = StepDiagnostics(
                    sweeps_used=1,
                    galerkin_residual=galerkin_residual(state, states[-1], h, t1,
                                                        f_bar, op, model),
                    objective_value=f_new,
                    sigma_r=smallest_singular(state),
                    objective_decreased=bool(f_new <= f_prev + 1e-12 * abs(f_prev) + 1e-300),
                    objective_trace=(f_prev, f_new))
            else:
                y = reference_step(states[-1], h, t1, f_bar, op, model)
                defect = (y - states[-1]) / h + apply_operator(op, model, t1, y) - f_bar
                f_prev = step_objective(states[-1], states[-1], h, t1, f_bar, op, model)
                f_new = step_objective(y, states[-1], h, t1, f_bar, op, model)
                diag = StepDiagnostics(
                    sweeps_used=0, galerkin_residual=h_norm(defect),
                    objective_value=f_new, sigma_r=math.nan,
                    objective_decreased=bool(f_new <= f_prev + 1e-12 * abs(f_prev) + 1e-300),
                    objective_trace=(f_prev, f_new))
                state = y
        except (RankDeficiencyError, InnerSolveError) as exc:
            exc.args = (f"step {i + 1} (t = {t1:.6g}): {exc.args[0] if exc.args else ''}",)
            raise
        times.append(t1)
        states.append(state)
        diagnostics.append(diag)
        if manifold:
            svals = singular_values(state)
            if svals[-1] < opts.rank_floor_rel * svals[0]:
                halted = HaltRecord(step_index=i + 1, sigma_r=float(svals[-1]))
                break
    return Trajectory(times=np.array(times), states=states,
                      diagnostics=diagnostics, method=method, halted_early=halted)
