"""Backward-Euler time steppers: unconstrained reference solve, the
rank-constrained variational step solved by alternating half-sweeps, and the
projector-splitting step, which is exactly one sweep of those half-sweeps.

Each implicit step minimizes

    F(y) = |y - u_i|_F^2 / (2h) + a(y, y; t_next) / 2 - <f_mean, y>_F

over the admissible set: all matrices for the reference solver, the rank-r
set for the manifold methods.  The tensor is frozen at t_next for the whole
step, and f_mean is the exact interval mean of the source.  The manifold
methods take f_mean as its factor pair, f_mean = P Q^T, and evaluate F, the
Galerkin residual and the ALS stop test from factors and r-by-r blocks, so
a step costs O(N r^2) plus the products of the coupling G with (N, r)
blocks when the mixed term is on, each a call of ``galerkin._apply_g``,
G's one reader, which alone knows how G is stored (today dense, O(N^2 r);
the reference's ``apply_a2`` multiplies through it too); no N-by-N matrix
is formed, and with a diagonal tensor G is not even built.  At N up to
hundreds and r <= 8 a half-sweep costs its number of numpy calls more than
its flops, so it makes only the N-sized products it needs: one for the
right-hand side, one with G per CG iteration, one QR, those of the new
frame (basis^T L, its product with the basis, basis^T [U0 | P], and with
the mixed term G basis and basis^T G basis), and one dot that gives F at
its minimizer, so the sweep loop evaluates F only at the anchor and at the
result.  The residual, once per step, makes one (r, N) product per term of
U^T D and one (N, r) product per term of D V, each with a block the frames
or the step already hold, plus U^T D V; it stacks no N-row blocks.  The stop
test after each sweep is ``galerkin.h_distance`` between the states before
and after it.  So ``_Step``, ``_forward_splitting_step`` and
``h_distance`` multiply 2-D blocks with ``ndarray.dot``, not ``@``: the
same BLAS gemm, so the same bits, without the matmul ufunc's dispatch,
which costs about as much as the product (one Xeon core: 1.0 against
1.4 us for 8 x 8 blocks, 1.7 against 2.9 us for (128, 8) by (8, 8)).
``@`` stays where an operand may be a stack (manifold, analysis, the
Galerkin norms) or is N x N (reference).

One object, ``_Step``, owns a rank-r step: it holds the anchor, the tensor
at t_next, h and the source factors, evaluates F and the residual, and runs
every half-sweep: the SPD solve for one factor-with-core, its QR, the
collapse check and the new frame.  The solve runs in the eigenbasis of the
frozen frame's compressed stiffness, where the Sylvester part is diagonal:
without the mixed term it is the exact solve, and with it that diagonal
preconditions a conjugate-gradient loop on (N, r) blocks.  Every solve is
given its start: a half-sweep starts at the current factor-with-core, the
reference step at the previous state.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .galerkin import (DiffusionModel, GalerkinOperator, SourceSpec, _apply_g, _check_integer,
                       apply_operator, build_operator, h_distance, h_norm, rhs_mean_factors)
from .manifold import (DEFAULT_RANK_FLOOR, LowRankState, RankDeficiencyError,
                       singular_values, to_dense)

__all__ = [
    "METHODS",
    "InnerSolveError",
    "StepDiagnostics",
    "StepOptions",
    "Trajectory",
    "als_variational_step",
    "integrate",
    "reference_step",
    "splitting_euler_step",
]

log = logging.getLogger(__name__)

#: The integrators :func:`integrate` runs.
METHODS = ("als", "splitting", "reference")

# Distance between the states before and after a sweep, relative to the
# new state's norm, at which ALS stops sweeping.
_ALS_TOL = 1e-11

# Residual at which the inner conjugate gradient stops, relative to the norm
# of the right-hand side; tight enough that converged steps keep their
# Galerkin residual at roundoff.  It does not depend on the start, so a warm
# start cannot loosen the stop test: it only begins nearer to it.
_CG_RTOL = 1e-14

# Hard floor for the triangular blocks produced inside a step; deliberately
# far below any trajectory-level rank floor so the integration monitor gets
# to halt gracefully before a step blows up.
_QR_COLLAPSE_REL = 1e3 * np.finfo(float).eps
_TINY = float(np.finfo(float).tiny)


class InnerSolveError(RuntimeError):
    """The iterative inner solver did not reach its tolerance."""


@dataclass(frozen=True)
class StepOptions:
    """The ALS stepper's sweep cap; a bad value raises ValueError on creation."""

    als_max_sweeps: int = 100

    def __post_init__(self):
        _check_integer("als_max_sweeps", self.als_max_sweeps, 1)


@dataclass(frozen=True)
class StepDiagnostics:
    """Per-step record emitted by every stepper.

    objective_trace holds F at the start and after each half-sweep (for the
    reference step: before and after), so monotonicity of the alternating
    solver is observable.  Its first and last entries are F evaluated at
    the anchor and at the result; the others are the minima the half-sweep
    solves report, which differ from F at the swept state by at most
    |<Y, r_CG>| / (2h) for the solve's CG residual r_CG, plus roundoff.
    sigma_r and sigma_1 are the smallest and largest singular values of the
    result, read by the rank monitor (NaN for the reference step).
    inner_iterations is the total number of conjugate-gradient iterations of
    the step, 0 without a mixed term.
    """

    sweeps_used: int
    galerkin_residual: float
    sigma_r: float
    sigma_1: float
    objective_trace: tuple
    inner_iterations: int = 0

    @property
    def objective_value(self) -> float:
        """F at the step's result: the last entry of the trace."""
        return self.objective_trace[-1]

    @property
    def objective_decreased(self) -> bool:
        """Whether F ended at most where it started, up to roundoff."""
        first, last = self.objective_trace[0], self.objective_trace[-1]
        return bool(last <= first + 1e-12 * abs(first) + 1e-300)


@dataclass
class Trajectory:
    """The states at ``times``, each step's record, and the problem they
    solve: ``model`` and ``source``.  ``start_sigma_r`` is the
    start's smallest singular value (NaN for the reference method), as
    ``StepDiagnostics.sigma_r`` is each step's.  ``halted_early`` is the
    index of the step at which the rank monitor halted, or None."""

    times: np.ndarray
    states: list
    diagnostics: list
    model: DiffusionModel
    source: SourceSpec
    start_sigma_r: float
    halted_early: Optional[int] = None

    @property
    def step_size(self) -> float:
        return float(self.times[1] - self.times[0])


# ---------------------------------------------------------------------------
# one implicit step on factored states


def _finite_alpha(model: DiffusionModel, t: float) -> np.ndarray:
    """The tensor at t, where a step evaluates it; ValueError naming t if an
    entry is not finite, before any solve reads it."""
    a = model.alpha(t)
    if not np.isfinite(a).all():
        raise ValueError(f"alpha(t = {t:.6g}) has a non-finite entry: {a.tolist()}")
    return a


class _Frame(NamedTuple):
    """An orthonormal (N, r) factor block of one axis with its compressions:
    lam_t = basis^T L, the (r, N) block that lam = lam_t basis = basis^T L
    basis is formed from; g_basis = G basis and g = basis^T G basis (None
    without a mixed term); overlap = basis^T [U0 | P] (axis 1: [V0 | Q])."""

    basis: np.ndarray
    lam_t: np.ndarray
    lam: np.ndarray
    g_basis: Optional[np.ndarray]
    g: Optional[np.ndarray]
    overlap: np.ndarray


class _Step:
    """The owner of one implicit step: anchor Y0 = U0 S0 V0^T, tensor alpha
    (frozen at t_next), step size h and source mean P Q^T.

    Evaluates F and the Galerkin residual at ``U S V^T`` from the frames of U
    (axis 0) and V (axis 1), and runs the half-sweeps that minimize F over
    one factor-with-core while the other axis keeps a frozen frame.  Forms
    once [U0 | P], diag(S0, h I) and 1 + h a11 L (axis 1: V0, S0^T, Q, a22).
    """

    def __init__(self, op: GalerkinOperator, model: DiffusionModel, h: float,
                 t_next: float, anchor: LowRankState, f_factors):
        self.op, self.h, self.anchor = op, h, anchor
        self.alpha = a = _finite_alpha(model, t_next)
        self.mixed = a[0, 1] + a[1, 0]
        (p, q), s0, r = f_factors, anchor.core, anchor.rank
        m = p.shape[1]
        self.factors = (np.hstack([anchor.u1_factors, p]), np.hstack([anchor.u2_factors, q]))
        self.weights = np.zeros((2, r + m, r + m))
        self.weights[0, :r, :r], self.weights[1, :r, :r] = s0, s0.T
        self.weights[:, r:, r:] = h * np.eye(m)
        self.own_diag = tuple(1.0 + (h * a[k, k]) * op.stiffness_diag[:, None] for k in (0, 1))
        self.anchor_sq = np.vdot(s0, s0)

    def frame(self, basis: np.ndarray, axis: int) -> _Frame:
        g_basis = g = None
        if self.mixed != 0.0:
            g_basis = _apply_g(self.op, basis)
            g = basis.T.dot(g_basis)
        lam_t = basis.T * self.op.stiffness_diag
        return _Frame(basis, lam_t, lam_t.dot(basis), g_basis, g, basis.T.dot(self.factors[axis]))

    def frames(self, u: LowRankState):
        """The frames (left, right) of the state's two factor blocks."""
        return self.frame(u.u1_factors, 0), self.frame(u.u2_factors, 1)

    def reduced(self, s: np.ndarray, left: _Frame, right: _Frame) -> np.ndarray:
        """U^T A(U S V^T) V: the operator compressed onto both frames."""
        out = self.alpha[0, 0] * left.lam.dot(s) + self.alpha[1, 1] * s.dot(right.lam)
        if self.mixed != 0.0:
            out += self.mixed * left.g.dot(s).dot(right.g)
        return out

    def objective(self, s: np.ndarray, left: _Frame, right: _Frame) -> float:
        """F at U S V^T from r-by-r blocks: a(Y, Y) = <S, A_red S>, and with
        t = <S, U^T [U0 | P] diag(S0, h I) [V0 | Q]^T V> = <Y, Y0 + h P Q^T>
        the other terms are (|S|^2 + |S0|^2 - 2t) / (2h)."""
        t = np.vdot(s, left.overlap.dot(self.weights[0]).dot(right.overlap.T))
        quad = np.vdot(s, self.reduced(s, left, right))
        return float((np.vdot(s, s) + self.anchor_sq - 2.0 * t) / (2.0 * self.h) + 0.5 * quad)

    def residual(self, s: np.ndarray, left: _Frame, right: _Frame) -> float:
        """Norm of the defect D = (Y - Y0)/h + A Y - P Q^T projected onto the
        tangent space at Y = U S V^T: |U^T D|^2 + |D V - U (U^T D V)|^2.
        U^T D (r, N) and D V (N, r) are each a sum of one product per term,
        a small coefficient times a block the frames or the step hold:

            U^T D = (S/h + a11 lam_U S) V^T + (a22 S) lam_t_V
                    - (overlap_U diag(S0, h I) / h) [V0 | Q]^T - c (g_U S) (G V)^T,
            D V   = U (S/h + a22 S lam_V) + lam_t_U^T (a11 S)
                    - [U0 | P] (diag(S0, h I) overlap_V^T / h) + (G U) (c S g_V),

        with c = a12 + a21 and G^T = -G; the projection U (U^T D V) folds into
        U's coefficient."""
        a, h, w, s_h = self.alpha, self.h, self.weights[0], s / self.h
        u, v = left.basis, right.basis
        ut_d = ((s_h + a[0, 0] * left.lam.dot(s)).dot(v.T) + (a[1, 1] * s).dot(right.lam_t)
                - (left.overlap.dot(w) / h).dot(self.factors[1].T))
        if self.mixed != 0.0:
            ut_d -= (self.mixed * left.g.dot(s)).dot(right.g_basis.T)
        normal = (u.dot(s_h + a[1, 1] * s.dot(right.lam) - ut_d.dot(v))
                  + left.lam_t.T.dot(a[0, 0] * s)
                  - self.factors[0].dot(w.dot(right.overlap.T) / h))
        if self.mixed != 0.0:
            normal += left.g_basis.dot(self.mixed * s.dot(right.g))
        return math.sqrt(np.vdot(ut_d, ut_d) + np.vdot(normal, normal))

    def half_sweep(self, own_axis: int, frozen: _Frame, own: _Frame, core: np.ndarray):
        """One half-sweep: minimize F over the factor-with-core X (N, r) of
        ``own_axis`` (0: left, 1: right) with the other axis frozen to the
        basis B of ``frozen``.  X solves  X + h A_red(X) = Y0 B + h f B with

            A_red(X) = own * L X + other * X (B^T L B) + c * G X (B^T G B),

        SPD as a compression of the full operator (Y0, f transposed for axis
        1).  With B^T L B = Q diag(e) Q^T the solve runs for Y = X Q:

            denom * Y + G Y Gamma' = [U0 | P] (diag(S0, h I) frozen.overlap^T Q),

        denom = (1 + h own L) + h other e, Gamma' = h c Q^T (B^T G B) Q.
        Without the mixed term Y = rhs / denom; with it, dividing by denom
        preconditions CG, in the iterations of the original coordinates (Q is
        orthogonal).  CG starts at x0 = own.basis (core Q), with the image
        denom x0 + (G own.basis)(core Q) Gamma' read from the frame: no
        product with G (a zero core starts it at zero).  Y = basis R by QR,
        so X = basis (R Q^T); a diagonal entry of R under
        ``_QR_COLLAPSE_REL`` times the largest raises RankDeficiencyError.
        At the minimizer F = (|S0|^2 - <Y, rhs>) / (2h), one product of the
        blocks at hand; after an inexact CG solve it is off from F at X by
        <Y, r_CG> / (2h) for the CG residual r_CG.  Returns (frame of the new
        basis, core R Q^T, CG iterations, F at the minimizer).
        """
        h, (evals, evecs) = self.h, np.linalg.eigh(frozen.lam)
        denom = self.own_diag[own_axis] + (h * self.alpha[1 - own_axis, 1 - own_axis]) * evals
        rhs = self.factors[own_axis].dot(self.weights[own_axis].dot(frozen.overlap.T.dot(evecs)))
        if self.mixed == 0.0:
            y, iterations = rhs / denom, 0
        else:
            op, gamma = self.op, (h * self.mixed) * evecs.T.dot(frozen.g).dot(evecs)
            core_q = core.dot(evecs)
            x0 = own.basis.dot(core_q)
            y, iterations = _pcg(lambda y: denom * y + _apply_g(op, y).dot(gamma), denom, rhs,
                                 x0, denom * x0 + own.g_basis.dot(core_q).dot(gamma))
        basis, r_block = np.linalg.qr(y)
        _check_qr_collapse(r_block.diagonal(),
                           f"rank collapse during {('left', 'right')[own_axis]} refactorization")
        value = float((self.anchor_sq - np.vdot(y, rhs)) / (2.0 * h))
        return self.frame(basis, own_axis), r_block.dot(evecs.T), iterations, value


def _check_qr_collapse(diag: np.ndarray, message: str):
    """Raise RankDeficiencyError if an entry of ``diag``, the diagonal of a QR
    factor R, is under ``_QR_COLLAPSE_REL`` times its largest (the block lost
    rank); its text is ``message`` with the rank, the least |R_kk| and the
    floor.  Compared as Python floats, cheaper than numpy's reductions at r <= 8."""
    mags = [abs(d) for d in diag.tolist()]
    low, high = min(mags), max(mags)
    # a NaN entry raises nothing, as with numpy's NaN-propagating min and max
    if low < _QR_COLLAPSE_REL * max(high, _TINY) and not math.isnan(sum(mags)):
        raise RankDeficiencyError(f"{message} (rank {len(mags)}: least |R_kk| = {low:.3e} "
                                  f"under the floor {_QR_COLLAPSE_REL * high:.3e})")


# ---------------------------------------------------------------------------
# the inner conjugate gradient


def _pcg(apply, denom: np.ndarray, rhs: np.ndarray, x0: np.ndarray, image: np.ndarray):
    """Solve the SPD system ``apply(X) = rhs`` for a block X by conjugate
    gradient preconditioned with the division by ``denom``, from ``x0``,
    given with its ``image`` apply(x0) and updated in place.  Step for step
    the arithmetic of scipy's ``cg`` on the row-major flattened blocks
    (``vdot`` of C-ordered blocks is ``dot`` of their ``ravel()``), so a zero
    start reproduces it bitwise.  A residual norm that is not finite raises
    InnerSolveError at once.  Returns (X, iterations)."""
    rhs_norm = math.sqrt(np.vdot(rhs, rhs))
    if rhs_norm == 0.0:
        return np.zeros_like(rhs), 0
    stop = _CG_RTOL * rhs_norm
    x, r = x0, rhs - image
    maxiter = max(1000, 20 * rhs.size)
    p = rho_prev = None
    for iterations in range(maxiter):
        r_norm = math.sqrt(np.vdot(r, r))
        if r_norm < stop:
            return x, iterations
        if not math.isfinite(r_norm):
            raise InnerSolveError(f"conjugate gradient residual is {r_norm} at iteration "
                                  f"{iterations}")
        z = r / denom
        rho = np.vdot(r, z)
        p = z if p is None else z + (rho / rho_prev) * p
        q = apply(p)
        step = rho / np.vdot(p, q)
        x += step * p
        r -= step * q
        rho_prev = rho
    raise InnerSolveError(f"conjugate gradient did not converge in {maxiter} iterations")


# ---------------------------------------------------------------------------
# steppers


def reference_step(y_prev: np.ndarray, h: float, t_next: float, f_mean: np.ndarray,
                   op: GalerkinOperator, model: DiffusionModel):
    """Unconstrained backward-Euler step: solve (I + h A(t_next)) Y = Y_i + h f_mean.

    The divergence part of A is diagonal in the coefficients, so its exact
    inverse solves the step without a mixed term and preconditions
    conjugate gradient with one.  CG starts at the previous state, whose
    image Y_i + h A Y_i reuses the product F(Y_i) needs, so no iterate lies
    above F(Y_i); every operator application reads the tensor evaluated
    once.  Returns (state, diagnostics); the objective and the defect norm
    are evaluated densely, and ``sigma_r`` and ``sigma_1`` are NaN.  A
    tensor with a non-finite entry at t_next raises ValueError.
    """
    alpha = _finite_alpha(model, t_next)
    lam = op.stiffness_diag
    denom = 1.0 + h * (alpha[0, 0] * lam[:, None] + alpha[1, 1] * lam[None, :])
    y_prev = np.asarray(y_prev, dtype=float)
    a_prev = apply_operator(op, alpha, y_prev)
    rhs = y_prev + h * f_mean
    if alpha[0, 1] + alpha[1, 0] == 0.0:
        y, iterations = rhs / denom, 0
    else:
        y, iterations = _pcg(lambda x: x + h * apply_operator(op, alpha, x), denom, rhs,
                             y_prev.copy(), y_prev + h * a_prev)
    a_y = apply_operator(op, alpha, y)
    d = y - y_prev
    f_prev = 0.5 * float(np.sum(a_prev * y_prev)) - float(np.sum(f_mean * y_prev))
    f_new = (float(np.sum(d * d)) / (2.0 * h) + 0.5 * float(np.sum(a_y * y))
             - float(np.sum(f_mean * y)))
    return y, StepDiagnostics(0, h_norm(d / h + a_y - f_mean), math.nan, math.nan,
                              (f_prev, f_new), iterations)


def _alternating_step(u_prev: LowRankState, h: float, t_next: float, f_factors,
                      op: GalerkinOperator, model: DiffusionModel, max_sweeps: int):
    """Up to ``max_sweeps`` sweeps from u_prev, each exactly minimizing F
    over the left factor-with-core (right basis frozen), then over the right
    one (new left basis frozen); the anchor stays fixed, so no half-sweep
    raises F.  A sweep that another may follow stops the step once the
    :func:`h_distance` between the states before and after it is at most
    ``_ALS_TOL`` times the new core's norm.  The conjugate gradient of
    a mixed term starts at the current factor-with-core (U0 S0 in the first
    sweep), where its quadratic equals the current F, so it cannot raise F
    either.  Between half-sweeps the state is two frames and a core.  The
    trace records F at the anchor and at the result as evaluated by
    ``_Step.objective``, and in between the minimum each half-sweep's solve
    reports.  Returns (state, diagnostics).
    """
    step = _Step(op, model, h, t_next, u_prev, f_factors)
    left, right = step.frames(u_prev)
    state, sweeps, iterations = u_prev, 0, 0
    trace = [step.objective(state.core, left, right)]
    for sweeps in range(1, max_sweeps + 1):
        start = state
        # left half-sweep: unknown K = U S with the right basis frozen
        left, r_k, its_k, f_k = step.half_sweep(0, right, left, start.core)
        # right half-sweep: unknown W = V S^T with the new left basis frozen
        right, r_w, its_w, f_w = step.half_sweep(1, left, right, r_k.T)
        state = LowRankState(left.basis, r_w.T, right.basis)
        iterations += its_k + its_w
        trace += [f_k, f_w]
        if sweeps < max_sweeps and h_distance(state, start) <= _ALS_TOL * h_norm(state):
            break
    trace[-1] = step.objective(state.core, left, right)
    svals = singular_values(state)
    return state, StepDiagnostics(sweeps, step.residual(state.core, left, right),
                                  float(svals[-1]), float(svals[0]), tuple(trace), iterations)


def als_variational_step(u_prev: LowRankState, h: float, t_next: float,
                         f_factors, op: GalerkinOperator, model: DiffusionModel,
                         opts: Optional[StepOptions] = None):
    """Rank-constrained backward-Euler step by alternating half-sweeps.

    Sweeps until a sweep moves the state by at most ``_ALS_TOL`` relative to
    its norm, as measured by :func:`h_distance`, or to the sweep cap, which
    is flagged in the log unless the residual is at roundoff.  The source
    mean is ``P @ Q.T`` for ``f_factors = (P, Q)``.  Returns (state,
    diagnostics).
    """
    opts = opts or StepOptions()
    state, diag = _alternating_step(u_prev, h, t_next, f_factors, op, model, opts.als_max_sweeps)
    if (diag.sweeps_used >= opts.als_max_sweeps
            and diag.galerkin_residual > 1e3 * _ALS_TOL * max(1.0, h_norm(state.core))):
        log.warning("sweep cap %d reached at t=%.6g with residual %.3e",
                    opts.als_max_sweeps, t_next, diag.galerkin_residual)
    return state, diag


def splitting_euler_step(u_prev: LowRankState, h: float, t_next: float,
                         f_factors, op: GalerkinOperator, model: DiffusionModel):
    """Projector-splitting backward-Euler step (Lubich & Oseledets, 2014).

    Implicit solve for the left factor-with-core, core update
    ``S <- U_new^T U_old S``, implicit solve for the right factor-with-core:
    exactly one sweep of the alternating solver, run as one.  The
    equivalence suite checks it against :func:`_forward_splitting_step`.
    Returns (state, diagnostics).
    """
    return _alternating_step(u_prev, h, t_next, f_factors, op, model, max_sweeps=1)


def _forward_splitting_step(u_prev: LowRankState, h: float, t_next: float,
                            f_factors, op: GalerkinOperator,
                            model: DiffusionModel) -> LowRankState:
    """Projector-splitting step with the explicit-Euler core update
    ``S0+ = S1+ + h A_red(S1+) - h U1^T f V0`` (both directions compressed)
    in place of the projection ``U1^T U0 S0``; the two agree whenever the
    first solve is exact.  Both solves start at a zero core, not at the
    step's warm start; the second is the right half-sweep of the step
    anchored at U1 S0+ V0^T.  The independent check of the one-sweep step."""
    step, r = _Step(op, model, h, t_next, u_prev, f_factors), u_prev.rank
    own, right = step.frames(u_prev)
    left, s1_plus, _, _ = step.half_sweep(0, right, own, np.zeros((r, r)))
    s0_plus = (s1_plus + h * step.reduced(s1_plus, left, right)
               - h * left.overlap[:, r:].dot(right.overlap[:, r:].T))
    step = _Step(op, model, h, t_next, LowRankState(left.basis, s0_plus, u_prev.u2_factors),
                 f_factors)
    right, r_w, _, _ = step.half_sweep(1, *step.frames(step.anchor), np.zeros((r, r)))
    return LowRankState(left.basis, r_w.T, right.basis)


# ---------------------------------------------------------------------------
# integration loop


def integrate(method: str, u0, T: float, n_steps: int, model: DiffusionModel,
              source: SourceSpec, opts: Optional[StepOptions] = None) -> Trajectory:
    """Uniform-step backward-Euler integration over [0, T].

    method: "reference" (dense states), "als", or "splitting".  For the
    manifold methods the trajectory monitor halts once the step record has
    sigma_r < DEFAULT_RANK_FLOOR * sigma_1, recording the halt index; the
    start must sit safely above that floor, with sigma_r > 0, and is one
    state, not a stack, with finite entries.  ``opts`` is a StepOptions or
    None.  A ValueError (a tensor that is not finite at t_next among them)
    or InnerSolveError raised in a step gets the step index and t prefixed.
    Where a source drives a singular value through zero, past the time the
    paper's existence theory covers, the march steps over the zero and
    keeps rank r; only a step that lands on it exactly raises
    RankDeficiencyError.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if not isinstance(source, SourceSpec):
        raise TypeError("source must be a SourceSpec; pass zero_source(N) for no source")
    if opts is not None and not isinstance(opts, StepOptions):
        raise TypeError(f"opts must be a StepOptions or None, got {type(opts).__name__}")
    _check_integer("n_steps", n_steps, 1)
    if isinstance(T, bool) or not 0 < T < math.inf:
        raise ValueError(f"final time must be positive and finite, got {T!r}")
    manifold, factored = method != "reference", isinstance(u0, LowRankState)
    if manifold and not factored:
        raise TypeError("manifold methods need a LowRankState start")
    parts = (u0.u1_factors, u0.core, u0.u2_factors) if factored else (np.array(u0, dtype=float),)
    if not all(np.isfinite(part).all() for part in parts):
        raise ValueError("the start u0 must have finite entries")
    if manifold:
        shape = u0.core.shape[:-2] + (u0.basis_dim,) * 2
    else:
        u0 = to_dense(u0) if factored else parts[0]
        shape = u0.shape
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError("the start must be one square coefficient matrix, "
                         f"not a stacked or non-square start of shape {shape}")
    start_sigma_r = math.nan
    if manifold:
        svals = singular_values(u0)
        start_sigma_r = float(svals[-1])
        if svals[-1] <= 0.0 or svals[-1] < DEFAULT_RANK_FLOOR * svals[0]:
            raise RankDeficiencyError(
                f"initial state is already under the rank floor: sigma_{u0.rank} = "
                f"{start_sigma_r:.3e}, floor {DEFAULT_RANK_FLOOR * svals[0]:.3e}")
    n = shape[0]
    if source.basis_dim != n:
        raise ValueError("source and state disagree on the basis dimension")
    op = build_operator(n)

    h = T / n_steps
    times = [0.0]
    states = [u0]
    diagnostics = []
    halted = None
    for i in range(n_steps):
        t1 = (i + 1) * h
        f_pair = rhs_mean_factors(source, i * h, t1)
        try:
            if method == "als":
                state, diag = als_variational_step(states[-1], h, t1, f_pair, op, model, opts)
            elif method == "splitting":
                state, diag = splitting_euler_step(states[-1], h, t1, f_pair, op, model)
            else:
                state, diag = reference_step(states[-1], h, t1, f_pair[0] @ f_pair[1].T,
                                             op, model)
        except (ValueError, InnerSolveError) as exc:   # RankDeficiencyError is a ValueError
            exc.args = (f"step {i + 1} (t = {t1:.6g}): {exc.args[0] if exc.args else ''}",)
            raise
        times.append(t1)
        states.append(state)
        diagnostics.append(diag)
        if manifold and diag.sigma_r < DEFAULT_RANK_FLOOR * diag.sigma_1:
            halted = i + 1
            break
    return Trajectory(times=np.array(times), states=states, diagnostics=diagnostics, model=model,
                      source=source, start_sigma_r=start_sigma_r, halted_early=halted)
