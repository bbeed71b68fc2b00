"""Oracles the tests compare the package against: a diagonal mode state, the
dense N^2-by-N^2 operator, the V* dual norm, a time profile's pointwise value,
and the step objective and tangent residual evaluated afresh from a state,
which the steppers record in ``StepDiagnostics`` from blocks they already
hold."""

import math

import numpy as np

from lowrankpde.galerkin import DiffusionModel, GalerkinOperator, TimeProfile, _stiffness_diag
from lowrankpde.manifold import LowRankState
from lowrankpde.stepping import _Step


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


def operator_matrix(op: GalerkinOperator, a: np.ndarray) -> np.ndarray:
    """Dense N^2-by-N^2 matrix of :func:`apply_operator` for the (2, 2)
    tensor ``a``, acting on column-major vectorized coefficients."""
    n = op.basis_dim
    eye = np.eye(n)
    stiff = op.stiffness_1d
    g = op.grad_coupling_1d
    mat = a[0, 0] * np.kron(eye, stiff) + a[1, 1] * np.kron(stiff, eye)
    c = a[0, 1] + a[1, 0]
    if c != 0.0:
        mat -= c * np.kron(g, g)   # vec(G Y G) = (G^T kron G) vec(Y), G skew
    return mat


def v_dual_norm(coeffs: np.ndarray) -> float:
    """Dual norm with reciprocal gradient weights."""
    lam = _stiffness_diag(coeffs.shape[-1])
    return float(np.sqrt(np.sum(coeffs * coeffs / (lam[:, None] + lam))))


def profile_value(profile: TimeProfile, t: float) -> float:
    """Value at time ``t`` of the profile whose interval means the steppers read."""
    if profile.kind == "constant":
        return profile.scale
    if profile.kind == "linear":
        return profile.scale * t
    return profile.scale * math.cos(profile.omega * t)


def step_objective(u: LowRankState, u_prev: LowRankState, h: float, t_next: float,
                   f_factors, op: GalerkinOperator, model: DiffusionModel) -> float:
    """Value of the implicit-step objective F at ``u`` anchored at ``u_prev``,
    for the source mean ``P @ Q.T`` given as ``f_factors = (P, Q)``."""
    step = _Step(op, model, h, t_next, u_prev, f_factors)
    return step.objective(u.core, *step.frames(u))


def galerkin_residual(u_next: LowRankState, u_prev: LowRankState, h: float,
                      t_next: float, f_factors, op: GalerkinOperator,
                      model: DiffusionModel) -> float:
    """Norm of the step defect tested against the tangent space at u_next.

    The defect (u_next - u_prev)/h + A(t_next) u_next - P Q^T is projected
    onto the tangent space of the new state; its Frobenius norm equals the
    norm of the residual functional in any orthonormal tangent basis.
    """
    step = _Step(op, model, h, t_next, u_prev, f_factors)
    return step.residual(u_next.core, *step.frames(u_next))
