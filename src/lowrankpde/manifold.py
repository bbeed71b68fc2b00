"""Fixed-rank matrix states and their tangent-space geometry.

A state of rank ``r`` over an ``N``-dimensional 1D basis is kept in factored
form ``u1_factors @ core @ u2_factors.T`` with orthonormal factor columns.
The core stays a general invertible r-by-r block (it is *not* forced to be
diagonal); singular values are extracted from it on demand.  All types are
immutable values and all operations are pure functions of their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_RANK_FLOOR",
    "LowRankState",
    "RankDeficiencyError",
    "factorize",
    "qr_nonneg",
    "singular_values",
    "tangent_project",
    "to_dense",
]

#: Relative floor of sigma_r / sigma_1 under which a rank-r state counts as degenerate;
#: also the floor of the integration monitor in ``stepping.integrate``.
DEFAULT_RANK_FLOOR = 1e-12


class RankDeficiencyError(ValueError):
    """A factorization (or refactorization) lost numerical rank; the message
    names the offending singular value or R entry and its floor."""


@dataclass(frozen=True, eq=False)
class LowRankState:
    """Rank-r coefficient matrix ``u1_factors @ core @ u2_factors.T``.

    ``u1_factors`` and ``u2_factors`` are (N, r) with orthonormal columns,
    one block per coordinate direction; ``core`` is (r, r) and invertible
    but in general not diagonal.  Leading axes, as in (K, N, r) and (K, r, r),
    hold a stack of K states; the functions below act on each state alone.
    """

    u1_factors: np.ndarray
    core: np.ndarray
    u2_factors: np.ndarray

    def __post_init__(self):
        n1, r1 = self.u1_factors.shape[-2:]
        if self.core.shape[-2:] != (r1, r1) or self.u2_factors.shape[-1] != r1:
            raise ValueError("inconsistent rank between factors and core")
        if self.u2_factors.shape[-2] != n1:
            raise ValueError("factor blocks must share the basis dimension")
        if not 1 <= r1 <= n1:
            raise ValueError("rank must satisfy 1 <= r <= N")

    @property
    def rank(self) -> int:
        return self.core.shape[-1]

    @property
    def basis_dim(self) -> int:
        return self.u1_factors.shape[-2]


def qr_nonneg(a: np.ndarray):
    """Reduced QR with the sign convention diag(R) >= 0 (an exact zero keeps
    sign +1); a stack (..., N, r) of blocks is factored block by block."""
    q, r = np.linalg.qr(a)
    signs = np.where(r.diagonal(0, -2, -1) < 0.0, -1.0, 1.0)
    return q * signs[..., None, :], signs[..., None] * r


def _fix_svd_signs(u, v):
    """Flip singular-vector pairs so each left vector's first nonzero entry
    (relative to its largest entry) is nonnegative."""
    mag = np.abs(u)
    lead = np.argmax(mag > 1e-12 * mag.max(axis=-2, keepdims=True), axis=-2)
    flip = np.take_along_axis(u, lead[..., None, :], axis=-2) < 0
    return np.where(flip, -u, u), np.where(flip, -v, v)


def factorize(coeffs: np.ndarray, rank: int) -> LowRankState:
    """Best rank-``rank`` factorization of a dense coefficient matrix.

    Parameters
    ----------
    coeffs : (N, N) array, or a stack (K, N, N) factored matrix by matrix
    rank : requested rank, ``1 <= rank <= N``; fails if ``sigma_rank`` is zero
        or under ``DEFAULT_RANK_FLOOR * sigma_1``.

    Returns the truncated SVD packaged as a :class:`LowRankState` (a stack
    for a stack) with a diagonal core, using the deterministic sign
    convention of :func:`_fix_svd_signs`.  The reconstruction error equals
    the Frobenius norm of the discarded singular values.
    """
    y = np.asarray(coeffs, dtype=float)
    if y.ndim not in (2, 3):
        raise ValueError("coefficient matrix must be 2-D, or a 3-D stack")
    if not 1 <= rank <= min(y.shape[-2:]):
        raise ValueError(f"rank {rank} out of range for shape {y.shape}")
    u, s, vt = np.linalg.svd(y, full_matrices=False)
    sigma, floor = s[..., rank - 1], DEFAULT_RANK_FLOOR * s[..., 0]
    low = np.flatnonzero((sigma <= 0.0) | (sigma < floor))
    if low.size:
        sigma, floor = sigma.flat[low[0]], floor.flat[low[0]]
        raise RankDeficiencyError(f"sigma_{rank} = {sigma:.3e} under the rank floor {floor:.3e}")
    u, v = _fix_svd_signs(u[..., :rank].copy(), vt[..., :rank, :].mT.copy())
    return LowRankState(u, s[..., :rank, None] * np.eye(rank), v)


def to_dense(state: LowRankState) -> np.ndarray:
    """Dense N-by-N coefficient matrix of a factored state, one per state of a stack."""
    return state.u1_factors @ state.core @ state.u2_factors.mT


def tangent_project(state: LowRankState, matrix: np.ndarray) -> np.ndarray:
    """Orthogonal projection of ``matrix`` onto the tangent space at ``state``.

    Computed as ``P1 Z + Z P2 - P1 Z P2`` with the factor-range projectors
    ``P1 = u1 u1^T`` and ``P2 = u2 u2^T``; equivalently ``Z`` minus the part
    ``(I - P1) Z (I - P2)`` normal to the tangent space.
    """
    u1 = state.u1_factors
    u2 = state.u2_factors
    left = u1.mT @ matrix               # (r, N)
    right = matrix @ u2                 # (N, r)
    return u1 @ left + (right - u1 @ (left @ u2)) @ u2.mT


def singular_values(state: LowRankState) -> np.ndarray:
    """Singular values of the state (descending); equals svd of the core.
    The last, sigma_r, is the state's Frobenius distance to the rank-(r-1)
    set.  A stack of states gives one row per state."""
    return np.linalg.svd(state.core, compute_uv=False)

