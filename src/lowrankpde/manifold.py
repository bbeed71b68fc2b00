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
    "reorthonormalize",
    "singular_values",
    "smallest_singular",
    "tangent_project",
    "to_dense",
]

#: Relative floor under which a rank-r factorization counts as degenerate.
DEFAULT_RANK_FLOOR = 1e-12


class RankDeficiencyError(ValueError):
    """A factorization (or refactorization) lost numerical rank.

    Carries the offending singular value / floor so callers can report the
    failure without re-decomposing anything.
    """

    def __init__(self, message="", *, rank=None, sigma=None, floor=None):
        super().__init__(message)
        self.rank = rank
        self.sigma = sigma
        self.floor = floor


@dataclass(frozen=True, eq=False)
class LowRankState:
    """Rank-r coefficient matrix ``u1_factors @ core @ u2_factors.T``.

    ``u1_factors`` and ``u2_factors`` are (N, r) with orthonormal columns,
    one block per coordinate direction; ``core`` is (r, r) and invertible
    but in general not diagonal.
    """

    u1_factors: np.ndarray
    core: np.ndarray
    u2_factors: np.ndarray

    def __post_init__(self):
        n1, r1 = self.u1_factors.shape
        if self.core.shape != (r1, r1) or self.u2_factors.shape[1] != r1:
            raise ValueError("inconsistent rank between factors and core")
        if self.u2_factors.shape[0] != n1:
            raise ValueError("factor blocks must share the basis dimension")
        if not 1 <= r1 <= n1:
            raise ValueError("rank must satisfy 1 <= r <= N")

    @property
    def rank(self) -> int:
        return self.core.shape[0]

    @property
    def basis_dim(self) -> int:
        return self.u1_factors.shape[0]


def qr_nonneg(a: np.ndarray):
    """Reduced QR with the sign convention diag(R) >= 0."""
    q, r = np.linalg.qr(a)
    signs = np.sign(np.diagonal(r)).copy()
    signs[signs == 0] = 1.0
    return q * signs, signs[:, None] * r


def _fix_svd_signs(u, v):
    """Flip singular-vector pairs so each left vector's first nonzero entry
    (relative to its largest entry) is nonnegative."""
    for k in range(u.shape[1]):
        col = u[:, k]
        peak = np.abs(col).max()
        if peak == 0.0:
            continue
        nz = np.flatnonzero(np.abs(col) > 1e-12 * peak)
        lead = col[nz[0]] if nz.size else col[0]
        if lead < 0:
            u[:, k] = -u[:, k]
            v[:, k] = -v[:, k]
    return u, v


def factorize(coeffs: np.ndarray, rank: int, rank_floor: float = DEFAULT_RANK_FLOOR) -> LowRankState:
    """Best rank-``rank`` factorization of a dense coefficient matrix.

    Parameters
    ----------
    coeffs : (N, N) array
    rank : requested rank, ``1 <= rank <= N``.
    rank_floor : relative floor; fails if ``sigma_rank < rank_floor * sigma_1``.

    Returns the truncated SVD packaged as a :class:`LowRankState` with a
    diagonal core, using the deterministic sign convention of
    :func:`_fix_svd_signs`.  The reconstruction error equals the Frobenius
    norm of the discarded singular values.
    """
    y = np.asarray(coeffs, dtype=float)
    if y.ndim != 2:
        raise ValueError("coefficient matrix must be 2-D")
    if not 1 <= rank <= min(y.shape):
        raise ValueError(f"rank {rank} out of range for shape {y.shape}")
    u, s, vt = np.linalg.svd(y, full_matrices=False)
    floor = rank_floor * (s[0] if s.size else 0.0)
    if s[rank - 1] <= 0.0 or s[rank - 1] < floor:
        raise RankDeficiencyError(
            f"sigma_{rank} = {s[rank - 1]:.3e} under the rank floor {floor:.3e}",
            rank=rank, sigma=float(s[rank - 1]), floor=float(floor))
    u = u[:, :rank].copy()
    v = vt[:rank].T.copy()
    u, v = _fix_svd_signs(u, v)
    return LowRankState(u, np.diag(s[:rank]), v)


def to_dense(state: LowRankState) -> np.ndarray:
    """Dense N-by-N coefficient matrix of a factored state."""
    return state.u1_factors @ state.core @ state.u2_factors.T


def tangent_project(state: LowRankState, matrix: np.ndarray) -> np.ndarray:
    """Orthogonal projection of ``matrix`` onto the tangent space at ``state``.

    Computed as ``P1 Z + Z P2 - P1 Z P2`` with the factor-range projectors
    ``P1 = u1 u1^T`` and ``P2 = u2 u2^T``; equivalently ``Z`` minus the part
    ``(I - P1) Z (I - P2)`` normal to the tangent space.
    """
    u1 = state.u1_factors
    u2 = state.u2_factors
    left = u1.T @ matrix                # (r, N)
    right = matrix @ u2                 # (N, r)
    return u1 @ left + (right - u1 @ (left @ u2)) @ u2.T


def singular_values(state: LowRankState) -> np.ndarray:
    """Singular values of the state (descending); equals svd of the core."""
    return np.linalg.svd(state.core, compute_uv=False)


def smallest_singular(state: LowRankState) -> float:
    """sigma_r of the state = its Frobenius distance to the rank-(r-1) set."""
    return float(singular_values(state)[-1])


def reorthonormalize(state: LowRankState, rank_floor: float = DEFAULT_RANK_FLOOR) -> LowRankState:
    """Restore orthonormal factor columns by QR on both sides.

    The R blocks are absorbed into the core, so the dense value is
    unchanged up to roundoff.  Fails if either R has a diagonal entry under
    ``rank_floor`` relative to its largest one (loss of factor rank).
    """
    q1, r1 = qr_nonneg(state.u1_factors)
    q2, r2 = qr_nonneg(state.u2_factors)
    for r_block in (r1, r2):
        diag = np.abs(np.diagonal(r_block))
        if diag.min() < rank_floor * max(diag.max(), np.finfo(float).tiny):
            raise RankDeficiencyError(
                "factor block lost rank during reorthonormalization",
                rank=state.rank, sigma=float(diag.min()),
                floor=float(rank_floor * diag.max()))
    return LowRankState(q1, r1 @ state.core @ r2.T, q2)
