"""Spectral sine-Galerkin model of anisotropic diffusion on the unit square.

The trial space is the tensor product of ``phi_n(x) = sqrt(2) sin(n pi x)``,
``n = 1..N``, in each coordinate, so homogeneous Dirichlet conditions are
built in and coefficient matrices are N-by-N.  The weak operator

    v  |->  integral( alpha(t) grad(u) . grad(v) )

splits into a divergence part acting separately on rows and columns and a
mixed-derivative part coupling the two directions through a skew-symmetric
1D gradient matrix.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

__all__ = [
    "DiffusionModel",
    "GalerkinOperator",
    "SourceSpec",
    "TimeProfile",
    "apply_a1",
    "apply_a2",
    "apply_operator",
    "build_operator",
    "constant_diffusion",
    "cosine_profile",
    "exact_diagonal_solution",
    "h_distance",
    "h_norm",
    "rhs_mean_factors",
    "rotating_diffusion",
    "separable_source",
    "v_norm",
    "zero_source",
]

from .manifold import LowRankState, qr_nonneg, to_dense


# ---------------------------------------------------------------------------
# model data


@dataclass(frozen=True)
class DiffusionModel:
    """Time-dependent 2x2 diffusion tensor with its analytic bounds.

    alpha : map t -> symmetric (2, 2) array with eigenvalues in [mu, beta].
    lipschitz_t : Lipschitz constant of t -> alpha(t) in the spectral norm
        (the constant that multiplies |t - s| * |u|_V * |v|_V when the weak
        form is shifted in time).
    """

    alpha: Callable[[float], np.ndarray]
    mu: float
    beta: float
    lipschitz_t: float

    @property
    def constant_diagonal(self) -> bool:
        """Whether alpha is constant (``lipschitz_t == 0``) with a mixed
        coefficient ``a12 + a21`` of exactly zero, the steppers' own test for
        no mixed term: the case :func:`exact_diagonal_solution` solves in
        closed form."""
        a = self.alpha(0.0)
        return bool(self.lipschitz_t == 0.0 and a[0, 1] + a[1, 0] == 0.0)


def constant_diffusion(matrix) -> DiffusionModel:
    """Model with a fixed symmetric positive definite tensor."""
    a = np.array(matrix, dtype=float)
    if a.shape != (2, 2):
        raise ValueError("diffusion tensor must be 2x2")
    # entries first: the symmetry test below would compute inf - inf
    eigs = np.linalg.eigvalsh(a) if np.all(np.isfinite(a)) else np.full(2, np.nan)
    if not np.all(np.isfinite(eigs)):
        raise ValueError(f"matrix must have finite entries and eigenvalues, got {a.tolist()}")
    if abs(a[0, 1] - a[1, 0]) > 1e-14 * max(1.0, np.abs(a).max()):
        raise ValueError("diffusion tensor must be symmetric")
    if eigs[0] <= 0:
        raise ValueError("diffusion tensor is not positive definite")
    return DiffusionModel(alpha=lambda t, _a=a: _a, mu=float(eigs[0]),
                          beta=float(eigs[-1]), lipschitz_t=0.0)


def rotating_diffusion(lambda1: float, lambda2: float, omega: float) -> DiffusionModel:
    """Tensor with fixed eigenvalues whose eigenframe rotates at rate omega:
    ``alpha(t) = R(omega t)^T diag(lambda1, lambda2) R(omega t)``."""
    for name, value in (("lambda1", lambda1), ("lambda2", lambda2), ("omega", omega)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if lambda1 <= 0 or lambda2 <= 0:
        raise ValueError("diffusion tensor is not positive definite")
    lam = np.array([lambda1, lambda2], dtype=float)
    lipschitz_t = abs(omega) * abs(lambda1 - lambda2)

    def alpha(t: float) -> np.ndarray:
        if lipschitz_t == 0.0:   # lambda1 == lambda2 or omega == 0: constant, without
            return np.diag(lam)  # the rounding of R^T diag R
        c, s = math.cos(omega * t), math.sin(omega * t)
        rot = np.array([[c, -s], [s, c]])
        return rot.T @ np.diag(lam) @ rot

    return DiffusionModel(alpha=alpha, mu=float(lam.min()), beta=float(lam.max()),
                          lipschitz_t=lipschitz_t)


# ---------------------------------------------------------------------------
# discrete operator


@dataclass(frozen=True, eq=False)
class GalerkinOperator:
    """1D matrices of the sine basis for modes 1..basis_dim.

    Built eagerly, in O(N):

    stiffness_diag : (N,) vector (n pi)^2, the diagonal of the 1D stiffness.

    Built on first read and kept for the operator's lifetime, each (N, N):

    stiffness_1d : diagonal matrix with entries (n pi)^2.
    grad_coupling_1d : skew-symmetric matrix of first-derivative couplings,
        entry (i, j) = integral( phi_j' phi_i ) = 4 i j / (i^2 - j^2) for
        i + j odd, 0 otherwise.

    A caller that reads only the vector, such as a rank-r step with a
    diagonal tensor, never pays for the dense blocks.  G has one reader,
    :func:`_apply_g` (G X for an (N, k) block), the one place that knows how G is stored.
    """

    basis_dim: int
    stiffness_diag: np.ndarray

    @cached_property
    def stiffness_1d(self) -> np.ndarray:
        return np.diag(self.stiffness_diag)

    @cached_property
    def grad_coupling_1d(self) -> np.ndarray:
        # only the two opposite-parity quarter blocks are nonzero; filling
        # them in place keeps the temporaries at a quarter of G each
        modes = np.arange(1, self.basis_dim + 1, dtype=float)
        grad = np.zeros((self.basis_dim, self.basis_dim))
        for a, b in ((0, 1), (1, 0)):
            i, j = modes[a::2, None], modes[None, b::2]
            grad[a::2, b::2] = 4.0 * i * j / (i * i - j * j)
        return grad


def build_operator(basis_dim: int) -> GalerkinOperator:
    """Operator for modes 1..basis_dim; only the stiffness vector is built
    here, the dense blocks on first read (see :class:`GalerkinOperator`)."""
    _check_integer("basis_dim", basis_dim, 1)
    return GalerkinOperator(basis_dim, _stiffness_diag(basis_dim))


def _check_integer(name: str, value, low: int) -> None:
    """Raise a ValueError naming ``name`` unless ``value`` is an integer (not
    a bool) of at least ``low``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


def _stiffness_diag(basis_dim: int) -> np.ndarray:
    """(n pi)^2 for n = 1..basis_dim, the one formula of the 1D stiffness."""
    return (np.arange(1, basis_dim + 1) * np.pi) ** 2


def apply_a1(op: GalerkinOperator, a: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Divergence part ``a11 L Y + a22 Y L`` (acts on rows / columns only) of
    the evaluated tensor ``a``.  A stack (K, 2, 2) of tensors acts on a stack
    (K, N, N), tensor k on matrix k."""
    lam = op.stiffness_diag
    return (a[..., 0, 0, None, None] * lam[:, None] * coeffs
            + a[..., 1, 1, None, None] * coeffs * lam[None, :])


def _apply_g(op: GalerkinOperator, x: np.ndarray) -> np.ndarray:
    """G x for an (N, k) block x: G's one reader, so every product with G."""
    return op.grad_coupling_1d.dot(x)


def apply_a2(op: GalerkinOperator, a: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Mixed-derivative part ``(a12 + a21) G Y G = -(a12 + a21) G (G Y^T)^T`` (G is skew),
    by :func:`_apply_g` matrix by matrix; stacked as in :func:`apply_a1`."""
    c = a[..., 0, 1, None, None] + a[..., 1, 0, None, None]
    if not c.any():
        return np.zeros_like(coeffs)
    gyg = [_apply_g(op, _apply_g(op, y.T).T) for y in coeffs.reshape(-1, *coeffs.shape[-2:])]
    return -c * (gyg[0] if coeffs.ndim == 2 else np.reshape(gyg, coeffs.shape))


def apply_operator(op: GalerkinOperator, a: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Full weak operator of the tensor ``a`` in coefficient space; symmetric
    positive definite.  Stacked as in :func:`apply_a1`."""
    return apply_a1(op, a, coeffs) + apply_a2(op, a, coeffs)


def h_norm(state):
    """L2 norm of the represented function = Frobenius norm of coefficients,
    the core's for a ``LowRankState`` (its factors are orthonormal); an array
    of them for a stack, one BLAS dot per matrix."""
    coeffs = state.core if isinstance(state, LowRankState) else np.asarray(state)
    if coeffs.ndim <= 2:
        # norm sums in memory order, the stack path in index order: they round
        # apart on a transposed core, as an ALS step's (r_w.T) is
        return float(np.linalg.norm(coeffs))
    return np.sqrt(_squared_norms(coeffs))


def _squared_norms(stack: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each matrix of a stack, one BLAS dot each."""
    flat = stack.reshape(*stack.shape[:-2], 1, -1)
    return (flat @ flat.mT)[..., 0, 0]


def h_distance(a, b) -> float:
    """:func:`h_norm` of ``a - b``, each one ``LowRankState`` or one dense
    (N, N) array; a stack of either raises ValueError.
    Two states are compared from their factors: with ``M = U_b^T U_a``,
    ``A - B = (U_a - U_b M) S_a V_a^T + U_b (M S_a V_a^T - S_b V_b^T)`` is an
    orthogonal sum, so its norm is that of an (N, r_a) and an (r_b, N) block
    and keeps its error at roundoff of |A| + |B| however close the states
    are (a difference of squared norms would leave sqrt(eps) |A|), which
    ALS's stop test needs.  Any other pair is densified and subtracted."""
    if isinstance(a, LowRankState) and isinstance(b, LowRankState):
        if a.core.ndim != 2 or b.core.ndim != 2:
            raise ValueError("h_distance compares two states, not stacks")
        m = b.u1_factors.T.dot(a.u1_factors)
        across = (a.u1_factors - b.u1_factors.dot(m)).dot(a.core)
        along = m.dot(a.core).dot(a.u2_factors.T) - b.core.dot(b.u2_factors.T)
        return math.sqrt(np.vdot(across, across) + np.vdot(along, along))
    dense = [to_dense(x) if isinstance(x, LowRankState) else np.asarray(x) for x in (a, b)]
    if dense[0].ndim != 2 or dense[1].ndim != 2:
        raise ValueError("h_distance compares two states, not stacks")
    return h_norm(dense[0] - dense[1])


def v_norm(state):
    """Gradient seminorm of the represented function (exact in this basis), an
    array of them for a stack; ``sqrt(lam . rowsum((U S)^2 + (V S^T)^2))`` for
    a ``LowRankState`` ``U S V^T``, with ``lam`` the 1D stiffness (n pi)^2."""
    lam = _stiffness_diag(state.basis_dim if isinstance(state, LowRankState) else state.shape[-1])
    if isinstance(state, LowRankState):
        us = state.u1_factors @ state.core
        vs = state.u2_factors @ state.core.mT
        norms = np.sqrt(np.sum(us * us + vs * vs, axis=-1) @ lam)
    else:
        norms = np.sqrt(np.sum((lam[:, None] + lam) * state * state, axis=(-2, -1)))
    return float(norms) if norms.ndim == 0 else norms


# ---------------------------------------------------------------------------
# separable source terms


@dataclass(frozen=True)
class TimeProfile:
    """Scalar time factor: constant c, linear c*t, or cosine c*cos(omega t)."""

    kind: str
    scale: float
    omega: float = 0.0

    def __post_init__(self):
        if self.kind not in ("constant", "linear", "cosine"):
            raise ValueError(f"unknown time profile {self.kind!r}; "
                             "expected 'constant', 'linear' or 'cosine'")
        for name, value in (("scale", self.scale), ("omega", self.omega)):
            if not math.isfinite(value):
                raise ValueError(f"time profile {name} must be finite, got {value!r}")

    def mean(self, t_a: float, t_b: float) -> float:
        """Exact average over [t_a, t_b] (midpoint value for linear).  The
        cosine's is cos(omega m) sin(x) / x for the midpoint m and x = omega
        (t_b - t_a) / 2, which keeps its relative accuracy as x -> 0, where
        the difference of sines cancels; sin(x) / x is 1 once x rounds to 0."""
        _check_interval(t_a, t_b)
        if self.kind == "constant":
            return self.scale
        if self.kind == "linear":
            return self.scale * 0.5 * (t_a + t_b)
        x = 0.5 * self.omega * (t_b - t_a)
        sinc = math.sin(x) / x if x != 0.0 else 1.0
        return self.scale * math.cos(0.5 * self.omega * (t_a + t_b)) * sinc


def _check_interval(t_a: float, t_b: float) -> None:
    """Raise a ValueError unless both ends are finite and t_a < t_b."""
    if not (math.isfinite(t_a) and math.isfinite(t_b) and t_a < t_b):
        raise ValueError("interval must have finite ends and positive length, "
                         f"got ({t_a!r}, {t_b!r})")


def cosine_profile(c: float, omega: float) -> TimeProfile:
    return TimeProfile("cosine", float(c), float(omega))


@dataclass(frozen=True, eq=False)
class SourceSpec:
    """Sum of the m separable terms ``profiles[k](t) * outer(p[k], q[k])``;
    the blocks ``p`` and ``q`` are (m, N), read-only, term k in row k."""

    profiles: tuple
    p: np.ndarray
    q: np.ndarray

    @property
    def basis_dim(self) -> int:
        return self.p.shape[1]


def zero_source(basis_dim: int) -> SourceSpec:
    return separable_source(basis_dim, ())


def separable_source(basis_dim: int, terms) -> SourceSpec:
    """Build a source from (TimeProfile, p, q) triples of finite N-vectors
    whose product of norms |p| |q| is finite."""
    _check_integer("basis_dim", basis_dim, 1)
    packed = []
    for k, (profile, p, q) in enumerate(terms):
        p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
        if not isinstance(profile, TimeProfile):
            raise TypeError(f"source profile of term {k} must be a TimeProfile, "
                            f"got {type(profile).__name__}")
        if p.shape != (basis_dim,) or q.shape != (basis_dim,):
            raise ValueError("source factors must be N-vectors")
        for name, factor in (("p", p), ("q", q)):
            if not np.isfinite(factor).all():
                raise ValueError(f"source factor {name} of term {k} must be finite")
        if not math.isfinite(math.hypot(*p) * math.hypot(*q)):
            raise ValueError(f"source term {k} overflows: |p| |q| is not finite")
        packed.append((profile, p, q))
    p, q = (np.array([term[j] for term in packed]).reshape(len(packed), basis_dim) for j in (1, 2))
    p.flags.writeable = q.flags.writeable = False
    return SourceSpec(tuple(term[0] for term in packed), p, q)


def rhs_mean_factors(source: SourceSpec, t_a: float, t_b: float):
    """Factor pair ``(P, Q)`` of the source's exact interval mean ``P @ Q.T``:
    (N, m) transposed views of the stored ``p``, row k scaled by profile k's
    mean, and of the read-only ``q``; (N, 0) for a source without terms.  The
    interval [t_a, t_b] is checked as :meth:`TimeProfile.mean` checks it."""
    _check_interval(t_a, t_b)
    means = np.array([profile.mean(t_a, t_b) for profile in source.profiles])
    return (means[:, None] * source.p).T, source.q.T


# ---------------------------------------------------------------------------
# closed-form solution for the decoupled case


def exact_diagonal_solution(model: DiffusionModel, u0: LowRankState, t: float) -> LowRankState:
    """Homogeneous solution for constant diagonal alpha.

    Every mode decays independently, so the factors are scaled column-wise
    by ``exp(-t a11 (n pi)^2)`` / ``exp(-t a22 (n pi)^2)`` and the state is
    reorthonormalized by QR on both sides, the R blocks absorbed into the
    core.  No rank floor applies, so the rank is preserved for any t, up to
    a singular value that underflows to 0.0 (at N = 40, r = 4, unit tensor,
    the fourth one does by t = 3).  A t that is not finite and >= 0 raises
    ValueError.
    """
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"t must be finite and >= 0, got {t!r}")
    if not model.constant_diagonal:
        raise ValueError("closed form requires a constant diagonal tensor")
    a, lam = model.alpha(0.0), _stiffness_diag(u0.basis_dim)
    q1, r1 = qr_nonneg(np.exp(-t * a[0, 0] * lam)[:, None] * u0.u1_factors)
    q2, r2 = qr_nonneg(np.exp(-t * a[1, 1] * lam)[:, None] * u0.u2_factors)
    return LowRankState(q1, r1 @ u0.core @ r2.mT, q2)
