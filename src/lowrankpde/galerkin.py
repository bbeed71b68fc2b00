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
    "constant_profile",
    "cosine_profile",
    "exact_diagonal_solution",
    "h_norm",
    "linear_profile",
    "operator_matrix",
    "rhs_mean_factors",
    "rotating_diffusion",
    "separable_source",
    "v_dual_norm",
    "v_norm",
    "zero_source",
]

from .manifold import LowRankState, reorthonormalize


# ---------------------------------------------------------------------------
# model data


@dataclass(frozen=True)
class DiffusionModel:
    """Time-dependent 2x2 diffusion tensor with its analytic bounds.

    alpha : map t -> symmetric (2, 2) array with eigenvalues in [mu, beta].
    lipschitz_t : Lipschitz constant of t -> alpha(t) in the spectral norm
        (the constant that multiplies |t - s| * |u|_V * |v|_V when the weak
        form is shifted in time).
    time_dependent / diagonal : structure flags that guard closed-form
        solutions; the steppers read alpha(t) itself.
    """

    alpha: Callable[[float], np.ndarray]
    mu: float
    beta: float
    lipschitz_t: float
    time_dependent: bool = False
    diagonal: bool = False


def constant_diffusion(matrix) -> DiffusionModel:
    """Model with a fixed symmetric positive definite tensor."""
    a = np.array(matrix, dtype=float)
    if a.shape != (2, 2):
        raise ValueError("diffusion tensor must be 2x2")
    if abs(a[0, 1] - a[1, 0]) > 1e-14 * max(1.0, np.abs(a).max()):
        raise ValueError("diffusion tensor must be symmetric")
    eigs = np.linalg.eigvalsh(a)
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(eigs))):
        raise ValueError(f"matrix must have finite entries and eigenvalues, got {a.tolist()}")
    if eigs[0] <= 0:
        raise ValueError("diffusion tensor is not positive definite")
    diag = abs(a[0, 1]) <= 1e-14 * np.abs(np.diagonal(a)).max()
    return DiffusionModel(alpha=lambda t, _a=a: _a, mu=float(eigs[0]),
                          beta=float(eigs[-1]), lipschitz_t=0.0,
                          time_dependent=False, diagonal=diag)


def rotating_diffusion(lambda1: float, lambda2: float, omega: float) -> DiffusionModel:
    """Tensor with fixed eigenvalues whose eigenframe rotates at rate omega:
    ``alpha(t) = R(omega t)^T diag(lambda1, lambda2) R(omega t)``."""
    for name, value in (("lambda1", lambda1), ("lambda2", lambda2), ("omega", omega)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if lambda1 <= 0 or lambda2 <= 0:
        raise ValueError("diffusion tensor is not positive definite")
    lam = np.array([lambda1, lambda2], dtype=float)

    def alpha(t: float) -> np.ndarray:
        c, s = math.cos(omega * t), math.sin(omega * t)
        rot = np.array([[c, -s], [s, c]])
        return rot.T @ np.diag(lam) @ rot

    steady = omega == 0.0 or lambda1 == lambda2
    return DiffusionModel(alpha=alpha, mu=float(lam.min()), beta=float(lam.max()),
                          lipschitz_t=abs(omega) * abs(lambda1 - lambda2),
                          time_dependent=not steady,
                          diagonal=steady)


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
    v_weights : grid of (n1 pi)^2 + (n2 pi)^2 used by the V-norms.

    A caller that reads only the vector, such as a rank-r step with a
    diagonal tensor, never pays for the dense blocks.
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

    @cached_property
    def v_weights(self) -> np.ndarray:
        lam = self.stiffness_diag
        return lam[:, None] + lam[None, :]


def build_operator(basis_dim: int) -> GalerkinOperator:
    """Operator for modes 1..basis_dim; only the stiffness vector is built
    here, the dense blocks on first read (see :class:`GalerkinOperator`)."""
    if basis_dim < 1:
        raise ValueError("basis_dim must be >= 1")
    n = np.arange(1, basis_dim + 1)
    return GalerkinOperator(basis_dim, (n * np.pi) ** 2)


def apply_a1(op: GalerkinOperator, model: DiffusionModel, t: float, coeffs: np.ndarray) -> np.ndarray:
    """Divergence part: ``a11 L Y + a22 Y L`` (acts on rows / columns only).
    A list of K times acts on a stack (K, N, N), time k on matrix k."""
    a = np.array([model.alpha(s) for s in t]) if isinstance(t, list) else model.alpha(t)
    lam = op.stiffness_diag
    return (a[..., 0, 0, None, None] * lam[:, None] * coeffs
            + a[..., 1, 1, None, None] * coeffs * lam[None, :])


def apply_a2(op: GalerkinOperator, model: DiffusionModel, t: float, coeffs: np.ndarray) -> np.ndarray:
    """Mixed-derivative part: ``(a12 + a21) G Y G``; stacked as in :func:`apply_a1`."""
    a = np.array([model.alpha(s) for s in t]) if isinstance(t, list) else model.alpha(t)
    c = a[..., 0, 1, None, None] + a[..., 1, 0, None, None]
    if not c.any():
        return np.zeros_like(coeffs)
    g = op.grad_coupling_1d
    return c * (g @ coeffs @ g)


def apply_operator(op: GalerkinOperator, model: DiffusionModel, t: float, coeffs: np.ndarray) -> np.ndarray:
    """Full weak operator in coefficient space; symmetric positive definite."""
    return apply_a1(op, model, t, coeffs) + apply_a2(op, model, t, coeffs)


def operator_matrix(op: GalerkinOperator, model: DiffusionModel, t: float) -> np.ndarray:
    """Dense N^2-by-N^2 matrix of :func:`apply_operator` acting on
    column-major vectorized coefficients."""
    a = model.alpha(t)
    n = op.basis_dim
    eye = np.eye(n)
    stiff = op.stiffness_1d
    g = op.grad_coupling_1d
    mat = a[0, 0] * np.kron(eye, stiff) + a[1, 1] * np.kron(stiff, eye)
    c = a[0, 1] + a[1, 0]
    if c != 0.0:
        mat -= c * np.kron(g, g)   # vec(G Y G) = (G^T kron G) vec(Y), G skew
    return mat


def h_norm(coeffs: np.ndarray) -> float:
    """L2 norm of the represented function = Frobenius norm of coefficients."""
    return float(np.linalg.norm(coeffs))


def v_norm(op: GalerkinOperator, coeffs: np.ndarray):
    """Gradient seminorm of the represented function (exact in this basis);
    an array of them for a stack (K, N, N) of coefficient matrices."""
    norms = np.sqrt(np.sum(op.v_weights * coeffs * coeffs, axis=(-2, -1)))
    return float(norms) if norms.ndim == 0 else norms


def v_dual_norm(op: GalerkinOperator, coeffs: np.ndarray) -> float:
    """Dual norm with reciprocal gradient weights."""
    return float(np.sqrt(np.sum(coeffs * coeffs / op.v_weights)))


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

    def value(self, t: float) -> float:
        if self.kind == "constant":
            return self.scale
        if self.kind == "linear":
            return self.scale * t
        return self.scale * math.cos(self.omega * t)

    def mean(self, t_a: float, t_b: float) -> float:
        """Exact average over [t_a, t_b] (midpoint value for linear)."""
        if t_b <= t_a:
            raise ValueError("interval must have positive length")
        if self.kind == "constant":
            return self.scale
        if self.kind == "linear":
            return self.scale * 0.5 * (t_a + t_b)
        if self.omega == 0.0:
            return self.scale
        return self.scale * (math.sin(self.omega * t_b) - math.sin(self.omega * t_a)) \
            / (self.omega * (t_b - t_a))


def constant_profile(c: float) -> TimeProfile:
    return TimeProfile("constant", float(c))


def linear_profile(c: float) -> TimeProfile:
    return TimeProfile("linear", float(c))


def cosine_profile(c: float, omega: float) -> TimeProfile:
    return TimeProfile("cosine", float(c), float(omega))


@dataclass(frozen=True, eq=False)
class SourceSpec:
    """Finite sum of separable terms ``profile(t) * outer(p, q)``."""

    basis_dim: int
    terms: tuple


def zero_source(basis_dim: int) -> SourceSpec:
    return SourceSpec(basis_dim, ())


def separable_source(basis_dim: int, terms) -> SourceSpec:
    """Build a source from (profile, p, q) triples of N-vectors."""
    packed = []
    for profile, p, q in terms:
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        if p.shape != (basis_dim,) or q.shape != (basis_dim,):
            raise ValueError("source factors must be N-vectors")
        packed.append((profile, p, q))
    return SourceSpec(basis_dim, tuple(packed))


def rhs_mean_factors(source: SourceSpec, t_a: float, t_b: float):
    """Factor pair ``(P, Q)`` of the source's exact interval mean, which is
    ``P @ Q.T``.  Both are (N, m) for m terms: column k of P is the left
    vector of term k times its profile mean, column k of Q its right vector.
    A source without terms gives (N, 0) factors."""
    n, m = source.basis_dim, len(source.terms)
    p_mat, q_mat = np.empty((n, m)), np.empty((n, m))
    for k, (profile, p, q) in enumerate(source.terms):
        p_mat[:, k] = profile.mean(t_a, t_b) * p
        q_mat[:, k] = q
    return p_mat, q_mat


# ---------------------------------------------------------------------------
# closed-form solution for the decoupled case


def exact_diagonal_solution(op: GalerkinOperator, model: DiffusionModel,
                            u0: LowRankState, t: float) -> LowRankState:
    """Homogeneous solution for constant diagonal alpha.

    Every mode decays independently, so the factors are scaled column-wise
    by ``exp(-t a11 (n pi)^2)`` / ``exp(-t a22 (n pi)^2)`` and the state is
    reorthonormalized; the rank is preserved for any t.
    """
    if model.time_dependent or not model.diagonal:
        raise ValueError("closed form requires a constant diagonal tensor")
    a = model.alpha(0.0)
    lam = op.stiffness_diag
    decay1 = np.exp(-t * a[0, 0] * lam)
    decay2 = np.exp(-t * a[1, 1] * lam)
    scaled = LowRankState(decay1[:, None] * u0.u1_factors, u0.core.copy(),
                          decay2[:, None] * u0.u2_factors)
    return reorthonormalize(scaled)
