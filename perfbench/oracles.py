"""Full-rank backward-Euler oracles built only from closed-form 1D data.

Nothing here calls the package under test: the sine-basis stiffness
``(n pi)^2``, the derivative coupling ``4 i j / (i^2 - j^2)`` (``i + j`` odd),
the rotating tensor and the interval means of cosine sources are all written
out again, so an error in the package cannot hide in its own oracle.

The coefficient operator is ``A(Y) = a11 L Y + a22 Y L + (a12 + a21) G Y G``
with ``L = diag(lam)``.
"""

from __future__ import annotations

import math

import numpy as np


def stiffness(n: int) -> np.ndarray:
    return (np.arange(1, n + 1) * np.pi) ** 2


def grad_coupling(n: int) -> np.ndarray:
    i = np.arange(1, n + 1, dtype=float)[:, None]
    j = np.arange(1, n + 1, dtype=float)[None, :]
    odd = (i + j) % 2 == 1
    return np.where(odd, 4.0 * i * j / np.where(odd, i * i - j * j, 1.0), 0.0)


def rotating_alpha(lambda1: float, lambda2: float, omega: float, t: float) -> np.ndarray:
    """``R(omega t)^T diag(lambda1, lambda2) R(omega t)`` in closed form."""
    c, s = math.cos(omega * t), math.sin(omega * t)
    off = (lambda2 - lambda1) * c * s
    return np.array([[lambda1 * c * c + lambda2 * s * s, off],
                     [off, lambda1 * s * s + lambda2 * c * c]])


def cosine_mean(scale: float, omega: float, t_a: float, t_b: float) -> float:
    """Mean of ``scale * cos(omega t)`` over ``[t_a, t_b]``."""
    return scale * (math.sin(omega * t_b) - math.sin(omega * t_a)) / (omega * (t_b - t_a))


def source_mean(terms, t_a: float, t_b: float) -> np.ndarray:
    """Interval mean of ``sum scale cos(omega t) p q^T``; terms are
    ``(scale, omega, p, q)`` tuples."""
    out = 0.0
    for scale, omega, p, q in terms:
        out = out + cosine_mean(scale, omega, t_a, t_b) * np.outer(p, q)
    return out


def diagonal_euler(y0: np.ndarray, a11: float, a22: float, terms, h: float,
                   n_steps: int) -> np.ndarray:
    """Exact full-rank steps for a constant diagonal tensor:
    ``Y <- (Y + h Fbar) / (1 + h (a11 lam_i + a22 lam_j))`` elementwise."""
    lam = stiffness(y0.shape[0])
    denom = 1.0 + h * (a11 * lam[:, None] + a22 * lam[None, :])
    y = np.array(y0, dtype=float)
    for k in range(n_steps):
        y = (y + h * source_mean(terms, k * h, (k + 1) * h)) / denom
    return y


def _pcg(apply, rhs: np.ndarray, precond: np.ndarray, rtol: float,
         maxiter: int) -> np.ndarray:
    """Conjugate gradient on matrices, preconditioned by elementwise division."""
    x = rhs / precond
    r = rhs - apply(x)
    z = r / precond
    p = z.copy()
    rz = float(np.sum(r * z))
    stop = rtol * float(np.linalg.norm(rhs))
    for _ in range(maxiter):
        if float(np.linalg.norm(r)) <= stop:
            return x
        ap = apply(p)
        step = rz / float(np.sum(p * ap))
        x += step * p
        r -= step * ap
        z = r / precond
        rz_new = float(np.sum(r * z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise RuntimeError(f"oracle CG did not reach rtol {rtol:g} in {maxiter} iterations")


def rotating_euler(y0: np.ndarray, lambdas, omega: float, terms, h: float, n_steps: int,
                   rtol: float = 1e-14) -> np.ndarray:
    """Full-rank backward Euler under a rotating tensor, frozen at each step's
    end time, solved by CG preconditioned with the exact inverse of the
    identity plus the divergence part."""
    n = y0.shape[0]
    lam = stiffness(n)
    g = grad_coupling(n)
    y = np.array(y0, dtype=float)
    for k in range(n_steps):
        a = rotating_alpha(lambdas[0], lambdas[1], omega, (k + 1) * h)
        div = 1.0 + h * (a[0, 0] * lam[:, None] + a[1, 1] * lam[None, :])
        mixed = h * (a[0, 1] + a[1, 0])

        def apply(x, div=div, mixed=mixed):
            return div * x + mixed * (g @ x @ g)

        rhs = y + h * source_mean(terms, k * h, (k + 1) * h)
        y = _pcg(apply, rhs, div, rtol, maxiter=50 * n)
    return y
