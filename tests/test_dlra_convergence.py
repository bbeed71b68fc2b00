"""The rank-r schemes converge at first order to the dynamical low-rank solution.

The limit of the variational scheme as h -> 0 is the Dirac-Frenkel
(dynamical low-rank) solution of the semi-discrete problem Y' = F(Y, t) with
F(Y, t) = -A(t) Y + f(t).  For Y = U S V^T with U^T U' = V^T V' = 0 it solves
the factor equations of Koch & Lubich (SIMAX 29, 2007)

    S' = U^T F V,   U' = (I - U U^T) F V S^-1,   V' = (I - V V^T) F^T U S^-T,

integrated here by scipy's Radau from the dense Kronecker matrix of
``dense_oracles.operator_matrix`` and the pointwise source of
``dense_oracles.profile_value``, so the oracle shares no code with the
steppers' ``_Step`` or with ``reference_step``.  The data were fixed before
running: N = 8, r = 2, T = 0.1, n = 40, 80, 160, 320 steps, a smooth start
(Gaussian factor blocks weighted by n^-2, singular values 1 and 0.3), and
two problems, a rotating tensor with one cosine source term and a constant
tensor with a mixed term and no source.  ALS and splitting read orders
0.994 ... 0.999 over every halving, and errors 6.1e-4 ... 7.5e-4 (2.0 ... 2.4
h) at n = 320.  The four cases take about 3 s on one core.

A rough start, ``sample_state`` with singular values log-uniform in
[1e-2, 1], is not gated.  Over the same halvings its orders read 0.87,
0.89, 0.93 (ALS) and 0.91, 0.93, 0.96 (splitting) on the rotating problem,
and 0.16, 0.55, 0.76 (ALS) and 0.97, 1.04, 1.06 (splitting) on the mixed
one.  Its factors weight every mode alike, and the high modes decay within
the first steps: sigma_2 falls from 3.7e-2 to about 6e-3 by t = 0.005, two
steps at n = 40, where h lam_max = h (N pi)^2 is 1.6 (0.2 at n = 320).  So
these step counts do not resolve that initial layer, in which the
solution's curvature 1 / sigma_2 grows sixfold, and the orders are
pre-asymptotic; a gate on them would test the choice of n, not the scheme.
"""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from dense_oracles import operator_matrix, profile_value
from lowrankpde.galerkin import (build_operator, constant_diffusion, cosine_profile,
                                 rotating_diffusion, separable_source, zero_source)
from lowrankpde.manifold import LowRankState, to_dense
from lowrankpde.stepping import integrate

N, R, T, STEP_COUNTS, SEED = 8, 2, 0.1, (40, 80, 160, 320), 36
ORDER_RANGE = (0.9, 1.1)
#: The error at the finest step is under this multiple of its h.
ERROR_PER_H = 4.0

MODES = np.arange(1, N + 1)
SOURCE_TERMS = ((cosine_profile(1.0, 20.0), MODES ** -2.0,
                 (-1.0) ** (MODES + 1) * MODES ** -2.0),)
PROBLEMS = {
    "rotating-cosine": (rotating_diffusion(1.0, 0.1, 1.0), SOURCE_TERMS),
    "mixed-homogeneous": (constant_diffusion([[1.0, 0.3], [0.3, 0.5]]), ()),
}


def smooth_start() -> LowRankState:
    rng = np.random.default_rng(SEED)
    u, _ = np.linalg.qr(rng.standard_normal((N, R)) / MODES[:, None] ** 2)
    v, _ = np.linalg.qr(rng.standard_normal((N, R)) / MODES[:, None] ** 2)
    return LowRankState(u, np.diag([1.0, 0.3]), v)


def dlra_solution(model, terms, start: LowRankState) -> np.ndarray:
    """U S V^T at T from the Koch-Lubich factor equations, solved by Radau."""
    op = build_operator(N)
    pieces = [operator_matrix(op, np.array(a)) for a in
              ([[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]], [[0.0, 0.5], [0.5, 0.0]])]

    def unpack(z):
        u, s, v = np.split(z, [N * R, N * R + R * R])
        return u.reshape(N, R), s.reshape(R, R), v.reshape(N, R)

    def rhs(t, z):
        u, s, v = unpack(z)
        a = model.alpha(t)
        matrix = a[0, 0] * pieces[0] + a[1, 1] * pieces[1] + (a[0, 1] + a[1, 0]) * pieces[2]
        y = u @ s @ v.T
        f = -(matrix @ y.reshape(-1, order="F")).reshape(N, N, order="F")
        for profile, p, q in terms:
            f += profile_value(profile, t) * np.outer(p, q)
        fv, ftu = f @ v, f.T @ u
        s_inv = np.linalg.inv(s)
        u_dot = (fv - u @ (u.T @ fv)) @ s_inv
        v_dot = (ftu - v @ (v.T @ ftu)) @ s_inv.T
        return np.concatenate([u_dot.ravel(), (u.T @ fv).ravel(), v_dot.ravel()])

    z0 = np.concatenate([start.u1_factors.ravel(), start.core.ravel(), start.u2_factors.ravel()])
    sol = solve_ivp(rhs, (0.0, T), z0, method="Radau", rtol=1e-9, atol=1e-12)
    assert sol.success, sol.message
    u, s, v = unpack(sol.y[:, -1])
    return u @ s @ v.T


def errors(method, model, terms, start) -> list:
    """Distance at T to the DLRA solution after each step count."""
    oracle = dlra_solution(model, terms, start)
    source = separable_source(N, terms) if terms else zero_source(N)
    finals = [integrate(method, start, T, n, model, source).states[-1] for n in STEP_COUNTS]
    return [float(np.linalg.norm(to_dense(y) - oracle)) for y in finals]


@pytest.mark.parametrize("method", ["als", "splitting"])
@pytest.mark.parametrize("problem", sorted(PROBLEMS))
def test_first_order_convergence_to_the_dlra_solution(problem, method):
    model, terms = PROBLEMS[problem]
    errs = errors(method, model, terms, smooth_start())
    orders = [math.log2(coarse / fine) for coarse, fine in zip(errs, errs[1:])]
    assert all(ORDER_RANGE[0] <= order <= ORDER_RANGE[1] for order in orders), (errs, orders)
    assert errs[-1] < ERROR_PER_H * T / STEP_COUNTS[-1], errs
