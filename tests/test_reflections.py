"""Exact symmetries of the discrete problem, kept by every integrator.

With S = diag((-1)^(n+1)), phi_n(1 - x) = S_n phi_n(x), and the coupling
satisfies S G S = -G because G_ij vanishes unless i + j is odd.  Reflecting
x therefore maps a solution Y to S Y when the source factor P becomes S P
and a12 becomes -a12 (for ``rotating_diffusion``, omega -> -omega);
reflecting y acts on the columns in the same way, and reflecting both keeps
a12.  A sign flip is exact in floating point, so the reflected runs are the
reflected base run to the bit: every dense state and every step record.
The factors are not compared, since QR may pick a different gauge.
Transposing (a11 <-> a22, Y -> Y^T, P <-> Q) is a symmetry too, but G Y G
and G Y^T G round apart, so the reference run is compared to roundoff and
ALS, which meets its transpose only as far as its stop on the relative state
change allows, to 1e3 times that stop's tolerance on runs no cap cut short;
it sees a step that treats the two axes differently, such as a11 and a22
swapped in one place.  Splitting is not gated: it runs its left half-sweep
first, so its transposed run is a different scheme (a gap of 6.0e-2 here).
"""

import numpy as np
import pytest

from lowrankpde.analysis import sample_state
from lowrankpde.galerkin import (DiffusionModel, cosine_profile, rotating_diffusion,
                                 separable_source)
from lowrankpde.manifold import LowRankState, to_dense
from lowrankpde.stepping import _ALS_TOL, METHODS, StepOptions, integrate

N, R, T, STEPS, OMEGA, SEED = 24, 3, 0.05, 20, 1.0, 2024

#: (rows flipped, columns flipped) of each reflection.
REFLECTIONS = {"x": (True, False), "y": (False, True), "xy": (True, True)}


def signs(flip_rows, flip_cols):
    """The diagonals of the row and column maps: S = diag((-1)^(n+1)) where
    that axis is flipped, the identity where not."""
    s, one = np.where(np.arange(N) % 2 == 0, 1.0, -1.0), np.ones(N)
    return (s if flip_rows else one), (s if flip_cols else one)


def problem():
    """The base run's start and source factors p, q, drawn from ``SEED``."""
    rng = np.random.default_rng(SEED)
    u0 = sample_state(rng, N, R)
    decay = np.arange(1, N + 1, dtype=float) ** -2.0
    return (u0, *(rng.standard_normal(N) * decay for _ in range(2)))


def run(method, omega, flip_rows=False, flip_cols=False):
    """The base problem, reflected in x (S on U and P) and/or in y (S on V
    and Q); a12 follows from the ``omega`` given."""
    u0, p, q = problem()
    row, col = signs(flip_rows, flip_cols)
    start = LowRankState(row[:, None] * u0.u1_factors, u0.core, col[:, None] * u0.u2_factors)
    source = separable_source(N, [(cosine_profile(1.0, 3.0), row * p, col * q)])
    return integrate(method, start, T, STEPS, rotating_diffusion(1.0, 0.1, omega), source)


def dense(state):
    return to_dense(state) if isinstance(state, LowRankState) else state


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("reflection", REFLECTIONS)
def test_reflected_run_is_the_reflected_base_run_to_the_bit(method, reflection):
    flip_rows, flip_cols = REFLECTIONS[reflection]
    base = run(method, OMEGA)
    mirrored = run(method, -OMEGA if flip_rows != flip_cols else OMEGA, flip_rows, flip_cols)
    row, col = signs(flip_rows, flip_cols)
    assert len(mirrored.states) == len(base.states) == STEPS + 1
    for a, b in zip(base.states, mirrored.states):
        assert np.array_equal(row[:, None] * dense(a) * col, dense(b))
    # repr round-trips a float, so equal reprs are equal bits, NaN included
    assert [repr(d) for d in base.diagnostics] == [repr(d) for d in mirrored.diagnostics]
    assert sum(d.inner_iterations for d in base.diagnostics) > 0


@pytest.mark.parametrize("method", ["reference", "als"])
def test_transposed_run_is_the_transposed_base_run(method):
    u0, p, q = problem()
    model = rotating_diffusion(1.0, 0.1, OMEGA)
    # a11 <-> a22 with a12 kept: reverse both axes of the tensor
    swapped = DiffusionModel(alpha=lambda t: model.alpha(t)[::-1, ::-1].copy(),
                             mu=model.mu, beta=model.beta, lipschitz_t=model.lipschitz_t)
    profile = cosine_profile(1.0, 3.0)
    base = integrate(method, u0, T, STEPS, model, separable_source(N, [(profile, p, q)]))
    transposed = integrate(method, LowRankState(u0.u2_factors, u0.core.T, u0.u1_factors),
                           T, STEPS, swapped, separable_source(N, [(profile, q, p)]))
    assert sum(d.inner_iterations for d in base.diagnostics) > 0
    cap = StepOptions().als_max_sweeps
    assert all(d.sweeps_used < cap for traj in (base, transposed) for d in traj.diagnostics)
    tol = 1e-14 if method == "reference" else 1e3 * _ALS_TOL
    for a, b in zip(base.states, transposed.states):
        a, b = dense(a), dense(b)
        assert np.linalg.norm(a.T - b) <= tol * np.linalg.norm(a)
