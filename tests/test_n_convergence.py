"""Rank-r trajectories converge as the number of sine modes N grows.

The scheme lives in H^1_0 of the unit square; the truncation to N sine modes
per direction is this package's.  The data are fixed before running and
defined once on M = 64 modes: a rank-4 start U S V^T with Gaussian factor
blocks weighted by n^-2 and S = diag(1, 0.3, 0.1, 0.03), and one cosine
source term with Gaussian n^-2-weighted factors, both truncated to their
first N modes (the start refactored to rank 4).  Each run takes 50 steps to
T = 0.1 under ``rotating_diffusion(1.0, 0.1, 1.0)`` at N = 16, 32 and 64;
its final state, padded with zero rows to M modes, is compared with the
next N's by ``h_distance``.

The differences, relative to the N = 64 state, read 5.27e-4 (16 -> 32) and
1.09e-4 (32 -> 64) for ALS, about 2.3 per doubling, and 5.26e-4 and
1.09e-4 for the reference; three other seeds read 2.2 ... 2.4 (2.4 ... 2.5
on the smooth data of ROADMAP item 26).  Only the fall is gated: the rate
follows from how fast the data's coefficients decay, not from the scheme.
Splitting, not gated until its slower rate with a diagonal tensor at N >=
64 is understood, reads the same 5.27e-4 and 1.09e-4 here.  The reference
runs its mixed term through ``galerkin.apply_a2`` at all three sizes.  The
test takes about 0.4 s on one core.
"""

import numpy as np

from lowrankpde.analysis import energy_audit
from lowrankpde.galerkin import cosine_profile, h_distance, rotating_diffusion, separable_source
from lowrankpde.manifold import LowRankState, factorize
from lowrankpde.stepping import integrate

M, R, T, N_STEPS, SIZES, SEED = 64, 4, 0.1, 50, (16, 32, 64), 26


def padded(state, n: int):
    """The final state of an N = n run as M modes, its higher modes zero."""
    if isinstance(state, LowRankState):
        rows = np.zeros((M - n, R))
        return LowRankState(np.vstack([state.u1_factors, rows]), state.core,
                            np.vstack([state.u2_factors, rows]))
    return np.pad(state, ((0, M - n), (0, M - n)))


def test_als_and_reference_converge_as_n_grows():
    rng = np.random.default_rng(SEED)
    weight = np.arange(1, M + 1, dtype=float) ** -2.0
    left, right = (rng.standard_normal((M, R)) * weight[:, None] for _ in range(2))
    start = left @ np.diag([1.0, 0.3, 0.1, 0.03]) @ right.T
    p, q = rng.standard_normal(M) * weight, rng.standard_normal(M) * weight
    model = rotating_diffusion(1.0, 0.1, 1.0)
    for method in ("als", "reference"):
        finals = []
        for n in SIZES:
            source = separable_source(n, [(cosine_profile(1.0, 3.0), p[:n], q[:n])])
            traj = integrate(method, factorize(start[:n, :n], R), T, N_STEPS, model, source)
            assert energy_audit(traj).violations == [], (method, n)
            finals.append(padded(traj.states[-1], n))
        coarse, fine = (h_distance(a, b) for a, b in zip(finals, finals[1:]))
        assert fine < coarse, (method, coarse, fine)
