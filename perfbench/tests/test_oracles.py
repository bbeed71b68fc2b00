"""The benchmark's own oracles agree with the package's reference stepper."""

import numpy as np
import pytest

import lowrankpde as lr
import oracles
from workloads import cosine_terms, smooth_start

N, STEPS, H = 12, 4, 1e-3


def _inputs(seed):
    rng = np.random.default_rng([seed, 0])
    u, s, v = smooth_start(rng, N, 3)
    terms = cosine_terms(rng, N, 2)
    source = lr.separable_source(N, [(lr.cosine_profile(c, w), p, q)
                                     for c, w, p, q in terms])
    return u @ s @ v.T, terms, source


def _reference(y0, model, source):
    traj = lr.integrate("reference", y0, STEPS * H, STEPS, model, source)
    return traj.states[-1]


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def test_closed_form_matrices_match_the_package():
    op = lr.build_operator(N)
    assert np.array_equal(oracles.stiffness(N), np.diagonal(op.stiffness_1d))
    assert np.allclose(oracles.grad_coupling(N), op.grad_coupling_1d, rtol=1e-15, atol=0)
    model = lr.rotating_diffusion(1.0, 0.25, 1.0)
    assert np.allclose(oracles.rotating_alpha(1.0, 0.25, 1.0, 0.37), model.alpha(0.37),
                       rtol=0, atol=1e-15)


@pytest.mark.parametrize("seed", [0, 1])
def test_diagonal_recursion_matches_reference(seed):
    y0, terms, source = _inputs(seed)
    model = lr.constant_diffusion([[1.0, 0.0], [0.0, 0.1]])
    ours = oracles.diagonal_euler(y0, 1.0, 0.1, terms, H, STEPS)
    assert _rel(ours, _reference(y0, model, source)) < 1e-10


@pytest.mark.parametrize("seed", [0, 1])
def test_rotating_cg_matches_reference(seed):
    y0, terms, source = _inputs(seed)
    model = lr.rotating_diffusion(1.0, 0.25, 1.0)
    ours = oracles.rotating_euler(y0, (1.0, 0.25), 1.0, terms, H, STEPS)
    assert _rel(ours, _reference(y0, model, source)) < 1e-10


def test_rotating_cg_without_source_matches_reference():
    y0, _, _ = _inputs(2)
    model = lr.rotating_diffusion(1.0, 0.1, 1.0)
    ours = oracles.rotating_euler(y0, (1.0, 0.1), 1.0, [], H, STEPS)
    assert _rel(ours, _reference(y0, model, lr.zero_source(N))) < 1e-10
