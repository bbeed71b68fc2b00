"""The geometry suites batch their trials; batching must change nothing.

Each reference below is the per-trial loop the suites ran before they were
batched: one generator ``default_rng([seed, k])`` per trial, one state at a
time; the curvature loop takes |u - v|_2 from the factors, as the suite
does (``_spectral_distances`` of one pair).  The batched suites must
reproduce its reports exactly (every worst ratio compared with ``==``) for
any chunk size.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest

from lowrankpde import analysis
from lowrankpde.analysis import (_spectral_distances, curvature_suite, equivalence_test,
                                 projection_regularity_suite, sample_nearby_state,
                                 sample_state, tangency_suite)
from lowrankpde.galerkin import (apply_a1, apply_a2, build_operator, h_norm,
                                 rotating_diffusion, v_norm)
from lowrankpde.manifold import singular_values, tangent_project, to_dense

ROTATING = rotating_diffusion(1.0, 0.25, 1.0)


def ratio(observed, bound):
    if bound <= 0.0:
        return 0.0 if observed <= 1e-14 else math.inf
    return observed / bound


def tally(worst, violations, ratios):
    for name, r in ratios.items():
        worst[name] = max(worst[name], r)
        if r > 1.0 + 1e-9:
            violations += 1
    return violations


def loop_curvature(n, rank, trials, seed):
    worst = {"projector_diff_spectral": 0.0, "projector_diff_frobenius": 0.0,
             "normal_component": 0.0}
    violations = 0
    for k in range(trials):
        rng = np.random.default_rng([seed, k])
        u = sample_state(rng, n, rank)
        v = sample_nearby_state(rng, u) if k % 2 == 0 else sample_state(rng, n, rank)
        z = rng.standard_normal((n, n))
        du = to_dense(u) - to_dense(v)
        sig = float(singular_values(u)[-1])
        lhs = h_norm(tangent_project(u, z) - tangent_project(v, z))
        zn = h_norm(z)
        violations = tally(worst, violations, {
            "projector_diff_spectral": ratio(lhs, 2.0 / sig * _spectral_distances(u, v) * zn),
            "projector_diff_frobenius": ratio(lhs, 2.0 / sig * h_norm(du) * zn),
            "normal_component": ratio(h_norm(du - tangent_project(v, du)),
                                      h_norm(du) ** 2 / sig)})
    return violations, worst


def loop_projection(n, rank, trials, seed):
    op = build_operator(n)
    lam = op.stiffness_diag
    mixed_w = np.outer(lam, lam)
    worst = {"projection_v_bound": 0.0, "factor_regularity": 0.0,
             "mixed_seminorm": 0.0, "a2_h_norm": 0.0}
    violations = 0
    for k in range(trials):
        rng = np.random.default_rng([seed, k])
        u = sample_state(rng, n, rank)
        y = to_dense(u)
        z = rng.standard_normal((n, n))
        t = rng.uniform(0.0, 2.0 * math.pi)
        sig = float(singular_values(u)[-1])
        vn = v_norm(y)
        bound = math.sqrt(1.0 + rank * vn ** 2 / sig ** 2) * v_norm(z)
        ratios = {"projection_v_bound": ratio(v_norm(tangent_project(u, z)), bound)}
        w1, svals, w2t = np.linalg.svd(u.core)
        left = u.u1_factors @ w1
        right = u.u2_factors @ w2t.T
        fr = 0.0
        for j in range(rank):
            semi1 = math.sqrt(float(np.sum(lam * left[:, j] ** 2)))
            semi2 = math.sqrt(float(np.sum(lam * right[:, j] ** 2)))
            fr = max(fr, ratio(semi1, vn / svals[j]), ratio(semi2, vn / svals[j]))
        ratios["factor_regularity"] = fr
        ratios["mixed_seminorm"] = ratio(math.sqrt(float(np.sum(mixed_w * y * y))),
                                         rank * vn ** 2 / sig)
        a = ROTATING.alpha(t)
        if abs(a[0, 1]) > 1e-12:
            ratios["a2_h_norm"] = ratio(h_norm(apply_a2(op, a, y)),
                                        2.0 * rank * abs(a[0, 1]) / sig * vn ** 2)
        violations = tally(worst, violations, ratios)
    return violations, worst


def loop_tangency(n, rank, trials, seed):
    op = build_operator(n)
    worst = {"a1_tangency": 0.0, "state_reproduction": 0.0, "a1_projected_pairing": 0.0}
    violations = 0
    for k in range(trials):
        rng = np.random.default_rng([seed, k])
        u = sample_state(rng, n, rank)
        t = rng.uniform(0.0, 1.0)
        y = to_dense(u)
        a1u = apply_a1(op, ROTATING.alpha(t), y)
        defect = h_norm(a1u - tangent_project(u, a1u))
        z = rng.standard_normal((n, n))
        pair_full = float(np.sum(a1u * z))
        pair_proj = float(np.sum(a1u * tangent_project(u, z)))
        violations = tally(worst, violations, {
            "a1_tangency": ratio(defect / max(h_norm(a1u), np.finfo(float).tiny), 1e-10),
            "state_reproduction": ratio(h_norm(tangent_project(u, y) - y)
                                        / max(h_norm(y), 1e-300), 1e-12),
            "a1_projected_pairing": ratio(abs(pair_full - pair_proj)
                                          / max(abs(pair_full), 1e-300), 1e-10)})
    return violations, worst


CASES = {
    "curvature": ((8, 2, 80, 3), curvature_suite, loop_curvature),
    "projection": ((8, 3, 80, 4), projection_regularity_suite, loop_projection),
    "tangency": ((8, 2, 60, 5), tangency_suite, loop_tangency),
    # at N = 16 the worst factor_regularity rounds apart if a seminorm sums a
    # strided row instead of a contiguous one
    "projection-16": ((16, 3, 40, 2), projection_regularity_suite, loop_projection),
}


def set_chunk(monkeypatch, n, trials_per_chunk):
    per_trial = analysis._STACKED_PER_TRIAL * 8 * n * n + analysis._TRIAL_BYTES
    monkeypatch.setattr(analysis, "_CHUNK_BYTES", trials_per_chunk * per_trial)


@pytest.mark.parametrize("chunk", [1, 7, None])
@pytest.mark.parametrize("case", sorted(CASES))
def test_batched_suite_equals_per_trial_loop(monkeypatch, case, chunk):
    (n, rank, trials, seed), suite, loop = CASES[case]
    set_chunk(monkeypatch, n, chunk or trials)
    expected = len(range(0, trials, chunk or trials))
    assert len(list(analysis._chunks(n, rank, trials, seed))) == expected
    rep = suite(n, rank, trials, seed)
    violations, worst = loop(n, rank, trials, seed)
    assert rep.trials == trials and rep.violations == violations
    assert list(rep.worst_ratio) == list(worst)
    for name in worst:
        assert rep.worst_ratio[name] == worst[name], name


def test_sample_state_stack_equals_single_draws():
    rngs = [np.random.default_rng([9, k]) for k in range(4)]
    stack = sample_state(rngs, 7, 3)
    near = sample_nearby_state(rngs, stack)
    for k in range(4):
        rng = np.random.default_rng([9, k])
        one = sample_state(rng, 7, 3)
        one_near = sample_nearby_state(rng, one)
        for name in ("u1_factors", "core", "u2_factors"):
            assert np.array_equal(getattr(stack, name)[k], getattr(one, name))
            assert np.array_equal(getattr(near, name)[k], getattr(one_near, name))


SUITES = {
    "curvature": lambda n, r, t, seed=1: curvature_suite(n, r, t, seed),
    "projection": lambda n, r, t, seed=1: projection_regularity_suite(n, r, t, seed),
    "tangency": lambda n, r, t, seed=1: tangency_suite(n, r, t, seed),
}


@pytest.mark.parametrize("args, name", [((8, 2, 0), "trials"), ((8, 2, -3), "trials"),
                                        ((0, 1, 5), "basis_dim"), ((4, 6, 3), "rank"),
                                        ((4, 0, 3), "rank"), ((8, 2, True), "trials"),
                                        ((8.0, 2, 3), "basis_dim"), ((8, 2.5, 3), "rank"),
                                        ((8, 2, 3, -1), "seed"), ((8, 2, 3, True), "seed"),
                                        ((8, 2, 3, 1.0), "seed")])
@pytest.mark.parametrize("suite", sorted(SUITES))
def test_suites_reject_bad_arguments(suite, args, name):
    with pytest.raises(ValueError, match=f"^{name} must ") as err:
        SUITES[suite](*args)
    if name == "trials" and args[2] is not True:
        assert str(err.value) == f"trials must be >= 1, got {args[2]}"
    if name in ("trials", "seed"):               # the equivalence harness says the same
        trials, seed = (*args, 1)[2:4]          # seed 1 unless given, as in SUITES
        with pytest.raises(ValueError, match=f"^{re.escape(str(err.value))}$"):
            equivalence_test(trials, seed)


@pytest.mark.parametrize("n, trials", [(128, 24), (4, 6000)])
@pytest.mark.parametrize("suite", sorted(SUITES))
def test_suite_peak_stays_under_chunk_budget(suite, n, trials):
    # large N: the stacked N x N arrays fill the budget; small N: the
    # per-trial generators and ratios do
    assert len(list(analysis._chunks(n, 4, trials, 1))) > 1
    tracemalloc.start()
    try:
        SUITES[suite](n, 4, trials)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < analysis._CHUNK_BYTES
