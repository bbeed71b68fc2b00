"""Spatial discretisation checked against brute-force quadrature oracles.

The basis is phi_n(x) = sqrt(2) sin(n pi x) on (0, 1).  Every matrix entry
and every bilinear-form value asserted here is recomputed through tensor
Gauss-Legendre quadrature of the defining integrals, never through the
closed forms the module uses internally.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

from lowrankpde.galerkin import (DiffusionModel, TimeProfile, apply_a1, apply_a2,
                                 apply_operator, build_operator, constant_diffusion,
                                 constant_profile, cosine_profile,
                                 exact_diagonal_solution, h_norm, linear_profile,
                                 operator_matrix, rhs_mean_factors, rotating_diffusion,
                                 separable_source, v_dual_norm, v_norm, zero_source)
from lowrankpde.manifold import factorize, to_dense

# one-dimensional Gauss nodes on (0, 1); 200 points integrate products of
# the modes used here (n <= 8) essentially exactly
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(200)
_NODES = 0.5 * (_NODES + 1.0)
_WEIGHTS = 0.5 * _WEIGHTS


def phi(n, x):
    return np.sqrt(2.0) * np.sin(n * np.pi * x)


def dphi(n, x):
    return np.sqrt(2.0) * n * np.pi * np.cos(n * np.pi * x)


def quad_1d(f):
    return float(np.sum(_WEIGHTS * f(_NODES)))


def eval_function(coeffs, x, y, deriv=(0, 0)):
    """Evaluate sum_ij Y_ij phi_i(x) phi_j(y) (or a partial derivative) on a
    tensor grid; x, y are 1-d node arrays."""
    n = coeffs.shape[0]
    fx = np.array([dphi(i + 1, x) if deriv[0] else phi(i + 1, x) for i in range(n)])
    fy = np.array([dphi(j + 1, y) if deriv[1] else phi(j + 1, y) for j in range(n)])
    return fx.T @ coeffs @ fy


def quad_2d(values):
    return float(_WEIGHTS @ values @ _WEIGHTS)


def bilinear_oracle(alpha, y, z):
    """integral of (alpha grad u) . grad v over the square by quadrature."""
    ux = eval_function(y, _NODES, _NODES, (1, 0))
    uy = eval_function(y, _NODES, _NODES, (0, 1))
    vx = eval_function(z, _NODES, _NODES, (1, 0))
    vy = eval_function(z, _NODES, _NODES, (0, 1))
    integrand = (alpha[0, 0] * ux * vx + alpha[0, 1] * uy * vx
                 + alpha[1, 0] * ux * vy + alpha[1, 1] * uy * vy)
    return quad_2d(integrand)


def bilinear_a(op, model, t, y, z):
    """Weak form a(y, z; t) = <A(t) y, z>_F through the package's operator."""
    return float(np.sum(apply_operator(op, model, t, y) * z))


def validate_diffusion(model, times):
    """Sampled consistency check of a model's declared bounds: symmetry,
    eigenvalues in [mu, beta] and finite-difference Lipschitz quotients
    against ``lipschitz_t`` on the given time grid."""
    prev_a, prev_t = None, None
    for t in np.asarray(times, dtype=float):
        a = model.alpha(float(t))
        if not np.allclose(a, a.T, atol=1e-13 * max(1.0, np.abs(a).max())):
            raise ValueError(f"alpha({t}) is not symmetric")
        eigs = np.linalg.eigvalsh(a)
        if eigs[0] < model.mu * (1 - 1e-9) or eigs[-1] > model.beta * (1 + 1e-9):
            raise ValueError(f"alpha({t}) eigenvalues {eigs} leave [mu, beta]")
        if prev_a is not None and t != prev_t:
            quot = np.linalg.norm(a - prev_a, 2) / abs(t - prev_t)
            if quot > model.lipschitz_t * (1 + 1e-6) + 1e-12:
                raise ValueError(
                    f"Lipschitz quotient {quot:.6e} exceeds declared {model.lipschitz_t:.6e}")
        prev_a, prev_t = a, t


# ---------------------------------------------------------------------------
# operator matrices


def test_stiffness_matches_quadrature():
    op = build_operator(6)
    for i in range(6):
        for j in range(6):
            oracle = quad_1d(lambda x: dphi(i + 1, x) * dphi(j + 1, x))
            assert op.stiffness_1d[i, j] == pytest.approx(oracle, abs=1e-10)


def test_grad_coupling_matches_quadrature():
    # convention: entry (i, j) pairs the plain mode i with the derivative of
    # mode j
    op = build_operator(6)
    for i in range(6):
        for j in range(6):
            oracle = quad_1d(lambda x: phi(i + 1, x) * dphi(j + 1, x))
            assert op.grad_coupling_1d[i, j] == pytest.approx(oracle, abs=1e-10)


def test_stiffness_diagonal_closed_form():
    op = build_operator(3)
    np.testing.assert_allclose(op.stiffness_1d,
                               np.diag([np.pi ** 2, 4 * np.pi ** 2, 9 * np.pi ** 2]),
                               atol=1e-11)


def test_grad_coupling_skew_and_12_entry():
    op = build_operator(4)
    np.testing.assert_allclose(op.grad_coupling_1d, -op.grad_coupling_1d.T,
                               atol=1e-12)
    assert op.grad_coupling_1d[0, 1] == pytest.approx(-8.0 / 3.0, abs=1e-13)
    # even i+j entries vanish
    assert op.grad_coupling_1d[0, 2] == 0.0
    assert op.grad_coupling_1d[1, 3] == 0.0


def test_stiffness_vector_is_the_dense_diagonal():
    op = build_operator(7)
    assert op.stiffness_diag.shape == (7,)
    assert np.array_equal(op.stiffness_diag, np.diagonal(op.stiffness_1d))


def test_dense_blocks_are_built_once():
    op = build_operator(5)
    for name in ("stiffness_1d", "grad_coupling_1d", "v_weights"):
        assert getattr(op, name) is getattr(op, name), name


def test_grad_coupling_builds_without_full_size_temporaries():
    # G itself is 8 N^2 bytes; building it may add only quarter-size blocks
    n = 1024
    op = build_operator(n)
    tracemalloc.start()
    try:
        op.grad_coupling_1d
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * 8 * n * n, peak


def test_mixed_application_single_mode():
    # off-diagonal coupling applied to the (1,1) mode with unit coefficient:
    # only the (2,2) entry survives at N=2 and equals -64/9
    op = build_operator(2)
    model = constant_diffusion([[1.0, 0.5], [0.5, 1.0]])
    y = np.zeros((2, 2))
    y[0, 0] = 1.0
    out = apply_a2(op, model, 0.0, y)
    expected = np.zeros((2, 2))
    expected[1, 1] = -64.0 / 9.0             # (0.5 + 0.5) * (8/3) * (-8/3)
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_laplacian_eigenmode_actions():
    # identity tensor: the (1,1) mode is an eigenfunction with value 2 pi^2;
    # diag(2,3) on the (2,1) mode gives (2*4 + 3*1) pi^2
    op = build_operator(3)
    e11 = np.zeros((3, 3))
    e11[0, 0] = 1.0
    out = apply_operator(op, constant_diffusion(np.eye(2)), 0.0, e11)
    np.testing.assert_allclose(out, 2.0 * np.pi ** 2 * e11, atol=1e-11)
    assert bilinear_a(op, constant_diffusion(np.eye(2)), 0.0, e11, e11) == \
        pytest.approx(2.0 * np.pi ** 2, rel=1e-13)
    e21 = np.zeros((3, 3))
    e21[1, 0] = 1.0
    out = apply_operator(op, constant_diffusion([[2.0, 0.0], [0.0, 3.0]]), 0.0, e21)
    np.testing.assert_allclose(out, 11.0 * np.pi ** 2 * e21, atol=1e-10)


def test_apply_operator_matches_bilinear_quadrature():
    # <A y, z> must equal the quadrature of the anisotropic Dirichlet form
    rng = np.random.default_rng(21)
    op = build_operator(5)
    alpha = np.array([[0.9, 0.3], [0.3, 0.7]])
    model = constant_diffusion(alpha)
    for _ in range(4):
        y = rng.standard_normal((5, 5))
        z = rng.standard_normal((5, 5))
        lhs = float(np.sum(apply_operator(op, model, 0.0, y) * z))
        assert lhs == pytest.approx(bilinear_oracle(alpha, y, z), rel=1e-10)
        assert bilinear_a(op, model, 0.0, y, z) == pytest.approx(
            bilinear_oracle(alpha, y, z), rel=1e-10)


def test_apply_split_consistency():
    rng = np.random.default_rng(22)
    op = build_operator(6)
    model = constant_diffusion([[0.8, 0.2], [0.2, 0.5]])
    y = rng.standard_normal((6, 6))
    total = apply_a1(op, model, 0.0, y) + apply_a2(op, model, 0.0, y)
    np.testing.assert_allclose(apply_operator(op, model, 0.0, y), total, atol=1e-12)


def test_operator_matrix_matches_columnwise_application():
    op = build_operator(4)
    model = constant_diffusion([[1.1, -0.4], [-0.4, 0.9]])
    mat = operator_matrix(op, model, 0.0)
    assert mat.shape == (16, 16)
    for p in range(4):
        for q in range(4):
            e = np.zeros((4, 4))
            e[p, q] = 1.0
            col = apply_operator(op, model, 0.0, e).reshape(-1, order="F")
            np.testing.assert_allclose(mat[:, p + 4 * q], col, atol=1e-11)
    np.testing.assert_allclose(mat, mat.T, atol=1e-10)


def test_operator_matrix_positive_definite():
    op = build_operator(5)
    model = constant_diffusion([[1.0, 0.45], [0.45, 0.6]])
    w = np.linalg.eigvalsh(operator_matrix(op, model, 0.0))
    assert w.min() > 0


# ---------------------------------------------------------------------------
# norms


def test_h_norm_is_l2_norm():
    rng = np.random.default_rng(23)
    y = rng.standard_normal((5, 5))
    values = eval_function(y, _NODES, _NODES)
    assert h_norm(y) ** 2 == pytest.approx(quad_2d(values ** 2), rel=1e-10)


def test_v_norm_is_gradient_l2():
    rng = np.random.default_rng(24)
    op = build_operator(5)
    y = rng.standard_normal((5, 5))
    gx = eval_function(y, _NODES, _NODES, (1, 0))
    gy = eval_function(y, _NODES, _NODES, (0, 1))
    assert v_norm(op, y) ** 2 == pytest.approx(quad_2d(gx ** 2 + gy ** 2), rel=1e-10)


def test_norms_of_lowest_mode():
    op = build_operator(4)
    e11 = np.zeros((4, 4))
    e11[0, 0] = 1.0
    assert h_norm(e11) == 1.0
    assert v_norm(op, e11) == pytest.approx(np.pi * np.sqrt(2.0), rel=1e-13)
    assert v_dual_norm(op, e11) == pytest.approx(1.0 / (np.pi * np.sqrt(2.0)),
                                                 rel=1e-13)


def test_dual_norm_pairing_bound_and_attainment():
    rng = np.random.default_rng(25)
    op = build_operator(6)
    f = rng.standard_normal((6, 6))
    y = rng.standard_normal((6, 6))
    pairing = float(np.sum(f * y))
    assert abs(pairing) <= v_dual_norm(op, f) * v_norm(op, y) * (1 + 1e-12)
    # the bound is attained at the weighted mirror of f
    ystar = f / op.v_weights
    attained = float(np.sum(f * ystar)) / v_norm(op, ystar)
    assert attained == pytest.approx(v_dual_norm(op, f), rel=1e-12)


def test_coercivity_and_boundedness_constants():
    rng = np.random.default_rng(26)
    op = build_operator(6)
    alpha = np.array([[1.0, 0.4], [0.4, 0.5]])
    model = constant_diffusion(alpha)
    lo, hi = np.linalg.eigvalsh(alpha)
    assert model.mu == pytest.approx(lo)
    assert model.beta == pytest.approx(hi)
    for _ in range(100):
        y = rng.standard_normal((6, 6))
        energy = bilinear_a(op, model, 0.0, y, y)
        vv = v_norm(op, y) ** 2
        assert model.mu * vv <= energy * (1 + 1e-10) + 1e-12
        assert energy <= model.beta * vv * (1 + 1e-10) + 1e-12


# ---------------------------------------------------------------------------
# diffusion models


def test_constant_diffusion_validation():
    with pytest.raises(ValueError, match="not positive definite"):
        constant_diffusion([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(ValueError):
        constant_diffusion([[1.0, 0.1], [0.2, 1.0]])   # asymmetric
    model = constant_diffusion([[2.0, 0.0], [0.0, 3.0]])
    assert model.diagonal and not model.time_dependent
    assert model.lipschitz_t == 0.0


@pytest.mark.parametrize("build, args, message", [
    (constant_diffusion, ([[math.inf, 0.0], [0.0, 1.0]],), "matrix must have finite entries"),
    (constant_diffusion, ([[1.0, math.nan], [math.nan, 1.0]],),
     "matrix must have finite entries"),
    (constant_diffusion, ([[1e308, 1e308], [1e308, 1e308]],),
     "matrix must have finite entries and eigenvalues"),
    (rotating_diffusion, (math.nan, 1.0, 0.0), "lambda1 must be finite"),
    (rotating_diffusion, (1.0, math.inf, 0.0), "lambda2 must be finite"),
    (rotating_diffusion, (1.0, 0.5, math.nan), "omega must be finite"),
    (rotating_diffusion, (1.0, 0.5, math.inf), "omega must be finite"),
], ids=["inf-entry", "nan-entries", "inf-eigenvalue", "nan-lambda1", "inf-lambda2",
        "nan-omega", "inf-omega"])
def test_diffusion_models_reject_non_finite_input(build, args, message):
    # a NaN tensor would otherwise pass the definiteness test and surface
    # only as a failed inner solve at step 1
    with pytest.raises(ValueError, match=message):
        build(*args)


def test_rotating_diffusion_spectrum_and_lipschitz():
    model = rotating_diffusion(1.0, 0.25, 2.0)
    times = np.linspace(0.0, 3.0, 40)
    for t in times:
        a = model.alpha(t)
        np.testing.assert_allclose(a, a.T, atol=1e-14)
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(a)), [0.25, 1.0],
                                   atol=1e-12)
    assert model.mu == pytest.approx(0.25)
    assert model.beta == pytest.approx(1.0)
    assert model.lipschitz_t == pytest.approx(2.0 * 0.75)
    # the declared constant really dominates the difference quotients
    quotients = [np.linalg.norm(model.alpha(s) - model.alpha(t), 2) / abs(s - t)
                 for s, t in zip(times[:-1], times[1:])]
    assert max(quotients) <= model.lipschitz_t * (1 + 1e-8)
    validate_diffusion(model, times)


def test_rotating_diffusion_zero_omega_is_steady():
    model = rotating_diffusion(0.7, 0.7, 5.0)
    assert not model.time_dependent
    model2 = rotating_diffusion(1.0, 0.5, 0.0)
    assert not model2.time_dependent


def test_validate_diffusion_catches_bad_lipschitz():
    base = rotating_diffusion(1.0, 0.25, 2.0)
    lying = DiffusionModel(alpha=base.alpha, mu=base.mu, beta=base.beta,
                           lipschitz_t=base.lipschitz_t / 10.0,
                           time_dependent=True, diagonal=False)
    with pytest.raises(ValueError):
        validate_diffusion(lying, np.linspace(0.0, 2.0, 30))


# ---------------------------------------------------------------------------
# time profiles and sources


@pytest.mark.parametrize("profile,fn", [
    (constant_profile(1.3), lambda t: 1.3 + 0.0 * t),
    (linear_profile(0.8), lambda t: 0.8 * t),
    (cosine_profile(2.0, 3.5), lambda t: 2.0 * np.cos(3.5 * t)),
])
def test_profile_means_match_quadrature(profile, fn):
    for (a, b) in [(0.0, 0.1), (0.3, 0.9), (1.0, 1.001)]:
        oracle = quad(fn, a, b)[0] / (b - a)
        assert profile.mean(a, b) == pytest.approx(oracle, rel=1e-9, abs=1e-12)
        assert profile.value(0.37) == pytest.approx(fn(0.37), rel=1e-12)


def test_source_value_and_mean():
    n = 4
    p = np.array([1.0, 0.0, 2.0, 0.0])
    q = np.array([0.0, 1.0, 0.0, 0.0])
    src = separable_source(n, [(cosine_profile(1.5, 2.0), p, q)])
    t = 0.25
    profile, p_term, q_term = src.terms[0]
    np.testing.assert_allclose(profile.value(t) * np.outer(p_term, q_term),
                               1.5 * np.cos(2.0 * t) * np.outer(p, q), atol=1e-13)
    a, b = 0.1, 0.4
    oracle = quad(lambda s: 1.5 * np.cos(2.0 * s), a, b)[0] / (b - a)
    p_mat, q_mat = rhs_mean_factors(src, a, b)
    np.testing.assert_allclose(p_mat @ q_mat.T, oracle * np.outer(p, q), atol=1e-12)


def test_rhs_mean_factors_reproduce_the_interval_mean():
    rng = np.random.default_rng(3)
    n = 6
    profiles = [constant_profile(1.3), linear_profile(0.8), cosine_profile(2.0, 3.5)]
    vectors = [(rng.standard_normal(n), rng.standard_normal(n)) for _ in profiles]
    src = separable_source(n, [(pr, p, q) for pr, (p, q) in zip(profiles, vectors)])
    a, b = 0.3, 0.9
    p_mat, q_mat = rhs_mean_factors(src, a, b)
    assert p_mat.shape == q_mat.shape == (n, 3)
    oracle = sum(quad(lambda t: pr.value(t), a, b)[0] / (b - a) * np.outer(p, q)
                 for pr, (p, q) in zip(profiles, vectors))
    np.testing.assert_allclose(p_mat @ q_mat.T, oracle, rtol=0, atol=1e-12)


def test_zero_source():
    src = zero_source(5)
    assert src.terms == ()
    p_mat, q_mat = rhs_mean_factors(src, 0.0, 1.0)
    assert p_mat.shape == q_mat.shape == (5, 0)
    np.testing.assert_array_equal(p_mat @ q_mat.T, np.zeros((5, 5)))


def test_time_profile_rejects_unknown_kind():
    # caught where the profile is built, not at the first step that reads it
    with pytest.raises(ValueError, match="unknown time profile 'quadratic'; "
                                         "expected 'constant', 'linear' or 'cosine'"):
        TimeProfile("quadratic", 1.0)


def test_separable_source_shape_validation():
    with pytest.raises(ValueError):
        separable_source(4, [(constant_profile(1.0), np.ones(3), np.ones(4))])


# ---------------------------------------------------------------------------
# closed-form heat flow


def test_exact_diagonal_solution_matches_expm():
    rng = np.random.default_rng(27)
    n = 5
    op = build_operator(n)
    model = constant_diffusion([[0.03, 0.0], [0.0, 0.08]])
    u0 = factorize(rng.standard_normal((n, n)), n)
    t = 0.7
    flow = expm(-t * operator_matrix(op, model, 0.0))
    oracle = (flow @ to_dense(u0).reshape(-1, order="F")).reshape((n, n), order="F")
    np.testing.assert_allclose(to_dense(exact_diagonal_solution(op, model, u0, t)),
                               oracle, atol=1e-12)


def test_exact_diagonal_solution_mode_decay_rates():
    op = build_operator(4)
    model = constant_diffusion(np.eye(2))
    t = 0.03
    # single lowest mode decays at rate 2 pi^2
    e11 = np.zeros((4, 4))
    e11[0, 0] = 1.0
    u0 = factorize(e11, 1)
    np.testing.assert_allclose(to_dense(exact_diagonal_solution(op, model, u0, t)),
                               np.exp(-2.0 * np.pi ** 2 * t) * e11, atol=1e-14)
    # two diagonal modes decay at 2 pi^2 and 8 pi^2
    two = np.zeros((4, 4))
    two[0, 0] = 1.0
    two[1, 1] = 1.0
    u0 = factorize(two, 2)
    expected = np.zeros((4, 4))
    expected[0, 0] = np.exp(-2.0 * np.pi ** 2 * t)
    expected[1, 1] = np.exp(-8.0 * np.pi ** 2 * t)
    np.testing.assert_allclose(to_dense(exact_diagonal_solution(op, model, u0, t)),
                               expected, atol=1e-14)


def test_exact_diagonal_solution_rejects_coupled_tensor():
    op = build_operator(4)
    model = constant_diffusion([[1.0, 0.2], [0.2, 1.0]])
    u0 = factorize(np.eye(4), 2)
    with pytest.raises(ValueError):
        exact_diagonal_solution(op, model, u0, 0.1)
