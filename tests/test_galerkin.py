"""Spatial discretisation checked against brute-force quadrature oracles.

The basis is phi_n(x) = sqrt(2) sin(n pi x) on (0, 1).  Every matrix entry
and every bilinear-form value asserted here is recomputed through tensor
Gauss-Legendre quadrature of the defining integrals, never through the
closed forms the module uses internally.
"""

import ast
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

import lowrankpde
from dense_oracles import operator_matrix, profile_value, v_dual_norm
from lowrankpde.galerkin import (DiffusionModel, TimeProfile, apply_a1, apply_a2,
                                 apply_operator, build_operator, constant_diffusion,
                                 cosine_profile, exact_diagonal_solution, h_distance, h_norm,
                                 rhs_mean_factors, rotating_diffusion, separable_source,
                                 v_norm, zero_source)
from lowrankpde.manifold import LowRankState, factorize, qr_nonneg, to_dense

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
    return float(np.sum(apply_operator(op, model.alpha(t), y) * z))


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
    for name in ("stiffness_1d", "grad_coupling_1d"):
        assert getattr(op, name) is getattr(op, name), name


def _attribute_reads(node, attr: str, scope: str):
    """(scope, line) of each ``.attr`` or ``"attr"`` under ``node``, the scope
    being the dotted names of the enclosing classes and functions."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = f"{scope}.{child.name}"
        if (isinstance(child, ast.Attribute) and child.attr == attr
                or isinstance(child, ast.Constant) and child.value == attr):
            yield inner, child.lineno
        yield from _attribute_reads(child, attr, inner)


def test_grad_coupling_has_one_reader():
    # every product with G goes through galerkin._apply_g, so how G is
    # stored (dense today) is that one function's business
    readers = [read for path in sorted(Path(lowrankpde.__file__).parent.glob("*.py"))
               for read in _attribute_reads(ast.parse(path.read_text()), "grad_coupling_1d",
                                            path.stem)]
    assert [scope for scope, _ in readers] == ["galerkin._apply_g"], readers


def test_build_operator_rejects_non_integral_sizes():
    for size in (True, 2.5, 0, -3):
        with pytest.raises(ValueError, match="basis_dim"):
            build_operator(size)
    op = build_operator(np.int64(4))
    assert op.basis_dim == 4 and op.stiffness_diag.shape == (4,)


def test_sources_reject_a_bad_basis_dim():
    # the check build_operator makes, with a message that names the argument
    for size in (0, -1, True, 2.5):
        with pytest.raises(ValueError, match="^basis_dim must be"):
            zero_source(size)
        with pytest.raises(ValueError, match="^basis_dim must be"):
            separable_source(size, [(TimeProfile("constant", 1.0), [1.0], [1.0])])
    assert zero_source(np.int64(3)).basis_dim == 3


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
    out = apply_a2(op, model.alpha(0.0), y)
    expected = np.zeros((2, 2))
    expected[1, 1] = -64.0 / 9.0             # (0.5 + 0.5) * (8/3) * (-8/3)
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_laplacian_eigenmode_actions():
    # identity tensor: the (1,1) mode is an eigenfunction with value 2 pi^2;
    # diag(2,3) on the (2,1) mode gives (2*4 + 3*1) pi^2
    op = build_operator(3)
    e11 = np.zeros((3, 3))
    e11[0, 0] = 1.0
    out = apply_operator(op, constant_diffusion(np.eye(2)).alpha(0.0), e11)
    np.testing.assert_allclose(out, 2.0 * np.pi ** 2 * e11, atol=1e-11)
    assert bilinear_a(op, constant_diffusion(np.eye(2)), 0.0, e11, e11) == \
        pytest.approx(2.0 * np.pi ** 2, rel=1e-13)
    e21 = np.zeros((3, 3))
    e21[1, 0] = 1.0
    out = apply_operator(op, constant_diffusion([[2.0, 0.0], [0.0, 3.0]]).alpha(0.0), e21)
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
        lhs = float(np.sum(apply_operator(op, model.alpha(0.0), y) * z))
        assert lhs == pytest.approx(bilinear_oracle(alpha, y, z), rel=1e-10)
        assert bilinear_a(op, model, 0.0, y, z) == pytest.approx(
            bilinear_oracle(alpha, y, z), rel=1e-10)


def test_apply_split_consistency():
    rng = np.random.default_rng(22)
    op = build_operator(6)
    model = constant_diffusion([[0.8, 0.2], [0.2, 0.5]])
    y = rng.standard_normal((6, 6))
    total = apply_a1(op, model.alpha(0.0), y) + apply_a2(op, model.alpha(0.0), y)
    np.testing.assert_allclose(apply_operator(op, model.alpha(0.0), y), total, atol=1e-12)


def test_stacked_tensors_act_slice_by_slice():
    # a (K, 2, 2) stack of evaluated tensors acts on a (K, N, N) stack,
    # tensor k on matrix k, to the last bit of the one-matrix apply
    rng = np.random.default_rng(23)
    op = build_operator(5)
    model = rotating_diffusion(1.0, 0.25, 1.0)
    a = np.array([model.alpha(t) for t in (0.2, 0.4, 1.3)])
    y = rng.standard_normal((3, 5, 5))
    for apply in (apply_a1, apply_a2, apply_operator):
        stacked = apply(op, a, y)
        for k in range(3):
            assert np.array_equal(stacked[k], apply(op, a[k], y[k])), apply.__name__


def test_operator_matrix_matches_columnwise_application():
    op = build_operator(4)
    model = constant_diffusion([[1.1, -0.4], [-0.4, 0.9]])
    mat = operator_matrix(op, model.alpha(0.0))
    assert mat.shape == (16, 16)
    for p in range(4):
        for q in range(4):
            e = np.zeros((4, 4))
            e[p, q] = 1.0
            col = apply_operator(op, model.alpha(0.0), e).reshape(-1, order="F")
            np.testing.assert_allclose(mat[:, p + 4 * q], col, atol=1e-11)
    np.testing.assert_allclose(mat, mat.T, atol=1e-10)


def test_operator_matrix_positive_definite():
    op = build_operator(5)
    model = constant_diffusion([[1.0, 0.45], [0.45, 0.6]])
    w = np.linalg.eigvalsh(operator_matrix(op, model.alpha(0.0)))
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
    y = rng.standard_normal((5, 5))
    gx = eval_function(y, _NODES, _NODES, (1, 0))
    gy = eval_function(y, _NODES, _NODES, (0, 1))
    assert v_norm(y) ** 2 == pytest.approx(quad_2d(gx ** 2 + gy ** 2), rel=1e-10)


def test_norms_of_lowest_mode():
    e11 = np.zeros((4, 4))
    e11[0, 0] = 1.0
    assert h_norm(e11) == 1.0
    assert v_norm(e11) == pytest.approx(np.pi * np.sqrt(2.0), rel=1e-13)
    assert v_dual_norm(e11) == pytest.approx(1.0 / (np.pi * np.sqrt(2.0)), rel=1e-13)


def random_state(rng, n, r):
    """Orthonormal factors and a general, non-diagonal core."""
    u, _ = np.linalg.qr(rng.standard_normal((n, r)))
    v, _ = np.linalg.qr(rng.standard_normal((n, r)))
    return LowRankState(u, rng.standard_normal((r, r)), v)


@pytest.mark.parametrize("n, r", [(6, 2), (5, 3), (4, 4), (9, 1), (40, 8)])
def test_factored_norms_match_dense(n, r):
    # 2r > N for (5, 3) and (4, 4): the two factor blocks cannot be orthogonal
    rng = np.random.default_rng([27, n, r])
    a, b = random_state(rng, n, r), random_state(rng, n, max(1, r - 1))
    ya, yb = to_dense(a), to_dense(b)
    assert h_norm(a) == pytest.approx(np.linalg.norm(ya), rel=1e-14)
    assert v_norm(a) == pytest.approx(v_norm(ya), rel=1e-14)
    assert h_distance(a, b) == pytest.approx(np.linalg.norm(ya - yb), rel=1e-13)
    # a dense operand on either side is densified and subtracted
    assert h_distance(a, yb) == pytest.approx(np.linalg.norm(ya - yb), rel=1e-14)
    assert h_distance(ya, b) == pytest.approx(np.linalg.norm(ya - yb), rel=1e-14)
    assert h_distance(ya, yb) == np.linalg.norm(ya - yb)


def test_factored_distance_of_identical_and_neighbouring_states():
    # no cancellation beyond roundoff of |A|: identical states are 0 apart,
    # and a 1e-3 relative perturbation of every factor is measured to 1e-13 |A|
    rng = np.random.default_rng(28)
    for n, r in ((12, 3), (6, 4), (64, 8)):
        a = random_state(rng, n, r)
        norm = np.linalg.norm(to_dense(a))
        assert h_distance(a, a) <= 1e-13 * norm
        same = LowRankState(a.u1_factors.copy(), a.core.copy(), a.u2_factors.copy())
        assert h_distance(same, a) <= 1e-13 * norm
        # blocks of Frobenius norm about 1e-3 (factors) and 1e-3 |A| (core);
        # the sign-fixed QR keeps each perturbed factor next to the original
        eps = 1e-3 / math.sqrt(n * r)
        u, _ = qr_nonneg(a.u1_factors + eps * rng.standard_normal((n, r)))
        v, _ = qr_nonneg(a.u2_factors + eps * rng.standard_normal((n, r)))
        b = LowRankState(u, a.core + 1e-3 * norm / r * rng.standard_normal((r, r)), v)
        dense_gap = np.linalg.norm(to_dense(a) - to_dense(b))
        assert 1e-4 * norm < dense_gap < 1e-2 * norm
        assert abs(h_distance(a, b) - dense_gap) <= 1e-13 * norm
        assert abs(h_distance(b, a) - dense_gap) <= 1e-13 * norm


def test_factored_v_norm_of_a_stack():
    rng = np.random.default_rng(29)
    states = [random_state(rng, 7, 3) for _ in range(4)]
    stack = LowRankState(*(np.array([getattr(s, name) for s in states])
                           for name in ("u1_factors", "core", "u2_factors")))
    np.testing.assert_allclose(v_norm(stack), [v_norm(to_dense(s)) for s in states],
                               rtol=1e-14)


def test_factored_h_norm_and_distance_of_a_stack():
    # h_norm gives one value per state, as a loop over the states gives; a
    # single state stays a float.  h_distance compares two states only: a
    # stack on either side, factored or dense, raises
    rng = np.random.default_rng(30)

    def stacked(states):
        return LowRankState(*(np.array([getattr(s, name) for s in states])
                              for name in ("u1_factors", "core", "u2_factors")))

    a_states = [random_state(rng, 6, 2) for _ in range(3)]
    b_states = [random_state(rng, 6, 2) for _ in range(3)]
    a, b = stacked(a_states), stacked(b_states)
    assert np.shape(h_norm(a)) == (3,)
    np.testing.assert_allclose(h_norm(a), [h_norm(s) for s in a_states], rtol=1e-15)
    np.testing.assert_allclose(h_norm(to_dense(a)), [h_norm(to_dense(s)) for s in a_states],
                               rtol=1e-14)
    assert isinstance(h_norm(a_states[0]), float)
    assert isinstance(h_distance(a_states[0], b_states[0]), float)
    for pair in ((a, b), (a, b_states[0]), (a_states[0], b), (a, to_dense(b)),
                 (to_dense(a), to_dense(b_states[0]))):
        with pytest.raises(ValueError, match="not stacks"):
            h_distance(*pair)


def test_dual_norm_pairing_bound_and_attainment():
    rng = np.random.default_rng(25)
    op = build_operator(6)
    f = rng.standard_normal((6, 6))
    y = rng.standard_normal((6, 6))
    pairing = float(np.sum(f * y))
    assert abs(pairing) <= v_dual_norm(f) * v_norm(y) * (1 + 1e-12)
    # the bound is attained at the weighted mirror of f
    lam = op.stiffness_diag
    ystar = f / (lam[:, None] + lam[None, :])
    attained = float(np.sum(f * ystar)) / v_norm(ystar)
    assert attained == pytest.approx(v_dual_norm(f), rel=1e-12)


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
        vv = v_norm(y) ** 2
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
    assert model.constant_diagonal
    assert model.lipschitz_t == 0.0


@pytest.mark.parametrize("model", [
    constant_diffusion([[2.0, 1e-15], [1e-15, 3.0]]),
    rotating_diffusion(1.0, 0.5, 2.0),
    DiffusionModel(alpha=lambda t: np.diag([1.0, 1.0 + t]), mu=1.0, beta=2.0, lipschitz_t=1.0),
], ids=["tiny-a12", "rotation", "time-dependent-diagonal"])
def test_constant_diagonal_is_the_steppers_test(model):
    # a mixed term the steppers would see, however small, or a tensor that
    # may change in time: the closed form does not apply
    assert model.constant_diagonal is False
    with pytest.raises(ValueError, match="constant diagonal"):
        exact_diagonal_solution(model, LowRankState(
            np.eye(4, 1), np.eye(1), np.eye(4, 1)), 0.1)


def test_constant_diagonal_reads_the_mixed_coefficient():
    # an antisymmetric off-diagonal pair passes the symmetry check and has a
    # mixed coefficient a12 + a21 of exactly zero: the steppers run it with
    # no CG iteration and the states of diag(2, 3), bit for bit, so the
    # closed form applies
    from lowrankpde.stepping import integrate

    skew = constant_diffusion([[2.0, 5e-15], [-5e-15, 3.0]])
    diagonal = constant_diffusion([[2.0, 0.0], [0.0, 3.0]])
    assert skew.constant_diagonal is True
    u0 = factorize(np.random.default_rng(7).standard_normal((6, 6)), 2)
    for method in ("als", "splitting", "reference"):
        runs = [integrate(method, u0, 0.05, 4, model, zero_source(6))
                for model in (skew, diagonal)]
        assert all(d.inner_iterations == 0 for d in runs[0].diagnostics), method
        for a, b in zip(runs[0].states, runs[1].states):     # reference: dense arrays
            assert np.array_equal(*(y if isinstance(y, np.ndarray) else to_dense(y)
                                    for y in (a, b))), method
    expected = exact_diagonal_solution(diagonal, u0, 0.05)
    assert np.array_equal(to_dense(exact_diagonal_solution(skew, u0, 0.05)), to_dense(expected))


_ONE_MODE = LowRankState(np.eye(4, 1), np.eye(1), np.eye(4, 1))
_BAD_INTERVAL = "^interval must have finite ends and positive length, got "


@pytest.mark.parametrize("build, args, message", [
    (constant_diffusion, ([[math.inf, 0.0], [0.0, 1.0]],), "matrix must have finite entries"),
    (constant_diffusion, ([[1.0, math.nan], [math.nan, 1.0]],),
     "matrix must have finite entries"),
    (constant_diffusion, ([[1e308, 1e308], [1e308, 1e308]],),
     "matrix must have finite entries and eigenvalues"),
    (constant_diffusion, ([[math.nan, 0.0], [0.0, 1.0]],), "matrix must have finite entries"),
    (constant_diffusion, ([[1.0, math.inf], [math.inf, 1.0]],),
     "matrix must have finite entries"),
    (rotating_diffusion, (math.nan, 1.0, 0.0), "lambda1 must be finite"),
    (rotating_diffusion, (1.0, math.inf, 0.0), "lambda2 must be finite"),
    (rotating_diffusion, (1.0, 0.5, math.nan), "omega must be finite"),
    (rotating_diffusion, (1.0, 0.5, math.inf), "omega must be finite"),
    (cosine_profile, (math.nan, 1.0), "scale must be finite"),
    (cosine_profile, (1.0, math.inf), "omega must be finite"),
    (TimeProfile, ("linear", math.inf), "scale must be finite"),
    (separable_source, (3, [(TimeProfile("constant", 1.0), [1.0, math.nan, 0.0],
                             np.ones(3))]),
     "source factor p of term 0 must be finite"),
    (separable_source, (3, [(TimeProfile("constant", 1.0), np.ones(3), np.ones(3)),
                            (TimeProfile("constant", 1.0), np.ones(3), [0.0, 0.0, -math.inf])]),
     "source factor q of term 1 must be finite"),
    (separable_source, (3, [(TimeProfile("constant", 1.0), np.ones(3), np.ones(3)),
                            (TimeProfile("constant", 1.0), [1e200, 0.0, 0.0], [1e200, 0.0, 0.0])]),
     r"source term 1 overflows: \|p\| \|q\| is not finite"),
    (exact_diagonal_solution, (constant_diffusion(np.eye(2)), _ONE_MODE, math.nan),
     "^t must be finite and >= 0, got nan$"),
    (exact_diagonal_solution, (constant_diffusion(np.eye(2)), _ONE_MODE, -1.0),
     "^t must be finite and >= 0, got -1.0$"),
    (TimeProfile("linear", 1.0).mean, (0.0, math.nan), _BAD_INTERVAL + r"\(0.0, nan\)"),
    (cosine_profile(1.0, 2.0).mean, (0.0, math.nan), _BAD_INTERVAL + r"\(0.0, nan\)"),
    (cosine_profile(1.0, 2.0).mean, (0.0, math.inf), _BAD_INTERVAL + r"\(0.0, inf\)"),
    (rhs_mean_factors, (zero_source(4), 1.0, 0.5), _BAD_INTERVAL + r"\(1.0, 0.5\)"),
], ids=["inf-entry", "nan-entries", "inf-eigenvalue", "nan-diagonal", "inf-off-diagonal",
        "nan-lambda1", "inf-lambda2", "nan-omega", "inf-omega", "nan-profile-scale",
        "inf-profile-omega", "inf-linear-scale", "nan-source-p", "inf-source-q",
        "overflowing-source-term", "nan-closed-form-time", "negative-closed-form-time",
        "nan-linear-mean-end", "nan-cosine-mean-end", "inf-cosine-mean-end",
        "reversed-interval-without-terms"])
def test_diffusion_models_reject_non_finite_input(build, args, message):
    # a NaN tensor would otherwise pass the definiteness test and surface
    # only as a failed inner solve at step 1; a NaN source factor or profile
    # the same way, or as a failed SVD; a term with finite factors whose
    # product overflows as a rank collapse or an infinite CG residual.  A
    # bad time would give a NaN state, or at t = -1 one grown by
    # exp((n pi)^2), and a bad interval a NaN mean, a bare "math domain
    # error" or, for a source without terms, empty factors.  The named
    # error comes first, with no RuntimeWarning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            build(*args)


@pytest.mark.parametrize("profile", [2.0, "constant", None])
def test_separable_source_rejects_a_profile_that_is_not_a_time_profile(profile):
    # it would otherwise fail only at step 1, when the step takes its mean
    terms = [(TimeProfile("constant", 1.0), np.ones(3), np.ones(3)),
             (profile, np.ones(3), np.ones(3))]
    with pytest.raises(TypeError, match="source profile of term 1 must be a TimeProfile, got "
                                        + type(profile).__name__):
        separable_source(3, terms)


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
    assert model.lipschitz_t == 0.0 and model.constant_diagonal
    model2 = rotating_diffusion(1.0, 0.5, 0.0)
    assert model2.lipschitz_t == 0.0 and model2.constant_diagonal


def test_validate_diffusion_catches_bad_lipschitz():
    base = rotating_diffusion(1.0, 0.25, 2.0)
    lying = DiffusionModel(alpha=base.alpha, mu=base.mu, beta=base.beta,
                           lipschitz_t=base.lipschitz_t / 10.0)
    with pytest.raises(ValueError):
        validate_diffusion(lying, np.linspace(0.0, 2.0, 30))


# ---------------------------------------------------------------------------
# time profiles and sources


@pytest.mark.parametrize("profile,fn", [
    (TimeProfile("constant", 1.3), lambda t: 1.3 + 0.0 * t),
    (TimeProfile("linear", 0.8), lambda t: 0.8 * t),
    (cosine_profile(2.0, 3.5), lambda t: 2.0 * np.cos(3.5 * t)),
])
def test_profile_means_match_quadrature(profile, fn):
    for (a, b) in [(0.0, 0.1), (0.3, 0.9), (1.0, 1.001)]:
        oracle = quad(fn, a, b)[0] / (b - a)
        assert profile.mean(a, b) == pytest.approx(oracle, rel=1e-9, abs=1e-12)
        assert profile_value(profile, 0.37) == pytest.approx(fn(0.37), rel=1e-12)


@pytest.mark.parametrize("omega,a,h", [(1.0, 1.0, 1e-9), (10.0, 3.0, 1e-7), (1e-300, 0.0, 1e-30)])
def test_cosine_mean_keeps_its_accuracy_on_short_intervals(omega, a, h):
    # against the Taylor form c cos(omega m) (1 - x^2/6 + x^4/120) of the mean,
    # x = omega h / 2: the difference of sines loses about eps / (omega h) on
    # the first two intervals, and on the last omega h underflows to 0
    b = a + h
    x = 0.5 * omega * (b - a)
    taylor = 1.5 * math.cos(0.5 * omega * (a + b)) * (1.0 - x * x / 6.0 + x ** 4 / 120.0)
    assert cosine_profile(1.5, omega).mean(a, b) == pytest.approx(taylor, rel=1e-14, abs=0.0)


def test_source_value_and_mean():
    n = 4
    p = np.array([1.0, 0.0, 2.0, 0.0])
    q = np.array([0.0, 1.0, 0.0, 0.0])
    src = separable_source(n, [(cosine_profile(1.5, 2.0), p, q)])
    t = 0.25
    (profile,), (p_term,), (q_term,) = src.profiles, src.p, src.q
    np.testing.assert_allclose(profile_value(profile, t) * np.outer(p_term, q_term),
                               1.5 * np.cos(2.0 * t) * np.outer(p, q), atol=1e-13)
    a, b = 0.1, 0.4
    oracle = quad(lambda s: 1.5 * np.cos(2.0 * s), a, b)[0] / (b - a)
    p_mat, q_mat = rhs_mean_factors(src, a, b)
    np.testing.assert_allclose(p_mat @ q_mat.T, oracle * np.outer(p, q), atol=1e-12)


def test_rhs_mean_factors_reproduce_the_interval_mean():
    rng = np.random.default_rng(3)
    n = 6
    profiles = [TimeProfile("constant", 1.3), TimeProfile("linear", 0.8),
                cosine_profile(2.0, 3.5)]
    vectors = [(rng.standard_normal(n), rng.standard_normal(n)) for _ in profiles]
    src = separable_source(n, [(pr, p, q) for pr, (p, q) in zip(profiles, vectors)])
    a, b = 0.3, 0.9
    p_mat, q_mat = rhs_mean_factors(src, a, b)
    assert p_mat.shape == q_mat.shape == (n, 3)
    oracle = sum(quad(lambda t: profile_value(pr, t), a, b)[0] / (b - a) * np.outer(p, q)
                 for pr, (p, q) in zip(profiles, vectors))
    np.testing.assert_allclose(p_mat @ q_mat.T, oracle, rtol=0, atol=1e-12)


def test_rhs_mean_factors_scale_the_stored_rows_and_cannot_write_the_source():
    # column k of P is c_k p_k bitwise for profile k's mean c_k, and column
    # k of Q is q_k; writing into either factor cannot reach the source
    rng = np.random.default_rng(5)
    n = 7
    profiles = [TimeProfile("constant", 1.3), TimeProfile("linear", 0.8),
                cosine_profile(2.0, 3.5)]
    vectors = [(rng.standard_normal(n), rng.standard_normal(n)) for _ in profiles]
    src = separable_source(n, [(pr, p, q) for pr, (p, q) in zip(profiles, vectors)])
    stored = src.p.copy(), src.q.copy()
    p_mat, q_mat = rhs_mean_factors(src, 0.3, 0.9)
    for k, (pr, (p, q)) in enumerate(zip(profiles, vectors)):
        assert np.array_equal(p_mat[:, k], pr.mean(0.3, 0.9) * p)
        assert np.array_equal(q_mat[:, k], q)
    p_mat[...] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        q_mat[...] = 0.0
    for block in (src.p, src.q):
        with pytest.raises(ValueError, match="read-only"):
            block[0, 0] = 0.0
    for p, q in vectors:             # nor can the vectors it was built from
        p[:], q[:] = 0.0, 0.0
    assert np.array_equal(src.p, stored[0]) and np.array_equal(src.q, stored[1])


def test_zero_source():
    src = zero_source(5)
    assert src.profiles == () and src.p.shape == src.q.shape == (0, 5)
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
        separable_source(4, [(TimeProfile("constant", 1.0), np.ones(3), np.ones(4))])


# ---------------------------------------------------------------------------
# closed-form heat flow


def test_exact_diagonal_solution_matches_expm():
    rng = np.random.default_rng(27)
    n = 5
    op = build_operator(n)
    model = constant_diffusion([[0.03, 0.0], [0.0, 0.08]])
    u0 = factorize(rng.standard_normal((n, n)), n)
    t = 0.7
    flow = expm(-t * operator_matrix(op, model.alpha(0.0)))
    oracle = (flow @ to_dense(u0).reshape(-1, order="F")).reshape((n, n), order="F")
    np.testing.assert_allclose(to_dense(exact_diagonal_solution(model, u0, t)),
                               oracle, atol=1e-12)


def test_exact_diagonal_solution_mode_decay_rates():
    model = constant_diffusion(np.eye(2))
    t = 0.03
    # single lowest mode decays at rate 2 pi^2
    e11 = np.zeros((4, 4))
    e11[0, 0] = 1.0
    u0 = factorize(e11, 1)
    np.testing.assert_allclose(to_dense(exact_diagonal_solution(model, u0, t)),
                               np.exp(-2.0 * np.pi ** 2 * t) * e11, atol=1e-14)
    # two diagonal modes decay at 2 pi^2 and 8 pi^2
    two = np.zeros((4, 4))
    two[0, 0] = 1.0
    two[1, 1] = 1.0
    u0 = factorize(two, 2)
    expected = np.zeros((4, 4))
    expected[0, 0] = np.exp(-2.0 * np.pi ** 2 * t)
    expected[1, 1] = np.exp(-8.0 * np.pi ** 2 * t)
    np.testing.assert_allclose(to_dense(exact_diagonal_solution(model, u0, t)),
                               expected, atol=1e-14)


def test_exact_diagonal_solution_keeps_rank_past_the_floor():
    # at t = 1 under the identity tensor mode 4 has decayed exp(-30 pi^2),
    # about 1e-129, relative to mode 1, far under any rank floor: the closed
    # form still has rank 4 and equals the dense mode-by-mode decay
    n, r, t = 40, 4, 1.0
    u0 = LowRankState(np.eye(n, r), np.eye(r), np.eye(n, r))
    decay = np.exp(-t * (np.arange(1, n + 1) * np.pi) ** 2)
    dense = decay[:, None] * to_dense(u0) * decay
    state = exact_diagonal_solution(constant_diffusion(np.eye(2)), u0, t)
    assert state.rank == r
    assert h_distance(state, dense) <= 1e-15 * h_norm(dense)


def test_exact_diagonal_solution_rejects_coupled_tensor():
    model = constant_diffusion([[1.0, 0.2], [0.2, 1.0]])
    u0 = factorize(np.eye(4), 2)
    with pytest.raises(ValueError):
        exact_diagonal_solution(model, u0, 0.1)
