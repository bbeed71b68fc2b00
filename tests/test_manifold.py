"""Factored-state invariants checked against dense linear-algebra oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowrankpde.manifold import (LowRankState, RankDeficiencyError, factorize,
                                 qr_nonneg, singular_values, tangent_project, to_dense)


def random_state(rng, n, r, sigmas=None):
    q1, _ = np.linalg.qr(rng.standard_normal((n, r)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, r)))
    if sigmas is None:
        core = rng.standard_normal((r, r)) + 2.0 * np.eye(r)
    else:
        core = np.diag(np.asarray(sigmas, dtype=float))
    return LowRankState(q1, core, q2)


def dense_projector(state):
    """Oracle: tangent projector as an explicit n^2 x n^2 matrix acting on
    column-major vec.  Built only from the two orthogonal factor projectors,
    independently of tangent_project's internals."""
    p1 = state.u1_factors @ state.u1_factors.T
    p2 = state.u2_factors @ state.u2_factors.T
    n = state.basis_dim
    eye = np.eye(n)
    return np.kron(eye, p1) + np.kron(p2, eye) - np.kron(p2, p1)


# ---------------------------------------------------------------------------
# construction and shape checking


def test_state_shape_validation():
    rng = np.random.default_rng(0)
    u1 = np.linalg.qr(rng.standard_normal((6, 2)))[0]
    u2 = np.linalg.qr(rng.standard_normal((6, 2)))[0]
    with pytest.raises(ValueError):
        LowRankState(u1, np.eye(3), u2)
    with pytest.raises(ValueError):
        LowRankState(u1, np.eye(2), u2[:, :1])
    s = LowRankState(u1, np.eye(2), u2)
    assert s.rank == 2 and s.basis_dim == 6


def test_to_dense_is_factor_product():
    rng = np.random.default_rng(1)
    s = random_state(rng, 5, 3)
    expected = s.u1_factors @ s.core @ s.u2_factors.T
    np.testing.assert_allclose(to_dense(s), expected, rtol=0, atol=0)


# ---------------------------------------------------------------------------
# factorize against the numpy SVD


def test_factorize_roundtrip_full_rank():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((7, 7))
    s = factorize(a, 7)
    np.testing.assert_allclose(to_dense(s), a, atol=1e-13)
    # factors orthonormal
    np.testing.assert_allclose(s.u1_factors.T @ s.u1_factors, np.eye(7), atol=1e-13)
    np.testing.assert_allclose(s.u2_factors.T @ s.u2_factors, np.eye(7), atol=1e-13)


def test_factorize_truncation_matches_svd_oracle():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((9, 9))
    u, sig, vt = np.linalg.svd(a)
    for r in (1, 3, 6):
        best = (u[:, :r] * sig[:r]) @ vt[:r]          # Eckart-Young truncation
        s = factorize(a, r)
        np.testing.assert_allclose(to_dense(s), best, atol=1e-12)
        np.testing.assert_allclose(np.sort(singular_values(s)), np.sort(sig[:r]),
                                   atol=1e-12)
        # the reconstruction error is the tail of the singular spectrum
        assert np.linalg.norm(a - to_dense(s)) == pytest.approx(
            np.sqrt(np.sum(sig[r:] ** 2)), rel=1e-12)


def test_factorize_2x2_closed_form():
    # A = [[3, 0], [4, 5]]: A^T A has eigenvalues 45 and 5, so the singular
    # values are 3*sqrt(5) and sqrt(5).
    a = np.array([[3.0, 0.0], [4.0, 5.0]])
    s = factorize(a, 2)
    np.testing.assert_allclose(np.sort(singular_values(s))[::-1],
                               [3.0 * np.sqrt(5.0), np.sqrt(5.0)], atol=1e-13)
    assert abs(singular_values(s)[-1] - np.sqrt(5.0)) < 1e-13


def test_smallest_singular_shear_core_closed_form():
    # core [[1,1],[0,1]]: squared singular values are (3 +- sqrt(5))/2, so the
    # small one is (sqrt(5) - 1)/2
    rng = np.random.default_rng(16)
    q1, _ = np.linalg.qr(rng.standard_normal((5, 2)))
    q2, _ = np.linalg.qr(rng.standard_normal((5, 2)))
    s = LowRankState(q1, np.array([[1.0, 1.0], [0.0, 1.0]]), q2)
    assert singular_values(s)[-1] == pytest.approx((np.sqrt(5.0) - 1.0) / 2.0, abs=1e-13)


def test_factorize_rejects_deficient_rank():
    rng = np.random.default_rng(4)
    u = rng.standard_normal((8, 2))
    v = rng.standard_normal((8, 2))
    a = u @ v.T                                        # exact rank 2
    with pytest.raises(RankDeficiencyError,
                       match=r"^sigma_3 = \d\.\d{3}e[-+]\d+ under the rank floor \d\.\d{3}e-\d+$"):
        factorize(a, 3)
    # but rank 2 is fine
    s = factorize(a, 2)
    np.testing.assert_allclose(to_dense(s), a, atol=1e-12)


def test_factorize_relative_floor():
    # DEFAULT_RANK_FLOOR = 1e-12 relative to sigma_1
    with pytest.raises(RankDeficiencyError):
        factorize(np.diag([1.0, 1e-14, 0.0, 0.0]), 2)
    s = factorize(np.diag([1.0, 1e-11, 0.0, 0.0]), 2)
    assert singular_values(s)[-1] == pytest.approx(1e-11)


# ---------------------------------------------------------------------------
# tangent projection against the Kronecker oracle


def test_tangent_project_matches_kronecker_oracle():
    rng = np.random.default_rng(5)
    for n, r in ((5, 1), (6, 2), (7, 4)):
        s = random_state(rng, n, r)
        pmat = dense_projector(s)
        for _ in range(3):
            z = rng.standard_normal((n, n))
            via_oracle = (pmat @ z.reshape(-1, order="F")).reshape((n, n), order="F")
            np.testing.assert_allclose(tangent_project(s, z), via_oracle, atol=1e-12)


def test_dense_projector_oracle_is_projection():
    # sanity for the oracle itself: idempotent and symmetric
    rng = np.random.default_rng(6)
    s = random_state(rng, 5, 2)
    p = dense_projector(s)
    np.testing.assert_allclose(p @ p, p, atol=1e-12)
    np.testing.assert_allclose(p, p.T, atol=1e-13)


def test_tangent_project_fixes_state():
    rng = np.random.default_rng(7)
    s = random_state(rng, 6, 3)
    d = to_dense(s)
    np.testing.assert_allclose(tangent_project(s, d), d, atol=1e-12)


def test_tangent_project_idempotent():
    rng = np.random.default_rng(8)
    s = random_state(rng, 8, 3)
    z = rng.standard_normal((8, 8))
    once = tangent_project(s, z)
    np.testing.assert_allclose(tangent_project(s, once), once, atol=1e-12)


def test_tangent_project_is_orthogonal():
    # <Z - PZ, PW> = 0 for any Z, W
    rng = np.random.default_rng(9)
    s = random_state(rng, 6, 2)
    z = rng.standard_normal((6, 6))
    w = rng.standard_normal((6, 6))
    pz = tangent_project(s, z)
    pw = tangent_project(s, w)
    assert abs(np.sum((z - pz) * pw)) < 1e-12


# ---------------------------------------------------------------------------
# tangent vectors


def test_gauged_tangent_is_projector_invariant():
    # a tangent vector v1 u2^T + u1 v2^T in the gauge u1^T v1 = 0 lies in the
    # tangent space: P leaves it alone
    rng = np.random.default_rng(12)
    s = random_state(rng, 6, 2)
    u1, u2 = s.u1_factors, s.u2_factors
    v1 = rng.standard_normal((6, 2))
    v1 -= u1 @ (u1.T @ v1)
    d = v1 @ u2.T + u1 @ rng.standard_normal((6, 2)).T
    np.testing.assert_allclose(tangent_project(s, d), d, atol=1e-12)


# ---------------------------------------------------------------------------
# reorthonormalization, qr helper


def test_qr_nonneg_signs_and_product():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((7, 3))
    q, r = qr_nonneg(a)
    np.testing.assert_allclose(q @ r, a, atol=1e-13)
    np.testing.assert_allclose(q.T @ q, np.eye(3), atol=1e-13)
    assert np.all(np.diag(r) >= 0)


# ---------------------------------------------------------------------------
# property tests


@st.composite
def factored_states(draw, max_n=10):
    n = draw(st.integers(min_value=2, max_value=max_n))
    r = draw(st.integers(min_value=1, max_value=n))
    seed = draw(st.integers(min_value=0, max_value=2 ** 31 - 1))
    rng = np.random.default_rng(seed)
    sigmas = np.sort(draw(st.lists(
        st.floats(min_value=1e-3, max_value=10.0), min_size=r, max_size=r)))[::-1]
    q1, _ = np.linalg.qr(rng.standard_normal((n, r)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, r)))
    return LowRankState(q1, np.diag(sigmas), q2), rng


@given(factored_states())
@settings(max_examples=60, deadline=None)
def test_projection_never_grows_frobenius(state_rng):
    state, rng = state_rng
    z = rng.standard_normal((state.basis_dim, state.basis_dim))
    assert np.linalg.norm(tangent_project(state, z)) <= np.linalg.norm(z) + 1e-12


@given(factored_states())
@settings(max_examples=60, deadline=None)
def test_singular_values_match_dense_svd(state_rng):
    state, _ = state_rng
    dense_sig = np.linalg.svd(to_dense(state), compute_uv=False)[:state.rank]
    np.testing.assert_allclose(np.sort(singular_values(state))[::-1], dense_sig,
                               atol=1e-10 * max(1.0, dense_sig[0]))


@given(factored_states())
@settings(max_examples=40, deadline=None)
def test_factorize_of_own_dense_reproduces(state_rng):
    state, _ = state_rng
    d = to_dense(state)
    again = factorize(d, state.rank)
    np.testing.assert_allclose(to_dense(again), d,
                               atol=1e-10 * max(1.0, np.linalg.norm(d)))


# ---------------------------------------------------------------------------
# stacks of blocks and states: each slice as if alone, to the last bit


def test_qr_nonneg_stack_equals_per_block_calls():
    rng = np.random.default_rng(21)
    a = rng.standard_normal((5, 9, 3))
    a[2, :, 1] = 0.0                      # R of block 2 gets an exact-zero diagonal
    q, r = qr_nonneg(a)
    for k in range(5):
        qk, rk = qr_nonneg(a[k])
        assert np.array_equal(q[k], qk) and np.array_equal(r[k], rk)
    q_raw, r_raw = np.linalg.qr(a[2])
    assert r_raw[1, 1] == 0.0
    # a zero diagonal entry keeps sign +1: column and row stay as LAPACK left them
    assert np.array_equal(q[2][:, 1], q_raw[:, 1]) and np.array_equal(r[2][1], r_raw[1])
    assert np.all(np.diagonal(r, axis1=-2, axis2=-1) >= 0)


def test_state_stack_ops_equal_per_state_calls():
    rng = np.random.default_rng(22)
    k, n, r = 6, 9, 3
    q1, _ = qr_nonneg(rng.standard_normal((k, n, r)))
    q2, _ = qr_nonneg(rng.standard_normal((k, n, r)))
    stack = LowRankState(q1, rng.standard_normal((k, r, r)), q2)
    assert stack.rank == r and stack.basis_dim == n
    z = rng.standard_normal((k, n, n))
    projected = tangent_project(stack, z)
    dense = to_dense(stack)
    svals = singular_values(stack)
    for i in range(k):
        one = LowRankState(q1[i], stack.core[i], q2[i])
        assert np.array_equal(projected[i], tangent_project(one, z[i]))
        assert np.array_equal(dense[i], to_dense(one))
        assert np.array_equal(svals[i], singular_values(one))
    factored = factorize(dense, r)
    for i in range(k):
        one = factorize(dense[i], r)
        for name in ("u1_factors", "core", "u2_factors"):
            assert np.array_equal(getattr(factored, name)[i], getattr(one, name))
    dense[4] = np.outer(dense[4][:, 0], dense[4][0])          # one rank-1 slice
    with pytest.raises(RankDeficiencyError):
        factorize(dense, r)
