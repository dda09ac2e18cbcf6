"""Matrix helpers and the canonicalized SVD front end."""

import numpy as np
import pytest

from svdgrad import linalg
from oracles import gauge_fixed_svd_loop, jacobi_svd

DTYPES = [np.float32, np.float64, np.complex64, np.complex128]


def _random(rng, shape, dtype):
    a = rng.standard_normal(shape)
    if np.issubdtype(np.dtype(dtype), np.complexfloating):
        a = a + 1j * rng.standard_normal(shape)
    return a.astype(dtype)


def test_conj_transpose_involution_and_norm():
    rng = np.random.default_rng(2)
    A = _random(rng, (6, 4), np.complex128)
    Ah = linalg.conj_transpose(A)
    assert Ah.shape == (4, 6)
    assert np.array_equal(linalg.conj_transpose(Ah), A)
    assert np.linalg.norm(Ah) == pytest.approx(np.linalg.norm(A), rel=0, abs=0)


def test_svd_identity():
    f = linalg.svd(np.eye(3))
    assert np.array_equal(f.U, np.eye(3))
    assert np.array_equal(f.s, np.ones(3))
    assert np.array_equal(f.V, np.eye(3))


def test_svd_diagonal():
    f = linalg.svd(np.diag([3.0, 2.0, 1.0]))
    assert np.array_equal(f.s, [3.0, 2.0, 1.0])
    assert np.allclose(f.reconstruct(), np.diag([3.0, 2.0, 1.0]), atol=1e-15)


def test_svd_reconstruction_and_jacobi_oracle():
    rng = np.random.default_rng(6)
    A = _random(rng, (10, 10), np.float64)
    f = linalg.svd(A)
    rel = np.linalg.norm(f.reconstruct() - A) / np.linalg.norm(A)
    assert rel <= 1e-12
    # independent route: one-sided Jacobi, no shared code with the library
    _, s_ref, _ = jacobi_svd(A)
    assert np.max(np.abs(f.s - s_ref)) <= 1e-10 * s_ref[0]


def test_svd_orthonormality_all_dtypes():
    rng = np.random.default_rng(7)
    for dtype in DTYPES:
        single = np.dtype(dtype) in (np.dtype(np.float32), np.dtype(np.complex64))
        tol = 1e-5 if single else 1e-12
        for shape in [(6, 6), (8, 3), (3, 8)]:
            A = _random(rng, shape, dtype)
            f = linalg.svd(A)
            k = min(shape)
            assert f.U.shape == (shape[0], k) and f.V.shape == (shape[1], k)
            assert np.linalg.norm(f.U.conj().T @ f.U - np.eye(k)) <= tol
            assert np.linalg.norm(f.V.conj().T @ f.V - np.eye(k)) <= tol
            rel = np.linalg.norm(f.reconstruct() - A) / np.linalg.norm(A)
            assert rel <= tol
            assert np.all(np.diff(f.s) <= 0) and np.all(f.s >= 0)


def test_svd_singular_values_permutation_invariant():
    rng = np.random.default_rng(8)
    A = _random(rng, (7, 5), np.float64)
    s_ref = np.sort(linalg.svd(A).s)
    for _ in range(5):
        P = np.eye(7)[rng.permutation(7)]
        Q = np.eye(5)[rng.permutation(5)]
        s = np.sort(linalg.svd(P @ A @ Q).s)
        assert np.max(np.abs(s - s_ref)) <= 1e-10 * max(s_ref[-1], 1.0)


def test_svd_sign_convention_and_determinism():
    rng = np.random.default_rng(9)
    for dtype in [np.float64, np.complex128]:
        A = _random(rng, (6, 6), dtype)
        f1 = linalg.svd(A)
        f2 = linalg.svd(A.copy())
        assert np.array_equal(f1.U, f2.U)
        assert np.array_equal(f1.s, f2.s)
        assert np.array_equal(f1.V, f2.V)
        for j in range(6):
            col = f1.U[:, j]
            lead = col[np.nonzero(col)[0][0]]
            assert np.imag(lead) == 0
            assert np.real(lead) > 0


def _gauge_cases(rng, dtype):
    """Random matrices plus permuted diagonals: the U columns of the latter
    are signed or phased unit vectors, mostly with leading exact zeros."""
    mats = [_random(rng, (6, 6), dtype) for _ in range(4)]
    for _ in range(2):
        D = np.diag(_random(rng, 6, dtype))
        mats.append(D[rng.permutation(6)][:, rng.permutation(6)])
    # both kinds of columns the gauge has to move occur among the raw factors
    leads = []
    for A in mats:
        for col in np.linalg.svd(A, full_matrices=False)[0].T:
            row = np.nonzero(col)[0][0]
            leads.append((row, col[row]))
    assert any(row > 0 for row, _ in leads)
    if np.dtype(dtype).kind == "f":
        assert any(lead < 0 for _, lead in leads)
    else:
        assert any(np.imag(lead) != 0 for _, lead in leads)
    return mats


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dtype", DTYPES)
def test_svd_matches_column_loop_gauge(dtype):
    # the vectorized gauge fix reproduces the per-column loop bit for bit,
    # including the complex lead magnitude
    rng = np.random.default_rng(11)
    mats = _gauge_cases(rng, dtype) + [_random(rng, (7, 4), dtype) for _ in range(40)]
    mats += [_random(rng, (4, 7), dtype) for _ in range(40)]
    for A in mats:
        f = linalg.svd(A)
        U, s, V = gauge_fixed_svd_loop(A)
        assert _same_bytes(f.U, U) and _same_bytes(f.s, s) and _same_bytes(f.V, V)


@pytest.mark.parametrize("dtype", DTYPES)
def test_svd_stack_matches_per_matrix(dtype):
    rng = np.random.default_rng(12)
    mats = _gauge_cases(rng, dtype)
    stack = np.stack(mats)
    f = linalg.svd(stack)
    assert f.U.shape == (6, 6, 6) and f.s.shape == (6, 6) and f.k == 6
    for i, A in enumerate(mats):
        g = linalg.svd(A)
        assert _same_bytes(f.U[i], g.U) and _same_bytes(f.s[i], g.s) and _same_bytes(f.V[i], g.V)
        assert _same_bytes(f.reconstruct()[i], g.reconstruct())
    # any number of leading axes, rectangular matrices
    wide = np.stack([_random(rng, (3, 5), dtype) for _ in range(6)])
    f = linalg.svd(wide.reshape(2, 3, 3, 5))
    assert f.V.shape == (2, 3, 5, 3)
    for i, A in enumerate(wide):
        g = linalg.svd(A)
        assert _same_bytes(f.U[i // 3, i % 3], g.U) and _same_bytes(f.V[i // 3, i % 3], g.V)


def test_svd_vector_shapes():
    rng = np.random.default_rng(10)
    row = _random(rng, (1, 5), np.float64)
    f = linalg.svd(row)
    assert f.s.shape == (1,)
    assert np.allclose(f.reconstruct(), row, atol=1e-14)
    col = _random(rng, (5, 1), np.complex128)
    f = linalg.svd(col)
    assert f.s.shape == (1,)
    assert np.allclose(f.reconstruct(), col, atol=1e-14)


def test_degenerate_inputs_rejected():
    with pytest.raises(ValueError):
        linalg.svd(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        linalg.svd(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        linalg.svd(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(TypeError):
        linalg.svd(np.eye(2, dtype=int))
    with pytest.raises(ValueError):
        linalg.svd(np.zeros((0, 2, 2)))
    stack = np.stack([np.eye(2), np.eye(2)])
    stack[1, 0, 1] = np.nan
    with pytest.raises(ValueError):
        linalg.svd(stack)
    with pytest.raises(ValueError):
        linalg.ensure_matrix(np.zeros((2, 2, 2)))
