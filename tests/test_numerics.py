import numpy as np
import pytest

from fpt.errors import InvalidInput, ShapeError
from fpt.numerics import (
    finite_diff_grad,
    layer_norm,
    softmax_rows,
    spectral_norm,
    sym_eig,
)
from fpt.rng import seeded_rng


class TestSoftmaxRows:
    def test_symmetric_two_entries(self):
        assert np.allclose(softmax_rows([[0.0, 0.0]]), [[0.5, 0.5]], atol=1e-15)

    def test_log_two_closed_form(self):
        out = softmax_rows([[np.log(2.0), 0.0]])
        assert np.allclose(out, [[2 / 3, 1 / 3]], atol=1e-15)

    def test_large_inputs_no_overflow(self):
        out = softmax_rows([[1000.0, 1000.0, 1000.0]])
        assert np.all(np.isfinite(out))
        assert np.allclose(out, [[1 / 3] * 3], atol=1e-15)

    def test_rows_sum_to_one(self):
        m = seeded_rng(0).normal((50, 7), scale=100.0)
        out = softmax_rows(m)
        assert np.abs(out.sum(axis=1) - 1.0).max() <= 1e-12
        assert np.all(out > 0) and np.all(out <= 1)

    def test_shift_invariance(self):
        rng = seeded_rng(1)
        m = rng.normal((20, 5))
        shifted = m + rng.normal((20, 1), scale=10.0)
        assert np.abs(softmax_rows(m) - softmax_rows(shifted)).max() <= 1e-12

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInput):
            softmax_rows([[np.nan, 0.0]])


class TestLayerNorm:
    def test_constant_input(self):
        out = layer_norm([5.0, 5, 5, 5], np.ones(4), np.zeros(4), 1e-5)
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_unit_variance_pair_eps_zero(self):
        out = layer_norm([1.0, -1.0], np.ones(2), np.zeros(2), 0.0)
        assert np.allclose(out, [1.0, -1.0], atol=1e-15)

    def test_affine_composition(self):
        v = seeded_rng(2).normal(16)
        base = layer_norm(v, np.ones(16), np.zeros(16), 1e-5)
        out = layer_norm(v, 2 * np.ones(16), 3 * np.ones(16), 1e-5)
        assert np.allclose(out, 2 * base + 3, atol=1e-12)

    def test_zero_mean(self):
        v = seeded_rng(3).normal(33)
        out = layer_norm(v, np.ones(33), np.zeros(33), 1e-5)
        assert abs(out.mean()) <= 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            layer_norm([1.0, 2.0], np.ones(3), np.zeros(3), 1e-5)


class TestSymEig:
    def test_diagonal(self):
        ed = sym_eig(np.diag([4.0, 1.0]))
        assert np.allclose(ed.eigenvalues, [4.0, 1.0])
        assert np.allclose(ed.eigenvectors, np.eye(2))

    def test_analytic_two_by_two(self):
        ed = sym_eig([[2.0, 1.0], [1.0, 2.0]])
        assert np.allclose(ed.eigenvalues, [3.0, 1.0], atol=1e-12)
        s = 1 / np.sqrt(2)
        assert np.allclose(ed.eigenvectors[:, 0], [s, s], atol=1e-12)
        assert np.allclose(ed.eigenvectors[:, 1], [s, -s], atol=1e-12)

    def test_reconstruction_random(self):
        rng = seeded_rng(4)
        a = rng.normal((6, 6))
        a = (a + a.T) / 2
        ed = sym_eig(a)
        rec = ed.eigenvectors @ np.diag(ed.eigenvalues) @ ed.eigenvectors.T
        assert np.linalg.norm(rec - a) <= 1e-8

    def test_orthonormality_and_trace(self):
        rng = seeded_rng(5)
        for n in (2, 3, 8, 12, 64):
            a = rng.normal((n, n))
            a = (a + a.T) / 2
            ed = sym_eig(a)
            v = ed.eigenvectors
            assert np.linalg.norm(v.T @ v - np.eye(n)) <= 1e-8
            assert abs(ed.eigenvalues.sum() - np.trace(a)) <= 1e-8
            assert np.all(np.diff(ed.eigenvalues) <= 1e-12)

    def test_sign_convention_deterministic(self):
        rng = seeded_rng(6)
        a = rng.normal((5, 5))
        a = (a + a.T) / 2
        ed = sym_eig(a)
        for j in range(5):
            k = int(np.argmax(np.abs(ed.eigenvectors[:, j])))
            assert ed.eigenvectors[k, j] > 0

    def test_stack_matches_each_matrix(self):
        a = seeded_rng(8).normal((3, 5, 5))
        a = (a + a.swapaxes(-1, -2)) / 2
        ed = sym_eig(a)
        assert ed.eigenvalues.shape == (3, 5) and ed.eigenvectors.shape == (3, 5, 5)
        for i in range(3):
            one = sym_eig(a[i])
            assert np.array_equal(ed.eigenvalues[i], one.eigenvalues)
            assert np.array_equal(ed.eigenvectors[i], one.eigenvectors)
            for j in range(5):
                k = int(np.argmax(np.abs(ed.eigenvectors[i, :, j])))
                assert ed.eigenvectors[i, k, j] > 0

    def test_asymmetric_rejected(self):
        with pytest.raises(InvalidInput):
            sym_eig([[1.0, 2.0], [0.0, 1.0]])


class TestSpectralNorm:
    def test_diagonal_matrix(self):
        assert spectral_norm(np.diag([3.0, -5.0])) == pytest.approx(5.0, abs=1e-10)

    def test_rank_one(self):
        u = np.array([1.0, 2.0])
        v = np.array([2.0, 0.0])
        m = np.outer(u, v)
        assert spectral_norm(m) == pytest.approx(2 * np.sqrt(5), abs=1e-10)

    def test_matches_gram_eigenvalue(self):
        m = seeded_rng(7).normal((4, 7))
        lam = sym_eig((m.T @ m + (m.T @ m).T) / 2).eigenvalues[0]
        assert abs(spectral_norm(m) - np.sqrt(lam)) <= 1e-8
        # independent cross-check
        assert abs(spectral_norm(m) - np.linalg.svd(m, compute_uv=False)[0]) <= 1e-8

    def test_submultiplicative(self):
        rng = seeded_rng(8)
        for _ in range(20):
            a = rng.normal((5, 4))
            b = rng.normal((4, 6))
            assert spectral_norm(a @ b) <= spectral_norm(a) * spectral_norm(b) + 1e-8


class TestFiniteDiffGrad:
    def test_square(self):
        g = finite_diff_grad(lambda x: float(x[0] ** 2), np.array([3.0]), 1e-5)
        assert abs(g[0] - 6.0) <= 1e-8

    def test_constant(self):
        g = finite_diff_grad(lambda x: 1.75, seeded_rng(9).normal(6), 1e-5)
        assert np.allclose(g, 0.0)

    def test_linear_exact(self):
        a = seeded_rng(10).normal(8)
        g = finite_diff_grad(lambda x: float(a @ x), seeded_rng(11).normal(8), 1e-5)
        assert np.abs(g - a).max() <= 1e-9

    def test_quadratic_matches_gradient(self):
        rng = seeded_rng(12)
        q = rng.normal((6, 6))
        q = q @ q.T + 6 * np.eye(6)  # well-conditioned
        x = rng.normal(6)
        g = finite_diff_grad(lambda v: float(0.5 * v @ q @ v), x, 1e-5)
        expect = q @ x
        rel = np.abs(g - expect).max() / np.abs(expect).max()
        assert rel <= 1e-6
