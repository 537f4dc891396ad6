"""Tests for CirculantMatrix (paper section III-C)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ShapeError
from repro.structured import CirculantMatrix


def random_circulant(rng, n):
    return CirculantMatrix(rng.normal(size=n))


class TestConstruction:
    def test_dense_layout_matches_paper(self):
        # Paper section III-C displays column j as w rotated down by j.
        c = CirculantMatrix([1.0, 2.0, 3.0])
        expected = np.array([[1, 3, 2], [2, 1, 3], [3, 2, 1]], dtype=float)
        assert np.allclose(c.to_dense(), expected)

    def test_first_column_round_trip(self, rng):
        w = rng.normal(size=6)
        assert np.allclose(CirculantMatrix(w).to_dense()[:, 0], w)

    def test_rejects_empty(self):
        with pytest.raises(ShapeError):
            CirculantMatrix([])

    def test_rejects_2d(self, rng):
        with pytest.raises(ShapeError):
            CirculantMatrix(rng.normal(size=(3, 3)))

    def test_parameter_count_is_n(self, rng):
        assert random_circulant(rng, 9).parameter_count == 9

    def test_from_dense_exact(self, rng):
        dense = random_circulant(rng, 5).to_dense()
        assert np.allclose(CirculantMatrix.from_dense(dense).to_dense(), dense)

    def test_from_dense_rejects_noncirculant(self, rng):
        with pytest.raises(ShapeError):
            CirculantMatrix.from_dense(rng.normal(size=(4, 4)))

    def test_from_dense_rejects_rectangular(self, rng):
        with pytest.raises(ShapeError):
            CirculantMatrix.from_dense(rng.normal(size=(3, 4)))

    def test_immutability_of_first_column(self, rng):
        c = random_circulant(rng, 4)
        column = c.first_column
        column[0] = 999.0
        assert c.first_column[0] != 999.0


class TestProducts:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 16, 64, 256, 1024])
    def test_matvec_matches_dense(self, rng, n):
        c = random_circulant(rng, n)
        x = rng.normal(size=n)
        assert np.allclose(c.matvec(x), c.to_dense() @ x)

    @pytest.mark.parametrize("n", [64, 256, 1024, 4096])
    def test_matvec_matches_direct_circular_convolution(self, rng, n):
        # The Eqn. 3 sizes benchmarks/test_circulant_matvec.py times; the
        # O(n^2) reference never materialises the dense matrix.
        w = rng.normal(size=n)
        x = rng.normal(size=n)
        direct = np.convolve(w, np.concatenate([x, x]))[n:2 * n]
        assert np.allclose(CirculantMatrix(w).matvec(x), direct)

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_rmatvec_matches_dense(self, rng, n):
        c = random_circulant(rng, n)
        y = rng.normal(size=n)
        assert np.allclose(c.rmatvec(y), c.to_dense().T @ y)

    def test_matmul_matrix_operand(self, rng):
        c = random_circulant(rng, 5)
        m = rng.normal(size=(5, 3))
        assert np.allclose(c @ m, c.to_dense() @ m)

    def test_matmul_shape_check(self, rng):
        with pytest.raises(ShapeError):
            random_circulant(rng, 4) @ rng.normal(size=(5, 2))

    def test_compose_matches_dense_product(self, rng):
        a = random_circulant(rng, 6)
        b = random_circulant(rng, 6)
        assert np.allclose((a @ b).to_dense(), a.to_dense() @ b.to_dense())

    def test_compose_commutes(self, rng):
        a = random_circulant(rng, 6)
        b = random_circulant(rng, 6)
        assert np.allclose((a @ b).to_dense(), (b @ a).to_dense())

    def test_compose_size_mismatch(self, rng):
        with pytest.raises(ShapeError):
            random_circulant(rng, 4).compose(random_circulant(rng, 5))

    @given(st.integers(1, 16), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_property_matvec(self, n, seed):
        local = np.random.default_rng(seed)
        c = CirculantMatrix(local.normal(size=n))
        x = local.normal(size=n)
        assert np.allclose(c.matvec(x), c.to_dense() @ x, atol=1e-8)


class TestAlgebra:
    def test_eigenvalues_are_fft(self, rng):
        w = rng.normal(size=8)
        c = CirculantMatrix(w)
        assert np.allclose(c.eigenvalues(), np.fft.fft(w))

    def test_eigenvalues_match_dense(self, rng):
        c = random_circulant(rng, 6)
        ours = np.sort_complex(c.eigenvalues())
        dense = np.sort_complex(np.linalg.eigvals(c.to_dense()))
        assert np.allclose(ours, dense)

    def test_transpose(self, rng):
        c = random_circulant(rng, 7)
        assert np.allclose(c.T.to_dense(), c.to_dense().T)

    def test_double_transpose_is_identity(self, rng):
        c = random_circulant(rng, 5)
        assert np.allclose(c.T.T.to_dense(), c.to_dense())

    def test_inverse(self, rng):
        c = random_circulant(rng, 6)
        assert np.allclose(c.inverse().to_dense(), np.linalg.inv(c.to_dense()))

    def test_inverse_of_singular_raises(self):
        # All-ones circulant has rank 1.
        with pytest.raises(np.linalg.LinAlgError):
            CirculantMatrix(np.ones(4)).inverse()

    def test_solve(self, rng):
        c = random_circulant(rng, 9)
        x = rng.normal(size=9)
        assert np.allclose(c.solve(c.matvec(x)), x)

    def test_solve_singular_raises(self, rng):
        with pytest.raises(np.linalg.LinAlgError):
            CirculantMatrix(np.ones(4)).solve(rng.normal(size=4))

    def test_solve_shape_check(self, rng):
        with pytest.raises(ShapeError):
            random_circulant(rng, 4).solve(rng.normal(size=5))

    def test_determinant(self, rng):
        c = random_circulant(rng, 5)
        assert c.determinant() == pytest.approx(np.linalg.det(c.to_dense()))

    def test_addition(self, rng):
        a = random_circulant(rng, 6)
        b = random_circulant(rng, 6)
        assert np.allclose((a + b).to_dense(), a.to_dense() + b.to_dense())

    def test_subtraction(self, rng):
        a = random_circulant(rng, 6)
        b = random_circulant(rng, 6)
        assert np.allclose((a - b).to_dense(), a.to_dense() - b.to_dense())

    def test_scalar_multiplication(self, rng):
        c = random_circulant(rng, 6)
        assert np.allclose((2.5 * c).to_dense(), 2.5 * c.to_dense())
        assert np.allclose((c * 2.5).to_dense(), 2.5 * c.to_dense())

    def test_add_size_mismatch(self, rng):
        with pytest.raises(ShapeError):
            random_circulant(rng, 4) + random_circulant(rng, 5)

    def test_repr(self, rng):
        assert "n=6" in repr(random_circulant(rng, 6))
