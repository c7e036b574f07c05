"""Accuracy of the dense symmetric eigensolver, numpy's LAPACK ``eigh``.

The Lipkin model diagonalizes its stacked parity sectors with it, so the
block-shaped cases go through ``lipkin_levels`` itself.
"""

import math

import numpy as np
import pytest

from thermohf.models.lipkin import LipkinModel, lipkin_levels


def random_symmetric(rng, order):
    m = rng.standard_normal((order, order))
    return 0.5 * (m + m.T)


class TestEigh:
    def test_identity(self):
        values, vectors = np.linalg.eigh(np.eye(5))
        assert np.allclose(values, np.ones(5))
        assert np.allclose(vectors, np.eye(5))

    def test_pauli_x(self):
        values = np.linalg.eigvalsh([[0.0, 1.0], [1.0, 0.0]])
        assert values == pytest.approx([-1.0, 1.0], abs=1e-14)

    def test_two_level_interaction_block(self):
        # N = 2: the j = 0 singlet at 0, and the j = 1 block, whose m = -1, +1
        # sector is diag (-1, 1) with off-diagonal -3, eigenvalues -+sqrt(10);
        # its m = 0 sector stays at 0
        spectrum, h1_values = lipkin_levels(LipkinModel(2, 1.0, 3.0), 1.0)
        root = math.sqrt(10.0)
        assert spectrum.energies == pytest.approx([-root, 0.0, 0.0, root], abs=1e-13)
        assert h1_values.sum() == pytest.approx(0.0, abs=1e-13)  # trace of H1

    def test_order_one(self):
        values = np.linalg.eigvalsh([[4.0]])
        assert values == pytest.approx([4.0])

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        m = random_symmetric(rng, 12)
        d1 = np.linalg.eigh(m)
        d2 = np.linalg.eigh(m)
        assert all(np.array_equal(x, y) for x, y in zip(d1, d2))
        (s1, h1), (s2, h2) = (lipkin_levels(LipkinModel(24, 1.0, 3.0), 1.0)
                              for _ in range(2))
        assert np.array_equal(s1.energies, s2.energies)
        assert np.array_equal(s1.degeneracies, s2.degeneracies)
        assert np.array_equal(h1, h2)


class TestAccuracyProperties:
    @pytest.mark.parametrize("order", [2, 3, 8, 17, 33, 64])
    def test_residual_orthonormality_trace(self, order):
        rng = np.random.default_rng(order)
        for _ in range(4):
            m = random_symmetric(rng, order)
            values, vectors = np.linalg.eigh(m)
            fro = np.linalg.norm(m)
            assert np.all(np.diff(values) >= 0)
            residual = np.linalg.norm(m @ vectors - vectors * values, axis=0).max()
            assert residual <= 1e-10 * fro
            gram = vectors.T @ vectors
            assert np.max(np.abs(gram - np.eye(order))) <= 1e-12
            assert values.sum() == pytest.approx(np.trace(m), abs=1e-11 * fro)

    def test_permutation_similarity_invariance(self):
        rng = np.random.default_rng(99)
        m = random_symmetric(rng, 10)
        perm = rng.permutation(10)
        p = np.eye(10)[perm]
        m_perm = p @ m @ p.T
        e1 = np.linalg.eigvalsh(m)
        e2 = np.linalg.eigvalsh(m_perm)
        assert e1 == pytest.approx(e2, abs=1e-11 * np.linalg.norm(m))

    def test_degenerate_eigenvalues(self):
        # doubly degenerate spectrum {1, 1, 3}
        v = np.array([1.0, 1.0, 3.0])
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        m = q @ np.diag(v) @ q.T
        values, _ = np.linalg.eigh(0.5 * (m + m.T))
        assert values == pytest.approx(v, abs=1e-12)
