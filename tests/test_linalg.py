import numpy as np
import pytest

from rankonegames import linalg as la

import oracles


def rng_for(seed=0):
    return np.random.default_rng(seed)


def random_complex(rows, cols, rng):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


class TestSvdAndTraceNorm:
    def test_unitary_singular_values_one(self):
        rng = rng_for(8)
        u = la.random_unitary(4, rng)
        assert np.allclose(np.linalg.svd(u, compute_uv=False), np.ones(4), atol=1e-12)

    def test_trace_norm_identity(self):
        assert la.trace_norm(np.eye(2)) == pytest.approx(2.0)

    def test_trace_norm_rank_one(self):
        rng = rng_for(10)
        u = random_complex(3, 1, rng).ravel()
        v = random_complex(3, 1, rng).ravel()
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        assert la.trace_norm(np.outer(u, v.conj())) == pytest.approx(1.0, abs=1e-12)

    def test_trace_norm_gc_matrix(self):
        # G_C(n) has n singular values 1/n each: trace norm 1
        n = 4
        m = np.zeros((n * n, n * n), dtype=complex)
        for i in range(n):
            m += np.kron(oracles.ketbra(n, i, n, 0), oracles.ketbra(n, 0, n, i)) / n
        s = np.linalg.svd(m, compute_uv=False)
        assert np.allclose(np.sort(s)[-n:], np.full(n, 1.0 / n), atol=1e-12)
        assert la.trace_norm(m) == pytest.approx(1.0, abs=1e-12)

    def test_norm_properties_random(self):
        rng = rng_for(11)
        for _ in range(20):
            a = random_complex(3, 3, rng)
            b = random_complex(3, 3, rng)
            c = rng.standard_normal() + 1j * rng.standard_normal()
            assert la.trace_norm(a + b) <= la.trace_norm(a) + la.trace_norm(b) + 1e-10
            assert la.trace_norm(c * a) == pytest.approx(abs(c) * la.trace_norm(a), abs=1e-10)


class TestPolarMaximizer:
    def test_diagonal_phases(self):
        u, val = la.polar_maximizer(np.diag([1.0, -2.0]))
        assert val == pytest.approx(3.0)
        assert np.allclose(u, np.diag([1.0, -1.0]))

    def test_identity(self):
        u, val = la.polar_maximizer(np.eye(3))
        assert val == pytest.approx(3.0)
        assert np.allclose(u, np.eye(3))

    def test_beats_random_unitaries(self):
        rng = rng_for(12)
        y = random_complex(3, 3, rng)
        u, val = la.polar_maximizer(y)
        assert val == pytest.approx(la.trace_norm(y), abs=1e-10)
        assert np.allclose(u.conj().T @ u, np.eye(3), atol=1e-10)
        assert np.real(np.trace(u @ y)) == pytest.approx(val, abs=1e-10)
        for _ in range(1000):
            w = la.random_unitary(3, rng)
            assert np.real(np.trace(w @ y)) <= val + 1e-9


class TestBlockNorms:
    def test_paper_row_of_matrix_units(self):
        # blocks |0><i| have sum_i A_i* A_i = sum |i><i| = I: column norm 1
        n = 4
        blocks = [oracles.ketbra(n, 0, n, i) for i in range(n)]
        assert oracles.column_block_norm(blocks) == pytest.approx(1.0, abs=1e-12)

    def test_single_identity_block(self):
        assert oracles.row_block_norm([np.eye(3)]) == pytest.approx(1.0)
        assert oracles.column_block_norm([np.eye(3)]) == pytest.approx(1.0)

    def test_single_block_equals_operator_norm(self):
        rng = rng_for(13)
        a = random_complex(3, 3, rng)
        assert oracles.row_block_norm([a]) == pytest.approx(oracles.operator_norm(a), abs=1e-10)
        assert oracles.column_block_norm([a]) == pytest.approx(oracles.operator_norm(a), abs=1e-10)

    def test_against_eigen_oracle(self):
        rng = rng_for(14)
        blocks = [random_complex(3, 3, rng) for _ in range(4)]
        row_acc = sum(b @ b.conj().T for b in blocks)
        col_acc = sum(b.conj().T @ b for b in blocks)
        assert oracles.row_block_norm(blocks) == pytest.approx(
            np.sqrt(np.linalg.eigvalsh(row_acc)[-1]), abs=1e-10)
        assert oracles.column_block_norm(blocks) == pytest.approx(
            np.sqrt(np.linalg.eigvalsh(col_acc)[-1]), abs=1e-10)

    def test_mismatched_blocks_raise(self):
        with pytest.raises(la.DimensionMismatchError):
            oracles.row_block_norm([np.eye(2), np.eye(3)])


class TestCbNorm:
    def test_identity(self):
        for n in (2, 3, 5):
            assert oracles.cb_norm_c_to_r(np.eye(n)) == pytest.approx(np.sqrt(n))

    def test_rank_one_unit(self):
        assert oracles.cb_norm_c_to_r(oracles.ketbra(3, 1, 3, 2)) == pytest.approx(1.0)

    def test_equals_frobenius(self):
        rng = rng_for(15)
        t = random_complex(4, 4, rng)
        direct = np.sqrt(np.sum(np.abs(t) ** 2))
        assert abs(oracles.cb_norm_c_to_r(t) - direct) <= 1e-12


class TestRealign:
    def test_elementary_tensor(self):
        rng = rng_for(16)
        a = random_complex(2, 2, rng)
        b = random_complex(3, 3, rng)
        r = la.realign(np.kron(a, b), 2, 3)
        expected = np.outer(a.reshape(-1), b.reshape(-1))
        assert np.allclose(r, expected)

    def test_roundtrip(self):
        rng = rng_for(17)
        m = random_complex(6, 6, rng)
        assert np.array_equal(la.unrealign(la.realign(m, 2, 3), 2, 3), m)


class TestJson:
    def test_matrix_roundtrip(self):
        rng = rng_for(18)
        m = random_complex(3, 2, rng)
        assert np.array_equal(la.matrix_from_json(la.matrix_to_json(m)), m)

    def test_vector_roundtrip(self):
        rng = rng_for(19)
        v = random_complex(5, 1, rng).ravel()
        assert np.array_equal(la.vector_from_json(la.vector_to_json(v)), v)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            la.as_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))
