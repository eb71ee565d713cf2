import numpy as np
import pytest

from rankonegames import linalg as la

import oracles


def rng_for(seed=0):
    return np.random.default_rng(seed)


def random_complex(rows, cols, rng):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


class TestKron:
    def test_identity(self):
        assert np.allclose(la.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_elementary_tensor(self):
        p0 = la.ketbra(2, 0, 2, 0)
        p1 = la.ketbra(2, 1, 2, 1)
        out = la.kron(p0, p1)
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0
        assert np.allclose(out, expected)

    def test_indexing_against_loop_oracle(self):
        rng = rng_for(1)
        a = random_complex(2, 3, rng)
        b = random_complex(3, 2, rng)
        out = la.kron(a, b)
        for i in range(2):
            for j in range(3):
                for k in range(3):
                    for l in range(2):
                        assert out[i * 3 + k, j * 2 + l] == pytest.approx(a[i, j] * b[k, l])

    def test_trace_multiplicative(self):
        rng = rng_for(2)
        a = random_complex(2, 2, rng)
        b = random_complex(2, 2, rng)
        assert np.trace(la.kron(a, b)) == pytest.approx(np.trace(a) * np.trace(b))


class TestPermuteRegisters:
    def test_swap_identity_invariant(self):
        out = la.permute_registers(np.eye(4), (2, 2), (1, 0))
        assert np.allclose(out, np.eye(4))

    def test_swap_basis_relabeling(self):
        m = np.outer(la.kron(oracles.basis_ket(2, 0)[:, None], oracles.basis_ket(2, 1)[:, None]).ravel(),
                     la.kron(oracles.basis_ket(2, 1)[:, None], oracles.basis_ket(2, 0)[:, None]).ravel().conj())
        out = la.permute_registers(m, (2, 2), (1, 0))
        expected = np.outer(
            la.kron(oracles.basis_ket(2, 1)[:, None], oracles.basis_ket(2, 0)[:, None]).ravel(),
            la.kron(oracles.basis_ket(2, 0)[:, None], oracles.basis_ket(2, 1)[:, None]).ravel().conj())
        assert np.allclose(out, expected)

    def test_roundtrip_exact(self):
        rng = rng_for(3)
        m = random_complex(6, 6, rng)
        out = la.permute_registers(m, (2, 3), (1, 0))
        back = la.permute_registers(out, (3, 2), (1, 0))
        assert np.array_equal(back, m)

    def test_three_factor_roundtrip(self):
        rng = rng_for(4)
        m = random_complex(12, 12, rng)
        perm = (2, 0, 1)
        out = la.permute_registers(m, (2, 3, 2), perm)
        inv = tuple(np.argsort(perm))
        back = la.permute_registers(out, (2, 2, 3), inv)
        assert np.array_equal(back, m)

    def test_trace_norm_isometry_and_eigs(self):
        rng = rng_for(5)
        m = random_complex(6, 6, rng)
        h = m + m.conj().T
        out = la.permute_registers(h, (2, 3), (1, 0))
        assert la.trace_norm(out) == pytest.approx(la.trace_norm(h), abs=1e-10)
        assert np.allclose(np.sort(np.linalg.eigvalsh(out)), np.sort(np.linalg.eigvalsh(h)))

    def test_bad_perm_raises(self):
        with pytest.raises(la.DimensionMismatchError):
            la.permute_registers(np.eye(4), (2, 2), (0, 0))


class TestPartialTrace:
    def test_product_state(self):
        v = la.kron(oracles.basis_ket(2, 0)[:, None], oracles.basis_ket(2, 0)[:, None]).ravel()
        rho = np.outer(v, v.conj())
        out = la.partial_trace(rho, (2, 2), {1})
        assert np.allclose(out, la.ketbra(2, 0, 2, 0))

    def test_maximally_mixed(self):
        out = la.partial_trace(np.eye(4) / 4.0, (2, 2), {1})
        assert np.allclose(out, np.eye(2) / 2.0)

    def test_gc_states_from_paper(self):
        # psi = (1/sqrt n) sum |i0>|i>, gamma = (1/sqrt n) sum |0i>|i>
        n = 3
        psi = np.zeros(n * n * n, dtype=complex)
        gamma = np.zeros(n * n * n, dtype=complex)
        for i in range(n):
            psi[(i * n + 0) * n + i] = 1.0 / np.sqrt(n)
            gamma[(0 * n + i) * n + i] = 1.0 / np.sqrt(n)
        m = la.partial_trace(np.outer(psi, gamma.conj()), (n, n, n), {2})
        expected = np.zeros((n * n, n * n), dtype=complex)
        for i in range(n):
            expected += la.kron(la.ketbra(n, i, n, 0), la.ketbra(n, 0, n, i)) / n
        assert np.allclose(m, expected, atol=1e-14)

    def test_trace_preserving_and_linear(self):
        rng = rng_for(6)
        a = random_complex(12, 12, rng)
        b = random_complex(12, 12, rng)
        ta = la.partial_trace(a, (2, 3, 2), {1})
        tb = la.partial_trace(b, (2, 3, 2), {1})
        tab = la.partial_trace(a + 2.0 * b, (2, 3, 2), {1})
        assert np.allclose(tab, ta + 2.0 * tb)
        assert np.trace(ta) == pytest.approx(np.trace(a))

    def test_all_factors_gives_scalar_trace(self):
        rng = rng_for(7)
        a = random_complex(6, 6, rng)
        out = la.partial_trace(a, (2, 3), {0, 1})
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(np.trace(a))

    def test_out_of_range_raises(self):
        with pytest.raises(la.DimensionMismatchError):
            la.partial_trace(np.eye(4), (2, 2), {2})


class TestSvdAndTraceNorm:
    def test_diagonal(self):
        _, s, _ = la.svd(np.diag([3.0, 1.0]))
        assert np.allclose(s, [3.0, 1.0])

    def test_unitary_singular_values_one(self):
        rng = rng_for(8)
        u = la.random_unitary(4, rng)
        assert np.allclose(la.singular_values(u), np.ones(4), atol=1e-12)

    def test_reconstruction(self):
        rng = rng_for(9)
        a = random_complex(4, 4, rng)
        u, s, vdag = la.svd(a)
        err = np.linalg.norm(u @ np.diag(s) @ vdag - a)
        assert err <= 1e-12 * np.linalg.norm(a)
        assert np.allclose(u.conj().T @ u, np.eye(4), atol=1e-10)
        assert np.allclose(vdag @ vdag.conj().T, np.eye(4), atol=1e-10)

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
            m += la.kron(la.ketbra(n, i, n, 0), la.ketbra(n, 0, n, i)) / n
        s = la.singular_values(m)
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
        blocks = [la.ketbra(n, 0, n, i) for i in range(n)]
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
        assert oracles.cb_norm_c_to_r(la.ketbra(3, 1, 3, 2)) == pytest.approx(1.0)

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
        r = la.realign(la.kron(a, b), 2, 3)
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
