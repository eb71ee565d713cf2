import numpy as np
import pytest

from rankonegames import sdp, values
from rankonegames.linalg import random_hermitian

import oracles
from conftest import random_game


def identity_terms(var, side):
    """Terms placing the variable itself into a block: X >= 0."""
    eye = np.eye(side)
    return [sdp.PsdTerm(var, eye, eye)]


def scalar_times_identity_terms(var, side):
    """Place t * I_side for a 1x1 variable t."""
    cols = [np.zeros((side, 1)) for _ in range(side)]
    terms = []
    for k in range(side):
        e = np.zeros((side, 1))
        e[k, 0] = 1.0
        terms.append(sdp.PsdTerm(var, e, e))
    return terms


def lambda_max_problem(c):
    """min t s.t. tI - C >= 0; optimum is lambda_max(C), and the dual block X
    is a density matrix with tr(CX) = lambda_max(C)."""
    side = c.shape[0]
    return sdp.SdpProblem(
        variables=[sdp.SdpVariable("t", 1)],
        objective={"t": np.array([[1.0]])},
        psd_constraints=[sdp.PsdConstraint(-c, scalar_times_identity_terms("t", side))],
        maximize=False,
    )


class TestLambdaMaxPrograms:
    def test_trivial_diag(self):
        sol = sdp.solve(lambda_max_problem(np.diag([1.0, 3.0])))
        assert sol.status == "optimal"
        assert sol.primal_value == pytest.approx(3.0, abs=1e-6)
        assert sol.gap <= 1e-6

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_eigenvalue_oracle(self, seed):
        rng = np.random.default_rng(seed)
        c = random_hermitian(4, rng)
        lam = np.linalg.eigvalsh(c)[-1]
        sol = sdp.solve(lambda_max_problem(c))
        assert sol.status == "optimal"
        assert sol.primal_value == pytest.approx(lam, abs=1e-7 * max(1.0, abs(lam)) * 10)
        assert sol.gap <= 1e-6
        # the returned dual block is feasible and attains the value
        [x] = sol.dual_blocks
        assert np.allclose(x, x.conj().T, atol=1e-12)
        assert np.linalg.eigvalsh(x)[0] >= -1e-7
        assert np.trace(x).real == pytest.approx(1.0, abs=1e-7)
        assert np.trace(c @ x).real == pytest.approx(lam, abs=1e-7 * max(1.0, abs(lam)) * 10)

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_epigraph_form(self, seed):
        rng = np.random.default_rng(seed)
        c = random_hermitian(3, rng)
        lam = np.linalg.eigvalsh(c)[-1]
        sol = sdp.solve(lambda_max_problem(c))
        assert sol.status == "optimal"
        assert sol.primal_value == pytest.approx(lam, abs=1e-6)

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_epigraph_dual_block(self, kind):
        rng = np.random.default_rng(8)
        c = random_hermitian(3, rng)
        if kind == "real":
            c = c.real
        sol = sdp.solve(lambda_max_problem(c), tol=1e-7)
        assert sol.status == "optimal"
        [x] = sol.dual_blocks
        assert np.allclose(x, x.conj().T, atol=1e-12)
        assert np.linalg.eigvalsh(x)[0] >= -1e-7
        assert np.trace(x).real == pytest.approx(1.0, abs=1e-7)
        assert np.trace(c @ x).real == pytest.approx(np.linalg.eigvalsh(c)[-1], abs=1e-7)

    def test_duality_gap_certified(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            c = random_hermitian(3, rng)
            sol = sdp.solve(lambda_max_problem(c), tol=1e-7)
            assert sol.status == "optimal"
            assert sol.gap <= 1e-7 * max(1.0, abs(sol.primal_value), abs(sol.dual_value))
            # weak duality: the dual bound lies below the achieved value (min problem)
            assert sol.dual_value <= sol.primal_value + 1e-6

    def test_objective_scaling(self):
        rng = np.random.default_rng(12)
        c = random_hermitian(3, rng)
        base = sdp.solve(lambda_max_problem(c)).primal_value
        scaled = sdp.solve(lambda_max_problem(2.5 * c)).primal_value
        assert scaled == pytest.approx(2.5 * base, abs=1e-5)


class TestEmbedComplex:
    def test_pauli_y_embedding_eigs(self):
        h = np.array([[0.0, 1j], [-1j, 0.0]])
        emb = oracles.realify(h)
        assert np.allclose(np.sort(np.linalg.eigvalsh(emb)), [-1.0, -1.0, 1.0, 1.0])

    def test_real_symmetric_unchanged_up_to_doubling(self):
        s = np.array([[2.0, 1.0], [1.0, -1.0]])
        emb = oracles.realify(s)
        assert np.allclose(emb, np.block([[s, np.zeros((2, 2))], [np.zeros((2, 2)), s]]))

    def test_lambda_max_preserved(self):
        rng = np.random.default_rng(13)
        c = random_hermitian(3, rng)
        lam = np.linalg.eigvalsh(c)[-1]
        assert np.linalg.eigvalsh(oracles.realify(c))[-1] == pytest.approx(lam, abs=1e-12)

    @pytest.mark.parametrize("seed", [14, 15])
    def test_roundtrip_optimum(self, seed):
        rng = np.random.default_rng(seed)
        c = random_hermitian(3, rng)
        p = lambda_max_problem(c)
        direct = sdp.solve(p, tol=1e-7)
        embedded = sdp.solve(oracles.embed_complex(p), tol=1e-7)
        assert embedded.status == "optimal"
        assert embedded.primal_value == pytest.approx(direct.primal_value, abs=2e-7)


class TestStatuses:
    def test_infeasible(self):
        # y >= 1 and y <= 0 simultaneously
        p = sdp.SdpProblem(
            variables=[sdp.SdpVariable("y", 1)],
            objective={"y": np.array([[1.0]])},
            psd_constraints=[sdp.PsdConstraint(
                np.diag([-1.0, 0.0]),
                [sdp.PsdTerm("y", np.array([[1.0], [0.0]]), np.array([[1.0], [0.0]])),
                 sdp.PsdTerm("y", np.array([[0.0], [1.0]]), np.array([[0.0], [-1.0]]))],
            )],
        )
        sol = sdp.solve(p)
        assert sol.status != "optimal"
        assert sol.status == "infeasible"

    def test_unbounded(self):
        # max y s.t. [[y]] >= 0
        p = sdp.SdpProblem(
            variables=[sdp.SdpVariable("y", 1)],
            objective={"y": np.array([[1.0]])},
            psd_constraints=[sdp.PsdConstraint(
                np.zeros((1, 1)), [sdp.PsdTerm("y", np.eye(1), np.eye(1))])],
        )
        sol = sdp.solve(p)
        assert sol.status != "optimal"
        assert sol.status == "unbounded"

    def test_no_variables(self):
        p = sdp.SdpProblem(variables=[], objective={},
                           psd_constraints=[sdp.PsdConstraint(np.eye(2))])
        assert sdp.solve(p).status == "optimal"
        p.psd_constraints[0].constant = -np.eye(2)
        assert sdp.solve(p).status == "infeasible"

    @pytest.mark.parametrize("status", ["singular", "stalled", "numerical-error"])
    def test_early_exit(self, status, monkeypatch):
        if status == "singular":
            monkeypatch.setattr(sdp, "_factor_schur", lambda schur: None)
        elif status == "stalled":
            monkeypatch.setattr(sdp, "_cholesky", lambda a: None)
        else:
            monkeypatch.setattr(sdp, "_pair", lambda a, b: float("nan"))
        sol = sdp.solve(lambda_max_problem(np.diag([1.0, 2.0])))
        assert sol.status == status
        assert sol.iterations == 1

    def test_jitter_path_still_certifies(self, monkeypatch):
        # the first factorization of the Schur complement (the only m x m
        # matrix the solver factors) fails once, so the solve takes the jittered
        # factor and refines against the unjittered complement; both solves
        # certify to 1e-8, so their values must agree to 1e-8 whatever path
        # each takes
        problem = values.mu_pairing_program(random_game(2, 2, 1.0, np.random.default_rng(5)))
        plain = sdp.solve(problem, tol=1e-8)
        m = sum(sdp.basis_map(v).size for v in problem.variables)
        cholesky, failed = sdp._cholesky, []

        def fail_once(a):
            if a.shape == (m, m) and not failed:
                failed.append(a)
                return None
            return cholesky(a)

        monkeypatch.setattr(sdp, "_cholesky", fail_once)
        sol = sdp.solve(problem, tol=1e-8)
        assert len(failed) == 1
        assert sol.status == "optimal"
        assert sol.primal_value == pytest.approx(plain.primal_value, abs=1e-8)
        assert sol.dual_value == pytest.approx(plain.dual_value, abs=1e-8)


class TestValidation:
    def test_non_hermitian_block_rejected(self):
        bad = sdp.SdpProblem(
            variables=[sdp.SdpVariable("X", 2)],
            objective={"X": np.eye(2)},
            psd_constraints=[sdp.PsdConstraint(
                np.zeros((2, 2)),
                [sdp.PsdTerm("X", np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]))])],
        )
        with pytest.raises(sdp.SdpError):
            sdp.solve(bad)

    def test_map_needs_hermitian_values_on_its_domain_only(self):
        # X -> i X_00 vanishes on off-diagonal X, not on Hermitian X
        p = real_only_program()
        sol = sdp.solve(p)
        assert sol.status == "optimal"
        assert sol.primal_value == pytest.approx(2.0, abs=1e-6)
        p.variables[0] = sdp.SdpVariable("X", 2)
        with pytest.raises(sdp.SdpError, match="not Hermitian-valued"):
            sdp.solve(p)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("kind", ["constant", "term", "objective"])
    def test_non_finite_data_rejected(self, kind, bad):
        p = lambda_max_problem(np.diag([1.0, 2.0]))
        data = {
            "constant": p.psd_constraints[0].constant,
            "term": p.psd_constraints[0].terms[0].left,
            "objective": p.objective["t"],
        }[kind]
        data[0, 0] = bad
        with pytest.raises(sdp.SdpError, match="not finite"):
            sdp.solve(p)

    @pytest.mark.parametrize("name", ["tol", "feas_tol"])
    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_bad_tolerance_rejected(self, name, bad):
        with pytest.raises(sdp.SdpError, match=name):
            sdp.solve(lambda_max_problem(np.diag([1.0, 2.0])), **{name: bad})

    def test_zero_iterations_allowed(self):
        # the compile-only probe: no iteration, no certificate
        sol = sdp.solve(lambda_max_problem(np.diag([1.0, 2.0])), max_iters=0)
        assert sol.status == "max-iters"
        assert sol.iterations == 0

    def test_json_dump_shape(self):
        p = lambda_max_problem(np.diag([1.0, 2.0]))
        obj = p.to_json()
        assert set(obj) == {"maximize", "variables", "objective", "psd_constraints"}
        assert obj["variables"][0]["side"] == 1
        assert obj["psd_constraints"][0]["terms"][0]["var"] == "t"


class TestHermitianData:
    def test_complex_objective_block(self):
        # max tr(CX), C with complex entries, against eigen oracle
        rng = np.random.default_rng(21)
        c = random_hermitian(3, rng)
        c = c + 1j * (c - c.T) / 2.0  # keep hermitian but exercise imag parts
        c = (c + c.conj().T) / 2.0
        sol = sdp.solve(lambda_max_problem(c))
        assert sol.status == "optimal"
        assert sol.primal_value == pytest.approx(np.linalg.eigvalsh(c)[-1], abs=1e-6)
        [x] = sol.dual_blocks
        assert np.allclose(x, x.conj().T)


def mixed_program(rng):
    """A Hermitian X of side 3 beside a Hermitian Y of side 2 in complex blocks."""
    a = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    b = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    c = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    return sdp.SdpProblem(
        variables=[sdp.SdpVariable("X", 3), sdp.SdpVariable("Y", 2)],
        objective={"X": random_hermitian(3, rng), "Y": random_hermitian(2, rng)},
        psd_constraints=[
            sdp.PsdConstraint(np.eye(3), identity_terms("X", 3)),
            sdp.PsdConstraint(np.eye(4), [sdp.PsdTerm("X", a, a), sdp.PsdTerm("Y", b, b),
                                          sdp.PsdTerm("Y", b, c), sdp.PsdTerm("Y", c, b)]),
        ],
    )


def real_only_program():
    """max Re tr([[0,1],[1,0]] X) over an off-diagonal X (side 2, split 1)
    s.t. I + X >= 0 and 1 + X_01 + X_10 + i X_00 >= 0, with optimum 2: the
    second map is real only where X_00 = 0, so it is Hermitian-valued on the
    off-diagonal domain and not on Hermitian inputs."""
    e0, e1 = np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])
    return sdp.SdpProblem(
        variables=[sdp.SdpVariable("X", 2, sdp.OFF_DIAGONAL, split=1)],
        objective={"X": np.array([[0.0, 1.0], [1.0, 0.0]])},
        psd_constraints=[
            sdp.PsdConstraint(np.eye(2), identity_terms("X", 2)),
            sdp.PsdConstraint(np.eye(1), [sdp.PsdTerm("X", e0, e1), sdp.PsdTerm("X", e1, e0),
                                          sdp.PsdTerm("X", 1j * e0, e0)]),
        ],
    )


def schur_programs():
    g = random_game(2, 2, 1.0, np.random.default_rng(31))
    u = random_game(2, 2, 1.0, np.random.default_rng(32)).m
    return {
        "pairing": values.haagerup_pairing_program(g),
        "pairing-transposed": values.haagerup_pairing_program(g, transposed=True),
        "mu": values.mu_pairing_program(g),
        "mu-witness": oracles.mu_witness_program(g),
        "norm": oracles.haagerup_norm_program(u, 2, 2),
        "mixed": mixed_program(np.random.default_rng(33)),
        "real-only": real_only_program(),
    }


def dense_basis(t):
    """The basis matrices H_j of a BasisMap, stacked."""
    mats = np.zeros((t.size, t.side, t.side), dtype=complex)
    for rows, cols, coefs in zip(t.rows, t.cols, t.coefs):
        mats[np.arange(t.size), rows, cols] += coefs
    return mats


class TestBasisMap:
    @pytest.mark.parametrize("domain,count", [(sdp.HERMITIAN, 16)])
    def test_orthonormal_basis(self, domain, count):
        t = sdp.basis_map(sdp.SdpVariable("X", 4, domain))
        mats = dense_basis(t)
        assert mats.shape == (count, 4, 4)
        assert np.allclose(mats, mats.conj().transpose(0, 2, 1))
        flat = mats.reshape(count, -1)
        assert np.allclose((flat.conj() @ flat.T).real, np.eye(count))

    @pytest.mark.parametrize("na,nb", [(4, 4), (4, 9), (1, 3)])
    def test_off_diagonal_basis(self, na, nb):
        t = sdp.basis_map(sdp.SdpVariable("K", na + nb, sdp.OFF_DIAGONAL, split=na))
        mats = dense_basis(t)
        assert mats.shape == (2 * na * nb, na + nb, na + nb)
        assert np.allclose(mats, mats.conj().transpose(0, 2, 1))
        flat = mats.reshape(t.size, -1)
        assert np.allclose((flat.conj() @ flat.T).real, np.eye(t.size))
        assert not np.any(mats[:, :na, :na]) and not np.any(mats[:, na:, na:])

    @pytest.mark.parametrize("domain,split", [(sdp.OFF_DIAGONAL, None), (sdp.OFF_DIAGONAL, 0),
                                              (sdp.OFF_DIAGONAL, 4), (sdp.HERMITIAN, 2)])
    def test_split_only_inside_an_off_diagonal_variable(self, domain, split):
        with pytest.raises(sdp.SdpError, match="split"):
            sdp.basis_map(sdp.SdpVariable("K", 4, domain, split=split))

    def test_matrix_and_traces(self):
        rng = np.random.default_rng(35)
        t = sdp.basis_map(sdp.SdpVariable("X", 3))
        mats = dense_basis(t)
        y = rng.standard_normal(t.size)
        assert np.allclose(t.matrix(y), np.tensordot(y, mats, axes=1))
        h = random_hermitian(3, rng)
        assert np.allclose(t.traces(h), [np.trace(m @ h).real for m in mats])


def dense_operator(problem):
    """G_cj = sum_t A_t H_j B_t^dag over the terms of H_j's variable: one list
    of blocks c per full parameter j."""
    gmats = []
    for var in problem.variables:
        for h in dense_basis(sdp.basis_map(var)):
            gmats.append([sum((t.left @ h @ t.right.conj().T for t in con.terms
                               if t.var == var.name), np.zeros(con.constant.shape))
                          for con in problem.psd_constraints])
    return gmats


def random_blocks(problem, rng):
    """A random Hermitian PD matrix for every PSD block."""
    out = []
    for con in problem.psd_constraints:
        f = rng.standard_normal(con.constant.shape) + 1j * rng.standard_normal(con.constant.shape)
        out.append(f @ f.conj().T + 0.1 * np.eye(f.shape[0]))
    return out


PROGRAMS = ["pairing", "pairing-transposed", "mu", "mu-witness", "norm", "mixed", "real-only"]


class TestSchurAssembly:
    @pytest.mark.parametrize("name", PROGRAMS)
    def test_matches_dense_reference(self, name):
        problem = schur_programs()[name]
        lmi = sdp._compile(problem)
        w_blk = random_blocks(problem, np.random.default_rng(34))
        gmats = dense_operator(problem)
        dense = np.array([[sum(np.trace(gi @ w @ gj @ w).real
                               for gi, gj, w in zip(row, col, w_blk))
                           for col in gmats] for row in gmats])
        schur = lmi.schur(w_blk)
        assert schur.shape == dense.shape
        assert np.linalg.norm(schur - dense) <= 1e-12 * np.linalg.norm(dense)


class TestBlockOperator:
    # mixed sides in one block ("mixed": X of side 3 beside Y of side 2), one
    # variable in two blocks ("mu"'s K), a map Hermitian-valued on off-diagonal
    # inputs only ("real-only")
    @pytest.mark.parametrize("name", PROGRAMS)
    def test_apply_matches_dense_reference(self, name):
        problem = schur_programs()[name]
        lmi = sdp._compile(problem)
        z = np.random.default_rng(36).standard_normal(lmi.g.size)
        gmats = dense_operator(problem)
        dense = [sum(yj * row[c] for yj, row in zip(z, gmats))
                 for c in range(len(problem.psd_constraints))]
        for got, want in zip(lmi.apply(z), dense):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("name", PROGRAMS)
    def test_adjoint_matches_dense_reference(self, name):
        problem = schur_programs()[name]
        lmi = sdp._compile(problem)
        mats = random_blocks(problem, np.random.default_rng(37))
        dense = np.array([sum(np.trace(g @ m).real for g, m in zip(row, mats))
                          for row in dense_operator(problem)])
        assert np.linalg.norm(lmi.adjoint(mats) - dense) <= 1e-12 * np.linalg.norm(dense)

    @pytest.mark.parametrize("name", PROGRAMS)
    def test_adjoint_identity(self, name):
        problem = schur_programs()[name]
        lmi = sdp._compile(problem)
        rng = np.random.default_rng(38)
        z = rng.standard_normal(lmi.g.size)
        mats = [random_hermitian(con.constant.shape[0], rng) for con in problem.psd_constraints]
        applied = lmi.apply(z)
        lhs = sum(np.trace(a @ m).real for a, m in zip(applied, mats))
        adj = lmi.adjoint(mats)
        scale = (sum(np.linalg.norm(a) * np.linalg.norm(m) for a, m in zip(applied, mats))
                 + np.linalg.norm(z) * np.linalg.norm(adj))
        assert abs(lhs - z @ adj) <= 1e-12 * scale


class TestLowerInverse:
    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("side", [1, 31, 32, 33, 65, 198])
    def test_inverts_by_halves(self, side, dtype):
        # sides on both sides of the leaf, and the m of a 3x3 mu solve
        rng = np.random.default_rng(side)
        f = rng.standard_normal((side, side)).astype(dtype)
        if dtype is complex:
            f += 1j * rng.standard_normal((side, side))
        l = np.linalg.cholesky(f @ f.conj().T / side + np.eye(side))
        li = sdp._lower_inverse(l)
        assert np.linalg.norm(l @ li - np.eye(side)) <= 1e-12 * side


def random_pd(side, rng):
    f = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    return f @ f.conj().T / side + 0.1 * np.eye(side)


class TestSecondOrder:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_dense_reference(self, seed):
        rng = np.random.default_rng(seed)
        side = 5
        x, s = random_pd(side, rng), random_pd(side, rng)
        ds = random_hermitian(side, rng)
        s_chol = sdp._cholesky(s)
        w, g_hat, d = sdp._nt_scaling(x, s_chol)
        corr, p_step, d_step = sdp._second_order(g_hat, d, ds)
        assert np.linalg.norm(w @ s @ w - x) <= 1e-10 * np.linalg.norm(x)

        # the predictor's dX, and both directions in the scaled space of G
        dx = -x - w @ ds @ w
        g = g_hat * d
        gi = np.linalg.inv(g)
        v = g.conj().T @ s @ g
        assert np.allclose(v, gi @ x @ gi.conj().T)
        dx_t = gi @ dx @ gi.conj().T
        ds_t = g.conj().T @ ds @ g
        # V Y + Y V = dX~ dS~ + dS~ dX~ through the Kronecker form of the row-major vec
        eye = np.eye(side)
        lhs = np.kron(v, eye) + np.kron(eye, v.T)
        y = np.linalg.solve(lhs, (dx_t @ ds_t + ds_t @ dx_t).reshape(-1)).reshape(side, side)
        assert np.linalg.norm(g @ y @ g.conj().T - corr) <= 1e-10

        assert d_step == pytest.approx(sdp._max_step(s_chol, ds), rel=1e-10)
        assert p_step == pytest.approx(sdp._max_step(sdp._cholesky(x), dx), rel=1e-10)
        assert sdp._second_order(g_hat, d, random_pd(side, rng))[2] == np.inf
