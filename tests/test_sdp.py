import json

import numpy as np
import pytest

from rankonegames import sdp, values

import oracles
from conftest import random_game


def identity_terms(var, side):
    """Terms placing the variable itself into a block: X >= 0."""
    return [sdp.PsdTerm(var, np.eye(side))]


def scalar_times_identity_terms(var, side):
    """Place t * I_side for a 1x1 variable t."""
    return [sdp.PsdTerm(var, e[:, None]) for e in np.eye(side)]


def polarized_terms(var, b, c):
    """Terms for the Hermitian-valued b X c^dag + c X b^dag, by polarization:
    ((b + c) X (b + c)^dag - (b - c) X (b - c)^dag) / 2."""
    r = 1.0 / np.sqrt(2.0)
    return [sdp.PsdTerm(var, r * (b + c)), sdp.PsdTerm(var, r * (b - c), -1)]


def lambda_max_problem(c):
    """min t s.t. tI - C >= 0; optimum is lambda_max(C), and the dual block X
    is a density matrix with tr(CX) = lambda_max(C)."""
    side = c.shape[0]
    return sdp.SdpProblem(
        variables=[sdp.SdpVariable("t", 1)],
        objective={"t": np.array([[1.0]])},
        psd_constraints=[sdp.PsdConstraint(-c, scalar_times_identity_terms("t", side))],
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
        c = oracles.random_hermitian(4, rng)
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
        c = oracles.random_hermitian(3, rng)
        lam = np.linalg.eigvalsh(c)[-1]
        sol = sdp.solve(lambda_max_problem(c))
        assert sol.status == "optimal"
        assert sol.primal_value == pytest.approx(lam, abs=1e-6)

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_epigraph_dual_block(self, kind):
        rng = np.random.default_rng(8)
        c = oracles.random_hermitian(3, rng)
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
            c = oracles.random_hermitian(3, rng)
            sol = sdp.solve(lambda_max_problem(c), tol=1e-7)
            assert sol.status == "optimal"
            assert sol.gap <= 1e-7 * max(1.0, abs(sol.primal_value), abs(sol.dual_value))
            # weak duality: the dual bound lies below the achieved value (min problem)
            assert sol.dual_value <= sol.primal_value + 1e-6

    def test_objective_scaling(self):
        rng = np.random.default_rng(12)
        c = oracles.random_hermitian(3, rng)
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
        c = oracles.random_hermitian(3, rng)
        lam = np.linalg.eigvalsh(c)[-1]
        assert np.linalg.eigvalsh(oracles.realify(c))[-1] == pytest.approx(lam, abs=1e-12)

    @pytest.mark.parametrize("seed", [14, 15])
    def test_roundtrip_optimum(self, seed):
        rng = np.random.default_rng(seed)
        c = oracles.random_hermitian(3, rng)
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
                [sdp.PsdTerm("y", np.array([[1.0], [0.0]])),
                 sdp.PsdTerm("y", np.array([[0.0], [1.0]]), -1)],
            )],
            maximize=True,
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
                np.zeros((1, 1)), [sdp.PsdTerm("y", np.eye(1))])],
            maximize=True,
        )
        sol = sdp.solve(p)
        assert sol.status != "optimal"
        assert sol.status == "unbounded"

    @pytest.mark.parametrize("constants,max_iters,status", [
        ([np.eye(2)], 200, "optimal"),
        ([np.diag([1.0, 0.0])], 200, "optimal"),
        ([-np.eye(2)], 200, "infeasible"),
        ([np.array([[1.0, 2.0], [2.0, 1.0]])], 200, "infeasible"),
        ([np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]])], 200, "infeasible"),
        ([np.eye(2)], 0, "max-iters"),
    ], ids=["identity", "singular-psd", "negative", "indefinite", "psd-and-indefinite",
            "zero-iterations"])
    def test_no_variables(self, constants, max_iters, status):
        # a program without parameters runs the same loop as any other
        p = sdp.SdpProblem(variables=[], objective={},
                           psd_constraints=[sdp.PsdConstraint(c) for c in constants])
        sol = sdp.solve(p, max_iters=max_iters)
        assert sol.status == status
        assert sol.assignments == {}
        if max_iters == 0:
            assert sol.iterations == 0

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
    @pytest.mark.parametrize("sign", [0.0, 2.0, np.eye(2)], ids=["0.0", "2.0", "matrix"])
    def test_bad_sign_rejected(self, sign):
        # a matrix is what a right factor left in the third slot becomes
        p = lambda_max_problem(np.diag([1.0, 2.0]))
        p.psd_constraints[0].terms[1].sign = sign
        with pytest.raises(sdp.SdpError, match="term for 't' in block 0 .*sign"):
            sdp.solve(p)

    def test_repeated_variable_name_rejected(self):
        # a second t would take the constraint's terms and leave the first dangling
        p = lambda_max_problem(np.diag([1.0, 2.0]))
        p.variables.append(sdp.SdpVariable("t", 1))
        with pytest.raises(sdp.SdpError, match="'t' is declared twice"):
            sdp.solve(p)

    def test_constant_that_is_not_a_matrix_rejected(self):
        p = lambda_max_problem(np.diag([1.0, 2.0]))
        p.psd_constraints.append(sdp.PsdConstraint(np.float64(1.0)))
        with pytest.raises(sdp.SdpError, match="block 1 must be square"):
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

    @pytest.mark.parametrize("name", ["tol"])
    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf, 1e-9])
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
        # a numpy integer sign serializes as a plain int
        p.psd_constraints[0].terms[0].sign = np.int64(-1)
        assert json.loads(json.dumps(p.to_json()))["psd_constraints"][0]["terms"][0]["sign"] == -1


class TestHermitianData:
    def test_complex_objective_block(self):
        # max tr(CX), C with complex entries, against eigen oracle
        rng = np.random.default_rng(21)
        c = oracles.random_hermitian(3, rng)
        c = c + 1j * (c - c.T) / 2.0  # keep hermitian but exercise imag parts
        c = (c + c.conj().T) / 2.0
        sol = sdp.solve(lambda_max_problem(c))
        assert sol.status == "optimal"
        assert sol.primal_value == pytest.approx(np.linalg.eigvalsh(c)[-1], abs=1e-6)
        [x] = sol.dual_blocks
        assert np.allclose(x, x.conj().T)

    def test_real_only_program_optimal(self):
        sol = sdp.solve(real_only_program())
        assert sol.status == "optimal"
        assert sol.primal_value == pytest.approx(2.0, abs=1e-6)

    def test_polarized_terms_apply(self):
        rng = np.random.default_rng(39)
        b, c = (rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)) for _ in range(2))
        lmi = sdp._compile(sdp.SdpProblem(
            variables=[sdp.SdpVariable("Y", 2)], objective={},
            psd_constraints=[sdp.PsdConstraint(np.zeros((4, 4)), polarized_terms("Y", b, c))]))
        z = rng.standard_normal(lmi.g.size)
        y = lmi.variable(z, 0)
        want = b @ y @ c.conj().T + c @ y @ b.conj().T
        got = lmi.apply(z)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def mixed_program(rng):
    """A Hermitian X of side 3 beside a Hermitian Y of side 2 in complex blocks."""
    a = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    b = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    c = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    return sdp.SdpProblem(
        variables=[sdp.SdpVariable("X", 3), sdp.SdpVariable("Y", 2)],
        objective={"X": oracles.random_hermitian(3, rng), "Y": oracles.random_hermitian(2, rng)},
        psd_constraints=[
            sdp.PsdConstraint(np.eye(3), identity_terms("X", 3)),
            sdp.PsdConstraint(np.eye(4), [sdp.PsdTerm("X", a), sdp.PsdTerm("Y", b)]
                              + polarized_terms("Y", b, c)),
        ],
        maximize=True,
    )


def real_only_program():
    """max Re tr([[0,1],[1,0]] X) over an off-diagonal X (side 2, split 1)
    s.t. I + X >= 0 and 1 + X_01 + X_10 >= 0, with optimum 2; the second
    block is polarized, so one of its terms is negative."""
    e0, e1 = np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])
    return sdp.SdpProblem(
        variables=[sdp.SdpVariable("X", 2, sdp.OFF_DIAGONAL, split=1)],
        objective={"X": np.array([[0.0, 1.0], [1.0, 0.0]])},
        psd_constraints=[
            sdp.PsdConstraint(np.eye(2), identity_terms("X", 2)),
            sdp.PsdConstraint(np.eye(1), polarized_terms("X", e0, e1)),
        ],
        maximize=True,
    )


def split_first_program(rng):
    """An off-diagonal K (side 4, split 1) declared before a Hermitian X
    (side 2) and an off-diagonal L (side 4, split 3), all in one 5x5 block
    with the signed terms K(+a), X(-b), L(+c), K(-c): K is the row variable
    of its pairs with X and L, and K and L have different splits."""
    def factor(cols):
        return rng.standard_normal((5, cols)) + 1j * rng.standard_normal((5, cols))

    a, b, c = factor(4), factor(2), factor(4)
    return sdp.SdpProblem(
        variables=[sdp.SdpVariable("K", 4, sdp.OFF_DIAGONAL, split=1),
                   sdp.SdpVariable("X", 2),
                   sdp.SdpVariable("L", 4, sdp.OFF_DIAGONAL, split=3)],
        objective={},
        psd_constraints=[sdp.PsdConstraint(np.eye(5), [
            sdp.PsdTerm("K", a), sdp.PsdTerm("X", b, -1),
            sdp.PsdTerm("L", c), sdp.PsdTerm("K", c, -1)])],
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
        "split-first": split_first_program(np.random.default_rng(40)),
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
        h = oracles.random_hermitian(3, rng)
        assert np.allclose(t.traces(h), [np.trace(m @ h).real for m in mats])


def dense_operator(problem):
    """G_cj = sum_t s_t A_t H_j A_t^dag over the terms of H_j's variable: one
    list of blocks c per full parameter j."""
    gmats = []
    for var in problem.variables:
        for h in dense_basis(sdp.basis_map(var)):
            gmats.append([sum((t.sign * t.left @ h @ t.left.conj().T for t in con.terms
                               if t.var == var.name), np.zeros(con.constant.shape))
                          for con in problem.psd_constraints])
    return gmats


def block_diagonal(mats):
    """Per-constraint matrices on the diagonal of one matrix, in constraint
    order, as the solver's one block holds its PSD constraints."""
    side = sum(m.shape[0] for m in mats)
    out = np.zeros((side, side), dtype=complex)
    at = 0
    for m in mats:
        out[at: at + m.shape[0], at: at + m.shape[0]] = m
        at += m.shape[0]
    return out


def random_blocks(problem, rng):
    """A random Hermitian PD matrix for every PSD block."""
    out = []
    for con in problem.psd_constraints:
        f = rng.standard_normal(con.constant.shape) + 1j * rng.standard_normal(con.constant.shape)
        out.append(f @ f.conj().T + 0.1 * np.eye(f.shape[0]))
    return out


PROGRAMS = ["pairing", "pairing-transposed", "mu", "mu-witness", "norm", "mixed", "real-only",
            "split-first"]


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
        schur = lmi.schur(block_diagonal(w_blk))
        assert schur.shape == dense.shape
        assert np.linalg.norm(schur - dense) <= 1e-12 * np.linalg.norm(dense)

    def test_pairs_that_share_no_constraint_stay_zero(self):
        # mu's P1, Q1 sit in the plain constraint and P2, Q2 in the transposed one
        problem = schur_programs()["mu"]
        lmi = sdp._compile(problem)
        schur = lmi.schur(block_diagonal(random_blocks(problem, np.random.default_rng(34))))
        assert [v.name for v in problem.variables[:4]] == ["P1", "Q1", "P2", "Q2"]
        plain, transposed = slice(0, lmi.offsets[2]), slice(lmi.offsets[2], lmi.offsets[4])
        assert np.any(schur[plain, plain]) and np.any(schur[transposed, transposed])
        assert not np.any(schur[plain, transposed]) and not np.any(schur[transposed, plain])


class TestBlockOperator:
    # mixed sides in one block ("mixed": X of side 3 beside Y of side 2), one
    # variable in two blocks ("mu"'s K), an off-diagonal variable with a
    # negative term ("real-only"), off-diagonal variables of two splits around
    # a Hermitian one ("split-first")
    @pytest.mark.parametrize("name", PROGRAMS)
    def test_apply_matches_dense_reference(self, name):
        problem = schur_programs()[name]
        lmi = sdp._compile(problem)
        z = np.random.default_rng(36).standard_normal(lmi.g.size)
        gmats = dense_operator(problem)
        dense = [sum(yj * row[c] for yj, row in zip(z, gmats))
                 for c in range(len(problem.psd_constraints))]
        got = lmi.apply(z)
        want = block_diagonal(dense)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        for rows, block in zip(lmi.slices, dense):
            assert np.linalg.norm(got[rows, rows] - block) <= 1e-12 * np.linalg.norm(block)

    @pytest.mark.parametrize("name", PROGRAMS)
    def test_adjoint_matches_dense_reference(self, name):
        problem = schur_programs()[name]
        lmi = sdp._compile(problem)
        mats = random_blocks(problem, np.random.default_rng(37))
        dense = np.array([sum(np.trace(g @ m).real for g, m in zip(row, mats))
                          for row in dense_operator(problem)])
        assert (np.linalg.norm(lmi.adjoint(block_diagonal(mats)) - dense)
                <= 1e-12 * np.linalg.norm(dense))

    @pytest.mark.parametrize("name", PROGRAMS)
    def test_adjoint_identity(self, name):
        problem = schur_programs()[name]
        lmi = sdp._compile(problem)
        rng = np.random.default_rng(38)
        z = rng.standard_normal(lmi.g.size)
        mats = [oracles.random_hermitian(con.constant.shape[0], rng) for con in problem.psd_constraints]
        applied = [lmi.apply(z)[rows, rows] for rows in lmi.slices]
        lhs = sum(np.trace(a @ m).real for a, m in zip(applied, mats))
        adj = lmi.adjoint(block_diagonal(mats))
        scale = (sum(np.linalg.norm(a) * np.linalg.norm(m) for a, m in zip(applied, mats))
                 + np.linalg.norm(z) * np.linalg.norm(adj))
        assert abs(lhs - z @ adj) <= 1e-12 * scale


def stopping_programs():
    out = dict(schur_programs())
    for seed, d in [(51, 2), (52, 2), (53, 3)]:
        g = random_game(d, d, 1.0, np.random.default_rng(seed))
        out[f"qow-{seed}"] = values.haagerup_pairing_program(g)
        out[f"mu-{seed}"] = values.mu_pairing_program(g)
    return out


# "mixed" is unbounded, so it has no optimal point
@pytest.mark.parametrize("name", [n for n in PROGRAMS if n != "mixed"]
                         + [f"{w}-{seed}" for seed in (51, 52, 53) for w in ("qow", "mu")])
def test_optimal_point_meets_the_stopping_bound(name):
    """An optimal point is PSD in every block to within the primal residual
    that the stopping test allows, DEFAULT_FEAS_TOL (1 + scale) / sqrt 2, less
    a factor sqrt 2 kept for rounding; the blocks are formed densely from the
    assignments."""
    problem = stopping_programs()[name]
    sol = sdp.solve(problem)
    assert sol.status == "optimal"
    g = [np.vdot(problem.objective[v.name], h).real for v in problem.variables
         if v.name in problem.objective for h in dense_basis(sdp.basis_map(v))]
    scale = max([1.0, *np.abs(g)] + [np.linalg.norm(con.constant, 2)
                                     for con in problem.psd_constraints])
    for con in problem.psd_constraints:
        assert np.linalg.eigvalsh(con.block(sol.assignments))[0] >= -sdp.DEFAULT_FEAS_TOL * (1.0 + scale)


@pytest.mark.parametrize("name", ["mu", "mu-witness", "norm"])
def test_dual_blocks_are_the_constraints_blocks_of_x(name):
    """Each dual block has its constraint's side, is Hermitian and PSD to the
    solver's tolerance, and together they give the dual value."""
    problem = schur_programs()[name]
    sol = sdp.solve(problem)
    assert sol.status == "optimal"
    assert len(sol.dual_blocks) == len(problem.psd_constraints)
    for x, con in zip(sol.dual_blocks, problem.psd_constraints):
        assert x.shape == con.constant.shape
        assert np.array_equal(x, x.conj().T)
        assert np.linalg.eigvalsh(x)[0] >= -1e-7
    sense = 1.0 if problem.maximize else -1.0
    want = sense * sum(np.trace(con.constant @ x).real
                       for x, con in zip(sol.dual_blocks, problem.psd_constraints))
    assert abs(sol.dual_value - want) <= 1e-12 * abs(want)


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
        ds = oracles.random_hermitian(side, rng)
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
