"""Second routes that the tests check the package's SDPs against.

None of these is used by a command or a value function:

- ``row_block_norm``, ``column_block_norm``, ``cb_norm_c_to_r``,
  ``operator_norm``, ``basis_ket``, ``ketbra`` and ``random_hermitian``
  are the explicit norms, vectors and matrices that ``brute_force_haagerup``
  and the tests use;
- ``partial_trace`` is the partial trace that ``brute_force_haagerup``
  takes, an einsum over one factor, apart from the witness check's own;
- ``brute_force_haagerup`` minimizes over explicit decompositions
  u = sum A_i (x) B_i with scipy's optimizers, independent of any SDP;
- ``haagerup_norm_program`` and ``haagerup_norm`` certify the Haagerup norm
  of a given witness u on the witness side.  Their cap rows and block
  placements are Kronecker row maps built here, so they share no builder
  with the package's pairing programs, whose cap columns are index
  selections of an identity.  ``haagerup_norm`` checks the solver status
  itself, so it shares no checker with the package's certify path either;
- ``mu_witness_program`` is the witness side of the symmetrized norm, whose
  split dual the package solves;
- ``realify`` and ``embed_complex`` turn a complex program into the
  equivalent one with real data on variables of twice the side, so the
  solver can be run on both;
- ``win_prob_entangled`` and ``win_prob_oneway`` play a strategy on a game
  purification (psi, gamma) and project onto gamma, where the package
  contracts the game matrix M instead;
- ``iterated_kron`` tensors factor by factor with ``np.kron``, each step
  regrouped by index arithmetic, where ``games.regrouped_kron`` takes one
  ``np.kron`` chain and one reshape and transpose.
"""

from __future__ import annotations

import math

import numpy as np

from rankonegames import linalg as la
from rankonegames import sdp
from rankonegames.sdp import DEFAULT_TOL, PsdConstraint, PsdTerm, SdpProblem, SdpVariable
from rankonegames.games import GamePurification, RankOneGame
from rankonegames.strategies import (
    PROB_SLACK,
    EntangledStrategy,
    OneWayStrategy,
    StrategyError,
)
from rankonegames.values import CalculationError, _pairing_objective


def _leg_trace_rows(d: int, leg: int):
    """Row maps whose conjugation sum gives tr_leg on a pair-indexed side d^2."""
    rows = []
    for k in range(d):
        ek = np.zeros((1, d))
        ek[0, k] = 1.0
        rows.append(np.kron(np.eye(d), ek) if leg == 2 else np.kron(ek, np.eye(d)))
    return rows


def _placement(d_a: int, d_b: int, side: str) -> np.ndarray:
    """Isometry onto the upper-left ("A", pairs (a, a')) or lower-right
    ("B", pairs (b, b')) diagonal block of a Z of side dA^2 + dB^2."""
    eye = np.eye(d_a * d_a + d_b * d_b)
    return eye[:, : d_a * d_a] if side == "A" else eye[:, d_a * d_a:]


def _cap_rows(d_a: int, d_b: int, side: str, leg: int):
    """Rows e_k with sum_k e_k Z e_k^dag = tr_leg of one diagonal block of Z.

    leg 1 traces the first pair index, leg 2 the second.
    """
    place = _placement(d_a, d_b, side)
    return [row @ place.T for row in _leg_trace_rows(d_a if side == "A" else d_b, leg)]


def partial_trace(y: np.ndarray, d: int, leg: int) -> np.ndarray:
    """tr_leg of a matrix on C^d (x) C^d: leg 1 traces the first factor."""
    return np.einsum("kikj->ij" if leg == 1 else "ikjk->ij", y.reshape(d, d, d, d))


def _trace_cap_terms(var: str, rows):
    """Terms for -sum_k e_k X e_k^dag, the negated partial trace of the rows."""
    return [sdp.PsdTerm(var, row, -1) for row in rows]


# -- witness-side Haagerup norm ---------------------------------------------------

def haagerup_norm_program(u: np.ndarray, d_a: int, d_b: int,
                          transposed: bool = False) -> sdp.SdpProblem:
    """min (alpha + beta)/2 certifying the Haagerup norm of a witness u."""
    ru = la.realign(la.as_matrix(u, d_a * d_b, d_a * d_b), d_a, d_b)
    f0 = 2.0 * _pairing_objective(ru.conj(), d_a, d_b)
    place_a, place_b = _placement(d_a, d_b, "A"), _placement(d_a, d_b, "B")
    big = sdp.PsdConstraint(f0, [
        sdp.PsdTerm("YA", place_a),
        sdp.PsdTerm("YB", place_b),
    ], name="gram-block")

    def scalar_eye(var, d):
        return [sdp.PsdTerm(var, e[:, None]) for e in np.eye(d)]

    legs = (1, 2) if transposed else (2, 1)
    cap_a_terms = scalar_eye("alpha", d_a) + _trace_cap_terms("YA", _leg_trace_rows(d_a, legs[0]))
    cap_b_terms = scalar_eye("beta", d_b) + _trace_cap_terms("YB", _leg_trace_rows(d_b, legs[1]))
    return sdp.SdpProblem(
        variables=[sdp.SdpVariable("YA", d_a * d_a), sdp.SdpVariable("YB", d_b * d_b),
                   sdp.SdpVariable("alpha", 1), sdp.SdpVariable("beta", 1)],
        objective={"alpha": np.array([[0.5]]), "beta": np.array([[0.5]])},
        psd_constraints=[
            big,
            sdp.PsdConstraint(np.zeros((d_a, d_a)), cap_a_terms, name="alice-cap"),
            sdp.PsdConstraint(np.zeros((d_b, d_b)), cap_b_terms, name="bob-cap"),
        ],
    )


def haagerup_norm(u: np.ndarray, d_a: int, d_b: int, tol: float = DEFAULT_TOL,
                  transposed: bool = False) -> tuple[float, float]:
    """(achieved, certified lower bound) for the witness-side Haagerup norm."""
    sol = sdp.solve(haagerup_norm_program(u, d_a, d_b, transposed=transposed), tol=tol)
    if sol.status != "optimal":
        raise CalculationError(f"haagerup norm: solver returned status {sol.status!r} "
                               f"after {sol.iterations} iterations")
    return float(sol.primal_value), float(sol.dual_value)


# -- witness-side symmetrized norm ------------------------------------------------

def mu_witness_program(g: RankOneGame) -> sdp.SdpProblem:
    """max Re <M, u> with one witness feasible for both Haagerup programs.

    The diagonal blocks of Z are the Grams of the plain program.  The
    transposed program shares Z's off-diagonal block, kept as
    Z - Pi_A Z Pi_A - Pi_B Z Pi_B, and has its own Grams TA and TB.
    """
    d_a, d_b = g.d_a, g.d_b
    s = d_a * d_a + d_b * d_b
    rm = la.realign(g.m, d_a, d_b)
    eye = np.eye(s)
    place_a, place_b = _placement(d_a, d_b, "A"), _placement(d_a, d_b, "B")
    proj_a, proj_b = place_a @ place_a.T, place_b @ place_b.T
    transposed_block = [
        sdp.PsdTerm("Z", eye),
        sdp.PsdTerm("Z", proj_a, -1),
        sdp.PsdTerm("Z", proj_b, -1),
        sdp.PsdTerm("TA", place_a),
        sdp.PsdTerm("TB", place_b),
    ]
    constraints = [
        sdp.PsdConstraint(np.zeros((s, s)), [sdp.PsdTerm("Z", eye)], name="witness-psd-h"),
        sdp.PsdConstraint(np.zeros((s, s)), transposed_block, name="witness-psd-ht"),
        sdp.PsdConstraint(np.eye(d_a), _trace_cap_terms("Z", _cap_rows(d_a, d_b, "A", 2)),
                          name="alice-cap-h"),
        sdp.PsdConstraint(np.eye(d_b), _trace_cap_terms("Z", _cap_rows(d_a, d_b, "B", 1)),
                          name="bob-cap-h"),
        sdp.PsdConstraint(np.eye(d_a), _trace_cap_terms("TA", _leg_trace_rows(d_a, 1)),
                          name="alice-cap-ht"),
        sdp.PsdConstraint(np.eye(d_b), _trace_cap_terms("TB", _leg_trace_rows(d_b, 2)),
                          name="bob-cap-ht"),
    ]
    return sdp.SdpProblem(
        variables=[sdp.SdpVariable("Z", s), sdp.SdpVariable("TA", d_a * d_a),
                   sdp.SdpVariable("TB", d_b * d_b)],
        objective={"Z": _pairing_objective(rm, d_a, d_b)},
        psd_constraints=constraints,
        maximize=True,
    )


# -- tensor products ----------------------------------------------------------------

def iterated_kron(factors, dims) -> np.ndarray:
    """((x1 (x) x2) (x) x3) ... of vectors or square matrices on registers of
    sides dims[i], regrouped after each np.kron by moving the flat index of
    (registers so far, registers of the new factor) to the one of
    (R_0 so far, R_0 new, R_1 so far, R_1 new, ...)."""
    out, sides = factors[0], tuple(dims[0])
    for x, d in zip(factors[1:], dims[1:]):
        n = len(d)
        digits = np.unravel_index(np.arange(math.prod(sides) * math.prod(d)), sides + tuple(d))
        dest = np.ravel_multi_index([digits[j] for r in range(n) for j in (r, n + r)],
                                    [s for r in range(n) for s in (sides[r], d[r])])
        big = np.kron(out, x)
        out = np.empty_like(big)
        out[np.ix_(*[dest] * big.ndim)] = big
        sides = tuple(a * b for a, b in zip(sides, d))
    return out


# -- explicit norms -----------------------------------------------------------------

def basis_ket(dim: int, i: int) -> np.ndarray:
    """Column vector |i> of length dim."""
    v = np.zeros(dim, dtype=complex)
    v[i] = 1.0
    return v


def ketbra(dim_i: int, i: int, dim_j: int, j: int) -> np.ndarray:
    """Matrix unit |i><j| of shape (dim_i, dim_j)."""
    m = np.zeros((dim_i, dim_j), dtype=complex)
    m[i, j] = 1.0
    return m


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (z + z.conj().T) / 2.0


def operator_norm(a: np.ndarray) -> float:
    """Largest singular value."""
    s = np.linalg.svd(la.as_matrix(a), compute_uv=False)
    return float(s[0]) if s.size else 0.0


def row_block_norm(blocks) -> float:
    """|| sum_i A_i A_i* ||^(1/2) for same-size square blocks."""
    return _block_norm(blocks, row=True)


def column_block_norm(blocks) -> float:
    """|| sum_i A_i* A_i ||^(1/2) for same-size square blocks."""
    return _block_norm(blocks, row=False)


def _block_norm(blocks, row: bool) -> float:
    blocks = [la.as_matrix(b) for b in blocks]
    if not blocks:
        return 0.0
    side = blocks[0].shape
    if side[0] != side[1]:
        raise la.DimensionMismatchError("blocks must be square")
    acc = np.zeros(side, dtype=complex)
    for b in blocks:
        if b.shape != side:
            raise la.DimensionMismatchError("blocks must share one square dimension")
        acc += b @ b.conj().T if row else b.conj().T @ b
    # acc is PSD Hermitian; operator norm = top eigenvalue
    top = float(np.linalg.eigvalsh((acc + acc.conj().T) / 2.0)[-1])
    return float(np.sqrt(max(top, 0.0)))


def cb_norm_c_to_r(t: np.ndarray) -> float:
    """Completely bounded norm of T between column and row structures.

    Equals the Euclidean norm of the singular values, i.e. the Frobenius
    norm of T.
    """
    t = la.as_matrix(t)
    if t.shape[0] != t.shape[1]:
        raise la.DimensionMismatchError("expected a square matrix")
    return float(np.linalg.norm(t))


# -- brute-force cross-check ------------------------------------------------------

def brute_force_haagerup(u: np.ndarray, d_a: int, d_b: int, restarts: int = 12,
                         seed: int = 0, rank_cut: float = 1e-12):
    """Direct minimization over explicit decompositions u = sum A_i (x) B_i.

    Every rank-r factorization of the realignment R(u) = A0 T . T^-1 B0 is
    reached from the SVD by an invertible T, and the cost only depends on
    S = T T^dag, so we minimize over Cholesky factors of S with random
    restarts.  Returns (value, As, Bs); the value is evaluated through the
    explicit block norms of the decomposition, independent of any SDP.
    """
    # imported here, so that the solver's own tests run without scipy
    import scipy.optimize

    ru = la.realign(la.as_matrix(u, d_a * d_b, d_a * d_b), d_a, d_b)
    uu, sv, vdag = np.linalg.svd(ru)
    r = int(np.sum(sv > rank_cut * max(1.0, sv[0] if sv.size else 0.0)))
    if r == 0:
        return 0.0, [], []
    a0 = uu[:, :r] * np.sqrt(sv[:r])
    b0 = (np.sqrt(sv[:r])[:, None]) * vdag[:r, :]

    def cost(params):
        l = _params_to_lower(params, r)
        s_mat = l @ l.conj().T + 1e-12 * np.eye(r)
        ya = partial_trace(a0 @ s_mat @ a0.conj().T, d_a, 2)
        yb_core = np.linalg.solve(s_mat, b0)
        yb = partial_trace(b0.conj().T @ yb_core, d_b, 1)
        na = np.linalg.eigvalsh((ya + ya.conj().T) / 2)[-1]
        nb = np.linalg.eigvalsh((yb + yb.conj().T) / 2)[-1]
        return float(np.sqrt(max(na, 0.0) * max(nb, 0.0)))

    rng = np.random.default_rng(seed)
    n_params = r * r
    best_params = None
    best_val = np.inf
    for attempt in range(max(1, restarts)):
        if attempt == 0:
            x0 = _lower_to_params(np.eye(r), r)
        else:
            x0 = rng.standard_normal(n_params) * 0.7
        res = scipy.optimize.minimize(cost, x0, method="L-BFGS-B",
                                      options={"maxiter": 400})
        if res.fun < best_val:
            best_val = float(res.fun)
            best_params = res.x
    # the max-eigenvalue objective is nonsmooth; polish with a simplex pass
    polish = scipy.optimize.minimize(cost, best_params, method="Nelder-Mead",
                                     options={"maxiter": 4000, "fatol": 1e-12,
                                              "xatol": 1e-10})
    if polish.fun < best_val:
        best_val = float(polish.fun)
        best_params = polish.x
    l = _params_to_lower(best_params, r)
    s_mat = l @ l.conj().T + 1e-12 * np.eye(r)
    t = np.linalg.cholesky(s_mat)
    big_a = a0 @ t
    big_b = np.linalg.solve(t, b0)
    mats_a = [big_a[:, i].reshape(d_a, d_a) for i in range(r)]
    mats_b = [big_b[i, :].reshape(d_b, d_b) for i in range(r)]
    value = row_block_norm(mats_a) * column_block_norm(mats_b)
    return float(value), mats_a, mats_b


def _params_to_lower(params, r):
    l = np.zeros((r, r), dtype=complex)
    idx = 0
    for i in range(r):
        for j in range(i + 1):
            if i == j:
                l[i, j] = params[idx]
                idx += 1
            else:
                l[i, j] = params[idx] + 1j * params[idx + 1]
                idx += 2
    ruse = r * r
    assert idx == ruse
    return l


def _lower_to_params(l, r):
    params = np.zeros(r * r)
    idx = 0
    for i in range(r):
        for j in range(i + 1):
            if i == j:
                params[idx] = l[i, j].real
                idx += 1
            else:
                params[idx] = l[i, j].real
                params[idx + 1] = l[i, j].imag
                idx += 2
    return params


# -- complex-to-real embedding ----------------------------------------------------

def realify(m: np.ndarray) -> np.ndarray:
    """H -> [[Re H, -Im H], [Im H, Re H]]; a *-homomorphism on matrices."""
    m = np.asarray(m, dtype=complex)
    re, im = m.real, m.imag
    return np.block([[re, -im], [im, re]])


def embed_complex(p: SdpProblem) -> SdpProblem:
    """A program with real data and the same optimum as the complex one.

    Every variable becomes a Hermitian variable of twice the side, and the
    data go through H -> [[Re H, -Im H],[Im H, Re H]]; objective
    coefficients pick up a factor 1/2 because the embedding doubles traces.
    The embedding of a feasible point is feasible with the same objective,
    since PSD is preserved in both directions.  Conversely, the data are
    real, so the complex conjugate of a feasible point is feasible with the
    same objective, and so is its conjugation by J = [[0,-I],[I,0]], which
    commutes with every embedded matrix.  Averaging a feasible point with
    its conjugate and then with its J-conjugate gives a real point that
    commutes with J, which is an embedded point, with the same objective:
    so the optima agree.
    """
    variables = [SdpVariable(v.name, 2 * v.side) for v in p.variables]
    objective = {k: realify(c) / 2.0 for k, c in p.objective.items()}
    constraints = [
        PsdConstraint(
            constant=realify(c.constant),
            terms=[PsdTerm(t.var, realify(t.left), t.sign) for t in c.terms],
            name=c.name,
        )
        for c in p.psd_constraints
    ]
    return SdpProblem(variables, objective, constraints, p.maximize)


# -- strategies played on a purification -----------------------------------------------

def win_prob_entangled(p: GamePurification, s: EntangledStrategy) -> float:
    """Probability that the referee accepts under entangled play."""
    s.validated(p.d_a, p.d_b)
    psi = p.psi.reshape(p.d_a, p.d_b, p.d_c)
    gamma = p.gamma.reshape(p.d_a, p.d_b, p.d_c)
    phi = np.asarray(s.phi, dtype=complex).reshape(s.d_ap, s.d_bp)
    u4 = np.asarray(s.u, dtype=complex).reshape(p.d_a, s.d_ap, p.d_a, s.d_ap)
    v4 = np.asarray(s.v, dtype=complex).reshape(p.d_b, s.d_bp, p.d_b, s.d_bp)
    state = np.einsum("abc,xy->abcxy", psi, phi)
    state = np.einsum("auiv,ibcvy->abcuy", u4, state)
    state = np.einsum("bwjz,ajcxz->abcxw", v4, state)
    out = np.einsum("abc,abcxy->xy", gamma.conj(), state)
    w = float(np.linalg.norm(out) ** 2)
    if w > 1.0 + 1e-9:
        raise StrategyError(f"win probability {w} exceeds one; inconsistent inputs")
    return min(w, 1.0 + PROB_SLACK)


def win_prob_oneway(p: GamePurification, s: OneWayStrategy) -> float:
    """Probability of acceptance when Alice may send register A' to Bob."""
    s.validated(p.d_a, p.d_b)
    psi = p.psi.reshape(p.d_a, p.d_b, p.d_c)
    gamma = p.gamma.reshape(p.d_a, p.d_b, p.d_c)
    u4 = np.asarray(s.u, dtype=complex).reshape(p.d_a, s.d_ap, p.d_a, s.d_ap)
    v4 = np.asarray(s.v, dtype=complex).reshape(p.d_b, s.d_ap, p.d_b, s.d_ap)
    state = np.zeros((p.d_a, p.d_b, p.d_c, s.d_ap), dtype=complex)
    state[:, :, :, 0] = psi
    state = np.einsum("auiv,ibcv->abcu", u4, state)
    state = np.einsum("bwjz,ajcz->abcw", v4, state)
    out = np.einsum("abc,abcx->x", gamma.conj(), state)
    w = float(np.linalg.norm(out) ** 2)
    if w > 1.0 + 1e-9:
        raise StrategyError(f"win probability {w} exceeds one; inconsistent inputs")
    return min(w, 1.0 + PROB_SLACK)
