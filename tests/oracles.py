"""Second routes that the tests check the package's SDPs against.

None of these is used by a command or a value function:

- ``brute_force_haagerup`` minimizes over explicit decompositions
  u = sum A_i (x) B_i with scipy's optimizers, independent of any SDP;
- ``haagerup_norm_program`` and ``haagerup_norm`` certify the Haagerup norm
  of a given witness u on the witness side, from the same cap builders as
  the package's pairing programs;
- ``mu_witness_program`` is the witness side of the symmetrized norm, whose
  split dual the package solves;
- ``realify`` and ``embed_complex`` turn a complex program into the
  equivalent one with real data on variables of twice the side, so the
  solver can be run on both.
"""

from __future__ import annotations

import numpy as np

from rankonegames import linalg as la
from rankonegames import sdp
from rankonegames.sdp import PsdConstraint, PsdTerm, SdpProblem, SdpVariable
from rankonegames.games import RankOneGame
from rankonegames.values import (
    DEFAULT_SDP_TOL,
    _cap_rows,
    _leg_trace_rows,
    _pairing_objective,
    _placement,
    _require_optimal,
)


def _trace_cap_terms(var: str, rows):
    """Terms for -sum_k e_k X e_k^dag, the negated partial trace of the rows."""
    return [sdp.PsdTerm(var, -row, row) for row in rows]


# -- witness-side Haagerup norm ---------------------------------------------------

def haagerup_norm_program(u: np.ndarray, d_a: int, d_b: int,
                          transposed: bool = False) -> sdp.SdpProblem:
    """min (alpha + beta)/2 certifying the Haagerup norm of a witness u."""
    ru = la.realign(la.as_matrix(u, d_a * d_b, d_a * d_b), d_a, d_b)
    f0 = 2.0 * _pairing_objective(ru.conj(), d_a, d_b)
    place_a, place_b = _placement(d_a, d_b, "A"), _placement(d_a, d_b, "B")
    big = sdp.PsdConstraint(f0, [
        sdp.PsdTerm("YA", place_a, place_a),
        sdp.PsdTerm("YB", place_b, place_b),
    ], name="gram-block")

    def scalar_eye(var, d):
        return [sdp.PsdTerm(var, e[:, None], e[:, None]) for e in np.eye(d)]

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
        maximize=False,
    )


def haagerup_norm(u: np.ndarray, d_a: int, d_b: int, tol: float = DEFAULT_SDP_TOL,
                  transposed: bool = False) -> tuple[float, float]:
    """(achieved, certified lower bound) for the witness-side Haagerup norm."""
    sol = sdp.solve(haagerup_norm_program(u, d_a, d_b, transposed=transposed), tol=tol)
    _require_optimal(sol, "haagerup norm")
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
        sdp.PsdTerm("Z", eye, eye),
        sdp.PsdTerm("Z", -proj_a, proj_a),
        sdp.PsdTerm("Z", -proj_b, proj_b),
        sdp.PsdTerm("TA", place_a, place_a),
        sdp.PsdTerm("TB", place_b, place_b),
    ]
    constraints = [
        sdp.PsdConstraint(np.zeros((s, s)), [sdp.PsdTerm("Z", eye, eye)], name="witness-psd-h"),
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
    )


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
    uu, sv, vdag = la.svd(ru)
    r = int(np.sum(sv > rank_cut * max(1.0, sv[0] if sv.size else 0.0)))
    if r == 0:
        return 0.0, [], []
    a0 = uu[:, :r] * np.sqrt(sv[:r])
    b0 = (np.sqrt(sv[:r])[:, None]) * vdag[:r, :]

    def cost(params):
        l = _params_to_lower(params, r)
        s_mat = l @ l.conj().T + 1e-12 * np.eye(r)
        ya = la.trace_second(a0 @ s_mat @ a0.conj().T, d_a, d_a)
        yb_core = np.linalg.solve(s_mat, b0)
        yb = la.trace_first(b0.conj().T @ yb_core, d_b, d_b)
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
    value = la.row_block_norm(mats_a) * la.column_block_norm(mats_b)
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
            terms=[PsdTerm(t.var, realify(t.left), realify(t.right)) for t in c.terms],
            name=c.name,
        )
        for c in p.psd_constraints
    ]
    return SdpProblem(variables, objective, constraints, p.maximize)
