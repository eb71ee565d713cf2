"""Certified values of rank-one games: V, the one-way SDP value, and
brackets on the entangled value.

The one-way value is the squared Haagerup norm of the game matrix on the
trace-class side.  By self-duality it is the supremum of the bilinear
pairing Re <M, u> = Re tr(M u^tr) over witnesses u contractive in the
Haagerup norm on the operator side.  That unit ball is semidefinite
representable through the realignment R(u)[(a,a'),(b,b')] = u[(a,b),(a',b')]:
a decomposition u = sum_i A_i (x) B_i is the same thing as a factorization
R(u) = A B with Gram blocks Y_A = A A^dag and Y_B = B^dag B, and the
operator-sum constraints become partial-trace caps on those Grams,

    [[Y_A, R(u)], [R(u)^dag, Y_B]] >= 0,
    tr_2 Y_A <= 1_A,  tr_1 Y_B <= 1_B.

The one-way value is solved as the Lagrange dual of this program, over
the dA^2 + dB^2 multipliers of the two caps; the dual matrix of its one
PSD block is the witness: u is read off its off-diagonal and the Grams
off its diagonal.  The transposed Haagerup norm caps the complementary
legs; CAP_LEGS holds both leg pairs.  The symmetrized norm ``mu``
constrains one witness by both programs at once, and the entangled value
then sits in [mu^2/4, mu^2].  It is solved as its split dual, the infimum
over M = M1 + M2 of ||M1||_h + ||M2||_h^t: two multiplier blocks joined by
an off-diagonal split variable.  Its two dual blocks carry the same R(u),
so its witness is u with two Gram pairs, the plain and the transposed.
``_checked`` accepts every certificate, solved or tensored, and reads
both sides off it.  The one-way value is multiplicative on tensor
products, so ``qow_power`` values a power from the base game's
certificate, checked on the power's own program; mu is only
supermultiplicative.  The tests cross-check the block form against
brute-force minimization over explicit decompositions, against a
witness-side norm SDP and against the witness side of ``mu``, second
routes that live in ``tests/oracles.py``, and ``qow_power`` against the
direct solve.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import games
from . import linalg as la
from . import sdp
from .games import RankOneGame, SchurMatrix, game_power, regrouped_kron, schur_game
from .strategies import identity_strategy, seesaw_lower_bound, win_prob_entangled

# schur_s_search: coordinate-descent sweeps per start, random starts, grid phases
S_SEARCH_ITERS = 60
S_SEARCH_RESTARTS = 8
S_SEARCH_PHASES = 16
# schur_equivalence_check: slack of its two inequalities
SCHUR_CHAIN_SLACK = 1e-5
# _checked: the least eigenvalue sdp.solve allows the PSD blocks at an optimal
# point, DEFAULT_FEAS_TOL (1 + scale) / sqrt 2, with scale 1: every pairing
# program's objective is the identity and its |F0|_2 = |R(M)|_2 / 2 <= 1/2
PSD_SHIFT = sdp.DEFAULT_FEAS_TOL * np.sqrt(2.0)
# the partial traces (of Y_A, of Y_B) that the Haagerup caps take, then the
# transposed norm's complementary ones: tr_2 Y_A <= 1 and tr_1 Y_B <= 1 first
CAP_LEGS = ((2, 1), (1, 2))


class CalculationError(RuntimeError):
    """A solver did not certify optimality, or a witness is invalid."""


def maximal_value(g: RankOneGame) -> float:
    """Best winning probability for one player holding both registers."""
    return la.trace_norm(g.m) ** 2


# -- program construction ------------------------------------------------------

def _cap_columns(d_a: int, d_b: int, side: str, leg: int) -> list[np.ndarray]:
    """Columns E_k with sum_k E_k^tr Z E_k = tr_leg of one diagonal block of Z.

    Z has side dA^2 + dB^2; side "A" is its upper-left block, on pairs
    (a, a'), and "B" its lower-right block, on pairs (b, b').  leg 1 traces
    the first pair index, leg 2 the second.
    """
    d, start = (d_a, 0) if side == "A" else (d_b, d_a * d_a)
    i, k = np.arange(d), np.arange(d)[:, None]
    columns = np.zeros((d, d_a * d_a + d_b * d_b, d))
    columns[k, start + (i * d + k if leg == 2 else k * d + i), i] = 1.0
    return list(columns)


def _multiplier_terms(p: str, q: str, d_a: int, d_b: int, legs) -> list[sdp.PsdTerm]:
    """Terms placing the cap multipliers P (dA x dA) and Q (dB x dB) on the
    diagonal blocks through the cap columns on legs (A, B).  A block side
    dA^2 + dB^2 above games.DEFAULT_SIDE_CAP raises SdpError first."""
    side, cap = d_a * d_a + d_b * d_b, games.DEFAULT_SIDE_CAP
    if side > cap:
        raise sdp.SdpError(f"pairing program side {side} exceeds the cap {cap}")
    terms = [sdp.PsdTerm(p, col) for col in _cap_columns(d_a, d_b, "A", legs[0])]
    return terms + [sdp.PsdTerm(q, col) for col in _cap_columns(d_a, d_b, "B", legs[1])]


def _pairing_objective(rm: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """Hermitian C with tr(C Z) = Re <R(M), Z_12> for Hermitian Z."""
    s = d_a * d_a + d_b * d_b
    c = np.zeros((s, s), dtype=complex)
    c[: d_a * d_a, d_a * d_a:] = rm.conj() / 2.0
    c[d_a * d_a:, : d_a * d_a] = rm.T / 2.0
    return c


def haagerup_pairing_program(g: RankOneGame, transposed: bool = False) -> sdp.SdpProblem:
    """min tr P + tr Q over multipliers of the (transposed) Haagerup caps.

    This is the Lagrange dual of max Re <M, u> over u contractive in the
    Haagerup norm: the caps contribute P (x) 1 and 1 (x) Q through the
    cap columns, so the program has dA^2 + dB^2 real parameters and one
    PSD block.  The dual matrix of that block is an optimal witness Z,
    whose diagonal Grams have caps equal to 1.
    """
    d_a, d_b = g.d_a, g.d_b
    terms = _multiplier_terms("P", "Q", d_a, d_b, CAP_LEGS[transposed])
    c = _pairing_objective(la.realign(g.m, d_a, d_b), d_a, d_b)
    return sdp.SdpProblem(
        variables=[sdp.SdpVariable("P", d_a), sdp.SdpVariable("Q", d_b)],
        objective={"P": np.eye(d_a), "Q": np.eye(d_b)},
        psd_constraints=[sdp.PsdConstraint(-c, terms, name="multiplier-block")],
    )


def mu_pairing_program(g: RankOneGame) -> sdp.SdpProblem:
    """min tr P1 + tr Q1 + tr P2 + tr Q2 over splits of the pairing objective.

    This is the Lagrange dual of max Re <M, u> over u contractive in both
    Haagerup norms, that is, the infimum over splits M = M1 + M2 of
    ||M1||_h + ||M2||_h^t.  The plain block carries the multipliers P1, Q1
    of the plain caps and -K; the transposed block carries P2, Q2 on the
    complementary legs and K - C.  K keeps only its off-diagonal blocks,
    so the program has 2 dA^2 dB^2 + 2 (dA^2 + dB^2) real parameters.
    The dual matrices of the two blocks share their off-diagonal block
    R(u), to the solver's tolerance, and hold the plain and the transposed
    Grams.
    """
    d_a, d_b = g.d_a, g.d_b
    plain = _multiplier_terms("P1", "Q1", d_a, d_b, CAP_LEGS[0])
    transposed = _multiplier_terms("P2", "Q2", d_a, d_b, CAP_LEGS[1])
    s = d_a * d_a + d_b * d_b
    eye = np.eye(s)
    plain.append(sdp.PsdTerm("K", eye, -1))
    transposed.append(sdp.PsdTerm("K", eye))
    sides = {"P1": d_a, "Q1": d_b, "P2": d_a, "Q2": d_b}
    return sdp.SdpProblem(
        variables=[sdp.SdpVariable(name, d) for name, d in sides.items()]
        + [sdp.SdpVariable("K", s, sdp.OFF_DIAGONAL, split=d_a * d_a)],
        objective={name: np.eye(d) for name, d in sides.items()},
        psd_constraints=[
            sdp.PsdConstraint(np.zeros((s, s)), plain, name="plain-block"),
            sdp.PsdConstraint(-_pairing_objective(la.realign(g.m, d_a, d_b), d_a, d_b),
                              transposed, name="transposed-block"),
        ],
    )


# -- witnesses ------------------------------------------------------------------

@dataclass
class HaagerupWitness:
    """A witness u (dA dB x dA dB) and the Gram pairs (Y_A, Y_B) that prove
    it contractive, one pair per entry of CAP_LEGS: with each pair,
    [[Y_A, R(u)], [R(u)^dag, Y_B]] is PSD and the Grams meet the caps on
    those legs.  One pair certifies the Haagerup norm; the symmetrized
    norm's second pair certifies the transposed norm as well."""

    d_a: int
    d_b: int
    u: np.ndarray
    grams: list[tuple[np.ndarray, np.ndarray]]


def _partial_trace(y: np.ndarray, d: int, leg: int) -> np.ndarray:
    """tr_leg of a matrix on C^d (x) C^d: leg 1 traces the first factor."""
    return np.trace(y.reshape(d, d, d, d), axis1=leg - 1, axis2=leg + 1)


def haagerup_witness_check(w: HaagerupWitness, tol: float) -> bool:
    """Validate all eigenvalue conditions of the witness to tolerance: with
    each Gram pair, [[Y_A, R(u)], [R(u)^dag, Y_B]] is PSD, and the Grams
    meet their caps on the pair's CAP_LEGS."""
    ru = la.realign(w.u, w.d_a, w.d_b)
    for (y_a, y_b), legs in zip(w.grams, CAP_LEGS):
        z = np.block([[y_a, ru], [ru.conj().T, y_b]])
        if not np.linalg.eigvalsh((z + z.conj().T) / 2.0)[0] >= -tol:
            return False
        for y, d, leg in ((y_a, w.d_a, legs[0]), (y_b, w.d_b, legs[1])):
            cap = _partial_trace(y, d, leg) - np.eye(d)
            if not np.linalg.eigvalsh((cap + cap.conj().T) / 2)[-1] <= tol:
                return False
    return True


# -- value calculators -----------------------------------------------------------

@dataclass
class SdpValue:
    value: float
    bound: float
    witness: HaagerupWitness
    solution: sdp.SdpSolution


def _checked(problem: sdp.SdpProblem, g: RankOneGame, point: dict,
             witness: HaagerupWitness, tol: float, what: str) -> tuple[float, float]:
    """Accept a certificate of a pairing program of g, or raise
    CalculationError, and read its sides off what passed.

    The multipliers: every PSD constraint of ``problem`` at ``point``, plus
    PSD_SHIFT times the identity, must have a Cholesky factor.  The witness
    must pass ``haagerup_witness_check`` at 10 * tol.  Returns (value,
    bound): value = max(Re <M, u>, 0) on the witness's u, and bound =
    max(sum_v Re tr(C_v^dag X_v), 0), the objective at ``point``.
    """
    for constraint in problem.psd_constraints:
        block = constraint.block(point)
        try:
            np.linalg.cholesky(block + PSD_SHIFT * np.eye(block.shape[0]))
        except np.linalg.LinAlgError:
            raise CalculationError(f"{what}: multipliers failed validation") from None
    if not haagerup_witness_check(witness, 10.0 * tol):
        raise CalculationError(f"{what}: witness failed validation")
    value = float(np.sum(g.m * witness.u).real)
    bound = sum(float(np.trace(c.conj().T @ point[name]).real)
                for name, c in problem.objective.items())
    return max(value, 0.0), max(bound, 0.0)


def _certified(problem: sdp.SdpProblem, g: RankOneGame, tol: float, what: str) -> SdpValue:
    """Solve a pairing program of g, require status optimal, and accept the
    solution's point and the witness of its dual blocks through ``_checked``:
    u off block 0's off-diagonal, and one Gram pair off each block's
    diagonal."""
    sol = sdp.solve(problem, tol=tol)
    if sol.status != "optimal":
        raise CalculationError(f"{what}: solver returned status {sol.status!r} "
                               f"after {sol.iterations} iterations")
    na = g.d_a * g.d_a
    witness = HaagerupWitness(g.d_a, g.d_b,
                              la.unrealign(sol.dual_blocks[0][:na, na:], g.d_a, g.d_b),
                              [(z[:na, :na], z[na:, na:]) for z in sol.dual_blocks])
    return SdpValue(*_checked(problem, g, sol.assignments, witness, tol, what), witness, sol)


def qow_value(g: RankOneGame, tol: float = sdp.DEFAULT_TOL) -> SdpValue:
    """One-way value: the squared sides of the pairing program's certificate,
    accepted as in ``_certified``."""
    res = _certified(haagerup_pairing_program(g), g, tol, "one-way value")
    return SdpValue(res.value ** 2, res.bound ** 2, res.witness, res.solution)


def qow_power(g: RankOneGame, k: int, tol: float = sdp.DEFAULT_TOL) -> SdpValue:
    """One-way value of the k-fold tensor power of g, from g's certificate.

    The Haagerup norm is multiplicative (Effros & Ruan, Operator Spaces,
    2000, ch. 9; Pisier, Introduction to Operator Space Theory, 2003,
    ch. 5), so g is solved once, by ``qow_value``, and both sides of its
    certificate are tensored k-fold, each power one ``regrouped_kron``:

    - the multipliers P_k = 2^(k-1) P^(x k) and Q_k = 2^(k-1) Q^(x k), on
      one register each.  The Kronecker product of k copies of g's
      PSD block has, up to the sign of its off-diagonal, the power's block
      at (P^(x k), Q^(x k)) as a principal submatrix, but with
      2^-k R(M^(x k)) off the diagonal where the power's program has 2^-1.
      Scaling both diagonal blocks by 2^(k-1) makes up the difference, and
      this split is optimal, since tr P = tr Q at g's optimum.
    - the witness: u^(x k) and the Grams Y_A^(x k), Y_B^(x k), with their
      registers regrouped as the game's.  The value is taken on the power,
      since Re(z^k) differs from (Re z)^k when <M, u> is not real.

    Both are accepted by ``_checked`` on
    ``haagerup_pairing_program(game_power(g, k))``, which is built, but not
    solved, before the Grams are tensored, so an oversized power raises
    SdpError first.  k = 1 is ``qow_value(g)``.  ``solution`` is the solve
    of g.  mu is only supermultiplicative, so it has no such path.
    """
    base = qow_value(g, tol=tol)
    if k == 1:
        return base
    gk = game_power(g, k)
    problem = haagerup_pairing_program(gk)
    y_a, y_b = base.witness.grams[0]
    witness = HaagerupWitness(gk.d_a, gk.d_b,
                              regrouped_kron([base.witness.u], [(g.d_a, g.d_b)], k),
                              [(regrouped_kron([y_a], [(g.d_a, g.d_a)], k),
                                regrouped_kron([y_b], [(g.d_b, g.d_b)], k))])
    mult = {name: 2.0 ** (k - 1) * regrouped_kron([base.solution.assignments[name]], [(d,)], k)
            for name, d in (("P", g.d_a), ("Q", g.d_b))}
    value, bound = _checked(problem, gk, mult, witness, tol, f"one-way value of the {k}-fold power")
    return SdpValue(value ** 2, bound ** 2, witness, base.solution)


def mu_norm(g: RankOneGame, tol: float = sdp.DEFAULT_TOL) -> SdpValue:
    """Symmetrized Haagerup norm of the game matrix (not squared): the sides
    of the split program's certificate, accepted as in ``_certified``."""
    return _certified(mu_pairing_program(g), g, tol, "symmetrized norm")


# -- reports -----------------------------------------------------------------------

@dataclass
class ValueReport:
    v: float
    qow: float
    qow_bound: float
    mu: float
    mu_bound: float
    omega_star_lower: float
    omega_star_lower_provenance: str
    omega_star_upper: float
    omega_star_upper_provenance: str
    seesaw_value: float
    identity_value: float
    solver_info: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"V" if k == "v" else k: x for k, x in asdict(self).items()}


def entangled_value_bounds(g: RankOneGame, tol: float = sdp.DEFAULT_TOL, restarts: int = 20,
                           seed: int = 0) -> ValueReport:
    """Bracket the entangled value between certified lower and upper bounds.

    Lower candidates: the see-saw strategy value, the trivial identity
    strategy, and a quarter of the squared symmetrized norm.  Upper
    candidates: the squared symmetrized norm, the one-way value, and the
    maximal value.  Pessimistic solver sides are quoted throughout, and
    every provenance is recorded.  Both SDPs are solved before the
    see-saw, whose target is the least upper candidate less tol (relative,
    above 1): once restart 0 reaches it, no other restart runs.  The upper
    side is the least candidate not below the lower side; V always remains.
    ``solver_info["seesaw_restarts"]`` is the configured count and
    ``solver_info["seesaw_restarts_run"]`` the count that ran.
    """
    v = maximal_value(g)
    qres = qow_value(g, tol=tol)
    mres = mu_norm(g, tol=tol)
    qow_ub = max(qres.value, qres.bound)
    mu_lo = min(mres.value, mres.bound)
    mu_ub = max(mres.value, mres.bound)
    upper_candidates = [("mu^2", mu_ub ** 2), ("qow", qow_ub), ("V", v)]
    least = min(x for _, x in upper_candidates)

    identity_value = win_prob_entangled(g, identity_strategy(g.d_a, g.d_b))

    res = seesaw_lower_bound(g, restarts=restarts, seed=seed, target=least - tol * max(1.0, least))
    lower_candidates = [("identity", identity_value), ("mu/4", mu_lo ** 2 / 4.0),
                        ("seesaw", res.value)]
    lo_prov, lo = max(lower_candidates, key=lambda kv: kv[1])
    # an upper candidate below the lower side is refuted; V never is
    up_prov, up = min([kv for kv in upper_candidates if kv[1] >= lo] + [("V", v)],
                      key=lambda kv: kv[1])
    return ValueReport(
        v=v,
        qow=qres.value,
        qow_bound=qres.bound,
        mu=mres.value,
        mu_bound=mres.bound,
        omega_star_lower=lo,
        omega_star_lower_provenance=lo_prov,
        omega_star_upper=up,
        omega_star_upper_provenance=up_prov,
        seesaw_value=res.value,
        identity_value=identity_value,
        solver_info={
            "qow_iterations": qres.solution.iterations,
            "mu_iterations": mres.solution.iterations,
            "qow_gap": qres.solution.gap,
            "mu_gap": mres.solution.gap,
            # the heuristic is a lower bound only: ancilla dimensions are a choice
            "seesaw_ancilla": [res.strategy.d_ap, res.strategy.d_bp],
            "seesaw_restarts": restarts,
            "seesaw_restarts_run": res.restarts_run,
            "seesaw_converged": res.converged,
        },
    )


# -- Schur game quantities ----------------------------------------------------------

def schur_maximal_value(phi: SchurMatrix) -> float:
    """Maximal value of a Schur game from its multiplier alone.

    The game matrix embeds phi isometrically on the span of |i>|i>, so its
    singular values are exactly those of phi and V = trace_norm(phi)^2.
    """
    return la.trace_norm(phi.phi) ** 2


def schur_s_upper(phi: SchurMatrix, psi: np.ndarray) -> float:
    """Trace norm of an entrywise dominating witness; bounds S(G) from above.

    Requires |phi_ij| <= |psi_ij| + 1e-12 for all entries; the returned
    value squared upper-bounds both the one-way and the entangled value.
    """
    psi = la.as_matrix(psi, phi.n, phi.n)
    slack = np.abs(phi.phi) - np.abs(psi)
    if np.max(slack) > 1e-12:
        raise CalculationError(
            f"witness does not dominate the multiplier (violation {np.max(slack):.3e})")
    return la.trace_norm(psi)


def schur_s_search(phi: SchurMatrix, seed: int = 0):
    """Phase-only heuristic for the dominating-witness infimum S(G).

    Witness moduli are pinned to |phi| (so domination is automatic) and the
    entry phases are optimized by coordinate descent over a phase grid with
    random restarts.  The all-positive witness |phi| is always a candidate.
    Deterministic for a fixed seed.
    """
    n = phi.n
    moduli = np.abs(phi.phi)
    if np.all(moduli == 0.0):
        return 0.0, np.zeros((n, n), dtype=complex)
    rng = np.random.default_rng(seed)
    grid = np.exp(2j * np.pi * np.arange(S_SEARCH_PHASES) / S_SEARCH_PHASES)

    def norm_of(phases):
        return la.trace_norm(moduli * phases)

    best_phases = None
    best_val = np.inf
    starts = [np.ones((n, n), dtype=complex), np.exp(1j * np.angle(phi.phi))]
    for _ in range(S_SEARCH_RESTARTS):
        starts.append(np.exp(2j * np.pi * rng.random((n, n))))
    for start in starts:
        phases = start.copy()
        val = norm_of(phases)
        for _ in range(S_SEARCH_ITERS):
            improved = False
            for i in range(n):
                for j in range(n):
                    if moduli[i, j] == 0.0:
                        continue
                    old = phases[i, j]
                    for g in grid:
                        phases[i, j] = g
                        cand = norm_of(phases)
                        if cand < val - 1e-14:
                            val = cand
                            old = g
                            improved = True
                    phases[i, j] = old
            if not improved:
                break
        if val < best_val:
            best_val = val
            best_phases = phases.copy()
    psi = moduli * best_phases
    checked = schur_s_upper(phi, psi)
    return float(checked), psi


@dataclass
class SchurEquivalenceReport:
    n: int
    v: float
    qow: float
    qow_bound: float
    s_upper: float
    mu: float
    mu_bound: float
    qow_below_s_squared: bool
    mu_quarter_below_qow: bool


def schur_equivalence_check(phi: SchurMatrix, sdp_tol: float = sdp.DEFAULT_TOL,
                            seed: int = 0) -> SchurEquivalenceReport:
    """Testable fragments of the one-way/entangled equivalence for Schur games.

    Computes the one-way value, the best dominating-witness bound, and the
    symmetrized norm, then asserts qow <= S^2 + slack and mu^2/4 <= qow + slack,
    with slack SCHUR_CHAIN_SLACK.
    """
    g, _ = schur_game(phi)
    qres = qow_value(g, tol=sdp_tol)
    s_val, _ = schur_s_search(phi, seed=seed)
    s_val = min(s_val, la.trace_norm(phi.phi))
    mres = mu_norm(g, tol=sdp_tol)
    qow_ub = max(qres.value, qres.bound)
    mu_lo = min(mres.value, mres.bound)
    report = SchurEquivalenceReport(
        n=phi.n,
        v=maximal_value(g),
        qow=qres.value,
        qow_bound=qres.bound,
        s_upper=s_val,
        mu=mres.value,
        mu_bound=mres.bound,
        qow_below_s_squared=bool(min(qres.value, qres.bound) <= s_val ** 2 + SCHUR_CHAIN_SLACK),
        mu_quarter_below_qow=bool(mu_lo ** 2 / 4.0 <= qow_ub + SCHUR_CHAIN_SLACK),
    )
    if not report.qow_below_s_squared or not report.mu_quarter_below_qow:
        raise CalculationError(f"Schur chain violated: {report}")
    return report
