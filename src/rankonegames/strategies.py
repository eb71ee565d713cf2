"""Player strategies valued exactly on the game matrix M, and a see-saw heuristic.

Entangled play: Alice and Bob hold ancillas A', B' in a shared state phi
and apply unitaries U on (A, A') and V on (B, B'); the referee projects
onto gamma.  One-way play: a single message register A' starts in |0>,
Alice acts on (A, A'), then Bob acts on (B, A').  Since
M = tr_C |psi><gamma|, the accepted branch left on the ancillas is
tr_AB[(U (x) V)(M (x) |phi>)], or tr_AB[V U (M (x) |0>)] one-way, so no
purification is needed.

The see-saw alternates exactly-solvable subproblems (top singular pair of
the contracted operator, then a polar update of each unitary) and returns
feasible strategies only, so its value is always a certified lower bound
on the entangled value.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg as la
from .games import TRACE_NORM_SLACK, RankOneGame

UNITARITY_TOL = 1e-9
PROB_SLACK = 1e-12


class StrategyError(ValueError):
    """Dimension mismatch or an invalid strategy description."""


def _check_unitary(u: np.ndarray, side: int, name: str) -> np.ndarray:
    try:
        u = la.as_matrix(u, side, side)
    except ValueError as exc:
        raise StrategyError(f"{name}: {exc}") from exc
    if np.linalg.norm(u.conj().T @ u - np.eye(side)) > UNITARITY_TOL * side:
        raise StrategyError(f"{name} is not unitary within tolerance")
    return u


@dataclass(frozen=True)
class EntangledStrategy:
    d_ap: int
    d_bp: int
    u: np.ndarray
    v: np.ndarray
    phi: np.ndarray

    def validated(self, d_a: int, d_b: int) -> "EntangledStrategy":
        _check_unitary(self.u, d_a * self.d_ap, "U")
        _check_unitary(self.v, d_b * self.d_bp, "V")
        phi = np.asarray(self.phi, dtype=complex).reshape(-1)
        if phi.size != self.d_ap * self.d_bp:
            raise StrategyError("phi length incompatible with ancilla dimensions")
        if abs(np.linalg.norm(phi) - 1.0) > 1e-10:
            raise StrategyError("phi is not a unit vector")
        return self


@dataclass(frozen=True)
class OneWayStrategy:
    d_ap: int
    u: np.ndarray
    v: np.ndarray

    def validated(self, d_a: int, d_b: int) -> "OneWayStrategy":
        _check_unitary(self.u, d_a * self.d_ap, "U")
        _check_unitary(self.v, d_b * self.d_ap, "V")
        return self


def _accepted(out: np.ndarray) -> float:
    """The squared norm of the referee's accepted branch, clamped to 1 + PROB_SLACK.

    A valid game has trace norm up to 1 + TRACE_NORM_SLACK, so valid play
    may win with up to its square; only more than that square plus 1e-9 of
    rounding is refused."""
    w = float(np.linalg.norm(out) ** 2)
    if w > (1.0 + TRACE_NORM_SLACK) ** 2 + 1e-9:
        raise StrategyError(f"win probability {w} exceeds one; inconsistent inputs")
    return min(w, 1.0 + PROB_SLACK)


def win_prob_entangled(g: RankOneGame, s: EntangledStrategy) -> float:
    """Probability that the referee accepts under entangled play:
    ||tr_AB[(U (x) V)(M (x) |phi>)]||^2."""
    s.validated(g.d_a, g.d_b)
    # M[(i,k),(a,b)] = sum_c psi[i,k,c] conj(gamma[a,b,c]); U[(a,x),(i,u)], V[(b,y),(k,v)]
    m4 = g.m.reshape(g.d_a, g.d_b, g.d_a, g.d_b)
    phi = np.asarray(s.phi, dtype=complex).reshape(s.d_ap, s.d_bp)
    u4 = np.asarray(s.u, dtype=complex).reshape(g.d_a, s.d_ap, g.d_a, s.d_ap)
    v4 = np.asarray(s.v, dtype=complex).reshape(g.d_b, s.d_bp, g.d_b, s.d_bp)
    um = np.einsum("axiu,ikab->xukb", u4, m4)
    return _accepted(np.einsum("xukb,bykv,uv->xy", um, v4, phi))


def win_prob_oneway(g: RankOneGame, s: OneWayStrategy) -> float:
    """Probability of acceptance when Alice may send register A' to Bob:
    ||tr_AB[V U (M (x) |0>)]||^2."""
    s.validated(g.d_a, g.d_b)
    m4 = g.m.reshape(g.d_a, g.d_b, g.d_a, g.d_b)
    u4 = np.asarray(s.u, dtype=complex).reshape(g.d_a, s.d_ap, g.d_a, s.d_ap)
    v4 = np.asarray(s.v, dtype=complex).reshape(g.d_b, s.d_ap, g.d_b, s.d_ap)
    um = np.einsum("azi,ikab->zkb", u4[:, :, :, 0], m4)
    return _accepted(np.einsum("zkb,bwkz->w", um, v4))


def identity_strategy(d_a: int, d_b: int, d_ap: int = 1, d_bp: int = 1) -> EntangledStrategy:
    """Do nothing: identity unitaries, with phi the first basis vector of A' (x) B'."""
    phi = np.zeros(d_ap * d_bp, dtype=complex)
    phi[0] = 1.0
    return EntangledStrategy(d_ap, d_bp, np.eye(d_a * d_ap, dtype=complex),
                             np.eye(d_b * d_bp, dtype=complex), phi)


def swap_unitary(n: int) -> np.ndarray:
    """The flip |i>|j> -> |j>|i> on C^n (x) C^n."""
    flip = np.eye(n * n, dtype=complex).reshape(n, n, n, n).transpose(1, 0, 2, 3)
    return flip.reshape(n * n, n * n)


NAMED_STRATEGIES = ("identity", "gc-oneway-flip", "gcr-oneway", "gcr2-swap")


def named_strategy(name: str, n: int):
    """The explicit protocols for the canonical families at parameter n.

    identity        -- do nothing (entangled, trivial ancillas)
    gc-oneway-flip  -- Alice flips A with the message register, Bob flips back
    gcr-oneway      -- the same two flips, played on the averaged game
    gcr2-swap       -- both players swap their two copies of the squared game
    """
    if n < 1:
        raise StrategyError("n must be at least 1")
    if name == "identity":
        return identity_strategy(n, n)
    if name in ("gc-oneway-flip", "gcr-oneway"):
        return OneWayStrategy(n, swap_unitary(n), swap_unitary(n))
    if name == "gcr2-swap":
        sw = swap_unitary(n)
        return EntangledStrategy(1, 1, sw, sw, np.array([1.0 + 0j]))
    raise StrategyError(f"unknown strategy {name!r}; choose from {NAMED_STRATEGIES}")


# -- see-saw lower bound -------------------------------------------------------

@dataclass
class SeesawResult:
    """The winning restart's exact value, strategy, objective trace and
    convergence, its index, and how many restarts ran: 1 when restart 0 met
    the target, the configured count otherwise."""
    value: float
    strategy: EntangledStrategy
    trace: list = field(default_factory=list)
    restart_index: int = 0
    converged: bool = False
    restarts_run: int = 1


def _transposed_coefficients(k: np.ndarray, d: int, d_anc: int) -> np.ndarray:
    """The stack K[r,(i,j),s,t] as the matrices K^T[r,(i,t),(j,s)], whose polar
    factors are the see-saw's unitary updates."""
    nr = k.shape[0]
    return k.reshape(nr, d, d, d_anc, d_anc).transpose(0, 1, 4, 2, 3).reshape(
        nr, d * d_anc, d * d_anc)


def _ascend(g: RankOneGame, d_ap: int, d_bp: int, u: np.ndarray, v: np.ndarray,
            iters: int):
    """Run the stacked restarts that start from the unitaries u[r], v[r]
    together, each until its own stopping rule.  Returns each restart's
    strategy, objective trace and convergence flag."""
    d_a, d_b = g.d_a, g.d_b
    restarts = u.shape[0]
    # M[(a,b),(c,d)] realigned as [(a,c),(b,d)]; U[(c,u),(a,v)], V[(d,w),(b,z)]
    m_ac_bd = la.realign(g.m, d_a, d_b)
    trace = np.zeros((restarts, iters))
    steps = np.full(restarts, iters)
    converged = np.zeros(restarts, dtype=bool)
    final_u, final_v = np.empty_like(u), np.empty_like(v)
    final_x = np.empty((restarts, d_ap * d_bp), dtype=complex)
    active = np.arange(restarts)
    for it in range(iters):
        nr = active.size
        # N[r,(a,c),(w,z)] = sum_{b,d} M[a,b,c,d] V[r,d,w,b,z]
        v_bd_wz = v.reshape(nr, d_b, d_bp, d_b, d_bp).transpose(0, 3, 1, 2, 4)
        n = m_ac_bd @ v_bd_wz.reshape(nr, d_b ** 2, d_bp ** 2)
        # the ancilla operator W[r,(u,w),(v,z)] = sum_{a,c} U[r,c,u,a,v] N[r,(a,c),(w,z)]
        u_uv_ac = u.reshape(nr, d_a, d_ap, d_a, d_ap).transpose(0, 2, 4, 3, 1)
        w = (u_uv_ac.reshape(nr, d_ap ** 2, d_a ** 2) @ n).reshape(nr, d_ap, d_ap, d_bp, d_bp)
        wl, _, wr = np.linalg.svd(
            w.transpose(0, 1, 3, 2, 4).reshape(nr, d_ap * d_bp, d_ap * d_bp))
        yc = wl[:, :, 0].conj().reshape(nr, 1, d_ap, d_bp)
        x = wr[:, 0, :].conj()
        xg = x.reshape(nr, 1, d_ap, d_bp)
        # <y|W|x> = Re tr(U K_U^T), with K_U[r,c,u,a,v] = (conj(Y) N[r,(a,c)] X^T)[u,v]
        k_u = yc @ n.reshape(nr, d_a ** 2, d_bp, d_bp) @ xg.swapaxes(-1, -2)
        u, _ = la.polar_maximizer(_transposed_coefficients(k_u, d_a, d_ap))
        # the same for V with the new U: K_V[r,d,w,b,z] = (Y^H L[r,(b,d)] X)[w,z],
        # L[r,(b,d),(u,v)] = sum_{a,c} M[a,b,c,d] U[r,c,u,a,v]
        u_ac_uv = u.reshape(nr, d_a, d_ap, d_a, d_ap).transpose(0, 3, 1, 2, 4)
        lu = m_ac_bd.T @ u_ac_uv.reshape(nr, d_a ** 2, d_ap ** 2)
        k_v = yc.swapaxes(-1, -2) @ lu.reshape(nr, d_b ** 2, d_ap, d_ap) @ xg
        v, val = la.polar_maximizer(_transposed_coefficients(k_v, d_b, d_bp))
        trace[active, it] = val ** 2
        stop = np.zeros(nr, dtype=bool)
        if it >= 10:
            last = trace[active, it]
            stop = last - trace[active, it - 10] <= 1e-9 * np.maximum(1.0, np.abs(last))
            converged[active[stop]] = True
        if it == iters - 1:
            stop[:] = True
        if stop.any():
            done = active[stop]
            final_u[done], final_v[done], final_x[done] = u[stop], v[stop], x[stop]
            steps[done] = it + 1
            active, u, v = active[~stop], u[~stop], v[~stop]
            if not active.size:
                break
    strats = [EntangledStrategy(d_ap, d_bp, final_u[r], final_v[r],
                                final_x[r] / np.linalg.norm(final_x[r]))
              for r in range(restarts)]
    traces = [trace[r, :steps[r]].tolist() for r in range(restarts)]
    return strats, traces, converged.tolist()


def seesaw_lower_bound(g: RankOneGame, d_ap: int | None = None, d_bp: int | None = None,
                       restarts: int = 20, iters: int = 200, seed: int = 0,
                       target: float | None = None) -> SeesawResult:
    """Heuristic block-coordinate ascent over unitaries and ancilla vectors.

    Alternates: (a) the top singular pair of the contracted ancilla
    operator, (b) a polar update of U with everything else fixed, (c) the
    same for V.  Each subproblem is solved exactly, so the per-iteration
    objective is nondecreasing.  A restart stops once its objective has
    gained at most 1e-9 (relative, above 1) over ten iterations, or after
    `iters` iterations.  Each restart's value re-evaluates its strategy
    exactly through win_prob_entangled, so it is a certified lower bound.

    Restart 0 runs first and alone, from identity unitaries, and draws
    nothing from the seed.  If a target is given and restart 0's value is
    at least the target, the call returns restart 0 with restarts_run 1.
    Otherwise restarts 1 .. restarts-1 draw Haar-random U, then V, from the
    seed, and advance together as one stacked batch, each by its own
    stopping rule.  The winner is then the lowest-index restart whose value
    is within 1e-13 (relative, above 1) of the best, and the result reports
    that restart's own value, strategy, trace and convergence.
    """
    if d_ap is None:
        d_ap = g.d_a
    if d_bp is None:
        d_bp = g.d_b
    if d_ap < 1 or d_bp < 1:
        raise StrategyError("ancilla dimensions must be at least 1")
    if restarts < 1 or iters < 1:
        raise StrategyError("restarts and iters must be at least 1")
    if seed < 0:
        raise StrategyError(f"seed must be non-negative, not {seed}")
    strats, traces, converged = _ascend(
        g, d_ap, d_bp, np.eye(g.d_a * d_ap, dtype=complex)[None],
        np.eye(g.d_b * d_bp, dtype=complex)[None], iters)
    wins = [win_prob_entangled(g, strats[0])]
    if restarts > 1 and (target is None or wins[0] < target):
        rng = np.random.default_rng(seed)
        us, vs = [], []
        for _ in range(1, restarts):
            us.append(la.random_unitary(g.d_a * d_ap, rng))
            vs.append(la.random_unitary(g.d_b * d_bp, rng))
        more_strats, more_traces, more_converged = _ascend(
            g, d_ap, d_bp, np.stack(us), np.stack(vs), iters)
        strats += more_strats
        traces += more_traces
        converged += more_converged
        wins += [win_prob_entangled(g, s) for s in more_strats]
    wins = np.array(wins)
    best = wins.max()
    # restarts that reach the same optimum differ by rounding noise
    r = int(np.flatnonzero(wins >= best - 1e-13 * max(1.0, abs(best)))[0])
    return SeesawResult(value=float(wins[r]), strategy=strats[r], trace=traces[r],
                        restart_index=r, converged=bool(converged[r]),
                        restarts_run=len(strats))


# -- strategy files -------------------------------------------------------------

def strategy_to_json(s) -> dict:
    if isinstance(s, EntangledStrategy):
        return {
            "kind": "entangled",
            "dAp": s.d_ap, "dBp": s.d_bp,
            "U": la.matrix_to_json(np.asarray(s.u, dtype=complex)),
            "V": la.matrix_to_json(np.asarray(s.v, dtype=complex)),
            "phi": la.vector_to_json(np.asarray(s.phi, dtype=complex)),
        }
    if isinstance(s, OneWayStrategy):
        return {
            "kind": "oneway",
            "dAp": s.d_ap,
            "U": la.matrix_to_json(np.asarray(s.u, dtype=complex)),
            "V": la.matrix_to_json(np.asarray(s.v, dtype=complex)),
        }
    raise StrategyError(f"cannot serialize {type(s).__name__}")


def strategy_from_json(obj: dict):
    """The strategy of a strategy file; malformed content raises StrategyError."""
    try:
        kind = obj.get("kind")
        if kind == "entangled":
            return EntangledStrategy(
                la.json_int(obj["dAp"]), la.json_int(obj["dBp"]),
                la.matrix_from_json(obj["U"]), la.matrix_from_json(obj["V"]),
                la.vector_from_json(obj["phi"]))
        if kind == "oneway":
            return OneWayStrategy(
                la.json_int(obj["dAp"]), la.matrix_from_json(obj["U"]), la.matrix_from_json(obj["V"]))
    except KeyError as exc:
        raise StrategyError(f"strategy JSON is missing key {exc}") from exc
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise StrategyError(f"malformed strategy JSON: {exc}") from exc
    raise StrategyError(f"unknown strategy kind {kind!r}")
