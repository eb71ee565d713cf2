"""Player strategies against a game purification, and a see-saw heuristic.

Entangled play: Alice and Bob hold ancillas A', B' in a shared state phi
and apply unitaries U on (A, A') and V on (B, B'); the referee projects
onto gamma.  One-way play: a single message register A' starts in |0>,
Alice acts on (A, A'), then Bob acts on (B, A').

The see-saw alternates exactly-solvable subproblems (top singular pair of
the contracted operator, then a polar update of each unitary) and returns
feasible strategies only, so its value is always a certified lower bound
on the entangled value.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg as la
from .games import GamePurification, RankOneGame, purify

UNITARITY_TOL = 1e-9
PROB_SLACK = 1e-12


class StrategyError(ValueError):
    """Dimension mismatch or an invalid strategy description."""


def _check_unitary(u: np.ndarray, side: int, name: str) -> np.ndarray:
    u = la.as_matrix(u, side, side)
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


def swap_unitary(n: int) -> np.ndarray:
    """The flip |i>|j> -> |j>|i> on C^n (x) C^n."""
    s = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            s[j * n + i, i * n + j] = 1.0
    return s


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
        return EntangledStrategy(1, 1, np.eye(n, dtype=complex), np.eye(n, dtype=complex),
                                 np.array([1.0 + 0j]))
    if name in ("gc-oneway-flip", "gcr-oneway"):
        return OneWayStrategy(n, swap_unitary(n), swap_unitary(n))
    if name == "gcr2-swap":
        sw = swap_unitary(n)
        return EntangledStrategy(1, 1, sw, sw, np.array([1.0 + 0j]))
    raise StrategyError(f"unknown strategy {name!r}; choose from {NAMED_STRATEGIES}")


# -- see-saw lower bound -------------------------------------------------------

@dataclass
class SeesawResult:
    value: float
    strategy: EntangledStrategy
    trace: list = field(default_factory=list)
    restart_index: int = 0
    converged: bool = False


# the see-saw's contractions; their orders depend only on the operand shapes
_CONTRACTED = "abcd,cuav,dwbz->uwvz"
_LINEARIZED_U = "abcd,dwbz,uw,vz->cuav"
_LINEARIZED_V = "abcd,cuav,uw,vz->dwbz"


def _einsum_paths(d_a, d_b, d_ap, d_bp):
    """Contraction orders of the three see-saw einsums, searched once."""
    m4 = np.empty((d_a, d_b, d_a, d_b), dtype=complex)
    u4 = np.empty((d_a, d_ap, d_a, d_ap), dtype=complex)
    v4 = np.empty((d_b, d_bp, d_b, d_bp), dtype=complex)
    xg = np.empty((d_ap, d_bp), dtype=complex)
    return {
        _CONTRACTED: np.einsum_path(_CONTRACTED, m4, u4, v4, optimize="greedy")[0],
        _LINEARIZED_U: np.einsum_path(_LINEARIZED_U, m4, v4, xg, xg, optimize="greedy")[0],
        _LINEARIZED_V: np.einsum_path(_LINEARIZED_V, m4, u4, xg, xg, optimize="greedy")[0],
    }


def _contracted_operator(m4, u, v, d_a, d_b, d_ap, d_bp, paths):
    """W = (<gamma| (x) 1)(U (x) V (x) 1)(|psi> (x) 1) on the ancillas."""
    u4 = u.reshape(d_a, d_ap, d_a, d_ap)
    v4 = v.reshape(d_b, d_bp, d_b, d_bp)
    w4 = np.einsum(_CONTRACTED, m4, u4, v4, optimize=paths[_CONTRACTED])
    return w4.reshape(d_ap * d_bp, d_ap * d_bp)


def _linearized_u(m4, v, x, y, d_a, d_b, d_ap, d_bp, paths):
    """Coefficient matrix K with objective Re tr(U K^T)."""
    v4 = v.reshape(d_b, d_bp, d_b, d_bp)
    xg = x.reshape(d_ap, d_bp)
    yg = y.reshape(d_ap, d_bp)
    k4 = np.einsum(_LINEARIZED_U, m4, v4, yg.conj(), xg, optimize=paths[_LINEARIZED_U])
    return k4.reshape(d_a * d_ap, d_a * d_ap)


def _linearized_v(m4, u, x, y, d_a, d_b, d_ap, d_bp, paths):
    u4 = u.reshape(d_a, d_ap, d_a, d_ap)
    xg = x.reshape(d_ap, d_bp)
    yg = y.reshape(d_ap, d_bp)
    k4 = np.einsum(_LINEARIZED_V, m4, u4, yg.conj(), xg, optimize=paths[_LINEARIZED_V])
    return k4.reshape(d_b * d_bp, d_b * d_bp)


def seesaw_lower_bound(g: RankOneGame, d_ap: int | None = None, d_bp: int | None = None,
                       restarts: int = 20, iters: int = 200,
                       seed: int = 0) -> SeesawResult:
    """Heuristic block-coordinate ascent over unitaries and ancilla vectors.

    Alternates: (a) the top singular pair of the contracted ancilla
    operator, (b) a polar update of U with everything else fixed, (c) the
    same for V.  Each subproblem is solved exactly, so the per-iteration
    objective is nondecreasing.  The first restart starts from identity
    unitaries; later restarts draw Haar-random ones from the given seed.
    The reported value re-evaluates the returned strategy through
    win_prob_entangled on purify(g), so it is a certified lower bound.
    """
    if d_ap is None:
        d_ap = g.d_a
    if d_bp is None:
        d_bp = g.d_b
    if d_ap < 1 or d_bp < 1:
        raise StrategyError("ancilla dimensions must be at least 1")
    rng = np.random.default_rng(seed)
    m4 = g.m.reshape(g.d_a, g.d_b, g.d_a, g.d_b)
    p = purify(g)
    paths = _einsum_paths(g.d_a, g.d_b, d_ap, d_bp)

    best = None
    for r in range(max(1, restarts)):
        if r == 0:
            u = np.eye(g.d_a * d_ap, dtype=complex)
            v = np.eye(g.d_b * d_bp, dtype=complex)
        else:
            u = la.random_unitary(g.d_a * d_ap, rng)
            v = la.random_unitary(g.d_b * d_bp, rng)
        trace = []
        converged = False
        x = y = None
        for _ in range(max(1, iters)):
            w = _contracted_operator(m4, u, v, g.d_a, g.d_b, d_ap, d_bp, paths)
            wl, ws, wr = la.svd(w)
            sigma = float(ws[0])
            y = wl[:, 0]
            x = wr[0, :].conj()
            ku = _linearized_u(m4, v, x, y, g.d_a, g.d_b, d_ap, d_bp, paths)
            u, _ = la.polar_maximizer(ku.T)
            kv = _linearized_v(m4, u, x, y, g.d_a, g.d_b, d_ap, d_bp, paths)
            v, val = la.polar_maximizer(kv.T)
            trace.append(float(val) ** 2)
            if len(trace) > 10:
                window = trace[-11:]
                if window[-1] - window[0] <= 1e-9 * max(1.0, abs(window[-1])):
                    converged = True
                    break
        strat = EntangledStrategy(d_ap, d_bp, u, v, x / np.linalg.norm(x))
        value = win_prob_entangled(p, strat)
        if best is None or value > best.value + 1e-15:
            best = SeesawResult(value=value, strategy=strat, trace=trace,
                                restart_index=r, converged=converged)
    return best


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
    kind = obj.get("kind")
    if kind == "entangled":
        return EntangledStrategy(
            int(obj["dAp"]), int(obj["dBp"]),
            la.matrix_from_json(obj["U"]), la.matrix_from_json(obj["V"]),
            la.vector_from_json(obj["phi"]))
    if kind == "oneway":
        return OneWayStrategy(
            int(obj["dAp"]), la.matrix_from_json(obj["U"]), la.matrix_from_json(obj["V"]))
    raise StrategyError(f"unknown strategy kind {kind!r}")
