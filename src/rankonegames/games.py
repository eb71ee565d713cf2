"""Rank-one quantum games: representation, canonical families, purification.

A game is the matrix M on H_A (x) H_B obtained by tracing the referee's
register out of |psi><gamma|; games are exactly the trace-norm unit ball.
Basis indexing is 0-based throughout; published 1-based formulas are
translated here once and pinned by tests against their explicit entries.
``FAMILIES`` maps each canonical family's name and n to its game and
purification.  ``regrouped_kron`` alone orders the registers of every tensor
product (A1 A2 ..., B1 B2 ..., C1 C2 ...); it and every family apply the one
size cap, ``_size_rule``, before they allocate.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import linalg as la

logger = logging.getLogger(__name__)

TRACE_NORM_SLACK = 1e-9
UNIT_NORM_TOL = 1e-10
# largest off-pattern entry of a Schur game
SCHUR_PATTERN_TOL = 1e-10
# largest Frobenius distance of equal referee Gram matrices
GRAM_MATCH_TOL = 1e-8
DEFAULT_SIDE_CAP = 4096


class GameError(ValueError):
    """Invalid game data (norm budget, dimensions, or file contents)."""


@dataclass(frozen=True)
class RankOneGame:
    """M in S1(H_A) (x) S1(H_B) with trace norm at most one.

    The trace norm is taken on the support of M, the submatrix of its
    nonzero rows and columns, which has the same nonzero singular values:
    a Schur game's check is an SVD of the multiplier's side.
    """

    d_a: int
    d_b: int
    m: np.ndarray

    def __post_init__(self):
        m = la.as_matrix(self.m, self.d_a * self.d_b, self.d_a * self.d_b)
        object.__setattr__(self, "m", m)
        nonzero = m != 0
        tn = la.trace_norm(m[np.ix_(nonzero.any(axis=1), nonzero.any(axis=0))])
        if tn > 1.0 + TRACE_NORM_SLACK:
            raise GameError(f"trace norm {tn} exceeds the unit budget")


@dataclass(frozen=True)
class GamePurification:
    """Referee description (|psi>, |gamma>) on H_A (x) H_B (x) H_C."""

    d_a: int
    d_b: int
    d_c: int
    psi: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        dim = self.d_a * self.d_b * self.d_c
        psi = np.asarray(self.psi, dtype=complex).reshape(-1)
        gamma = np.asarray(self.gamma, dtype=complex).reshape(-1)
        if psi.size != dim or gamma.size != dim:
            raise GameError("state length incompatible with (dA, dB, dC)")
        for name, v in (("psi", psi), ("gamma", gamma)):
            if abs(np.linalg.norm(v) - 1.0) > UNIT_NORM_TOL:
                raise GameError(f"{name} is not a unit vector")
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "gamma", gamma)


@dataclass(frozen=True)
class SchurMatrix:
    """Multiplier matrix phi of a Schur game; needs trace norm at most one."""

    n: int
    phi: np.ndarray

    def __post_init__(self):
        phi = la.as_matrix(self.phi, self.n, self.n)
        object.__setattr__(self, "phi", phi)
        tn = la.trace_norm(phi)
        if tn > 1.0 + TRACE_NORM_SLACK:
            raise GameError(f"Schur multiplier trace norm {tn} exceeds one")


def from_states(p: GamePurification) -> RankOneGame:
    """The game tr_C |psi><gamma| = Psi Gamma^dagger of a purification, with
    Psi[(a,b),c] = psi[a,b,c] and Gamma the same for gamma."""
    d_ab = p.d_a * p.d_b
    m = p.psi.reshape(d_ab, p.d_c) @ p.gamma.reshape(d_ab, p.d_c).conj().T
    return RankOneGame(p.d_a, p.d_b, m)


def purify(g: RankOneGame) -> GamePurification:
    """A purification (psi, gamma) with tr_C |psi><gamma| = M.

    Built from the singular value decomposition M = sum_i alpha_i |f_i><g_i|:
    psi = sum sqrt(alpha_i)|f_i>|i> and gamma = sum sqrt(alpha_i)|g_i>|i>,
    with the leftover weight 1 - sum alpha_i placed on two distinct extra
    C-basis vectors so the padding never contributes to the partial trace.
    dC is at most dA*dB + 2.
    """
    u, s, vdag = np.linalg.svd(g.m)
    total = float(np.sum(s))
    if total > 1.0 + TRACE_NORM_SLACK:
        raise GameError("cannot purify: trace norm exceeds one")
    keep = np.flatnonzero(s > 0.0)
    d_ab = g.d_a * g.d_b
    d_c = keep.size + 2
    psi = np.zeros((d_ab, d_c), dtype=complex)
    gamma = np.zeros((d_ab, d_c), dtype=complex)
    psi[:, :keep.size] = np.sqrt(s[keep]) * u[:, keep]
    gamma[:, :keep.size] = np.sqrt(s[keep]) * vdag[keep, :].conj().T
    pad = np.sqrt(max(1.0 - total, 0.0))
    psi[0, d_c - 2] = pad
    gamma[0, d_c - 1] = pad
    return GamePurification(g.d_a, g.d_b, d_c, psi.reshape(-1), gamma.reshape(-1))


# -- canonical families -------------------------------------------------------

def _referee_game(n: int, pairs_of) -> tuple[RankOneGame, GamePurification]:
    """The game of the referee states given by K index pairs (r_k, c_k) on A (x) B.

    ``pairs_of(i)`` lists them, each r_k and c_k an array over i = 0..n-1 of
    flat indices a n + b; it is called once n passes the size rule.
    psi = (1/sqrt(Kn)) sum_{i,k} |r_k(i)>|K i + k> and gamma the same with
    c_k, so M = tr_C |psi><gamma| = (1/(Kn)) sum_{i,k} |r_k(i)><c_k(i)|.
    The C register is C^n (x) C^K: slot k of round i has flat index K i + k.
    """
    if n < 1:
        raise GameError("n must be at least 1")
    _size_rule([(n, n)])
    i = np.arange(n)
    pairs = pairs_of(i)
    k_pairs = len(pairs)
    d_c = k_pairs * n
    m = np.zeros((n * n, n * n), dtype=complex)
    psi = np.zeros((n * n, d_c), dtype=complex)
    gamma = np.zeros((n * n, d_c), dtype=complex)
    slots = k_pairs * i
    for k, (r, c) in enumerate(pairs):
        m[r, c] += 1.0 / d_c
        psi[r, slots + k] = 1.0 / np.sqrt(d_c)
        gamma[c, slots + k] = 1.0 / np.sqrt(d_c)
    return RankOneGame(n, n, m), GamePurification(n, n, d_c, psi, gamma)


def game_gc(n: int) -> tuple[RankOneGame, GamePurification]:
    """M = (1/n) sum_i |i><0| (x) |0><i|; psi = (1/sqrt n) sum |i 0>|i>."""
    return _referee_game(n, lambda i: [(i * n, i)])


def game_gr(n: int) -> tuple[RankOneGame, GamePurification]:
    """M = (1/n) sum_i |0><i| (x) |i><0|; roles of game_gc exchanged."""
    return _referee_game(n, lambda i: [(i, i * n)])


def game_gcr(n: int) -> tuple[RankOneGame, GamePurification]:
    """The average (G_C + G_R)/2 with its 2n-dimensional referee register.

    psi = (1/sqrt(2n)) sum_i (|i 0>|i,0> + |0 i>|i,1>),
    gamma = (1/sqrt(2n)) sum_i (|0 i>|i,0> + |i 0>|i,1>),
    where the C register is C^n (x) C^2 with flat index 2i + k.
    """
    return _referee_game(n, lambda i: [(i * n, i), (i, i * n)])


def schur_game(s: SchurMatrix) -> tuple[RankOneGame, GamePurification]:
    """Game sum_ij phi_ij |i><j| (x) |i><j| with a diagonal-form purification.

    The states are psi = sum_{i,t} alpha_{it} |i>|i>|t> and
    gamma = sum_{j,t} beta_{jt} |j>|j>|t> where (alpha, beta) is the
    :func:`purify` of phi read as a game on C^n (x) C^1, padding included.
    """
    n = s.n
    diag = np.arange(n) * (n + 1)  # flat index of |i>|i>
    m = np.zeros((n * n, n * n), dtype=complex)
    m[np.ix_(diag, diag)] = s.phi
    p = purify(RankOneGame(n, 1, s.phi))
    psi = np.zeros((n * n, p.d_c), dtype=complex)
    gamma = np.zeros((n * n, p.d_c), dtype=complex)
    psi[diag] = p.psi.reshape(n, p.d_c)
    gamma[diag] = p.gamma.reshape(n, p.d_c)
    return RankOneGame(n, n, m), GamePurification(n, n, p.d_c, psi, gamma)


def is_schur(g: RankOneGame):
    """Extract the multiplier phi if M is supported on |i><j| (x) |i><j|.

    Returns None when dA != dB or when any off-pattern entry exceeds
    SCHUR_PATTERN_TOL.
    """
    if g.d_a != g.d_b:
        logger.debug("is_schur: dA=%d != dB=%d, not a Schur game", g.d_a, g.d_b)
        return None
    n = g.d_a
    diag = np.arange(n) * (n + 1)  # flat index of |i>|i>
    block = np.ix_(diag, diag)
    off_pattern = g.m.copy()
    off_pattern[block] = 0.0
    if np.max(np.abs(off_pattern)) > SCHUR_PATTERN_TOL:
        return None
    return SchurMatrix(n, g.m[block])


def schur_an_multiplier(k: int) -> SchurMatrix:
    """Multiplier phi_k = 2^(-3k/2) A^(x k) of the sign-matrix family."""
    if k < 1:
        raise GameError("k must be at least 1")
    phi = regrouped_kron([np.array([[1.0, 1.0], [1.0, -1.0]])], [(2,)], k) * 2.0 ** (-1.5 * k)
    return SchurMatrix(2 ** k, phi.astype(complex))


def schur_an_game(k: int) -> tuple[RankOneGame, GamePurification]:
    """The game of the sign-matrix family phi_k = 2^(-3k/2) A^(x k),
    A = [[1,1],[1,-1]], with the purification of :func:`schur_game`.

    Its maximal value is exactly one while the entrywise witness
    2^(-3k/2) B^(x k), B all-ones, has trace norm 2^(-k/2).
    """
    _size_rule([(2, 2)], k)  # k factors of a game on C^2 (x) C^2
    return schur_game(schur_an_multiplier(k))


# name -> n -> (game, purification); schur-an's n is the k of phi_k
FAMILIES = {"gc": game_gc, "gr": game_gr, "gcr": game_gcr, "schur-an": schur_an_game}


# -- tensoring ----------------------------------------------------------------

def _size_rule(dims, power: int = 1, vector: bool = False) -> None:
    """The one size rule of every constructor, checked before it allocates
    (else GameError), on ``power`` copies of factors on registers of sides
    dims[i]: at most DEFAULT_SIDE_CAP.bit_length() - 1 factors, as side-1
    factors never reach the cap, and a side of at most DEFAULT_SIDE_CAP, both
    read at call time.  A matrix's side is the product of its registers';
    a ``vector``'s is the larger side of the matrix Psi[(r_0 ... r_n-2), r_n-1]
    that ``from_states`` reads it as."""
    cap, count, n = DEFAULT_SIDE_CAP, len(dims) * power, len(dims[0])
    if count > cap.bit_length() - 1:
        raise GameError(f"{count} factors exceed the {cap.bit_length() - 1} the cap {cap} allows")
    gathered = [math.prod(d[r] for d in dims) ** power for r in range(n)]
    side = max(math.prod(gathered[:-1]), gathered[-1]) if vector else math.prod(gathered)
    if side > cap:
        raise GameError(f"side {side} exceeds the cap {cap}")


def regrouped_kron(factors, dims, power: int = 1) -> np.ndarray:
    """The Kronecker product of ``factors`` repeated ``power`` times, with
    register r of every factor gathered in factor order: vectors or square
    matrices on registers of sides dims[i], as (A1 A2 ..., B1 B2 ...) for
    games.  One ``np.kron`` chain, so entries multiply as in iterated binary
    products, then one permutation, once the product passes ``_size_rule``."""
    _size_rule(dims, power, vector=np.ndim(factors[0]) != 2)
    count, n = len(factors) * power, len(dims[0])
    big = reduce(np.kron, list(factors) * power)
    order = [f * n + r for r in range(n) for f in range(count)]
    axes = order + [count * n + a for a in order] if big.ndim == 2 else order
    shape = [s for d in list(dims) * power for s in d] * big.ndim
    return big.reshape(shape).transpose(axes).reshape(big.shape)


def game_tensor(g1: RankOneGame, g2: RankOneGame) -> RankOneGame:
    """Parallel composition, on registers (A1 A2, B1 B2)."""
    return RankOneGame(g1.d_a * g2.d_a, g1.d_b * g2.d_b,
                       regrouped_kron([g1.m, g2.m], [(g1.d_a, g1.d_b), (g2.d_a, g2.d_b)]))


def tensor_purifications(p1: GamePurification, p2: GamePurification) -> GamePurification:
    """Purification of the tensored game, on registers (A1 A2, B1 B2, C1 C2)."""
    dims = [(p.d_a, p.d_b, p.d_c) for p in (p1, p2)]
    return GamePurification(p1.d_a * p2.d_a, p1.d_b * p2.d_b, p1.d_c * p2.d_c,
                            regrouped_kron([p1.psi, p2.psi], dims),
                            regrouped_kron([p1.gamma, p2.gamma], dims))


def game_power(g: RankOneGame, k: int) -> RankOneGame:
    """k-fold tensor power; game_power(g, 1) is g itself, if within the cap."""
    if k < 1:
        raise GameError("k must be at least 1")
    m = regrouped_kron([g.m], [(g.d_a, g.d_b)], k)
    return g if k == 1 else RankOneGame(g.d_a ** k, g.d_b ** k, m)


def purification_power(p: GamePurification, k: int) -> GamePurification:
    """k-fold tensor power; purification_power(p, 1) is p, if within the cap."""
    if k < 1:
        raise GameError("k must be at least 1")
    psi, gamma = (regrouped_kron([v], [(p.d_a, p.d_b, p.d_c)], k) for v in (p.psi, p.gamma))
    return p if k == 1 else GamePurification(p.d_a ** k, p.d_b ** k, p.d_c ** k, psi, gamma)


def check_maximal_value_one(p: GamePurification) -> bool:
    """Whether the game of this purification has maximal value one.

    Writing psi and gamma in C-basis components psi_c, gamma_c in H_A(x)H_B,
    maximal value one holds exactly when a single unitary aligns all
    components, i.e. when the two Gram matrices <psi_c|psi_c'> and
    <gamma_c|gamma_c'> coincide.  Compared in Frobenius distance, to
    GRAM_MATCH_TOL.
    """
    d_ab = p.d_a * p.d_b
    psi_c = p.psi.reshape(d_ab, p.d_c)
    gamma_c = p.gamma.reshape(d_ab, p.d_c)
    gram_psi = psi_c.conj().T @ psi_c
    gram_gamma = gamma_c.conj().T @ gamma_c
    return bool(np.linalg.norm(gram_psi - gram_gamma) <= GRAM_MATCH_TOL)


# -- file formats --------------------------------------------------------------

def game_to_json(g: RankOneGame, p: GamePurification | None = None) -> dict:
    obj = {"dA": g.d_a, "dB": g.d_b, "M": la.matrix_to_json(g.m)}
    if p is not None:
        obj["purification"] = purification_to_json(p)
    return obj


def game_from_json(obj: dict) -> tuple[RankOneGame, GamePurification | None]:
    """The game of a game file, and its purification if embedded; malformed
    content raises GameError."""
    try:
        d_a, d_b = la.json_int(obj["dA"]), la.json_int(obj["dB"])
        if min(d_a, d_b) < 1:
            raise GameError(f"dA and dB must be at least 1, not {d_a} and {d_b}")
        g = RankOneGame(d_a, d_b, la.matrix_from_json(obj["M"]))
        p = purification_from_json(obj["purification"]) if "purification" in obj else None
        q = from_states(p) if p is not None else g
    except KeyError as exc:
        raise GameError(f"game JSON is missing key {exc}") from exc
    except GameError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise GameError(f"malformed game JSON: {exc}") from exc
    if q.d_a != g.d_a or q.d_b != g.d_b or np.max(np.abs(q.m - g.m)) > 1e-8:
        raise GameError("embedded purification does not reproduce M")
    return g, p


def purification_to_json(p: GamePurification) -> dict:
    return {
        "dA": p.d_a, "dB": p.d_b, "dC": p.d_c,
        "psi": la.vector_to_json(p.psi),
        "gamma": la.vector_to_json(p.gamma),
    }


def purification_from_json(obj: dict) -> GamePurification:
    try:
        return GamePurification(
            *(la.json_int(obj[k]) for k in ("dA", "dB", "dC")),
            la.vector_from_json(obj["psi"]), la.vector_from_json(obj["gamma"]))
    except KeyError as exc:
        raise GameError(f"purification JSON is missing key {exc}") from exc

