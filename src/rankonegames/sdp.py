"""Small dense semidefinite programs over Hermitian variables.

A problem is a list of named matrix variables (``hermitian``, or
``off-diagonal``: Hermitian with zero diagonal blocks about a split index),
a real-linear objective given by one coefficient matrix per variable, and
affine PSD constraints.  Each PSD constraint is

    F0 + sum over terms  A @ X_v @ B^dagger  >= 0

and the total map must be Hermitian-valued on Hermitian inputs.

The solver is Mehrotra's predictor-corrector primal-dual interior-point
method with Nesterov-Todd scaling (Mehrotra, SIAM J. Optim. 2, 1992; Todd,
Toh & Tutuncu, SIAM J. Optim. 8, 1998): the predictor's affine direction
fixes the centering parameter, and the corrector adds the predictor's
second-order term in the scaled space.  It iterates on complex Hermitian
blocks of their native side.  Each variable's real parameters reach its
matrix through a sparse map with at most two entries per parameter.  Each
block is compiled once into a flat operator: the factors A and B of all
its terms, padded to the block's largest variable side and stacked, and
one index plan that scatters the parameters into per-term copies of their
variables.  The map is then one scatter, one batched matmul and one matmul
per block, and its adjoint reads the same plan backwards.  The Schur
complement is assembled from the same factors, as in the sparsity
exploitation of Fujisawa, Kojima & Nakata (Math. Programming 79, 1997):
one matmul per block for all the products B^dagger W A, one per pair of
variables for their Kronecker sum, and one gather per pair for the basis
change, so no block-sized matrix per parameter is kept.
Every ``optimal`` exit carries a dual certificate: the returned primal and
dual values bracket the optimum and their gap is at most the requested
tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import matrix_to_json

HERMITIAN = "hermitian"
OFF_DIAGONAL = "off-diagonal"

DEFAULT_TOL = 1e-7
DEFAULT_FEAS_TOL = 1e-8
DEFAULT_MAX_ITERS = 200
STEP_FRACTION = 0.98
# dense Schur complement: memory grows with the parameter count squared
MAX_PARAMETERS = 8000
# side below which _lower_inverse hands a triangle to np.linalg.inv
INVERSE_LEAF = 32


class SdpError(RuntimeError):
    """A structurally invalid problem or an uncertifiable solve."""


@dataclass(frozen=True)
class SdpVariable:
    """A Hermitian matrix variable; an ``off-diagonal`` one has its entries
    (k, l) zero unless k < split <= l or l < split <= k."""
    name: str
    side: int
    domain: str = HERMITIAN
    split: int | None = None


@dataclass
class PsdTerm:
    """One summand A @ X_var @ B^dagger of a PSD constraint block."""
    var: str
    left: np.ndarray
    right: np.ndarray


@dataclass
class PsdConstraint:
    constant: np.ndarray
    terms: list[PsdTerm] = field(default_factory=list)
    name: str = ""


@dataclass
class SdpProblem:
    variables: list[SdpVariable]
    objective: dict[str, np.ndarray]
    psd_constraints: list[PsdConstraint]
    maximize: bool = True
    # always empty and not a field: programs have no equality rows, and the
    # benchmark's tracer still reads their count
    equalities = ()

    def variable(self, name: str) -> SdpVariable:
        for v in self.variables:
            if v.name == name:
                return v
        raise SdpError(f"unknown variable {name!r}")

    def to_json(self) -> dict:
        return {
            "maximize": self.maximize,
            "variables": [
                {"name": v.name, "side": v.side, "domain": v.domain,
                 **({} if v.split is None else {"split": v.split})}
                for v in self.variables
            ],
            "objective": {k: matrix_to_json(c) for k, c in self.objective.items()},
            "psd_constraints": [
                {
                    "name": c.name,
                    "constant": matrix_to_json(c.constant),
                    "terms": [
                        {
                            "var": t.var,
                            "left": matrix_to_json(t.left),
                            "right": matrix_to_json(t.right),
                        }
                        for t in c.terms
                    ],
                }
                for c in self.psd_constraints
            ],
        }


@dataclass
class SdpSolution:
    status: str
    primal_value: float
    dual_value: float
    gap: float
    assignments: dict[str, np.ndarray]
    iterations: int
    tol: float
    feas_tol: float
    residuals: dict = field(default_factory=dict)
    # complex Hermitian dual matrix of each PSD constraint, in problem order
    dual_blocks: list[np.ndarray] = field(default_factory=list)


# -- parameter maps ------------------------------------------------------------

@dataclass(frozen=True)
class BasisMap:
    """A variable's orthonormal real basis H_j as a sparse parameter -> entry map.

    H_j has the entry ``coefs[p, j]`` at (``rows[p, j]``, ``cols[p, j]``) for
    p = 0, 1; a diagonal unit pads its second entry with a zero coefficient.
    The basis is the diagonal units, then for each k < l the pair
    (E_kl + E_lk)/sqrt 2, i (E_kl - E_lk)/sqrt 2; off-diagonal variables
    keep no diagonal unit and only the pairs with k < split <= l.
    """
    side: int
    rows: np.ndarray        # (2, size) int
    cols: np.ndarray        # (2, size) int
    coefs: np.ndarray       # (2, size) complex

    @property
    def size(self) -> int:
        return self.coefs.shape[1]

    def matrix(self, y: np.ndarray) -> np.ndarray:
        """sum_j y_j H_j."""
        x = np.zeros((self.side, self.side), dtype=complex)
        np.add.at(x, (self.rows, self.cols), self.coefs * y)
        return x

    def traces(self, y: np.ndarray) -> np.ndarray:
        """(Re tr(H_j Y))_j = (Re sum_ab H_j[a, b] Y[b, a])_j."""
        return np.sum(self.coefs * y[self.cols, self.rows], axis=0).real


def basis_map(var: SdpVariable) -> BasisMap:
    """The basis map of a variable: side^2 parameters for a Hermitian
    variable and 2 split (side - split) for an off-diagonal one, which keeps
    only the pairs with k < split <= l and no diagonal units."""
    d = var.side
    if var.domain not in (HERMITIAN, OFF_DIAGONAL):
        raise SdpError(f"unknown variable domain {var.domain!r}")
    diagonal = var.domain != OFF_DIAGONAL
    if diagonal != (var.split is None) or not diagonal and not 0 < var.split < d:
        raise SdpError(f"variable {var.name!r}: an off-diagonal variable, and only "
                       f"that, needs a split in (0, {d})")
    r = 1.0 / np.sqrt(2.0)
    places = [((k, k), (k, k)) for k in range(d)] if diagonal else []
    coefs = [(1.0, 0.0)] * len(places)
    for k in range(d):
        for l in range(k + 1, d):
            if not diagonal and not k < var.split <= l:
                continue
            places += [((k, l), (l, k))] * 2
            coefs += [(r, r), (1j * r, -1j * r)]
    rows, cols = np.array(places).transpose(2, 1, 0)
    return BasisMap(d, rows, cols, np.array(coefs, dtype=complex).T)


# -- compilation to a Hermitian LMI -----------------------------------------------

def _herm(a: np.ndarray) -> np.ndarray:
    return (a + a.conj().T) / 2.0


@dataclass
class _BlockVar:
    """The terms of one variable in one block: the block receives
    sum_t A_t X B_t^dagger over ``count`` consecutive terms of the block's
    stacks, whose live factor columns are ``cols``."""
    var: int
    side: int
    count: int
    cols: slice


@dataclass
class _Block:
    """One PSD block as a flat operator.

    Term t of the block, of variable v, has A_t and B_t^dagger padded with
    zeros to the block's largest variable side D.  ``scatter``, ``param``
    and ``coef`` map parameters into the real view of the stack of
    per-term variable copies X_t (T, D, D): entry ``scatter[k]`` receives
    ``coef[k] * y[param[k]]``.  The same plan read backwards gives the
    adjoint's traces, since Re tr(H_j Y) is the real inner product of H_j
    and Y for Hermitian H_j.
    """
    constant: np.ndarray     # F0, Hermitian
    parts: list[_BlockVar]   # one per variable, in variable order
    left_cat: np.ndarray     # [A_1 ... A_T] padded, side x (T D)
    right_h: np.ndarray      # B_t^dagger padded, (T, D, side)
    live: np.ndarray         # the columns of left_cat that are not padding
    scatter: np.ndarray
    param: np.ndarray
    coef: np.ndarray


@dataclass(frozen=True)
class _PairPlan:
    """The Schur block S_vu = Re(T_v^T K T_u) of a pair of variables.

    K keeps the rows (a, d) and columns (b, c) with a in ``a_range`` and b
    in ``b_range``, the entries that v's basis reaches.  One gather reads
    each entry that both bases reach once, at flat ``rows + cols``;  H_j of
    u then sums its two columns ``u_pick[q, j]`` with ``coefs[q, j]``, and
    H_i of v its rows ``v_pick[p, i]`` with ``weights[p, i]``.  The block
    lands at ``at`` of S.
    """
    a_range: slice
    b_range: slice
    rows: np.ndarray         # (n_rows, 1) int
    cols: np.ndarray         # (n_cols,) int
    v_pick: np.ndarray       # (p_v, m_v) int
    weights: np.ndarray      # (p_v, m_v) complex
    u_pick: np.ndarray       # (2, m_u) int
    coefs: np.ndarray        # (2, m_u) complex
    at: tuple


@dataclass
class _CompiledLmi:
    """maximize g.y subject to F0_c + sum_j y_j G_cj >= 0 per block.

    Parameter j of variable v sits at ``offsets[v] + j`` of y, and
    G_cj = sum_t A_t H_j B_t^dagger over the terms of v in block c, with H_j
    the basis of ``maps[v]``.  Each block carries its padded term stacks and
    parameter plan (``_Block``), and ``pairs`` the Schur basis change of
    every pair of variables that share a block.
    """
    g: np.ndarray
    blocks: list[_Block]
    maps: list[BasisMap]
    offsets: list[int]
    pairs: dict
    sense: float

    def variable(self, y: np.ndarray, v: int) -> np.ndarray:
        """X_v of the parameter vector y."""
        return self.maps[v].matrix(y[self.offsets[v]: self.offsets[v] + self.maps[v].size])

    def apply(self, y: np.ndarray) -> list[np.ndarray]:
        """sum_j y_j G_cj for every block c: L [X_t B_t^dagger]_t."""
        out = []
        for blk in self.blocks:
            n_terms, d, side = blk.right_h.shape
            xs = np.bincount(blk.scatter, blk.coef * y[blk.param], minlength=2 * n_terms * d * d)
            xs = xs.view(complex).reshape(n_terms, d, d)
            out.append(_herm(blk.left_cat @ (xs @ blk.right_h).reshape(n_terms * d, side)))
        return out

    def adjoint(self, mats: list[np.ndarray]) -> np.ndarray:
        """(sum_c Re tr(G_cj M_c))_j for Hermitian M_c: the traces of
        B_t^dagger M A_t against the basis, summed by parameter."""
        y = np.zeros(self.g.size)
        for blk, mat in zip(self.blocks, mats):
            n_terms, d, side = blk.right_h.shape
            ys = blk.right_h @ (mat @ blk.left_cat).reshape(side, n_terms, d).transpose(1, 0, 2)
            y += np.bincount(blk.param, ys.reshape(-1).view(float)[blk.scatter] * blk.coef,
                             minlength=y.size)
        return y

    def schur(self, w_blk: list[np.ndarray]) -> np.ndarray:
        """S_ij = sum_c Re tr(G_ci W_c G_cj W_c), assembled from the term factors.

        Writing H_i = sum_ab T[(a,b), i] E_ab splits the trace into
        K[(a,b),(c,d)] = sum_{t,t'} (B_t'^dag W A_t)[d,a] (B_t^dag W A_t')[b,c]
        for each pair of variables (v, v'), summed over the blocks, and
        S_vv' = Re(T_v^T K T_v').  All the products B_t^dag W A_t' of a block
        are one matmul of its live factors.
        """
        kmats = {}
        for blk, w in zip(self.blocks, w_blk):
            side = w.shape[0]
            live_h = blk.right_h.reshape(-1, side)[blk.live]
            f = live_h @ (w @ blk.left_cat[:, blk.live])      # [(t, b), (t', c)]
            for i, p in enumerate(blk.parts):
                for q in blk.parts[i:]:
                    key = (p.var, q.var)
                    k = _kron_schur(f, p, q, self.pairs[key])
                    if key in kmats:
                        kmats[key] += k
                    else:
                        kmats[key] = k
        s = np.zeros((self.g.size, self.g.size))
        for key, k in kmats.items():
            plan = self.pairs[key]
            entries = k.reshape(-1)[plan.rows + plan.cols]
            half = entries[:, plan.u_pick[0]] * plan.coefs[0]
            half += entries[:, plan.u_pick[1]] * plan.coefs[1]
            block = np.einsum("pi,pij->ij", plan.weights, half[plan.v_pick]).real
            rows, cols = plan.at
            if key[0] == key[1]:
                s[rows, cols] = (block + block.T) / 2.0
            else:
                s[rows, cols] = block
                s[cols, rows] = block.T
        return s


def _kron_schur(f: np.ndarray, p: _BlockVar, q: _BlockVar, plan: _PairPlan) -> np.ndarray:
    """sum_{t of p, t' of q} (B_t'^dag W A_t)[d,a] (B_t^dag W A_t')[b,c], indexed
    [(a,d),(b,c)] over a and b in the plan's ranges, from the products f of
    the block: one matmul over the term pairs."""
    n, dp, nq, dq = p.count, p.side, q.count, q.side
    fwd = f[p.cols, q.cols].reshape(n, dp, nq, dq)[:, plan.b_range]   # [t, b, t', c]
    bwd = f[q.cols, p.cols].reshape(nq, dq, n, dp)[..., plan.a_range]   # [t', d, t, a]
    lhs = bwd.transpose(3, 1, 2, 0).reshape(-1, n * nq)
    rhs = fwd.transpose(0, 2, 1, 3).reshape(n * nq, -1)
    return lhs @ rhs


def _schur_entries(t: BasisMap, first_only: bool):
    """Where the basis of t reads K in a Schur gather: the distinct places
    (a, b) of its entries, in row-major order, and for each element the
    index ``pick[p, j]`` of its entries' places and their ``weights[p, j]``.

    With ``first_only``, for the rows of S: since the map takes X^dagger
    to G(X)^dagger, H_j = c E_ab + conj(c) E_ba contributes
    2 Re(c tr(G(E_ab) W G_k W)) for Hermitian G_k and W, so an element
    keeps its first entry, with twice its weight off the diagonal.
    """
    if first_only:
        rows, cols = t.rows[:1], t.cols[:1]
        weights = t.coefs[:1] * np.where(rows == cols, 1.0, 2.0)
    else:
        rows, cols, weights = t.rows, t.cols, t.coefs
    code = rows * t.side + cols
    taken = np.zeros(t.side * t.side, dtype=bool)
    taken[code] = True
    places = np.flatnonzero(taken)
    return places // t.side, places % t.side, (np.cumsum(taken) - 1)[code], weights


def _pair_plan(v_entries, u_entries, du: int, at: tuple) -> _PairPlan:
    """The Schur gather of variables v and u from ``_schur_entries`` of both."""
    a, b, v_pick, weights = v_entries
    c, d, u_pick, coefs = u_entries
    a0, b0 = a.min(), b.min()
    n_b = b.max() + 1 - b0
    # K[(a, d), (b, c)] flattened: ((a du + d) n_b + b) du + c, with a and b from a0 and b0
    return _PairPlan(slice(a0, a.max() + 1), slice(b0, b0 + n_b),
                     (((a - a0) * du * n_b + b - b0) * du)[:, None], d * (n_b * du) + c,
                     v_pick, weights, u_pick, coefs, at)


def _objective_row(problem, index, maps, offsets):
    """(Re tr(C_v^dagger H_j))_j over the parameter vector."""
    row = np.zeros(sum(t.size for t in maps))
    for name, c in problem.objective.items():
        var = problem.variable(name)
        c = np.asarray(c, dtype=complex)
        if c.shape != (var.side, var.side):
            raise SdpError(f"objective coefficient for {name!r} has wrong shape")
        if not np.all(np.isfinite(c)):
            raise SdpError(f"objective coefficient for {name!r} is not finite")
        v = index[name]
        row[offsets[v]: offsets[v] + maps[v].size] += maps[v].traces(c.conj().T)
    return row


def _compile_block(problem, index, maps, offsets, c_idx, con) -> _Block:
    f0 = np.asarray(con.constant, dtype=complex)
    side = f0.shape[0]
    if f0.shape != (side, side):
        raise SdpError("PSD constant block must be square")
    if not np.all(np.isfinite(f0)):
        raise SdpError(f"PSD constant block {c_idx} is not finite")
    if np.linalg.norm(f0 - f0.conj().T) > 1e-10 * (1.0 + np.linalg.norm(f0)):
        raise SdpError(f"PSD constant block {c_idx} is not Hermitian")
    grouped = {}
    for t in con.terms:
        var = problem.variable(t.var)
        a = np.asarray(t.left, dtype=complex)
        b = np.asarray(t.right, dtype=complex)
        if a.shape != (side, var.side) or b.shape != (side, var.side):
            raise SdpError(
                f"term for {t.var!r} in block {c_idx} has wrong shape "
                f"(need {side}x{var.side})")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise SdpError(f"term for {t.var!r} in block {c_idx} is not finite")
        grouped.setdefault(index[t.var], []).append((a, b))
    for v, factors in grouped.items():
        _check_hermitian_valued(problem, maps[v], v, c_idx, side, factors)

    n_terms = sum(len(factors) for factors in grouped.values())
    d = max((maps[v].side for v in grouped), default=1)
    left = np.zeros((side, n_terms, d), dtype=complex)
    right_h = np.zeros((n_terms, d, side), dtype=complex)
    parts = []
    live, scatter, param, coef = ([np.zeros(0, dtype=dt)] for dt in (int, int, int, float))
    t0 = width = 0
    for v in sorted(grouped):
        t, factors = maps[v], grouped[v]
        for k, (a, b) in enumerate(factors):
            left[:, t0 + k, : t.side] = a
            right_h[t0 + k, : t.side] = b.conj().T
        terms = np.arange(t0, t0 + len(factors))
        live.append((terms[:, None] * d + np.arange(t.side)).reshape(-1))
        # entry (t, rows, cols) of the stack of variable copies, as real and imaginary slots
        entry = (terms[:, None, None] * d + t.rows) * d + t.cols
        slots = 2 * entry[..., None] + np.arange(2)                       # [t, p, j, re/im]
        weights = np.broadcast_to(np.stack([t.coefs.real, t.coefs.imag], -1), slots.shape)
        index_j = np.broadcast_to(offsets[v] + np.arange(t.size)[:, None], slots.shape)
        keep = weights != 0.0
        scatter.append(slots[keep])
        coef.append(weights[keep])
        param.append(index_j[keep])
        parts.append(_BlockVar(v, t.side, len(factors), slice(width, width + len(factors) * t.side)))
        t0 += len(factors)
        width += len(factors) * t.side
    cat = np.concatenate
    return _Block(_herm(f0), parts, left.reshape(side, n_terms * d), right_h,
                  cat(live), cat(scatter), cat(param), cat(coef))


def _check_hermitian_valued(problem, t, v, c_idx, side, factors):
    """Raise unless every G_j = sum_t A_t H_j B_t^dag of the variable is Hermitian.

    G(H)[p, q] = sum_ab M[(p,a),(q,b)] H[a, b] with M = U V^dag, the columns
    of U and V being vec(A_t) and vec(B_t), and H -> G(H)^dag has M^dag in
    its place.  M - M^dag = [U V] J [U V]^dag, so with [U V] = QR the norm
    ||M - M^dag||_F = ||R J R^dag||_F <= 1e-9 bounds every ||G_j - G_j^dag||
    by 1e-9 ||H_j||; otherwise each G_j is tested.
    """
    # +-A X A^dagger is Hermitian for Hermitian X
    if all(np.array_equal(a, b) or np.array_equal(a, -b) for a, b in factors):
        return
    n = len(factors)
    vec_a = np.stack([a for a, _ in factors]).reshape(n, -1).T
    vec_b = np.stack([b for _, b in factors]).reshape(n, -1).T
    r = np.linalg.qr(np.hstack([vec_a, vec_b]), mode="r")
    if np.linalg.norm(r[:, :n] @ r[:, n:].conj().T - r[:, n:] @ r[:, :n].conj().T) <= 1e-9:
        return
    m4 = (vec_a @ vec_b.conj().T).reshape(side, t.side, side, t.side)
    gs = sum(c[:, None, None] * m4[:, a, :, b]
             for a, b, c in zip(t.rows, t.cols, t.coefs))  # [j, p, q]
    dev = np.linalg.norm(gs - gs.conj().transpose(0, 2, 1), axis=(1, 2))
    bad = np.flatnonzero(dev > 1e-9 * (1.0 + np.linalg.norm(gs, axis=(1, 2))))
    if bad.size:
        raise SdpError(
            f"PSD block {c_idx} is not Hermitian-valued (variable "
            f"{problem.variables[v].name!r}, parameter {bad[0]})")


def _compile(problem: SdpProblem) -> _CompiledLmi:
    """Parameter maps, objective and stacked term factors of every block."""
    for v in problem.variables:
        if v.side <= 0:
            raise SdpError(f"variable {v.name!r} has nonpositive side")
    maps = [basis_map(v) for v in problem.variables]
    sizes = [t.size for t in maps]
    offsets = [int(o) for o in np.cumsum([0] + sizes[:-1])]
    m = sum(sizes)
    if m > MAX_PARAMETERS:
        raise SdpError(
            f"problem has {m} scalar parameters, beyond the dense "
            f"interior-point scale ({MAX_PARAMETERS}); reduce the dimensions")
    index = {v.name: i for i, v in enumerate(problem.variables)}

    sense = 1.0 if problem.maximize else -1.0
    g = sense * _objective_row(problem, index, maps, offsets)

    blocks = [_compile_block(problem, index, maps, offsets, c_idx, con)
              for c_idx, con in enumerate(problem.psd_constraints)]
    if not blocks:
        raise SdpError("problem has no PSD constraints")
    firsts = [_schur_entries(t, True) for t in maps]
    alls = [_schur_entries(t, False) for t in maps]
    pairs = {}
    for blk in blocks:
        for i, p in enumerate(blk.parts):
            for q in blk.parts[i:]:
                v, u = p.var, q.var
                if (v, u) not in pairs:
                    at = (slice(offsets[v], offsets[v] + sizes[v]),
                          slice(offsets[u], offsets[u] + sizes[u]))
                    pairs[v, u] = _pair_plan(firsts[v], alls[u], maps[u].side, at)

    return _CompiledLmi(g, blocks, maps, offsets, pairs, sense)


# -- core interior-point iteration -------------------------------------------

def _cholesky(a):
    """(L, L^-1) with a = L L^dagger, or None when a is not positive definite."""
    try:
        l = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return None
    return l, _lower_inverse(l)


def _lower_inverse(l):
    """L^-1 of a lower-triangular L by halves (Du Croz & Higham, IMA J. Numer.
    Anal. 12, 1992): [[A, 0], [B, C]]^-1 = [[A^-1, 0], [-C^-1 B A^-1, C^-1]],
    so all but the leaves is matmuls."""
    n = l.shape[0]
    if n <= INVERSE_LEAF:
        return np.linalg.inv(l)
    h = n // 2
    ai = _lower_inverse(l[:h, :h])
    ci = _lower_inverse(l[h:, h:])
    out = np.zeros_like(l)
    out[:h, :h] = ai
    out[h:, h:] = ci
    out[h:, :h] = -ci @ (l[h:, :h] @ ai)
    return out


def _factor_schur(schur):
    """(L, L^-1) of the Schur complement, with the first of six growing
    diagonal jitters that makes it factor if it does not; None if none does."""
    chol = _cholesky(schur)
    if chol is not None:
        return chol
    m = schur.shape[0]
    jitter = 1e-12 * (1.0 + np.trace(schur) / m)
    for _ in range(6):
        chol = _cholesky(schur + jitter * np.eye(m))
        if chol is not None:
            return chol
        jitter *= 100.0
    return None


def _nt_scaling(x, s_chol):
    """The Nesterov-Todd scaling (W, G^, d) of X and S = L L^dag.

    With L^dag X L = Q diag(w) Q^dag, G^ = L^-dag Q and d = w^(1/4), the
    scaling G = G^ diag(d) takes both G^dag S G and G^-1 X G^-dag to
    V = diag(d^2), and W = G G^dag is the Hermitian PD matrix with W S W = X.
    """
    l, li = s_chol
    w, q = np.linalg.eigh(_herm(l.conj().T @ x @ l))
    g_hat = li.conj().T @ q
    d = np.clip(w, 1e-300, None) ** 0.25
    return _herm((g_hat * d ** 2) @ g_hat.conj().T), g_hat, d


def _second_order(g_hat, d, ds):
    """Mehrotra's second-order term G Y G^dag of the predictor's dS, and the
    largest steps along the predictor's dX and dS.

    In the scaled space of ``_nt_scaling``, dS~ = G^dag dS G and the
    predictor's dX~ = -V - dS~, so the solution Y of
    V Y + Y V = dX~ dS~ + dS~ dX~ is Y = -dS~ - 2 (dS~^2)_ij / (lam_i + lam_j)
    with lam = d^2.  The product G^^dag dS G^ is a unitary similarity of
    L^-1 dS L^-dag, so its least eigenvalue gives ``_max_step(s_chol, dS)``;
    and V^-1/2 dX~ V^-1/2 = -I - G^^dag dS G^, so its largest gives the
    step along dX = -X - W dS W.
    """
    scaled = _herm(g_hat.conj().T @ ds @ g_hat)
    lam_ds = np.linalg.eigvalsh(scaled)
    ds_t = d[:, None] * scaled * d
    lam = d ** 2
    y = -ds_t - 2.0 * (ds_t @ ds_t) / (lam[:, None] + lam)
    gd = g_hat * d
    return (_herm(gd @ y @ gd.conj().T), _step_length(-1.0 - lam_ds[-1]),
            _step_length(lam_ds[0]))


def _step_length(lam):
    """Largest alpha with I + alpha*A >= 0 for least eigenvalue lam of A."""
    if lam >= -1e-16:
        return np.inf
    return 1.0 / (-lam)


def _max_step(chol, direction):
    """Largest alpha with L L^dagger + alpha*direction >= 0 (inf if all),
    given chol = (L, L^-1) from ``_cholesky``; 0 when there is no factor."""
    if chol is None:
        return 0.0
    li = chol[1]
    return _step_length(np.linalg.eigvalsh(_herm(li @ direction @ li.conj().T))[0])


def _frobenius(a):
    """Frobenius norm of the real embedding [[Re A, -Im A], [Im A, Re A]], the
    scale on which the residual tolerances are set."""
    return np.sqrt(2.0) * np.linalg.norm(a)


def _solve_lmi(lmi: _CompiledLmi, tol, feas_tol, max_iters):
    """Interior-point loop on: maximize g.z s.t. F0_c + sum z_j G_cj >= 0,
    with z the variables' parameter vector.

    Dual: minimize sum_c Re tr(F0_c X_c) s.t. sum_c Re tr(G_cj X_c) = -g_j,
    X_c >= 0.  Iterates are complex Hermitian blocks of their native side.
    Returns (status, z, x_blocks, pobj, dobj, iterations, residuals).
    """
    g = lmi.g
    m = g.size
    blocks_f0 = [blk.constant for blk in lmi.blocks]
    sides = [f0.shape[0] for f0 in blocks_f0]
    n_tot = sum(sides)
    eyes = [np.eye(s, dtype=complex) for s in sides]

    data_scale = max(
        [1.0, float(np.max(np.abs(g))) if m else 1.0]
        + [float(np.linalg.norm(f0, 2)) for f0 in blocks_f0])

    if m == 0:
        lam_min = min(float(np.linalg.eigvalsh(f0)[0]) for f0 in blocks_f0)
        status = "optimal" if lam_min >= -feas_tol * data_scale else "infeasible"
        return (status, np.zeros(0), [np.zeros_like(e) for e in eyes], 0.0, 0.0, 0,
                {"primal": 0.0, "dual": 0.0, "min_eig": lam_min})

    # S = tau I and X = 2 tau I: the image of the start tau I of the real
    # embedding, whose trace pairing doubles the Hermitian one
    tau = data_scale
    z = np.zeros(m)
    s_blk = [tau * e for e in eyes]
    x_blk = [2.0 * tau * e for e in eyes]

    s_chol = [_cholesky(s) for s in s_blk]
    x_chol = [_cholesky(x) for x in x_blk]

    status = "max-iters"
    it = 0
    pobj = dobj = 0.0
    prim_res = dual_res = np.inf
    for it in range(1, max_iters + 1):
        # residuals
        r_p = [f0 + gz - s for f0, gz, s in zip(blocks_f0, lmi.apply(z), s_blk)]
        r_d = -g - lmi.adjoint(x_blk)

        nu = sum(_pair(x, s) for x, s in zip(x_blk, s_blk)) / n_tot
        pobj = float(g @ z)
        dobj = sum(_pair(f0, x) for f0, x in zip(blocks_f0, x_blk))
        prim_res = max(_frobenius(r) for r in r_p) / (1.0 + data_scale)
        dual_res = float(np.linalg.norm(r_d)) / (1.0 + data_scale)
        gap_abs = abs(pobj - dobj)

        # gap measured against the user-facing objective magnitudes
        gap_scale = max(1.0, abs(pobj), abs(dobj))
        if gap_abs <= tol * gap_scale and prim_res <= feas_tol and dual_res <= feas_tol:
            status = "optimal"
            break

        # divergence: normalized Farkas-type certificates
        xnorm = sum(float(np.trace(x).real) for x in x_blk)
        if xnorm > 1e7 * data_scale:
            viol = np.linalg.norm(lmi.adjoint([x / xnorm for x in x_blk]))
            f0x = sum(_pair(f0, x) for f0, x in zip(blocks_f0, x_blk)) / xnorm
            if viol <= 1e-6 and f0x < -1e-9:
                status = "infeasible"
                break
        znorm = float(np.linalg.norm(z))
        if znorm > 1e7 * data_scale:
            zhat = z / znorm
            lam = min(float(np.linalg.eigvalsh(gz)[0]) for gz in lmi.apply(zhat))
            if lam >= -1e-9 and float(g @ zhat) > 1e-9:
                status = "unbounded"
                break
        if not (np.isfinite(nu) and nu > 0 and np.isfinite(pobj) and np.isfinite(dobj)):
            status = "numerical-error"
            break

        # NT scaling and Schur complement (shared by predictor and corrector);
        # the Cholesky factor of each block, taken when the iterate was made PD,
        # serves W, S^-1 and the step lengths
        if any(c is None for c in s_chol):
            status = "stalled"  # S left the cone; no scaling exists
            break
        w_blk, g_hat, d_blk = zip(*[_nt_scaling(x, c) for x, c in zip(x_blk, s_chol)])
        schur = lmi.schur(w_blk)
        schur_chol = _factor_schur(schur)
        if schur_chol is None:
            status = "singular"
            break
        schur_li = schur_chol[1]

        w_rp = [w @ r @ w for w, r in zip(w_blk, r_p)]

        def newton(centre):
            # centre: each block's complementarity target, X + dX + W dS W
            rhs = g + lmi.adjoint([c - t for c, t in zip(centre, w_rp)])
            dz = schur_li.T @ (schur_li @ rhs)
            # one step of iterative refinement against the unjittered complement
            # keeps the dual residual down when the complement is ill-conditioned
            dz += schur_li.T @ (schur_li @ (rhs - schur @ dz))
            # a sum of exactly Hermitian matrices is exactly Hermitian
            ds = [gd + r for gd, r in zip(lmi.apply(dz), r_p)]
            dx = [_herm(c - x - w @ d @ w) for c, x, w, d in zip(centre, x_blk, w_blk, ds)]
            return dz, ds, dx

        # the predictor fixes the centering parameter and the second-order term
        _, ds_a, dx_a = newton([0.0] * len(x_blk))
        corr, p_steps, d_steps = zip(*[_second_order(gh, d, ds)
                                       for gh, d, ds in zip(g_hat, d_blk, ds_a)])
        a_p = min([1.0, *p_steps])
        a_d = min([1.0, *d_steps])
        nu_aff = sum(
            _pair(x + a_p * dx, s + a_d * ds)
            for x, dx, s, ds in zip(x_blk, dx_a, s_blk, ds_a)) / n_tot
        sigma = float(np.clip((max(nu_aff, 0.0) / nu) ** 3, 1e-8, 0.999))

        # the corrector aims at sigma nu S^-1 less the predictor's second-order term
        dz, ds, dx = newton([sigma * nu * (li.conj().T @ li) - c
                             for (_, li), c in zip(s_chol, corr)])
        a_p = STEP_FRACTION * min([1.0 / STEP_FRACTION] + [_max_step(c, d) for c, d in zip(x_chol, dx)])
        a_d = STEP_FRACTION * min([1.0 / STEP_FRACTION] + [_max_step(c, d) for c, d in zip(s_chol, ds)])
        a_p, a_d = min(a_p, 1.0), min(a_d, 1.0)

        z = z + a_d * dz
        s_blk, s_chol = zip(*[_make_pd(s + a_d * d) for s, d in zip(s_blk, ds)])
        x_blk, x_chol = zip(*[_make_pd(x + a_p * d) for x, d in zip(x_blk, dx)])

    min_eig = min(float(np.linalg.eigvalsh(f0 + gz)[0])
                  for f0, gz in zip(blocks_f0, lmi.apply(z)))
    if status == "optimal" and min_eig < -10.0 * feas_tol * data_scale:
        status = "max-iters"
    residuals = {"primal": float(prim_res), "dual": float(dual_res), "min_eig": min_eig}
    return status, z, list(x_blk), pobj, dobj, it, residuals


def _pair(a, b):
    """Re tr(A B) for Hermitian A and B."""
    return float(np.vdot(b, a).real)


def _make_pd(a):
    """The Hermitian part of a, with its eigenvalues raised to 1e-14 of the
    largest if it has no Cholesky factor, and its ``_cholesky`` (L, L^-1)."""
    a = _herm(a)
    chol = _cholesky(a)
    if chol is None:
        w, q = np.linalg.eigh(a)
        w = np.clip(w, 1e-14 * max(1.0, float(w[-1])), None)
        a = _herm((q * w) @ q.conj().T)
        chol = _cholesky(a)
    return a, chol


def solve(problem: SdpProblem, tol: float = DEFAULT_TOL,
          feas_tol: float = DEFAULT_FEAS_TOL,
          max_iters: int = DEFAULT_MAX_ITERS) -> SdpSolution:
    """Solve the problem; never reports an uncertified ``optimal``.

    The status is one of:

    - ``optimal``: certified, as below;
    - ``infeasible`` / ``unbounded``: a normalized divergence certificate
      was found;
    - ``max-iters``: ``max_iters`` iterations ran without certifying, or
      the final point failed the eigenvalue check below;
    - ``stalled``: the slack S left the PSD cone, so no scaling exists;
    - ``singular``: the Schur complement stayed singular after six
      growing diagonal jitters;
    - ``numerical-error``: the duality measure or an objective stopped
      being finite.

    Problem data that are not finite, and a ``tol`` or ``feas_tol`` that
    is not positive and finite, raise ``SdpError`` before any iteration.
    On status ``optimal`` the primal and dual values are within ``tol`` of
    each other (relative to max(1, values)), every PSD block has minimum
    eigenvalue >= -10*feas_tol at the returned point.  ``dual_blocks`` holds
    the Hermitian PSD dual matrix X_c of each PSD constraint, and the dual
    value is sum_c Re tr(F0_c X_c) for a maximization and its negation for
    a minimization.
    """
    for name, t in (("tol", tol), ("feas_tol", feas_tol)):
        if not (np.isfinite(t) and t > 0):
            raise SdpError(f"{name} must be positive and finite, not {t!r}")
    lmi = _compile(problem)
    status, z, x_blk, pobj, dobj, iters, residuals = _solve_lmi(lmi, tol, feas_tol, max_iters)

    assignments = {var.name: lmi.variable(z, v) for v, var in enumerate(problem.variables)}
    primal = lmi.sense * pobj
    dual = lmi.sense * dobj
    return SdpSolution(
        status=status,
        primal_value=float(primal),
        dual_value=float(dual),
        gap=float(abs(primal - dual)),
        assignments=assignments,
        iterations=iters,
        tol=tol,
        feas_tol=feas_tol,
        residuals=residuals,
        dual_blocks=x_blk,
    )
