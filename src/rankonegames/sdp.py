"""Small dense semidefinite programs over Hermitian variables.

A problem is a list of named matrix variables (``hermitian``, or
``off-diagonal``: Hermitian with zero diagonal blocks about a split index),
a real-linear objective given by one coefficient matrix per variable, and
affine PSD constraints.  Each PSD constraint is

    F0 + sum over terms  +-A @ X_v @ A^dagger  >= 0,

a signed congruence per term, so the map is Hermitian-valued on Hermitian
inputs by construction.

The solver is Mehrotra's predictor-corrector primal-dual interior-point
method with Nesterov-Todd scaling (Mehrotra, SIAM J. Optim. 2, 1992; Todd,
Toh & Tutuncu, SIAM J. Optim. 8, 1998): the predictor's affine direction
fixes the centering parameter, and the corrector adds the predictor's
second-order term in the scaled space.  Several PSD constraints are one
PSD constraint on their block-diagonal sum (Vandenberghe & Boyd, SIAM
Review 38, 1996), so every program is compiled to one complex Hermitian
block that holds its constraints on the diagonal, and the method iterates
on single matrices of that side.  Each variable's real parameters reach its
matrix through a sparse map with at most two entries per parameter.  The
block is compiled once into a flat operator: the factors A and +-A of all
terms, each zero outside its own constraint's rows, padded to the largest
variable side and stacked, and one index plan that scatters the parameters
into per-term copies of their variables.  The map is then one scatter, one
batched matmul and one matmul, and its adjoint reads the same plan
backwards.  The Schur complement is assembled from the same factors, as in
the sparsity exploitation of Fujisawa, Kojima & Nakata (Math. Programming
79, 1997): one matmul for all the products +-A^dagger W A, one per pair of
variables that share a constraint for their Kronecker sum, and two gathers
per pair for the basis change, so no block-sized matrix per parameter is
kept, and pairs that share no constraint keep a zero Schur block.
Every ``optimal`` exit carries a dual certificate: the returned primal and
dual values bracket the optimum and their gap is at most the requested
tolerance.  Each status is decided once, in the loop that every program runs.
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
    """One summand sign * A @ X_var @ A^dagger of a PSD constraint block,
    with sign +1 or -1."""
    var: str
    left: np.ndarray
    sign: int = 1


@dataclass
class PsdConstraint:
    constant: np.ndarray
    terms: list[PsdTerm] = field(default_factory=list)
    name: str = ""

    def block(self, assignments: dict[str, np.ndarray]) -> np.ndarray:
        """F0 + sum over terms sign * A @ X_var @ A^dagger, formed densely at
        the variable values ``assignments``."""
        out = np.array(self.constant, dtype=complex)
        for t in self.terms:
            a = np.asarray(t.left)
            out += t.sign * (a @ assignments[t.var] @ a.conj().T)
        return out


@dataclass
class SdpProblem:
    variables: list[SdpVariable]
    objective: dict[str, np.ndarray]
    psd_constraints: list[PsdConstraint]
    maximize: bool = False
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
                            "sign": int(t.sign),
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
    residuals: dict
    # complex Hermitian dual matrix of each PSD constraint, in problem order
    dual_blocks: list[np.ndarray]


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
class _VarTerms:
    """The terms of one variable: the block receives sum_t s_t A_t X A_t^dagger
    over ``count`` consecutive terms of the stacks, whose live factor columns
    are ``cols``."""
    side: int
    count: int
    cols: slice


@dataclass(frozen=True)
class _PairPlan:
    """The Schur block S_vu = Re(T_v^T K T_u) of a pair of variables.

    K keeps the rows (a, d) and columns (b, c) with a in ``a_range`` and b
    in ``b_range``, the entries that v's basis reaches.  H_i of v is read
    at its first entry only, at flat row ``rows[i]``, with weight
    ``first[i]``; H_j of u sums its two entries, at flat columns
    ``cols[q, j]``, with ``coefs[q, j]``.  One gather per entry of u reads
    K at ``rows + cols[q]``.  The block lands at ``at`` of S.
    """
    a_range: slice
    b_range: slice
    rows: np.ndarray         # (m_v, 1) int
    cols: np.ndarray         # (2, m_u) int
    first: np.ndarray        # (m_v,) complex
    coefs: np.ndarray        # (2, m_u) complex
    at: tuple


@dataclass
class _CompiledLmi:
    """maximize g.y subject to F0 + sum_j y_j G_j >= 0, one Hermitian block.

    PSD constraint c is the diagonal block ``slices[c]``: F0 is zero off
    those blocks, and each term's factor A_t is zero outside its own
    constraint's rows.  Parameter j of variable v sits at ``offsets[v] + j``
    of y, and G_j = sum_t s_t A_t H_j A_t^dagger over the terms of v, with
    H_j the basis of ``maps[v]``.

    Term t, of sign s_t, has A_t and B_t^dagger = s_t A_t^dagger padded with
    zeros to the largest variable side D; a map of such terms is
    Hermitian-valued, as the Schur gather of ``_pair_plan`` needs.
    ``scatter``, ``param`` and ``coef`` map parameters into the real view
    of the stack of per-term variable copies X_t (T, D, D): entry
    ``scatter[k]`` receives ``coef[k] * y[param[k]]``.  The same plan read
    backwards gives the adjoint's traces, since Re tr(H_j Y) is the real
    inner product of H_j and Y for Hermitian H_j.  ``parts`` locates each
    variable's terms, and ``pairs`` holds the Schur basis change of every
    pair of variables that share a constraint.
    """
    g: np.ndarray
    constant: np.ndarray            # F0, Hermitian and block-diagonal
    slices: list[slice]             # the rows of each PSD constraint
    parts: dict[int, _VarTerms]     # by variable, for the variables with terms
    left_cat: np.ndarray            # [A_1 ... A_T] padded, side x (T D)
    right_h: np.ndarray             # B_t^dagger padded, (T, D, side)
    live: np.ndarray                # the columns of left_cat that are not padding
    scatter: np.ndarray
    param: np.ndarray
    coef: np.ndarray
    maps: list[BasisMap]
    offsets: list[int]
    pairs: dict
    sense: float

    def variable(self, y: np.ndarray, v: int) -> np.ndarray:
        """X_v of the parameter vector y."""
        return self.maps[v].matrix(y[self.offsets[v]: self.offsets[v] + self.maps[v].size])

    def apply(self, y: np.ndarray) -> np.ndarray:
        """sum_j y_j G_j: L [X_t B_t^dagger]_t."""
        n_terms, d, side = self.right_h.shape
        xs = np.bincount(self.scatter, self.coef * y[self.param], minlength=2 * n_terms * d * d)
        xs = xs.view(complex).reshape(n_terms, d, d)
        return _herm(self.left_cat @ (xs @ self.right_h).reshape(n_terms * d, side))

    def adjoint(self, mat: np.ndarray) -> np.ndarray:
        """(Re tr(G_j M))_j for Hermitian M: the traces of B_t^dagger M A_t
        against the basis, summed by parameter."""
        n_terms, d, side = self.right_h.shape
        ys = self.right_h @ (mat @ self.left_cat).reshape(side, n_terms, d).transpose(1, 0, 2)
        return np.bincount(self.param, ys.reshape(-1).view(float)[self.scatter] * self.coef,
                           minlength=self.g.size)

    def schur(self, w: np.ndarray) -> np.ndarray:
        """S_ij = Re tr(G_i W G_j W), assembled from the term factors.

        Writing H_i = sum_ab T[(a,b), i] E_ab splits the trace into
        K[(a,b),(c,d)] = sum_{t,t'} (B_t'^dag W A_t)[d,a] (B_t^dag W A_t')[b,c]
        for each pair of variables (v, v') that share a constraint, and
        S_vv' = Re(T_v^T K T_v'); the blocks of other pairs stay zero.  All
        the products B_t^dag W A_t' are one matmul of the live factors.
        """
        side = w.shape[0]
        live_h = self.right_h.reshape(-1, side)[self.live]
        f = live_h @ (w @ self.left_cat[:, self.live])      # [(t, b), (t', c)]
        s = np.zeros((self.g.size, self.g.size))
        for (v, u), plan in self.pairs.items():
            flat = _kron_schur(f, self.parts[v], self.parts[u], plan).reshape(-1)
            acc = plan.coefs[0] * flat[plan.rows + plan.cols[0]]
            acc += plan.coefs[1] * flat[plan.rows + plan.cols[1]]
            block = (plan.first[:, None] * acc).real
            rows, cols = plan.at
            if v == u:
                s[rows, cols] = (block + block.T) / 2.0
            else:
                s[rows, cols] = block
                s[cols, rows] = block.T
        return s


def _kron_schur(f: np.ndarray, p: _VarTerms, q: _VarTerms, plan: _PairPlan) -> np.ndarray:
    """sum_{t of p, t' of q} (B_t'^dag W A_t)[d,a] (B_t^dag W A_t')[b,c], indexed
    [(a,d),(b,c)] over a and b in the plan's ranges, from the products f of
    the block: one matmul over the term pairs."""
    n, dp, nq, dq = p.count, p.side, q.count, q.side
    fwd = f[p.cols, q.cols].reshape(n, dp, nq, dq)[:, plan.b_range]   # [t, b, t', c]
    bwd = f[q.cols, p.cols].reshape(nq, dq, n, dp)[..., plan.a_range]   # [t', d, t, a]
    lhs = bwd.transpose(3, 1, 2, 0).reshape(-1, n * nq)
    rhs = fwd.transpose(0, 2, 1, 3).reshape(n * nq, -1)
    return lhs @ rhs


def _pair_plan(tv: BasisMap, tu: BasisMap, at: tuple) -> _PairPlan:
    """The Schur gather of variables v and u.

    Since the map takes X^dagger to G(X)^dagger, H_i = c E_ab + conj(c) E_ba
    contributes 2 Re(c tr(G(E_ab) W G_j W)) for Hermitian G_j and W, so v
    keeps its first entries, with twice their weight off the diagonal.
    """
    a, b = tv.rows[0], tv.cols[0]
    a0, b0 = a.min(), b.min()
    n_b = b.max() + 1 - b0
    du = tu.side
    # K[(a, d), (b, c)] flattened: ((a du + d) n_b + b) du + c, with a and b from a0 and b0
    return _PairPlan(slice(a0, a.max() + 1), slice(b0, b0 + n_b),
                     (((a - a0) * du * n_b + b - b0) * du)[:, None], tu.cols * (n_b * du) + tu.rows,
                     tv.coefs[0] * np.where(a == b, 1.0, 2.0), tu.coefs, at)


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


def _compile(problem: SdpProblem) -> _CompiledLmi:
    """Parameter maps, objective, and the stacked term factors of the one
    block that holds every PSD constraint on its diagonal."""
    index = {}
    for i, v in enumerate(problem.variables):
        if v.side <= 0:
            raise SdpError(f"variable {v.name!r} has nonpositive side")
        if index.setdefault(v.name, i) != i:
            raise SdpError(f"variable {v.name!r} is declared twice")
    maps = [basis_map(v) for v in problem.variables]
    sizes = [t.size for t in maps]
    offsets = [int(o) for o in np.cumsum([0] + sizes[:-1])]
    m = sum(sizes)
    if m > MAX_PARAMETERS:
        raise SdpError(
            f"problem has {m} scalar parameters, beyond the dense "
            f"interior-point scale ({MAX_PARAMETERS}); reduce the dimensions")

    sense = 1.0 if problem.maximize else -1.0
    g = sense * _objective_row(problem, index, maps, offsets)
    if not problem.psd_constraints:
        raise SdpError("problem has no PSD constraints")

    constants, slices, grouped, pairs = [], [], {}, {}
    top = 0
    for c_idx, con in enumerate(problem.psd_constraints):
        f0 = np.asarray(con.constant, dtype=complex)
        if f0.ndim != 2 or f0.shape[0] != f0.shape[1]:
            raise SdpError(f"PSD constant block {c_idx} must be square")
        side = f0.shape[0]
        if not np.all(np.isfinite(f0)):
            raise SdpError(f"PSD constant block {c_idx} is not finite")
        if np.linalg.norm(f0 - f0.conj().T) > 1e-10 * (1.0 + np.linalg.norm(f0)):
            raise SdpError(f"PSD constant block {c_idx} is not Hermitian")
        rows = slice(top, top + side)
        top += side
        for t in con.terms:
            var = problem.variable(t.var)
            a = np.asarray(t.left, dtype=complex)
            if a.shape != (side, var.side):
                raise SdpError(f"term for {t.var!r} in block {c_idx} has wrong shape "
                               f"(need {side}x{var.side})")
            if not np.all(np.isfinite(a)):
                raise SdpError(f"term for {t.var!r} in block {c_idx} is not finite")
            if not (np.ndim(t.sign) == 0 and t.sign in (1, -1)):
                raise SdpError(f"term for {t.var!r} in block {c_idx} has a sign other than +1 or -1")
            grouped.setdefault(index[t.var], []).append((rows, a, t.sign))
        present = sorted({index[t.var] for t in con.terms})
        for i, v in enumerate(present):
            for u in present[i:]:
                if (v, u) not in pairs:
                    at = (slice(offsets[v], offsets[v] + sizes[v]),
                          slice(offsets[u], offsets[u] + sizes[u]))
                    pairs[v, u] = _pair_plan(maps[v], maps[u], at)
        constants.append(_herm(f0))
        slices.append(rows)

    side = top
    f0 = np.zeros((side, side), dtype=complex)
    for rows, c in zip(slices, constants):
        f0[rows, rows] = c
    n_terms = sum(len(factors) for factors in grouped.values())
    d = max((maps[v].side for v in grouped), default=1)
    left = np.zeros((side, n_terms, d), dtype=complex)
    right_h = np.zeros((n_terms, d, side), dtype=complex)
    parts = {}
    live, scatter, param, coef = ([np.zeros(0, dtype=dt)] for dt in (int, int, int, float))
    t0 = width = 0
    for v in sorted(grouped):
        t, factors = maps[v], grouped[v]
        for k, (rows, a, sign) in enumerate(factors):
            left[rows, t0 + k, : t.side] = a
            right_h[t0 + k, : t.side, rows] = sign * a.conj().T
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
        parts[v] = _VarTerms(t.side, len(factors), slice(width, width + len(factors) * t.side))
        t0 += len(factors)
        width += len(factors) * t.side
    cat = np.concatenate
    return _CompiledLmi(g, f0, slices, parts, left.reshape(side, n_terms * d), right_h,
                        cat(live), cat(scatter), cat(param), cat(coef), maps, offsets, pairs,
                        sense)


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


def _solve_lmi(lmi: _CompiledLmi, names, tol, max_iters) -> SdpSolution:
    """Interior-point loop on: maximize g.z s.t. F0 + sum z_j G_j >= 0, with
    z the variables' parameter vector.

    Dual: minimize Re tr(F0 X) s.t. Re tr(G_j X) = -g_j, X >= 0.  The
    iterates X, S and W are single complex Hermitian matrices of the block's
    side; every PSD constraint is one of their diagonal blocks, and its dual
    matrix is read from X.  ``names`` are the variables' names, in order,
    for the assignments.
    """
    g, f0 = lmi.g, lmi.constant
    n = f0.shape[0]
    eye = np.eye(n, dtype=complex)

    data_scale = max(1.0, float(np.max(np.abs(g))) if g.size else 1.0,
                     float(np.linalg.norm(f0, 2)))

    # S = tau I and X = 2 tau I: the image of the start tau I of the real
    # embedding, whose trace pairing doubles the Hermitian one
    tau = data_scale
    z = np.zeros(g.size)
    s, x = tau * eye, 2.0 * tau * eye
    s_chol, x_chol = _cholesky(s), _cholesky(x)

    status, it = "max-iters", 0
    pobj = dobj = 0.0
    prim_res = dual_res = np.inf
    for it in range(1, max_iters + 1):
        # residuals
        r_p = f0 + lmi.apply(z) - s
        r_d = -g - lmi.adjoint(x)

        nu = _pair(x, s) / n
        pobj = float(g @ z)
        dobj = _pair(f0, x)
        prim_res = _frobenius(r_p) / (1.0 + data_scale)
        dual_res = float(np.linalg.norm(r_d)) / (1.0 + data_scale)
        gap_abs = abs(pobj - dobj)

        # gap measured against the user-facing objective magnitudes.  At an optimal
        # z, F0 + G(z) = S + r_p with S Cholesky-factored or clipped PD, so its least
        # eigenvalue is >= -|r_p|_2 >= -DEFAULT_FEAS_TOL (1 + data_scale) / sqrt 2
        gap_scale = max(1.0, abs(pobj), abs(dobj))
        feasible = prim_res <= DEFAULT_FEAS_TOL and dual_res <= DEFAULT_FEAS_TOL
        if gap_abs <= tol * gap_scale and feasible:
            status = "optimal"
            break

        # divergence: normalized Farkas-type certificates
        xnorm = float(np.trace(x).real)
        if xnorm > 1e7 * data_scale:
            viol = np.linalg.norm(lmi.adjoint(x / xnorm))
            if viol <= 1e-6 and _pair(f0, x) / xnorm < -1e-9:
                status = "infeasible"
                break
        znorm = float(np.linalg.norm(z))
        if znorm > 1e7 * data_scale:
            zhat = z / znorm
            if np.linalg.eigvalsh(lmi.apply(zhat))[0] >= -1e-9 and float(g @ zhat) > 1e-9:
                status = "unbounded"
                break
        if not (np.isfinite(nu) and nu > 0 and np.isfinite(pobj) and np.isfinite(dobj)):
            status = "numerical-error"
            break

        # NT scaling and Schur complement (shared by predictor and corrector);
        # the Cholesky factor of S, taken when the iterate was made PD, serves
        # W, S^-1 and the step lengths
        if s_chol is None:
            status = "stalled"  # S left the cone; no scaling exists
            break
        w, g_hat, d = _nt_scaling(x, s_chol)
        schur = lmi.schur(w)
        schur_chol = _factor_schur(schur)
        if schur_chol is None:
            status = "singular"
            break
        schur_li = schur_chol[1]

        w_rp = w @ r_p @ w

        def newton(centre):
            # centre: the complementarity target, X + dX + W dS W
            rhs = g + lmi.adjoint(centre - w_rp)
            dz = schur_li.T @ (schur_li @ rhs)
            # one step of iterative refinement against the unjittered complement
            # keeps the dual residual down when the complement is ill-conditioned
            dz += schur_li.T @ (schur_li @ (rhs - schur @ dz))
            # a sum of exactly Hermitian matrices is exactly Hermitian
            ds = lmi.apply(dz) + r_p
            return dz, ds, _herm(centre - x - w @ ds @ w)

        # the predictor fixes the centering parameter and the second-order term
        _, ds_a, dx_a = newton(0.0)
        corr, p_step, d_step = _second_order(g_hat, d, ds_a)
        a_p, a_d = min(1.0, p_step), min(1.0, d_step)
        nu_aff = _pair(x + a_p * dx_a, s + a_d * ds_a) / n
        sigma = float(np.clip((max(nu_aff, 0.0) / nu) ** 3, 1e-8, 0.999))

        # the corrector aims at sigma nu S^-1 less the predictor's second-order term
        li = s_chol[1]
        dz, ds, dx = newton(sigma * nu * (li.conj().T @ li) - corr)
        a_p = min(1.0, STEP_FRACTION * _max_step(x_chol, dx))
        a_d = min(1.0, STEP_FRACTION * _max_step(s_chol, ds))

        z = z + a_d * dz
        s, s_chol = _make_pd(s + a_d * ds)
        x, x_chol = _make_pd(x + a_p * dx)

    primal, dual = lmi.sense * pobj, lmi.sense * dobj
    return SdpSolution(status=status, primal_value=float(primal), dual_value=float(dual),
                       gap=float(abs(primal - dual)), iterations=it,
                       assignments={name: lmi.variable(z, v) for v, name in enumerate(names)},
                       residuals={"primal": float(prim_res), "dual": float(dual_res)},
                       dual_blocks=[x[rows, rows] for rows in lmi.slices])


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
          max_iters: int = DEFAULT_MAX_ITERS) -> SdpSolution:
    """Solve the problem; never reports an uncertified ``optimal``.

    The status is one of:

    - ``optimal``: certified, as below;
    - ``infeasible`` / ``unbounded``: a normalized divergence certificate
      was found;
    - ``max-iters``: ``max_iters`` iterations ran without certifying;
    - ``stalled``: the slack S left the PSD cone, so no scaling exists;
    - ``singular``: the Schur complement stayed singular after six
      growing diagonal jitters;
    - ``numerical-error``: the duality measure or an objective stopped
      being finite.

    Problem data that are not finite, and a ``tol`` that is not finite or
    is below DEFAULT_FEAS_TOL, raise ``SdpError`` before any iteration.
    The stopping test holds the residuals to DEFAULT_FEAS_TOL whatever
    ``tol`` is, so a smaller gap tolerance asks for a gap narrower than the
    feasibility it rests on: such solves run to ``max-iters``, or return
    dual blocks that miss the witness check ``values`` makes at 10 * tol.
    On status ``optimal`` the primal and dual values are within ``tol`` of
    each other (relative to max(1, values)), and the block-diagonal sum of the PSD
    constraints at the returned point has least eigenvalue
    >= -DEFAULT_FEAS_TOL (1 + scale) / sqrt 2 up to rounding, by the
    stopping test; scale is the largest of 1, |g_j| and |F0|_2.
    ``dual_blocks`` holds the Hermitian PSD dual matrix X_c of each PSD
    constraint, the diagonal block of the solver's one X, and the dual
    value is sum_c Re tr(F0_c X_c) for a maximization and its negation for
    a minimization.
    """
    if not (np.isfinite(tol) and tol >= DEFAULT_FEAS_TOL):
        raise SdpError(f"tol must be at least {DEFAULT_FEAS_TOL:g} and finite, not {tol!r}")
    return _solve_lmi(_compile(problem), [v.name for v in problem.variables], tol, max_iters)
