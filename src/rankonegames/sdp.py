"""Small dense semidefinite programs over Hermitian variables.

A problem is a list of named matrix variables (``hermitian`` or
``real-symmetric``), a real-linear objective given by one coefficient
matrix per variable, affine PSD constraints, and scalar affine equality
constraints.  Each PSD constraint is

    F0 + sum over terms  A @ X_v @ B^dagger  >= 0

and the total map must be Hermitian-valued on Hermitian inputs.

The solver is a primal-dual path-following interior-point method with
Nesterov-Todd scaling and a Mehrotra-style adaptive centering parameter.
Hermitian data is embedded into real-symmetric form once, up front; the
core iteration is purely real.  Every ``optimal`` exit carries a dual
certificate: the returned primal and dual values bracket the optimum and
their gap is at most the requested tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import matrix_to_json

HERMITIAN = "hermitian"
REAL_SYMMETRIC = "real-symmetric"

DEFAULT_TOL = 1e-7
DEFAULT_FEAS_TOL = 1e-8
DEFAULT_MAX_ITERS = 200
STEP_FRACTION = 0.98
# dense Schur complement: memory grows with the parameter count squared
MAX_PARAMETERS = 8000


class SdpError(RuntimeError):
    """A structurally invalid problem or an uncertifiable solve."""


@dataclass(frozen=True)
class SdpVariable:
    name: str
    side: int
    domain: str = HERMITIAN


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
class EqualityConstraint:
    """sum_v Re tr(E_v^dagger X_v) = rhs."""
    coeffs: dict[str, np.ndarray]
    rhs: float
    name: str = ""


@dataclass
class SdpProblem:
    variables: list[SdpVariable]
    objective: dict[str, np.ndarray]
    psd_constraints: list[PsdConstraint]
    equalities: list[EqualityConstraint] = field(default_factory=list)
    maximize: bool = True

    def variable(self, name: str) -> SdpVariable:
        for v in self.variables:
            if v.name == name:
                return v
        raise SdpError(f"unknown variable {name!r}")

    def to_json(self) -> dict:
        return {
            "maximize": self.maximize,
            "variables": [
                {"name": v.name, "side": v.side, "domain": v.domain}
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
            "equalities": [
                {
                    "name": e.name,
                    "rhs": e.rhs,
                    "coeffs": {k: matrix_to_json(m) for k, m in e.coeffs.items()},
                }
                for e in self.equalities
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


# -- Hermitian parameter bases and realification -----------------------------

def hermitian_basis(side: int) -> list[np.ndarray]:
    """Orthonormal real basis of Hermitian side x side matrices (d^2 of them)."""
    basis = []
    for k in range(side):
        e = np.zeros((side, side), dtype=complex)
        e[k, k] = 1.0
        basis.append(e)
    for k in range(side):
        for l in range(k + 1, side):
            e = np.zeros((side, side), dtype=complex)
            e[k, l] = e[l, k] = 1.0 / np.sqrt(2.0)
            basis.append(e)
            f = np.zeros((side, side), dtype=complex)
            f[k, l] = 1j / np.sqrt(2.0)
            f[l, k] = -1j / np.sqrt(2.0)
            basis.append(f)
    return basis


def symmetric_basis(side: int) -> list[np.ndarray]:
    """Orthonormal basis of real symmetric matrices (d(d+1)/2 of them)."""
    basis = []
    for k in range(side):
        e = np.zeros((side, side))
        e[k, k] = 1.0
        basis.append(e)
    for k in range(side):
        for l in range(k + 1, side):
            e = np.zeros((side, side))
            e[k, l] = e[l, k] = 1.0 / np.sqrt(2.0)
            basis.append(e)
    return basis


def realify(m: np.ndarray) -> np.ndarray:
    """H -> [[Re H, -Im H], [Im H, Re H]]; a *-homomorphism on matrices."""
    m = np.asarray(m, dtype=complex)
    re, im = m.real, m.imag
    return np.block([[re, -im], [im, re]])


def _complex_dual(x: np.ndarray) -> np.ndarray:
    """Complex X with Re tr(K X) = <realify(K), x> for Hermitian K; realify(X)/2
    averages x with its conjugation by [[0,-I],[I,0]], so X is PSD with x."""
    s = x.shape[0] // 2
    return (x[:s, :s] + x[s:, s:]) + 1j * (x[s:, :s] - x[:s, s:])


def variable_basis(var: SdpVariable) -> list[np.ndarray]:
    if var.domain == HERMITIAN:
        return hermitian_basis(var.side)
    if var.domain == REAL_SYMMETRIC:
        return [b.astype(complex) for b in symmetric_basis(var.side)]
    raise SdpError(f"unknown variable domain {var.domain!r}")


def real_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Re tr(a^dagger b)."""
    return float(np.real(np.sum(np.conj(a) * b)))


def embed_complex(p: SdpProblem) -> SdpProblem:
    """Real-symmetric program with the same optimum as the complex one.

    Every variable doubles its side via H -> [[Re H, -Im H],[Im H, Re H]];
    objective and equality coefficients pick up a factor 1/2 because the
    embedding doubles traces.  PSD is preserved in both directions, and
    averaging any feasible point of the embedded program with its
    conjugation by [[0,-I],[I,0]] lands back on an embedded point with the
    same objective, so the optima agree.
    """
    variables = [SdpVariable(v.name, 2 * v.side, REAL_SYMMETRIC) for v in p.variables]
    objective = {k: realify(c) / 2.0 for k, c in p.objective.items()}
    constraints = [
        PsdConstraint(
            constant=realify(c.constant),
            terms=[PsdTerm(t.var, realify(t.left), realify(t.right)) for t in c.terms],
            name=c.name,
        )
        for c in p.psd_constraints
    ]
    equalities = [
        EqualityConstraint({k: realify(m) / 2.0 for k, m in e.coeffs.items()}, e.rhs, e.name)
        for e in p.equalities
    ]
    return SdpProblem(variables, objective, constraints, equalities, p.maximize)


# -- compilation to a real LMI ------------------------------------------------

class _CompiledLmi:
    """maximize g.z subject to F0_c + sum_j z_j G_cj >= 0 per block."""

    def __init__(self, g, blocks_f0, blocks_g, shift):
        self.g = g                  # (m,)
        self.blocks_f0 = blocks_f0  # list of (s_c, s_c) sym
        self.blocks_g = blocks_g    # list of (m, s_c, s_c) stacks
        self.shift = shift          # objective constant from eliminated equalities


def _compile(problem: SdpProblem, feas_tol: float):
    """Flatten variables to real parameters and build realified LMI data.

    Returns (lmi, recover) where recover(y_full) maps the full parameter
    vector back to complex variable assignments, plus the eliminated-space
    transform pieces needed to undo the reduction.
    """
    bases = {}
    offsets = {}
    off = 0
    for v in problem.variables:
        if v.side <= 0:
            raise SdpError(f"variable {v.name!r} has nonpositive side")
        bases[v.name] = variable_basis(v)
        offsets[v.name] = off
        off += len(bases[v.name])
    m_full = off
    if m_full > MAX_PARAMETERS:
        raise SdpError(
            f"problem has {m_full} scalar parameters, beyond the dense "
            f"interior-point scale ({MAX_PARAMETERS}); reduce the dimensions")

    sense = 1.0 if problem.maximize else -1.0
    g_full = np.zeros(m_full)
    for name, c in problem.objective.items():
        var = problem.variable(name)
        c = np.asarray(c, dtype=complex)
        if c.shape != (var.side, var.side):
            raise SdpError(f"objective coefficient for {name!r} has wrong shape")
        for j, h in enumerate(bases[name]):
            g_full[offsets[name] + j] = sense * real_inner(c, h)

    # equality rows over full parameters
    n_eq = len(problem.equalities)
    a_eq = np.zeros((n_eq, m_full))
    r_eq = np.zeros(n_eq)
    for i, eq in enumerate(problem.equalities):
        r_eq[i] = eq.rhs
        for name, e in eq.coeffs.items():
            var = problem.variable(name)
            e = np.asarray(e, dtype=complex)
            if e.shape != (var.side, var.side):
                raise SdpError(f"equality coefficient for {name!r} has wrong shape")
            for j, h in enumerate(bases[name]):
                a_eq[i, offsets[name] + j] += real_inner(e, h)

    # realified PSD blocks: stack of per-parameter coefficient matrices
    blocks_f0 = []
    blocks_g_full = []
    for c_idx, con in enumerate(problem.psd_constraints):
        f0 = np.asarray(con.constant, dtype=complex)
        side = f0.shape[0]
        if f0.shape != (side, side):
            raise SdpError("PSD constant block must be square")
        if np.linalg.norm(f0 - f0.conj().T) > 1e-10 * (1.0 + np.linalg.norm(f0)):
            raise SdpError(f"PSD constant block {c_idx} is not Hermitian")
        stack = np.zeros((m_full, 2 * side, 2 * side))
        for t in con.terms:
            var = problem.variable(t.var)
            a = np.asarray(t.left, dtype=complex)
            b = np.asarray(t.right, dtype=complex)
            if a.shape != (side, var.side) or b.shape != (side, var.side):
                raise SdpError(
                    f"term for {t.var!r} in block {c_idx} has wrong shape "
                    f"(need {side}x{var.side})")
            for j, h in enumerate(bases[t.var]):
                k = a @ h @ b.conj().T
                stack[offsets[t.var] + j] += realify(k)
        # Hermitian-valued map check: realified parts must be symmetric
        for j in range(m_full):
            gj = stack[j]
            dev = np.linalg.norm(gj - gj.T)
            if dev > 1e-9 * (1.0 + np.linalg.norm(gj)):
                raise SdpError(
                    f"PSD block {c_idx} is not Hermitian-valued (parameter {j})")
            stack[j] = (gj + gj.T) / 2.0
        blocks_f0.append(realify(f0))
        blocks_g_full.append(stack)

    if not blocks_f0:
        raise SdpError("problem has no PSD constraints")

    # eliminate equalities: y = y0 + N z
    if n_eq > 0:
        y0, *_ = np.linalg.lstsq(a_eq, r_eq, rcond=None)
        if np.linalg.norm(a_eq @ y0 - r_eq) > feas_tol * (1.0 + np.linalg.norm(r_eq)):
            return None, (bases, offsets, m_full)  # equalities inconsistent
        u, s, vt = np.linalg.svd(a_eq, full_matrices=True)
        rank = int(np.sum(s > max(a_eq.shape) * np.finfo(float).eps * (s[0] if s.size else 1.0)))
        nbasis = vt[rank:].T  # (m_full, m_red)
    else:
        y0 = np.zeros(m_full)
        nbasis = np.eye(m_full)

    m_red = nbasis.shape[1]
    g = nbasis.T @ g_full
    shift = float(g_full @ y0)
    blocks_f0_red = []
    blocks_g = []
    for f0, stack in zip(blocks_f0, blocks_g_full):
        s_c = f0.shape[0]
        flat = stack.reshape(m_full, -1)
        f0_red = f0 + (y0 @ flat).reshape(s_c, s_c)
        g_red = (nbasis.T @ flat).reshape(m_red, s_c, s_c)
        blocks_f0_red.append((f0_red + f0_red.T) / 2.0)
        blocks_g.append(g_red)

    lmi = _CompiledLmi(g, blocks_f0_red, blocks_g, shift)
    lmi.y0 = y0
    lmi.nbasis = nbasis
    lmi.sense = sense
    return lmi, (bases, offsets, m_full)


def _recover_assignments(problem, bases, offsets, y_full):
    out = {}
    for v in problem.variables:
        mats = bases[v.name]
        x = np.zeros((v.side, v.side), dtype=complex)
        for j, h in enumerate(mats):
            x = x + y_full[offsets[v.name] + j] * h
        if v.domain == REAL_SYMMETRIC:
            x = x.real
        out[v.name] = x
    return out


# -- core interior-point iteration -------------------------------------------

def _sym_sqrt_and_inv_sqrt(a):
    w, q = np.linalg.eigh(a)
    w = np.clip(w, 1e-300, None)
    root = np.sqrt(w)
    return (q * root) @ q.T, (q / root) @ q.T


def _nt_scaling(x, s):
    """W symmetric PD with W S W = X."""
    s_half, s_inv_half = _sym_sqrt_and_inv_sqrt(s)
    t = s_half @ x @ s_half
    t_half, _ = _sym_sqrt_and_inv_sqrt((t + t.T) / 2.0)
    w = s_inv_half @ t_half @ s_inv_half
    return (w + w.T) / 2.0


def _max_step(pd_matrix, direction):
    """Largest alpha with pd_matrix + alpha*direction >= 0 (inf if all)."""
    try:
        l = np.linalg.cholesky(pd_matrix)
    except np.linalg.LinAlgError:
        return 0.0
    li = np.linalg.inv(l)
    m = li @ direction @ li.T
    lam = np.linalg.eigvalsh((m + m.T) / 2.0)[0]
    if lam >= -1e-16:
        return np.inf
    return 1.0 / (-lam)


def _solve_lmi(lmi: _CompiledLmi, tol, feas_tol, max_iters):
    """Interior-point loop on: maximize g.z s.t. F0_c + sum z_j G_cj >= 0.

    Dual: minimize <F0, X> s.t. <G_j, X> = -g_j, X >= 0 blockwise.
    Returns (status, z, x_blocks, pobj, dobj, iterations, residuals).
    """
    g = lmi.g
    m = g.size
    blocks_f0 = lmi.blocks_f0
    blocks_g = lmi.blocks_g
    n_blocks = len(blocks_f0)
    sides = [f0.shape[0] for f0 in blocks_f0]
    n_tot = sum(sides)
    gmats = [gs.reshape(m, -1) for gs in blocks_g]

    shift = lmi.shift
    data_scale = max(
        [1.0, float(np.max(np.abs(g))) if m else 1.0]
        + [float(np.linalg.norm(f0, 2)) for f0 in blocks_f0])

    if m == 0:
        lam_min = min(float(np.linalg.eigvalsh(f0)[0]) for f0 in blocks_f0)
        status = "optimal" if lam_min >= -feas_tol * data_scale else "infeasible"
        return (status, np.zeros(0), [np.zeros_like(f0) for f0 in blocks_f0], 0.0, 0.0, 0,
                {"primal": 0.0, "dual": 0.0, "min_eig": lam_min})

    tau = data_scale
    z = np.zeros(m)
    s_blk = [tau * np.eye(s) for s in sides]
    x_blk = [tau * np.eye(s) for s in sides]

    status = "max-iters"
    it = 0
    pobj = dobj = 0.0
    prim_res = dual_res = np.inf
    for it in range(1, max_iters + 1):
        # residuals
        r_p = []
        for c in range(n_blocks):
            sz = blocks_f0[c] + np.tensordot(z, blocks_g[c], axes=(0, 0))
            r_p.append((sz + sz.T) / 2.0 - s_blk[c])
        r_d = -g - np.sum([gm @ x.reshape(-1) for gm, x in zip(gmats, x_blk)], axis=0)

        nu = sum(float(np.sum(x * s)) for x, s in zip(x_blk, s_blk)) / n_tot
        pobj = float(g @ z)
        dobj = sum(float(np.sum(f0 * x)) for f0, x in zip(blocks_f0, x_blk))
        prim_res = max(np.linalg.norm(r) for r in r_p) / (1.0 + data_scale)
        dual_res = float(np.linalg.norm(r_d)) / (1.0 + data_scale)
        gap_abs = abs(pobj - dobj)

        # gap measured against the user-facing objective magnitudes
        gap_scale = max(1.0, abs(pobj + shift), abs(dobj + shift))
        if gap_abs <= tol * gap_scale and prim_res <= feas_tol and dual_res <= feas_tol:
            status = "optimal"
            break

        # divergence: normalized Farkas-type certificates
        xnorm = sum(float(np.trace(x)) for x in x_blk)
        if xnorm > 1e7 * data_scale:
            viol = np.linalg.norm(
                np.sum([gm @ (x / xnorm).reshape(-1) for gm, x in zip(gmats, x_blk)], axis=0))
            f0x = sum(float(np.sum(f0 * x)) for f0, x in zip(blocks_f0, x_blk)) / xnorm
            if viol <= 1e-6 and f0x < -1e-9:
                status = "infeasible"
                break
        znorm = float(np.linalg.norm(z))
        if znorm > 1e7 * data_scale:
            zhat = z / znorm
            lam = min(
                float(np.linalg.eigvalsh(np.tensordot(zhat, blocks_g[c], axes=(0, 0)))[0])
                for c in range(n_blocks))
            if lam >= -1e-9 and float(g @ zhat) > 1e-9:
                status = "unbounded"
                break
        if not (np.isfinite(nu) and nu > 0 and np.isfinite(pobj) and np.isfinite(dobj)):
            break

        # NT scaling and Schur complement (shared by predictor and corrector)
        w_blk = [_nt_scaling(x, s) for x, s in zip(x_blk, s_blk)]
        s_inv = []
        for s in s_blk:
            w_eig, q = np.linalg.eigh(s)
            s_inv.append((q / w_eig) @ q.T)
        schur = np.zeros((m, m))
        for c in range(n_blocks):
            wg = np.matmul(w_blk[c], np.matmul(blocks_g[c], w_blk[c]))
            schur += gmats[c] @ wg.reshape(m, -1).T
        schur = (schur + schur.T) / 2.0

        jitter = 0.0
        try:
            cho = np.linalg.cholesky(schur)
        except np.linalg.LinAlgError:
            jitter = 1e-12 * (1.0 + np.trace(schur) / m)
            for _ in range(6):
                try:
                    cho = np.linalg.cholesky(schur + jitter * np.eye(m))
                    break
                except np.linalg.LinAlgError:
                    jitter *= 100.0
            else:
                break  # hopelessly singular; report best effort

        def newton(sigma):
            rhs = g.copy()
            for c in range(n_blocks):
                target = sigma * nu * s_inv[c] - w_blk[c] @ r_p[c] @ w_blk[c]
                rhs += gmats[c] @ target.reshape(-1)
            dz = _cho_solve(cho, rhs)
            ds = [np.tensordot(dz, blocks_g[c], axes=(0, 0)) + r_p[c] for c in range(n_blocks)]
            ds = [(d + d.T) / 2.0 for d in ds]
            dx = []
            for c in range(n_blocks):
                d = sigma * nu * s_inv[c] - x_blk[c] - w_blk[c] @ ds[c] @ w_blk[c]
                dx.append((d + d.T) / 2.0)
            return dz, ds, dx

        # predictor fixes the centering parameter
        _, ds_a, dx_a = newton(0.0)
        a_p = min([1.0] + [_max_step(x, dx) for x, dx in zip(x_blk, dx_a)])
        a_d = min([1.0] + [_max_step(s, ds) for s, ds in zip(s_blk, ds_a)])
        nu_aff = sum(
            float(np.sum((x + a_p * dx) * (s + a_d * ds)))
            for x, dx, s, ds in zip(x_blk, dx_a, s_blk, ds_a)) / n_tot
        sigma = float(np.clip((max(nu_aff, 0.0) / nu) ** 3, 1e-8, 0.999))

        dz, ds, dx = newton(sigma)
        a_p = STEP_FRACTION * min([1.0 / STEP_FRACTION] + [_max_step(x, d) for x, d in zip(x_blk, dx)])
        a_d = STEP_FRACTION * min([1.0 / STEP_FRACTION] + [_max_step(s, d) for s, d in zip(s_blk, ds)])
        a_p, a_d = min(a_p, 1.0), min(a_d, 1.0)

        z = z + a_d * dz
        s_blk = [_make_pd(s + a_d * d) for s, d in zip(s_blk, ds)]
        x_blk = [_make_pd(x + a_p * d) for x, d in zip(x_blk, dx)]

    min_eig = min(
        float(np.linalg.eigvalsh(
            blocks_f0[c] + np.tensordot(z, blocks_g[c], axes=(0, 0)))[0])
        for c in range(n_blocks))
    if status == "optimal" and min_eig < -10.0 * feas_tol * data_scale:
        status = "max-iters"
    residuals = {"primal": float(prim_res), "dual": float(dual_res), "min_eig": min_eig}
    return status, z, x_blk, pobj, dobj, it, residuals


def _cho_solve(l, b):
    y = np.linalg.solve(l, b)
    return np.linalg.solve(l.T, y)


def _make_pd(a):
    a = (a + a.T) / 2.0
    try:
        np.linalg.cholesky(a)
        return a
    except np.linalg.LinAlgError:
        w, q = np.linalg.eigh(a)
        w = np.clip(w, 1e-14 * max(1.0, float(w[-1])), None)
        return (q * w) @ q.T


def solve(problem: SdpProblem, tol: float = DEFAULT_TOL,
          feas_tol: float = DEFAULT_FEAS_TOL,
          max_iters: int = DEFAULT_MAX_ITERS) -> SdpSolution:
    """Solve the problem; never reports an uncertified ``optimal``.

    On status ``optimal`` the primal and dual values are within ``tol`` of
    each other (relative to max(1, values)), every PSD block has minimum
    eigenvalue >= -10*feas_tol at the returned point, and equality
    residuals vanish by construction of the eliminated parameterization.
    ``dual_blocks`` holds the Hermitian PSD dual matrix X_c of each PSD
    constraint; with no equalities the dual value is sum_c Re tr(F0_c X_c)
    for a maximization and its negation for a minimization.
    """
    lmi, meta = _compile(problem, feas_tol)
    bases, offsets, m_full = meta
    if lmi is None:
        return SdpSolution("infeasible", 0.0, 0.0, 0.0, {}, 0, tol, feas_tol,
                           {"primal": np.inf, "dual": np.inf, "min_eig": -np.inf})

    status, z, x_blk, pobj, dobj, iters, residuals = _solve_lmi(lmi, tol, feas_tol, max_iters)

    y_full = lmi.y0 + lmi.nbasis @ z
    assignments = _recover_assignments(problem, bases, offsets, y_full)
    primal = lmi.sense * (pobj + lmi.shift)
    dual = lmi.sense * (dobj + lmi.shift)
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
        dual_blocks=[_complex_dual(x) for x in x_blk],
    )
