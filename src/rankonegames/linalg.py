"""Dense complex linear algebra and multi-register tensor bookkeeping.

Matrices are plain ``numpy.ndarray``s of dtype complex128 in row-major
order.  Multi-register objects are interpreted against a tuple of factor
dimensions ("register shape") with factor 0 the slowest-varying index of
the composite (big-endian) index.  All functions are pure.
"""

from __future__ import annotations

import numpy as np


class DimensionMismatchError(ValueError):
    """A matrix does not fit the register shape or block it was given."""


def as_matrix(a, rows=None, cols=None) -> np.ndarray:
    """Validate `a` as a finite complex matrix and return it as complex128.

    Raises DimensionMismatchError on shape disagreement and ValueError on
    NaN/Inf entries.
    """
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise DimensionMismatchError(f"expected a matrix, got ndim={m.ndim}")
    if rows is not None and m.shape[0] != rows:
        raise DimensionMismatchError(f"expected {rows} rows, got {m.shape[0]}")
    if cols is not None and m.shape[1] != cols:
        raise DimensionMismatchError(f"expected {cols} cols, got {m.shape[1]}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix has non-finite entries")
    return m


def check_shape(m: np.ndarray, dims) -> tuple[int, ...]:
    """Check that square `m` matches the register shape `dims`."""
    dims = tuple(int(d) for d in dims)
    if any(d <= 0 for d in dims):
        raise DimensionMismatchError(f"register dims must be positive: {dims}")
    side = int(np.prod(dims))
    if m.shape != (side, side):
        raise DimensionMismatchError(
            f"matrix side {m.shape} incompatible with register shape {dims}")
    return dims


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with (A x B)[(i,k),(j,l)] = A[i,j] B[k,l]."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def ketbra(dim_i: int, i: int, dim_j: int, j: int) -> np.ndarray:
    """Matrix unit |i><j| of shape (dim_i, dim_j)."""
    m = np.zeros((dim_i, dim_j), dtype=complex)
    m[i, j] = 1.0
    return m


def permute_registers(m: np.ndarray, dims, perm) -> np.ndarray:
    """Conjugate `m` by the unitary reordering tensor factors.

    Output factor k is input factor perm[k]; applying `perm` then its
    inverse is the identity.
    """
    m = as_matrix(m)
    dims = check_shape(m, dims)
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(len(dims))):
        raise DimensionMismatchError(f"{perm} is not a permutation of {len(dims)} factors")
    k = len(dims)
    t = m.reshape(dims + dims)
    t = t.transpose(perm + tuple(k + p for p in perm))
    side = int(np.prod(dims))
    return np.ascontiguousarray(t.reshape(side, side))


def permute_vector(v: np.ndarray, dims, perm) -> np.ndarray:
    """Reorder tensor factors of a state vector; same convention as above."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    dims = tuple(int(d) for d in dims)
    if v.size != int(np.prod(dims)):
        raise DimensionMismatchError("vector length incompatible with register shape")
    perm = tuple(int(p) for p in perm)
    return np.ascontiguousarray(v.reshape(dims).transpose(perm).reshape(-1))


def partial_trace(m: np.ndarray, dims, traced) -> np.ndarray:
    """Trace out the factors listed in `traced`; trace-preserving and linear."""
    m = as_matrix(m)
    dims = check_shape(m, dims)
    traced = sorted(set(int(t) for t in traced))
    k = len(dims)
    if any(t < 0 or t >= k for t in traced):
        raise DimensionMismatchError(f"traced index out of range for {k} factors")
    keep = [i for i in range(k) if i not in traced]
    t = m.reshape(dims + dims)
    for t_idx in reversed(traced):
        t = np.trace(t, axis1=t_idx, axis2=t_idx + (t.ndim // 2))
    side = int(np.prod([dims[i] for i in keep])) if keep else 1
    return t.reshape(side, side)


def svd(a: np.ndarray):
    """Singular value decomposition A = U diag(s) Vdag, s descending.

    Backed by LAPACK's dense kernel; convergence failure is raised, never
    silently ignored.  No ordering guarantee among equal singular values.
    """
    a = as_matrix(a)
    try:
        u, s, vdag = np.linalg.svd(a)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"SVD failed to converge: {exc}") from exc
    return u, s, vdag


def singular_values(a: np.ndarray) -> np.ndarray:
    a = as_matrix(a)
    return np.linalg.svd(a, compute_uv=False)


def trace_norm(a: np.ndarray) -> float:
    """Sum of singular values."""
    return float(np.sum(singular_values(a)))


def polar_maximizer(y: np.ndarray):
    """Unitary U maximizing Re tr(U Y); the maximum equals trace_norm(Y).

    With Y = P diag(s) Qdag, the maximizer is U = Q Pdag.  A stack of
    square matrices, shape (..., n, n), gives the stack of maximizers and
    the array of maxima, from one stacked SVD.
    """
    y = np.asarray(y, dtype=complex)
    if y.ndim < 2 or y.shape[-1] != y.shape[-2]:
        raise DimensionMismatchError("polar_maximizer needs square matrices")
    if not np.all(np.isfinite(y)):
        raise ValueError("matrix has non-finite entries")
    p, s, qdag = np.linalg.svd(y)
    u = qdag.conj().swapaxes(-1, -2) @ p.conj().swapaxes(-1, -2)
    return u, s.sum(axis=-1)


def realign(m: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """Regroup a matrix on A(x)B into a dA^2 x dB^2 matrix.

    R(M)[(a,a'),(b,b')] = M[(a,b),(a',b')]; on elementary tensors
    R(A x B) = vec(A) vec(B)^T with row-major vec.
    """
    m = as_matrix(m, d_a * d_b, d_a * d_b)
    return np.ascontiguousarray(
        m.reshape(d_a, d_b, d_a, d_b).transpose(0, 2, 1, 3).reshape(d_a * d_a, d_b * d_b))


def unrealign(r: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """Inverse of :func:`realign`."""
    r = as_matrix(r, d_a * d_a, d_b * d_b)
    return np.ascontiguousarray(
        r.reshape(d_a, d_a, d_b, d_b).transpose(0, 2, 1, 3).reshape(d_a * d_b, d_a * d_b))


def trace_first(y: np.ndarray, d1: int, d2: int) -> np.ndarray:
    """Partial trace over the first factor of a (d1*d2)-sided matrix."""
    return partial_trace(y, (d1, d2), {0})


def trace_second(y: np.ndarray, d1: int, d2: int) -> np.ndarray:
    """Partial trace over the second factor of a (d1*d2)-sided matrix."""
    return partial_trace(y, (d1, d2), {1})


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a Ginibre matrix, R-diagonal phase fixed."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (z + z.conj().T) / 2.0


# -- repo-wide matrix JSON encoding -----------------------------------------

def matrix_to_json(m: np.ndarray) -> dict:
    """{"rows": r, "cols": c, "data": [[re, im], ...]} row-major."""
    m = as_matrix(m)
    data = [[float(x.real), float(x.imag)] for x in m.reshape(-1)]
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": data}


def matrix_from_json(obj: dict) -> np.ndarray:
    rows, cols = int(obj["rows"]), int(obj["cols"])
    data = obj["data"]
    if len(data) != rows * cols:
        raise DimensionMismatchError("matrix JSON: data length != rows*cols")
    flat = np.array([complex(re, im) for re, im in data], dtype=complex)
    return as_matrix(flat.reshape(rows, cols))


def vector_to_json(v: np.ndarray) -> list:
    v = np.asarray(v, dtype=complex).reshape(-1)
    return [[float(x.real), float(x.imag)] for x in v]


def vector_from_json(items) -> np.ndarray:
    return np.array([complex(re, im) for re, im in items], dtype=complex)
