"""Dense complex linear algebra: validation, trace norm, polar maximizer,
realignment, random unitaries and the repo-wide matrix JSON encoding.

Matrices are plain ``numpy.ndarray``s of dtype complex128 in row-major
order.  All functions are pure.
"""

from __future__ import annotations

import numpy as np


class DimensionMismatchError(ValueError):
    """A matrix does not have the shape it was given."""


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


def trace_norm(a: np.ndarray) -> float:
    """Sum of singular values."""
    return float(np.sum(np.linalg.svd(as_matrix(a), compute_uv=False)))


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


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a Ginibre matrix, R-diagonal phase fixed."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


# -- repo-wide matrix JSON encoding -----------------------------------------

def matrix_to_json(m: np.ndarray) -> dict:
    """{"rows": r, "cols": c, "data": [[re, im], ...]} row-major."""
    m = as_matrix(m)
    data = [[float(x.real), float(x.imag)] for x in m.reshape(-1)]
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": data}


def json_int(x) -> int:
    """x if it is a JSON integer; a bool, float or string raises TypeError."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"expected an integer dimension, not {x!r}")
    return x


def matrix_from_json(obj: dict) -> np.ndarray:
    rows, cols = json_int(obj["rows"]), json_int(obj["cols"])
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
