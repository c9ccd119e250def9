"""Dense complex linear algebra primitives for small matrices.

Everything takes plain ``numpy`` arrays, works in ``complex128`` and is sized
for the dimensions this package works at (N <= 16): partial traces,
Hermitian eigendecomposition, PSD square roots, and numerical rank (via
SVD).  Eigenvalues and singular values are always returned in descending
order so downstream output is deterministic.

Matrix input is checked by one gate per kind: ``as_complex`` (a finite 2-D
matrix), ``as_complex_stack`` (a non-empty set of same-shape finite
matrices) and ``checked_hermitian`` (a finite square matrix, Hermitian
within tolerance).  Other modules call these rather than repeat the checks.

A decomposition whose input has an imaginary part that is exactly zero
everywhere runs in real arithmetic (``real_if_exact``): the real and the
complex routine then factor the same matrix, and the real one is two to
three times as fast on a 256 x 256 matrix.  Outputs keep their documented
dtypes either way.
"""

from __future__ import annotations

from typing import Literal, Sequence

import numpy as np

from .errors import NotHermitianError, NotPSDError
from .tolerances import TOL_HERM, TOL_PSD, TOL_RANK

# Pauli basis.  SX, SY, SZ square to the identity and are traceless.
ID2 = np.eye(2, dtype=complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (SX, SY, SZ)


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


def as_complex(m) -> np.ndarray:
    """Coerce to a 2-D complex128 array, rejecting NaN/Inf entries."""
    out = np.asarray(m, dtype=complex)
    if out.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={out.ndim}")
    if not np.isfinite(out).all():
        raise ValueError("matrix has non-finite entries")
    return out


def as_complex_stack(mats) -> np.ndarray:
    """Coerce a non-empty set of same-shape matrices to a (k, r, c) complex128
    array, rejecting NaN/Inf entries.

    ``mats`` is a sequence of 2-D matrices or a (k, r, c) array; the result
    may share memory with an input that is already complex128.
    """
    if len(mats) == 0:
        raise ValueError("need at least one matrix")
    try:
        stack = np.asarray(mats, dtype=complex)
    except ValueError:
        shapes = [np.shape(m) for m in mats]
        raise ValueError(f"matrices differ in shape: {shapes}") from None
    if stack.ndim != 3:
        raise ValueError(f"expected a set of 2-D matrices, got shape {stack.shape}")
    if not np.isfinite(stack).all():
        raise ValueError("matrix has non-finite entries")
    return stack


def real_if_exact(m: np.ndarray) -> np.ndarray:
    """The real part of ``m`` as a view if every imaginary part is exactly
    zero (``-0.0`` included), else ``m`` itself.

    There is no tolerance: a real input passes through, and a complex one
    with any nonzero imaginary entry, however small, stays complex.
    """
    if np.iscomplexobj(m) and not m.imag.any():
        return m.real
    return m


def herm_residual(m: np.ndarray) -> float:
    """Maximum entry deviation from Hermiticity."""
    return float(np.max(np.abs(m - dagger(m)))) if m.size else 0.0


def partial_trace(
    m: np.ndarray,
    dim_sys: int,
    dim_env: int,
    over: Literal["sys", "env"] = "env",
) -> np.ndarray:
    """Trace out one tensor factor of a (dim_sys*dim_env)-dimensional matrix.

    The composite ordering is system-first: index ``(s, e) -> s*dim_env + e``,
    matching ``np.kron(system_op, env_op)``.

    Parameters
    ----------
    m : np.ndarray
        Square matrix of dimension dim_sys * dim_env.
    dim_sys, dim_env : int
        Factor dimensions.
    over : "sys" | "env"
        Which factor to trace out; the result lives on the other one.
    """
    m = as_complex(m)
    dim = dim_sys * dim_env
    if m.shape != (dim, dim):
        raise ValueError(
            f"matrix shape {m.shape} does not match dim_sys*dim_env = {dim}"
        )
    blocks = m.reshape(dim_sys, dim_env, dim_sys, dim_env)
    if over == "env":
        return np.einsum("iaja->ij", blocks)
    if over == "sys":
        return np.einsum("aiaj->ij", blocks)
    raise ValueError(f"over must be 'sys' or 'env', got {over!r}")


def herm_eig(h: np.ndarray, tol: float = TOL_HERM) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvectors as complex128
    columns, so ``h = V @ diag(w) @ V.conj().T``.

    Raises
    ------
    NotHermitianError
        If the input deviates from Hermiticity by more than ``tol``.
    """
    w, v = np.linalg.eigh(checked_hermitian(h, tol))
    return w[::-1].copy(), v[:, ::-1].astype(complex)


def herm_eigvals(h: np.ndarray, tol: float = TOL_HERM) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, descending, without eigenvectors.

    Raises
    ------
    NotHermitianError
        If the input deviates from Hermiticity by more than ``tol``.
    """
    return np.linalg.eigvalsh(checked_hermitian(h, tol))[::-1].copy()


def psd_sqrt(p: np.ndarray, tol: float = TOL_PSD) -> np.ndarray:
    """Hermitian PSD square root S with S @ S = p.

    Eigenvalues in ``[-tol, 0]`` are clamped to zero; anything below ``-tol``
    raises ``NotPSDError``.
    """
    w, v = herm_eig(p)
    low = float(w.min()) if w.size else 0.0
    if low < -tol:
        raise NotPSDError("matrix has a negative eigenvalue", residual=low)
    root = np.sqrt(np.clip(w, 0.0, None))
    s = (v * root) @ dagger(v)
    return 0.5 * (s + dagger(s))


def matrix_rank(mats: Sequence[np.ndarray] | np.ndarray, tol_rank: float = TOL_RANK) -> int:
    """Numerical rank of a set of same-shaped matrices under vectorization.

    ``mats`` is a sequence of matrices or an (m, r, c) array.  Counts
    singular values above ``tol_rank`` times the largest one.
    """
    stack = as_complex_stack(mats)
    s = np.linalg.svd(real_if_exact(stack.reshape(len(stack), -1)), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > tol_rank * s[0]))


def checked_hermitian(h, tol: float = TOL_HERM) -> np.ndarray:
    """``h`` after the finite, square and Hermiticity checks.

    Returns ``h`` as complex128, or its real view when ``h`` is exactly
    real; the residual is the same either way.

    Raises
    ------
    NotHermitianError
        If ``h`` deviates from Hermiticity by more than ``tol``.
    """
    h = real_if_exact(as_complex(h))
    if h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    res = herm_residual(h)
    if res > tol:
        raise NotHermitianError("matrix is not Hermitian", residual=res)
    return h
