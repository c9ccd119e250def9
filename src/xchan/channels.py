"""Kraus-form channels: action on states, defining conditions, Choi matrix.

A channel acts as ``rho -> sum_i C_i rho C_i^dag``.  Trace preservation is
the completeness condition ``sum_i C_i^dag C_i = I``; a raw ``KrausChannel``
may hold operator sets that violate it (useful for diagnostics), but
``apply`` refuses to run them.

Choi convention: ``J = sum_{k,l} E_kl (x) B(E_kl)`` with matrix units E_kl,
unnormalized (trace N), so trace preservation reads "partial trace of J over
the output factor equals I" with no scale factor.  J is PSD iff the map is
completely positive, and its rank is the minimal Kraus count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import NotPSDError, NotTracePreservingError
from .linalg import (
    as_complex,
    dagger,
    herm_eig,
    herm_eigvals,
    matrix_rank,
    partial_trace,
)
from .states import DensityMatrix
from .tolerances import TOL_ORTH, TOL_PSD, TOL_RANK, TOL_TP


@dataclass(frozen=True)
class KrausChannel:
    """Ordered set of same-dimension square Kraus operators."""

    kraus: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(as_complex(c) for c in self.kraus)
        if len(ops) == 0:
            raise ValueError("a channel needs at least one Kraus operator")
        dim = ops[0].shape[0]
        for i, c in enumerate(ops):
            if c.shape != (dim, dim):
                raise ValueError(
                    f"Kraus operator {i} has shape {c.shape}, expected {(dim, dim)}"
                )
        frozen = []
        for c in ops:
            c = c.copy()
            c.setflags(write=False)
            frozen.append(c)
        object.__setattr__(self, "kraus", tuple(frozen))

    @property
    def dim(self) -> int:
        return self.kraus[0].shape[0]

    def __len__(self) -> int:
        return len(self.kraus)


class CheckResult(NamedTuple):
    ok: bool
    residual: float


class ExtremalityResult(NamedTuple):
    extremal: bool
    gram_rank: int
    expected: int


def check_trace_preserving(ch: KrausChannel, tol: float = TOL_TP) -> CheckResult:
    """Max-entry residual of sum_i C_i^dag C_i - I, and whether it passes."""
    acc = sum(dagger(c) @ c for c in ch.kraus)
    residual = float(np.max(np.abs(acc - np.eye(ch.dim))))
    return CheckResult(residual <= tol, residual)


def check_unital(ch: KrausChannel, tol: float = TOL_TP) -> CheckResult:
    """Max-entry residual of sum_i C_i C_i^dag - I (identity preservation)."""
    acc = sum(c @ dagger(c) for c in ch.kraus)
    residual = float(np.max(np.abs(acc - np.eye(ch.dim))))
    return CheckResult(residual <= tol, residual)


def check_trace_orthogonal(ch: KrausChannel, tol: float = TOL_ORTH) -> CheckResult:
    """Largest pairwise overlap |Tr[C_i^dag C_j]| over i != j."""
    worst = 0.0
    for i, a in enumerate(ch.kraus):
        for j, b in enumerate(ch.kraus):
            if i != j:
                worst = max(worst, abs(complex(np.trace(dagger(a) @ b))))
    return CheckResult(worst <= tol, worst)


def check_extremal(
    ch: KrausChannel, tol_rank: float = TOL_RANK, tol_tp: float = TOL_TP
) -> ExtremalityResult:
    """Linear-independence test on the products {C_i^dag C_j}.

    The given representation is extremal iff the k^2 products are linearly
    independent (Gram rank k^2).  The verdict is representation-sensitive:
    padding a channel with redundant operators lowers the rank, so canonical
    answers come from the minimal Kraus set (see ``kraus_from_choi``).
    """
    ok, residual = check_trace_preserving(ch, tol_tp)
    if not ok:
        raise NotTracePreservingError(
            "extremality is defined for trace-preserving channels",
            residual=residual,
        )
    products = [dagger(a) @ b for a in ch.kraus for b in ch.kraus]
    rank = matrix_rank(products, tol_rank)
    expected = len(ch.kraus) ** 2
    return ExtremalityResult(rank == expected, rank, expected)


def apply(ch: KrausChannel, rho: DensityMatrix, tol: float = TOL_TP) -> DensityMatrix:
    """Channel action sum_i C_i rho C_i^dag on a validated state."""
    if ch.dim != rho.dim:
        raise ValueError(f"channel dim {ch.dim} != state dim {rho.dim}")
    ok, residual = check_trace_preserving(ch, tol)
    if not ok:
        raise NotTracePreservingError(
            "refusing to apply a non-trace-preserving channel", residual=residual
        )
    return DensityMatrix(apply_to_matrix(ch, rho.mat))


def apply_to_matrix(ch: KrausChannel, x: np.ndarray) -> np.ndarray:
    """Linear extension of the channel action to arbitrary matrices."""
    x = as_complex(x)
    if x.shape != (ch.dim, ch.dim):
        raise ValueError(f"matrix shape {x.shape} != channel dim {ch.dim}")
    return sum(c @ x @ dagger(c) for c in ch.kraus)


def choi(ch: KrausChannel) -> np.ndarray:
    """Choi matrix of the channel, N^2 x N^2.

    Equals sum_kl E_kl (x) B(E_kl), which for Kraus operators reduces to
    sum_i vec(C_i) vec(C_i)^dag with column-major vectorization.
    """
    n = ch.dim
    j = np.zeros((n * n, n * n), dtype=complex)
    for c in ch.kraus:
        w = c.flatten(order="F")
        j += np.outer(w, w.conj())
    return j


def choi_output_trace(j: np.ndarray) -> np.ndarray:
    """Partial trace of a Choi matrix over the output factor.

    Equals I_N exactly when the underlying map is trace preserving.
    """
    n = _choi_dim(j)
    return partial_trace(j, n, n, over="env")


def choi_min_eigenvalue(j: np.ndarray) -> float:
    """Smallest eigenvalue of a Choi matrix; >= -TOL_PSD iff the map is CP."""
    return float(herm_eigvals(j)[-1])


def kraus_from_choi(j: np.ndarray, tol_rank: float = TOL_RANK) -> KrausChannel:
    """Canonical Kraus operators from a PSD Choi matrix.

    One operator per eigenvalue above ``tol_rank``; the eigenbasis makes the
    returned operators pairwise trace orthogonal.
    """
    n = _choi_dim(j)
    w, v = herm_eig(j)
    low = float(w.min())
    if low < -TOL_PSD:
        raise NotPSDError("Choi matrix is not PSD", residual=low)
    ops = []
    for lam, vec in zip(w, v.T):
        if lam > tol_rank:
            ops.append(np.sqrt(lam) * vec.reshape(n, n, order="F"))
    if not ops:
        raise ValueError("Choi matrix has no eigenvalue above tol_rank")
    return KrausChannel(tuple(ops))


def convex_combine(
    channels: Sequence[KrausChannel], weights: Sequence[float]
) -> KrausChannel:
    """Convex combination: Kraus set = concatenation of sqrt(w_j) C_i^(j)."""
    if len(channels) != len(weights):
        raise ValueError(
            f"{len(channels)} channels but {len(weights)} weights"
        )
    if len(channels) == 0:
        raise ValueError("need at least one channel")
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0):
        raise ValueError(f"weights must be non-negative, got {w.tolist()}")
    total = float(w.sum())
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"weights must sum to 1, got {total!r}")
    dim = channels[0].dim
    for i, ch in enumerate(channels):
        if ch.dim != dim:
            raise ValueError(f"channel {i} has dim {ch.dim}, expected {dim}")
    ops = []
    for wj, ch in zip(w, channels):
        root = np.sqrt(wj)
        ops.extend(root * c for c in ch.kraus)
    return KrausChannel(tuple(ops))


def _choi_dim(j: np.ndarray) -> int:
    j = as_complex(j)
    n = round(np.sqrt(j.shape[0]))
    if j.shape[0] != j.shape[1] or n * n != j.shape[0]:
        raise ValueError(f"Choi matrix must be N^2 x N^2, got shape {j.shape}")
    return n
