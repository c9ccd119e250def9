"""Kraus-form channels: action on states, defining conditions, Choi matrix.

A channel acts as ``rho -> sum_i C_i rho C_i^dag``.  Trace preservation is
the completeness condition ``sum_i C_i^dag C_i = I``; a raw ``KrausChannel``
may hold operator sets that violate it (useful for diagnostics), but
``apply`` refuses to run them.  ``apply``'s output is not validated as a
state again: the chain in ``tolerances`` bounds its trace, which is
checked, and its PSD defect.

The operators are held as one read-only ``(k, N, N)`` complex array,
``KrausChannel.stack``, validated once at construction; its completeness
residual is measured once per channel, on first use, and every check and
gate of trace preservation reads that value.  Every operation here is one
or two batched numpy calls on that array: the completeness and unitality
sums are single matrix products of its ``(k N, N)`` and ``(N, k N)``
reshapes, trace orthogonality reads the Gram matrix of the flattened
operators, and the Choi matrix is one product of the column-major vec stack,
or, for operators with disjoint supports, the sum of their outer products
written block by block.

Choi convention: ``J = sum_{k,l} E_kl (x) B(E_kl)`` with matrix units E_kl,
unnormalized (trace N), so trace preservation reads "partial trace of J over
the output factor equals I" with no scale factor.  J is PSD iff the map is
completely positive, and its rank is the minimal Kraus count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .errors import NotPSDError, NotTracePreservingError
from .linalg import (
    _check_rank_tol,
    _frozen,
    _herm_eig,
    _rank,
    _row_outer_sum,
    _trusted,
    as_complex,
    as_complex_stack,
    herm_eigvals,
    partial_trace,
    real_if_exact,
)
from .states import DensityMatrix, _output_state
from .tolerances import TOL_ORTH, TOL_PSD, TOL_RANK, TOL_TP, TOL_WEIGHT_SUM


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Ordered set of same-dimension square Kraus operators.

    Construction copies the operators once into ``stack``, a read-only
    ``(k, N, N)`` complex128 array, after the one gate of a Kraus set
    (``linalg.as_complex_stack``): at least one operator, all square of one
    shape with N >= 1, every entry finite and within ``linalg.ENTRY_MAX``.
    ``kraus_from_choi`` builds its channel without that gate: its parts are
    bounded by J's eigenvalues only, and can exceed ``ENTRY_MAX``.
    ``kraus`` is the tuple of the k read-only views ``stack[i]``; the input
    may be any sequence of matrices or a ``(k, N, N)`` array, and later
    changes to it do not reach the channel.  Equality is identity.
    """

    kraus: tuple[np.ndarray, ...]
    stack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        stack = _frozen(as_complex_stack(self.kraus).copy())
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "kraus", tuple(stack))

    @property
    def dim(self) -> int:
        return self.stack.shape[1]

    def __len__(self) -> int:
        return self.stack.shape[0]

    @cached_property
    def _tp_residual(self) -> float:
        """max|sum_i C_i^dag C_i - I|, measured once: ``stack`` is read-only."""
        # Rows i*N + r of A hold C_i[r, :], so A^dag A = sum_i C_i^dag C_i.
        a = self.stack.reshape(-1, self.dim)
        acc = a.conj().T @ a
        return float(np.max(np.abs(acc - np.eye(self.dim))))


class CheckResult(NamedTuple):
    ok: bool
    residual: float


class ExtremalityResult(NamedTuple):
    extremal: bool
    gram_rank: int
    expected: int


def check_trace_preserving(ch: KrausChannel, tol: float = TOL_TP) -> CheckResult:
    """Max-entry residual of sum_i C_i^dag C_i - I, and whether it passes."""
    residual = ch._tp_residual
    return CheckResult(residual <= tol, residual)


def require_trace_preserving(ch: KrausChannel, why: str, tol: float = TOL_TP) -> None:
    """Raise ``NotTracePreservingError`` saying ``why``, with the residual,
    unless ``check_trace_preserving(ch, tol)`` passes."""
    ok, residual = check_trace_preserving(ch, tol)
    if not ok:
        raise NotTracePreservingError(why, residual=residual)


def check_unital(ch: KrausChannel, tol: float = TOL_TP) -> CheckResult:
    """Max-entry residual of sum_i C_i C_i^dag - I (identity preservation)."""
    # Columns i*N + c of B hold C_i[:, c], so B B^dag = sum_i C_i C_i^dag.
    b = ch.stack.transpose(1, 0, 2).reshape(ch.dim, -1)
    acc = b @ b.conj().T
    residual = float(np.max(np.abs(acc - np.eye(ch.dim))))
    return CheckResult(residual <= tol, residual)


def check_trace_orthogonal(ch: KrausChannel, tol: float = TOL_ORTH) -> CheckResult:
    """Largest pairwise overlap |Tr[C_i^dag C_j]| over i != j."""
    # Gram matrix of the flattened operators: g[i, j] = Tr[C_i^dag C_j].
    w = ch.stack.reshape(len(ch), -1)
    g = np.abs(w.conj() @ w.T)
    np.fill_diagonal(g, 0.0)
    worst = float(g.max())
    return CheckResult(worst <= tol, worst)


def check_extremal(
    ch: KrausChannel, tol_rank: float = TOL_RANK, tol_tp: float = TOL_TP
) -> ExtremalityResult:
    """Linear-independence test on the products {C_i^dag C_j}.

    The given representation is extremal iff the k^2 products are linearly
    independent (Gram rank k^2).  The verdict is representation-sensitive:
    padding a channel with redundant operators lowers the rank, so canonical
    answers come from the minimal Kraus set (see ``kraus_from_choi``).

    Raises
    ------
    ValueError
        If ``tol_rank`` is not a finite number >= 0.
    NotTracePreservingError
        If the completeness residual exceeds ``tol_tp``.
    """
    _check_rank_tol(tol_rank, "tol_rank")
    require_trace_preserving(
        ch, "extremality is defined for trace-preserving channels", tol_tp
    )
    stack = real_if_exact(ch.stack)
    # products[i*k + j] = C_i^dag C_j.  They are finite, so ``_rank`` takes
    # them without a gate: a gated set's parts are at most ENTRY_MAX, so a
    # product entry's are at most 2 N ENTRY_MAX^2, and a ``kraus_from_choi``
    # operator has |C_i|_F^2 equal to an eigenvalue of a finite J, which
    # Cauchy-Schwarz carries to every product entry.
    products = stack.conj().transpose(0, 2, 1)[:, None] @ stack[None]
    rank = _rank(products.reshape(-1, ch.dim, ch.dim), tol_rank)
    expected = len(ch) ** 2
    return ExtremalityResult(rank == expected, rank, expected)


def apply(ch: KrausChannel, rho: DensityMatrix, tol: float = TOL_TP) -> DensityMatrix:
    """Channel action sum_i C_i rho C_i^dag on a validated state.

    The output is not symmetrised and not decomposed: its trace is checked
    at ``tolerances.output_trace_bound`` for the channel's completeness
    residual, and its least eigenvalue obeys
    ``tolerances.output_eigenvalue_floor``.
    """
    if ch.dim != rho.dim:
        raise ValueError(f"channel dim {ch.dim} != state dim {rho.dim}")
    require_trace_preserving(
        ch, "refusing to apply a non-trace-preserving channel", tol
    )
    return _output_state(apply_to_matrix(ch, rho.mat), len(ch), ch._tp_residual)


def apply_to_matrix(ch: KrausChannel, x: np.ndarray) -> np.ndarray:
    """Linear extension of the channel action to arbitrary matrices."""
    x = as_complex(x)
    if x.shape != (ch.dim, ch.dim):
        raise ValueError(f"matrix shape {x.shape} != channel dim {ch.dim}")
    stack = ch.stack
    return (stack @ x @ stack.conj().transpose(0, 2, 1)).sum(axis=0)


def choi(ch: KrausChannel) -> np.ndarray:
    """Choi matrix of the channel, N^2 x N^2.

    Equals sum_kl E_kl (x) B(E_kl), which for Kraus operators reduces to
    sum_i vec(C_i) vec(C_i)^dag with column-major vectorization.  When the
    operators' exact supports are pairwise disjoint, as for ``C_i = U_i
    D_i`` with permutations ``U_i``, J is one rank-one block per operator;
    from N^2 >= ``linalg._SCATTER_MIN_DIM`` those blocks are written alone
    into a zeroed J (``linalg._row_outer_sum``), with the bits of the dense
    product.
    """
    # Row i of w is vec(C_i): the rows of C_i^T laid end to end.
    w = real_if_exact(ch.stack).transpose(0, 2, 1).reshape(len(ch), -1)
    return _row_outer_sum(w)


def choi_output_trace(j: np.ndarray) -> np.ndarray:
    """Partial trace of a Choi matrix over the output factor.

    Equals I_N exactly when the underlying map is trace preserving.
    """
    n = _choi_dim(j)
    return partial_trace(j, n, n)


def choi_min_eigenvalue(j: np.ndarray) -> float:
    """Smallest eigenvalue of a Choi matrix; >= -TOL_PSD iff the map is CP."""
    _choi_dim(j)
    return float(herm_eigvals(j)[-1])


def kraus_from_choi(j: np.ndarray, tol_rank: float = TOL_RANK) -> KrausChannel:
    """Canonical Kraus operators from a PSD Choi matrix.

    One operator per eigenvalue above ``tol_rank``, an absolute cutoff (J
    has trace N), unlike ``check_extremal``'s relative one; the eigenbasis
    makes the returned operators pairwise trace orthogonal.  Only the
    eigenvectors of those eigenvalues are formed: on the block path of
    ``linalg`` a sampled N=16 channel keeps 16 columns of 256.  A
    ``tol_rank`` that is not a finite number >= 0 raises ``ValueError``, as
    in ``check_extremal``.
    """
    _check_rank_tol(tol_rank, "tol_rank")
    n = _choi_dim(j)
    w, v = _herm_eig(j, above=tol_rank)
    low = float(w.min())
    if low < -TOL_PSD:
        raise NotPSDError("Choi matrix is not PSD", residual=low)
    kept = v.shape[1]
    if not kept:
        raise ValueError("Choi matrix has no eigenvalue above tol_rank")
    # Column m of v is vec(C_m) / sqrt(w_m); un-vec each in column-major order.
    vecs = (v * np.sqrt(w[:kept])).T
    stack = vecs.reshape(-1, n, n).transpose(0, 2, 1)
    # Square and finite: each kept eigenvalue is > tol_rank >= 0 and v is
    # unitary.
    return _trusted_channel(stack)


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
    if not np.isfinite(w).all():
        raise ValueError(f"weights must be finite, got {w.tolist()}")
    if np.any(w < 0):
        raise ValueError(f"weights must be non-negative, got {w.tolist()}")
    total = float(w.sum())
    if abs(total - 1.0) > TOL_WEIGHT_SUM:
        raise ValueError(f"weights must sum to 1, got {total!r}")
    dim = channels[0].dim
    for i, ch in enumerate(channels):
        if ch.dim != dim:
            raise ValueError(f"channel {i} has dim {ch.dim}, expected {dim}")
    return KrausChannel(
        np.concatenate([np.sqrt(wj) * ch.stack for wj, ch in zip(w, channels)])
    )


def _trusted_channel(stack: np.ndarray) -> KrausChannel:
    """``KrausChannel(stack)`` without the gate, for a non-empty (k, N, N)
    complex128 stack of finite square matrices that the package built, whose
    products C_i^dag C_j stay finite; contiguous and frozen in place."""
    stack = _frozen(np.ascontiguousarray(stack))
    return _trusted(KrausChannel, kraus=tuple(stack), stack=stack)


def _choi_dim(j: np.ndarray) -> int:
    # Shape only: the decomposition or partial trace that follows coerces j
    # and checks its entries.
    shape = np.shape(j)
    n = math.isqrt(shape[0]) if len(shape) == 2 else 0
    if len(shape) != 2 or shape[0] != shape[1] or n * n != shape[0] or n == 0:
        raise ValueError(f"Choi matrix must be N^2 x N^2 with N >= 1, got shape {shape}")
    return n
