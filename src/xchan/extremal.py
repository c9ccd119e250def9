"""Extremal channel construction from diagonal parameters.

An extremal channel on an N-level system is assembled as ``C_i = U_i D_i``
where the ``D_i`` are non-negative diagonal matrices whose squared entries
sum to 1 down each column (completeness) and the ``U_i`` are fixed canonical
unitaries chosen so every pairwise product ``U_i^dag U_j`` (i != j) has zero
diagonal, which makes the operators pairwise trace orthogonal for any choice
of diagonals.  The family carries N^2 - N free real parameters: the N^2
squared diagonal entries minus the N per-column completeness constraints.

Any right unitary factors of the Kraus operators can be absorbed into the
diagonals (they only permute singular values), so the parametrization has no
separate V factors; ``pair_reduction_step`` exposes the conjugation identity
that underlies this absorption as a verification utility.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import KrausChannel, choi
from .errors import ColumnOverflowError, SingularComplementError, ValidationError
from .linalg import ID2, SX, as_complex_stack, dagger, herm_eig, real_if_exact
from .tolerances import (
    INTERIOR_MARGIN, JACOBIAN_RANK_TOL, TOL_COLUMN_SUM, TOL_PSD, TOL_SINGULAR, TOL_TP
)


@dataclass(frozen=True, eq=False)
class ExtremalParams:
    """N non-negative diagonals, squared entries summing to 1 per column.

    ``diagonals[i]`` holds the entries of the i-th diagonal factor D_i.
    """

    diagonals: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.diagonals, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError(f"diagonals must be square (N, N), got {d.shape}")
        if d.shape[0] < 2:
            raise ValueError("need at least a 2-level system")
        if not np.all(np.isfinite(d)):
            raise ValueError("diagonals have non-finite entries")
        if np.any(d < 0) or np.any(d > 1):
            raise ValidationError("diagonal entries must lie in [0, 1]")
        sums = (d**2).sum(axis=0)
        worst = float(np.max(np.abs(sums - 1.0)))
        if worst > TOL_COLUMN_SUM:
            raise ValidationError(
                "squared diagonal entries must sum to 1 per column",
                residual=worst,
            )
        d = d.copy()
        d.setflags(write=False)
        object.__setattr__(self, "diagonals", d)

    @property
    def n(self) -> int:
        return self.diagonals.shape[0]


def canonical_unitaries(n: int) -> list[np.ndarray]:
    """Fixed unitaries whose pairwise products have zero diagonal.

    n=2 uses {I, sigma_x}; n=3 uses three symmetric permutations whose
    pairwise products are 3-cycles; n=4 uses the sigma_x tensor grid
    {I(x)I, I(x)sx, sx(x)I, sx(x)sx}; larger n uses powers of the cyclic
    shift S e_m = e_{m+1 mod n}.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if n == 2:
        return [ID2.copy(), SX.copy()]
    if n == 3:
        return [
            np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex),
            np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=complex),
            np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex),
        ]
    if n == 4:
        return [
            np.eye(4, dtype=complex),
            np.kron(ID2, SX),
            np.kron(SX, ID2),
            np.kron(SX, SX),
        ]
    # S^i e_m = e_{m+i}, so row r of S^i is the unit row e_{(r-i) mod n}.
    r = np.arange(n)
    return list(np.eye(n, dtype=complex)[(r[None, :] - r[:, None]) % n])


def complete_last_diagonal(partials) -> ExtremalParams:
    """Fill in the last diagonal factor from the first N-1.

    ``partials`` is an (N-1, N) array of non-negative entries; the last row
    is completed as sqrt(1 - column sum of squares), with round-off negatives
    clamped to zero.  ``ExtremalParams`` checks the completed array.

    Raises
    ------
    ColumnOverflowError
        If some column's squared entries already exceed 1 beyond tolerance
        and every entry is finite and non-negative; otherwise the
        ``ExtremalParams`` error for the bad entry.
    """
    d = np.asarray(partials, dtype=float)
    if d.ndim != 2 or d.shape != (d.shape[1] - 1, d.shape[1]):
        raise ValueError(
            f"expected (N-1, N) partial diagonals, got shape {d.shape}"
        )
    # A square beyond double range is an overflowing column, not a warning.
    with np.errstate(over="ignore"):
        sums = (d**2).sum(axis=0)
    over = np.flatnonzero(sums > 1.0 + TOL_PSD)
    # A non-finite or negative entry takes precedence over an overflow;
    # ExtremalParams reports it.
    if over.size and np.isfinite(d).all() and d.min() >= 0:
        m = int(over[0])
        raise ColumnOverflowError(column=m, excess=float(sums[m] - 1.0))
    last = np.sqrt(np.clip(1.0 - sums, 0.0, None))
    return ExtremalParams(np.vstack([d, last[None, :]]))


def build_extremal(
    params: ExtremalParams, unitaries: list[np.ndarray] | None = None
) -> KrausChannel:
    """Assemble the channel with operators U_i diag(D_i).

    All-zero diagonal factors contribute nothing to the map and would skew
    the operator count, so they are dropped.  Defaults to the canonical
    unitaries for the given dimension.
    """
    n = params.n
    if unitaries is None:
        unitaries = canonical_unitaries(n)
    us = as_complex_stack(unitaries)
    if us.shape != (n, n, n):
        raise ValueError(f"expected {n} unitaries of shape ({n}, {n}), got {us.shape}")
    d = params.diagonals
    keep = np.any(d != 0.0, axis=1)
    # Column m of U_i scales by d_{i,m}: U_i diag(D_i).
    return KrausChannel(us[keep] * d[keep, None, :])


def sample_extremal(n: int, seed: int) -> tuple[ExtremalParams, KrausChannel]:
    """Random member of the extremal family, deterministic in the seed.

    Per column the squared entries are a flat Dirichlet draw (normalized
    exponentials), so every sample satisfies completeness exactly up to
    round-off.
    """
    params = ExtremalParams(_dirichlet_diagonals(n, seed))
    return params, build_extremal(params)


def sample_interior(n: int, seed: int) -> ExtremalParams:
    """Random parameters with every entry away from the {0, 1} boundary.

    The squared entries are blended toward the uniform column 1/n, keeping
    each entry in [0.1/n, 0.95] so finite differencing is well conditioned.
    """
    squares = _dirichlet_diagonals(n, seed) ** 2
    squares = 0.9 * squares + 0.1 / n
    return ExtremalParams(np.sqrt(squares))


def parameter_jacobian_rank(
    params: ExtremalParams,
    step: float | None = None,
    rank_tol: float = JACOBIAN_RANK_TOL,
) -> int:
    """Numerical rank of the parameters-to-Choi Jacobian.

    The free parameters are the squared entries s_{i,m} = d_{i,m}^2 of the
    first N-1 diagonals (the last is completed); the map lands in the real
    embedding of the Choi matrix.  At generic interior points the rank
    equals N^2 - N, the family's parameter count.

    ``step=None`` (the default) uses the exact Jacobian in closed form (see
    ``_exact_jacobian``).  It builds one row per Choi entry (p, q) with
    p <= q inside the support of J, and only the real part when the
    unitaries are real (the canonical ones always are): at N=8, 288 rows
    instead of the 2 N^4 = 8192 of the full real embedding.  The rank is
    the same, because every row left out is exactly zero (an entry outside
    the support, or an imaginary part of real rows) or exactly equal, up to
    sign, to a row that is kept (J is Hermitian, so entry (q, p) is the
    conjugate of entry (p, q)).  A float ``step`` takes central differences
    of the full embedding with that step instead, an independent check on
    the closed form; both give the same rank at interior points.

    Raises
    ------
    ValueError
        If ``step`` is neither None nor a finite number > 0.
    ValidationError
        If some entry is within INTERIOR_MARGIN of 0 or 1, where the chain
        factor 1/(2 d) blows up and one-sided effects would corrupt the
        differences.
    """
    if step is not None and not (np.isfinite(step) and step > 0):
        raise ValueError(f"step must be a finite number > 0, got {step!r}")
    d = params.diagonals
    n = params.n
    if np.any(d <= INTERIOR_MARGIN) or np.any(d >= 1.0 - INTERIOR_MARGIN):
        raise ValidationError("parameters must be strictly interior")
    unitaries = canonical_unitaries(n)
    if step is None:
        jac = _exact_jacobian(d, unitaries)
    else:
        jac = _difference_jacobian(d, unitaries, step)
    s = np.linalg.svd(jac, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > rank_tol * s[0]))


def pair_reduction_step(
    mats, drop_index: int
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Conjugate a resolution of the identity down by one member.

    Given PSD matrices A_i with sum A_i = I, drops the chosen one and
    conjugates the rest by M = (I - A_drop)^(-1/2), so the reduced set again
    sums to the identity.  Returns ``(M, reduced)``.

    Raises
    ------
    SingularComplementError
        If I - A_drop has an eigenvalue <= TOL_SINGULAR and cannot be
        inverted.
    """
    mats = as_complex_stack(mats)
    n = mats.shape[1]
    if mats.shape[2] != n:
        raise ValueError(f"expected square matrices, got stack shape {mats.shape}")
    if not 0 <= drop_index < len(mats):
        raise ValueError(f"drop_index {drop_index} out of range")
    residual = float(np.max(np.abs(mats.sum(axis=0) - np.eye(n))))
    if residual > TOL_TP:
        raise ValidationError(
            "matrices must sum to the identity", residual=residual
        )
    complement = np.eye(n) - mats[drop_index]
    w, v = herm_eig(complement)
    low = float(w.min())
    if low <= TOL_SINGULAR:
        raise SingularComplementError(
            "I - A_drop is numerically singular", residual=low
        )
    m = (v / np.sqrt(w)) @ dagger(v)
    m = 0.5 * (m + dagger(m))
    reduced = [m @ a @ m for i, a in enumerate(mats) if i != drop_index]
    return m, reduced


def _dirichlet_diagonals(n: int, seed: int) -> np.ndarray:
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    rng = np.random.default_rng(seed)
    e = rng.standard_exponential((n, n))
    return np.sqrt(e / e.sum(axis=0))


def _exact_jacobian(d: np.ndarray, unitaries) -> np.ndarray:
    # With w_i = vec(C_i) (column-major) and a_{i,m} = e_m (x) U_i[:, m],
    # w_i = sum_m d_{i,m} a_{i,m}, so J = sum_i w_i w_i^dag has
    # dJ/dd_{i,m} = a_{i,m} w_i^dag + w_i a_{i,m}^dag.  Since
    # d_{i,m} = sqrt(s_{i,m}) and the completed row has
    # d_{N,m} = sqrt(1 - sum_{i<N} s_{i,m}),
    # dJ/ds_{i,m} = dJ/dd_{i,m} / (2 d_{i,m}) - dJ/dd_{N,m} / (2 d_{N,m}).
    # Only the rows that can carry rank are built: entries outside the
    # support of J (no w_i nonzero at both indices) have zero derivative,
    # and J is Hermitian, so the row of entry (q, p) is the conjugate of the
    # row of (p, q).  That leaves the support entries with p <= q.  Real
    # unitaries give real rows; complex ones are embedded as [re; im].
    n = d.shape[0]
    # cols[i, m*n + r] = U_i[r, m]: a_{i,m} is the m-th length-n block.
    cols = real_if_exact(np.asarray(unitaries).transpose(0, 2, 1).reshape(n, n * n))
    w = cols * np.repeat(d, n, axis=1)
    mag = np.abs(w)
    p, q = np.nonzero(np.triu(mag.T @ mag))
    rows = np.arange(p.size)[:, None]
    ops = np.arange(n)[None, :]
    grad = np.zeros((p.size, n, n), dtype=cols.dtype)
    # a_{i,m}[p] is nonzero only for m = p // n.
    grad[rows, ops, (p // n)[:, None]] += (cols[:, p] * w[:, q].conj()).T
    grad[rows, ops, (q // n)[:, None]] += (w[:, p] * cols[:, q].conj()).T
    grad /= 2.0 * d
    jac = (grad[:, :-1, :] - grad[:, -1:, :]).reshape(p.size, -1)
    if np.iscomplexobj(jac):
        return np.concatenate([jac.real, jac.imag])
    return jac


def _difference_jacobian(d: np.ndarray, unitaries, step: float) -> np.ndarray:
    n = d.shape[0]
    free = (d**2)[:-1]
    cols = []
    for i in range(n - 1):
        for m in range(n):
            plus = free.copy()
            minus = free.copy()
            plus[i, m] += step
            minus[i, m] -= step
            delta = _choi_embedding(plus, unitaries) - _choi_embedding(
                minus, unitaries
            )
            cols.append(delta / (2.0 * step))
    return np.column_stack(cols)


def _choi_embedding(free_squares: np.ndarray, unitaries) -> np.ndarray:
    # Completion may momentarily dip below zero while differencing; clamp.
    last = np.clip(1.0 - free_squares.sum(axis=0), 0.0, None)
    squares = np.vstack([np.clip(free_squares, 0.0, None), last[None, :]])
    d = np.sqrt(squares)
    j = choi(KrausChannel(np.asarray(unitaries) * d[:, None, :]))
    return np.concatenate([j.real.ravel(), j.imag.ravel()])
