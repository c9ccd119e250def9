"""Extremal channel construction from diagonal parameters.

An extremal channel on an N-level system is assembled as ``C_i = U_i D_i``
where the ``D_i`` are non-negative diagonal matrices whose squared entries
sum to 1 down each column (completeness) and the ``U_i`` are fixed canonical
unitaries chosen so every pairwise product ``U_i^dag U_j`` (i != j) has zero
diagonal, which makes the operators pairwise trace orthogonal for any choice
of diagonals.  The family carries N^2 - N free real parameters: the N^2
squared diagonal entries minus the N per-column completeness constraints.

The family does not give every extremal channel.  Measured as the rank of
the tangent map to the Choi matrix at a random point, its N^2 - N
parameters are independent; a left rotation L C_i adds N^2 - 1 (rank
2N^2 - N - 1), and a right rotation L C_i R, which the diagonals do not
absorb, adds N^2 - 1 more (3N^2 - N - 2).  Channels of Kraus rank N form a
set of dimension 2N^3 - 2N^2, and its generic members are extremal; the
family with both rotations matches that dimension only at N = 2, the
Ruskai-Szarek-Werner qubit case (``test_extremal`` pins the ranks at
N = 2, 3, 4).  ``pair_reduction_step`` is the conjugation identity on a
resolution of the identity, kept as a verification utility.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channels import KrausChannel, _trusted_channel, choi
from .errors import ColumnOverflowError, SingularComplementError, ValidationError
from .linalg import (
    _check_rank_tol, _frozen, _trusted, as_complex_stack, dagger, herm_eig, real_if_exact
)
from .tolerances import (
    INTERIOR_MARGIN, JACOBIAN_RANK_TOL, TOL_COLUMN_SUM, TOL_PSD, TOL_SINGULAR, TOL_TP
)

# Row r of the canonical U_i is the unit row e_{_PERMUTATIONS[n][i][r]}:
# {I, sigma_x} at n=2, the three symmetric permutations at n=3 and
# {I(x)I, I(x)sx, sx(x)I, sx(x)sx} at n=4.
_PERMUTATIONS = {
    2: ((0, 1), (1, 0)),
    3: ((0, 2, 1), (2, 1, 0), (1, 0, 2)),
    4: ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)),
}


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
        object.__setattr__(self, "diagonals", _frozen(d.copy()))

    @property
    def n(self) -> int:
        return self.diagonals.shape[0]


def canonical_unitaries(n: int) -> list[np.ndarray]:
    """Fixed unitaries whose pairwise products have zero diagonal.

    n=2 uses {I, sigma_x}; n=3 uses three symmetric permutations whose
    pairwise products are 3-cycles; n=4 uses the sigma_x tensor grid
    {I(x)I, I(x)sx, sx(x)I, sx(x)sx}; larger n uses powers of the cyclic
    shift S e_m = e_{m+1 mod n}.  Every U_i is a permutation matrix, and
    their supports partition the n^2 positions.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return list(_canonical_stack(n).copy())


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
    d = params.diagonals
    keep = np.any(d != 0.0, axis=1)
    if unitaries is None:
        # Permutations times checked diagonals: finite and square, and some
        # diagonal is kept, since each column's squares sum to 1.
        return _trusted_channel(_canonical_stack(n)[keep] * d[keep, None, :])
    us = as_complex_stack(unitaries)
    if us.shape != (n, n, n):
        raise ValueError(f"expected {n} unitaries of shape ({n}, {n}), got {us.shape}")
    # Column m of U_i scales by d_{i,m}: U_i diag(D_i).
    return KrausChannel(us[keep] * d[keep, None, :])


def sample_extremal(n: int, seed: int) -> tuple[ExtremalParams, KrausChannel]:
    """Random member of the extremal family, deterministic in the seed.

    Per column the squared entries are a flat Dirichlet draw (normalized
    exponentials), so every sample satisfies completeness exactly up to
    round-off.
    """
    # Square roots of Dirichlet draws: in [0, 1], and each column's squares
    # sum to 1 up to round-off.
    params = _trusted(ExtremalParams, diagonals=_frozen(_dirichlet_diagonals(n, seed)))
    return params, build_extremal(params)


def sample_interior(n: int, seed: int) -> ExtremalParams:
    """Random parameters with every entry away from the {0, 1} boundary.

    The squared entries are blended toward the uniform column 1/n, keeping
    each entry in [0.1/n, 0.95] so finite differencing is well conditioned.
    """
    squares = _dirichlet_diagonals(n, seed) ** 2
    squares = 0.9 * squares + 0.1 / n
    # Each square lies in [0.1/n, 0.95] and each column sums to 0.9 + 0.1 = 1
    # up to round-off.
    return _trusted(ExtremalParams, diagonals=_frozen(np.sqrt(squares)))


def parameter_jacobian_rank(
    params: ExtremalParams,
    step: float | None = None,
    rank_tol: float = JACOBIAN_RANK_TOL,
) -> int:
    """Numerical rank of the parameters-to-Choi Jacobian.

    The free parameters are the squared entries s_{i,m} = d_{i,m}^2 of the
    first N-1 diagonals (the last is completed); the map lands in the real
    embedding of the Choi matrix.  At generic interior points the rank
    equals N^2 - N, the family's parameter count.  The rank counts the
    singular values above ``rank_tol`` times the largest.

    ``step=None`` (the default) proves the rank instead of computing it.
    The canonical U_i are permutation matrices whose supports partition the
    N^2 positions, so every Choi support entry (p, q) with p <= q belongs
    to exactly one operator i and equals d_{i,m} d_{i,m'} with m <= m'
    (``_exact_jacobian`` builds these rows; the other rows of the full
    real embedding are zero or repeat one of them).  Ordered by operator
    and by free diagonal, the exact Jacobian is

        Jac = [blockdiag(B_0, ..., B_{N-2}); -B_{N-1} [I ... I]],
        B_i[(m, m'), c] = [c = m] d_{i,m'} / (2 d_{i,m})
                        + [c = m'] d_{i,m} / (2 d_{i,m'}),

    since each of the first N-1 diagonals moves only its own operator's
    entries and the completed last one, d_{N,m} = sqrt(1 - sum_{i<N}
    s_{i,m}), moves its entries against all of them.  The entry (m, m) of
    operator i < N-1 is s_{i,m} itself and moves with no other parameter,
    so Jac holds a unit row for every column: Jac^T Jac >= I and every
    singular value is >= 1.  The largest
    is at most ||Jac||_F, which is closed form in r = d^2:

        ||B_i||_F^2 = N + ((sum_m r_{i,m}) (sum_m 1/r_{i,m}) - N) / 4,
        ||Jac||_F^2 = sum_{i<N-1} ||B_i||_F^2 + (N-1) ||B_{N-1}||_F^2.

    So whenever ``rank_tol`` * ||Jac||_F < 1 the rank is N^2 - N, with no
    decomposition.  Interior entries exceed INTERIOR_MARGIN = 1e-3, so
    r_{i,m} lies in (1e-6, 1) and ||Jac||_F^2 < (2N - 2)(N + N^2 / 4e-6):
    at the default cutoff 1e-6 the product stays below 0.05 at N=16 and
    below 1 up to N=126, so the default never decomposes.  Otherwise the
    singular values of the exact Jacobian are counted.  Since ||Jac||_F >=
    sqrt(N^2 - N) >= sqrt(2), a ``rank_tol`` of 1/sqrt(2) or more always
    counts them.

    A float ``step`` takes central differences of the full embedding with
    that step instead, an independent check on the closed form; both give
    the same rank at interior points.

    Raises
    ------
    ValueError
        If ``step`` is neither None nor a finite number > 0, or
        ``rank_tol`` is not a finite number >= 0.
    ValidationError
        If some entry is within INTERIOR_MARGIN of 0 or 1, where the chain
        factor 1/(2 d) blows up and one-sided effects would corrupt the
        differences.
    """
    if step is not None and not (np.isfinite(step) and step > 0):
        raise ValueError(f"step must be a finite number > 0, got {step!r}")
    _check_rank_tol(rank_tol, "rank_tol")
    d = params.diagonals
    if np.any(d <= INTERIOR_MARGIN) or np.any(d >= 1.0 - INTERIOR_MARGIN):
        raise ValidationError("parameters must be strictly interior")
    n = params.n
    if step is None:
        if rank_tol * _jacobian_norm(d) < 1.0:
            return n * n - n
        jac = _exact_jacobian(d, canonical_unitaries(n))
    else:
        jac = _difference_jacobian(d, canonical_unitaries(n), step)
    # A zero Jacobian counts nothing: no s exceeds 0.
    s = np.linalg.svd(jac, compute_uv=False)
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


@lru_cache(maxsize=16)
def _canonical_stack(n: int) -> np.ndarray:
    """The (n, n, n) complex128 stack of ``canonical_unitaries(n)``, n >= 2,
    made once per n and read-only."""
    if n in _PERMUTATIONS:
        rows = np.array(_PERMUTATIONS[n])
    else:
        # S^i e_m = e_{m+i}, so row r of S^i is the unit row e_{(r-i) mod n}.
        r = np.arange(n)
        rows = (r[None, :] - r[:, None]) % n
    return _frozen(np.eye(n, dtype=complex)[rows])


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


def _jacobian_norm(d: np.ndarray) -> float:
    # ||Jac||_F of the exact Jacobian in ``parameter_jacobian_rank``'s closed
    # form, r = d^2 > 0.
    n = d.shape[0]
    r = d**2
    blocks = n + 0.25 * (r.sum(axis=1) * (1.0 / r).sum(axis=1) - n)
    return float(np.sqrt(blocks[:-1].sum() + (n - 1) * blocks[-1]))


def _difference_jacobian(d: np.ndarray, unitaries, step: float) -> np.ndarray:
    n = d.shape[0]
    free = (d**2)[:-1]
    # Column-major, so that each central difference fills one contiguous
    # column of the 2 N^4 x (N^2 - N) result; column i*N + m is s_{i,m}'s.
    jac = np.empty((n * n - n, 2 * n**4)).T
    for col, (i, m) in enumerate(np.ndindex(n - 1, n)):
        plus = free.copy()
        minus = free.copy()
        plus[i, m] += step
        minus[i, m] -= step
        delta = _choi_embedding(plus, unitaries) - _choi_embedding(minus, unitaries)
        np.divide(delta, 2.0 * step, out=jac[:, col])
    return jac


def _choi_embedding(free_squares: np.ndarray, unitaries) -> np.ndarray:
    # Completion may momentarily dip below zero while differencing; clamp.
    last = np.clip(1.0 - free_squares.sum(axis=0), 0.0, None)
    squares = np.vstack([np.clip(free_squares, 0.0, None), last[None, :]])
    d = np.sqrt(squares)
    j = choi(KrausChannel(np.asarray(unitaries) * d[:, None, :]))
    return np.concatenate([j.real.ravel(), j.imag.ravel()])
