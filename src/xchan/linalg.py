"""Linear algebra primitives for the small matrices of this package.

Everything takes plain ``numpy`` arrays and is sized for the dimensions this
package works at (N <= 16): partial traces, Hermitian eigendecomposition,
numerical rank (via SVD), and the completion and check of a unitary.
Eigenvalues and singular values are always returned in descending order so
downstream output is deterministic.

Matrix input is checked by one gate per kind: ``as_complex`` (a finite 2-D
matrix), ``as_complex_stack`` (a non-empty set of same-shape finite
matrices) and ``checked_hermitian`` (a finite square matrix, Hermitian
within tolerance).  Other modules call these rather than repeat them, and
an array the package built is not gated again (``_rank``).  Likewise a
value class instance the package built itself is made by ``_trusted``,
which stores its read-only fields without the class's gate; each caller
says why the invariants hold.

Every decomposition runs over the groups of its matrix (``_grouped``).  The
whole matrix is one group unless its size reaches a gate and its exact zero
pattern splits into several connected components (``_components``; there
is no tolerance); then each component is a group.  The Choi matrix of a
channel ``C_i = U_i D_i`` with permutation ``U_i`` splits so: its N^2 x N^2
pattern is one N x N block per operator.  Below the gates the pattern
search costs more than the smaller calls save.

Each distinct split pattern is searched once per process: its read-only
groups are kept, keyed by its shape and its packed bits, for the last
``_COMPONENTS_CACHE_SIZE`` (16) patterns.  Every sampled channel at one N
has the same Choi, product-stack, isometry and dilation patterns, so
``choi_min_eigenvalue``, ``kraus_from_choi``, ``check_extremal`` and
``stinespring`` repeat no search.  The keys retain at most 16 x (m p / 8)
bytes; at the CLI's ``sample --n 64`` cap one 4096 x 4096 Choi pattern is a
2 MB key.

The groups of one shape are gathered into one (g, a, b) array, the whole
matrix as the view ``m[None]``, and decomposed by one batched call.  One
group takes that call's output as it is: its eigenvalues and eigenvectors
reversed to descending order, its complement a slice of the QR factor.
Several groups are merged: each group's eigenvalues are reversed and all
are merged by a stable sort, so exact ties keep the group order; each
eigenvector is scattered to its group's indices, and ``kraus_from_choi``
asks only for those of the eigenvalues above its cutoff.  Every singular
value is compared with the largest of all, and each group's complement
columns are placed on its rows.  Inside a degenerate eigenspace the
eigenvectors of a split matrix may differ from those of one ``eigh`` of the
whole.

Every entry outside the groups is an exact zero, since a nonzero entry, NaN
included, joins its row and its column.  So the Hermitian gate reads the
groups' entries only and still finds the whole matrix's errors and residual,
bit for bit.  And when every gathered imaginary part is exactly zero, so is
the matrix's: the groups are then decomposed in real arithmetic
(``real_if_exact``), two to three times as fast as the complex routine on a
256 x 256 matrix.  Outputs keep their documented dtypes either way.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import NotHermitianError
from .tolerances import TOL_HERM, TOL_RANK

# Pauli basis.  SX, SY, SZ square to the identity and are traceless.
ID2 = np.eye(2, dtype=complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (SX, SY, SZ)

# A matrix with at least this many rows and columns is decomposed group by
# group when its exact nonzero pattern splits (see ``_grouped``).  Below it
# the pattern search costs more than the smaller calls save: for sampled
# channels the split and the whole matrix break even at a 36 x 36 Choi
# matrix or product stack (N = 6), and the split wins from 49 x 49.
_BLOCK_MIN_DIM = 40

# The same gate for completing an isometry to a unitary and for checking
# unitarity (``_complement_basis``, ``_unitarity_residual``), on the row
# count N k.  A QR or product of the whole matrix costs less than the
# pattern search up to a larger size: for sampled channels ``stinespring``
# breaks even at N k = 121 (N = 11), and the split wins from 144.
_BLOCK_MIN_UNITARY_DIM = 128

# The number of distinct split patterns whose components are kept
# (``_pattern_components``).  A sampled channel at one N brings at most four:
# its Choi matrix, product stack, isometry and dilation.
_COMPONENTS_CACHE_SIZE = 16


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
    return _real_if_exact([m])[0]


def herm_residual(m: np.ndarray) -> float:
    """Maximum entry deviation from Hermiticity of a matrix, or of a
    (g, a, a) stack of them."""
    if not m.size:
        return 0.0
    d = m - m.conj().swapaxes(-1, -2)
    # A real difference takes its absolute value in place: at 256 x 256 a
    # second fresh array costs three times the arithmetic.
    return float((np.abs(d) if d.dtype.kind == "c" else np.abs(d, out=d)).max())


def _check_rank_tol(value: float, name: str) -> None:
    """Refuse a relative rank cutoff that is not a finite number >= 0."""
    if not (np.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")


def partial_trace(m: np.ndarray, dim_sys: int, dim_env: int) -> np.ndarray:
    """Trace out the environment factor of a (dim_sys*dim_env)-dimensional
    matrix; the result is dim_sys x dim_sys.

    The composite ordering is system-first: index ``(s, e) -> s*dim_env + e``,
    matching ``np.kron(system_op, env_op)``.
    """
    m = as_complex(m)
    dim = dim_sys * dim_env
    if m.shape != (dim, dim):
        raise ValueError(
            f"matrix shape {m.shape} does not match dim_sys*dim_env = {dim}"
        )
    return np.einsum("iaja->ij", m.reshape(dim_sys, dim_env, dim_sys, dim_env))


def herm_eig(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvectors as complex128
    columns, so ``h = V @ diag(w) @ V.conj().T``.

    Raises
    ------
    NotHermitianError
        If the input deviates from Hermiticity by more than ``TOL_HERM``.
    """
    return _herm_eig(h)


def herm_eigvals(h: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, descending, without eigenvectors.

    Raises
    ------
    NotHermitianError
        If the input deviates from Hermiticity by more than ``TOL_HERM``.
    """
    _, parts = _checked_hermitian(h, _BLOCK_MIN_DIM)
    return _descending([np.linalg.eigvalsh(b) for b in parts])[0]


def matrix_rank(mats: Sequence[np.ndarray] | np.ndarray, tol_rank: float = TOL_RANK) -> int:
    """Numerical rank of a set of same-shaped matrices under vectorization.

    ``mats`` is a sequence of matrices or an (m, r, c) array.  Counts
    singular values above ``tol_rank`` times the largest one.

    Raises
    ------
    ValueError
        If ``tol_rank`` is not a finite number >= 0, or ``mats`` fails the
        input gate (``as_complex_stack``).
    """
    _check_rank_tol(tol_rank, "tol_rank")
    return _rank(as_complex_stack(mats), tol_rank)


def checked_hermitian(h) -> np.ndarray:
    """``h`` after the finite, square and Hermiticity checks.

    Returns ``h`` as complex128, or its real view when ``h`` is exactly
    real; the residual is the same either way.

    Raises
    ------
    NotHermitianError
        If ``h`` deviates from Hermiticity by more than ``TOL_HERM``.
    """
    _, parts = _checked_hermitian(h, np.inf)
    return parts[0][0]


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only in place."""
    a.setflags(write=False)
    return a


def _trusted(cls, **fields):
    """An instance of the frozen dataclass ``cls`` holding ``fields`` as
    given, without its ``__post_init__`` gate.

    Only for a value the package built itself, whose invariants hold by
    construction; each caller says why.  Array fields must be read-only
    (``_frozen``) before any view of them is taken.
    """
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def _checked_hermitian(h, gate: float) -> tuple[list, list[np.ndarray]]:
    """The groups of ``h`` and their entries (``_grouped``, split from
    ``gate`` rows up), after the finite, square and Hermiticity checks.

    The checks read the gathered entries only.  They are the whole matrix's
    checks all the same, in the same order, with the same errors and
    residual: entries outside the groups are exact zeros in h and in h^T.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={h.ndim}")
    groups, parts = _grouped(h, min(h.shape), gate, hermitian=True)
    for b in parts:
        if not np.isfinite(b).all():
            raise ValueError("matrix has non-finite entries")
    if h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    res = max(map(herm_residual, parts))
    if res > TOL_HERM:
        raise NotHermitianError("matrix is not Hermitian", residual=res)
    return groups, parts


def _herm_eig(h, above: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``herm_eig``, keeping only the eigenvectors whose eigenvalues exceed
    ``above`` when it is given: every eigenvalue, descending, and an
    (n, kept) complex128 array of the leading eigenvectors.

    One group's are its reversed ``eigh`` columns.  Otherwise each kept
    eigenvector is scattered to its group's indices, so the support of
    every column lies inside one group.
    """
    groups, parts = _checked_hermitian(h, _BLOCK_MIN_DIM)
    pairs = [np.linalg.eigh(b) for b in parts]
    w, order = _descending([wb for wb, _ in pairs])
    kept = w.size if above is None else int(np.count_nonzero(w > above))
    if groups is None:
        return w, pairs[0][1][0, :, ::-1][:, :kept].astype(complex)
    # dest[e] is the column that the e-th eigenvalue, in group order, lands
    # in; eigenvalue e of a group is its eigh column -1 - e.
    dest = order.argsort()
    v = np.zeros((w.size, kept), dtype=complex)
    start = 0
    for (ix, _), (_, vb) in zip(groups, pairs):
        cols = dest[start:start + ix.size].reshape(ix.shape)
        start += ix.size
        g, e = np.nonzero(cols < kept)
        v[ix[g], cols[g, e, None]] = vb[g, :, -1 - e]
    return w, v


def _descending(ws: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray | None]:
    """The eigenvalues of every group, descending, and the order that sorts
    their concatenation in group order into it.

    Each group's ascending ``eigh`` output is reversed first, and the stable
    sort keeps exact ties in that order: group by group, and inside a group
    in reversed ``eigh`` order.  One group is already in order: its
    reversed output is returned as it is, with no order.
    """
    if len(ws) == len(ws[0]) == 1:
        return ws[0][0, ::-1], None
    w = np.concatenate([wb[:, ::-1] for wb in ws], axis=None)
    order = (-w).argsort(kind="stable")
    return w[order], order


def _rank(stack: np.ndarray, tol_rank: float) -> int:
    """``matrix_rank`` of a finite (m, r, c) real or complex array, without
    the input gates: for arrays the package built itself.  Rows and
    columns in no group add only zero singular values."""
    a = stack.reshape(len(stack), -1)
    _, parts = _grouped(a, min(a.shape), _BLOCK_MIN_DIM)
    s = np.concatenate([np.linalg.svd(b, compute_uv=False) for b in parts], axis=None)
    return _count_above(s, tol_rank)


def _complement_basis(v: np.ndarray) -> np.ndarray:
    """An orthonormal basis of the complement of an isometry's range.

    ``v`` is an (m, p) matrix with orthonormal columns; returns the (m, m-p)
    matrix whose columns complete them to an orthonormal basis, real when
    ``v`` is exactly real.  The groups are decided on m, the side of the
    unitary being completed.  One group's are the last m-p columns of its
    complete QR factor.  Otherwise each (a, b) group of ``v`` contributes
    the last a-b columns of its own, supported on its rows, and every row
    in no group (a zero row of a split ``v``) a unit column.
    """
    m, p = v.shape
    groups, parts = _grouped(v, m, _BLOCK_MIN_UNITARY_DIM)
    if groups is None:
        return np.linalg.qr(parts[0], mode="complete")[0][0, :, p:]
    out = np.zeros((m, m - p), dtype=parts[0].dtype)
    start = 0
    for (rows, cols), b in zip(groups, parts):
        g, rank = cols.shape
        free = np.linalg.qr(b, mode="complete")[0][:, :, rank:]
        stop = start + free.shape[2] * g
        # Block i's free columns are the i-th run of out[:, start:stop].
        out[:, start:stop].reshape(m, g, -1)[rows, np.arange(g)[:, None]] = free
        start = stop
    if start < m - p:
        # The rows in no group are the zero rows of a split v.
        loose = (~v.any(axis=1)).nonzero()[0]
        out[loose, np.arange(start, m - p)] = 1.0
    return out


def _unitarity_residual(u: np.ndarray) -> float:
    """Max-entry residual of u^dag u - I for a finite square matrix ``u``.

    Each (a, b) group of u contributes its own b x b product.  Two columns
    in different groups share no row, so their entry of u^dag u is an exact
    zero, and an all-zero column of a split u, in no group, has a diagonal
    entry 0: a residual of 1.0.
    """
    groups, parts = _grouped(u, len(u), _BLOCK_MIN_UNITARY_DIM)
    res = 1.0 if groups and sum(cols.size for _, cols in groups) < len(u) else 0.0
    for b in parts:
        # Contiguous, so that a real b^T b is one symmetric BLAS product.
        b = np.ascontiguousarray(b)
        gram = b.conj().transpose(0, 2, 1) @ b
        gram -= np.eye(b.shape[2])
        res = max(res, float(np.abs(gram).max()))
    return res


def _grouped(m: np.ndarray, size: int, gate: float, hermitian: bool = False) -> tuple:
    """The groups of ``m`` and their entries: ``(groups, parts)``.

    ``groups`` holds ``(rows, cols)`` pairs as ``_components`` gives them,
    and ``parts`` the blocks ``m[rows, cols]`` of each, one (g, a, b) array
    per group shape, under ``_real_if_exact``.  The whole matrix is the one
    group, ``groups`` None and ``parts`` the view ``[m[None]]``, unless
    ``size`` is at least ``gate`` and the exact pattern of ``m`` splits
    into more than one block.  ``size`` is m's smaller side, or the
    side of the unitary that ``_complement_basis`` completes.  A
    ``hermitian`` m is split along ``_hermitian_blocks``.
    """
    if size >= gate:
        groups = _hermitian_blocks(m) if hermitian else _components(m.astype(bool))
        if _splits(groups):
            parts = [m[rows[:, :, None], cols[:, None, :]] for rows, cols in groups]
            return groups, _real_if_exact(parts)
    return None, _real_if_exact([m[None]])


def _real_if_exact(parts: list[np.ndarray]) -> list[np.ndarray]:
    """The real views of ``parts`` if every imaginary part of every one is
    exactly zero, else ``parts``: one decision for all of them."""
    if parts[0].dtype.kind == "c" and not any([b.imag.any() for b in parts]):
        return [b.real for b in parts]
    return parts


def _components(nz: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Connected components of a boolean pattern, grouped by block shape.

    The nodes are the rows and the columns of the (m, p) pattern ``nz``, and
    row r is joined to column c when ``nz[r, c]``.  Returns one
    ``(rows, cols)`` pair per block shape (a, b): integer arrays of shapes
    (g, a) and (g, b) that list, in ascending order, the rows and the
    columns of each of the g components of that shape.  Rows and columns
    with no True entry belong to no block.  With its blocks' rows and
    columns made contiguous, the pattern is block diagonal.  Callers with a
    complex128 matrix m pass ``m.astype(bool)``: the pattern of ``m != 0``,
    NaN included, at a third of its cost on a 256 x 256 matrix.

    A split pattern is searched once per process (``_pattern_components``):
    the same shape and bits give the same read-only groups.
    """
    m, p = nz.shape
    if nz.all():
        return [(np.arange(m)[None], np.arange(p)[None])]
    return list(_pattern_components(nz.shape, np.packbits(nz, axis=None).tobytes()))


@lru_cache(maxsize=_COMPONENTS_CACHE_SIZE)
def _pattern_components(
    shape: tuple[int, int], bits: bytes
) -> list[tuple[np.ndarray, np.ndarray]]:
    """``_components`` of the (m, p) pattern packed into ``bits`` by
    ``np.packbits``, its arrays read-only: callers share them."""
    m, p = shape
    nz = np.unpackbits(np.frombuffer(bits, dtype=np.uint8), count=m * p).reshape(m, p)
    # Edges (r, c); column c is node m + c.
    r, c = np.divmod(np.flatnonzero(nz), p)
    c += m
    # Each pass lowers every label to the least label among the node's
    # neighbours and jumps it once to its own label.  Labels stay inside
    # their component; once every edge joins two equal labels, each
    # component carries its least node as its one label.
    lab = np.arange(m + p)
    while True:
        np.minimum.at(lab, c, lab[r])
        np.minimum.at(lab, r, lab[c])
        lab = lab[lab]
        if (lab[r] == lab[c]).all():
            break
    # Code each component's shape (a, b) as a * (p + 1) + b and sort the
    # nodes by shape, then component, then node, so that rows precede
    # columns and each shape's components are one run of a + b nodes each.
    code = np.bincount(lab[:m], minlength=m + p) * (p + 1)
    code += np.bincount(lab[m:], minlength=m + p)
    code = code[lab]
    order = np.argsort(code * (m + p) + lab, kind="stable")
    code = code[order]
    cuts = (np.flatnonzero(code[1:] != code[:-1]) + 1).tolist()
    groups = []
    for start, stop in zip([0] + cuts, cuts + [m + p]):
        a, b = divmod(int(code[start]), p + 1)
        if a and b:
            run = order[start:stop].reshape(-1, a + b)
            groups.append((_frozen(run[:, :a]), _frozen(run[:, a:] - m)))
    return groups


def _hermitian_blocks(h: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """``_components`` of a square matrix's pattern with its diagonal set.

    Setting the diagonal joins row i to column i, so in every block the row
    and the column indices are the same set: i and j share a block when a
    chain of nonzero entries, read in either direction, links them.  An
    index whose row and column are zero is a block of its own.
    """
    nz = h.astype(bool)
    np.fill_diagonal(nz, True)
    return _components(nz)


def _splits(groups: list[tuple[np.ndarray, np.ndarray]]) -> bool:
    """Whether ``_components`` found more than one block."""
    return sum(len(rows) for rows, _ in groups) > 1


def _count_above(s: np.ndarray, tol_rank: float) -> int:
    """Singular values above ``tol_rank`` times the largest one."""
    top = float(s.max()) if s.size else 0.0
    if top == 0.0:
        return 0
    return int(np.count_nonzero(s > tol_rank * top))
