"""Dense complex linear algebra primitives for small matrices.

Everything takes plain ``numpy`` arrays, works in ``complex128`` and is sized
for the dimensions this package works at (N <= 16): partial traces,
Hermitian eigendecomposition and numerical rank (via SVD).  Eigenvalues and
singular values are always returned in descending order so downstream
output is deterministic.

Matrix input is checked by one gate per kind: ``as_complex`` (a finite 2-D
matrix), ``as_complex_stack`` (a non-empty set of same-shape finite
matrices) and ``checked_hermitian`` (a finite square matrix, Hermitian
within tolerance).  Other modules call these rather than repeat them, and
an array the package built is not gated again (``_rank``).  Likewise a
value class instance the package built itself is made by ``_trusted``,
which stores its read-only fields without the class's gate; each caller
says why the invariants hold.

A decomposition whose input has an imaginary part that is exactly zero
everywhere runs in real arithmetic (``real_if_exact``): the real and the
complex routine then factor the same matrix, and the real one is two to
three times as fast on a 256 x 256 matrix.  Outputs keep their documented
dtypes either way.

A matrix with at least ``_BLOCK_MIN_DIM`` rows and columns whose exact zero
pattern splits into several connected components is decomposed block by
block (``_components``; there is no tolerance).  ``herm_eig`` and
``herm_eigvals`` find the blocks of their input first and then run the
Hermitian gate on the blocks' entries only: every other entry is an exact
zero in h and in h^T, so the errors and the residual are the dense gate's,
bit for bit.  They make one batched call per block size and merge the
blocks' eigenvalues in descending order, scattering each eigenvector back
to its block's indices (``kraus_from_choi`` asks only for those of the
eigenvalues above its cutoff); ``matrix_rank`` takes one batched SVD per
block shape and compares every singular value with the largest of all.  The Choi matrix of
a channel ``C_i = U_i D_i`` with permutation ``U_i`` is such a matrix: its
N^2 x N^2 pattern is one N x N block per operator.  Inside a degenerate
eigenspace the eigenvectors may differ from those of one dense ``eigh``.
A matrix whose pattern is one block, such as a dense Haar-rotated Choi
matrix, takes the dense call unchanged.  From ``_BLOCK_MIN_UNITARY_DIM``
rows up, ``_complement_basis`` completes an isometry to a unitary with one
batched complete QR per block shape, and ``_unitarity_residual`` checks a
unitary with one batched product per block shape, finding the blocks before
it looks for an imaginary part.  Whether the blocks of a matrix run in real
arithmetic is decided once for all of them, as for the whole matrix.
"""

from __future__ import annotations

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

# A matrix with at least this many rows and columns is decomposed block by
# block when its exact nonzero pattern splits (see ``_components``).  Below
# it the pattern search costs more than the smaller calls save: for sampled
# channels the block and the dense path break even at a 36 x 36 Choi
# matrix or product stack (N = 6), and the block path wins from 49 x 49.
_BLOCK_MIN_DIM = 40

# The same gate for completing an isometry to a unitary and for checking
# unitarity (``_complement_basis``, ``_unitarity_residual``), on the row
# count N k.  A dense QR or product of this shape costs less than the
# pattern search up to a larger size: for sampled channels ``stinespring``
# breaks even at N k = 121 (N = 11), and the block path wins from 144.
_BLOCK_MIN_UNITARY_DIM = 128


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
    if not m.size:
        return 0.0
    d = m - dagger(m)
    # A real difference takes its absolute value in place: at 256 x 256 a
    # second fresh array costs three times the arithmetic.
    return float((np.abs(d, out=d) if np.isrealobj(d) else np.abs(d)).max())


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
    h, blocks = _hermitian_split(h)
    if blocks:
        return _block_eigvals(h, blocks)
    return np.linalg.eigvalsh(h)[::-1].copy()


def matrix_rank(mats: Sequence[np.ndarray] | np.ndarray, tol_rank: float = TOL_RANK) -> int:
    """Numerical rank of a set of same-shaped matrices under vectorization.

    ``mats`` is a sequence of matrices or an (m, r, c) array.  Counts
    singular values above ``tol_rank`` times the largest one.
    """
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
    h = real_if_exact(as_complex(h))
    if h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    res = herm_residual(h)
    if res > TOL_HERM:
        raise NotHermitianError("matrix is not Hermitian", residual=res)
    return h


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


def _herm_eig(h, above: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``herm_eig``, keeping only the eigenvectors whose eigenvalues exceed
    ``above`` when it is given: every eigenvalue, descending, and an
    (n, kept) complex128 array of the leading eigenvectors."""
    h, blocks = _hermitian_split(h)
    if blocks:
        return _block_eig(h, blocks, above)
    w, v = np.linalg.eigh(h)
    w = w[::-1].copy()
    kept = w.size if above is None else int(np.count_nonzero(w > above))
    return w, v[:, ::-1][:, :kept].astype(complex)


def _hermitian_split(h) -> tuple[np.ndarray, list | None]:
    """``h`` and its ``_hermitian_blocks`` when ``h`` is square with at
    least ``_BLOCK_MIN_DIM`` rows and its pattern splits, else
    ``checked_hermitian(h)`` and None.

    A split ``h`` is returned as complex128 and not yet gated:
    ``_block_eig`` and ``_block_eigvals`` gate its blocks' entries.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim == 2 and h.shape[0] == h.shape[1] >= _BLOCK_MIN_DIM:
        blocks = _hermitian_blocks(h)
        if _splits(blocks):
            return h, blocks
    return checked_hermitian(h), None


def _checked_blocks(h: np.ndarray, blocks) -> list[np.ndarray]:
    """The diagonal blocks of ``_hermitian_blocks``, after the finiteness
    and Hermiticity checks of ``checked_hermitian`` on their entries alone.

    An entry in no block is an exact zero in h and in h^T, since a nonzero
    entry, NaN included, joins its row and its column into one block.  So
    the blocks are finite iff h is, exactly real iff h is, and their largest
    Hermiticity residual is h's, bit for bit: the errors are the dense
    gate's, in the same order.
    """
    parts = _gather(h, blocks)
    for b in parts:
        if not np.isfinite(b).all():
            raise ValueError("matrix has non-finite entries")
    res = max(float(np.abs(b - b.conj().transpose(0, 2, 1)).max()) for b in parts)
    if res > TOL_HERM:
        raise NotHermitianError("matrix is not Hermitian", residual=res)
    return parts


def _gather(m: np.ndarray, groups) -> list[np.ndarray]:
    """The blocks ``m[rows, cols]`` of each ``_components`` group, as one
    contiguous (g, a, b) array per group: real when the imaginary part of
    every gathered entry is exactly zero, else complex."""
    parts = [m[rows[:, :, None], cols[:, None, :]] for rows, cols in groups]
    if np.iscomplexobj(m) and not any(b.imag.any() for b in parts):
        return [b.real.copy() for b in parts]
    return parts


def _rank(stack: np.ndarray, tol_rank: float) -> int:
    """``matrix_rank`` of a finite (m, r, c) real or complex array, without
    the input gate: for arrays the package built itself."""
    a = real_if_exact(stack.reshape(len(stack), -1))
    if min(a.shape) >= _BLOCK_MIN_DIM:
        groups = _components(a != 0)
        if _splits(groups):
            return _block_rank(a, groups, tol_rank)
    return _count_above(np.linalg.svd(a, compute_uv=False), tol_rank)


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
    """
    m, p = nz.shape
    if nz.all():
        return [(np.arange(m)[None], np.arange(p)[None])]
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
            groups.append((run[:, :a], run[:, a:] - m))
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


def _block_eigvals(h: np.ndarray, blocks) -> np.ndarray:
    """``herm_eigvals`` of a matrix from its ``_hermitian_blocks``, after
    the blocks' gate (``_checked_blocks``), one batched call per block
    size."""
    w = np.concatenate([np.linalg.eigvalsh(b).ravel() for b in _checked_blocks(h, blocks)])
    return w[np.argsort(-w, kind="stable")]


def _block_eig(h: np.ndarray, blocks, above: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``_herm_eig`` of a matrix from its ``_hermitian_blocks``, after the
    blocks' gate (``_checked_blocks``), one batched call per block size.

    Each kept eigenvector is scattered back to its block's indices, so the
    support of every column lies inside one block.
    """
    parts = [np.linalg.eigh(b) for b in _checked_blocks(h, blocks)]
    w = np.concatenate([wb.ravel() for wb, _ in parts])
    order = np.argsort(-w, kind="stable")
    w = w[order]
    kept = w.size if above is None else int(np.count_nonzero(w > above))
    # dest[e] is the column that the e-th eigenvalue, in block order, lands in.
    dest = np.empty_like(order)
    dest[order] = np.arange(order.size)
    v = np.zeros((len(h), kept), dtype=complex)
    start = 0
    for (ix, _), (_, vb) in zip(blocks, parts):
        cols = dest[start:start + ix.size].reshape(ix.shape)
        start += ix.size
        # Eigenvector e of block g, for every (g, e) that lands in a kept column.
        g, e = np.nonzero(cols < kept)
        v[ix[g], cols[g, e, None]] = vb[g, :, e]
    return w, v


def _block_rank(a: np.ndarray, groups, tol_rank: float) -> int:
    """``matrix_rank`` of a flattened (m, r*c) stack from its ``_components``,
    one batched SVD per block shape; rows and columns in no block add
    only zero singular values."""
    s = np.concatenate([np.linalg.svd(b, compute_uv=False).ravel() for b in _gather(a, groups)])
    return _count_above(s, tol_rank)


def _complement_basis(v: np.ndarray) -> np.ndarray:
    """An orthonormal basis of the complement of an isometry's range.

    ``v`` is an (m, p) matrix with orthonormal columns; returns the (m, m-p)
    matrix whose columns complete them to an orthonormal basis, real when
    ``v`` is exactly real.  Dense, these are the last m-p columns of one
    complete QR factor of ``v``.  On the block path each (a, b) block of
    ``v`` contributes the last a-b columns of its own complete QR factor,
    supported on the block's rows, and every row in no block a unit column.
    """
    a = real_if_exact(v)
    m, p = a.shape
    if m >= _BLOCK_MIN_UNITARY_DIM:
        groups = _components(a != 0)
        if _splits(groups):
            return _block_complement(a, groups)
    return np.linalg.qr(a, mode="complete")[0][:, p:]


def _unitarity_residual(u: np.ndarray) -> float:
    """Max-entry residual of u^dag u - I for a finite square matrix ``u``.

    On the block path, the (a, b) blocks of u's exact pattern contribute
    their own b x b products.  Two columns in different blocks share no
    row, so their entry of u^dag u is an exact zero, and an all-zero
    column, in no block, has a diagonal entry 0: a residual of 1.0.
    """
    if len(u) >= _BLOCK_MIN_UNITARY_DIM:
        groups = _components(u.astype(bool))
        if _splits(groups):
            return _block_unitarity_residual(u, groups)
    # Contiguous, so that a real r^T r is one symmetric BLAS product.
    r = np.ascontiguousarray(real_if_exact(u))
    return float(np.max(np.abs(dagger(r) @ r - np.eye(len(r)))))


def _block_complement(a: np.ndarray, groups) -> np.ndarray:
    """``_complement_basis`` of an (m, p) isometry from its ``_components``,
    one batched complete QR per block shape."""
    m, p = a.shape
    out = np.zeros((m, m - p), dtype=a.dtype)
    start = 0
    for rows, cols in groups:
        g, rank = cols.shape
        q = np.linalg.qr(a[rows[:, :, None], cols[:, None, :]], mode="complete")[0]
        free = q[:, :, rank:]
        dest = start + np.arange(free.shape[2] * g).reshape(g, -1)
        out[rows[:, :, None], dest[:, None, :]] = free
        start += dest.size
    # The rows in no block are the zero rows of ``a``.
    zero = np.flatnonzero(~a.any(axis=1))
    out[zero, start + np.arange(zero.size)] = 1.0
    return out


def _block_unitarity_residual(u: np.ndarray, groups) -> float:
    """``_unitarity_residual`` of a square matrix from its ``_components``,
    one batched product per block shape, real when every block entry is."""
    covered = sum(cols.size for _, cols in groups)
    res = 1.0 if covered < len(u) else 0.0
    for b in _gather(u, groups):
        gram = b.conj().transpose(0, 2, 1) @ b
        gram -= np.eye(b.shape[2])
        res = max(res, float(np.abs(gram).max()))
    return res


def _count_above(s: np.ndarray, tol_rank: float) -> int:
    """Singular values above ``tol_rank`` times the largest one."""
    top = float(s.max()) if s.size else 0.0
    if top == 0.0:
        return 0
    return int(np.sum(s > tol_rank * top))
