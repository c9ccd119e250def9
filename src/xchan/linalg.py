"""Linear algebra primitives for the small matrices of this package.

Everything takes plain ``numpy`` arrays and is sized for the dimensions this
package works at (N <= 16): partial traces, Hermitian eigendecomposition,
numerical rank (via SVD), and the completion and check of a unitary.
Eigenvalues and singular values are always returned in descending order so
downstream output is deterministic.

Matrix input is checked by one gate per kind: ``as_complex`` (a finite 2-D
matrix), ``as_complex_stack`` (a Kraus set: a non-empty set of same-shape
square finite matrices, N >= 1, every part within ``ENTRY_MAX``) and
``_checked_hermitian``, behind ``herm_eig`` and ``herm_eigvals`` (a finite
square matrix, Hermitian within tolerance: a state or a Choi matrix, whose
least eigenvalue is then its PSD or its CP check).  Other modules call
these rather than repeat them, and an array the package built is not gated
again (``_rank``), except that ``kraus_from_choi`` runs the Kraus set's
entry check (``_check_entry_bound``) on the operators it builds.  A state
(``DensityMatrix``) and a given dilation unitary (``DilationModel``) take
the same entry check besides their own gate.  Likewise
a value class instance the package built itself is made by ``_trusted``,
which stores its read-only fields without the class's gate; each caller
says why the invariants hold.

Every decomposition, and the completion and check of a unitary, runs over
the groups of its matrix (``_grouped``).  The whole matrix is one group
unless its size reaches the one gate ``_BLOCK_MIN_DIM`` and its exact zero
pattern splits into several connected components (``_components``; there
is no tolerance); then each component is a group.  The size is the
smaller side of a matrix to decompose and the row count of an isometry or
a unitary.  The Choi matrix of a channel ``C_i = U_i D_i`` with
permutation ``U_i`` splits so: its N^2 x N^2 pattern is one N x N block
per operator.  A sampled channel's Choi matrix, product stack and N^2 x N
isometry all reach the gate from N = 7.  Below it the pattern search costs
more than the smaller calls save.

Each distinct split pattern is searched once per process: its read-only
groups are kept, keyed by its shape and its packed bits, for the last
``_COMPONENTS_CACHE_SIZE`` (16) patterns.  Every sampled channel at one N
has the same Choi, product-stack and isometry patterns, three per N, so
``choi_min_eigenvalue``, ``kraus_from_choi``, ``check_extremal`` and
``stinespring`` repeat no search.  A split isometry is completed to the
dilation unitary block by block (``_split_unitary``), and those blocks
give its unitarity residual, so u's pattern is not searched.  The keys
retain at most 16 x (m p / 8) bytes; at the CLI's ``sample --n 64`` cap one
4096 x 4096 Choi pattern is a 2 MB key.

The Choi matrix of operators with pairwise disjoint supports is built the
same way: from ``_SCATTER_MIN_DIM`` columns up each operator's outer
product is written alone into zeros (``_row_outer_sum``), with the bits of
the dense product.

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

import numpy as np

from .errors import NotHermitianError
from .tolerances import TOL_HERM

# Pauli basis.  SX, SY, SZ square to the identity and are traceless.
ID2 = np.eye(2, dtype=complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (SX, SY, SZ)

# A matrix with at least this many rows and columns is decomposed group by
# group when its exact nonzero pattern splits (see ``_grouped``), and an
# isometry or a unitary with at least this many rows is completed or checked
# so (``_completed_unitary``, ``_unitarity_residual``).  The gate was set
# when every call searched the pattern.  With each pattern searched once per
# process, the split already wins for sampled channels at a 25 x 25 Choi
# matrix (N = 5) and at 36 x 36 (N = 6: ``kraus_from_choi`` 83 -> 57 us,
# ``check_extremal`` 67 -> 37 us), and still loses at 16 x 16 (N = 4:
# ``kraus_from_choi`` 36 -> 42 us).  It stays at 40: a split decomposition
# rounds differently, so lowering it changes output bits at N = 5 and 6.
# Every Choi and product-stack side is a square N^2, none in [40, 49).  For
# a sampled channel's isometry (N k rows) ``stinespring`` with the split
# completion loses at 49 (N = 7: 139 against 127 us whole), which no
# workload runs, and wins from 64 (N = 8: 146 against 166 us; N = 10: 167
# against 298 us); the whole matrix wins at 36 (106 against 129 us split;
# timeit, one BLAS thread).
_BLOCK_MIN_DIM = 40

# ``_row_outer_sum`` scatters the outer products of rows with pairwise
# disjoint supports from this many columns up: the N^2 columns of the vec
# stack of ``channels.choi``.  Below it the dense product costs less: for
# sampled channels ``choi`` takes 8 us dense against 17 us scattered at
# N = 8 and 23 against 31 us at N = 12; the two break even at N = 14 (44
# us), and the scatter wins from N = 15 (53 against 57 us; 65 against 149
# us at N = 16).
_SCATTER_MIN_DIM = 196

# The number of distinct split patterns whose components are kept
# (``_pattern_components``).  A sampled channel at one N brings at most three:
# its Choi matrix, product stack and isometry; a dilation built from the
# isometry's blocks is not searched.
_COMPONENTS_CACHE_SIZE = 16

# The largest real or imaginary part of an entry of a Kraus set, given to
# ``as_complex_stack`` or decoded from a document (``serialize``).  The
# product of two such entries has parts of at most 2e300, so every sum of
# squares or pairwise products that the checks form, over fewer than 1e7
# terms, stays below the double maximum 1.8e308 instead of overflowing.
ENTRY_MAX = 1e150


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
    """The one gate of a Kraus set: coerce a non-empty set of same-shape
    square matrices, N >= 1, to a (k, N, N) complex128 array, rejecting
    NaN/Inf entries and any real or imaginary part beyond ``ENTRY_MAX``.

    ``mats`` is a sequence of matrices or a (k, N, N) array; the result
    may share memory with an input that is already C-contiguous complex128.
    """
    if len(mats) == 0:
        raise ValueError("need at least one matrix")
    try:
        stack = np.asarray(mats, dtype=complex, order="C")
    except ValueError:
        shapes = [np.shape(m) for m in mats]
        raise ValueError(f"matrices differ in shape: {shapes}") from None
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or not stack.shape[1]:
        raise ValueError(
            f"expected a set of square matrices with N >= 1, got stack shape {stack.shape}"
        )
    _check_entry_bound(stack)
    return stack


def _check_entry_bound(stack: np.ndarray) -> None:
    """Refuse a C-contiguous complex128 array of at least one dimension with
    a NaN or Inf entry or a real or imaginary part beyond ``ENTRY_MAX``: the
    entry check of the Kraus-set gate, of the state gate and of a given
    dilation unitary."""
    # One pass over the parts: the maximum is NaN if any part is.
    top = np.abs(stack.view(float)).max(initial=0.0)
    if not top <= ENTRY_MAX:
        if not np.isfinite(top):
            raise ValueError("matrix has non-finite entries")
        raise ValueError(f"matrix has a real or imaginary part beyond {ENTRY_MAX:.0e}")


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
    """Refuse a rank cutoff that is not a finite number >= 0."""
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


def herm_eig(h, above: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Returns every eigenvalue and the eigenvectors as complex128 columns, so
    ``h = V @ diag(w) @ V.conj().T``; given ``above``, only the leading
    columns whose eigenvalues exceed it.

    A matrix that is one group gives its reversed ``eigh`` columns.
    Otherwise each kept eigenvector is scattered to its group's indices, so
    the support of every column lies inside one group.

    Raises
    ------
    NotHermitianError
        If the input deviates from Hermiticity by more than ``TOL_HERM``.
    """
    groups, parts = _checked_hermitian(h)
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


def herm_eigvals(h) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, descending, without eigenvectors.

    Raises
    ------
    NotHermitianError
        If the input deviates from Hermiticity by more than ``TOL_HERM``.
    """
    _, parts = _checked_hermitian(h)
    return _descending([np.linalg.eigvalsh(b) for b in parts])[0]


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


def _checked_hermitian(h) -> tuple[list, list[np.ndarray]]:
    """The groups of ``h`` and their entries (``_grouped``), after the
    finite, square and Hermiticity checks.

    The checks read the gathered entries only.  They are the whole matrix's
    checks all the same, in the same order, with the same errors and
    residual: entries outside the groups are exact zeros in h and in h^T.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={h.ndim}")
    groups, parts = _grouped(h, min(h.shape), hermitian=True)
    for b in parts:
        if not np.isfinite(b).all():
            raise ValueError("matrix has non-finite entries")
    if h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    res = max(map(herm_residual, parts))
    if res > TOL_HERM:
        raise NotHermitianError("matrix is not Hermitian", residual=res)
    return groups, parts


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
    """Numerical rank of a finite (m, r, c) real or complex array under
    vectorization: its singular values above ``tol_rank`` times the largest
    (``_count_above``).  No input gate: for arrays the package built itself.
    Rows and columns in no group add only zero singular values."""
    a = stack.reshape(len(stack), -1)
    _, parts = _grouped(a, min(a.shape))
    s = np.concatenate([np.linalg.svd(b, compute_uv=False) for b in parts], axis=None)
    return _count_above(s, tol_rank)


def _row_outer_sum(w: np.ndarray) -> np.ndarray:
    """``w.T @ w.conj()`` as complex128: the sum of the outer products
    w[i] w[i]^dag of the rows of a (k, M) array.

    When no column of w has two nonzero entries, the rows' exact supports
    are pairwise disjoint and each entry of the sum is one product or an
    exact zero.  From ``_SCATTER_MIN_DIM`` columns up each row's outer
    product is then written alone into zeros, at a cost set by the
    supports rather than by M^2 k: one batched BLAS product per support
    size, which forms each entry from the same two factors as the dense
    product, with the same bits (the tests pin them; numpy's elementwise
    complex product rounds differently).  Otherwise the dense product is
    cast to complex128.
    """
    m = w.shape[1]
    if m >= _SCATTER_MIN_DIM:
        nz = w.astype(bool)
        if nz.sum(axis=0).max() <= 1:
            # Row by row, each support in ascending order.
            r, c = nz.nonzero()
            x = w[r, c]
            sizes = np.bincount(r, minlength=len(w))
            out = np.zeros((m, m), dtype=complex)
            for s in sorted(set(sizes.tolist()) - {0}):
                on = (sizes == s)[r]
                idx, xs = c[on].reshape(-1, s), x[on].reshape(-1, s)
                out[idx[:, :, None], idx[:, None, :]] = xs[:, :, None] @ xs.conj()[:, None, :]
            return out
    return (w.T @ w.conj()).astype(complex, copy=False)


def _completed_unitary(v: np.ndarray) -> tuple[np.ndarray, float]:
    """The dilation unitary completing an isometry, and its unitarity
    residual.

    ``v`` is an (m, p) matrix with orthonormal columns, p divides m, and
    k = m/p.  The (m, m) complex128 u holds column c of v, exactly, as its
    column c*k, and an orthonormal basis of the complement of v's range in
    its other columns.  A ``v`` that splits (``_grouped`` on its row count)
    is completed block by block (``_split_unitary``).  Otherwise the basis
    is the last m - p columns of one complete QR factor of v, real when v
    is, in u's free columns in order, and the residual is
    ``_unitarity_residual(u)``.
    """
    m, p = v.shape
    groups, parts = _grouped(v, m)
    if groups is not None:
        return _split_unitary(v, groups, parts)
    k = m // p
    u = np.empty((m, m), dtype=complex)
    # Column c*k + e of u is slot [:, c, e] of this view.
    slots = u.reshape(m, p, k)
    slots[:, :, 0] = v
    q = np.linalg.qr(parts[0][0], mode="complete")[0]
    slots[:, :, 1:] = q[:, p:].reshape(m, p, k - 1)
    return u, _unitarity_residual(u)


def _split_unitary(v: np.ndarray, groups, parts) -> tuple[np.ndarray, float]:
    """The unitary completing an isometry that splits, and its unitarity
    residual.

    ``v`` is an (m, p) matrix with orthonormal columns and no zero column,
    p divides m, and ``groups``, ``parts`` are its ``_grouped`` on its row
    count.  The (m, m) complex128 u holds column c of v, exactly, as its
    column c*k, k = m/p, and the complement basis in its other columns,
    ascending: each (a, b) group of v contributes the last a - b columns of
    its own complete QR factor, supported on its rows, and every zero row
    of v (in no group) a unit column.

    So u's groups are v's groups, each with its free columns, plus one
    1 x 1 block per zero row, and u is not searched again.  Each group's
    block is laid out as ``_unitarity_residual`` gathers it from u, columns
    in u's ascending order, so its product, and the residual, are that
    function's bit for bit; a unit block adds an exact zero.
    """
    m, p = v.shape
    k = m // p
    free = np.arange(m).reshape(p, k)[:, 1:].ravel()
    u = np.zeros((m, m), dtype=complex)
    u[:, ::k] = v
    res = 0.0
    start = 0
    for (rows, cols), b in zip(groups, parts):
        g, rank = cols.shape
        q = np.linalg.qr(b, mode="complete")[0][:, :, rank:]
        stop = start + q.shape[2] * g
        # Block i's free columns are the i-th run of free[start:stop].
        spare = free[start:stop].reshape(g, -1)
        u[rows[:, :, None], spare[:, None, :]] = q
        # The block's columns, as rows of its transpose, in u's order.
        order = np.concatenate([cols * k, spare], axis=1).argsort(axis=1)
        block = np.concatenate([b.transpose(0, 2, 1), q.transpose(0, 2, 1)], axis=1)
        res = max(res, _gram_residual(block[np.arange(g)[:, None], order].transpose(0, 2, 1)))
        start = stop
    if start < m - p:
        # The rows in no group are the zero rows of v.
        loose = (~v.any(axis=1)).nonzero()[0]
        u[loose, free[start:]] = 1.0
    return u, res


def _unitarity_residual(u: np.ndarray) -> float:
    """Max-entry residual of u^dag u - I for a finite square matrix ``u``.

    Each (a, b) group of u contributes its own b x b product.  Two columns
    in different groups share no row, so their entry of u^dag u is an exact
    zero, and an all-zero column of a split u, in no group, has a diagonal
    entry 0: a residual of 1.0.
    """
    groups, parts = _grouped(u, len(u))
    res = 1.0 if groups and sum(cols.size for _, cols in groups) < len(u) else 0.0
    for b in parts:
        res = max(res, _gram_residual(b))
    return res


def _gram_residual(b: np.ndarray) -> float:
    """max|b^dag b - I| over a (g, a, c) stack of blocks."""
    # Contiguous, so that a real b^T b is one symmetric BLAS product.
    b = np.ascontiguousarray(b)
    gram = b.conj().transpose(0, 2, 1) @ b
    gram -= np.eye(b.shape[2])
    return float(np.abs(gram).max())


def _grouped(m: np.ndarray, size: int, hermitian: bool = False) -> tuple:
    """The groups of ``m`` and their entries: ``(groups, parts)``.

    ``groups`` holds ``(rows, cols)`` pairs as ``_components`` gives them,
    and ``parts`` the blocks ``m[rows, cols]`` of each, one (g, a, b) array
    per group shape, under ``_real_if_exact``.  The whole matrix is the one
    group, ``groups`` None and ``parts`` the view ``[m[None]]``, unless
    ``size`` is at least ``_BLOCK_MIN_DIM`` and the exact pattern of ``m``
    splits into more than one block.  ``size`` is m's smaller side, or the
    row count of an isometry or unitary (``_completed_unitary``,
    ``_unitarity_residual``).  A ``hermitian`` m is split along
    ``_hermitian_blocks``.
    """
    if size >= _BLOCK_MIN_DIM:
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
