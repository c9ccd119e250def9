"""A matrix that is one group takes exactly the direct numpy call.

Below the size gate of ``linalg`` every decomposition sees its matrix as
one group, the view ``m[None]``.  Its results are compared bit for bit with
one direct numpy call on the same matrix, in real arithmetic when the
matrix is exactly real: at N = 2..4 and at N = 6 (a 36 x 36 Choi matrix,
product stack and dilation, just below ``_BLOCK_MIN_DIM``), for sampled
channels, which are real, and Haar-rotated ones, which are not.  Asked for the
eigenvectors above a cutoff only, it gives the leading reversed ``eigh``
columns.

Above the gate a sampled channel's Choi matrix splits into one block per
operator.  The equal-weight mixture of the canonical unitaries gives every
block the same entries, so eigenvalues tie exactly across blocks; the
merge order is pinned against a reference that sorts (eigenvalue, block,
eigenvector) triples with Python's stable ``sorted``.
"""

import numpy as np
import pytest
from helpers import products, same_bits

from xchan import linalg
from xchan.channels import KrausChannel, choi, kraus_from_choi
from xchan.dilation import stinespring
from xchan.extremal import canonical_unitaries, sample_extremal
from xchan.linalg import _hermitian_blocks, _rank, herm_eig, herm_eigvals
from xchan.tolerances import TOL_RANK

ONE_GROUP_DIMS = [2, 3, 4, 6]


def exact(m: np.ndarray) -> np.ndarray:
    """m's real part when its imaginary part is exactly zero, else m."""
    return m.real if not m.imag.any() else m


def channels(n: int, haar_unitary):
    _, ch = sample_extremal(n, 3 * n)
    yield "real", ch
    yield "rotated", KrausChannel(haar_unitary(n, n) @ ch.stack @ haar_unitary(n, n + 1))


@pytest.mark.parametrize("n", ONE_GROUP_DIMS)
def test_one_group_sizes_are_below_the_gates(n, haar_unitary):
    for _, ch in channels(n, haar_unitary):
        k = len(ch)
        assert n * k < linalg._BLOCK_MIN_DIM
        assert len(choi(ch)) < linalg._BLOCK_MIN_DIM
        assert min(k * k, n * n) < linalg._BLOCK_MIN_DIM


@pytest.mark.parametrize("n", range(2, 7))
def test_eigendecomposition_is_the_direct_eigh(n, haar_unitary):
    for kind, ch in channels(n, haar_unitary):
        j = choi(ch)
        h = exact(j)
        assert (h.dtype == np.float64) == (kind == "real")
        assert same_bits(herm_eigvals(j), np.linalg.eigvalsh(h)[::-1])
        w, v = np.linalg.eigh(h)
        w_out, v_out = herm_eig(j)
        assert same_bits(w_out, w[::-1])
        assert same_bits(v_out, v[:, ::-1].astype(complex))
        kept = int(np.count_nonzero(w > TOL_RANK))
        assert kept == len(ch)
        w_out, v_out = herm_eig(j, above=TOL_RANK)
        assert same_bits(w_out, w[::-1])
        assert same_bits(v_out, v[:, ::-1][:, :kept].astype(complex))


@pytest.mark.parametrize("n", ONE_GROUP_DIMS)
def test_rank_is_the_direct_svd_count(n, haar_unitary):
    for _, ch in channels(n, haar_unitary):
        stack = products(ch)
        s = np.linalg.svd(exact(stack.reshape(len(stack), -1)), compute_uv=False)
        assert _rank(stack, TOL_RANK) == int(np.sum(s > TOL_RANK * s[0])) == n * n
        padded = np.concatenate([stack, stack[:1]])
        assert _rank(padded, TOL_RANK) == n * n


@pytest.mark.parametrize("n", ONE_GROUP_DIMS)
def test_dilation_is_the_direct_complete_qr(n, haar_unitary):
    for kind, ch in channels(n, haar_unitary):
        k = len(ch)
        model = stinespring(ch)
        u = model.u
        v = exact(ch.stack.transpose(1, 0, 2).reshape(n * k, n))
        assert (v.dtype == np.float64) == (kind == "real")
        q = np.linalg.qr(v, mode="complete")[0]
        free = u.reshape(n * k, n, k)[:, :, 1:].reshape(n * k, -1)
        assert same_bits(free, q[:, n:].astype(complex))
        r = np.ascontiguousarray(exact(u))
        residual = float(np.max(np.abs(r.conj().T @ r - np.eye(len(r)))))
        assert model.unitarity_residual == residual


def tied_reference(j: np.ndarray, decompose):
    """``decompose`` (``np.linalg.eigh`` or ``eigvalsh``) of j's blocks one
    at a time, merged by a stable sort on the eigenvalue, descending: ties
    keep the block order of ``_hermitian_blocks`` and, inside a block, the
    reversed ``eigh`` order.  Returns the eigenvalues and, for ``eigh``,
    the eigenvectors."""
    triples = []
    for rows, _ in _hermitian_blocks(j):
        for ix in rows:
            out = decompose(exact(j[np.ix_(ix, ix)]))
            w, v = out if isinstance(out, tuple) else (out, np.zeros((len(ix), len(ix))))
            for e in range(len(ix))[::-1]:
                triples.append((w[e], ix, v[:, e]))
    triples = sorted(triples, key=lambda t: -t[0])
    vecs = np.zeros((len(j), len(j)), dtype=complex)
    for col, (_, ix, vec) in enumerate(triples):
        vecs[ix, col] = vec
    return np.array([t[0] for t in triples]), vecs


@pytest.mark.parametrize("n", range(7, 17))
def test_exact_ties_across_blocks_keep_the_block_order(n):
    ch = KrausChannel(np.asarray(canonical_unitaries(n)) / np.sqrt(n))
    j = choi(ch)
    assert len(j) >= linalg._BLOCK_MIN_DIM
    w_ref, _ = tied_reference(j, np.linalg.eigvalsh)
    # The N blocks hold the same entries: their eigenvalues tie exactly.
    assert len(set(w_ref[:n].tolist())) == 1
    assert same_bits(herm_eigvals(j), w_ref)
    w_ref, v_ref = tied_reference(j, np.linalg.eigh)
    assert len(set(w_ref[:n].tolist())) == 1
    supports = [np.flatnonzero(v_ref[:, c])[0] for c in range(n)]
    assert supports == sorted(supports)
    w, v = herm_eig(j)
    assert same_bits(w, w_ref)
    assert same_bits(v, v_ref)
    back = kraus_from_choi(j)
    assert len(back) == n
    ops = (v_ref[:, :n] * np.sqrt(w_ref[:n])).T.reshape(n, n, n).transpose(0, 2, 1)
    assert same_bits(back.stack, ops)
