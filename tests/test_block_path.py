"""The groups of a split matrix give the decompositions of the whole one.

``linalg`` decomposes a matrix over its groups: the whole matrix, or, from
``linalg._BLOCK_MIN_DIM`` rows and columns up (``herm_eig``,
``herm_eigvals``, ``_rank``) and from as many rows up (the unitary
completion of ``stinespring`` and the unitarity check of
``DilationModel``), the connected components of its exact nonzero pattern
when there are several.
These tests move the crossover to 0, so the split runs at every N from 2
to 16, and compare it with one dense numpy call on the same matrix:
sampled channels, padded mixtures whose supports overlap and merge blocks,
diagonals with exact zeros (zero rows are blocks of their own, or unit
columns of the dilation), a raw Kraus set with an all-zero operator, and a
Haar-rotated channel, whose dense pattern is one block and keeps the dense
result bit for bit.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
import kinds
from helpers import dense_dilation, isometry, products, with_gates

from xchan import linalg
from xchan.channels import (
    KrausChannel,
    check_extremal,
    choi,
    choi_min_eigenvalue,
    kraus_from_choi,
)
from xchan.dilation import DilationModel, stinespring
from xchan.errors import ValidationError
from xchan.extremal import build_extremal, sample_extremal
from xchan.linalg import (
    _BLOCK_MIN_DIM,
    _components,
    _hermitian_blocks,
    _rank,
    _splits,
    _unitarity_residual,
    herm_eig,
    herm_eigvals,
    real_if_exact,
)
from xchan.tolerances import TOL_RANK

# Bounded and derandomized, so the suite stays fast and repeatable.
PROPERTY = settings(max_examples=3, deadline=None, derandomize=True, database=None)

all_dims = pytest.mark.parametrize("n", range(2, 17))
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def assert_paths_agree(ch: KrausChannel, svd_rank) -> None:
    """Split and dense decompositions of the channel's Choi matrix and
    product stack agree (the product stack's rank against the ``svd_rank``
    oracle), and the Choi matrix survives a round trip through the split
    eigenvectors."""
    j = choi(ch)
    h = real_if_exact(j)
    dense = np.linalg.eigvalsh(h)[::-1]
    w = with_gates(herm_eigvals, h, block=0)
    assert np.all(np.diff(w) <= 0)
    assert np.max(np.abs(w - dense)) <= 1e-14
    w_vec, v = with_gates(herm_eig, h, block=0)
    assert v.dtype == np.complex128
    assert np.max(np.abs(w_vec - dense)) <= 1e-14
    assert np.max(np.abs((v * w_vec) @ v.conj().T - j)) <= 1e-12
    assert np.max(np.abs(v.conj().T @ v - np.eye(len(j)))) <= 1e-12

    a = real_if_exact(products(ch))
    assert with_gates(_rank, a, TOL_RANK, block=0) == svd_rank(a)

    back = with_gates(kraus_from_choi, j, block=0)
    assert np.max(np.abs(choi(back) - j)) <= 1e-12


@all_dims
@PROPERTY
@given(seed=seeds)
def test_sampled_channels(n, seed, svd_rank):
    _, ch = sample_extremal(n, seed)
    assert_paths_agree(ch, svd_rank)
    # One block per Kraus operator, each of rank one, plus zero singletons.
    blocks = _hermitian_blocks(real_if_exact(choi(ch)))
    sizes = np.concatenate([np.full(len(ix), ix.shape[1]) for ix, _ in blocks])
    assert np.sum(sizes == n) == len(ch)
    assert set(sizes.tolist()) <= {1, n}


@all_dims
@PROPERTY
@given(seed=seeds, weight=st.floats(min_value=0.05, max_value=0.95))
def test_padded_mixtures_with_overlapping_supports(n, seed, weight, svd_rank):
    # Conjugating by a transposition moves the supports of the cyclic
    # shifts (N >= 5), so the mixture's operators overlap several of the
    # original blocks and merge them.
    mixed = kinds.mixture(sample_extremal(n, seed)[1], kinds.swap(n), weight)
    assert_paths_agree(mixed, svd_rank)
    largest = max(ix.shape[1] for ix, _ in _hermitian_blocks(real_if_exact(choi(mixed))))
    assert largest > n if n >= 5 else largest == n


@all_dims
@PROPERTY
@given(seed=seeds)
@example(seed=235)  # at N = 2: one 2 x 2 block and no 1 x 1 block
def test_diagonals_with_exact_zeros(n, seed, svd_rank):
    ch = build_extremal(kinds.zero_diagonals(n, seed))
    assert_paths_agree(ch, svd_rank)
    h = real_if_exact(choi(ch))
    blocks = _hermitian_blocks(h)
    zero_rows = np.flatnonzero(~h.any(axis=1))
    singletons = [i for ix, _ in blocks if ix.shape[1] == 1 for i in ix[:, 0].tolist()]
    assert set(zero_rows.tolist()) <= set(singletons)
    assert np.sum(with_gates(herm_eigvals, h, block=0) == 0.0) >= zero_rows.size


@all_dims
@PROPERTY
@given(seed=seeds)
def test_raw_kraus_set_with_an_all_zero_operator(n, seed, svd_rank):
    assert_paths_agree(kinds.padded(sample_extremal(n, seed)[1]), svd_rank)


@pytest.mark.parametrize("n", range(7, 17))
def test_rotated_channel_is_one_block_and_keeps_the_dense_result(n, svd_rank):
    rotated = kinds.rotated(sample_extremal(n, n)[1], n)
    j = choi(rotated)
    assert j.imag.any()
    assert not _splits(_hermitian_blocks(j))
    w, v = np.linalg.eigh(j)
    assert np.array_equal(herm_eigvals(j), np.linalg.eigvalsh(j)[::-1])
    w_out, v_out = herm_eig(j)
    assert np.array_equal(w_out, w[::-1])
    assert np.array_equal(v_out, v[:, ::-1])
    a = products(rotated)
    assert not _splits(_components(a.reshape(len(a), -1) != 0))
    assert _rank(a, TOL_RANK) == svd_rank(a)


def assert_dilation_paths_agree(ch: KrausChannel) -> DilationModel:
    """The block dilation keeps V exactly, is unitary, and its block
    residual is the dense one; returns the block model."""
    model = with_gates(stinespring, ch, block=0)
    u, k = model.u, len(ch)
    assert np.array_equal(u[:, ::k], isometry(ch))
    assert np.max(np.abs(u.conj().T @ u - np.eye(len(u)))) <= 1e-10
    assert abs(model.unitarity_residual - with_gates(_unitarity_residual, u, block=np.inf)) <= 1e-15
    return model


@all_dims
@PROPERTY
@given(seed=seeds)
def test_block_dilation_of_sampled_channels(n, seed):
    _, ch = sample_extremal(n, seed)
    # Every operator is a scaled permutation, so each column of V is a block.
    v = real_if_exact(isometry(ch))
    assert sum(len(cols) for _, cols in _components(v != 0)) == n
    assert_dilation_paths_agree(ch)


@all_dims
@PROPERTY
@given(seed=seeds)
def test_block_dilation_fills_zero_rows_with_unit_columns(n, seed):
    ch = build_extremal(kinds.zero_diagonals(n, seed))
    u = assert_dilation_paths_agree(ch).u
    for r in np.flatnonzero(~isometry(ch).any(axis=1)):
        (c,) = np.flatnonzero(u[r])
        assert u[r, c] == 1.0
        assert np.flatnonzero(u[:, c]).tolist() == [r]


@all_dims
@PROPERTY
@given(seed=seeds, weight=st.floats(min_value=0.05, max_value=0.95))
def test_block_dilation_of_padded_mixtures_whose_blocks_merge(n, seed, weight):
    # A rotation in the (0, 1) plane gives rows with two nonzero entries, so
    # the mixture's V joins columns that the sampled channel keeps apart.
    mixed = kinds.mixture(sample_extremal(n, seed)[1], kinds.turn(n), weight)
    v = real_if_exact(isometry(mixed))
    assert max(cols.shape[1] for _, cols in _components(v != 0)) > 1
    assert_dilation_paths_agree(mixed)


@pytest.mark.parametrize("n", range(7, 17))
def test_rotated_channel_dilation_keeps_the_dense_result(n):
    rotated = kinds.rotated(sample_extremal(n, n)[1], n)
    assert not _splits(_components(isometry(rotated) != 0))
    reference = dense_dilation(rotated)
    for gate in (0, _BLOCK_MIN_DIM):
        model = with_gates(stinespring, rotated, block=gate)
        assert np.array_equal(model.u, reference)
        assert model.unitarity_residual == with_gates(_unitarity_residual, reference, block=np.inf)


def block_unitary(n: int = 12) -> np.ndarray:
    """A dilation unitary above the crossover whose pattern splits."""
    _, ch = sample_extremal(n, seed=n)
    u = np.array(stinespring(ch).u)
    assert len(u) >= _BLOCK_MIN_DIM and _splits(_components(u != 0))
    return u


def test_a_zero_column_gives_a_unitarity_residual_of_one():
    u = block_unitary()
    u[:, 5] = 0.0
    assert _unitarity_residual(u) == 1.0 == with_gates(_unitarity_residual, u, block=np.inf)
    with pytest.raises(ValidationError) as err:
        DilationModel(12, 12, u)
    assert err.value.residual == 1.0


@pytest.mark.parametrize("inside_a_block", [True, False])
def test_a_perturbed_unitary_is_refused_with_the_dense_residual(inside_a_block):
    u = block_unitary()
    nonzero = u != 0
    r, c = np.argwhere(nonzero if inside_a_block else ~nonzero)[7]
    u[r, c] += 1e-6
    dense = np.max(np.abs(u.conj().T @ u - np.eye(len(u))))
    with pytest.raises(ValidationError) as err:
        DilationModel(12, 12, u)
    assert abs(err.value.residual - dense) <= 1e-15
    assert abs(err.value.residual - with_gates(_unitarity_residual, u, block=np.inf)) <= 1e-15


def test_components_of_a_symmetric_pattern_with_a_zero_row():
    nz = np.array([
        [1, 0, 1, 0],
        [0, 1, 0, 0],
        [1, 0, 1, 0],
        [0, 0, 0, 0],
    ], dtype=bool)
    np.fill_diagonal(nz, True)
    groups = _components(nz)
    assert [(rows.tolist(), cols.tolist()) for rows, cols in groups] == [
        ([[1], [3]], [[1], [3]]),
        ([[0, 2]], [[0, 2]]),
    ]


def test_components_of_a_rectangular_pattern_skip_empty_rows_and_columns():
    nz = np.zeros((3, 5), dtype=bool)
    nz[0, [1, 3]] = True
    nz[1, 4] = True
    nz[2, 3] = True
    groups = _components(nz)
    assert [(rows.tolist(), cols.tolist()) for rows, cols in groups] == [
        ([[1]], [[4]]),
        ([[0, 2]], [[1, 3]]),
    ]
    assert _components(np.zeros((2, 3), dtype=bool)) == []


def test_components_join_a_path_numbered_against_its_order():
    # The path 5 - 0 - 4 - 1 - 3 - 2 needs several passes to settle.
    nz = np.eye(6, dtype=bool)
    path = [5, 0, 4, 1, 3, 2]
    for a, b in zip(path, path[1:]):
        nz[a, b] = True
    (rows, cols), = _components(nz)
    assert rows.tolist() == cols.tolist() == [list(range(6))]


def reference_components(nz: np.ndarray) -> set:
    """Components by breadth-first search: a set of (rows, cols) tuples."""
    m, p = nz.shape
    seen, found = set(), set()
    for start in [("r", i) for i in range(m)] + [("c", j) for j in range(p)]:
        if start in seen:
            continue
        seen.add(start)
        queue, members = [start], []
        while queue:
            side, i = queue.pop()
            members.append((side, i))
            line = nz[i] if side == "r" else nz[:, i]
            for k in np.flatnonzero(line):
                node = ("c" if side == "r" else "r", int(k))
                if node not in seen:
                    seen.add(node)
                    queue.append(node)
        rows = tuple(sorted(i for s, i in members if s == "r"))
        cols = tuple(sorted(i for s, i in members if s == "c"))
        if rows and cols:
            found.add((rows, cols))
    return found


def component_set(groups) -> set:
    """The groups of ``_components`` as a set of (rows, cols) tuples."""
    return {
        (tuple(r), tuple(c))
        for rows, cols in groups
        for r, c in zip(rows.tolist(), cols.tolist())
    }


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    m=st.integers(min_value=1, max_value=12),
    p=st.integers(min_value=1, max_value=12),
    density=st.floats(min_value=0.0, max_value=0.4),
    seed=seeds,
)
def test_components_match_breadth_first_search(m, p, density, seed):
    nz = np.random.default_rng(seed).random((m, p)) < density
    groups = _components(nz)
    assert component_set(groups) == reference_components(nz)
    shapes = [(rows.shape[1], cols.shape[1]) for rows, cols in groups]
    assert len(set(shapes)) == len(shapes)


# ---------------------------------------------------------------------------
# Each split pattern is searched once per process: ``_components`` keeps the
# groups of the last ``_COMPONENTS_CACHE_SIZE`` patterns, keyed by shape and
# packed bits.

memo = linalg._pattern_components


def as_lists(groups) -> list:
    return [(rows.tolist(), cols.tolist()) for rows, cols in groups]


def fresh_search(nz: np.ndarray) -> list:
    """The groups of the uncached search body."""
    return memo.__wrapped__(nz.shape, np.packbits(nz, axis=None).tobytes())


def test_a_memo_hit_gives_the_groups_of_a_fresh_search():
    j = choi(sample_extremal(8, 1)[1])
    nz = j.astype(bool)
    np.fill_diagonal(nz, True)
    memo.cache_clear()
    first = _hermitian_blocks(j)
    second = _hermitian_blocks(j.copy())
    assert memo.cache_info()[:2] == (1, 1)  # one hit, one miss
    assert all(a is b for a, b in zip(first[0], second[0]))
    assert as_lists(second) == as_lists(first) == as_lists(fresh_search(nz))
    assert len(first) == 1 and first[0][0].shape == (8, 8)


def test_the_memo_key_includes_the_shape():
    # One run of bits, read as three shapes: the same packed bytes.
    flat = np.zeros(64, dtype=bool)
    flat[[0, 1, 5, 17, 18, 30, 33, 46, 47, 60]] = True
    shapes = [(4, 16), (16, 4), (8, 8)]
    assert len({np.packbits(flat.reshape(s), axis=None).tobytes() for s in shapes}) == 1
    memo.cache_clear()
    got = []
    for shape in shapes:
        nz = flat.reshape(shape)
        groups = _components(nz)
        assert component_set(groups) == reference_components(nz)
        got.append(as_lists(groups))
    assert memo.cache_info().misses == 3
    assert got[0] != got[1] and got[0] != got[2] and got[1] != got[2]


def test_memo_groups_are_read_only():
    nz = np.random.default_rng(4).random((9, 7)) < 0.2
    for groups in (_components(nz), _components(nz.copy())):
        for rows, cols in groups:
            for a in (rows, cols):
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[0, 0] = 0


def test_the_memo_is_bounded():
    memo.cache_clear()
    for i in range(200):
        nz = np.zeros((20, 20), dtype=bool)
        nz[np.divmod(i, 20)] = True  # one entry: 200 distinct patterns
        _components(nz)
    info = memo.cache_info()
    assert info.maxsize == linalg._COMPONENTS_CACHE_SIZE == 16
    assert info.misses == 200 and info.currsize <= info.maxsize


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    sizes=st.lists(
        st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=5
    ),
    empty=st.tuples(st.integers(0, 3), st.integers(0, 3)),
    density=st.floats(min_value=0.3, max_value=1.0),
    seed=seeds,
)
def test_permuted_block_patterns_give_the_same_groups_twice(sizes, empty, density, seed):
    rng = np.random.default_rng(seed)
    m = sum(a for a, _ in sizes) + empty[0]
    p = sum(b for _, b in sizes) + empty[1]
    nz = np.zeros((m, p), dtype=bool)
    top = left = 0
    for a, b in sizes:
        nz[top:top + a, left:left + b] = rng.random((a, b)) < density
        top, left = top + a, left + b
    nz = nz[rng.permutation(m)][:, rng.permutation(p)]
    first, second = _components(nz), _components(nz.copy())
    assert as_lists(first) == as_lists(second) == as_lists(fresh_search(nz))
    assert component_set(second) == reference_components(nz)


def large_n_chain(ch: KrausChannel) -> list[bytes]:
    """The outputs of one ``large_n`` channel chain, as bytes."""
    j = choi(ch)
    result = check_extremal(ch)
    return [
        repr(tuple(result)).encode(),
        np.float64(choi_min_eigenvalue(j)).tobytes(),
        kraus_from_choi(j).stack.tobytes(),
        stinespring(ch).u.tobytes(),
    ]


@pytest.mark.parametrize("n", [8, 16])
def test_the_large_n_chain_gives_the_same_bits_from_a_cold_and_a_warm_memo(n):
    channels = [sample_extremal(n, seed)[1] for seed in (1, 7)]
    memo.cache_clear()
    cold = [large_n_chain(ch) for ch in channels]
    searched = memo.cache_info().misses
    # The Choi matrix, the product stack and the isometry; the dilation
    # built from the isometry's blocks is not searched.
    assert searched == 3
    warm = [large_n_chain(ch) for ch in channels]
    assert memo.cache_info().misses == searched
    assert warm == cold
    for ch, outputs in zip(channels, cold):
        memo.cache_clear()
        assert large_n_chain(ch) == outputs
