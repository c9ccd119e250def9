"""Split channels' Choi matrix and dilation unitary are built from their
blocks, with the bits of the dense construction.

- ``choi``: when the operators' exact supports are pairwise disjoint, each
  entry of J = sum_i vec(C_i) vec(C_i)^dag is one product or an exact zero,
  so from ``linalg._SCATTER_MIN_DIM`` columns up each operator's outer
  product is written alone.  J must be byte for byte the dense product
  ``(w.T @ w.conj()).astype(complex)``: sampled channels, zero diagonal
  entries (supports of unequal sizes), ``kraus_from_choi`` operators, and
  operators times unit-modulus phases, on both sides of the crossover.
  Padded mixtures and Haar-rotated channels, whose supports overlap, take
  the dense product.
- ``stinespring``: when the isometry V splits (from ``linalg._BLOCK_MIN_DIM``
  rows up), u is written block by block and its unitarity residual is
  taken from the same blocks.  u must be byte for byte the unitary of the
  reference construction (the complement of V's range built block by
  block, then placed in u's free columns), and the residual that of
  ``_unitarity_residual``, which searches u's pattern and gathers u's
  blocks, and that of ``DilationModel(u)``: sampled channels, zero rows of
  V, and padded mixtures whose blocks merge.  Below the gate, and for a
  Haar-rotated channel above it, u is one complete QR of V.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import kinds
from helpers import dense_dilation, isometry, same_bits, with_gates

from xchan import linalg
from xchan.channels import KrausChannel, choi, kraus_from_choi
from xchan.dilation import DilationModel, stinespring
from xchan.extremal import build_extremal, sample_extremal
from xchan.linalg import _components, _grouped, _splits, _unitarity_residual, real_if_exact

PROPERTY = settings(max_examples=3, deadline=None, derandomize=True, database=None)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def vec_stack(ch: KrausChannel) -> np.ndarray:
    """Row i is vec(C_i), column-major, real when the channel is."""
    return real_if_exact(ch.stack).transpose(0, 2, 1).reshape(len(ch), -1)


def dense_choi(ch: KrausChannel) -> np.ndarray:
    w = vec_stack(ch)
    return (w.T @ w.conj()).astype(complex, copy=False)


def disjoint(ch: KrausChannel) -> bool:
    return int((vec_stack(ch) != 0).sum(axis=0).max()) <= 1


def with_phases(ch: KrausChannel, seed: int, per_entry: bool) -> KrausChannel:
    n = ch.dim
    shape = (len(ch), n, n) if per_entry else (len(ch), 1, 1)
    angles = np.random.default_rng(seed).random(shape)
    return KrausChannel(ch.stack * np.exp(2j * np.pi * angles))


def assert_choi_is_dense(ch: KrausChannel) -> None:
    """At the default gate and with the scatter forced, J is the dense product."""
    dense = dense_choi(ch)
    assert same_bits(choi(ch), dense)
    assert same_bits(with_gates(choi, ch, scatter=0), dense)


# ---------------------------------------------------------------------------
# choi


def test_the_scatter_gate_is_the_measured_crossover():
    assert linalg._SCATTER_MIN_DIM == 196  # N = 14


@pytest.mark.parametrize("n", [11, 12, 16, 20, 32])
@pytest.mark.parametrize("seed", [1, 7, 12])
def test_choi_of_sampled_channels(n, seed):
    _, ch = sample_extremal(n, seed)
    assert disjoint(ch)
    assert_choi_is_dense(ch)


@pytest.mark.parametrize("n", [4, 8, 12, 14, 16, 20])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_choi_with_zero_diagonal_entries(n, seed):
    ch = build_extremal(kinds.zero_diagonals(n, seed))
    sizes = (vec_stack(ch) != 0).sum(axis=1)
    assert disjoint(ch) and len(set(sizes.tolist())) > 1
    assert_choi_is_dense(ch)


@pytest.mark.parametrize("n", [8, 14, 16, 20])
def test_choi_of_kraus_from_a_split_choi(n):
    _, ch = sample_extremal(n, n)
    back = kraus_from_choi(choi(ch))
    assert disjoint(back)
    assert_choi_is_dense(back)


@pytest.mark.parametrize("n", [4, 12, 16, 20])
@pytest.mark.parametrize("per_entry", [False, True])
@pytest.mark.parametrize("seed", [1, 5])
def test_choi_of_operators_times_unit_phases(n, per_entry, seed):
    _, ch = sample_extremal(n, seed)
    phased = with_phases(ch, seed, per_entry)
    assert disjoint(phased) and vec_stack(phased).dtype == np.complex128
    assert_choi_is_dense(phased)


@pytest.mark.parametrize("n", [13, 14])
def test_choi_on_both_sides_of_the_crossover(n, monkeypatch):
    _, ch = sample_extremal(n, 3)
    calls = []
    zeros = np.zeros

    def spy(*args, **kwargs):
        calls.append(args[0])
        return zeros(*args, **kwargs)

    monkeypatch.setattr(linalg.np, "zeros", spy)
    j = choi(ch)
    monkeypatch.undo()
    assert (n * n >= linalg._SCATTER_MIN_DIM) == (n == 14)
    assert calls == ([(n * n, n * n)] if n == 14 else [])
    assert same_bits(j, dense_choi(ch))


@pytest.mark.parametrize("n", [2, 12, 16])
def test_overlapping_supports_take_the_dense_product(n, monkeypatch):
    _, ch = sample_extremal(n, 4)
    mixed = kinds.mixture(ch, kinds.turn(n), 0.3, input_only=True)
    rotated = kinds.rotated(ch, n)
    monkeypatch.setattr(linalg, "_SCATTER_MIN_DIM", 0)
    for other in (mixed, rotated):
        assert not disjoint(other)
        assert same_bits(choi(other), dense_choi(other))


def test_an_all_zero_operator_adds_nothing():
    _, ch = sample_extremal(12, 2)
    padded = kinds.padded(ch)
    assert disjoint(padded)
    assert_choi_is_dense(padded)
    assert same_bits(with_gates(choi, padded, scatter=0), choi(ch))


# ---------------------------------------------------------------------------
# stinespring


def reference_split_dilation(ch: KrausChannel) -> np.ndarray:
    """The reference construction: the complement of V's range block by block
    into an (m, m - p) array, each block's free QR columns in the next run of
    columns and a unit column per zero row, then V and the complement placed
    in u's columns c*k and the others."""
    n, k = ch.dim, len(ch)
    v = isometry(ch)
    m, p = v.shape
    groups, parts = with_gates(_grouped, v, m, block=0)
    assert groups is not None
    out = np.zeros((m, m - p), dtype=parts[0].dtype)
    start = 0
    for (rows, cols), b in zip(groups, parts):
        g, rank = cols.shape
        free = np.linalg.qr(b, mode="complete")[0][:, :, rank:]
        for i in range(g):
            width = free.shape[2]
            out[rows[i][:, None], np.arange(start, start + width)] = free[i]
            start += width
    loose = np.flatnonzero(~v.any(axis=1))
    assert len(loose) == m - p - start
    out[loose, np.arange(start, m - p)] = 1.0
    u = np.empty((m, m), dtype=complex)
    u.reshape(m, n, k)[:, :, 0] = v
    u.reshape(m, n, k)[:, :, 1:] = out.reshape(m, n, k - 1)
    return u


def split_calls(ch: KrausChannel, gate: int | None):
    """``stinespring(ch)`` at the block gate ``gate``, and the shapes that
    the split builder was called with."""
    calls = []
    split = linalg._split_unitary

    def spy(*args):
        calls.append(args[0].shape)
        return split(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_split_unitary", spy)
        model = with_gates(stinespring, ch, block=gate)
    return model, calls


def assert_split_dilation(ch: KrausChannel, gate: int | None = 0) -> None:
    """The split builder runs, and gives the reference u and the residual of
    ``_unitarity_residual`` and of ``DilationModel(u)``, all bit for bit."""
    model, calls = split_calls(ch, gate)
    assert calls == [(ch.dim * len(ch), ch.dim)]
    u = model.u
    assert same_bits(u, reference_split_dilation(ch))
    scanned = with_gates(_unitarity_residual, u, block=gate)
    assert same_bits(model.unitarity_residual, scanned)
    given_u = with_gates(DilationModel, ch.dim, len(ch), u, block=gate)
    assert same_bits(given_u.u, u)
    assert same_bits(given_u.unitarity_residual, model.unitarity_residual)


def assert_whole_dilation(ch: KrausChannel) -> None:
    """At the default gate the split builder does not run: u is the
    complete QR of the whole of V, with the residual of ``DilationModel(u)``."""
    model, calls = split_calls(ch, None)
    assert calls == []
    u = dense_dilation(ch)
    assert same_bits(model.u, u)
    given_u = DilationModel(ch.dim, len(ch), u)
    assert same_bits(model.unitarity_residual, given_u.unitarity_residual)


all_dims = pytest.mark.parametrize("n", range(2, 17))


@all_dims
@PROPERTY
@given(seed=seeds)
def test_split_dilation_of_sampled_channels(n, seed):
    assert_split_dilation(sample_extremal(n, seed)[1])


@all_dims
@PROPERTY
@given(seed=seeds)
def test_split_dilation_with_zero_rows(n, seed):
    ch = build_extremal(kinds.zero_diagonals(n, seed))
    assert_split_dilation(ch)


@pytest.mark.parametrize("n", range(3, 17))  # at N = 2 the merged block is all of V
@PROPERTY
@given(seed=seeds, weight=st.floats(min_value=0.05, max_value=0.95))
def test_split_dilation_of_padded_mixtures_whose_blocks_merge(n, seed, weight):
    # The input turned in the (0, 1) plane: V's columns 0 and 1 merge.
    mixed = kinds.mixture(sample_extremal(n, seed)[1], kinds.turn(n), weight, input_only=True)
    v = real_if_exact(isometry(mixed))
    assert max(cols.shape[1] for _, cols in _components(v != 0)) > 1
    assert_split_dilation(mixed)


@pytest.mark.parametrize("n", [7, 8, 9, 10, 11, 12, 16, 20])
@pytest.mark.parametrize("seed", range(6))
def test_split_dilation_at_the_default_gate(n, seed):
    _, ch = sample_extremal(n, seed)
    assert n * len(ch) >= linalg._BLOCK_MIN_DIM
    assert_split_dilation(ch, gate=None)
    assert_split_dilation(build_extremal(kinds.zero_diagonals(n, seed)), gate=None)


@pytest.mark.parametrize("n", [5, 6, 7])
@pytest.mark.parametrize("seed", range(3))
def test_split_dilation_of_padded_mixtures_at_the_default_gate(n, seed):
    mixed = kinds.mixture(sample_extremal(n, seed)[1], kinds.turn(n), 0.3, input_only=True)
    assert n * len(mixed) >= linalg._BLOCK_MIN_DIM
    assert_split_dilation(mixed, gate=None)


def test_below_the_gate_the_whole_isometry_is_completed():
    _, ch = sample_extremal(6, 6)
    assert 6 * len(ch) == 36 < linalg._BLOCK_MIN_DIM
    assert_whole_dilation(ch)


@pytest.mark.parametrize("n", [8, 11])
def test_a_rotated_isometry_above_the_gate_is_completed_whole(n):
    rotated = kinds.rotated(sample_extremal(n, n)[1], 1)
    assert n * len(rotated) >= linalg._BLOCK_MIN_DIM
    assert_whole_dilation(rotated)


@pytest.mark.parametrize("per_entry", [False, True])
def test_split_dilation_of_operators_times_unit_phases(per_entry):
    _, ch = sample_extremal(12, 9)
    assert_split_dilation(with_phases(ch, 9, per_entry), gate=None)


def test_a_rotated_channel_is_not_split():
    rotated = kinds.rotated(sample_extremal(12, 5)[1], 1)
    assert not _splits(_components(isometry(rotated) != 0))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_split_unitary", None)
        model = stinespring(rotated)
    assert model.unitarity_residual == _unitarity_residual(model.u)
