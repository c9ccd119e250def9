"""The stacked (k, N, N) Kraus array against per-operator reference loops.

The reference functions (below, and ``ref_apply`` and ``ref_choi`` from
``helpers``) are the operator-by-operator formulations of each channel
operation, and the Gram rank is the ``svd_rank`` of ``helpers.products``;
the library evaluates the same quantities as batched products on
``KrausChannel.stack``.
"""

import numpy as np
import pytest
from helpers import products, ref_apply, ref_choi

from xchan.channels import (
    KrausChannel,
    apply_to_matrix,
    check_extremal,
    check_trace_orthogonal,
    check_trace_preserving,
    check_unital,
    choi,
    convex_combine,
    kraus_from_choi,
)
from xchan.dilation import kraus_from_dilation, stinespring
from xchan.extremal import ExtremalParams, build_extremal, sample_extremal
from xchan.linalg import ID2, PAULIS, SY, dagger
from xchan.qubit import NuParams, bloch_affine, channel_from_nu
from xchan.states import random_density

AGREE = 1e-14


def ref_tp_residual(ch):
    acc = sum(dagger(c) @ c for c in ch.kraus)
    return float(np.max(np.abs(acc - np.eye(ch.dim))))


def ref_unital_residual(ch):
    acc = sum(c @ dagger(c) for c in ch.kraus)
    return float(np.max(np.abs(acc - np.eye(ch.dim))))


def ref_orth_residual(ch):
    worst = 0.0
    for i, a in enumerate(ch.kraus):
        for j, b in enumerate(ch.kraus):
            if i != j:
                worst = max(worst, abs(complex(np.trace(dagger(a) @ b))))
    return worst


def ref_bloch(ch):
    t_lin = np.empty((3, 3))
    t_vec = np.empty(3)
    image_id = ref_apply(ch, ID2)
    for i, si in enumerate(PAULIS):
        t_vec[i] = 0.5 * np.trace(si @ image_id).real
        for j, sj in enumerate(PAULIS):
            t_lin[i, j] = 0.5 * np.trace(si @ ref_apply(ch, sj)).real
    return t_lin, t_vec


def _sampled(n):
    return sample_extremal(n, 40 + n)[1]


def _padded():
    # k = 6 operators on N = 3: a convex mixture of two extremal channels.
    return convex_combine([_sampled(3), sample_extremal(3, 7)[1]], [0.3, 0.7])


def _dropped():
    # The third diagonal is all zero, so build_extremal keeps k = 2 of N = 3.
    d = np.array([[1.0, 0.0, 0.6], [0.0, 1.0, 0.8], [0.0, 0.0, 0.0]])
    return build_extremal(ExtremalParams(d))


CASES = {
    "n2": lambda: _sampled(2),
    "n3": lambda: _sampled(3),
    "n4": lambda: _sampled(4),
    "n8": lambda: _sampled(8),
    "n16": lambda: _sampled(16),
    "padded": _padded,
    "dropped": _dropped,
}


@pytest.fixture(params=sorted(CASES), scope="module")
def channel(request):
    return CASES[request.param]()


def test_fixture_shapes():
    assert _padded().stack.shape == (6, 3, 3)
    assert _dropped().stack.shape == (2, 3, 3)


def test_trace_preserving_matches_loop(channel):
    res = check_trace_preserving(channel)
    assert abs(res.residual - ref_tp_residual(channel)) <= AGREE
    assert res.ok


def test_unital_matches_loop(channel):
    assert abs(check_unital(channel).residual - ref_unital_residual(channel)) <= AGREE


def test_trace_orthogonal_matches_loop(channel):
    res = check_trace_orthogonal(channel)
    assert abs(res.residual - ref_orth_residual(channel)) <= AGREE


def test_choi_matches_loop(channel):
    assert np.max(np.abs(choi(channel) - ref_choi(channel))) <= AGREE


def test_apply_to_matrix_matches_loop(channel):
    n = channel.dim
    rng = np.random.default_rng(n)
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    assert np.max(np.abs(apply_to_matrix(channel, x) - ref_apply(channel, x))) <= AGREE
    rho = random_density(n, 3).mat
    assert np.max(np.abs(apply_to_matrix(channel, rho) - ref_apply(channel, rho))) <= AGREE


def test_gram_rank_matches_loop(channel, svd_rank):
    result = check_extremal(channel)
    assert result.gram_rank == svd_rank(products(channel))
    assert result.expected == len(channel) ** 2


def test_padded_set_is_not_extremal_and_dropped_set_is():
    assert not check_extremal(_padded()).extremal
    assert check_extremal(_dropped()).extremal


@pytest.mark.parametrize(
    "make",
    [
        lambda: channel_from_nu(NuParams(0.8, 0.5)),
        lambda: channel_from_nu(NuParams(0.3, 0.9)),
        lambda: channel_from_nu(NuParams(1.0, 1.0)),
        lambda: convex_combine(
            [channel_from_nu(NuParams(0.8, 0.5)), KrausChannel((SY,))], [0.6, 0.4]
        ),
    ],
)
def test_bloch_affine_matches_loop(make):
    ch = make()
    affine = bloch_affine(ch)
    t_lin, t_vec = ref_bloch(ch)
    assert np.max(np.abs(affine.t_lin - t_lin)) <= AGREE
    assert np.max(np.abs(affine.t_vec - t_vec)) <= AGREE


def test_kraus_from_choi_keeps_descending_order_and_column_major_vec():
    j = choi(_sampled(4))
    back = kraus_from_choi(j)
    w = np.linalg.eigvalsh(j)[::-1]
    norms = [np.linalg.norm(c) ** 2 for c in back.kraus]
    assert np.allclose(norms, w[: len(back)], atol=1e-12)
    assert np.all(np.diff(norms) <= 1e-12)
    assert np.max(np.abs(ref_choi(back) - j)) <= 1e-13


def test_stinespring_isometry_is_the_stacked_operators():
    ch = _padded()
    model = stinespring(ch)
    n, k = ch.dim, len(ch)
    iso = np.stack(ch.kraus, axis=1).reshape(n * k, n)
    assert np.array_equal(model.u[:, ::k], iso)
    back = kraus_from_dilation(model)
    assert np.array_equal(back.stack, ch.stack)


def test_kraus_entries_are_views_of_the_stack():
    ch = _sampled(3)
    assert ch.stack.shape == (3, 3, 3)
    assert ch.stack.dtype == np.complex128
    assert isinstance(ch.kraus, tuple) and len(ch.kraus) == 3
    for i, c in enumerate(ch.kraus):
        assert c.base is ch.stack
        assert np.array_equal(c, ch.stack[i])


def test_stack_and_views_are_read_only():
    ch = _sampled(2)
    with pytest.raises(ValueError):
        ch.stack[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        ch.kraus[1][0, 0] = 1.0


@pytest.mark.parametrize("as_array", [False, True])
def test_caller_input_is_copied(as_array):
    ops = [np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)]
    src = np.stack(ops) if as_array else ops
    ch = KrausChannel(src)
    before = ch.stack.copy()
    if as_array:
        src[:] = 7.0
    else:
        ops[0][0, 0] = 7.0
        ops[1][1, 0] = 7.0
    assert np.array_equal(ch.stack, before)
    assert ch.kraus[0][0, 0] == 1.0


def test_real_input_is_promoted_to_complex():
    ch = KrausChannel((np.eye(2), np.zeros((2, 2))))
    assert ch.stack.dtype == np.complex128


@pytest.mark.parametrize(
    "ops",
    [
        (),
        [],
        np.zeros((0, 2, 2)),
        (ID2, np.eye(3)),
        (np.ones((2, 3)),),
        (np.ones(2),),
        np.eye(2),
        (np.array([[1.0, np.nan], [0.0, 1.0]]),),
        (np.array([[np.inf, 0.0], [0.0, 1.0]]),),
    ],
)
def test_bad_operator_sets_raise_value_error(ops):
    with pytest.raises(ValueError):
        KrausChannel(ops)
