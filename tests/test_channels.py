import numpy as np
import pytest
import kinds
from helpers import damping_channel, ref_apply, ref_choi

from xchan.channels import (
    KrausChannel,
    apply,
    apply_to_matrix,
    check_extremal,
    check_trace_orthogonal,
    check_trace_preserving,
    check_unital,
    choi,
    choi_min_eigenvalue,
    choi_output_trace,
    convex_combine,
    kraus_from_choi,
)
from xchan.errors import NotHermitianError, NotPSDError, NotTracePreservingError
from xchan.extremal import sample_extremal
from xchan.linalg import _BLOCK_MIN_DIM, ENTRY_MAX, ID2, SX
from xchan.serialize import dump_channel, parse_channel
from xchan.states import random_density
from xchan.tolerances import TOL_WEIGHT_SUM


def test_channel_construction_validates_shapes():
    with pytest.raises(ValueError):
        KrausChannel(())
    with pytest.raises(ValueError):
        KrausChannel((ID2, np.eye(3)))
    with pytest.raises(ValueError):
        KrausChannel((np.ones((2, 3)),))


def test_operators_are_frozen_copies():
    src = np.eye(2, dtype=complex)
    ch = KrausChannel((src,))
    src[0, 0] = 5.0
    assert ch.kraus[0][0, 0] == 1.0
    with pytest.raises(ValueError):
        ch.kraus[0][0, 0] = 7.0


def test_damping_channel_properties():
    ch = damping_channel(0.3)
    assert check_trace_preserving(ch).ok
    assert check_trace_orthogonal(ch).ok
    # Decay toward |0> cannot preserve the maximally mixed state.
    assert not check_unital(ch).ok


def test_unitary_channel_is_unital():
    assert check_unital(KrausChannel((SX,))).ok


def test_extremality_of_single_unitary_and_of_mixtures():
    single = check_extremal(KrausChannel((ID2,)))
    assert single.extremal and single.gram_rank == 1 and single.expected == 1

    mixed = convex_combine(
        [KrausChannel((ID2,)), KrausChannel((SX,))], [0.5, 0.5]
    )
    result = check_extremal(mixed)
    assert not result.extremal
    assert result.gram_rank == 2
    assert result.expected == 4


def test_extremality_requires_trace_preservation():
    with pytest.raises(NotTracePreservingError):
        check_extremal(KrausChannel((0.5 * ID2,)))


@pytest.mark.parametrize("n,seed", [(2, 0), (3, 1), (4, 2)])
def test_apply_matches_operator_sum_loop(n, seed):
    _, ch = sample_extremal(n, seed)
    rho = random_density(n, seed + 100)
    out = apply(ch, rho)
    assert np.allclose(out.mat, ref_apply(ch, rho.mat), atol=1e-13)
    assert np.trace(out.mat).real == pytest.approx(1.0, abs=1e-12)


def test_apply_refuses_non_trace_preserving_sets():
    broken = KrausChannel((0.9 * ID2,))
    with pytest.raises(NotTracePreservingError):
        apply(broken, random_density(2, 0))


def test_apply_rejects_dimension_mismatch():
    _, ch = sample_extremal(2, 0)
    with pytest.raises(ValueError):
        apply(ch, random_density(3, 0))
    with pytest.raises(ValueError):
        apply_to_matrix(ch, np.eye(3))


def test_apply_to_matrix_is_linear():
    _, ch = sample_extremal(3, 5)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    y = rng.standard_normal((3, 3))
    lhs = apply_to_matrix(ch, x + 2.0 * y)
    rhs = apply_to_matrix(ch, x) + 2.0 * apply_to_matrix(ch, y)
    assert np.allclose(lhs, rhs, atol=1e-13)


@pytest.mark.parametrize("n,seed", [(2, 3), (3, 4)])
def test_choi_matches_matrix_unit_assembly(n, seed):
    _, ch = sample_extremal(n, seed)
    assert np.allclose(choi(ch), ref_choi(ch), atol=1e-13)


def test_choi_of_identity_channel():
    j = choi(KrausChannel((ID2,)))
    w = ID2.flatten(order="F")
    assert np.allclose(j, np.outer(w, w.conj()))
    assert np.trace(j).real == pytest.approx(2.0)


@pytest.mark.parametrize("n,seed", [(2, 6), (3, 7), (4, 8)])
def test_choi_diagnostics_for_trace_preserving_channels(n, seed):
    _, ch = sample_extremal(n, seed)
    j = choi(ch)
    assert choi_min_eigenvalue(j) >= -1e-12
    assert np.allclose(choi_output_trace(j), np.eye(n), atol=1e-12)
    assert np.trace(j).real == pytest.approx(n, abs=1e-12)


@pytest.mark.parametrize("n,seed", [(2, 6), (4, 8), (8, 9)])
def test_choi_min_eigenvalue_is_the_smallest_eigenvalue(n, seed):
    # A sampled channel's Choi matrix is exactly real, so the real routine
    # is the one that decomposes it: whole below the block crossover, else
    # block by block, each Kraus operator's support (they are disjoint)
    # being one block and every index outside them a zero block.
    _, ch = sample_extremal(n, seed)
    j = choi(ch)
    assert not j.imag.any()
    real = j.real
    if len(real) < _BLOCK_MIN_DIM:
        expected = np.linalg.eigvalsh(real)
    else:
        supports = [np.flatnonzero(c.T) for c in ch.stack]
        outside = len(real) - sum(map(len, supports))
        expected = np.concatenate(
            [np.linalg.eigvalsh(real[np.ix_(s, s)]) for s in supports] + [np.zeros(outside)]
        )
    assert choi_min_eigenvalue(j) == np.min(expected)


@pytest.mark.parametrize("n,seed", [(2, 6), (4, 8), (8, 9)])
def test_choi_min_eigenvalue_of_a_rotated_channel_uses_the_complex_routine(n, seed):
    j = choi(kinds.rotated(sample_extremal(n, seed)[1], seed))
    assert j.imag.any()
    assert choi_min_eigenvalue(j) == np.min(np.linalg.eigvalsh(j))


def test_choi_min_eigenvalue_rejects_non_hermitian_input():
    # 4 x 4: a Choi matrix's shape (N = 2), so the Hermiticity check decides.
    skewed = np.zeros((4, 4))
    skewed[0, 1] = 1.0
    with pytest.raises(NotHermitianError):
        choi_min_eigenvalue(skewed)


def test_kraus_from_choi_round_trips():
    for n, seed in [(2, 9), (3, 10), (4, 11)]:
        _, ch = sample_extremal(n, seed)
        j = choi(ch)
        back = kraus_from_choi(j)
        assert len(back) <= n
        assert np.allclose(choi(back), j, atol=1e-10)
        assert check_trace_orthogonal(back).ok


def test_kraus_from_choi_rejects_bad_input():
    with pytest.raises(NotPSDError):
        kraus_from_choi(-choi(KrausChannel((ID2,))))
    with pytest.raises(ValueError):
        kraus_from_choi(np.zeros((4, 4)))
    with pytest.raises(ValueError):
        kraus_from_choi(np.eye(5))


def test_kraus_from_choi_refuses_an_operator_beyond_the_entry_bound():
    # sqrt(1e302) = 1e151 > ENTRY_MAX: the Kraus-set gate's own refusal.
    with pytest.raises(ValueError, match=r"^matrix has a real or imaginary part beyond 1e\+150$"):
        kraus_from_choi(np.diag([1e302, 0.0, 0.0, 0.0]))


def test_kraus_from_choi_output_within_the_entry_bound_passes_every_gate():
    # sqrt(1e298) = 1e149 <= ENTRY_MAX.
    ch = kraus_from_choi(np.diag([1e298, 0.0, 0.0, 0.0]))
    assert np.array_equal(KrausChannel(ch.stack).stack, ch.stack)
    assert np.array_equal(parse_channel(dump_channel(ch), require_tp=False).stack, ch.stack)


def test_convex_combine_action_is_the_weighted_average():
    a = damping_channel(0.2)
    b = damping_channel(0.7)
    mix = convex_combine([a, b], [0.25, 0.75])
    rho = random_density(2, 3)
    expected = 0.25 * ref_apply(a, rho.mat) + 0.75 * ref_apply(b, rho.mat)
    assert np.allclose(apply(mix, rho).mat, expected, atol=1e-13)


def test_convex_combine_validates_weights_and_dims():
    a = KrausChannel((ID2,))
    with pytest.raises(ValueError):
        convex_combine([a], [0.5, 0.5])
    with pytest.raises(ValueError):
        convex_combine([], [])
    with pytest.raises(ValueError):
        convex_combine([a, a], [0.7, 0.4])
    with pytest.raises(ValueError):
        convex_combine([a, a], [1.5, -0.5])
    b = KrausChannel((np.eye(3),))
    with pytest.raises(ValueError):
        convex_combine([a, b], [0.5, 0.5])


@pytest.mark.parametrize("weights", [[np.nan, 1.0], [1.0, np.nan], [np.inf, 1.0], [-np.inf, 1.0]])
def test_convex_combine_refuses_non_finite_weights(weights):
    a = KrausChannel((ID2,))
    with pytest.raises(ValueError, match="^weights must be finite"):
        convex_combine([a, a], weights)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_convex_combine_gates_a_part_that_a_weight_above_one_takes_past_the_bound():
    # Weights may sum to 1 + TOL_WEIGHT_SUM, so sqrt(w) C can exceed the
    # entry bound that C meets: the combination's own gate is not redundant.
    at_bound = KrausChannel([[[ENTRY_MAX]]])
    assert convex_combine([at_bound], [1.0]).stack[0, 0, 0] == ENTRY_MAX
    assert 0.9e-12 <= TOL_WEIGHT_SUM
    with pytest.raises(ValueError, match=r"^matrix has a real or imaginary part beyond 1e\+150$"):
        convex_combine([at_bound], [1 + 0.9e-12])
