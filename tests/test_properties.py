"""Property tests over the parameter domain and its edges.

The extremal family is sampled with exact zeros in its diagonals, the qubit
family at the ``nu1 = 1`` and ``nu2 = 1`` edges, and Kraus sets are padded
with zero operators or split into repeated copies.  Every channel must stay
CPTP, and a channel must survive serialize -> parse -> Choi -> Kraus ->
dilation with its action unchanged.  For the qubit family the Bloch map must
satisfy the Ruskai-Szarek-Werner identities of an extreme point (Ruskai,
Szarek and Werner 2002, Lin. Alg. Appl. 347): with multipliers
(l1, l2, l3) and translation t3 along z,

    (l1 + l2)^2 = (1 + l3)^2 - t3^2,   (l1 - l2)^2 = (1 - l3)^2 - t3^2.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
import kinds

from xchan.channels import (
    KrausChannel,
    apply,
    check_extremal,
    check_trace_orthogonal,
    check_trace_preserving,
    choi,
    choi_min_eigenvalue,
    kraus_from_choi,
)
from xchan.dilation import evolve_via_dilation, stinespring
from xchan.extremal import build_extremal
from xchan.qubit import NuParams, bloch_affine, channel_from_nu
from xchan.serialize import dump_channel, parse_channel
from xchan.states import random_density

# Bounded and derandomized, so the suite stays fast and repeatable.
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)

dims = st.integers(min_value=2, max_value=6)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
# Multipliers in (0, 1], with the edge nu = 1 drawn often.
nus = st.one_of(st.just(1.0), st.floats(min_value=1e-6, max_value=1.0))


def assert_cptp(ch: KrausChannel) -> None:
    assert check_trace_preserving(ch, 1e-12).ok
    assert choi_min_eigenvalue(choi(ch)) >= -1e-12


@PROPERTY
@given(n=dims, seed=seeds)
def test_diagonals_with_exact_zeros_give_cptp_channels(n, seed):
    # About half the entries exactly zero, entry (0, 0) always.
    d = kinds.zero_diagonals(n, seed, zero=(0, 0))
    ch = build_extremal(d)
    # All-zero diagonals are dropped; the rest are trace orthogonal, so
    # they are independent and the Choi rank is the operator count.
    assert len(ch) == int(d.diagonals.any(axis=1).sum())
    assert_cptp(ch)
    assert check_trace_orthogonal(ch, 1e-12).ok
    assert len(kraus_from_choi(choi(ch))) == len(ch)


@PROPERTY
@given(n=dims, seed=seeds)
def test_round_trip_through_serialize_choi_kraus_and_dilation(n, seed):
    ch = build_extremal(kinds.zero_diagonals(n, seed, zero=(0, 0)))
    parsed = parse_channel(dump_channel(ch))
    assert np.array_equal(parsed.stack, ch.stack)
    canonical = kraus_from_choi(choi(parsed))
    assert np.max(np.abs(choi(canonical) - choi(ch))) <= 1e-12
    assert_cptp(canonical)
    model = stinespring(canonical)
    rho = random_density(n, seed % 1000)
    via_u = evolve_via_dilation(model, rho)
    assert np.max(np.abs(via_u.mat - apply(ch, rho).mat)) <= 1e-12


@PROPERTY
@given(n=dims, seed=seeds, pad=st.integers(min_value=1, max_value=3))
def test_padded_and_repeated_kraus_sets_are_the_same_channel(n, seed, pad):
    ch = build_extremal(kinds.zero_diagonals(n, seed, zero=(0, 0)))
    k = len(ch)
    padded = kinds.padded(ch, pad)
    # Splitting every operator into two copies scaled by 1/sqrt(2).
    repeated = KrausChannel(np.concatenate([ch.stack, ch.stack]) / np.sqrt(2.0))
    for redundant in (padded, repeated):
        assert_cptp(redundant)
        assert np.max(np.abs(choi(redundant) - choi(ch))) <= 1e-12
        assert len(kraus_from_choi(choi(redundant))) == k
        # Redundant operators make the products {C_i^dag C_j} dependent.
        assert not check_extremal(redundant).extremal


@PROPERTY
@given(nu1=nus, nu2=nus)
def test_qubit_family_meets_the_rsw_identities(nu1, nu2):
    p = NuParams(nu1, nu2)
    ch = channel_from_nu(p)
    assert_cptp(ch)
    affine = bloch_affine(ch)
    l1, l2, l3 = np.diag(affine.t_lin)
    assert np.max(np.abs(affine.t_lin - np.diag([l1, l2, l3]))) <= 1e-12
    assert np.max(np.abs([l1 - nu1, l2 - nu2, l3 - nu1 * nu2])) <= 1e-12
    tx, ty, t3 = affine.t_vec
    assert abs(tx) <= 1e-12 and abs(ty) <= 1e-12
    assert abs((l1 + l2) ** 2 - ((1 + l3) ** 2 - t3**2)) <= 1e-12
    assert abs((l1 - l2) ** 2 - ((1 - l3) ** 2 - t3**2)) <= 1e-12
    if nu1 == 1.0 or nu2 == 1.0:
        # At either edge the ellipsoid touches the sphere: no translation.
        assert abs(t3) <= 1e-12
