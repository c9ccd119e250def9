import math

import numpy as np
import pytest

from xchan.channels import (
    KrausChannel,
    check_extremal,
    check_trace_orthogonal,
    check_trace_preserving,
)
from xchan.errors import ValidationError
from xchan.linalg import ID2, SX
from xchan.qubit import (
    BlochAffine,
    NuParams,
    _affine_samples,
    bloch_affine,
    channel_from_nu,
    ellipsoid_samples,
    image_bloch,
    nu_to_diagonals,
    predicted_translation,
)


def random_nu_pairs(count, seed):
    rng = np.random.default_rng(seed)
    # 1 - random() lies in (0, 1].
    return 1.0 - rng.random((count, 2))


@pytest.mark.parametrize("bad", [0.0, -0.3, 1.1, float("nan")])
def test_nu_params_domain(bad):
    with pytest.raises(ValidationError):
        NuParams(bad, 0.5)
    with pytest.raises(ValidationError):
        NuParams(0.5, bad)


def test_nu3_is_the_product():
    p = NuParams(0.8, 0.5)
    assert p.nu3 == pytest.approx(0.4, abs=1e-15)


def test_nu_to_diagonals_identity_point():
    a, b = nu_to_diagonals(NuParams(1.0, 1.0))
    assert a == pytest.approx(1.0, abs=1e-15)
    assert b == pytest.approx(1.0, abs=1e-15)


def test_nu_to_diagonals_scalar_values():
    a, b = nu_to_diagonals(NuParams(0.8, 0.5))
    assert a == pytest.approx((math.sqrt(2.7) + math.sqrt(0.1)) / 2, abs=1e-15)
    assert b == pytest.approx((math.sqrt(2.7) - math.sqrt(0.1)) / 2, abs=1e-15)
    assert a == pytest.approx(0.9797, abs=5e-5)
    assert b == pytest.approx(0.6635, abs=5e-5)


def test_nu_to_diagonals_identities_hold():
    # 2ab = nu1 + nu2 and a^2 + b^2 = 1 + nu1*nu2 pin the 1/2 prefactor of
    # the mu coefficients; a 1/4 prefactor breaks both by a factor of 4.
    for nu1, nu2 in random_nu_pairs(200, seed=17):
        p = NuParams(nu1, nu2)
        a, b = nu_to_diagonals(p)
        assert 1.0 >= a >= b > 0.0
        assert 2.0 * a * b == pytest.approx(nu1 + nu2, abs=1e-12)
        assert a * a + b * b == pytest.approx(1.0 + p.nu3, abs=1e-12)


def test_channel_from_nu_identity_point_is_the_identity_channel():
    ch = channel_from_nu(NuParams(1.0, 1.0))
    assert len(ch) == 1
    assert np.allclose(ch.kraus[0], ID2)


def test_channel_from_nu_satisfies_defining_conditions():
    for nu1, nu2 in random_nu_pairs(50, seed=23):
        ch = channel_from_nu(NuParams(nu1, nu2))
        assert check_trace_preserving(ch).residual < 1e-12
        assert check_trace_orthogonal(ch).residual < 1e-12


def test_generic_channel_from_nu_is_extremal():
    result = check_extremal(channel_from_nu(NuParams(0.8, 0.5)))
    assert result.extremal and result.gram_rank == 4


def test_degenerate_axis_line_is_extremal_below_one():
    result = check_extremal(channel_from_nu(NuParams(0.6, 0.6)))
    assert result.extremal and result.gram_rank == 4


def test_bloch_affine_of_identity_channel():
    affine = bloch_affine(KrausChannel((ID2,)))
    assert np.allclose(affine.t_lin, np.eye(3), atol=1e-15)
    assert np.allclose(affine.t_vec, 0.0, atol=1e-15)


def test_bloch_affine_of_x_flip():
    affine = bloch_affine(KrausChannel((SX,)))
    assert np.allclose(affine.t_lin, np.diag([1.0, -1.0, -1.0]), atol=1e-15)
    assert np.allclose(affine.t_vec, 0.0, atol=1e-15)


def test_bloch_affine_rejects_non_qubit_channels():
    with pytest.raises(ValidationError):
        bloch_affine(KrausChannel((np.eye(3),)))


def test_bloch_affine_matches_state_level_action():
    ch = channel_from_nu(NuParams(0.7, 0.4))
    affine = bloch_affine(ch)
    rng = np.random.default_rng(29)
    for _ in range(50):
        w = rng.standard_normal(3)
        w = w / np.linalg.norm(w) * rng.uniform(0.0, 1.0)
        assert np.allclose(
            affine.transform(w), image_bloch(ch, w), atol=1e-10
        )


def test_linear_part_is_the_nu_diagonal():
    for nu1, nu2 in random_nu_pairs(100, seed=31):
        p = NuParams(nu1, nu2)
        affine = bloch_affine(channel_from_nu(p))
        assert np.allclose(
            affine.t_lin, np.diag([p.nu1, p.nu2, p.nu3]), atol=1e-10
        )


def test_translation_is_along_z_and_matches_the_formula():
    for nu1, nu2 in random_nu_pairs(100, seed=37):
        p = NuParams(nu1, nu2)
        affine = bloch_affine(channel_from_nu(p))
        assert abs(affine.t_vec[0]) < 1e-10
        assert abs(affine.t_vec[1]) < 1e-10
        assert abs(affine.t_vec[2]) == pytest.approx(
            predicted_translation(p), abs=1e-10
        )


@pytest.mark.parametrize(
    "nu1,nu2",
    [
        # |nu1 - nu2| ~ 5e-7: sqrt(1 - a^2) kept ~3 digits (residual 2.5e-10).
        (0.391064344083487, 0.3910648383126113),
        (0.7, 0.7),
        (0.2, 0.2),
        (1.0, 1.0),
        # nu1 = 1 edge: (1 + nu3)^2 - (nu1 + nu2)^2 is a rounding residue.
        (1.0, 0.3),
        (0.3, 1.0),
        (0.9999999, 0.9999998),
    ],
)
def test_geometry_holds_at_degenerate_and_unit_multipliers(nu1, nu2):
    p = NuParams(nu1, nu2)
    affine = bloch_affine(channel_from_nu(p))
    target = np.diag([p.nu1, p.nu2, p.nu3])
    assert np.max(np.abs(affine.t_lin - target)) <= 1e-14
    assert abs(abs(affine.t_vec[2]) - predicted_translation(p)) <= 1e-14
    assert predicted_translation(p) == pytest.approx(
        math.sqrt((1.0 - nu1**2) * (1.0 - nu2**2)), abs=1e-15
    )


def test_predicted_translation_values():
    assert predicted_translation(NuParams(1.0, 1.0)) == 0.0
    assert predicted_translation(NuParams(0.8, 0.5)) == pytest.approx(
        math.sqrt(0.27), abs=1e-15
    )
    # Equal axes: the radicand collapses to (1 - nu^2)^2.
    assert predicted_translation(NuParams(0.6, 0.6)) == pytest.approx(
        1.0 - 0.36, abs=1e-12
    )


def test_ellipsoid_samples_identity_point_fixes_the_sphere():
    w_in, w_out = ellipsoid_samples(NuParams(1.0, 1.0), count=40, seed=2)
    assert np.allclose(w_in, w_out, atol=1e-12)
    assert np.allclose(np.linalg.norm(w_in, axis=1), 1.0, atol=1e-12)


def test_ellipsoid_samples_lie_on_the_image_ellipsoid():
    p = NuParams(0.8, 0.5)
    t3 = predicted_translation(p)
    _, w_out = ellipsoid_samples(p, count=200, seed=3)
    lhs = (
        (w_out[:, 0] / p.nu1) ** 2
        + (w_out[:, 1] / p.nu2) ** 2
        + ((w_out[:, 2] - t3) / p.nu3) ** 2
    )
    assert np.max(np.abs(lhs - 1.0)) < 1e-8
    assert np.max(np.linalg.norm(w_out, axis=1)) <= 1.0 + 1e-9


def test_north_pole_image():
    p = NuParams(0.8, 0.5)
    affine = bloch_affine(channel_from_nu(p))
    top = affine.transform(np.array([0.0, 0.0, 1.0]))
    assert np.allclose(top, [0.0, 0.0, 0.4 + math.sqrt(0.27)], atol=1e-12)
    assert np.linalg.norm(top) <= 1.0


def test_ellipsoid_samples_validation_and_determinism():
    with pytest.raises(ValueError):
        ellipsoid_samples(NuParams(0.5, 0.5), count=0, seed=0)
    a_in, a_out = ellipsoid_samples(NuParams(0.5, 0.5), count=7, seed=9)
    b_in, b_out = ellipsoid_samples(NuParams(0.5, 0.5), count=7, seed=9)
    assert np.array_equal(a_in, b_in)
    assert np.array_equal(a_out, b_out)


@pytest.mark.parametrize(
    "nu1,nu2",
    [(0.6, 0.6), (1.0, 1.0), (1.0, 0.5), (0.5, 1.0), (1e-12, 1e-12), (1e-12, 0.7), (0.8, 0.5), (0.3, 0.7)],
)
def test_samples_from_a_held_affine_map_are_the_ellipsoid_samples(nu1, nu2):
    """``xchan bloch`` passes the affine map it already holds; the points
    are the bits ``ellipsoid_samples`` gives, and those of its own steps."""
    p = NuParams(nu1, nu2)
    affine = bloch_affine(channel_from_nu(p))
    for count, seed in ((1, 0), (200, 7), (1000, 123)):
        w_in, w_out = _affine_samples(affine, count, seed)
        ref_in, ref_out = ellipsoid_samples(p, count, seed)
        assert w_in.tobytes() == ref_in.tobytes() and w_out.tobytes() == ref_out.tobytes()
        draws = np.random.default_rng(seed).standard_normal((count, 3))
        draws = draws / np.linalg.norm(draws, axis=1, keepdims=True)
        assert w_in.tobytes() == draws.tobytes()
        assert w_out.tobytes() == (draws @ affine.t_lin.T + affine.t_vec[None, :]).tobytes()


def test_bloch_affine_shape_validation():
    with pytest.raises(ValueError):
        BlochAffine(np.eye(2), np.zeros(3))
    with pytest.raises(ValueError):
        BlochAffine(np.eye(3), np.zeros(2))
    affine = BlochAffine(np.eye(3), np.zeros(3))
    with pytest.raises(ValueError):
        affine.transform(np.zeros(2))


def test_bloch_affine_fields_are_read_only_copies():
    lin, vec = np.eye(3), np.arange(3.0)
    affine = BlochAffine(lin, vec)
    lin[0, 0], vec[0] = 5.0, 5.0
    assert np.array_equal(affine.t_lin, np.eye(3))
    assert np.array_equal(affine.t_vec, np.arange(3.0))
    for field in (affine.t_lin, affine.t_vec):
        assert field.dtype == np.float64 and not field.flags.writeable
        with pytest.raises(ValueError):
            field[0] = 1.0
    # An input that is already a read-only float array is still copied.
    frozen = np.eye(3)
    frozen.setflags(write=False)
    assert not np.shares_memory(BlochAffine(frozen, vec).t_lin, frozen)


def test_image_stays_inside_the_ball_for_random_channels():
    # Affine images of valid states are valid states, so |w_out| <= 1.
    rng = np.random.default_rng(41)
    for nu1, nu2 in random_nu_pairs(20, seed=43):
        affine = bloch_affine(channel_from_nu(NuParams(nu1, nu2)))
        w = rng.standard_normal((50, 3))
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        out = w @ affine.t_lin.T + affine.t_vec
        assert np.max(np.linalg.norm(out, axis=1)) <= 1.0 + 1e-9
