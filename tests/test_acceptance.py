"""End-to-end acceptance sweep.

Eleven numbered criteria, each reported as one [PASS]/[FAIL] line (replayed
in the terminal summary).  The shared population is 500 seeded extremal
channels cycling through N = 2, 3, 4.
"""

import numpy as np
import pytest

from xchan.channels import (
    KrausChannel,
    apply,
    check_extremal,
    check_trace_orthogonal,
    check_trace_preserving,
    choi,
    convex_combine,
    kraus_from_choi,
)
from xchan.cli import main
from xchan.dilation import evolve_via_dilation, stinespring
from xchan.extremal import parameter_jacobian_rank, sample_extremal, sample_interior
from xchan.linalg import ID2, SX, dagger
from xchan.qubit import (
    NuParams,
    bloch_affine,
    channel_from_nu,
    ellipsoid_samples,
    nu_to_diagonals,
    predicted_translation,
)
from xchan.serialize import dump_channel, parse_channel
from xchan.states import random_density

POPULATION_SIZE = 500


@pytest.fixture(scope="module")
def population():
    out = []
    for i in range(POPULATION_SIZE):
        n = 2 + i % 3
        params, ch = sample_extremal(n, seed=i)
        out.append((n, params, ch))
    return out


@pytest.fixture(scope="module")
def nu_population():
    rng = np.random.default_rng(2024)
    pairs = 1.0 - rng.random((500, 2))
    return [NuParams(nu1, nu2) for nu1, nu2 in pairs]


def test_criterion_1_completeness(population, criterion):
    worst = max(check_trace_preserving(ch).residual for _, _, ch in population)
    criterion(
        1,
        worst < 1e-10,
        f"max completeness residual {worst:.3e} over "
        f"{POPULATION_SIZE} channels (N=2,3,4), tol 1e-10",
    )


def test_criterion_2_trace_orthogonality(population, criterion):
    worst = max(check_trace_orthogonal(ch).residual for _, _, ch in population)
    criterion(
        2,
        worst < 1e-12,
        f"max pairwise overlap {worst:.3e} over {POPULATION_SIZE} channels, "
        "tol 1e-12",
    )


def test_criterion_3_parameter_count(criterion):
    failures = []
    for n in (2, 3, 4):
        expected = n * n - n
        for j in range(20):
            rank = parameter_jacobian_rank(
                sample_interior(n, seed=1000 + j), step=1e-5
            )
            if rank != expected:
                failures.append((n, j, rank))
    criterion(
        3,
        not failures,
        "Finite-difference Jacobian rank equals N^2-N at 20 interior points "
        f"for each N=2,3,4 (ranks 2, 6, 12); failures: {failures or 'none'}",
    )


def test_criterion_4_qubit_linear_part(nu_population, criterion):
    worst = 0.0
    for p in nu_population:
        affine = bloch_affine(channel_from_nu(p))
        target = np.diag([p.nu1, p.nu2, p.nu3])
        worst = max(worst, float(np.max(np.abs(affine.t_lin - target))))
    criterion(
        4,
        worst < 1e-10,
        f"Bloch linear part matches diag(nu1, nu2, nu1*nu2) within "
        f"{worst:.3e} over 500 points, tol 1e-10",
    )


def test_criterion_5_translation_formula(nu_population, criterion):
    worst_z = 0.0
    worst_xy = 0.0
    for p in nu_population:
        affine = bloch_affine(channel_from_nu(p))
        worst_z = max(
            worst_z, abs(abs(affine.t_vec[2]) - predicted_translation(p))
        )
        worst_xy = max(worst_xy, abs(affine.t_vec[0]), abs(affine.t_vec[1]))
    ok = worst_z < 1e-10 and worst_xy < 1e-10
    criterion(
        5,
        ok,
        f"|t_vec[2]| matches sqrt((1-nu1*nu2)^2-(nu1-nu2)^2) within "
        f"{worst_z:.3e}; transverse components < {worst_xy:.3e}; tol 1e-10",
    )


def test_criterion_6_mu_coefficient(nu_population, criterion):
    worst_half = 0.0
    worst_quarter = 0.0
    for p in nu_population:
        a, b = nu_to_diagonals(p)
        worst_half = max(
            worst_half,
            abs(2 * a * b - (p.nu1 + p.nu2)),
            abs(a * a + b * b - (1 + p.nu3)),
        )
        # The same formulas with prefactor 1/4 instead of 1/2.
        aq, bq = a / 2.0, b / 2.0
        worst_quarter = max(worst_quarter, abs(2 * aq * bq - (p.nu1 + p.nu2)))
    ok = worst_half < 1e-12 and worst_quarter > 0.1
    criterion(
        6,
        ok,
        f"mu prefactor 1/2: identities 2ab=nu1+nu2, a^2+b^2=1+nu3 hold "
        f"within {worst_half:.3e} (tol 1e-12); prefactor 1/4 misses by up "
        f"to {worst_quarter:.3e}",
    )


def test_criterion_7_extremality(population, criterion):
    bad = [
        (n, i)
        for i, (n, _, ch) in enumerate(population)
        if not check_extremal(ch).extremal
    ]
    mixture = convex_combine(
        [KrausChannel((ID2,)), KrausChannel((SX,))], [0.5, 0.5]
    )
    mix = check_extremal(mixture)
    ok = not bad and not mix.extremal and mix.gram_rank == 2 and mix.expected == 4
    criterion(
        7,
        ok,
        f"all {POPULATION_SIZE} samples pass the Gram-rank test "
        f"(failures: {bad or 'none'}); the I/sigma_x mixture fails with "
        f"rank {mix.gram_rank} of {mix.expected}",
    )


def test_criterion_8_choi_consistency(population, criterion):
    worst = 0.0
    rank_ok = True
    for n, _, ch in population:
        j = choi(ch)
        back = kraus_from_choi(j)
        worst = max(worst, float(np.max(np.abs(choi(back) - j))))
        w = np.linalg.eigvalsh(j)
        if int(np.sum(w > 1e-10 * w.max())) > n:
            rank_ok = False
    ok = worst < 1e-9 and rank_ok
    criterion(
        8,
        ok,
        f"Choi -> Kraus -> Choi distance {worst:.3e} (tol 1e-9); "
        f"Choi rank <= N on all samples: {rank_ok}",
    )


def test_criterion_9_dilation(criterion):
    worst_agree = 0.0
    worst_unitary = 0.0
    for i in range(100):
        n = 2 + i % 3
        _, ch = sample_extremal(n, seed=3000 + i)
        model = stinespring(ch)
        total = model.dim_sys * model.dim_env
        worst_unitary = max(
            worst_unitary,
            float(np.max(np.abs(dagger(model.u) @ model.u - np.eye(total)))),
        )
        rho = random_density(n, seed=4000 + i)
        diff = np.abs(
            evolve_via_dilation(model, rho).mat - apply(ch, rho).mat
        )
        worst_agree = max(worst_agree, float(np.max(diff)))
    ok = worst_agree < 1e-10 and worst_unitary < 1e-10
    criterion(
        9,
        ok,
        f"dilation vs operator sum agree within {worst_agree:.3e} on 100 "
        f"pairs; unitarity residual {worst_unitary:.3e}; tol 1e-10",
    )


def test_criterion_10_ellipsoid_geometry(criterion):
    rng = np.random.default_rng(77)
    worst_eq = 0.0
    worst_norm = 0.0
    # 5 parameter points x 200 sphere samples = 1000 mapped points.
    for k in range(5):
        nu1, nu2 = 1.0 - rng.random(2)
        p = NuParams(nu1, nu2)
        t3 = predicted_translation(p)
        _, w_out = ellipsoid_samples(p, count=200, seed=500 + k)
        eq = (
            (w_out[:, 0] / p.nu1) ** 2
            + (w_out[:, 1] / p.nu2) ** 2
            + ((w_out[:, 2] - t3) / p.nu3) ** 2
        )
        worst_eq = max(worst_eq, float(np.max(np.abs(eq - 1.0))))
        worst_norm = max(worst_norm, float(np.max(np.linalg.norm(w_out, axis=1))))
    ok = worst_eq < 1e-8 and worst_norm <= 1.0 + 1e-9
    criterion(
        10,
        ok,
        f"1000 sphere points land on the (nu1, nu2, nu1*nu2) ellipsoid at "
        f"(0,0,t3): equation residual {worst_eq:.3e} (tol 1e-8), max image "
        f"norm {worst_norm:.12f} (<= 1+1e-9)",
    )


def test_criterion_11_cli_round_trip(tmp_path, capsys, criterion):
    worst = 0.0
    for i in range(50):
        n = 2 + i % 3
        _, ch = sample_extremal(n, seed=5000 + i)
        back = parse_channel(dump_channel(ch))
        worst = max(worst, float(np.max(np.abs(choi(ch) - choi(back)))))

    good = tmp_path / "good.json"
    _, ch = sample_extremal(3, seed=6000)
    good.write_text(dump_channel(ch))
    mixture = tmp_path / "mixture.json"
    mixture.write_text(
        dump_channel(
            convex_combine([KrausChannel((ID2,)), KrausChannel((SX,))], [0.5, 0.5])
        )
    )
    syntax = tmp_path / "syntax.json"
    syntax.write_text("{nope")

    code_pass = main(["check", str(good)])
    code_fail = main(["check", str(mixture)])
    code_parse = main(["check", str(syntax)])
    code_usage = main(["check", "--definitely-not-a-flag"])
    capsys.readouterr()

    codes_ok = (code_pass, code_fail, code_parse, code_usage) == (0, 1, 2, 2)
    ok = worst < 1e-12 and codes_ok
    criterion(
        11,
        ok,
        f"serialize/parse round-trip Choi distance {worst:.3e} on 50 "
        f"channels (tol 1e-12); exit codes pass/fail/parse/usage = "
        f"{(code_pass, code_fail, code_parse, code_usage)}",
    )
