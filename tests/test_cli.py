import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from xchan.channels import KrausChannel, apply, choi, convex_combine
from xchan import cli
from xchan.cli import MAX_BLOCH_COUNT, MAX_DILATE_DIM, MAX_JACOBIAN_N, MAX_SAMPLE_N, main
from xchan.dilation import stinespring
from xchan.extremal import sample_extremal
from xchan.linalg import ID2, SX
from xchan.qubit import NuParams, channel_from_nu, ellipsoid_samples
from xchan.serialize import (
    dump_channel,
    dump_state,
    matrix_from_doc,
    parse_channel,
    parse_state,
)
from xchan.states import random_density


@pytest.fixture
def channel_file(tmp_path):
    _, ch = sample_extremal(3, seed=7)
    path = tmp_path / "channel.json"
    path.write_text(dump_channel(ch))
    return path, ch


@pytest.fixture
def mixture_file(tmp_path):
    mixed = convex_combine(
        [KrausChannel((ID2,)), KrausChannel((SX,))], [0.5, 0.5]
    )
    path = tmp_path / "mixture.json"
    path.write_text(dump_channel(mixed))
    return path


def test_check_passes_on_extremal_sample(channel_file, capsys):
    path, _ = channel_file
    assert main(["check", str(path)]) == 0
    out = capsys.readouterr().out
    assert "trace_preserving: ok" in out
    assert "extremal: yes" in out
    assert "verdict: pass" in out


def test_check_fails_on_convex_mixture(mixture_file, capsys):
    assert main(["check", str(mixture_file)]) == 1
    out = capsys.readouterr().out
    assert "extremal: no gram_rank=2 expected=4" in out
    assert "verdict: fail" in out


def test_check_reports_broken_completeness(tmp_path, capsys):
    doc = {"dim": 2, "kraus": [[[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]]}
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 1
    out = capsys.readouterr().out
    assert "trace_preserving: FAIL" in out
    assert "extremal: skipped" in out


def test_check_schema_error_is_a_usage_failure(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 2, "kraus": [[[[1.0, 0.0]]]]}')
    assert main(["check", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_check_malformed_json(tmp_path, capsys):
    path = tmp_path / "syntax.json"
    path.write_text("{oops")
    assert main(["check", str(path)]) == 2


def test_missing_file_is_a_usage_failure(capsys):
    assert main(["check", "does-not-exist.json"]) == 2


def test_unknown_subcommand_and_flags_exit_2(capsys):
    assert main(["frobnicate"]) == 2
    assert main(["check", "--bogus"]) == 2
    assert main([]) == 2


def test_build_from_nu_pair(capsys):
    assert main(["build", "--nu1", "0.8", "--nu2", "0.5"]) == 0
    out = capsys.readouterr().out
    ch = parse_channel(out)
    expected = channel_from_nu(NuParams(0.8, 0.5))
    assert np.max(np.abs(choi(ch) - choi(expected))) < 1e-15
    assert json.loads(out)["metadata"] == {"nu1": 0.8, "nu2": 0.5}


def test_build_from_full_params_file(tmp_path, capsys):
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"diagonals": [[1.0, 0.0], [0.0, 1.0]]}))
    assert main(["build", "--params", str(path)]) == 0
    ch = parse_channel(capsys.readouterr().out)
    assert len(ch) == 2


def test_build_completes_missing_last_row(tmp_path, capsys):
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({"diagonals": [[0.6, 0.8]]}))
    assert main(["build", "--params", str(path)]) == 0
    ch = parse_channel(capsys.readouterr().out)
    assert np.allclose(ch.kraus[0], np.diag([0.6, 0.8]))


def test_build_argument_combinations(tmp_path, capsys):
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"diagonals": [[1.0, 0.0], [0.0, 1.0]]}))
    assert main(["build"]) == 2
    assert main(["build", "--nu1", "0.5"]) == 2
    assert main(["build", "--nu1", "0.5", "--nu2", "0.5", "--params", str(path)]) == 2


def test_build_rejects_out_of_range_nu(capsys):
    assert main(["build", "--nu1", "1.5", "--nu2", "0.5"]) == 1


@pytest.mark.parametrize(
    "nu1, nu2, check_code",
    [("1", "0.5", 1), ("1", "1", 0), ("0.8", "0.5", 0)],
)
def test_qubit_family_is_extremal_off_the_single_unit_edges(
    tmp_path, nu1, nu2, check_code, capsys
):
    # With exactly one multiplier at 1 the channel is a mixture of two
    # unitary channels: it builds, and check refuses it as not extremal.
    path = tmp_path / "qubit.json"
    assert main(["build", "--nu1", nu1, "--nu2", nu2, "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["check", str(path)]) == check_code
    out = capsys.readouterr().out
    if check_code:
        assert "extremal: no gram_rank=2 expected=4" in out
    else:
        assert "extremal: yes" in out


def test_sample_then_check_round_trip(tmp_path, capsys):
    out_file = tmp_path / "sampled.json"
    assert main(["sample", "--n", "4", "--seed", "11", "--out", str(out_file)]) == 0
    doc = json.loads(out_file.read_text())
    assert doc["metadata"] == {"n": 4, "seed": 11}
    assert main(["check", str(out_file)]) == 0


def test_sample_is_deterministic(capsys):
    assert main(["sample", "--n", "3", "--seed", "5"]) == 0
    first = capsys.readouterr().out
    assert main(["sample", "--n", "3", "--seed", "5"]) == 0
    assert capsys.readouterr().out == first


def test_apply_matches_library_action(tmp_path, channel_file, capsys):
    ch_path, ch = channel_file
    rho = random_density(3, seed=1)
    rho_path = tmp_path / "rho.json"
    rho_path.write_text(dump_state(rho))
    assert main(["apply", "--channel", str(ch_path), "--state", str(rho_path)]) == 0
    out_state = parse_state(capsys.readouterr().out)
    assert np.allclose(out_state.mat, apply(ch, rho).mat, atol=1e-15)


def test_apply_rejects_invalid_state(tmp_path, channel_file, capsys):
    ch_path, _ = channel_file
    bad = tmp_path / "bad_state.json"
    doc = {"dim": 2, "rho": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}
    bad.write_text(json.dumps(doc))
    assert main(["apply", "--channel", str(ch_path), "--state", str(bad)]) == 1


def test_bloch_report_values(capsys):
    assert main(["bloch", "--nu1", "0.8", "--nu2", "0.5"]) == 0
    out = capsys.readouterr().out
    line = next(row for row in out.splitlines() if row.startswith("t_lin diagonal:"))
    diag = [float(v) for v in line.split(":")[1].split()]
    assert np.max(np.abs(np.subtract(diag, [0.8, 0.5, 0.4]))) <= 1e-15
    assert "t3 predicted: 0.5196152422706631" in out


def test_bloch_ellipsoid_csv(tmp_path, capsys):
    csv_path = tmp_path / "ellipsoid.csv"
    args = [
        "bloch", "--nu1", "0.8", "--nu2", "0.5",
        "--ellipsoid", str(csv_path), "--count", "25", "--seed", "3",
    ]
    assert main(args) == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "x_in,y_in,z_in,x_out,y_out,z_out"
    assert len(lines) == 26
    row = [float(v) for v in lines[1].split(",")]
    assert len(row) == 6
    assert np.linalg.norm(row[:3]) == pytest.approx(1.0, abs=1e-12)


def test_bloch_ellipsoid_csv_bytes_match_the_row_by_row_reference(tmp_path, capsys):
    csv_path = tmp_path / "ellipsoid.csv"
    args = [
        "bloch", "--nu1", "0.7", "--nu2", "0.3",
        "--ellipsoid", str(csv_path), "--count", "40", "--seed", "5",
    ]
    assert main(args) == 0
    w_in, w_out = ellipsoid_samples(NuParams(0.7, 0.3), 40, 5)
    reference = "x_in,y_in,z_in,x_out,y_out,z_out\n" + "".join(
        ",".join(f"{v:.17g}" for v in (*wi, *wo)) + "\n"
        for wi, wo in zip(w_in, w_out)
    )
    text = csv_path.read_text()
    assert text == reference
    fields = np.array(
        [[float(v) for v in row.split(",")] for row in text.splitlines()[1:]]
    )
    expected = np.hstack([w_in, w_out])
    assert np.array_equal(fields, expected)
    assert np.array_equal(np.signbit(fields), np.signbit(expected))


@pytest.mark.parametrize("n", [2, 3, 4, 16])
def test_dilate_document_holds_the_exact_unitary(tmp_path, n, capsys):
    _, ch = sample_extremal(n, seed=n + 20)
    ch_path = tmp_path / "channel.json"
    ch_path.write_text(dump_channel(ch))
    out_file = tmp_path / "dilation.json"
    assert main(["dilate", str(ch_path), "--out", str(out_file)]) == 0
    doc = json.loads(out_file.read_text())
    u = matrix_from_doc(doc["unitary"], "unitary")
    expected = stinespring(ch).u
    assert np.array_equal(u, expected)
    assert np.array_equal(np.signbit(u.real), np.signbit(expected.real))
    assert np.array_equal(np.signbit(u.imag), np.signbit(expected.imag))


def _compact(text: str) -> str:
    return json.dumps(json.loads(text), separators=(",", ":"))


def test_every_document_is_written_in_the_compact_layout(tmp_path, channel_file, capsys):
    ch_path, ch = channel_file
    text = dump_channel(ch, {"n": 3})
    assert text == _compact(text)
    text = dump_state(random_density(3, 1))
    assert text == _compact(text)
    out_file = tmp_path / "dilation.json"
    assert main(["dilate", str(ch_path), "--out", str(out_file)]) == 0
    text = out_file.read_text()
    assert text == _compact(text) + "\n"


def test_dilate_report_and_document(tmp_path, channel_file, capsys):
    ch_path, ch = channel_file
    out_file = tmp_path / "dilation.json"
    assert main(["dilate", str(ch_path), "--out", str(out_file)]) == 0
    report = capsys.readouterr().out
    assert "unitarity residual:" in report
    assert "verdict: pass" in report
    doc = json.loads(out_file.read_text())
    assert doc["dim_sys"] == 3
    assert doc["dim_env"] == len(ch)
    assert len(doc["unitary"]) == 3 * len(ch)


def test_dilate_prints_the_models_unitarity_residual(channel_file, capsys):
    ch_path, ch = channel_file
    assert main(["dilate", str(ch_path)]) == 0
    residual = cli.stinespring(ch).unitarity_residual
    assert f"unitarity residual: {residual:.3e}" in capsys.readouterr().err


def test_dilate_report_goes_to_stderr_without_out(channel_file, capsys):
    ch_path, _ = channel_file
    assert main(["dilate", str(ch_path)]) == 0
    captured = capsys.readouterr()
    json.loads(captured.out)
    assert "verdict: pass" in captured.err


def test_jacobian_report(capsys):
    assert main(["jacobian", "--n", "3", "--seed", "4"]) == 0
    assert "jacobian_rank=6 expected=6" in capsys.readouterr().out


def test_jacobian_step_selects_finite_differences(capsys):
    assert main(["jacobian", "--n", "3", "--seed", "4", "--step", "1e-5"]) == 0
    assert "jacobian_rank=6 expected=6" in capsys.readouterr().out


@pytest.mark.parametrize("step", ["0", "-1e-5", "nan", "inf"])
def test_jacobian_step_that_is_not_finite_and_positive_is_a_usage_error(step, capsys):
    assert main(["jacobian", "--n", "3", "--seed", "1", f"--step={step}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: step must be a finite number > 0")


@pytest.mark.parametrize("flag", ["true", "false"])
def test_json_booleans_are_usage_errors(tmp_path, channel_file, flag, capsys):
    ch_path, _ = channel_file
    docs = {
        "kraus": f'{{"dim": 1, "kraus": [[[[{flag}, 0.0]]]]}}',
        "rho": f'{{"dim": 3, "rho": [[[{flag}, 0.0], [0.0, 0.0], [0.0, 0.0]]]}}',
        "dim": f'{{"dim": {flag}, "kraus": [[[[1.0, 0.0]]]]}}',
        "diagonals": f'{{"diagonals": [[1.0, {flag}]]}}',
    }
    paths = {}
    for name, text in docs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(text)
    assert main(["check", str(paths["kraus"])]) == 2
    assert main(["check", str(paths["dim"])]) == 2
    assert main(["apply", "--channel", str(ch_path), "--state", str(paths["rho"])]) == 2
    assert main(["build", "--params", str(paths["diagonals"])]) == 2
    assert "error:" in capsys.readouterr().err


# A JSON integer that no double can hold: float() of it raises OverflowError.
HUGE_INT = "1" + "0" * 399


@pytest.mark.parametrize("field", ["kraus[0][0][0]", "rho[0][0]", "diagonals[0][0]"])
def test_integers_beyond_double_range_are_parse_errors(
    tmp_path, channel_file, field, capsys
):
    ch_path, _ = channel_file
    path = tmp_path / "huge.json"
    name = field.split("[")[0]
    path.write_text(
        {
            "kraus": f'{{"dim": 1, "kraus": [[[[{HUGE_INT}, 0.0]]]]}}',
            "rho": f'{{"dim": 3, "rho": [[[{HUGE_INT}, 0.0], [0.0, 0.0], [0.0, 0.0]]]}}',
            "diagonals": f'{{"diagonals": [[{HUGE_INT}, 0.0]]}}',
        }[name]
    )
    argv = {
        "kraus": ["check", str(path)],
        "rho": ["apply", "--channel", str(ch_path), "--state", str(path)],
        "diagonals": ["build", "--params", str(path)],
    }[name]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: ")
    assert "Traceback" not in err


# Well-formed, but nested beyond the JSON parser's recursion limit.
DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("command", ["check", "apply", "build", "dilate"])
def test_deeply_nested_documents_are_parse_errors(tmp_path, channel_file, command, capsys):
    ch_path, _ = channel_file
    path = tmp_path / "deep.json"
    path.write_text(DEEP)
    argv = {
        "check": ["check", str(path)],
        "apply": ["apply", "--channel", str(ch_path), "--state", str(path)],
        "build": ["build", "--params", str(path)],
        "dilate": ["dilate", str(path)],
    }[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: $: document is nested too deeply\n"


# Finite, but the squares of its entries overflow a double.
BIG_MATRIX = "[[[1e200,0],[0,0]],[[0,0],[1e200,0]]]"
BIG_ERROR = "expected [re, im] parts of magnitude at most 1e+150"


@pytest.mark.parametrize("command", ["check", "apply", "dilate", "apply-state"])
def test_overflowing_documents_are_parse_errors(tmp_path, command, capsys):
    big = tmp_path / "big.json"
    big.write_text('{"dim":2,"kraus":[' + BIG_MATRIX + "]}")
    big_state = tmp_path / "big_state.json"
    big_state.write_text('{"dim":2,"rho":' + BIG_MATRIX + "}")
    ch = tmp_path / "channel.json"
    ch.write_text(dump_channel(sample_extremal(2, seed=7)[1]))
    state = tmp_path / "state.json"
    state.write_text(dump_state(random_density(2, 1)))
    argv, field = {
        "check": (["check", str(big)], "kraus[0][0][0]"),
        "apply": (["apply", "--channel", str(big), "--state", str(state)], "kraus[0][0][0]"),
        "dilate": (["dilate", str(big)], "kraus[0][0][0]"),
        "apply-state": (["apply", "--channel", str(ch), "--state", str(big_state)], "rho[0][0]"),
    }[command]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 2
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {field}: {BIG_ERROR}\n"


def test_tolerance_override_relaxes_the_check(tmp_path, monkeypatch, capsys):
    # Perturb one operator so completeness fails at 1e-9 but not at 1e-3.
    _, ch = sample_extremal(2, seed=19)
    ops = [c.copy() for c in ch.kraus]
    ops[0] = ops[0] + 1e-6
    path = tmp_path / "near.json"
    path.write_text(dump_channel(KrausChannel(tuple(ops))))

    monkeypatch.delenv("XCHAN_TOL", raising=False)
    assert main(["check", str(path)]) == 1
    capsys.readouterr()

    monkeypatch.setenv("XCHAN_TOL", "1e-3")
    assert main(["check", str(path)]) == 0
    assert "tol=0.001" in capsys.readouterr().out


def test_invalid_tolerance_override(channel_file, monkeypatch, capsys):
    path, _ = channel_file
    monkeypatch.setenv("XCHAN_TOL", "not-a-number")
    assert main(["check", str(path)]) == 2
    monkeypatch.setenv("XCHAN_TOL", "-1")
    assert main(["check", str(path)]) == 2


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "xchan", "sample", "--n", "2", "--seed", "0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    parse_channel(proc.stdout)

    usage = subprocess.run(
        [sys.executable, "-m", "xchan", "--nope"],
        capture_output=True,
        text=True,
    )
    assert usage.returncode == 2
    assert "usage" in usage.stderr.lower()


def _refuse(*args, **kwargs):
    raise AssertionError("a capped size reached the library")


@pytest.mark.parametrize(
    "argv,patched",
    [
        (["sample", "--n", str(MAX_SAMPLE_N + 1), "--seed", "0"], ("sample_extremal",)),
        (
            ["jacobian", "--n", str(MAX_JACOBIAN_N + 1), "--seed", "0"],
            ("sample_interior", "parameter_jacobian_rank"),
        ),
        (
            ["bloch", "--nu1", "0.8", "--nu2", "0.5", "--ellipsoid", "x.csv",
             "--count", str(MAX_BLOCH_COUNT + 1)],
            ("ellipsoid_samples", "channel_from_nu"),
        ),
        (["sample", "--n", "1000000000", "--seed", "0"], ("sample_extremal",)),
    ],
)
def test_sizes_above_the_cap_are_usage_errors(argv, patched, monkeypatch, capsys):
    for name in patched:
        monkeypatch.setattr(cli, name, _refuse)
    assert main(argv) == 2
    assert "must be at most" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,attr,cap",
    [
        (["sample", "--seed", "0", "--n"], "n", MAX_SAMPLE_N),
        (["jacobian", "--seed", "0", "--n"], "n", MAX_JACOBIAN_N),
        (["bloch", "--nu1", "0.5", "--nu2", "0.5", "--count"], "count", MAX_BLOCH_COUNT),
    ],
)
def test_sizes_at_the_cap_parse_and_show_in_help(argv, attr, cap, capsys):
    parser = cli._build_parser()
    assert getattr(parser.parse_args([*argv, str(cap)]), attr) == cap
    assert main([argv[0], "--help"]) == 0
    assert f"<= {cap}" in " ".join(capsys.readouterr().out.split())


def test_caps_have_the_documented_values():
    assert (MAX_SAMPLE_N, MAX_JACOBIAN_N, MAX_BLOCH_COUNT) == (64, 16, 10**6)
    assert MAX_DILATE_DIM == 1024


def _scaled_identity_file(tmp_path, k: int):
    """A 2-level channel of k operators I / sqrt(k): trace preserving, N*k = 2k."""
    path = tmp_path / f"identity{k}.json"
    path.write_text(dump_channel(KrausChannel(np.tile(ID2 / np.sqrt(k), (k, 1, 1)))))
    return path


def test_dilate_above_the_cap_is_a_usage_error(tmp_path, monkeypatch, capsys):
    path = _scaled_identity_file(tmp_path, MAX_DILATE_DIM // 2 + 1)
    monkeypatch.setattr(cli, "stinespring", _refuse)
    assert main(["dilate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "must be at most" in err
    assert str(MAX_DILATE_DIM) in err


class _Reached(Exception):
    pass


def _reached(*args, **kwargs):
    raise _Reached


def test_dilate_at_the_cap_reaches_the_library_and_shows_in_help(
    tmp_path, monkeypatch, capsys
):
    path = _scaled_identity_file(tmp_path, MAX_DILATE_DIM // 2)
    monkeypatch.setattr(cli, "stinespring", _reached)
    with pytest.raises(_Reached):
        main(["dilate", str(path)])
    assert main(["dilate", "--help"]) == 0
    assert f"<= {MAX_DILATE_DIM}" in " ".join(capsys.readouterr().out.split())


def test_verdicts_and_exit_codes_hold_across_blas_thread_counts(tmp_path, haar_unitary):
    """A rotated N=16 channel takes dense complex decompositions, whose bytes
    may differ between thread counts; the verdicts and exit codes may not."""
    _, ch = sample_extremal(16, 1)
    path = tmp_path / "rot16.json"
    path.write_text(dump_channel(KrausChannel(haar_unitary(16, 1) @ ch.stack @ haar_unitary(16, 2))))
    outcomes = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        for argv in (["check", str(path)], ["dilate", str(path), "--out", str(tmp_path / "d.json")]):
            proc = subprocess.run(
                [sys.executable, "-m", "xchan", *argv], env=env, capture_output=True, text=True
            )
            verdicts = [line for line in proc.stdout.splitlines() if line.startswith("verdict:")]
            outcomes.append((threads, argv[0], proc.returncode, verdicts))
    assert [o[1:] for o in outcomes[:2]] == [o[1:] for o in outcomes[2:]]
    assert [o[2:] for o in outcomes] == [(0, ["verdict: pass"])] * 4
