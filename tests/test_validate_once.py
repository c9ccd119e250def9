"""Each channel measures its completeness residual once, on first use.

``KrausChannel`` keeps ``max|sum_i C_i^dag C_i - I|`` after its first
measurement, and every check and gate of trace preservation reads that one
value.  These tests pin the value (bit-equal to a fresh computation from
``ch.stack``, whichever entry point measures it first), the number of
measurements along the CLI commands and the benchmark's channel chain, and
the rank that ``check_extremal`` takes of its products without an input
gate.
"""

import contextlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import kinds
from helpers import products

from xchan import linalg
from xchan.channels import (
    KrausChannel,
    apply,
    check_extremal,
    check_trace_orthogonal,
    check_trace_preserving,
    check_unital,
    choi,
    choi_min_eigenvalue,
    kraus_from_choi,
)
from xchan.cli import main
from xchan.dilation import evolve_via_dilation, stinespring
from xchan.errors import NotTracePreservingError
from xchan.extremal import sample_extremal
from xchan.linalg import ID2, SX
from xchan.serialize import channel_from_doc, dump_channel, dump_state
from xchan.states import random_density

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

FIRST_USES = ("check_trace_preserving", "apply", "stinespring", "check_extremal",
              "channel_from_doc")


@contextlib.contextmanager
def measurements():
    """Record every channel whose completeness residual is measured."""
    prop = KrausChannel.__dict__["_tp_residual"]
    measure = prop.func
    seen = []

    def counting(ch):
        seen.append(ch)
        return measure(ch)

    prop.func = counting
    try:
        yield seen
    finally:
        prop.func = measure


def completeness_residual(stack: np.ndarray) -> float:
    n = stack.shape[1]
    a = stack.reshape(-1, n)
    return float(np.max(np.abs(a.conj().T @ a - np.eye(n))))


@st.composite
def stacks(draw):
    """A (k, N, N) stack, N <= 5 and k <= 4, real or complex, and how to
    change it: ``(stack, kind, value)`` with kind "tp" (keep it trace
    preserving), "scaled" (by ``value`` in [0.5, 2]), "padded" (with a zero
    operator) or "rotated" (to ``U C_i V``, Haar unitaries of seed ``value``)."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.standard_normal((k * n, n))
    if draw(st.booleans()):
        g = g + 1j * rng.standard_normal((k * n, n))
    # Rows i*N + r of the isometry are row r of C_i.
    stack = np.linalg.qr(g)[0].reshape(k, n, n)
    kind = draw(st.sampled_from(["tp", "scaled", "padded", "rotated"]))
    value = draw(st.floats(0.5, 2.0) if kind == "scaled" else st.integers(0, 2**16))
    return stack, kind, value


def changed(stack, kind, value) -> KrausChannel:
    if kind == "scaled":
        return KrausChannel(stack * value)
    if kind == "padded":
        return kinds.padded(KrausChannel(stack))
    if kind == "rotated":
        return kinds.rotated(KrausChannel(stack), value)
    return KrausChannel(stack)


def reported_residuals(name: str, ch: KrausChannel) -> list[float]:
    """Run ``name`` on a fresh channel and return every completeness
    residual it returns or raises."""
    try:
        if name == "check_trace_preserving":
            return [check_trace_preserving(ch).residual]
        if name == "apply":
            apply(ch, random_density(ch.dim, 0))
        elif name == "stinespring":
            stinespring(ch)
        elif name == "check_extremal":
            check_extremal(ch)
        else:
            channel_from_doc(json.loads(dump_channel(ch)))
    except NotTracePreservingError as err:
        return [err.residual]
    return []


@PROPERTY
@given(drawn=stacks(), name=st.sampled_from(FIRST_USES))
def test_every_reported_residual_is_the_one_measurement(drawn, name):
    ch = changed(*drawn)
    expected = completeness_residual(ch.stack)
    with measurements() as seen:
        residuals = reported_residuals(name, ch)
        residuals.append(check_trace_preserving(ch).residual)
        residuals.append(check_trace_preserving(ch, 0.0).residual)
    assert all(r == expected for r in residuals), (residuals, expected)
    # The document is parsed into a second channel, measured once itself.
    assert seen.count(ch) == 1
    assert len(seen) == (2 if name == "channel_from_doc" else 1)


def test_a_channel_that_is_never_gated_measures_nothing():
    with measurements() as seen:
        _, ch = sample_extremal(4, 1)
        back = kraus_from_choi(choi(ch))
        check_unital(back)
        check_trace_orthogonal(back)
    assert seen == []


def test_the_benchmark_channel_chain_measures_once():
    with measurements() as seen:
        _, ch = sample_extremal(4, 7)
        check_trace_preserving(ch)
        check_unital(ch)
        check_trace_orthogonal(ch)
        check_extremal(ch)
        j = choi(ch)
        choi_min_eigenvalue(j)
        choi(kraus_from_choi(j))
        rho = random_density(4, 7)
        apply(ch, rho)
        evolve_via_dilation(stinespring(ch), rho)
    assert seen == [ch]


@pytest.fixture
def files16(tmp_path):
    channel = tmp_path / "ch16.json"
    state = tmp_path / "rho16.json"
    assert main(["sample", "--n", "16", "--seed", "3", "--out", str(channel)]) == 0
    state.write_text(dump_state(random_density(16, 3)))
    return str(channel), str(state), str(tmp_path / "out.json")


@pytest.mark.parametrize("command", ["check", "apply", "dilate"])
def test_each_cli_command_measures_once(files16, command, capsys):
    channel, state, out = files16
    argv = {
        "check": ["check", channel],
        "apply": ["apply", "--channel", channel, "--state", state, "--out", out],
        "dilate": ["dilate", channel, "--out", out],
    }[command]
    with measurements() as seen:
        assert main(argv) == 0
    assert len(seen) == 1


@pytest.mark.parametrize("block_min", [linalg._BLOCK_MIN_DIM, 0])
@pytest.mark.parametrize("kind", ["sampled", "padded", "rotated"])
@pytest.mark.parametrize("n", range(2, 17))
def test_gram_rank_is_the_rank_of_the_product_stack(n, kind, block_min, monkeypatch, svd_rank):
    monkeypatch.setattr(linalg, "_BLOCK_MIN_DIM", block_min)
    _, ch = sample_extremal(n, 100 + n)
    if kind == "padded":
        ch = kinds.padded(ch)
    elif kind == "rotated":
        ch = kinds.rotated(ch, n)
    result = check_extremal(ch)
    assert result.gram_rank == svd_rank(products(ch))
    assert result.extremal == (kind != "padded")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_set_whose_products_would_overflow_is_refused_at_construction():
    # Parts of 1e200 would overflow the completeness sum and the products;
    # the Kraus-set gate refuses them before any check runs.
    with pytest.raises(ValueError, match="real or imaginary part beyond 1e"):
        KrausChannel([1e200 * ID2, 1e200 * SX])


def test_a_huge_tolerance_takes_finite_products_to_the_rank(svd_rank):
    ch = KrausChannel([0.7e150 * ID2, 0.7e150 * SX])
    residual = check_trace_preserving(ch).residual
    assert 1e299 < residual <= 1e300
    result = check_extremal(ch, tol_tp=1e300)
    assert result.gram_rank == svd_rank(products(ch)) == 2
