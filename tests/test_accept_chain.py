"""The accept chain from validated inputs to computed outputs.

A channel that passes the completeness gate and a state that passes
``validate_density`` must be accepted by every operation that computes from
them, and the outputs' trace defect and least eigenvalue must lie within
the bounds ``tolerances`` derives (``output_trace_bound``,
``output_eigenvalue_floor``); both round trips give the channel back, its
Choi matrix within acceptance criterion 8's tolerance and its dilation's
operators bit for bit.  Two inputs pin the chain breaks those bounds
mend: a channel whose completeness residual exceeds ``TOL_TRACE`` and
``TOL_UNITARY``, and a channel that gathers a state's negative eigenvalues
into one output direction.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from helpers import haar

from xchan import cli
from xchan.channels import (
    KrausChannel,
    apply,
    check_trace_preserving,
    choi,
    choi_min_eigenvalue,
    kraus_from_choi,
)
from xchan.dilation import DilationModel, evolve_via_dilation, kraus_from_dilation, stinespring
from xchan.errors import NotUnitTraceError, ValidationError
from xchan.extremal import sample_extremal
from xchan.serialize import dump_channel, dump_state
from xchan.states import validate_density
from xchan.tolerances import (
    TOL_PSD,
    TOL_TP,
    TOL_TRACE,
    TOL_UNITARY,
    output_eigenvalue_floor,
    output_trace_bound,
)

CHAIN = settings(max_examples=30, deadline=None, derandomize=True, database=None)

# Acceptance criterion 8: the Choi -> Kraus -> Choi distance.
ROUND_TRIP_TOL = 1e-9

# C = sqrt(1 + 5e-10) I_2: completeness residual 5e-10, within TOL_TP but
# above TOL_TRACE and TOL_UNITARY.
SCALED_IDENTITY = np.sqrt(1.0 + 5e-10) * np.eye(2)[None]
# {|0><0|, |1><1|, |1><2|}: exactly trace preserving, and it maps the
# negative part of diag(1 + 2d, -d, -d) onto |1>: output eigenvalue -2d.
GATHER = np.zeros((3, 3, 3))
GATHER[0, 0, 0] = GATHER[1, 1, 1] = GATHER[2, 1, 2] = 1.0
DELTA = 9e-11
EDGE_STATE = np.diag([1.0 + 2 * DELTA, -DELTA, -DELTA])


def base_stack(kind: str, n: int, seed: int) -> np.ndarray:
    """A trace-preserving Kraus stack of the given kind."""
    rng = np.random.default_rng(seed)
    if kind == "sampled":
        return sample_extremal(n, seed)[1].stack
    if kind == "rotated":
        return haar(n, rng) @ sample_extremal(n, seed)[1].stack @ haar(n, rng)
    if kind == "isometry":
        k = int(rng.integers(1, n + 2))
        z = rng.standard_normal((n * k, n)) + 1j * rng.standard_normal((n * k, n))
        return np.linalg.qr(z)[0].reshape(k, n, n)
    # |0><0| and |1><j| for j >= 1: every negative part of a diagonal
    # state lands on |1>.
    stack = np.zeros((n, n, n))
    stack[0, 0, 0] = 1.0
    stack[np.arange(1, n), 1, np.arange(1, n)] = 1.0
    return stack


@st.composite
def channels(draw):
    """A channel whose completeness residual lies anywhere in [0, TOL_TP]:
    C_i diag(sqrt(1 + t)) has completeness sum I + diag(t) + round-off."""
    n = draw(st.integers(min_value=2, max_value=8))
    kind = draw(st.sampled_from(["sampled", "rotated", "isometry", "gather"]))
    stack = base_stack(kind, n, draw(st.integers(0, 2**32 - 1)))
    t = draw(st.lists(st.floats(-TOL_TP, TOL_TP), min_size=n, max_size=n))
    return KrausChannel(stack * np.sqrt(1.0 + np.array(t)))


@st.composite
def states(draw, n):
    """A matrix with eigenvalues down to -TOL_PSD and trace 1 up to
    TOL_TRACE, in the computational basis or a Haar-rotated one."""
    negatives = draw(st.integers(0, n - 1))
    low = draw(st.lists(st.floats(-TOL_PSD, 0.0), min_size=negatives, max_size=negatives))
    high = draw(st.lists(st.floats(0.0, 1.0), min_size=n - negatives, max_size=n - negatives))
    high = np.array(high) + 1e-3
    total = 1.0 + draw(st.floats(-TOL_TRACE, TOL_TRACE))
    lam = np.concatenate([high * (total - sum(low)) / high.sum(), low])
    if draw(st.booleans()):
        return np.diag(lam)
    w = haar(n, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    m = (w * lam) @ w.conj().T
    return 0.5 * (m + m.conj().T)


def negative_mass(mat) -> float:
    return float(-np.minimum(np.linalg.eigvalsh(mat), 0.0).sum())


def assert_within_bounds(out, rho, k: int, residual: float) -> None:
    n = rho.dim
    assert abs(np.trace(out.mat) - 1.0) <= output_trace_bound(n, k, residual)
    floor = output_eigenvalue_floor(n, k, residual, negative_mass(rho.mat))
    assert np.linalg.eigvalsh(out.mat).min() >= floor


def cli_exit(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def assert_chain_accepts(ch: KrausChannel, rho) -> None:
    """Every consumer accepts the pair, within the derived bounds."""
    k = len(ch)
    assert_within_bounds(apply(ch, rho), rho, k, ch._tp_residual)
    model = stinespring(ch)
    assert model.unitarity_residual <= TOL_UNITARY + ch._tp_residual
    assert_within_bounds(evolve_via_dilation(model, rho), rho, k, model.unitarity_residual)
    j = choi(ch)
    assert np.abs(choi(kraus_from_choi(j)) - j).max() <= ROUND_TRIP_TOL
    # V's columns are written into u exactly.
    assert kraus_from_dilation(model).stack.tobytes() == ch.stack.tobytes()
    with tempfile.TemporaryDirectory() as tmp:
        chp, stp = Path(tmp, "ch.json"), Path(tmp, "rho.json")
        chp.write_text(dump_channel(ch))
        stp.write_text(dump_state(rho))
        assert cli_exit(["apply", "--channel", str(chp), "--state", str(stp)]) == 0
        assert cli_exit(["dilate", str(chp)]) == 0


@CHAIN
@given(data=st.data())
def test_what_the_gates_accept_every_consumer_accepts(data):
    ch = data.draw(channels())
    assume(check_trace_preserving(ch).ok)
    assume(choi_min_eigenvalue(choi(ch)) >= -TOL_PSD)
    try:
        rho = validate_density(data.draw(states(ch.dim)))
    except ValidationError:
        assume(False)
    assert_chain_accepts(ch, rho)


def test_the_trace_chain_document_is_accepted_everywhere():
    """Residual 5e-10: ``check`` passed it, ``apply`` (trace 1e-10) and
    ``dilate`` (unitarity 1e-10) refused it."""
    ch = KrausChannel(SCALED_IDENTITY)
    assert abs(ch._tp_residual - 5e-10) < 1e-15
    rho = validate_density([[0.5, 0.25], [0.25, 0.5]])
    assert_chain_accepts(ch, rho)
    with tempfile.TemporaryDirectory() as tmp:
        chp = Path(tmp, "ch.json")
        chp.write_text(dump_channel(ch))
        assert cli_exit(["check", str(chp)]) == 0


def test_the_psd_edge_state_through_the_gathering_set_is_accepted():
    """The output eigenvalue -2 delta = -1.8e-10 lies below -TOL_PSD and
    above the derived floor; ``apply`` raised ``NotPSDError`` on it."""
    ch = KrausChannel(GATHER)
    rho = validate_density(EDGE_STATE)
    assert check_trace_preserving(ch).residual == 0.0
    out = apply(ch, rho)
    low = np.linalg.eigvalsh(out.mat).min()
    assert low < -TOL_PSD
    assert low >= output_eigenvalue_floor(3, 3, 0.0, 2 * DELTA)
    assert_chain_accepts(ch, rho)


def test_a_u_from_outside_keeps_the_unitarity_tolerance():
    """The derived gate is ``stinespring``'s; ``DilationModel(u)`` has no
    channel to derive from."""
    u = SCALED_IDENTITY[0]
    with pytest.raises(ValidationError, match="u is not unitary"):
        DilationModel(2, 1, u)
    assert stinespring(KrausChannel(SCALED_IDENTITY)).unitarity_residual > TOL_UNITARY


def test_the_output_trace_is_still_checked():
    """A channel whose stored residual understates its defect gives an
    output the trace gate refuses."""
    ch = KrausChannel((2.0 * np.eye(2),))
    ch.__dict__["_tp_residual"] = 0.0
    with pytest.raises(NotUnitTraceError, match="output trace is not 1") as err:
        apply(ch, validate_density(np.eye(2) / 2))
    assert err.value.residual == 3.0
