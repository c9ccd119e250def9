import numpy as np
import pytest
from helpers import haar

from xchan.tolerances import TOL_RANK

_criterion_lines: list[str] = []


@pytest.fixture
def criterion():
    """Record one acceptance-criterion verdict and assert it.

    The collected lines are replayed in the terminal summary so the full
    pass/fail list survives output capture.
    """

    def record(num: int, ok: bool, detail: str) -> None:
        line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
        _criterion_lines.append(line)
        print(line)
        assert ok, line

    return record


@pytest.fixture(scope="session")
def haar_unitary():
    """``draw(n, seed)``: a Haar-random n x n unitary, the same for the same seed.

    Rotating a channel's Kraus set to ``U C_i V`` with two such unitaries
    keeps it CPTP and extremal but gives every matrix built from it a
    nonzero imaginary part.
    """

    def draw(n: int, seed: int) -> np.ndarray:
        return haar(n, np.random.default_rng(seed))

    return draw


@pytest.fixture(scope="session")
def svd_rank():
    """``rank(mats)``: the rank of m matrices (an (m, r, c) stack, or their
    (m, r * c) rows) under vectorization by one dense SVD, an oracle
    independent of ``linalg``'s rank kernel: the singular values above
    ``TOL_RANK`` times the largest."""

    def rank(mats: np.ndarray) -> int:
        s = np.linalg.svd(np.reshape(mats, (len(mats), -1)), compute_uv=False)
        return int(np.count_nonzero(s > TOL_RANK * s[0])) if s[0] > 0 else 0

    return rank


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in _criterion_lines:
            terminalreporter.write_line(line)
