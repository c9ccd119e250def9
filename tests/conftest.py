import numpy as np
import pytest

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
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q, r = np.linalg.qr(z)
        d = np.diag(r)
        return q * (d / np.abs(d))

    return draw


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in _criterion_lines:
            terminalreporter.write_line(line)
