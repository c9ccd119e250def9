"""Constructions and comparisons that several test modules share.

Test modules import these by name (``from helpers import ...``): pytest puts
this directory on ``sys.path`` when it collects them.
"""

import numpy as np
import pytest

from xchan import linalg
from xchan.channels import KrausChannel
from xchan.extremal import ExtremalParams, sample_extremal


def with_gates(fn, *args, block=None, scatter=None):
    """``fn(*args)`` with the block crossover (``linalg._BLOCK_MIN_DIM``) and
    the Choi scatter crossover (``linalg._SCATTER_MIN_DIM``) moved: ``block=0``
    splits every pattern that splits, ``block=np.inf`` none."""
    with pytest.MonkeyPatch.context() as mp:
        if scatter is not None:
            mp.setattr(linalg, "_SCATTER_MIN_DIM", scatter)
        if block is not None:
            mp.setattr(linalg, "_BLOCK_MIN_DIM", block)
        return fn(*args)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def haar(n: int, rng) -> np.ndarray:
    """A Haar-random n x n unitary drawn from the generator ``rng``."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def damping_channel(gamma: float) -> KrausChannel:
    c1 = np.diag([1.0, np.sqrt(1.0 - gamma)]).astype(complex)
    c2 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return KrausChannel((c1, c2))


def products(ch: KrausChannel) -> np.ndarray:
    """The (k^2, N, N) stack of C_i^dag C_j that check_extremal ranks."""
    s = ch.stack
    return (s.conj().transpose(0, 2, 1)[:, None] @ s[None]).reshape(-1, ch.dim, ch.dim)


def isometry(ch: KrausChannel) -> np.ndarray:
    """V with V[r*k + i, c] = C_i[r, c], the columns c*k of the dilation."""
    return ch.stack.transpose(1, 0, 2).reshape(ch.dim * len(ch), ch.dim)


def with_zero_diagonals(n: int, seed: int) -> ExtremalParams:
    """Sampled diagonals with entries zeroed at random, each column kept
    non-zero and renormalized."""
    d, _ = sample_extremal(n, seed)
    squares = d.diagonals**2 * (np.random.default_rng(seed).random((n, n)) < 0.5)
    squares[0, squares.sum(axis=0) == 0] = 1.0
    return ExtremalParams(np.sqrt(squares / squares.sum(axis=0)))
