"""Channel kinds that the tests and ``tools/bitdiff.py`` build, each built once.

Every builder uses only names in ``xchan.__all__``, so it runs against any
tree that exports them (``bitdiff.py --against REV`` imports this module
with an older tree's ``xchan``), and a benchmark may import it too.  The
same arguments give the same bits.

    haar(n, rng)              a Haar-random unitary
    rotated(ch, seed)         U C_i V: the dense complex kind
    mixture(ch, mover, w)     ch mixed with a copy moved by swap(n) or turn(n)
    padded(ch, p)             ch with p all-zero operators
    zero_diagonals(n, seed)   sampled diagonals with exact zeros
    gather(n)                 a set that gathers negative parts onto |1>
"""

import numpy as np

import xchan


def haar(n: int, rng) -> np.ndarray:
    """A Haar-random n x n unitary drawn from the generator ``rng``."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rotated(ch, seed: int):
    """``U C_i V`` with U and V Haar-random, drawn from the generators seeded
    ``seed`` and ``seed + 1``.  It keeps the channel CPTP and extremal but
    gives every matrix built from it a nonzero imaginary part."""
    u = haar(ch.dim, np.random.default_rng(seed))
    v = haar(ch.dim, np.random.default_rng(seed + 1))
    return xchan.KrausChannel(u @ ch.stack @ v)


def swap(n: int) -> np.ndarray:
    """The permutation matrix of the transposition (0 1)."""
    return np.eye(n)[[1, 0, *range(2, n)]]


def turn(n: int) -> np.ndarray:
    """The rotation by 0.3 in the (0, 1) plane: it gives rows with two
    nonzero entries."""
    c, s = np.cos(0.3), np.sin(0.3)
    m = np.eye(n)
    m[:2, :2] = [[c, -s], [s, c]]
    return m


def mixture(ch, mover: np.ndarray, weight: float, input_only: bool = False):
    """``ch`` with weight ``weight`` and its copy moved by the real orthogonal
    ``mover`` M with weight ``1 - weight``: the copy's operators are
    M C_i M^T, or C_i M^T with ``input_only``.

    Moving a sampled channel's operators makes the supports of the two
    halves overlap.  With ``turn(n)`` and ``input_only`` the isometry's
    columns 0 and 1 share rows and merge into one block while the other
    columns stay blocks of their own.  Turning the output as well mixes
    rows 0 and 1 of every operator, which joins all the columns at N = 3
    and from N = 5 on.
    """
    moved = ch.stack @ mover.T if input_only else mover @ ch.stack @ mover.T
    return xchan.convex_combine([ch, xchan.KrausChannel(moved)], [weight, 1 - weight])


def padded(ch, p: int = 1):
    """``ch`` with ``p`` all-zero operators appended: the same channel, with
    dependent products, so not extremal."""
    return xchan.KrausChannel(np.concatenate([ch.stack, np.zeros((p, ch.dim, ch.dim))]))


def zero_diagonals(n: int, seed: int, zero=None):
    """The diagonals of ``sample_extremal(n, seed)`` with entries zeroed at
    random, each column kept nonzero and renormalized.

    ``zero`` indexes entries that are zero as well: ``(0, 0)`` the corner,
    ``0`` the whole first diagonal, which ``build_extremal`` drops.  A column
    left without a nonzero entry gets a 1 in its first row, or in its last
    when ``zero`` is given.
    """
    params, _ = xchan.sample_extremal(n, seed)
    squares = params.diagonals**2 * (np.random.default_rng(seed).random((n, n)) < 0.5)
    if zero is not None:
        squares[zero] = 0.0
    squares[0 if zero is None else -1, ~squares.any(axis=0)] = 1.0
    return xchan.ExtremalParams(np.sqrt(squares / squares.sum(axis=0)))


def gather(n: int):
    """{|0><0|} and |1><j| for j >= 1: exactly trace preserving, and every
    negative part of a diagonal state lands on |1>."""
    stack = np.zeros((n, n, n))
    stack[0, 0, 0] = 1.0
    stack[np.arange(1, n), 1, np.arange(1, n)] = 1.0
    return xchan.KrausChannel(stack)
