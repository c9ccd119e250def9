"""Constructions and comparisons that several test modules share.

Test modules import these by name (``from helpers import ...``): pytest puts
this directory on ``sys.path`` when it collects them.
"""

import numpy as np
import pytest

from xchan import linalg
from xchan.channels import KrausChannel


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


def dense_dilation(ch: KrausChannel) -> np.ndarray:
    """The dilation unitary from one complete QR of the whole of V, real
    when V is: V in u's columns c*k, the QR's free columns in the others."""
    n, k = ch.dim, len(ch)
    v = linalg.real_if_exact(isometry(ch))
    u = np.empty((n * k, n * k), dtype=complex)
    u.reshape(n * k, n, k)[:, :, 0] = v
    u.reshape(n * k, n, k)[:, :, 1:] = (
        np.linalg.qr(v, mode="complete")[0][:, n:].reshape(n * k, n, k - 1)
    )
    return u


def ref_apply(ch: KrausChannel, x) -> np.ndarray:
    """sum_i C_i x C_i^dag, operator by operator."""
    return sum(c @ x @ c.conj().T for c in ch.kraus)


def ref_choi(ch: KrausChannel) -> np.ndarray:
    """J = sum_kl E_kl (x) B(E_kl) over the matrix units E_kl, k major."""
    n = ch.dim
    return sum(np.kron(e, ref_apply(ch, e)) for e in np.eye(n * n).reshape(-1, n, n))
