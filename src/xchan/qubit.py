"""The qubit (nu1, nu2) channel family and its Bloch-ball geometry.

A two-parameter family: axis multipliers 0 < nu1, nu2 <= 1 fix the third as
nu3 = nu1 * nu2, and the channel maps the Bloch ball onto an ellipsoid with
semi-axes (nu1, nu2, nu3) whose center is displaced along z by

    t3 = sqrt((1 - nu3)^2 - (nu1 - nu2)^2).

The two diagonal factors are D_1 = diag(a, b) and D_2 = sqrt(I - D_1^2)
with a = mu0 + mu3, b = mu0 - mu3 and

    mu0 = sqrt(1 + nu1 + nu2 + nu3) / 2,
    mu3 = sqrt(1 + nu3 - nu1 - nu2) / 2.

The 1/2 coefficients are forced by consistency: they give 2ab = nu1 + nu2
and a^2 + b^2 = 1 + nu3, which together produce the x-y multipliers and the
translation above.  (A coefficient 1/4 breaks both identities by a factor
of 4; see the tests.)  mu3 stays real on the whole domain because
1 + nu3 - nu1 - nu2 = (1 - nu1)(1 - nu2) >= 0, and a <= 1 follows from the
same factorization.

The raw pair {D_1, U D_2} produces multipliers (max(nu1, nu2), min(nu1,
nu2), nu3) when U = sigma_x.  To realize the requested order (nu1, nu2,
nu3) for every parameter pair, U switches to sigma_y when nu1 < nu2, which
swaps the roles of the x and y axes; it is the same channel up to the axis
relabeling the construction leaves free.  With a >= b the translation
points along +z.

Every pair in the domain gives a channel, but not always an extremal one.
The channel is extremal when both multipliers are below 1, or when both
equal 1 (the identity channel).  On the edges where exactly one equals 1
it is a mixture of the identity and one Pauli conjugation, only a limit
of extremal channels: (nu1, nu2) = (1, 0.5) gives
rho -> 3/4 rho + 1/4 sigma_x rho sigma_x, and ``check_extremal`` finds
Gram rank 2 of 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channels import KrausChannel, apply
from .errors import ValidationError
from .extremal import _assemble
from .linalg import ID2, PAULIS, SX, SY, _frozen
from .states import bloch_to_rho, rho_to_bloch

# (I, sigma_x, sigma_y, sigma_z): the inputs whose images give the affine map.
_BASIS = np.stack([ID2, *PAULIS])


@dataclass(frozen=True)
class NuParams:
    """Axis multipliers for the x and y Bloch axes, each in (0, 1]."""

    nu1: float
    nu2: float

    def __post_init__(self):
        for name in ("nu1", "nu2"):
            value = float(getattr(self, name))
            if not np.isfinite(value) or not 0.0 < value <= 1.0:
                raise ValidationError(f"{name} must lie in (0, 1], got {value}")
            object.__setattr__(self, name, value)

    @property
    def nu3(self) -> float:
        return self.nu1 * self.nu2


@dataclass(frozen=True, eq=False)
class BlochAffine:
    """Affine action w -> t_lin @ w + t_vec on Bloch vectors."""

    t_lin: np.ndarray
    t_vec: np.ndarray

    def __post_init__(self):
        lin = np.asarray(self.t_lin, dtype=float)
        vec = np.asarray(self.t_vec, dtype=float)
        if lin.shape != (3, 3):
            raise ValueError(f"linear part must be 3x3, got {lin.shape}")
        if vec.shape != (3,):
            raise ValueError(f"translation must be length 3, got {vec.shape}")
        object.__setattr__(self, "t_lin", _frozen(lin.copy()))
        object.__setattr__(self, "t_vec", _frozen(vec.copy()))

    def transform(self, w) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        if w.shape != (3,):
            raise ValueError(f"Bloch vector must be length 3, got {w.shape}")
        return self.t_lin @ w + self.t_vec


def nu_to_diagonals(p: NuParams) -> tuple[float, float]:
    """Entries (a, b) of the first diagonal factor for the (nu1, nu2) channel.

    Satisfies 2ab = nu1 + nu2 and a^2 + b^2 = 1 + nu1*nu2, with
    1 >= a >= b >= 0.
    """
    nu3 = p.nu3
    mu0 = 0.5 * np.sqrt(1.0 + p.nu1 + p.nu2 + nu3)
    # 1 + nu3 - nu1 - nu2 in factored form, which does not cancel.
    mu3 = 0.5 * np.sqrt((1.0 - p.nu1) * (1.0 - p.nu2))
    a = min(mu0 + mu3, 1.0)
    b = mu0 - mu3
    return float(a), float(b)


@lru_cache(maxsize=1)
def channel_from_nu(p: NuParams) -> KrausChannel:
    """Qubit channel with Bloch multipliers (nu1, nu2, nu1*nu2).

    It is extremal when nu1, nu2 < 1 or nu1 = nu2 = 1; with exactly one of
    them equal to 1 it is a mixture of two unitary channels (see the
    module docstring).  The last result is kept (``NuParams`` hashes by
    value, and the channel is immutable), so the same pair built twice in a
    row is built once.
    """
    a, b = nu_to_diagonals(p)
    # sqrt(1 - a^2) cancels catastrophically as a -> 1 (nu1 -> nu2).  With
    # root = sqrt((1 - nu1^2)(1 - nu2^2)) and s = (1 - nu3) + root, the
    # identities a^2 + b^2 = 1 + nu3 and 2ab = nu1 + nu2 give
    # 1 - b^2 = s / 2 and 1 - a^2 = (nu1 - nu2)^2 / (2 s), sums of
    # non-negative terms.  s is 0 only at nu1 = nu2 = 1, where both are 0.
    root = np.sqrt((1.0 - p.nu1**2) * (1.0 - p.nu2**2))
    last_b = np.sqrt(0.5 * ((1.0 - p.nu3) + root))
    last_a = abs(p.nu1 - p.nu2) / (2.0 * last_b) if last_b else 0.0
    d = np.array([[a, b], [last_a, last_b]])
    u2 = SX if p.nu1 >= p.nu2 else SY
    # build_extremal(ExtremalParams(d), [ID2, u2]) without either gate: the
    # identities 2ab = nu1 + nu2 and a^2 + b^2 = 1 + nu3 give each column's
    # squares the sum 1 up to round-off, and every entry is in [0, 1].
    return _assemble(np.stack([ID2, u2]), d)


@lru_cache(maxsize=1)
def bloch_affine(ch: KrausChannel) -> BlochAffine:
    """Affine Bloch-vector action of a qubit channel.

    t_lin[i, j] = Tr[sigma_i B(sigma_j)] / 2 and t_vec[i] =
    Tr[sigma_i B(I)] / 2, read off by applying the channel to the basis
    (I, sigma_x, sigma_y, sigma_z) in one batched product.  The last result
    is kept, keyed by the channel's identity (``KrausChannel`` equality is
    identity, and both are immutable).
    """
    if ch.dim != 2:
        raise ValidationError(
            f"Bloch geometry needs a qubit channel, got dim {ch.dim}"
        )
    stack = ch.stack
    # images[j] = B(basis[j]); stack axis 0, basis axis 1.
    images = (
        stack[:, None] @ _BASIS[None] @ stack.conj().transpose(0, 2, 1)[:, None]
    ).sum(axis=0)
    # table[i, j] = Tr[sigma_i B(basis[j])] / 2.
    table = 0.5 * np.einsum("iab,jba->ij", _BASIS[1:], images).real
    return BlochAffine(table[:, 1:], table[:, 0])


def predicted_translation(p: NuParams) -> float:
    """Center displacement t3 of the image ellipsoid along z.

    t3 = sqrt((1 - nu3)^2 - (nu1 - nu2)^2) with nu3 = nu1*nu2.  The radicand
    factors as (1 - nu1^2)(1 - nu2^2), which is non-negative on the domain
    and is evaluated in that form: the difference of squares cancels as
    either multiplier approaches 1.
    """
    return float(np.sqrt((1.0 - p.nu1**2) * (1.0 - p.nu2**2)))


def ellipsoid_samples(
    p: NuParams, count: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Push ``count`` Bloch-sphere points through the (nu1, nu2) channel.

    Inputs are uniform on the unit sphere (normalized Gaussians); outputs
    lie on the image ellipsoid.  Returns ``(w_in, w_out)`` as (count, 3)
    arrays, row i of one matching row i of the other.  A caller that has
    just built ``bloch_affine(channel_from_nu(p))`` for the same ``p``
    finds both in their caches.
    """
    if count < 1:
        raise ValueError(f"need count >= 1, got {count}")
    affine = bloch_affine(channel_from_nu(p))
    rng = np.random.default_rng(seed)
    w_in = rng.standard_normal((count, 3))
    norms = np.linalg.norm(w_in, axis=1, keepdims=True)
    # A zero draw is astronomically unlikely; resample rather than divide.
    while np.any(norms == 0.0):
        bad = norms[:, 0] == 0.0
        w_in[bad] = rng.standard_normal((int(bad.sum()), 3))
        norms = np.linalg.norm(w_in, axis=1, keepdims=True)
    w_in = w_in / norms
    w_out = w_in @ affine.t_lin.T + affine.t_vec[None, :]
    return w_in, w_out


def image_bloch(ch: KrausChannel, w) -> np.ndarray:
    """Bloch vector of the channel output on the state with Bloch vector w.

    The channel must pass ``apply``'s completeness gate, which bounds the
    output's trace and PSD defect (see ``tolerances``).
    """
    return rho_to_bloch(apply(ch, bloch_to_rho(w)))
