"""Validated density matrices and qubit Bloch-vector conversions.

The Bloch convention is ``rho = (I + w . sigma) / 2`` with the standard Pauli
matrices, so ``w_i = Tr[sigma_i rho]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotPSDError, NotUnitTraceError, ValidationError
from .linalg import PAULIS, checked_hermitian, dagger
from .tolerances import TOL_BLOCH_NORM, TOL_PSD, TOL_TRACE


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, PSD, unit-trace state.  Invariants are checked on creation,
    in that order, on ``mat``: a read-only complex128 copy of the input,
    made once.  Equality is identity."""

    mat: np.ndarray

    def __post_init__(self):
        m = np.array(self.mat, dtype=complex)
        h = checked_hermitian(m)
        tr = abs(complex(np.trace(h)) - 1.0)
        if tr > TOL_TRACE:
            raise NotUnitTraceError("state trace is not 1", residual=tr)
        low = float(np.linalg.eigvalsh(h).min())
        if low < -TOL_PSD:
            raise NotPSDError(
                "state has a negative eigenvalue", residual=low
            )
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def validate_density(m) -> DensityMatrix:
    """Wrap a matrix as a DensityMatrix, checking all state invariants.

    Raises NotHermitianError, NotUnitTraceError, or NotPSDError naming the
    violated invariant together with the measured residual.
    """
    return DensityMatrix(m)


def bloch_to_rho(w) -> DensityMatrix:
    """Qubit state (I + w . sigma) / 2 for a Bloch vector with |w| <= 1."""
    w = np.asarray(w, dtype=float)
    if w.shape != (3,):
        raise ValueError(f"Bloch vector must have 3 components, got {w.shape}")
    norm = float(np.linalg.norm(w))
    if norm > 1.0 + TOL_BLOCH_NORM:
        raise ValidationError(
            "Bloch vector lies outside the unit ball", residual=norm - 1.0
        )
    rho = np.eye(2, dtype=complex)
    for wi, sigma in zip(w, PAULIS):
        rho = rho + wi * sigma
    return DensityMatrix(rho / 2.0)


def rho_to_bloch(rho: DensityMatrix) -> np.ndarray:
    """Bloch vector w_i = Tr[sigma_i rho] of a qubit state."""
    if rho.dim != 2:
        raise ValueError(f"Bloch vectors are defined for dim 2, got {rho.dim}")
    return np.array([np.trace(sigma @ rho.mat).real for sigma in PAULIS])


def random_density(dim: int, seed: int) -> DensityMatrix:
    """Seeded full-rank random state g'g / Tr[g'g], g complex Gaussian."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = dagger(g) @ g
    return DensityMatrix(h / np.trace(h).real)
