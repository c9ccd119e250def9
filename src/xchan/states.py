"""Validated density matrices and qubit Bloch-vector conversions.

The Bloch convention is ``rho = (I + w . sigma) / 2`` with the standard Pauli
matrices, so ``w_i = Tr[sigma_i rho]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotPSDError, NotUnitTraceError, ValidationError
from .linalg import (
    PAULIS, _check_entry_bound, _frozen, _trusted, dagger, herm_eigvals, real_if_exact,
)
from .tolerances import TOL_BLOCH_NORM, TOL_PSD, TOL_TRACE, output_trace_bound


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, PSD state.  ``DensityMatrix(m)`` checks the
    invariants, in that order, on ``mat``: a read-only complex128 copy of
    the input, made once.  Before them it refuses, with ``ValueError``, a
    NaN or Inf entry and any real or imaginary part beyond
    ``linalg.ENTRY_MAX`` (1e150), the Kraus sets' entry bound, so that no
    sum the checks take can overflow.  Its eigenvalues come from
    ``herm_eigvals``, the Hermitian gate that also decides complete
    positivity of a Choi matrix, so a state from 40 rows up whose exact
    pattern splits is decomposed block by block.  Equality is identity.

    States the package computes are not passed through this gate again.
    ``random_density`` is PSD with unit trace by construction.  The outputs
    of ``apply``, ``evolve_via_dilation`` and ``image_bloch`` are checked
    only for their trace, at ``tolerances.output_trace_bound``; their least
    eigenvalue obeys ``tolerances.output_eigenvalue_floor``.  Both bounds
    are looser than this gate's ``TOL_TRACE`` and ``-TOL_PSD``, so an
    accepted output need not pass it as an input: a channel with a
    completeness residual of 5e-10 gives an output with a trace defect of
    5e-10, and a channel that gathers the negative part of an input whose
    least eigenvalue is near -TOL_PSD gives one below it.
    """

    mat: np.ndarray

    def __post_init__(self):
        m = np.array(self.mat, dtype=complex)
        # Checked on a C-contiguous copy where m is not one: m keeps its
        # layout, and so the bits of everything computed from it.
        _check_entry_bound(np.ascontiguousarray(m))
        w = herm_eigvals(m)
        # Summed over the real view when m is exactly real: the complex sum
        # can round the residual differently.
        tr = abs(complex(np.trace(real_if_exact(m))) - 1.0)
        if tr > TOL_TRACE:
            raise NotUnitTraceError("state trace is not 1", residual=tr)
        low = float(w[-1])
        if low < -TOL_PSD:
            raise NotPSDError(
                "state has a negative eigenvalue", residual=low
            )
        object.__setattr__(self, "mat", _frozen(m))

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
    # g^dag g is PSD and Hermitian up to round-off; its trace is then 1.
    return _trusted(DensityMatrix, mat=_frozen(h / np.trace(h).real))


def _output_state(out: np.ndarray, k: int, residual: float) -> DensityMatrix:
    """The state that a channel of k operators with completeness residual
    ``residual`` computed from a validated state: ``out``, a fresh (N, N)
    complex128 array, frozen in place.

    Only its trace is checked, at ``output_trace_bound``: it is Hermitian up
    to round-off and its PSD defect is bounded by the Kraus form (see
    ``tolerances``), so decomposing it again would only refuse what every
    earlier gate accepted.
    """
    defect = abs(complex(np.trace(out)) - 1.0)
    if not defect <= output_trace_bound(len(out), k, residual):
        raise NotUnitTraceError("output trace is not 1", residual=defect)
    return _trusted(DensityMatrix, mat=_frozen(out))
