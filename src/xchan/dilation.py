"""Unitary system-environment realization of a channel.

A trace-preserving channel with operators {C_1 .. C_k} on an N-level system
embeds into a unitary u on the Nk-dimensional space system (x) environment:
with the environment started in the pure basis state |0>, the block of u
acting on sys (x) |0> is the isometry V = sum_i C_i (x) |i><0|, and

    B(rho) = Tr_env[u (rho (x) |0><0|) u^dag].

The remaining columns of u are free; they are filled with an orthonormal
basis of the complement of V's range from complete QR factors
(``linalg._completed_unitary``), so the same channel yields the same u, byte
for byte, at a given BLAS thread count.  Across thread counts the QR of a
dense complex V can differ in its last bits, and so can u and the residuals
measured from it; verdicts and exit codes hold.  When V has no imaginary
part the QR and the unitarity check run in real arithmetic; u is
complex128 either way.

``stinespring`` builds u finite and of the model's shape, so its model
skips ``DilationModel``'s finiteness scan and copy: u is frozen in place.
Its unitarity residual is still measured, and gated at ``TOL_UNITARY + r``
for the channel's completeness residual r: the Gram block of V's columns
in u is I + E, so a channel that passes ``TOL_TP`` gives a residual of
about r (``tolerances``' accept chain).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .channels import KrausChannel, require_trace_preserving
from .errors import ValidationError
from .linalg import (
    _completed_unitary,
    _frozen,
    _trusted,
    _unitarity_residual,
    as_complex,
    dagger,
)
from .states import DensityMatrix, _output_state
from .tolerances import TOL_UNITARY


@dataclass(frozen=True, eq=False)
class DilationModel:
    """Unitary u on sys (x) env with a pure initial environment state.

    ``unitarity_residual`` is the max-entry residual of u^dag u - I that
    construction measured against ``TOL_UNITARY``.
    """

    dim_sys: int
    dim_env: int
    u: np.ndarray
    env_state: int = 0
    unitarity_residual: float = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("dim_sys", "dim_env", "env_state"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.dim_sys < 1 or self.dim_env < 1:
            raise ValueError("dimensions must be positive")
        if not 0 <= self.env_state < self.dim_env:
            raise ValueError(
                f"env_state {self.env_state} out of range for dim {self.dim_env}"
            )
        u = as_complex(self.u)
        total = self.dim_sys * self.dim_env
        if u.shape != (total, total):
            raise ValueError(
                f"unitary must be {total}x{total} for dims "
                f"({self.dim_sys}, {self.dim_env}), got {u.shape}"
            )
        res = _unitarity_residual(u)
        _require_unitary(res, TOL_UNITARY)
        object.__setattr__(self, "u", _frozen(u.copy()))
        object.__setattr__(self, "unitarity_residual", res)


def stinespring(ch: KrausChannel) -> DilationModel:
    """Dilate a trace-preserving channel to a unitary model.

    The environment dimension equals the operator count k.  Column c*k of u
    (the image of basis state |c> (x) |0>) is column c of the isometry
    V = sum_i C_i (x) |i>, written exactly.  The other N(k-1) columns span
    the orthogonal complement of V's range (``linalg._completed_unitary``).

    Raises
    ------
    NotTracePreservingError
        If the completeness sum deviates, since then V is not an isometry.
    ValidationError
        If u's unitarity residual exceeds ``TOL_UNITARY`` plus the
        channel's completeness residual.
    """
    require_trace_preserving(ch, "dilation requires a trace-preserving channel")
    n = ch.dim
    k = len(ch)
    # Row r*k + i, column c of V is C_i[r, c].
    u, res = _completed_unitary(ch.stack.transpose(1, 0, 2).reshape(n * k, n))
    # u is finite and of the model's shape by construction.  V^dag V = I + E
    # puts the completeness residual into u's, hence the derived gate.
    _require_unitary(res, TOL_UNITARY + ch._tp_residual)
    return _trusted(
        DilationModel, dim_sys=n, dim_env=k, u=_frozen(u), env_state=0,
        unitarity_residual=res,
    )


def _require_unitary(res: float, bound: float) -> None:
    """Refuse a unitarity residual above ``bound``."""
    if res > bound:
        raise ValidationError("u is not unitary", residual=res)


def evolve_via_dilation(model: DilationModel, rho: DensityMatrix) -> DensityMatrix:
    """Apply Tr_env[u (rho (x) |e><e|) u^dag] for the model's pure env state.

    With the environment in |e>, u (rho (x) |e><e|) u^dag equals
    V_e rho V_e^dag for the block V_e = u[:, e::k] of the columns that
    carry |e>, so only that block enters.  Tracing out the environment
    sums the k blocks B_i = V_e[i::k, :]: the result is sum_i B_i rho B_i^dag.

    The output's trace is checked at ``tolerances.output_trace_bound``;
    it is not decomposed.

    Raises
    ------
    ValueError
        If the state dimension does not match the model's system dimension.
    """
    if rho.dim != model.dim_sys:
        raise ValueError(
            f"state dim {rho.dim} does not match system dim {model.dim_sys}"
        )
    n, k = model.dim_sys, model.dim_env
    blocks = model.u[:, model.env_state :: k].reshape(n, k, n).transpose(1, 0, 2)
    out = (blocks @ rho.mat @ blocks.conj().transpose(0, 2, 1)).sum(axis=0)
    # Symmetrised, and ``apply``'s output is not: both are Hermitian up to
    # round-off, and each keeps the bits it has always had.
    out = 0.5 * (out + dagger(out))
    # sum_i B_i^dag B_i is a diagonal block of u^dag u, so the model's
    # unitarity residual plays the completeness residual's part.
    return _output_state(out, k, model.unitarity_residual)


def kraus_from_dilation(model: DilationModel) -> KrausChannel:
    """Read the Kraus operators back out of a dilation.

    C_i[r, c] = u[r*k + i, c*k + e] where k is the environment dimension and
    e the initial environment state; inverse of ``stinespring`` up to the
    free columns.
    """
    n, k, e = model.dim_sys, model.dim_env, model.env_state
    return KrausChannel(model.u.reshape(n, k, n, k)[:, :, :, e].transpose(1, 0, 2))
