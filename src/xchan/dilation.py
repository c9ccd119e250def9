"""Unitary system-environment realization of a channel.

A trace-preserving channel with operators {C_1 .. C_k} on an N-level system
embeds into a unitary u on the Nk-dimensional space system (x) environment:
with the environment started in the pure basis state |0>, the block of u
acting on sys (x) |0> is the isometry V = sum_i C_i (x) |i><0|, and

    B(rho) = Tr_env[u (rho (x) |0><0|) u^dag].

The remaining columns of u are free; they are filled with an orthonormal
basis of the complement of V's range, so the same channel always yields
the same u.  When V's exact zero pattern splits into blocks of rows and
columns (for ``C_i = U_i D_i`` with permutations ``U_i``, every column of V
is a block), the basis is completed block by block: each block's complete
QR factor gives the columns supported on its rows, and every row of V that
is zero gives a unit column.  A V whose pattern is one block, or with fewer
than ``linalg._BLOCK_MIN_UNITARY_DIM`` rows, takes one complete QR of the
whole of V.  ``DilationModel`` checks unitarity along u's pattern in the
same way.  When V has no imaginary part the QR and the unitarity check run
in real arithmetic; u is complex128 either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import KrausChannel, require_trace_preserving
from .errors import ValidationError
from .linalg import _complement_basis, _unitarity_residual, as_complex, dagger
from .states import DensityMatrix
from .tolerances import TOL_UNITARY


@dataclass(frozen=True, eq=False)
class DilationModel:
    """Unitary u on sys (x) env with a pure initial environment state.

    ``unitarity_residual`` is the max-entry residual of u^dag u - I that
    construction measured against ``TOL_UNITARY``.  From
    ``linalg._BLOCK_MIN_UNITARY_DIM`` rows up it is taken block by block
    when u's exact pattern splits: entries of u^dag u between two blocks
    are exact zeros, and an all-zero column gives 1.0, as in the dense
    product.
    """

    dim_sys: int
    dim_env: int
    u: np.ndarray
    env_state: int = 0
    unitarity_residual: float = field(init=False, repr=False)

    def __post_init__(self):
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
        if res > TOL_UNITARY:
            raise ValidationError("u is not unitary", residual=res)
        u = u.copy()
        u.setflags(write=False)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "unitarity_residual", res)


def stinespring(ch: KrausChannel) -> DilationModel:
    """Dilate a trace-preserving channel to a unitary model.

    The environment dimension equals the operator count k.  Column c*k of u
    (the image of basis state |c> (x) |0>) is column c of the isometry
    V = sum_i C_i (x) |i>, written exactly.  The other N(k-1) columns span
    the orthogonal complement of V's range: the last N(k-1) columns of the
    complete QR factor of V, or, when V splits into blocks, the free
    columns of each block's complete QR factor followed by a unit column
    for every zero row of V.

    Raises
    ------
    NotTracePreservingError
        If the completeness sum deviates, since then V is not an isometry.
    """
    require_trace_preserving(ch, "dilation requires a trace-preserving channel")
    n = ch.dim
    k = len(ch)
    total = n * k
    # Row r*k + i, column c of V is C_i[r, c].
    isometry = ch.stack.transpose(1, 0, 2).reshape(total, n)
    u = np.empty((total, total), dtype=complex)
    # Column c*k + e of u is slot [:, c, e] of this view.
    slots = u.reshape(total, n, k)
    slots[:, :, 0] = isometry
    slots[:, :, 1:] = _complement_basis(isometry).reshape(total, n, k - 1)
    return DilationModel(dim_sys=n, dim_env=k, u=u)


def evolve_via_dilation(model: DilationModel, rho: DensityMatrix) -> DensityMatrix:
    """Apply Tr_env[u (rho (x) |e><e|) u^dag] for the model's pure env state.

    With the environment in |e>, u (rho (x) |e><e|) u^dag equals
    V_e rho V_e^dag for the block V_e = u[:, e::k] of the columns that
    carry |e>, so only that block enters.  Tracing out the environment
    sums the k blocks B_i = V_e[i::k, :]: the result is sum_i B_i rho B_i^dag.

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
    out = 0.5 * (out + dagger(out))
    return DensityMatrix(out)


def kraus_from_dilation(model: DilationModel) -> KrausChannel:
    """Read the Kraus operators back out of a dilation.

    C_i[r, c] = u[r*k + i, c*k + e] where k is the environment dimension and
    e the initial environment state; inverse of ``stinespring`` up to the
    free columns.
    """
    n, k, e = model.dim_sys, model.dim_env, model.env_state
    return KrausChannel(model.u.reshape(n, k, n, k)[:, :, :, e].transpose(1, 0, 2))
