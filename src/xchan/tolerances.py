"""Every numerical tolerance of the package, the Jacobian ones included.

All matrices here are small (N <= 16) and double precision, which leaves
several digits of headroom above these thresholds.  Each entry says whether
it is absolute or relative and whether it scales with N.  None of them
scales with N: at N <= 16 a sum of N^2 round-off terms stays near 1e-14,
far below every threshold here.  The gates on computed outputs are
derived from these, with their round-off allowance, at the end.
"""

# Hermiticity / unitarity residuals: absolute, max entry of M - M^dag and
# of u^dag u - I.  Fixed in N.
TOL_HERM = 1e-10
TOL_UNITARY = 1e-10

# Eigenvalues in [-TOL_PSD, 0] are treated as round-off and clamped to zero.
# Absolute on eigenvalues (states have trace 1, Choi matrices trace N).
# Fixed in N.  Also the overshoot allowed on a column's squared sum before
# ``complete_last_diagonal`` reports a column overflow.
TOL_PSD = 1e-10

# Numerical rank: relative singular-value cutoff (a value counts when it
# exceeds TOL_RANK times the largest one).  Fixed in N.
TOL_RANK = 1e-10

# Trace preservation / unitality residual: absolute, max entry of
# sum_i C_i^dag C_i - I (resp. C_i C_i^dag).  Fixed in N.
TOL_TP = 1e-9

# Pairwise trace-orthogonality overlap: absolute, max |Tr[C_i^dag C_j]|
# over i != j.  Fixed in N.
TOL_ORTH = 1e-9

# Unit trace of a state: absolute, |Tr rho - 1|.  Fixed in N.
TOL_TRACE = 1e-10

# Bloch vectors may exceed the unit ball by this much: absolute on the
# Euclidean norm, qubits only (N = 2).
TOL_BLOCH_NORM = 1e-10

# Convex weights must sum to 1 within this: absolute on the sum of the
# weights.  Independent of N and of the number of channels mixed.
TOL_WEIGHT_SUM = 1e-12

# Extremal diagonals: absolute, max over columns of |sum_i d_{i,m}^2 - 1|.
# Fixed in N.
TOL_COLUMN_SUM = 1e-10

# ``pair_reduction_step`` inverts I - A_drop only when its smallest
# eigenvalue exceeds this: an absolute floor on an eigenvalue in [0, 1],
# which bounds the norm of (I - A_drop)^(-1/2) by 1e4.  Fixed in N.
TOL_SINGULAR = 1e-8

# Jacobian entries must stay this far from {0, 1}: the chain factor 1/(2 d)
# grows near 0, and differences turn one-sided near either end.  Absolute.
INTERIOR_MARGIN = 1e-3

# Jacobian rank: relative singular-value cutoff.  The exact Jacobian is
# accurate to round-off; central differences at step 1e-5 leave noise
# around 1e-9 of scale.  Both sit far below this.  The exact Jacobian's
# singular values are all >= 1 (``parameter_jacobian_rank``), so the
# default reaches its SVD only if 1e-6 * ||Jac||_F >= 1; interior entries
# keep that product below 0.05 at N=16.
JACOBIAN_RANK_TOL = 1e-6

# The accept chain: what a validated state and a channel that passed the
# completeness gate give.  The gates on outputs are derived from it.
#
# A state rho passes ``DensityMatrix`` with |Tr rho - 1| <= TOL_TRACE and
# every eigenvalue >= -TOL_PSD.  A channel with operators C_1 .. C_k passes
# the completeness gate with r = max|E_ab| <= TOL_TP, E = sum_i C_i^dag C_i
# - I (``KrausChannel._tp_residual``); B(rho) = sum_i C_i rho C_i^dag.
#
# - ||rho||_1.  Trace one up to TOL_TRACE, and at most N - 1 eigenvalues
#   below zero, each by at most TOL_PSD: ||rho||_1 = Tr rho + 2 sum_j
#   max(0, -lambda_j) <= 1 + TOL_TRACE + 2 (N - 1) TOL_PSD (``_norm1``).
# - Trace.  Tr B(rho) = Tr rho + Tr(rho E), and |Tr(rho E)| <= ||E||
#   ||rho||_1 with ||E|| <= ||E||_F <= N r.  So |Tr B(rho) - 1| <=
#   TOL_TRACE + N r ||rho||_1 (``output_trace_bound``).  ``apply`` gates
#   its output's trace there, an O(N) check.
# - PSD.  Write rho = P - M with P, M >= 0 and Tr M = sum_j max(0,
#   -lambda_j(rho)).  B(P) >= 0 by the Kraus form, and ||B(M)|| <=
#   Tr B(M) = Tr M + Tr(M E) <= Tr M (1 + N r).  So lambda_min(B(rho)) >=
#   -Tr M (1 + N r) (``output_eigenvalue_floor``): nothing to check at run
#   time.  The floor can lie below -TOL_PSD, down to about -(N - 1) TOL_PSD,
#   when a channel gathers every negative part into one direction (the set
#   {|0><0|, |1><1|, |1><2|} on diag(1 + 2d, -d, -d) gives -2d), so
#   computed outputs do not pass ``DensityMatrix``'s gate again.
# - Dilation.  The columns of ``stinespring``'s u that hold V = sum_i C_i
#   (x) |i> have the Gram matrix V^dag V = I + E, and its other columns are
#   orthonormal and orthogonal to them up to round-off: u's unitarity
#   residual is r up to round-off, and ``stinespring`` gates it at
#   TOL_UNITARY + r.  A u given from outside is gated at TOL_UNITARY.
#   ``evolve_via_dilation`` runs the channel B_i = u[i::k, e::k], whose
#   completeness sum is a diagonal block of u^dag u: the same bounds hold
#   with the model's unitarity residual in place of r.
# - Round-off (``_roundoff``).  A computed output sums k products of three
#   N x N matrices and its trace N more terms, so by the standard
#   dot-product bounds (with 4 eps per term for complex arithmetic) it
#   misses the exact one by 4 eps (3N + k) sum_i |C_i| |rho| |C_i|^T
#   entrywise, whose trace and norm are at most 4 eps (3N + k) N (1 + r)
#   ||rho||_1 (Tr sum_i C_i^dag C_i <= N (1 + r)).  The computed r misses
#   the exact one by 4 eps k N (1 + r), times N in the trace bound.

_EPS = 2.0**-52


def _norm1(n: int) -> float:
    return 1.0 + TOL_TRACE + 2.0 * (n - 1) * TOL_PSD


def _roundoff(n: int, k: int, residual: float) -> float:
    return 4.0 * _EPS * n * (3 * n + k * (n + 1)) * (1.0 + residual) * _norm1(n)


def output_trace_bound(n: int, k: int, residual: float) -> float:
    """Largest |Tr B(rho) - 1| of a computed output, for a validated N-level
    state and a channel of k operators with completeness residual r."""
    return TOL_TRACE + n * residual * _norm1(n) + _roundoff(n, k, residual)


def output_eigenvalue_floor(n: int, k: int, residual: float, negative: float) -> float:
    """Lowest eigenvalue of a computed output, for a state whose negative
    eigenvalues sum to -``negative`` (same channel as
    ``output_trace_bound``)."""
    return -negative * (1.0 + n * residual) - _roundoff(n, k, residual)
