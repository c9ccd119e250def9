"""Every numerical tolerance of the package, the Jacobian ones included.

All matrices here are small (N <= 16) and double precision, which leaves
several digits of headroom above these thresholds.  Each entry says whether
it is absolute or relative and whether it scales with N.  None of them
scales with N: at N <= 16 a sum of N^2 round-off terms stays near 1e-14,
far below every threshold here.
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
