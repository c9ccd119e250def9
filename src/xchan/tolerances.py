"""Default numerical tolerances used across the package.

All matrices here are small (N <= 16) and double precision, which leaves
several digits of headroom above these thresholds.  Entry tolerances are
absolute; rank tolerances are relative to the largest singular value.
"""

# Hermiticity / unitarity residuals, absolute on entries.
TOL_HERM = 1e-10
TOL_UNITARY = 1e-10

# Eigenvalues in [-TOL_PSD, 0] are treated as round-off and clamped to zero.
TOL_PSD = 1e-10

# Relative singular-value cutoff for numerical rank.
TOL_RANK = 1e-10

# Trace preservation / unitality residual, absolute on entries.
TOL_TP = 1e-9

# Pairwise trace-orthogonality overlap.
TOL_ORTH = 1e-9
