"""Numerical tolerances and the one size cap.

Only RANK_TOL and RESIDUAL_TOL can be overridden, per call and from the
CLI (--tol-rank, --tol-residual); the others are fixed.
"""

# relative thresholds unless noted
HERMITICITY_TOL = 1e-10
UNITARITY_TOL = 1e-10
RANK_TOL = 1e-9          # rank cutoff on marginal eigenvalues, relative to the largest
RESIDUAL_TOL = 1e-8      # Frobenius, for correctability residuals and certification
FIDELITY_SLACK = 1e-9    # recovery passes when fidelity >= 1 - FIDELITY_SLACK
PURITY_TOL = 1e-10       # absolute; a full-rank marginal is pure within this of 1/2^b
TRACE_TOL = 1e-10        # absolute; decompose's ancilla state has unit trace within this

MAX_DIM = 2 ** 20        # entries; qla.check_dim refuses any dense object larger than this
