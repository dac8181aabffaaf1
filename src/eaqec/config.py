"""Numerical tolerances, overridable per call and from the CLI, and the one size cap."""

# relative thresholds unless noted
HERMITICITY_TOL = 1e-10
UNITARITY_TOL = 1e-10
RANK_TOL = 1e-9          # rank cutoff on marginal eigenvalues, relative to the largest
RESIDUAL_TOL = 1e-8      # Frobenius, for correctability residuals and certification
FIDELITY_SLACK = 1e-9    # recovery passes when fidelity >= 1 - FIDELITY_SLACK

MAX_DIM = 2 ** 20        # entries; qla.check_dim refuses any dense object larger than this

