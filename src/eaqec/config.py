"""Numerical tolerances and size caps, overridable per call and from the CLI."""

# relative thresholds unless noted
HERMITICITY_TOL = 1e-10
UNITARITY_TOL = 1e-10
RANK_TOL = 1e-9          # numerical-rank cutoff, relative to largest singular value
RESIDUAL_TOL = 1e-8      # Frobenius, for correctability residuals and certification
FIDELITY_SLACK = 1e-9    # recovery passes when fidelity >= 1 - FIDELITY_SLACK

MAX_DIM = 2 ** 20        # dense vectors/operators beyond this dimension are refused
MAX_SUBSET = 5           # largest erased set for dense Pauli bases and the 16^b coefficient matrix
MAX_SCAN_QUBITS = 12     # subset scans and logical enumeration cap

