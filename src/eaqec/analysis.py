"""Erasure correctability of qubit subsets via error-correction conditions.

This module alone decides whether an erased set B is correctable and how
degenerately.  For erasures every product E_i^dag E_j over the Pauli basis
on B is, up to phase, one of the 4^b Paulis E_F on B, so B is correctable
exactly when each E_F is detected: ||P E_F P - c_F P||_F <= residual_tol
with c_F = Tr(varrho_B E_F), varrho_B the B-marginal of the normalized
codespace projector.  The norm is measured in the code basis, where it
collapses to the K x K moments V^dag E_F V, all 4^b of them from one
partial trace (codes.pauli_moments, codes.moment_residuals).  The
coefficient matrix lambda_ij = Tr(varrho_B E_i^dag E_j) carries the
spectral data.  Correctable sets classify three ways: pure (marginal
maximally mixed), impure nondegenerate (full rank, not maximally mixed),
degenerate (rank deficient, equivalently lambda rank below 4^b).  Sets
wider than MAX_SUBSET are decided by the structure certificate instead.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from . import qla
from .codes import (PauliOperator, QuantumCode, moment_residuals, pauli_moments,
                    pauli_tables)
from .config import MAX_SCAN_QUBITS, MAX_SUBSET, RANK_TOL, RESIDUAL_TOL
from .errors import (ConsistencyError, NotCorrectableError, SizeError,
                     StructureViolationError)

PURE = "pure"
IMPURE_NONDEGENERATE = "impure_nondegenerate"
DEGENERATE = "degenerate"


def _basis_patterns(b: int):
    """(x, z) bit patterns for the 4^b local Paulis, identity first, x fastest."""
    mask = (1 << b) - 1
    for m in range(1 << (2 * b)):
        yield m & mask, m >> b


def _embed_bits(local: int, b: int, n: int, subset) -> int:
    out = 0
    for j in range(1, b + 1):
        if local & (1 << (b - j)):
            out |= 1 << (n - subset[j - 1])
    return out


def pauli_basis_on(n: int, subset) -> list[PauliOperator]:
    """All 4^b phase-free Paulis supported on the subset, embedded in n qubits.

    Ordering is fixed: identity first, then by local (x, z) pattern with the
    x part cycling fastest, so b = 1 gives [I, X, Z, XZ].  Operators are
    unnormalized, hence pairwise trace-orthogonal with Tr(E^dag E) = 2^n.
    """
    subset = tuple(subset)
    b = len(subset)
    if b > MAX_SUBSET:
        raise SizeError(f"subset size {b} exceeds cap {MAX_SUBSET}")
    out = []
    for x_loc, z_loc in _basis_patterns(b):
        out.append(PauliOperator(n, _embed_bits(x_loc, b, n, subset),
                                 _embed_bits(z_loc, b, n, subset)))
    return out


@dataclass(frozen=True)
class KLReport:
    """Correctability verdict and spectral data for one erased set.

    Sets wider than MAX_SUBSET are certified structurally; their matrix,
    matrix_rank, residual_max and kernel are None.
    """

    split: qla.SubsystemSplit
    matrix: np.ndarray | None             # 4^b x 4^b coefficient matrix
    matrix_rank: int | None
    residual_max: float | None
    correctable: bool
    marginal_spectrum: np.ndarray         # eigenvalues of varrho_B, descending, >= 0
    marginal_rank: int
    kept_marginal_ranks: tuple[int, ...]  # per-codeword rank on the kept side
    kernel: np.ndarray | None             # coefficient rows spanning ker(matrix)
    trichotomy: str | None = None


def _marginal(code: QuantumCode, split: qla.SubsystemSplit, rank_tol: float):
    """B-marginal varrho_B, its spectrum (clamped at zero) and rank, and
    per-codeword kept ranks."""
    mats = [qla.bipartite_matrix(v, split) for v in code.basis]
    rho = sum(m.T @ m.conj() for m in mats) / code.k_dim
    spectrum = np.maximum(qla.eig_hermitian(rho)[0], 0.0)
    marginal_rank = qla.numerical_rank(spectrum, rank_tol)
    kept_ranks = tuple(qla.numerical_rank(np.linalg.svd(m, compute_uv=False), rank_tol)
                       for m in mats)
    return rho, spectrum, marginal_rank, kept_ranks


def erasure_residual(code: QuantumCode, subset, coefficients=None) -> float:
    """Largest detection residual over the 4^b Paulis on the subset.

    coefficients[j] is c_F for the j-th Pauli of pauli_basis_on; without
    them each Pauli uses tr(V^dag E_F V) / K.
    """
    subset = tuple(subset)
    if len(subset) > MAX_SUBSET:
        raise SizeError(f"subset size {len(subset)} exceeds cap {MAX_SUBSET}")
    return float(moment_residuals(pauli_moments(code, subset), coefficients).max())


def require_correctable(code: QuantumCode, subset,
                        residual_tol: float = RESIDUAL_TOL) -> None:
    """Raise NotCorrectableError when some Pauli on the subset goes undetected.

    Computes only the residual (no marginal, matrix or eigensolve).  Sets
    wider than MAX_SUBSET are not checked here; the structure certificate
    still decides them.
    """
    subset = tuple(subset)
    if len(subset) > MAX_SUBSET:
        return
    residual = erasure_residual(code, subset)
    if residual > residual_tol:
        raise NotCorrectableError(
            "subset {" + ",".join(map(str, subset)) + "} fails the correctability "
            f"condition (residual {residual:.3e})")


def kl_matrix(code: QuantumCode, subset,
              residual_tol: float = RESIDUAL_TOL,
              rank_tol: float = RANK_TOL) -> KLReport:
    """Coefficient matrix, residual, and marginal spectra for one subset.

    The matrix is assembled as a Gram matrix of vec(E_j varrho_B^{1/2}), so
    it is Hermitian PSD by construction with unit diagonal.  The residual
    runs over the 4^b Paulis E_F on the subset with c_F = lambda_{0F} =
    Tr(varrho_B E_F), the matrix's identity row, so it cross-checks the
    Gram route against the independent code-basis route.
    """
    subset = tuple(subset)
    split = qla.SubsystemSplit(n=code.n, erased=subset)
    b = split.b
    if b > MAX_SUBSET:
        raise SizeError(f"subset size {b} exceeds cap {MAX_SUBSET}")

    rho, spectrum, marginal_rank, kept_ranks = _marginal(code, split, rank_tol)
    sqrt_rho = qla.sqrtm_psd(rho)
    # row F = x + 2^b z is vec(X^x Z^z sqrt_rho), row g of which is
    # sign[z, g ^ x] * sqrt_rho[g ^ x]
    xor, sign = pauli_tables(b)
    g = (sign[:, xor][..., None] * sqrt_rho[xor]).reshape(4 ** b, -1)
    lam = g.conj() @ g.T
    lam = (lam + lam.conj().T) / 2

    eigs, vecs = qla.eig_hermitian(lam)
    matrix_rank = qla.numerical_rank(np.maximum(eigs, 0.0), rank_tol)
    kernel = vecs[:, matrix_rank:].T.copy()

    residual_max = erasure_residual(code, subset, lam[0])
    return KLReport(
        split=split, matrix=lam, matrix_rank=matrix_rank,
        residual_max=residual_max, correctable=bool(residual_max <= residual_tol),
        marginal_spectrum=spectrum, marginal_rank=marginal_rank,
        kept_marginal_ranks=kept_ranks, kernel=kernel)


def _structural_report(code: QuantumCode, subset,
                       residual_tol: float, rank_tol: float) -> KLReport:
    """Verdict from the structure certificate, for sets too wide for kl_matrix."""
    from . import structure  # structure imports this module

    split = qla.SubsystemSplit(n=code.n, erased=subset)
    _, spectrum, marginal_rank, kept_ranks = _marginal(code, split, rank_tol)
    try:
        structure.decompose(code, split.erased, rank_tol=rank_tol,
                            certify_tol=residual_tol)
        correctable = True
    except StructureViolationError:
        correctable = False
    return KLReport(
        split=split, matrix=None, matrix_rank=None, residual_max=None,
        correctable=correctable, marginal_spectrum=spectrum,
        marginal_rank=marginal_rank, kept_marginal_ranks=kept_ranks, kernel=None)


def classify(report: KLReport, atol: float = 1e-10) -> str:
    """Place a correctable subset in the pure/impure/degenerate trichotomy.

    Where the coefficient matrix exists this also cross-checks the rank
    equivalence: the matrix has full rank 4^b exactly when the marginal has
    full rank 2^b (their spectra are related by eigenvalue scaling and
    2^b-fold multiplicity).
    """
    if not report.correctable:
        raise NotCorrectableError(
            f"subset {report.split.erased} is not correctable; no classification")
    dim = report.split.dim_erased
    marg_full = report.marginal_rank == dim
    if report.matrix is not None and (report.matrix_rank == dim * dim) != marg_full:
        raise ConsistencyError(
            f"rank mismatch: coefficient rank {report.matrix_rank} vs marginal rank "
            f"{report.marginal_rank} disagree about fullness")
    if not marg_full:
        return DEGENERATE
    if np.max(np.abs(report.marginal_spectrum - 1.0 / dim)) <= atol:
        return PURE
    return IMPURE_NONDEGENERATE


def analyze_subset(code: QuantumCode, subset,
                   residual_tol: float = RESIDUAL_TOL,
                   rank_tol: float = RANK_TOL) -> KLReport:
    """Verdict plus classification when the subset turns out correctable.

    Up to MAX_SUBSET erased qubits this is kl_matrix; wider sets are
    decided by the structure certificate and carry no coefficient matrix.
    """
    subset = tuple(subset)
    if len(subset) > MAX_SUBSET:
        report = _structural_report(code, subset, residual_tol, rank_tol)
    else:
        report = kl_matrix(code, subset, residual_tol=residual_tol, rank_tol=rank_tol)
    if report.correctable:
        report = replace(report, trichotomy=classify(report))
    return report


def scan_subsets(code: QuantumCode, size: int,
                 residual_tol: float = RESIDUAL_TOL,
                 rank_tol: float = RANK_TOL):
    """analyze_subset for every subset of the given size, lexicographically.

    The size caps are checked at the call, before any work; reports are
    then produced one at a time, so a scan holds one coefficient matrix.
    """
    if code.n > MAX_SCAN_QUBITS:
        raise SizeError(f"scan capped at {MAX_SCAN_QUBITS} qubits, code has {code.n}")
    if size > MAX_SUBSET:
        raise SizeError(f"scan size {size} exceeds cap {MAX_SUBSET}")
    return (analyze_subset(code, subset, residual_tol=residual_tol, rank_tol=rank_tol)
            for subset in itertools.combinations(range(1, code.n + 1), size))


def find_correctable_sets(code: QuantumCode, size: int,
                          residual_tol: float = RESIDUAL_TOL,
                          rank_tol: float = RANK_TOL) -> list[KLReport]:
    """Classified reports for every correctable subset of the given size."""
    return [report for report in scan_subsets(code, size, residual_tol=residual_tol,
                                              rank_tol=rank_tol)
            if report.correctable]
