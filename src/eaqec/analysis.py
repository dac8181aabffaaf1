"""Erasure correctability of qubit subsets via error-correction conditions.

This module alone decides whether an erased set B is correctable and how
degenerately, by one route for every b.  For erasures every product
E_i^dag E_j over the Pauli basis on B is, up to phase, one of the 4^b
Paulis E_F on B, so B is correctable exactly when each E_F is detected:
||P E_F P - c_F P||_F <= residual_tol with c_F = Tr(varrho_B E_F),
varrho_B the B-marginal of the normalized codespace projector.  The norm
is measured in the code basis, where it collapses to the K x K moments
V^dag E_F V.  Everything about one erased set is read off a single
partial trace T_ij = A_i^dag A_j of the codewords cut across B
(codes.cut_trace, whose K^2 4^b entries are size-checked first): the
moments and their residual, varrho_B = (sum_i T_ii)^T / K with its
spectrum and rank C, and each codeword's kept-side rank from the
eigenvalues of T_ii, every rank by the one rule qla.numerical_rank.
Correctable sets classify three ways from the marginal: pure (maximally
mixed), impure nondegenerate (full rank, not maximally mixed), degenerate
(rank deficient).  The coefficient matrix lambda_ij = Tr(varrho_B E_i^dag
E_j) has the spectrum of varrho_B scaled by 2^b, each value repeated 2^b
times, so its rank is 2^b rank(varrho_B); kl_matrix builds the matrix and
its kernel only on request, after qla.check_dim passes its 16^b entries,
which refuses sets of more than 5 qubits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from . import qla
from .codes import (PauliOperator, QuantumCode, cut_trace, moment_residuals,
                    pauli_moments, pauli_tables, trace_moments)
from .config import RANK_TOL, RESIDUAL_TOL
from .errors import ConsistencyError, NotCorrectableError

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
    qla.check_dim(8 * 4 ** b)    # a PauliOperator takes about 113 bytes, 7-8 entries
    out = []
    for x_loc, z_loc in _basis_patterns(b):
        out.append(PauliOperator(n, _embed_bits(x_loc, b, n, subset),
                                 _embed_bits(z_loc, b, n, subset)))
    return out


@dataclass(frozen=True)
class KLReport:
    """Correctability verdict and spectral data for one erased set.

    matrix_rank is the rank of the 4^b x 4^b coefficient matrix, read off
    the marginal as 2^b rank(varrho_B).  matrix and kernel are filled only
    by kl_matrix; analyze_subset leaves both None.
    """

    split: qla.SubsystemSplit
    matrix: np.ndarray | None             # 4^b x 4^b coefficient matrix
    matrix_rank: int
    residual_max: float
    correctable: bool
    marginal_spectrum: np.ndarray         # eigenvalues of varrho_B, descending, >= 0
    marginal_rank: int
    kept_marginal_ranks: tuple[int, ...]  # per-codeword rank on the kept side
    kernel: np.ndarray | None             # coefficient rows spanning ker(matrix)
    trichotomy: str | None = None

    @property
    def matrix_dim(self) -> int:
        return self.split.dim_erased ** 2


def _analyze(code: QuantumCode, split: qla.SubsystemSplit,
             residual_tol: float, rank_tol: float) -> tuple[KLReport, np.ndarray]:
    """The report for one erased set and its B-marginal varrho_B, all read
    off the one partial trace T (codes.cut_trace)."""
    t = cut_trace(code, split.erased)
    k = code.k_dim
    residual_max = float(moment_residuals(trace_moments(t)).max())
    blocks = t[np.arange(k), :, np.arange(k), :]          # T_ii, shape (K, 2^b, 2^b)
    rho = blocks.sum(axis=0).T / k
    spectrum = np.maximum(qla.eig_hermitian(rho)[0], 0.0)
    marginal_rank = qla.numerical_rank(spectrum, rank_tol)
    kept_ranks = tuple(qla.numerical_rank(w, rank_tol) for w in np.linalg.eigvalsh(blocks))
    report = KLReport(
        split=split, matrix=None, matrix_rank=split.dim_erased * marginal_rank,
        residual_max=residual_max, correctable=bool(residual_max <= residual_tol),
        marginal_spectrum=spectrum, marginal_rank=marginal_rank,
        kept_marginal_ranks=kept_ranks, kernel=None)
    if report.correctable:
        report = replace(report, trichotomy=classify(report))
    return report, rho


def erasure_residual(code: QuantumCode, subset) -> float:
    """Largest detection residual over the 4^b Paulis on the subset, each
    with c_F = tr(V^dag E_F V) / K.  The K^2 4^b moments are size-checked
    before they are built (codes.cut_trace).
    """
    return float(moment_residuals(pauli_moments(code, subset)).max())


def require_correctable(code: QuantumCode, subset,
                        residual_tol: float = RESIDUAL_TOL) -> None:
    """Raise NotCorrectableError when some Pauli on the subset goes undetected.

    Computes only the residual (no marginal, matrix or eigensolve).
    """
    subset = tuple(subset)
    residual = erasure_residual(code, subset)
    if residual > residual_tol:
        raise NotCorrectableError(
            "subset {" + ",".join(map(str, subset)) + "} fails the correctability "
            f"condition (residual {residual:.3e})")


def kl_matrix(code: QuantumCode, subset,
              residual_tol: float = RESIDUAL_TOL,
              rank_tol: float = RANK_TOL) -> KLReport:
    """analyze_subset's report with the coefficient matrix and its kernel.

    The matrix is assembled as a Gram matrix of vec(E_j varrho_B^{1/2}), so
    it is Hermitian PSD by construction with unit diagonal; its 16^b
    entries are size-checked before anything is built, which refuses sets
    of more than 5 qubits (16^5 = MAX_DIM).  Its identity row lambda_{0F}
    = Tr(varrho_B E_F) holds the coefficients c_F of the erasure residual.
    The matrix spectrum is the marginal spectrum scaled by 2^b, each value
    repeated 2^b times, so its own rank must equal matrix_rank = 2^b
    rank(varrho_B); a disagreement raises ConsistencyError.
    """
    subset = tuple(subset)
    split = qla.SubsystemSplit(n=code.n, erased=subset)
    b = split.b
    qla.check_dim(16 ** b)

    report, rho = _analyze(code, split, residual_tol, rank_tol)
    sqrt_rho = qla.sqrtm_psd(rho)
    # row F = x + 2^b z is vec(X^x Z^z sqrt_rho), row g of which is
    # sign[z, g ^ x] * sqrt_rho[g ^ x]
    xor, sign = pauli_tables(b)
    g = (sign[:, xor][..., None] * sqrt_rho[xor]).reshape(4 ** b, -1)
    lam = g.conj() @ g.T
    lam = (lam + lam.conj().T) / 2

    eigs, vecs = qla.eig_hermitian(lam)
    matrix_rank = qla.numerical_rank(np.maximum(eigs, 0.0), rank_tol)
    if matrix_rank != report.matrix_rank:
        raise ConsistencyError(
            f"rank mismatch: coefficient rank {matrix_rank} vs 2^b times marginal "
            f"rank {report.matrix_rank}")
    return replace(report, matrix=lam, kernel=vecs[:, matrix_rank:].T.copy())


def classify(report: KLReport, atol: float = 1e-10) -> str:
    """Place a correctable subset in the pure/impure/degenerate trichotomy."""
    if not report.correctable:
        raise NotCorrectableError(
            f"subset {report.split.erased} is not correctable; no classification")
    dim = report.split.dim_erased
    if report.marginal_rank != dim:
        return DEGENERATE
    if np.max(np.abs(report.marginal_spectrum - 1.0 / dim)) <= atol:
        return PURE
    return IMPURE_NONDEGENERATE


def analyze_subset(code: QuantumCode, subset,
                   residual_tol: float = RESIDUAL_TOL,
                   rank_tol: float = RANK_TOL) -> KLReport:
    """Verdict plus classification when the subset turns out correctable.

    One route for every b: the verdict is the erasure residual with c_F =
    tr(V^dag E_F V) / K, and C, the spectrum and the kept ranks come from
    the same partial trace (codes.cut_trace), whose K^2 4^b size check is
    the only size limit; matrix_rank is 2^b rank(varrho_B) (see
    kl_matrix).  No coefficient matrix or eigensolve of one is formed, so
    matrix and kernel are None.
    """
    subset = tuple(subset)
    return _analyze(code, qla.SubsystemSplit(n=code.n, erased=subset),
                    residual_tol, rank_tol)[0]


def scan_subsets(code: QuantumCode, size: int,
                 residual_tol: float = RESIDUAL_TOL,
                 rank_tol: float = RANK_TOL):
    """analyze_subset for every subset of the given size, lexicographically.

    The K^2 4^size moment check runs at the call, before any work; reports
    are then produced one at a time, so a scan holds one subset's moments
    and marginal at a time.
    """
    qla.check_dim(code.k_dim ** 2 * 4 ** size)
    return (analyze_subset(code, subset, residual_tol=residual_tol, rank_tol=rank_tol)
            for subset in itertools.combinations(range(1, code.n + 1), size))
