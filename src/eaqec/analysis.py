"""Erasure correctability of qubit subsets via error-correction conditions.

This module reports whether an erased set B is correctable and how
degenerately, by one route for every b; the verdict itself is
codes.kl_check, the one Knill-Laflamme rule.  For erasures every product
E_i^dag E_j over the Pauli basis on B is, up to phase, one of the 4^b
Paulis E_F on B, so B is correctable exactly when each E_F is detected:
||P E_F P - c_F P||_F <= residual_tol with c_F = Tr(varrho_B E_F),
varrho_B the B-marginal of the normalized codespace projector.  The norm
is measured in the code basis, where it collapses to the K x K moments
V^dag E_F V that kl_check reads.  Everything about one erased set is
read off a single partial trace T_ij = A_i^dag A_j of the codewords cut
across B (codes.cut_trace, whose K^2 4^b entries are size-checked
first): the moments and their residual, varrho_B = (sum_i T_ii)^T / K
with its spectrum and rank C, and each codeword's kept-side rank from
the eigenvalues of T_ii, every rank by the one rule qla.numerical_rank.
Correctable sets classify three ways from the marginal: pure (maximally
mixed), impure nondegenerate (full rank, not maximally mixed), degenerate
(rank deficient).  The coefficient matrix lambda_FG = Tr(varrho_B E_F^dag
E_G) has the spectrum of varrho_B scaled by 2^b, each value repeated 2^b
times, so its rank is 2^b C; kl_matrix builds the matrix from the moment
coefficients and its kernel from the eigenvectors of varrho_B past C, only
on request, after qla.check_dim passes its 16^b entries, which refuses
sets of more than 5 qubits.  E_F = X^x Z^z with F = x + 2^b z is the one
local Pauli order (codes.pauli_tables).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from . import qla
from .codes import QuantumCode, cut_trace, kl_check, pauli_tables, trace_moments
from .config import RANK_TOL, RESIDUAL_TOL
from .errors import NotCorrectableError

PURE = "pure"
IMPURE_NONDEGENERATE = "impure_nondegenerate"
DEGENERATE = "degenerate"


@dataclass(frozen=True)
class KLReport:
    """Correctability verdict and spectral data for one erased set.

    matrix_rank is the rank of the 4^b x 4^b coefficient matrix, read off
    the marginal as 2^b C.  matrix and kernel are filled only by
    kl_matrix, both from the moments and varrho_B; analyze_subset leaves
    both None.
    """

    split: qla.SubsystemSplit
    matrix: np.ndarray | None             # 4^b x 4^b coefficient matrix
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

    @property
    def matrix_rank(self) -> int:
        return self.split.dim_erased * self.marginal_rank


def _analyze(code: QuantumCode, split: qla.SubsystemSplit, residual_tol: float,
             rank_tol: float) -> tuple[KLReport, np.ndarray, np.ndarray]:
    """The report for one erased set, its Pauli moments and the gauge-fixed
    eigenvectors of varrho_B (columns, in the order of marginal_spectrum),
    all read off the one partial trace T (codes.cut_trace)."""
    t = cut_trace(code, split.erased)
    k = code.k_dim
    moments = trace_moments(t)
    residual_max, correctable = kl_check(moments, residual_tol)
    blocks = t[np.arange(k), :, np.arange(k), :]          # T_ii, shape (K, 2^b, 2^b)
    eigs, vecs = qla.eig_hermitian(blocks.sum(axis=0).T / k)
    spectrum = np.maximum(eigs, 0.0)
    marginal_rank = qla.numerical_rank(spectrum, rank_tol)
    kept_ranks = tuple(qla.numerical_rank(w, rank_tol) for w in np.linalg.eigvalsh(blocks))
    report = KLReport(
        split=split, matrix=None, residual_max=residual_max,
        correctable=correctable,
        marginal_spectrum=spectrum, marginal_rank=marginal_rank,
        kept_marginal_ranks=kept_ranks, kernel=None)
    if report.correctable:
        report = replace(report, trichotomy=classify(report))
    return report, moments, vecs


def require_correctable(code: QuantumCode, subset,
                        residual_tol: float = RESIDUAL_TOL) -> None:
    """Raise NotCorrectableError when some Pauli on the subset goes undetected.

    Computes only the residual (no marginal, matrix or eigensolve).
    """
    subset = tuple(subset)
    residual, correctable = kl_check(trace_moments(cut_trace(code, subset)), residual_tol)
    if not correctable:
        raise NotCorrectableError(
            "subset {" + ",".join(map(str, subset)) + "} fails the correctability "
            f"condition (residual {residual:.3e})")


def kl_matrix(code: QuantumCode, subset,
              residual_tol: float = RESIDUAL_TOL,
              rank_tol: float = RANK_TOL) -> KLReport:
    """analyze_subset's report with the coefficient matrix and its kernel.

    Both are read off what the analysis already holds; their 16^b entries
    are size-checked before anything is built, which refuses sets of more
    than 5 qubits (16^5 = MAX_DIM).  With F = x + 2^b z, E_F^dag E_G =
    (-1)^|z_F & (x_F ^ x_G)| E_{F ^ G}, so lambda_FG is that sign times c_{F ^
    G}, where c_H = tr(m_H) / K = Tr(varrho_B E_H) are the moment
    coefficients; the identity row lambda_{0F} is c_F itself.  lambda a = 0
    exactly when sum_G a_G E_G annihilates varrho_B, so the kernel rows are
    the Pauli coefficients of sqrt(2^b) |e><u_nu|, for every basis state e
    of B and every eigenvector u_nu of varrho_B past its rank C: row e (2^b
    - C) + nu, with a_G = conj(sign[z_G, e ^ x_G] u_nu[e ^ x_G]) / sqrt(2^b).
    The 2^b (2^b - C) rows are orthonormal by construction, and
    matrix_rank = 2^b C counts the rest.
    """
    subset = tuple(subset)
    split = qla.SubsystemSplit(n=code.n, erased=subset)
    b, de = split.b, split.dim_erased
    qla.check_dim(16 ** b)

    report, moments, vecs = _analyze(code, split, residual_tol, rank_tol)
    c = (np.trace(moments, axis1=1, axis2=2) / code.k_dim).reshape(de, de)  # [z, x]
    xor, sign = pauli_tables(b)
    signs = sign[:, xor]                                  # signs[z, f, g] = sign[z, f ^ g]
    # lam[zF, xF, zG, xG] = sign[zF, xF ^ xG] * c[zF ^ zG, xF ^ xG]
    lam = signs[:, :, None, :] * c[xor[:, None, :, None], xor[None, :, None, :]]
    lam = lam.reshape(de * de, de * de)
    lam = (lam + lam.conj().T) / 2

    # kernel[e, nu, z, x] = conj(sign[z, e ^ x] * u_nu[e ^ x]) / sqrt(2^b)
    null = vecs[:, report.marginal_rank:]
    kernel = (signs[..., None] * null[xor]).transpose(1, 3, 0, 2)
    kernel = kernel.conj().reshape(-1, de * de) / np.sqrt(de)
    return replace(report, matrix=lam, kernel=kernel)


def classify(report: KLReport) -> str:
    """Place a correctable subset in the pure/impure/degenerate trichotomy."""
    if not report.correctable:
        raise NotCorrectableError(
            f"subset {report.split.erased} is not correctable; no classification")
    dim = report.split.dim_erased
    if report.marginal_rank != dim:
        return DEGENERATE
    if np.max(np.abs(report.marginal_spectrum - 1.0 / dim)) <= 1e-10:
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
