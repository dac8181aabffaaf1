"""Erasure correctability of qubit subsets via error-correction conditions.

This module reports whether an erased set B is correctable and how
degenerately, by one route for every b; the verdict itself is
codes.kl_check, the one Knill-Laflamme rule.  For erasures every product
E_i^dag E_j over the Pauli basis on B is, up to phase, one of the 4^b
Paulis E_F on B, so B is correctable exactly when each E_F is detected,
P E_F P = c_F P with c_F = Tr(varrho_B E_F), varrho_B the B-marginal of
the normalized codespace projector.  Everything about one erased set is
read off a single partial trace T_ij = A_i^dag A_j of the codewords cut
across B (codes.cut_trace, whose K^2 4^b entries are size-checked
first).  Every E_F is detected exactly when T = I_K (x) tau, and the
residual is sqrt(2^b) ||T - I_K (x) tau||_F, which by Parseval is the
root-sum-square of the 4^b per-Pauli residuals ||P E_F P - c_F P||_F
(kl_check).  The same T gives varrho_B = tau^T with its spectrum and
rank C, and each codeword's kept-side rank from the eigenvalues of
T_ii, every rank by the one rule qla.numerical_rank.
It runs on a stack of sets of one size: the cut loops over the sets,
one axis transpose each into one array, and the Gram product, kl_check
and the eigensolves each run once on the whole stack;
analyze_subset and kl_matrix are the stack of one, and only kl_matrix
fixes the gauge of varrho_B's eigenvectors, returning those past C with
varrho_B itself.
Correctable sets classify three ways from the marginal: pure (maximally
mixed), impure nondegenerate (full rank, not maximally mixed), degenerate
(rank deficient).  The coefficient matrix lambda_FG = Tr(varrho_B E_F^dag
E_G) holds nothing more than varrho_B: its spectrum is varrho_B's scaled
by 2^b, each value repeated 2^b times, so its rank is 2^b C, and its
kernel is spanned by the Pauli coefficients of |e><u_nu| for the null
vectors u_nu of varrho_B.  No report builds it.
A stabilizer group (stab.StabilizerGroup) takes the other route, the one
analyze_subset and scan_subsets choose for it: every field of its report
follows from GF(2) ranks of the group (_gf2_report), with no codewords and
no tolerance, and the report's method says which route it came from.
require_correctable reads the input's own verdict, for either kind.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from . import qla, stab
from .codes import QuantumCode, cut_trace, kl_check
from .config import PURITY_TOL, RANK_TOL, RESIDUAL_TOL
from .errors import NotCorrectableError

PURE = "pure"
IMPURE_NONDEGENERATE = "impure_nondegenerate"
DEGENERATE = "degenerate"

MOMENTS = "moments"     # the dense route: codes.kl_check on the partial trace of the cut
GF2 = "gf2"             # a stabilizer group's route: ranks over GF(2), no codewords

SCAN_CHUNK = 1 << 12    # entries of a scan chunk's cut, and of its partial traces


class KLReport(NamedTuple):
    """Correctability verdict and spectral data for one erased set.

    matrix_rank is the rank of the 4^b x 4^b coefficient matrix, read off
    the marginal as 2^b C.  marginal and null_vectors are filled only by
    kl_matrix; analyze_subset leaves both None.  method names the route
    the report was read from, MOMENTS or GF2.  residual_max is
    codes.kl_check's residual, the root-sum-square of the 4^b per-Pauli
    residuals, on either route.
    """

    split: qla.SubsystemSplit
    residual_max: float
    correctable: bool
    marginal_spectrum: np.ndarray         # eigenvalues of varrho_B, descending, >= 0
    marginal_rank: int
    kept_marginal_ranks: tuple[int, ...]  # per-codeword rank on the kept side
    trichotomy: str | None = None
    method: str = MOMENTS
    marginal: np.ndarray | None = None      # varrho_B, 2^b x 2^b
    null_vectors: np.ndarray | None = None  # columns: eigenvectors of varrho_B past C

    @property
    def matrix_dim(self) -> int:
        return self.split.dim_erased ** 2

    @property
    def matrix_rank(self) -> int:
        return self.split.dim_erased * self.marginal_rank


def _analyze(code: QuantumCode, subsets, residual_tol: float,
             rank_tol: float) -> tuple[list[KLReport], np.ndarray]:
    """The reports for a list of erased sets of one size, and the
    B-marginals (S, 2^b, 2^b) they were read from: one stacked partial
    trace (codes.cut_trace), kl_check on it, and eigensolve each of the
    marginals and of the kept blocks T_ii."""
    t = cut_trace(code, np.array(subsets, dtype=np.intp))
    k = code.k_dim
    residuals, verdicts = kl_check(t, residual_tol)
    diag = np.arange(k)
    blocks = t[:, diag, :, diag]                          # T_ii, shape (K, S, 2^b, 2^b)
    marginals = blocks.sum(axis=0).swapaxes(-2, -1) / k
    spectra = np.maximum(qla.eigh(marginals)[0], 0.0)
    marginal_ranks = qla.numerical_rank(spectra, rank_tol)
    kept_ranks = qla.numerical_rank(np.linalg.eigvalsh(blocks), rank_tol).T
    reports = []
    for subset, residual, correctable, spectrum, rank, kept in zip(
            subsets, residuals.tolist(), verdicts.tolist(), spectra,
            marginal_ranks.tolist(), kept_ranks.tolist()):
        report = KLReport(
            split=qla.SubsystemSplit(n=code.n, erased=subset),
            residual_max=residual, correctable=correctable,
            marginal_spectrum=spectrum, marginal_rank=rank,
            kept_marginal_ranks=tuple(kept))
        if correctable:
            report = report._replace(trichotomy=classify(report))
        reports.append(report)
    return reports, marginals


def _gf2_report(group: stab.StabilizerGroup, split: qla.SubsystemSplit) -> KLReport:
    """The report on one erased set of a stabilizer code, from three GF(2)
    eliminations and no codewords.

    verdict_and_s gives the verdict, s, the dimension of the subgroup S_B
    inside the set, and the residual the dense route would report.  The
    B-marginal is 2^-b times the sum of S_B's elements, 2^(s-b) times the
    projector onto their joint +1 space, so its spectrum is 1/C repeated
    C = 2^(b - s) times, then zeros, and the set is pure iff s = 0 and
    degenerate otherwise (classify).  On a
    correctable set every codeword has the B-marginal varrho_B, so each
    kept rank is C; on a failing one every codeword is a stabilizer state
    of one group (codeword_dim_on), so each kept rank is 2^(b - s').  The
    2^b spectrum entries and the K kept ranks are size-checked first.
    """
    k, b, de = group.k_dim, split.b, split.dim_erased
    qla.check_dim(de)
    qla.check_dim(k)
    correctable, s, residual = stab.verdict_and_s(group, split.erased)
    rank = 1 << (b - s)
    spectrum = np.zeros(de)
    spectrum[:rank] = 1.0 / rank
    kept = rank if correctable else 1 << (b - stab.codeword_dim_on(group, split.erased))
    report = KLReport(
        split=split, residual_max=residual,
        correctable=correctable, marginal_spectrum=spectrum, marginal_rank=rank,
        kept_marginal_ranks=(kept,) * k, method=GF2)
    return report._replace(trichotomy=classify(report)) if correctable else report


def require_correctable(source: QuantumCode | stab.StabilizerGroup, subset,
                        residual_tol: float = RESIDUAL_TOL) -> None:
    """Raise NotCorrectableError when some Pauli on the subset goes undetected.

    The source's own verdict decides: a group's over GF(2), with no codewords
    and no tolerance, a basis's by its kl_check residual alone.
    """
    subset = tuple(subset)
    residual, correctable = source.verdict(subset, residual_tol)
    if not correctable:
        raise NotCorrectableError(
            "subset {" + ",".join(map(str, subset)) + "} fails the correctability "
            f"condition (residual {residual:.3e})")


def kl_matrix(code: QuantumCode, subset,
              residual_tol: float = RESIDUAL_TOL,
              rank_tol: float = RANK_TOL) -> KLReport:
    """analyze_subset's report with varrho_B and its gauge-fixed null vectors.

    Both come from the analysis's own partial trace, so the size limit is
    analyze_subset's.  They determine the coefficient matrix and its
    kernel (see the module docstring), which are not built.
    """
    split = qla.SubsystemSplit(n=code.n, erased=tuple(subset))
    (report,), (marginal,) = _analyze(code, [split.erased], residual_tol, rank_tol)
    null = qla.eig_hermitian(marginal)[1][:, report.marginal_rank:]
    return report._replace(marginal=marginal, null_vectors=null)


def classify(report: KLReport) -> str:
    """Place a correctable subset in the pure/impure/degenerate trichotomy."""
    if not report.correctable:
        raise NotCorrectableError(
            f"subset {report.split.erased} is not correctable; no classification")
    dim = report.split.dim_erased
    if report.marginal_rank != dim:
        return DEGENERATE
    if np.max(np.abs(report.marginal_spectrum - 1.0 / dim)) <= PURITY_TOL:
        return PURE
    return IMPURE_NONDEGENERATE


def analyze_subset(source: QuantumCode | stab.StabilizerGroup, subset,
                   residual_tol: float = RESIDUAL_TOL,
                   rank_tol: float = RANK_TOL) -> KLReport:
    """Verdict plus classification when the subset turns out correctable.

    A stabilizer group is read over GF(2) (_gf2_report), with no codewords,
    and reads neither tolerance.  For an explicit basis there is one route
    for every b: the verdict is kl_check on the partial trace of the cut
    (codes.cut_trace), and C, the spectrum and the kept ranks come from
    the same partial trace, whose K^2 4^b size check is the only size
    limit; matrix_rank is 2^b rank(varrho_B).  marginal and
    null_vectors are None (see kl_matrix).
    """
    split = qla.SubsystemSplit(n=source.n, erased=tuple(subset))
    if isinstance(source, stab.StabilizerGroup):
        return _gf2_report(source, split)
    return _analyze(source, [split.erased], residual_tol, rank_tol)[0][0]


def scan_subsets(source: QuantumCode | stab.StabilizerGroup, size: int,
                 residual_tol: float = RESIDUAL_TOL,
                 rank_tol: float = RANK_TOL):
    """analyze_subset for every subset of the given size, lexicographically.

    A stabilizer group gives each subset's GF(2) report in turn.  For an
    explicit basis the K^2 4^size size check runs at the call, before any
    work.  The subsets are decided in chunks, each one stacked pass
    (_analyze), so a scan holds one chunk's cut, partial traces and
    marginals at a time; a chunk holds at most SCAN_CHUNK entries of its cut (K 2^n a
    subset) and of its partial traces (K^2 4^size a subset), or a single
    subset.
    """
    subsets = itertools.combinations(range(1, source.n + 1), size)
    if isinstance(source, stab.StabilizerGroup):
        return (_gf2_report(source, qla.SubsystemSplit(n=source.n, erased=subset))
                for subset in subsets)
    k = source.k_dim
    qla.check_dim(k ** 2 * 4 ** size)
    chunk = max(1, SCAN_CHUNK // max(k * source.dim, k ** 2 * 4 ** size))
    chunks = iter(lambda: list(itertools.islice(subsets, chunk)), [])
    return (report for batch in chunks
            for report in _analyze(source, batch, residual_tol, rank_tol)[0])
