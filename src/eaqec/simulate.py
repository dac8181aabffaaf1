"""Channel simulation: canonical recovery maps and end-to-end EA checks.

Recovery follows the standard construction from the error correlation
matrix: diagonalize it, rotate the error set into orthogonal channels F_k,
and take Kraus operators P F_k^dag / sqrt(d_k).  Verification only asks how
much of each recovered state lands on a code state, so the recovery is kept
factored: the images E_a V (one codes.apply_paulis call on the codewords),
their Gram matrix G and the channel weights; no decoder array and no 2^n x
2^n operator is formed.  Verification drives encoded states through error
+ recovery and demands unit fidelity, on the register each EA strategy
transmits.  On the n code qubits every fidelity is read off columns of G,
so no error is applied twice; the compressed strategy's kept plus carrier
qubits take the errors and a receiver map, and the received states, kept x
erased, are decoded against the images cut once across the same erased
set.  The kept labels are derived once, from the decomposition's n and
erased labels.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import qla, structure
from .codes import QuantumCode, apply_paulis, kl_check, paulis_of_weight
from .config import FIDELITY_SLACK, RANK_TOL, RESIDUAL_TOL
from .errors import (ConsistencyError, ContractError, ModelMismatchError,
                     NotCorrectableError)

NOISELESS = "noiseless"
NOISY = "noisy"


# NamedTuples, not frozen dataclasses: those take about seven times longer to build at import
class Recovery(NamedTuple):
    images: np.ndarray     # (2^n, m K): column a K + i is E_a V e_i
    gram: np.ndarray       # (m K, m K): G = images^dag images
    weights: np.ndarray    # (m, r): column k is u_k / sqrt(d_k)
    residual: float        # Knill-Laflamme residual of the Gram blocks
    defect: float          # distance of the decoders' Gram matrix to the identity


def kl_recovery(code: QuantumCode, errors,
                residual_tol: float = RESIDUAL_TOL,
                rank_tol: float = RANK_TOL) -> Recovery:
    """Canonical recovery for a correctable error set, in factored form.

    errors: m PauliOperators; the set should contain the identity.  Returns
    the images E_a V, their Gram matrix G, the weights u_k / sqrt(d_k) of
    the r eigenpairs (d_k, u_k) of the error correlation matrix tr(V^dag
    E_a^dag E_b V) / K above the rank cutoff, and the margins of the two
    checks below.  Read out in the codeword basis V, Kraus operator k is
    D_k = (u_k (x) I_K)^dag images^dag / sqrt(d_k), so a state |s> is
    recovered into the code state V w with fidelity sum_k |w^dag D_k
    |s>|^2; for |s> = E_b V w each amplitude is w^dag (u_k (x) I_K)^dag
    G[:, b] w / sqrt(d_k).  The trace-preserving completion is left out:
    its range is orthogonal to span{F_k V}, which contains the code space
    when the identity is an error, so it adds nothing to such a fidelity.
    Raises SizeError before building anything when the m*K*2^n images or G
    exceed MAX_DIM, NotCorrectableError when codes.kl_check on the m^2 Gram
    blocks, one block per error pair, leaves one of them undetected (the
    residual is the largest block's), and ConsistencyError when the
    r*K decoder rows are not orthonormal.
    """
    errors = list(errors)
    if not errors:
        raise ContractError("empty error set")
    m, k = len(errors), code.k_dim
    qla.check_dim(m * k * code.dim)                # the images E_a V
    qla.check_dim((m * k) ** 2)                    # and their Gram matrix
    images = apply_paulis(errors, code.basis.T).reshape(code.dim, m * k)
    gram = images.conj().T @ images
    blocks = gram.reshape(m, k, m, k)              # V^dag E_a^dag E_b V
    residuals, detected = kl_check(blocks.transpose(0, 2, 1, 3).reshape(m, m, k, 1, k, 1),
                                   residual_tol)
    worst = float(residuals.max())
    if not detected.all():
        raise NotCorrectableError(
            f"error set violates the correctability condition (residual {worst:.2e})")

    vals, vecs = qla.eigh(np.einsum("aibi->ab", blocks) / k)   # descending: keep the first r
    r = qla.numerical_rank(vals, rank_tol)
    weights = vecs[:, :r] / np.sqrt(vals[:r])
    # the decoders' Gram matrix W^dag G W, W = weights (x) I_K, one side at a time
    left = (weights.conj().T @ gram.reshape(m, -1)).reshape(r, k, m, k).transpose(0, 1, 3, 2)
    decoder_gram = (left @ weights).transpose(0, 1, 3, 2).reshape(r * k, r * k)
    defect, bound = qla.orthonormal_defect(decoder_gram)
    if defect > bound:
        raise ConsistencyError(f"recovery decoders are not orthonormal "
                               f"(Gram defect {defect:.2e}, bound {bound:.2e})")
    return Recovery(images, gram, weights, worst, defect)


class VerificationReport(NamedTuple):
    strategy: str
    model: str
    error_weight: int
    cases_run: int
    min_fidelity: float
    failures: tuple[tuple[str, float], ...]
    recovery_residual: float        # the recovery's Knill-Laflamme residual
    recovery_gram_defect: float     # and its decoders' Gram defect
    exploratory: bool = False

    @property
    def passed(self) -> bool:
        return self.min_fidelity >= 1.0 - FIDELITY_SLACK


def verify_ea(ea: structure.EACode, dec: structure.StructureDecomposition,
              code: QuantumCode, model: str, weight: int,
              exploratory: bool = False,
              residual_tol: float = RESIDUAL_TOL,
              rank_tol: float = RANK_TOL) -> VerificationReport:
    """Drive encoded states through weight-w errors and canonical recovery.

    Every strategy runs on the register that is actually transmitted: the
    n code qubits for structure and presend; for compressed, the kept
    qubits followed by ebit_cost carrier qubits that hold the receiver's
    C-dimensional share, padded to 2^ebit_cost.  The test states are the
    codewords and their equal superposition.  On the code qubits the
    errors are the recovered list's weight-w tail, and each amplitude is
    read off the recovery's Gram matrix.  For compressed every error hits
    all the test states at once, in batches no larger than the images, and
    the receiver reads the first C carrier amplitudes and re-expands them
    through compress_isometry, kept x erased, to be decoded against the
    images cut once across the erased set (qla.bipartite_matrix);
    amplitude an error pushes outside them is lost.

    noiseless: errors act on the kept qubits only (the receiver's share is
    pristine).  noisy: errors act on every transmitted qubit.  A
    description valid for the noiseless model only (ea.model_validity,
    the compressed strategy) refuses the noisy one; pass
    exploratory=True to run it under noise anyway: errors then also hit
    the carrier qubits, and the results are reported without any guarantee
    (fidelities below one are expected; that is the cost the compression
    trades away).  A weight above the number of qubits the errors may act
    on (the kept ones when noiseless; when noisy, all n code qubits, or the
    kept plus carrier qubits for compressed) is a ContractError.  Failures
    are named by the error's letters on the transmitted register, split as
    kept|carrier for the compressed strategy.
    """
    if model not in (NOISELESS, NOISY):
        raise ContractError(f"unknown error model {model!r}")
    if weight < 0:
        raise ContractError("error weight must be nonnegative")
    noiseless_only = ea.model_validity == structure.NOISELESS_ONLY
    if noiseless_only and model == NOISY and not exploratory:
        raise ModelMismatchError(
            "the compressed strategy assumes noiseless erased qubits; "
            "rerun with --exploratory (exploratory=True) to probe it under noise anyway")

    n, dim_kept = dec.n, len(dec.isometry)
    kept = [q for q in range(1, n + 1) if q not in dec.subset]
    n_kept = len(kept)
    n_reg = n if ea.compress_isometry is None else n_kept + ea.ebit_cost   # qubits sent
    n_sites = n_kept if model == NOISELESS else n_reg
    if weight > n_sites:
        raise ContractError(f"error weight {weight} exceeds {n_sites}, the number of "
                            f"qubits that errors act on under the {model} model")
    allowed = kept if model == NOISELESS else range(1, n + 1)
    levels = [list(paulis_of_weight(n, allowed, w)) for w in range(weight + 1)]
    recovered = [p for level in levels for p in level]
    rec = kl_recovery(code, recovered, residual_tol=residual_tol, rank_tol=rank_tol)
    targets = np.eye(code.k_dim)    # rows w of the test states w @ code.basis: each codeword,
    if code.k_dim > 1:              # then their equal superposition
        targets = np.vstack([targets, np.full(code.k_dim, 1.0 / np.sqrt(code.k_dim))])
    m = len(recovered)

    if ea.compress_isometry is None:
        hit, sep = slice(m - len(levels[-1]), m), ""
        errors = recovered[hit]
        # <E_a V e_i| E_e V t_s>: columns e of the Gram matrix, times t_s
        overlaps = [rec.gram.reshape(-1, m, code.k_dim)[:, hit] @ targets.T]
    else:
        c, carrier_dim, sep = ea.receiver_dim, 1 << ea.ebit_cost, "|"
        sent = np.zeros((dim_kept, carrier_dim, len(targets)), dtype=complex)
        sent[:, :c] = np.einsum("si,kia,ac->kcs", targets,
                                dec.isometry.reshape(dim_kept, code.k_dim, -1),
                                ea.shared_state.reshape(ea.sender_dim, c))
        errors = list(paulis_of_weight(n_reg, range(1, n_sites + 1), weight))
        batch = max(1, rec.images.size // (code.dim * len(targets)))
        cut = qla.bipartite_matrix(rec.images.T, [dec.subset])[0]    # (kept, m K, erased)
        bras = cut.transpose(1, 0, 2).reshape(len(rec.gram), -1).conj()

        def received(batch_errors):            # kept x erased rows, (2^n, E*S)
            hits = apply_paulis(batch_errors, sent.reshape(-1, len(targets)))
            share = hits.reshape(dim_kept, carrier_dim, -1)
            return (ea.compress_isometry @ share[:, :c]).reshape(code.dim, -1)

        overlaps = (bras @ received(errors[start:start + batch])
                    for start in range(0, len(errors), batch))

    worst = []
    for block in overlaps:       # (m K, E S) -> <E_a V t_s|psi_es> -> t_s^dag D_k psi_es
        per_error = block.reshape(m, code.k_dim, -1, len(targets)) * targets.conj().T[:, None]
        amps = rec.weights.conj().T @ per_error.sum(axis=1).reshape(m, -1)
        worst.append(np.sum(np.abs(amps) ** 2, axis=0).reshape(-1, len(targets)).min(axis=1))
    worst = np.concatenate(worst)                    # per error
    failures = {}
    for e in np.flatnonzero(worst < 1.0 - FIDELITY_SLACK):
        letters = errors[e].to_string()[1] or "I"          # kept|carrier for compressed
        failures[letters[:n_kept] + sep + letters[n_kept:]] = float(worst[e])
    return VerificationReport(
        strategy=ea.strategy, model=model, error_weight=weight,
        cases_run=len(errors) * len(targets), min_fidelity=min(1.0, float(worst.min())),
        failures=tuple(sorted(failures.items())), recovery_residual=rec.residual,
        recovery_gram_defect=rec.defect, exploratory=exploratory and noiseless_only)
