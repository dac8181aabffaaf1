"""Channel simulation: canonical recovery maps and end-to-end EA checks.

Recovery follows the standard construction from the error correlation
matrix: diagonalize it, rotate the error set into orthogonal channels F_k,
and take Kraus operators P F_k^dag / sqrt(d_k).  Verification only asks how
much of each recovered state lands on a code state, so the recovery is kept
in the code basis as the K x 2^n decoders V^dag F_k^dag / sqrt(d_k), built
from the images E_a V, which are one codes.apply_paulis call on the
codewords; no 2^n x 2^n operator is formed.  Verification then drives
encoded states through error + recovery and demands unit fidelity.  It
applies the errors in batches, each one apply_paulis gather no larger than
the decoders the recovery already holds, so one decode and one fidelity
reduction serve a whole batch and memory stays at the recovery's level.
Every EA strategy is verified on the register it actually transmits: the n
code qubits, or for the compressed strategy the kept qubits plus the
carrier qubits of the compressed share; errors act there, and one receiver
map brings the result back to the code qubits for decoding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qla, structure
from .codes import PauliOperator, QuantumCode, apply_paulis, kl_check, paulis_of_weight
from .config import FIDELITY_SLACK, RANK_TOL, RESIDUAL_TOL
from .errors import (ConsistencyError, ContractError, ModelMismatchError,
                     NotCorrectableError)

NOISELESS = "noiseless"
NOISY = "noisy"


def kl_recovery(code: QuantumCode, errors,
                residual_tol: float = RESIDUAL_TOL,
                rank_tol: float = RANK_TOL) -> np.ndarray:
    """Canonical recovery for a correctable error set, read out in the code basis.

    errors: PauliOperators; the set should contain the identity.  Returns
    D of shape (r, K, 2^n) with D_k = V^dag F_k^dag / sqrt(d_k): Kraus
    operator k of the recovery followed by readout in the codeword basis
    V, so a state |s> is recovered into the code state V w with fidelity
    sum_k |w^dag D_k |s>|^2.  r is the numerical rank of the error
    correlation matrix.  The trace-preserving completion is left out: its
    range is orthogonal to span{F_k V}, which contains the code space when
    the identity is an error, so it adds nothing to such a fidelity.
    Raises SizeError before building anything when the #errors*K*2^n
    images or their (#errors*K)^2 Gram matrix exceed MAX_DIM,
    NotCorrectableError when codes.kl_check on the Gram blocks shows the
    set is not correctable, and ConsistencyError when the r*K rows of D
    are not orthonormal.
    """
    errors = list(errors)
    if not errors:
        raise ContractError("empty error set")
    m, k = len(errors), code.k_dim
    qla.check_dim(m * k * code.dim)                # the images E_a V
    qla.check_dim((m * k) ** 2)                    # and their Gram matrix
    v = code.basis.T                               # 2^n x K
    flat = apply_paulis(errors, v).reshape(v.shape[0], m * k)    # column a*K + i: E_a V e_i
    gram = (flat.conj().T @ flat).reshape(m, k, m, k)            # blocks V^dag E_a^dag E_b V
    worst, correctable = kl_check(gram.transpose(0, 2, 1, 3).reshape(m * m, k, k), residual_tol)
    if not correctable:
        raise NotCorrectableError(
            f"error set violates the correctability condition (residual {worst:.2e})")

    lam = np.einsum("aibi->ab", gram) / k
    vals, vecs = qla.eig_hermitian(lam)          # descending: keep the first r
    r = qla.numerical_rank(vals, rank_tol)
    w = np.kron(vecs[:, :r] / np.sqrt(vals[:r]), np.eye(k))
    # the decoders' Gram matrix D D^dag = W^dag (flat^dag flat) W, read off gram
    if not qla.is_orthonormal(w.conj().T @ gram.reshape(m * k, m * k) @ w):
        raise ConsistencyError("recovery decoders are not orthonormal")
    # column k*K + i of flat W is F_k V e_i / sqrt(d_k); conjugated in place,
    # its transpose is the only decoder-sized array and reshapes as a view
    rows = (flat @ w).T
    np.conjugate(rows, out=rows)
    return rows.reshape(-1, k, v.shape[0])


@dataclass(frozen=True)
class VerificationReport:
    strategy: str
    model: str
    error_weight: int
    cases_run: int
    min_fidelity: float
    failures: tuple[tuple[str, float], ...]
    exploratory: bool = False

    @property
    def passed(self) -> bool:
        return self.min_fidelity >= 1.0 - FIDELITY_SLACK


def _test_states(k: int) -> np.ndarray:
    """Coefficient rows w of the test states w @ code.basis: each
    codeword, then their equal superposition."""
    states = np.eye(k)
    if k > 1:
        states = np.vstack([states, np.full(k, 1.0 / np.sqrt(k))])
    return states


def verify_ea(ea: structure.EACode, dec: structure.StructureDecomposition,
              code: QuantumCode, model: str, weight: int,
              exploratory: bool = False,
              residual_tol: float = RESIDUAL_TOL,
              rank_tol: float = RANK_TOL) -> VerificationReport:
    """Drive encoded states through weight-w errors and canonical recovery.

    Every strategy runs on the register that is actually transmitted: the
    n code qubits for structure and presend; for compressed, the kept
    qubits followed by ebit_cost carrier qubits that hold the receiver's
    C-dimensional share, padded to 2^ebit_cost.  The codewords and their
    equal superposition are prepared there together, each error hits all
    of them at once, and the receiver maps the result back to the code
    qubits before the canonical recovery decodes it.  For compressed that
    map reads the first C carrier amplitudes and re-expands them through
    compress_isometry; amplitude an error pushes outside them is lost.

    noiseless: errors act on the kept qubits only (the receiver's share is
    pristine).  noisy: errors act on every transmitted qubit.  A
    description valid for the noiseless model only (ea.model_validity,
    the compressed strategy) refuses the noisy one; pass
    exploratory=True to run it under noise anyway: errors then also hit
    the carrier qubits, and the results are reported without any guarantee
    (fidelities below one are expected; that is the cost the compression
    trades away).  Failures are named by the error's letters on the
    transmitted register, split as kept|carrier for the compressed strategy.
    The errors run in batches whose hit states hold no more entries than
    the r x K x 2^n decoders.
    """
    if model not in (NOISELESS, NOISY):
        raise ContractError(f"unknown error model {model!r}")
    if weight < 0:
        raise ContractError("error weight must be nonnegative")
    noiseless_only = ea.model_validity == structure.NOISELESS_ONLY
    if noiseless_only and model == NOISY and not exploratory:
        raise ModelMismatchError(
            "the compressed strategy assumes noiseless erased qubits; "
            "rerun with exploratory=True to probe it under noise anyway")

    split = dec.split
    allowed = split.kept if model == NOISELESS else tuple(range(1, split.n + 1))
    recovered = [p for w in range(weight + 1) for p in paulis_of_weight(split.n, allowed, w)]
    decoders = kl_recovery(code, recovered, residual_tol=residual_tol, rank_tol=rank_tol)
    targets = _test_states(code.k_dim)          # one test state w per row

    if ea.compress_isometry is not None:
        n_kept, c, carrier_dim = len(split.kept), ea.receiver_dim, 1 << ea.ebit_cost
        n_reg = n_kept + ea.ebit_cost
        sites = range(1, (n_kept if model == NOISELESS else n_reg) + 1)
        sent = np.zeros((split.dim_kept, carrier_dim, len(targets)), dtype=complex)
        sent[:, :c] = np.einsum("si,kia,ac->kcs", targets,
                                dec.isometry.reshape(split.dim_kept, code.k_dim, -1),
                                ea.shared_state.reshape(ea.sender_dim, c))
        sent = sent.reshape(-1, len(targets))

        def receive(hit):
            share = hit.reshape(split.dim_kept, carrier_dim, -1)[:, :c]
            back = np.einsum("kcs,ec->kes", share, ea.compress_isometry)
            return qla.unsplit(back.transpose(0, 2, 1), split).T

        def label(letters):
            return letters[:n_kept] + "|" + letters[n_kept:]
    else:
        n_reg, sites = split.n, allowed
        sent = (targets @ code.basis).T

        def receive(hit):
            return hit

        def label(letters):
            return letters

    errors = list(paulis_of_weight(n_reg, sites, weight)) or [PauliOperator(n_reg, 0, 0)]
    # batches of errors, each no larger than the decoders the recovery holds
    per_error = max(sent.shape[0], code.dim) * len(targets)
    batch = max(1, decoders.size // per_error)
    min_fid = 1.0
    failures: dict[str, float] = {}
    for start in range(0, len(errors), batch):
        hit = apply_paulis(errors[start:start + batch], sent)        # (dim_reg, E, S)
        got = (decoders.reshape(-1, code.dim) @ receive(hit.reshape(hit.shape[0], -1))
               ).reshape(*decoders.shape[:2], -1)                 # (r, K, E*S)
        amps = np.einsum("rkes,sk->res", got.reshape(*got.shape[:2], -1, len(targets)),
                         targets.conj())
        worst = np.min(np.sum(np.abs(amps) ** 2, axis=0), axis=1)    # per error
        min_fid = min(min_fid, float(worst.min()))
        for e in np.flatnonzero(worst < 1.0 - FIDELITY_SLACK):
            failures[label(errors[start + e].to_string()[1] or "I")] = float(worst[e])
    return VerificationReport(
        strategy=ea.strategy, model=model, error_weight=weight,
        cases_run=len(errors) * len(targets), min_fidelity=min_fid,
        failures=tuple(sorted(failures.items())), exploratory=exploratory and noiseless_only)
