"""Channel simulation: canonical recovery maps and end-to-end EA checks.

Recovery follows the standard construction from the error correlation
matrix: diagonalize it, rotate the error set into orthogonal channels F_k,
and take Kraus operators P F_k^dag / sqrt(d_k).  Verification only asks how
much of each recovered state lands on a code state, so the recovery is kept
in the code basis as the K x 2^n decoders V^dag F_k^dag / sqrt(d_k), built
from the images E_a V; no 2^n x 2^n operator is formed.  Verification then
drives encoded states through error + recovery and demands unit fidelity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import analysis, qla, structure
from .codes import PauliOperator, QuantumCode, paulis_of_weight
from .config import FIDELITY_SLACK, MAX_SUBSET, RANK_TOL, RESIDUAL_TOL
from .errors import (ConsistencyError, ContractError, ModelMismatchError,
                     NotCorrectableError, SizeError)

NOISELESS = "noiseless"
NOISY = "noisy"

_TRACE_PRESERVATION_TOL = 1e-9


@dataclass(frozen=True)
class KrausChannel:
    """A completely positive trace-preserving map given by Kraus operators."""

    operators: tuple[np.ndarray, ...]
    dim: int

    def __post_init__(self):
        if not self.operators:
            raise ContractError("channel needs at least one Kraus operator")
        total = np.zeros((self.dim, self.dim), dtype=complex)
        for op in self.operators:
            if op.shape != (self.dim, self.dim):
                raise ContractError(f"Kraus operator shape {op.shape} != {(self.dim,) * 2}")
            total += op.conj().T @ op
        defect = float(np.linalg.norm(total - np.eye(self.dim)))
        if defect > _TRACE_PRESERVATION_TOL * max(1.0, np.sqrt(self.dim)):
            raise ContractError(f"channel is not trace preserving (defect {defect:.2e})")

    def apply(self, rho: np.ndarray) -> np.ndarray:
        out = np.zeros_like(rho, dtype=complex)
        for op in self.operators:
            out += op @ rho @ op.conj().T
        return out

    def apply_to_pure(self, state: np.ndarray) -> np.ndarray:
        """Channel output on |state><state|, returned as a density matrix."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for op in self.operators:
            v = op @ state
            out += np.outer(v, v.conj())
        return out


def replacer_channel(n: int, subset) -> KrausChannel:
    """Erasure modelled as replacement: the subset is reset to maximally mixed.

    Kraus operators are the embedded Pauli basis on the subset scaled by
    1/2^b; the output marginal on the subset is I/2^b regardless of input.
    The 4^b dense operators of 4^n entries each are size-checked first.
    """
    subset = tuple(subset)
    qla.check_dim(4 ** len(subset) * 4 ** n)
    scaled_eye = np.eye(1 << n, dtype=complex) / (1 << len(subset))
    ops = tuple(p.apply(scaled_eye) for p in analysis.pauli_basis_on(n, subset))
    return KrausChannel(operators=ops, dim=1 << n)


def kl_recovery(code: QuantumCode, errors,
                residual_tol: float = RESIDUAL_TOL,
                rank_tol: float = RANK_TOL) -> np.ndarray:
    """Canonical recovery for a correctable error set, read out in the code basis.

    errors: PauliOperators or dense matrices; the set should contain the
    identity.  Returns D of shape (r, K, 2^n) with D_k = V^dag F_k^dag /
    sqrt(d_k): Kraus operator k of the recovery followed by readout in the
    codeword basis V, so a state |s> is recovered into the code state V w
    with fidelity sum_k |w^dag D_k |s>|^2.  The trace-preserving completion
    is left out: its range is orthogonal to span{F_k V}, which contains the
    code space when the identity is an error, so it adds nothing to such a
    fidelity.  Raises NotCorrectableError when the correlation-matrix
    residual shows the set is not correctable, and ConsistencyError when
    the r*K rows of D are not orthonormal.
    """
    v = code.basis_matrix                          # 2^n x K
    images = [e.apply(v) if isinstance(e, PauliOperator) else np.asarray(e, dtype=complex) @ v
              for e in errors]
    if not images:
        raise ContractError("empty error set")
    m, k = len(images), code.k_dim
    flat = np.stack(images, axis=1).reshape(v.shape[0], m * k)   # column a*K + i: E_a V e_i
    gram = (flat.conj().T @ flat).reshape(m, k, m, k)            # blocks V^dag E_a^dag E_b V
    lam = np.einsum("aibi->ab", gram) / k
    defect = gram - lam[:, None, :, None] * np.eye(k)[None, :, None, :]
    worst = float(np.max(np.linalg.norm(defect, axis=(1, 3))))
    if worst > residual_tol:
        raise NotCorrectableError(
            f"error set violates the correctability condition (residual {worst:.2e})")

    vals, vecs = qla.eig_hermitian(lam)
    cutoff = rank_tol * vals[0] if vals[0] > 0 else 0.0
    keep = vals > cutoff
    # column k*K + i of the product is F_k V e_i / sqrt(d_k)
    rows = (flat @ np.kron(vecs[:, keep] / np.sqrt(vals[keep]), np.eye(k))).conj().T
    if not qla.is_isometry(rows.T):
        raise ConsistencyError("recovery decoders are not orthonormal")
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


def _paulis_up_to_weight(n: int, qubits, weight: int):
    """Identity first, then the phase-free Paulis of weight 1..weight in qubits."""
    return [PauliOperator(n, 0, 0)] + [p for w in range(1, weight + 1)
                                       for p in paulis_of_weight(n, qubits, w)]


def _test_states(k: int) -> list[np.ndarray]:
    """Coefficient vectors w of the test states w @ code.basis: each
    codeword, then their equal superposition."""
    states = list(np.eye(k))
    if k > 1:
        states.append(np.full(k, 1.0 / np.sqrt(k)))
    return states


def verify_ea(ea: structure.EACode, dec: structure.StructureDecomposition,
              code: QuantumCode, model: str, weight: int,
              exploratory: bool = False,
              residual_tol: float = RESIDUAL_TOL,
              rank_tol: float = RANK_TOL) -> VerificationReport:
    """Drive encoded states through weight-w errors and canonical recovery.

    noiseless: errors act on the kept qubits only (the receiver's share is
    pristine).  noisy: errors act anywhere.  The compressed strategy only
    supports the noiseless model; pass exploratory=True to run it under
    noise anyway: errors then act on the kept qubits and on the carrier
    qubits of the compressed share before the receiver re-expands it, and
    the results are reported without any guarantee (fidelities below one
    are expected; that is the cost the compression trades away).
    """
    if model not in (NOISELESS, NOISY):
        raise ContractError(f"unknown error model {model!r}")
    if weight < 0:
        raise ContractError("error weight must be nonnegative")
    compressed = ea.strategy == structure.COMPRESSED
    if compressed and model == NOISY and not exploratory:
        raise ModelMismatchError(
            "the compressed strategy assumes noiseless erased qubits; "
            "rerun with exploratory=True to probe it under noise anyway")

    split = dec.split
    allowed = split.kept if model == NOISELESS else tuple(range(1, split.n + 1))
    decoders = kl_recovery(code, _paulis_up_to_weight(split.n, allowed, weight),
                           residual_tol=residual_tol, rank_tol=rank_tol)

    states = _test_states(code.k_dim)
    if compressed:
        prepared = [_compressed_state(ea, dec, w) for w in states]
    else:
        prepared = [w @ code.basis for w in states]

    perm = qla.permutation_indices(split.n, split.order)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)

    share_noise = compressed and model == NOISY
    n_kept = len(split.kept)
    if share_noise:
        n_err = n_kept + ea.ebit_cost
        sites = range(1, n_err + 1)
    else:
        n_err, sites = split.n, allowed
    apply_errors = list(paulis_of_weight(n_err, sites, weight)) or [PauliOperator(n_err, 0, 0)]

    cases = 0
    min_fid = 1.0
    failures: dict[str, float] = {}
    for err in apply_errors:
        letters = "".join(err.to_string()[1]) if err.n else "I"
        if share_noise:
            err_label = letters[:n_kept] + "|" + letters[n_kept:]
        else:
            err_label = letters
        for w, sent in zip(states, prepared):
            if compressed:
                if model == NOISELESS:
                    corrupted = _restrict_to_kept(err, split).apply(sent)
                else:
                    corrupted = _share_noise_corrupt(sent, err, ea)
                full = _compressed_expand(corrupted, ea, inv)
            else:
                full = err.apply(sent)
            fid = float(np.sum(np.abs((decoders @ full) @ w.conj()) ** 2))
            cases += 1
            min_fid = min(min_fid, fid)
            if fid < 1.0 - FIDELITY_SLACK:
                failures[err_label] = min(failures.get(err_label, 1.0), fid)
    return VerificationReport(
        strategy=ea.strategy, model=model, error_weight=weight,
        cases_run=cases, min_fidelity=min_fid,
        failures=tuple(sorted(failures.items())), exploratory=exploratory and compressed)


def _compressed_state(ea, dec, w: np.ndarray) -> np.ndarray:
    """The code state w @ code.basis in compressed form, a kept x receiver matrix."""
    psi_small = ea.shared_state.reshape(dec.ancilla_dim, ea.receiver_dim)
    return sum(wi * (blk @ psi_small) for wi, blk in zip(w, dec.blocks()))


def _restrict_to_kept(err: PauliOperator, split: qla.SubsystemSplit) -> PauliOperator:
    """Rewrite a Pauli supported on kept qubits as an operator on the kept factor."""
    kept = split.kept
    pos = {q: j + 1 for j, q in enumerate(kept)}
    m = len(kept)
    x_loc = z_loc = 0
    for q in err.support:
        if q not in pos:
            raise ContractError(f"error touches erased qubit {q}")
        bit = 1 << (m - pos[q])
        if err.x_bits >> (split.n - q) & 1:
            x_loc |= bit
        if err.z_bits >> (split.n - q) & 1:
            z_loc |= bit
    return PauliOperator(m, x_loc, z_loc, err.phase_exp)


def _share_noise_corrupt(mat: np.ndarray, err: PauliOperator, ea) -> np.ndarray:
    """Noise on the compressed share's carrier qubits, before re-expansion.

    The C-dimensional share rides on ebit_cost qubits; the state is padded
    to that register, hit by the error, and truncated back.  Amplitude
    pushed outside the C-dimensional support is lost (the receiver's
    re-expansion only reads that subspace), which is precisely how the
    compression trades away noisy-model protection.
    """
    c = ea.receiver_dim
    share_dim = 1 << ea.ebit_cost
    padded = np.zeros((mat.shape[0], share_dim), dtype=complex)
    padded[:, :c] = mat
    hit = err.apply(padded.reshape(-1))
    return hit.reshape(mat.shape[0], share_dim)[:, :c]


def _compressed_expand(mat: np.ndarray, ea, inv: np.ndarray) -> np.ndarray:
    """Re-expand the receiver's share through V and undo the qubit permutation."""
    full_perm = (mat @ ea.compress_isometry.T).reshape(-1)
    return full_perm[inv]


def channel_form_check(dec: structure.StructureDecomposition,
                       code: QuantumCode) -> float:
    """Worst deviation between the erasure output and its structured form.

    For a spanning set of pure code states compares
    Tr_B(rho) otimes I/2^b against (U (rho_R otimes Gamma_A) U^dag) otimes
    I/2^b in the permuted frame.  Both sides share the I/2^b factor, so the
    comparison reduces to the kept-side operators; the returned number is
    the full-space Frobenius deviation.
    """
    split = dec.split
    if split.b > MAX_SUBSET:
        raise SizeError(f"erased set of size {split.b} exceeds cap {MAX_SUBSET}")
    k = dec.k_dim
    gamma = dec.ancilla_state
    u = dec.isometry
    worst = 0.0
    for i in range(k):
        for j in range(i, k):
            if i == j:
                combos = [np.eye(k)[i]]
            else:
                e_i, e_j = np.eye(k)[i], np.eye(k)[j]
                combos = [(e_i + e_j) / np.sqrt(2.0), (e_i + 1j * e_j) / np.sqrt(2.0)]
            for w in combos:
                state = w @ code.basis
                mat = qla.bipartite_matrix(state, split)
                lhs_kept = mat @ mat.conj().T
                rho_r = np.outer(w, w.conj())
                rhs_kept = u @ np.kron(rho_r, gamma) @ u.conj().T
                dev = float(np.linalg.norm(lhs_kept - rhs_kept)) / np.sqrt(split.dim_erased)
                worst = max(worst, dev)
    return worst
