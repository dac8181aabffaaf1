"""Factor a code through an isometry on kept qubits plus a shared state.

For a correctable erased set B every codeword splits as
|i~> = (U otimes I_B)(|i>_R otimes |psi>_AB): the kept qubits carry an
isometric image of a message register R and an ancilla A, while B holds
half of a fixed bipartite state psi_AB.  The construction is direct: cut
the codewords into kept x erased matrices (qla.bipartite_matrix), SVD
codeword 0's to extract psi and the first isometry block, then solve the
remaining blocks with the pseudoinverse of psi.  Everything is certified
after the fact (isometry and reconstruction residuals), so a
non-correctable set fails loudly rather than returning a bogus
factorization.  The decomposition carries n and the erased labels as
given, which the cut checks; everything else about the bipartition is
read off those two and the isometry, whose rows span the kept qubits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import qla
from .codes import QuantumCode
from .config import RANK_TOL, RESIDUAL_TOL, TRACE_TOL
from .errors import ConsistencyError, ContractError, StructureViolationError

PRESEND = "presend"
STRUCTURE = "structure"
COMPRESSED = "compressed"

NOISELESS_AND_NOISY = "noiseless_and_noisy"
NOISELESS_ONLY = "noiseless_only"


class StructureDecomposition(NamedTuple):
    """Certified factorization of an n-qubit code across an erased set.

    subset holds the erased qubit labels as Python ints, in the order they
    were given; the kept qubits are the rest, ascending, and their
    dimension is the isometry's row count.  isometry maps the message
    register (index major) and ancilla (index minor) into the kept qubits;
    shared_state is the ancilla/erased-side pure state with the ancilla
    index major; ancilla_state is its reduced density operator on A.
    """

    n: int
    subset: tuple[int, ...]
    k_dim: int
    ancilla_dim: int
    isometry: np.ndarray       # dim_kept x (k_dim * ancilla_dim)
    ancilla_state: np.ndarray  # ancilla_dim x ancilla_dim, PSD, unit trace
    shared_state: np.ndarray   # length ancilla_dim * dim_erased
    residual: float            # worst codeword reconstruction error
    isometry_defect: float     # ||U^dag U - I||_F

    @property
    def ancilla_spectrum(self) -> np.ndarray:
        return np.sort(np.real(np.diag(self.ancilla_state)))[::-1]


def decompose(code: QuantumCode, subset,
              rank_tol: float = RANK_TOL,
              certify_tol: float = RESIDUAL_TOL) -> StructureDecomposition:
    """Build and certify the factorization for one erased set.

    Codeword 0 anchors the gauge.  dim_A and each codeword's kept-side
    rank follow the one rank rule, qla.numerical_rank on squared singular
    values; the certificate reads nothing from analysis, so it stays an
    independent check of its verdicts.  Raises StructureViolationError when
    the candidate fails certification, which is exactly what happens when
    the subset is not correctable (no valid factorization exists then).
    """
    subset = tuple(subset)
    k = code.k_dim
    mats = qla.bipartite_matrix(code.basis, [subset])[0].transpose(1, 0, 2)   # A_i = mats[i]
    dim_kept = mats.shape[1]

    u0, s0, v0h = qla.svd(mats[0])
    r = int(qla.numerical_rank(s0 ** 2, rank_tol))
    if r == 0:
        raise ContractError("codeword 0 vanishes; cannot anchor the factorization")
    if r * k > dim_kept:
        raise StructureViolationError(
            f"message x ancilla dimension {k}x{r} exceeds kept dimension "
            f"{dim_kept}; subset cannot be correctable")
    ranks = qla.numerical_rank(np.linalg.svd(mats[1:], compute_uv=False) ** 2, rank_tol)
    if np.any(ranks > r):
        i = int(np.argmax(ranks > r))
        raise StructureViolationError(
            f"codeword {i + 1} has kept-side rank {ranks[i]} > anchor rank {r}")

    psi_mat = s0[:r, None] * v0h[:r, :]          # r x dim_erased
    psi_pinv = v0h[:r, :].conj().T / s0[:r]      # dim_erased x r
    blocks = [u0[:, :r]]
    blocks += [m @ psi_pinv for m in mats[1:]]
    isometry = np.hstack(blocks)

    gram = isometry.conj().T @ isometry
    defect = float(np.linalg.norm(gram - np.eye(k * r)))
    recon = max(float(np.linalg.norm(m - blk @ psi_mat))
                for m, blk in zip(mats, blocks))
    if recon > certify_tol or defect > certify_tol:
        raise StructureViolationError(
            f"certification failed (reconstruction {recon:.2e}, isometry defect "
            f"{defect:.2e}); subset {subset} is not correctable at this tolerance")

    gamma = psi_mat @ psi_mat.conj().T
    trace_err = abs(float(np.trace(gamma).real) - 1.0)
    if trace_err > TRACE_TOL:
        raise ConsistencyError(f"ancilla state trace off by {trace_err:.2e}")
    return StructureDecomposition(
        n=code.n, subset=tuple(map(int, subset)), k_dim=k, ancilla_dim=r, isometry=isometry,
        ancilla_state=gamma, shared_state=psi_mat.reshape(-1),
        residual=recon, isometry_defect=defect)


@dataclass(frozen=True)
class EACode:
    """An entanglement-assisted description of a code over a kept/erased split.

    It holds only what its strategy builds; the ebit cost and the error
    models it is valid under follow from it, and its parameter tuple from
    ea_parameters.
    """

    strategy: str
    shared_state: np.ndarray   # bipartite resource, sender index major
    sender_dim: int
    receiver_dim: int
    schmidt_rank: int
    compress_isometry: np.ndarray | None = None

    def __post_init__(self):
        if self.strategy not in (PRESEND, STRUCTURE, COMPRESSED):
            raise ContractError(f"unknown strategy {self.strategy!r}")
        if self.shared_state.shape != (self.sender_dim * self.receiver_dim,):
            raise ContractError("shared state length does not match its two factors")

    @property
    def ebit_cost(self) -> int:
        """ceil(log2 of the Schmidt rank)."""
        return max(self.schmidt_rank - 1, 0).bit_length()

    @property
    def model_validity(self) -> str:
        """The compressed share is valid only when the erased qubits see no noise."""
        return NOISELESS_ONLY if self.strategy == COMPRESSED else NOISELESS_AND_NOISY


def ea_parameters(dec: StructureDecomposition, ea: EACode, d: int) -> tuple[str, str | None]:
    """The parameter tuple ((n - b, K, d; C)) of an EA description, C its
    receiver dimension, and its stabilizer form [[n - b, log2 K, d; log2 C]]
    when K and C are powers of two (None otherwise)."""
    n_sent, k, c = dec.n - len(dec.subset), dec.k_dim, ea.receiver_dim
    dimension_form = f"(({n_sent},{k},{d};{c}))"
    if k & (k - 1) or c & (c - 1):
        return dimension_form, None
    return dimension_form, f"[[{n_sent},{k.bit_length() - 1},{d};{c.bit_length() - 1}]]"


def ea_from_structure(dec: StructureDecomposition) -> EACode:
    """Uncompressed EA description: the receiver simply holds the erased qubits.

    Valid under both error models since the encoded states are the original
    codewords; the shared resource is psi_AB itself.
    """
    c = dec.ancilla_dim
    return EACode(
        strategy=STRUCTURE, shared_state=dec.shared_state.copy(),
        sender_dim=c, receiver_dim=1 << len(dec.subset), schmidt_rank=c)


def compress(dec: StructureDecomposition) -> EACode:
    """Shrink the receiver's share to the Schmidt rank of the shared state.

    The Schmidt rank is decompose's dim_A.  The minimal purification
    psi' = sum_a sqrt(gamma_a) |a>|a> replaces psi_AB, and the isometry V
    (erased <- compressed) rebuilds the original share: (I otimes V) psi' = psi.
    Only valid when the erased qubits see no noise, since errors on B need
    not commute with V V^dag.
    """
    r = dec.ancilla_dim
    psi_mat = dec.shared_state.reshape(r, 1 << len(dec.subset))
    weights = np.linalg.norm(psi_mat, axis=1)
    v_embed = (psi_mat / weights[:, None]).conj().T      # dim_erased x r
    gram = v_embed.conj().T @ v_embed
    defect, bound = qla.orthonormal_defect(gram)
    if defect > bound:
        raise ConsistencyError(f"compression map is not an isometry (defect {defect:.2e})")
    return EACode(
        strategy=COMPRESSED, shared_state=np.diag(weights.astype(complex)).reshape(-1),
        sender_dim=r, receiver_dim=r, schmidt_rank=r, compress_isometry=v_embed)


def presend_from_decomposition(dec: StructureDecomposition, code: QuantumCode) -> EACode:
    """Presend EA description from an already certified decomposition.

    The shared resource is the encoded reference codeword split kept/erased;
    the sender later steers the message with unitaries supported on the kept
    qubits, which exist because the set is correctable; tests/conftest.py
    builds them and the tests check this steering.
    """
    shared = qla.bipartite_matrix(code.basis[:1], [dec.subset])[0].reshape(-1)
    return EACode(
        strategy=PRESEND, shared_state=shared, sender_dim=len(dec.isometry),
        receiver_dim=1 << len(dec.subset), schmidt_rank=dec.ancilla_dim)


def decomposition_to_json(dec: StructureDecomposition) -> dict:
    return {
        "n": dec.n,
        "subset": list(dec.subset),
        "k_dim": dec.k_dim,
        "dim_A": dec.ancilla_dim,
        "ancilla_spectrum": [float(x) for x in dec.ancilla_spectrum],
        "shared_state": qla.array_to_json(dec.shared_state),
        "isometry_columns": qla.array_to_json(dec.isometry.T),
        "residual": dec.residual,
        "isometry_defect": dec.isometry_defect,
    }


def eacode_to_json(dec: StructureDecomposition, ea: EACode, d: int) -> dict:
    dimension_form, stabilizer_form = ea_parameters(dec, ea, d)
    data = {
        "parameters": dimension_form,
        "stabilizer_form": stabilizer_form,
        "strategy": ea.strategy,
        "model_validity": ea.model_validity,
        "sender_dim": ea.sender_dim,
        "receiver_dim": ea.receiver_dim,
        "schmidt_rank": ea.schmidt_rank,
        "ebit_cost": ea.ebit_cost,
        "shared_state": qla.array_to_json(ea.shared_state),
    }
    if ea.compress_isometry is not None:
        data["compress_isometry_columns"] = qla.array_to_json(ea.compress_isometry.T)
    return data
