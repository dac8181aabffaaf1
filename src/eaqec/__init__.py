"""Erasure analysis and entanglement-assisted descriptions of quantum codes.

The pipeline: represent a code by an explicit codeword basis (codes),
check which qubit subsets are erasure-correctable and how degenerately
(analysis), factor the code through an isometry plus a shared bipartite
state (structure), optionally compress the receiver's share, and verify
the whole story by simulating errors and canonical recovery (simulate).
Stabilizer codes, including nonabelian groups turned entanglement-assisted
by the symplectic extension, enter through stab.
"""

from . import analysis, codes, qla, simulate, stab, structure
from .analysis import (DEGENERATE, IMPURE_NONDEGENERATE, PURE, KLReport,
                       analyze_subset, classify, find_correctable_sets,
                       kl_matrix, pauli_basis_on)
from .codes import (CodeParameters, EAParameters, PauliOperator, QuantumCode,
                    code_from_json, code_to_json, dicke, fixture,
                    FIXTURE_NAMES, min_distance, projector)
from .errors import (ConsistencyError, ContractError, EaqecError,
                     InvalidStabilizerError, ModelMismatchError,
                     NotCorrectableError, SizeError, StructureViolationError)
from .qla import SubsystemSplit, bipartite_matrix, partial_trace
from .simulate import (KrausChannel, VerificationReport, channel_form_check,
                       kl_recovery, replacer_channel, verify_ea)
from .stab import (StabilizerGroup, SymplecticForm, codewords, commutes,
                   ea_extend, ea_params_stab, group_from_json, group_to_json,
                   is_correctable_stab, subgroup_on, symplectic_gram_schmidt)
from .structure import (EACode, StructureDecomposition, compress, decompose,
                        ea_from_structure, ea_presend,
                        logical_unitary_on_complement,
                        presend_from_decomposition)

__version__ = "0.1.0"

__all__ = [
    "analysis", "codes", "qla", "simulate", "stab", "structure",
    "DEGENERATE", "IMPURE_NONDEGENERATE", "PURE", "KLReport",
    "analyze_subset", "classify", "find_correctable_sets", "kl_matrix",
    "pauli_basis_on",
    "CodeParameters", "EAParameters", "PauliOperator", "QuantumCode",
    "code_from_json", "code_to_json", "dicke", "fixture", "FIXTURE_NAMES",
    "min_distance", "projector",
    "ConsistencyError", "ContractError", "EaqecError",
    "InvalidStabilizerError", "ModelMismatchError", "NotCorrectableError",
    "SizeError", "StructureViolationError",
    "SubsystemSplit", "bipartite_matrix", "partial_trace",
    "KrausChannel", "VerificationReport", "channel_form_check", "kl_recovery",
    "replacer_channel", "verify_ea",
    "StabilizerGroup", "SymplecticForm", "codewords", "commutes", "ea_extend",
    "ea_params_stab", "group_from_json", "group_to_json",
    "is_correctable_stab", "subgroup_on", "symplectic_gram_schmidt",
    "EACode", "StructureDecomposition", "compress", "decompose",
    "ea_from_structure", "ea_presend", "logical_unitary_on_complement",
    "presend_from_decomposition",
    "__version__",
]
