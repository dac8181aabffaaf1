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

__version__ = "0.1.0"
