"""The one size rule: qla.check_dim on the entries about to be allocated.

Each guarded call gets its first input over MAX_DIM = 2^20 entries and
must raise SizeError before it allocates anything: the tracemalloc peak
stays under 1 MiB, where the refused object would take 16 MiB or more.
Inputs are built before tracing starts, so only the call is measured.
"""

import tracemalloc

import numpy as np
import pytest

from eaqec import analysis, codes, stab, structure
from eaqec.errors import SizeError


def product_code(n: int) -> codes.QuantumCode:
    """The K = 1 code spanned by |0...0> on n qubits."""
    v = np.zeros(2 ** n, dtype=complex)
    v[0] = 1.0
    return codes.QuantumCode(n=n, basis=v[None, :])


def wide_code() -> codes.QuantumCode:
    """K = 128 basis states of 8 qubits."""
    return codes.QuantumCode(n=8, basis=np.eye(256, dtype=complex)[:128])


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# name -> a builder of (function, arguments), each the first input over the cap
OVER_CAP = {
    # 4^11 entries
    "projector": lambda: (codes.projector, (product_code(11),)),
    # K 2^n = 32 * 2^16 entries
    "code_from_json": lambda: (codes.code_from_json,
                               ({"n": 16, "k_dim": 32, "basis": [[]] * 32},)),
    # K^2 4^b = 2^14 4^4 moments of one erased set
    "kl_matrix": lambda: (analysis.kl_matrix, (wide_code(), (1, 2, 3, 4))),
    "analyze_subset": lambda: (analysis.analyze_subset, (wide_code(), (1, 2, 3, 4))),
    "verdict": lambda: (wide_code().verdict, ((1, 2, 3, 4),)),
    "scan_subsets": lambda: (analysis.scan_subsets, (wide_code(), 4)),
    # the K = 2^21 kept ranks of a group's GF(2) report
    "analyze_subset_gf2": lambda: (analysis.analyze_subset,
                                   (stab.StabilizerGroup.from_strings(["Z" + "I" * 21]), (1,))),
}


@pytest.mark.parametrize("name", sorted(OVER_CAP))
def test_refused_before_allocating(name):
    function, args = OVER_CAP[name]()

    def call():
        with pytest.raises(SizeError):
            function(*args)

    assert _traced_peak(call) < 1 << 20


def test_decompose_builds_no_square_unitary():
    # the SVD of a 2^12 x 2 codeword matrix is thin: r left vectors, not a
    # 2^12 x 2^12 unitary (256 MiB), of which only r columns are read
    code = product_code(13)
    peak = _traced_peak(lambda: structure.decompose(code, (1,)))
    assert peak < 1 << 20
