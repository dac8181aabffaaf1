"""Dense complex linear algebra with pinned conventions.

Vectors and operators are numpy complex arrays over qubit registers.  Qubit 1
is the leftmost tensor factor and the most significant bit of a basis index,
so |b_1 b_2 ... b_n> sits at index int(b, 2).  Eigen- and singular
decompositions are gauge fixed for reproducible output (eigh, for uses
that read nothing the gauge changes, is not): values descending, and
inside a degenerate block each vector is scaled so its first nonzero
entry is real positive, blocks ordered by that pivot index.  Reports carry
complex arrays as sparse JSON records of their nonzero entries
(`array_to_json`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import HERMITICITY_TOL, MAX_DIM, RANK_TOL, UNITARITY_TOL
from .errors import ContractError, SizeError

CMatrix = np.ndarray


def check_dim(dim: int) -> None:
    """The one size rule: refuse to allocate more than MAX_DIM dense entries."""
    if dim > MAX_DIM:
        raise SizeError(f"dense dimension {dim} exceeds cap {MAX_DIM}")


@dataclass(frozen=True)
class SubsystemSplit:
    """A bipartition of n qubits into an erased set and its kept complement.

    `erased` uses 1-based qubit labels and keeps its given order; the kept
    complement is always ascending.  The reshape convention downstream puts
    kept qubits on rows and erased qubits on columns.
    """

    n: int
    erased: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "erased", tuple(int(q) for q in self.erased))
        if self.n < 1:
            raise ContractError(f"need at least one qubit, got n={self.n}")
        seen = set()
        for q in self.erased:
            if not 1 <= q <= self.n:
                raise ContractError(f"qubit label {q} outside 1..{self.n}")
            if q in seen:
                raise ContractError(f"duplicate qubit label {q}")
            seen.add(q)

    @property
    def b(self) -> int:
        return len(self.erased)

    @property
    def kept(self) -> tuple[int, ...]:
        absent = set(self.erased)
        return tuple(q for q in range(1, self.n + 1) if q not in absent)

    @property
    def dim_erased(self) -> int:
        return 2 ** self.b

    @property
    def dim_kept(self) -> int:
        return 2 ** (self.n - self.b)


def bipartite_matrix(states, erased) -> np.ndarray:
    """Cut each row of a (K, 2^n) stack of states across each of S erased sets.

    erased is an (S, b) array of 1-based qubit labels, one set a row, each
    in its own order; a row that repeats a label or leaves 1..n is a
    ContractError naming the set.  The result has shape (S, 2^(n-b), K,
    2^b): [s, :, i, :] is state i as a matrix whose row index runs over
    the kept qubits (ascending) and whose column index over set s's erased
    qubits in their stored order, so each [s] reshapes to 2^(n-b) x (K
    2^b) without a further copy.  Each set is cut by one axis transpose,
    copied once into the result.
    """
    states = np.asarray(states, dtype=complex)
    n = max(states.shape[-1].bit_length() - 1, 0)
    k, qubits = len(states), range(1, n + 1)
    if states.shape != (k, 1 << n):
        raise ContractError(f"states have shape {states.shape}, expected (K, {1 << n})")
    erased = np.asarray(erased)
    count, b = erased.shape
    stack = states.reshape((k,) + (2,) * n)
    out = np.empty((count,) + (2,) * (n - b) + (k,) + (2,) * b, dtype=complex)
    for cut, row in zip(out, erased.tolist()):
        labels = set(row)
        if len(labels) < b or not labels.issubset(qubits):
            raise ContractError(f"erased set {tuple(row)} is not {b} distinct "
                                f"qubit labels within 1..{n}")
        cut[...] = stack.transpose([q for q in qubits if q not in labels] + [0] + row)
    return out.reshape(count, 1 << (n - b), k, 1 << b)


def _require_hermitian(m: CMatrix, tol: float) -> None:
    scale = np.maximum(np.linalg.norm(m, axis=(-2, -1)), 1.0)
    if np.any(np.linalg.norm(m - m.conj().swapaxes(-2, -1), axis=(-2, -1)) > tol * scale):
        raise ContractError("matrix is not Hermitian within tolerance")


def _pivot_rows(vectors: np.ndarray) -> np.ndarray:
    """Row of each column's first entry above 1e-12 of its largest magnitude;
    vectors.shape[0] for an all-zero column."""
    a = np.abs(vectors)
    above = a > 1e-12 * np.maximum(a.max(axis=0, initial=0.0), 1e-300)
    return np.where(above.any(axis=0), above.argmax(axis=0), vectors.shape[0])


def _fix_phases(u: np.ndarray, vh: np.ndarray | None = None) -> None:
    """In place: make each column's pivot real positive; rows of vh take the
    conjugate factor.  Pivots are found for all columns at once; the scaling
    stays one column at a time because numpy rounds a complex product
    differently in the last bit depending on operand layout, and the
    decompositions must stay bit-stable."""
    rows = _pivot_rows(u)
    for k in np.flatnonzero(rows < u.shape[0]):
        pivot = u[rows[k], k]
        factor = abs(pivot) / pivot
        u[:, k] = u[:, k] * factor
        if vh is not None:
            vh[k, :] = vh[k, :] * np.conj(factor)


def gauge_fix_columns(vectors: np.ndarray) -> np.ndarray:
    """Scale each column so its first nonzero entry is real positive."""
    out = vectors.copy()
    _fix_phases(out)
    return out


def _degenerate_blocks(values: np.ndarray, tol: float) -> list[slice]:
    scale = max(np.abs(values).max(initial=0.0), 1.0)
    blocks, start = [], 0
    for i in range(1, len(values) + 1):
        if i == len(values) or abs(values[i] - values[start]) > tol * scale:
            blocks.append(slice(start, i))
            start = i
    return blocks


def _block_order(values: np.ndarray, tol: float, vectors: np.ndarray) -> np.ndarray:
    """Column order sorting each degenerate block of values by pivot row, stably."""
    block = np.zeros(len(values), dtype=int)
    for i, blk in enumerate(_degenerate_blocks(values, tol)):
        block[blk] = i
    return np.lexsort((_pivot_rows(vectors), block))


def eigh(m: CMatrix):
    """Eigenvalues (descending) and eigenvectors of a Hermitian matrix, or of
    each of a stack, as np.linalg.eigh gives them: no gauge fix."""
    m = np.asarray(m, dtype=complex)
    _require_hermitian(m, HERMITICITY_TOL)
    w, v = np.linalg.eigh(m)
    return w[..., ::-1], v[..., ::-1]


def eig_hermitian(m: CMatrix):
    """Eigenvalues (descending) and gauge-fixed eigenvectors of a Hermitian matrix."""
    w, v = eigh(m)
    v = gauge_fix_columns(v)
    return w, v[:, _block_order(w, HERMITICITY_TOL, v)]


def svd(m: CMatrix):
    """Gauge-fixed singular value decomposition, values descending.

    Returns the thin factorisation (u, s, vh) with m = u @ diag(s) @ vh:
    for an a x b matrix u has min(a, b) orthonormal columns and vh as many
    orthonormal rows.  Phases are pinned through the left vectors;
    degenerate blocks are reordered by left pivot index.
    """
    m = np.asarray(m, dtype=complex)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    _fix_phases(u, vh)
    order = _block_order(s, RANK_TOL, u)
    return u[:, order], s, vh[order, :]


def numerical_rank(weights: np.ndarray, tol: float = RANK_TOL) -> np.ndarray:
    """The one rank rule across a cut: how many of the marginal eigenvalues
    (squared Schmidt coefficients) on the last axis exceed tol times the
    largest there, as an integer array of the leading shape.  Callers that
    hold singular values pass their squares."""
    w = np.asarray(weights, dtype=float)
    return (w > tol * w.max(axis=-1, initial=0.0, keepdims=True)).sum(axis=-1)


def orthonormal_defect(gram: CMatrix) -> tuple[float, float]:
    """The distance of the Gram matrix M^dag M of some M to the identity, and
    the bound UNITARITY_TOL sqrt(columns) within which M's columns count as
    orthonormal."""
    gram = np.asarray(gram)
    dim = gram.shape[0]
    return float(np.linalg.norm(gram - np.eye(dim))), UNITARITY_TOL * max(1.0, dim ** 0.5)


def array_to_json(a) -> dict:
    """A complex array as the JSON record of its nonzero entries.

    `shape` is the array's shape, `index` the ascending C-order flat
    positions of the entries that are not exactly zero (no tolerance), and
    `re` and `im` their parts as Python floats.  An omitted entry reads back
    as +0.0, the only loss: a -0.0 there drops its sign.
    """
    a = np.asarray(a, dtype=complex)
    flat = a.reshape(-1)
    index = np.flatnonzero(flat)
    values = flat[index]
    return {"shape": list(a.shape), "index": index.tolist(),
            "re": values.real.tolist(), "im": values.imag.tolist()}


def sqrtm_psd(m: CMatrix) -> CMatrix:
    """Principal square root of a positive semidefinite matrix; clamps tiny
    negative eigenvalues to zero."""
    w, v = eig_hermitian(m)
    w = np.maximum(w, 0.0)
    return (v * np.sqrt(w)) @ v.conj().T
