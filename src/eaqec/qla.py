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

import functools
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


def _cut_axes(split: SubsystemSplit) -> list[int]:
    """Axis order [kept ascending, stack, erased as stored] for a stack of
    states reshaped to (K, 2, ..., 2), where axis q is qubit q."""
    return list(split.kept) + [0] + list(split.erased)


_BIT_GROUP = 8


@functools.cache
def _pattern_bits(m: int) -> np.ndarray:
    """bits[j, p]: bit j of the m-bit pattern p, bit 0 most significant."""
    bits = (np.arange(1 << m) >> np.arange(m - 1, -1, -1)[:, None]) & 1
    bits.flags.writeable = False
    return bits


def _cut_index(n: int, erased: np.ndarray) -> np.ndarray:
    """[s, r, c]: the basis index whose kept qubits (ascending) spell r and
    whose erased qubits, as row s of the (S, b) labels stores them, spell c.

    Built for the whole stack at once, as the outer OR of one factor per
    group of _BIT_GROUP pattern bits, so no n x 2^n bit matrix is formed.
    """
    erased = np.asarray(erased, dtype=np.intp)
    count, b = erased.shape
    if erased.size and (erased.min() < 1 or erased.max() > n):
        raise ContractError(f"qubit labels must lie within 1..{n}")
    is_kept = np.ones((count, n), dtype=bool)
    is_kept[np.arange(count)[:, None], erased - 1] = False
    if np.count_nonzero(is_kept) != count * (n - b):
        raise ContractError("an erased set repeats a qubit label")
    kept = np.nonzero(is_kept)[1].reshape(count, n - b) + 1
    weights = 1 << (n - np.concatenate([kept, erased], axis=1))
    table = np.zeros((count, 1), dtype=np.intp)
    for start in range(0, n, _BIT_GROUP):
        group = weights[:, start:start + _BIT_GROUP]
        factor = group @ _pattern_bits(group.shape[1])
        table = (table[:, :, None] | factor[:, None, :]).reshape(
            count, table.shape[1] * factor.shape[1])
    return table.reshape(count, 1 << (n - b), 1 << b)


def bipartite_matrix(states, split) -> np.ndarray:
    """Cut one state, or each row of a (K, 2^n) stack, across the split.

    Row index runs over the kept qubits (ascending), column index over the
    erased qubits in the split's stored order: one state gives a dim_kept x
    dim_erased matrix, a stack a (dim_kept, K, dim_erased) array whose
    [:, i, :] is row i's matrix, so it reshapes to dim_kept x (K
    dim_erased) without a further copy.  A SubsystemSplit is cut by one
    axis transpose.  An (S, b) array of erased sets (1-based labels, each
    row in its own order) puts a leading S axis on the result and is cut
    by one gather through _cut_index.
    """
    states = np.asarray(states, dtype=complex)
    dim = states.shape[-1] if states.ndim else 0
    n = split.n if isinstance(split, SubsystemSplit) else max(dim.bit_length() - 1, 0)
    if states.ndim not in (1, 2) or dim != 2 ** n:
        raise ContractError(f"states have shape {states.shape}, expected ({2 ** n},) "
                            f"or (K, {2 ** n})")
    stack = states.reshape(-1, dim)
    if isinstance(split, SubsystemSplit):
        cut = stack.reshape((-1,) + (2,) * n).transpose(_cut_axes(split))
        out = cut.reshape(split.dim_kept, -1, split.dim_erased)
    else:
        offsets = np.arange(len(stack))[:, None] << n
        out = stack.reshape(-1)[_cut_index(n, split)[..., None, :] + offsets]
    return out if states.ndim == 2 else out[..., 0, :]


def unsplit(matrix: np.ndarray, split: SubsystemSplit) -> np.ndarray:
    """Inverse of bipartite_matrix: a dim_kept x dim_erased matrix, or a
    (dim_kept, K, dim_erased) stack, back to states in original qubit order."""
    matrix = np.asarray(matrix)
    stack = matrix.reshape((2,) * len(split.kept) + (-1,) + (2,) * split.b)
    out = stack.transpose(np.argsort(_cut_axes(split))).reshape(-1, 2 ** split.n)
    return out if matrix.ndim == 3 else out[0]


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


def numerical_rank(weights: np.ndarray, tol: float = RANK_TOL) -> int | np.ndarray:
    """The one rank rule across a cut: how many of the marginal eigenvalues
    (squared Schmidt coefficients) exceed tol times the largest.  Callers
    that hold singular values pass their squares; a stack gets the rank of
    each row."""
    w = np.asarray(weights, dtype=float)
    if w.ndim > 1:
        return np.count_nonzero(w > tol * w.max(axis=-1, initial=0.0, keepdims=True), axis=-1)
    return int(np.count_nonzero(w > tol * w.max(initial=0.0)))


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
