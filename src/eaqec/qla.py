"""Dense complex linear algebra with pinned conventions.

Vectors and operators are numpy complex arrays over qubit registers.  Qubit 1
is the leftmost tensor factor and the most significant bit of a basis index,
so |b_1 b_2 ... b_n> sits at index int(b, 2).  Eigen- and singular
decompositions are gauge fixed for reproducible output: values descending,
and inside a degenerate block each vector is scaled so its first nonzero
entry is real positive, blocks ordered by that pivot index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import HERMITICITY_TOL, MAX_DIM, RANK_TOL, UNITARITY_TOL
from .errors import ContractError, SizeError

CVector = np.ndarray
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

    @property
    def order(self) -> tuple[int, ...]:
        """Qubit order [kept ascending, then erased] used for reshapes."""
        return self.kept + self.erased


def permutation_indices(n: int, order: tuple[int, ...]) -> np.ndarray:
    """Index map p with v_permuted = v[p] for the qubit reordering `order`.

    order[j] is the 1-based label of the qubit placed at position j+1.
    """
    if sorted(order) != list(range(1, n + 1)):
        raise ContractError(f"{order} is not an ordering of 1..{n}")
    axes = [q - 1 for q in order]
    return np.arange(2 ** n).reshape((2,) * n).transpose(axes).ravel()


def permute_state(state: CVector, n: int, order: tuple[int, ...]) -> CVector:
    return np.asarray(state)[permutation_indices(n, order)]


def bipartite_matrix(state: CVector, split: SubsystemSplit) -> CMatrix:
    """Reshape a state vector to a dim_kept x dim_erased matrix.

    Row index runs over the kept qubits (ascending), column index over the
    erased qubits in the split's stored order.
    """
    state = np.asarray(state, dtype=complex)
    if state.shape != (2 ** split.n,):
        raise ContractError(f"state has shape {state.shape}, expected ({2 ** split.n},)")
    permuted = permute_state(state, split.n, split.order)
    return permuted.reshape(split.dim_kept, split.dim_erased)


def partial_trace(rho: CMatrix, split: SubsystemSplit, traced: str) -> CMatrix:
    """Trace out one side of the split; kept labels are relabeled ascending.

    traced is "erased" (returns the operator on the kept qubits) or "kept".
    """
    rho = np.asarray(rho, dtype=complex)
    n = split.n
    dim = 2 ** n
    if rho.shape != (dim, dim):
        raise ContractError(f"operator has shape {rho.shape}, expected ({dim}, {dim})")
    if traced == "erased":
        gone = sorted(q - 1 for q in split.erased)
    elif traced == "kept":
        gone = sorted(q - 1 for q in split.kept)
    else:
        raise ContractError(f"traced must be 'erased' or 'kept', got {traced!r}")
    t = rho.reshape((2,) * (2 * n))
    # trace highest axis first so earlier positions stay valid
    removed = 0
    for q in reversed(gone):
        m = n - removed
        t = np.trace(t, axis1=q, axis2=m + q)
        removed += 1
    keep = n - removed
    return t.reshape(2 ** keep, 2 ** keep)


def _require_hermitian(m: CMatrix, tol: float) -> None:
    scale = max(np.linalg.norm(m), 1.0)
    if np.linalg.norm(m - m.conj().T) > tol * scale:
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


def eig_hermitian(m: CMatrix, tol: float = HERMITICITY_TOL):
    """Eigenvalues (descending) and gauge-fixed eigenvectors of a Hermitian matrix."""
    m = np.asarray(m, dtype=complex)
    _require_hermitian(m, tol)
    w, v = np.linalg.eigh(m)
    w, v = w[::-1], v[:, ::-1]
    v = gauge_fix_columns(v)
    return w, v[:, _block_order(w, tol, v)]


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


def numerical_rank(singular_values: np.ndarray, tol: float = RANK_TOL) -> int:
    s = np.asarray(singular_values, dtype=float)
    if s.size == 0 or s[0] <= 0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


def is_isometry(m: CMatrix, tol: float = UNITARITY_TOL) -> bool:
    m = np.asarray(m)
    gram = m.conj().T @ m
    return bool(np.linalg.norm(gram - np.eye(m.shape[1])) <= tol * max(1.0, m.shape[1] ** 0.5))


def to_re_im(a) -> list:
    """A complex array as nested [re, im] pairs of Python floats, for JSON."""
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def sqrtm_psd(m: CMatrix, tol: float = HERMITICITY_TOL) -> CMatrix:
    """Principal square root of a positive semidefinite matrix; clamps tiny
    negative eigenvalues to zero."""
    w, v = eig_hermitian(m, tol)
    w = np.maximum(w, 0.0)
    return (v * np.sqrt(w)) @ v.conj().T
