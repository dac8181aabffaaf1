"""Stabilizer groups over GF(2) with exact phase bookkeeping.

Generators are bit-packed (one x mask and one z mask per generator) and all
group arithmetic goes through PauliOperator.compose, so phases are never
approximated.  Nonabelian groups are allowed; the symplectic Gram-Schmidt
pass splits them into anticommuting pairs plus a commuting remainder, and
ea_extend turns the pairs into plain stabilizers on appended qubits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import qla
from .codes import PauliOperator, QuantumCode
from .errors import ConsistencyError, ContractError, InvalidStabilizerError


# ---------------------------------------------------------------- GF(2) kit

def pauli_to_gf2(p: PauliOperator) -> np.ndarray:
    """Row vector [x_1..x_n | z_1..z_n] over GF(2), qubit 1 first."""
    n = p.n
    out = np.zeros(2 * n, dtype=np.uint8)
    for q in range(1, n + 1):
        bit = 1 << (n - q)
        out[q - 1] = 1 if p.x_bits & bit else 0
        out[n + q - 1] = 1 if p.z_bits & bit else 0
    return out


def gf2_row_reduce(a: np.ndarray):
    """Row echelon form; returns (reduced copy, pivot column list)."""
    a = (a.copy() % 2).astype(np.uint8)
    pivots, r = [], 0
    for c in range(a.shape[1]):
        if r == a.shape[0]:
            break
        hits = np.flatnonzero(a[r:, c])
        if hits.size == 0:
            continue
        pr = r + int(hits[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        for i in range(a.shape[0]):
            if i != r and a[i, c]:
                a[i] ^= a[r]
        pivots.append(c)
        r += 1
    return a, pivots


def gf2_rank(a: np.ndarray) -> int:
    if a.size == 0:
        return 0
    return len(gf2_row_reduce(a)[1])


def gf2_nullspace(a: np.ndarray) -> np.ndarray:
    """Basis rows for {v : a @ v = 0 mod 2}."""
    m = a.shape[1]
    red, pivots = gf2_row_reduce(a)
    free = [c for c in range(m) if c not in pivots]
    basis = np.zeros((len(free), m), dtype=np.uint8)
    for k, f in enumerate(free):
        basis[k, f] = 1
        for r, pc in enumerate(pivots):
            if red[r, f]:
                basis[k, pc] = 1
    return basis


# ------------------------------------------------------------------- groups

def _identity(n: int) -> PauliOperator:
    return PauliOperator(n, 0, 0, 0)


def _canonicalize(paulis, n):
    """Drop GF(2)-redundant generators, verifying every dependency is +I.

    Keeps the surviving generators in input order.  Dependencies are
    evaluated in pivot order; for commuting generators the outcome is
    order-free.  A generator squaring to -I, or a dependency composing to
    anything but +I, is rejected.
    """
    kept = []
    echelon = []  # (pivot column, gf2 row, operator with exactly that row)
    for g in paulis:
        if g.n != n:
            raise ContractError(f"generator {g} acts on {g.n} qubits, group has {n}")
        if not g.is_hermitian():
            raise InvalidStabilizerError(f"generator {g} squares to -I")
        v = pauli_to_gf2(g)
        op = g
        for pcol, evec, eop in echelon:
            if v[pcol]:
                v = v ^ evec
                op = eop.adjoint().compose(op)
        if v.any():
            pivot = int(np.flatnonzero(v)[0])
            # keep reduced rows fully reduced against each other
            for k, (pcol, evec, eop) in enumerate(echelon):
                if evec[pivot]:
                    echelon[k] = (pcol, evec ^ v, op.adjoint().compose(eop))
            echelon.append((pivot, v, op))
            kept.append(g)
        else:
            if op.phase_exp != 0:
                phase, _ = op.to_string()
                raise InvalidStabilizerError(
                    f"generators are dependent with inconsistent phase ({phase}I in group)")
    return tuple(kept)


@dataclass(frozen=True)
class StabilizerGroup:
    """Pauli subgroup given by independent phase-tracked generators."""

    n: int
    generators: tuple[PauliOperator, ...]

    @classmethod
    def from_generators(cls, paulis, n: int | None = None) -> "StabilizerGroup":
        paulis = tuple(paulis)
        if n is None:
            if not paulis:
                raise ContractError("cannot infer qubit count from an empty generator list")
            n = paulis[0].n
        return cls(n=n, generators=_canonicalize(paulis, n))

    @classmethod
    def from_strings(cls, strings, phases=None, n: int | None = None) -> "StabilizerGroup":
        strings = tuple(strings)
        if phases is None:
            phases = ("+",) * len(strings)
        if len(phases) != len(strings):
            raise ContractError("phases list length does not match generators")
        gens = tuple(PauliOperator.from_string(s, ph) for s, ph in zip(strings, phases))
        return cls.from_generators(gens, n=n)

    @property
    def num_generators(self) -> int:
        return len(self.generators)

    @property
    def is_abelian(self) -> bool:
        gens = self.generators
        return all(a.commutes_with(b) for a, b in itertools.combinations(gens, 2))

    def gf2_matrix(self) -> np.ndarray:
        if not self.generators:
            return np.zeros((0, 2 * self.n), dtype=np.uint8)
        return np.array([pauli_to_gf2(g) for g in self.generators], dtype=np.uint8)


def group_from_json(data: dict) -> StabilizerGroup:
    try:
        n = int(data["n"])
        gens = list(data["generators"])
    except (KeyError, TypeError) as exc:
        raise ContractError(f"malformed stabilizer JSON: {exc}") from exc
    phases = data.get("phases")
    for s in gens:
        if len(s) != n:
            raise ContractError(f"generator {s!r} has length {len(s)}, expected {n}")
    return StabilizerGroup.from_strings(gens, phases=phases, n=n)


# -------------------------------------------------- symplectic Gram-Schmidt

@dataclass(frozen=True)
class SymplecticForm:
    """Generators reorganized into anticommuting pairs plus a commuting rest."""

    n: int
    pairs: tuple[tuple[PauliOperator, PauliOperator], ...]
    isotropic: tuple[PauliOperator, ...]

    @property
    def c(self) -> int:
        return len(self.pairs)

    @property
    def s(self) -> int:
        return len(self.isotropic)


def symplectic_gram_schmidt(group: StabilizerGroup) -> SymplecticForm:
    """Split generators into hyperbolic pairs and an isotropic remainder.

    Scans in input order; the first anticommuting partner of the current
    generator completes its pair, and every later generator is multiplied
    into commutation with that pair.  Deterministic for a fixed input.
    """
    work = [g for g in group.generators if g.x_bits | g.z_bits]
    pairs, isotropic = [], []
    while work:
        e = work.pop(0)
        partner = next((i for i, h in enumerate(work) if not e.commutes_with(h)), None)
        if partner is None:
            isotropic.append(e)
            continue
        p = work.pop(partner)
        fixed = []
        for h in work:
            if not h.commutes_with(e):
                h = h.compose(p)
            if not h.commutes_with(p):
                h = h.compose(e)
            fixed.append(h)
        pairs.append((e, p))
        work = fixed
    form = SymplecticForm(n=group.n, pairs=tuple(pairs), isotropic=tuple(isotropic))
    _check_form(form, group)
    return form


def _check_form(form: SymplecticForm, group: StabilizerGroup) -> None:
    flat = [g for pair in form.pairs for g in pair] + list(form.isotropic)
    for i, a in enumerate(flat):
        for j in range(i + 1, len(flat)):
            b = flat[j]
            same_pair = (i // 2 == j // 2) and i < 2 * form.c and j < 2 * form.c
            if same_pair == a.commutes_with(b):
                raise ConsistencyError("pairing violates the symplectic form")
    before = group.gf2_matrix()
    after = np.array([pauli_to_gf2(g) for g in flat], dtype=np.uint8) if flat else \
        np.zeros((0, 2 * group.n), dtype=np.uint8)
    if gf2_rank(before) != gf2_rank(np.vstack([before, after]) if flat else before):
        raise ConsistencyError("pairing changed the generated group")
    if len(flat) != group.num_generators:
        raise ConsistencyError("pairing lost generators")


def ea_extend(form: SymplecticForm) -> StabilizerGroup:
    """Append one qubit per pair to make everything commute.

    Pair i gets qubit n+i: the first member gains X there, the second gains
    Z, and isotropic generators gain identity.  The output is an ordinary
    abelian stabilizer group on n+c qubits, generators ordered pair by pair
    then isotropic.
    """
    n, c = form.n, form.c
    gens = []
    for i, (xg, zg) in enumerate(form.pairs, start=1):
        bit = 1 << (c - i)
        gens.append(PauliOperator(n + c, (xg.x_bits << c) | bit, xg.z_bits << c, xg.phase_exp))
        gens.append(PauliOperator(n + c, zg.x_bits << c, (zg.z_bits << c) | bit, zg.phase_exp))
    for g in form.isotropic:
        gens.append(PauliOperator(n + c, g.x_bits << c, g.z_bits << c, g.phase_exp))
    out = StabilizerGroup.from_generators(gens, n=n + c)
    if not out.is_abelian:
        raise ConsistencyError("extension failed to commute")
    return out


# ------------------------------------------------------- codespace and sets

def _project(group: StabilizerGroup, vecs: np.ndarray) -> np.ndarray:
    """Apply prod (I + g)/2 to a state vector, one generator at a time."""
    for g in group.generators:
        vecs = (vecs + g.apply(vecs)) / 2
    return vecs


def _projector_diagonal(group: StabilizerGroup) -> np.ndarray:
    """<j|P|j> for every basis state j, from the Z-type subgroup alone.

    P is the average of the 2^r group elements, and only elements without
    an X part have diagonal entries, so with h_1..h_t generating those,
    <j|P|j> = 2^-r prod_i (1 + <j|h_i|j>), which is 0 or 2^(t-r).  Every
    factor is exactly 0 or 2, so the result is exact.
    """
    n, r = group.n, group.num_generators
    ones = np.ones(1 << n)
    diag = np.full(1 << n, 2.0 ** -r)
    for h in _vanishing_products(group, range(n)):
        diag *= 1 + h.apply(ones).real
    return diag


def codewords(group: StabilizerGroup, label: str = "") -> QuantumCode:
    """Orthonormal basis of the joint +1 eigenspace of an abelian group.

    The projector P = prod (I + g)/2 is never formed: each column P e_j is
    one pass of the generators over e_j, and the diagonal of P comes from the
    Z-type subgroup, so memory stays O(K 2^n) and K 2^n is size-checked
    before anything is built.  The basis comes from pivoted column selection
    (largest remaining diagonal first, deflated in order) with the package
    gauge convention.
    """
    if not group.is_abelian:
        raise ContractError("codewords requires an abelian group; run ea_extend first")
    n = group.n
    dim = 1 << n
    qla.check_dim((1 << (n - group.num_generators)) * dim)
    diag = _projector_diagonal(group)
    k_float = float(diag.sum())
    k = round(k_float)
    if abs(k_float - k) > 1e-6:
        raise ConsistencyError(f"projector trace {k_float} is not an integer")
    if k < 1:
        raise InvalidStabilizerError("joint eigenspace is empty (inconsistent phases)")

    rem = diag
    rows = []
    for _ in range(k):
        j = int(np.argmax(rem))
        col = np.zeros(dim, dtype=complex)
        col[j] = 1.0
        col = _project(group, col)
        for v in rows:
            col = col - v * (v.conj() @ col)
        norm = np.linalg.norm(col)
        if norm < 1e-8:
            raise ConsistencyError("projector rank fell short of its trace")
        v = col / norm
        rows.append(v)
        rem = rem - np.abs(v) ** 2
    basis = qla.gauge_fix_columns(np.array(rows).T).T
    return QuantumCode(n, basis, label=label)


def _outside_columns(n: int, subset) -> list[int]:
    inside = set(subset)
    outside = [q for q in range(1, n + 1) if q not in inside]
    return [q - 1 for q in outside] + [n + q - 1 for q in outside]


def _vanishing_products(group: StabilizerGroup, cols) -> list[PauliOperator]:
    """Independent generator products whose GF(2) rows vanish on `cols`.

    One product per nullspace basis vector of the restricted generator
    matrix, composed in ascending generator order (order-free when the
    group is abelian).
    """
    coeffs = gf2_nullspace(group.gf2_matrix()[:, list(cols)].T)
    gens = []
    for alpha in coeffs:
        prod = _identity(group.n)
        for i in np.flatnonzero(alpha):
            prod = prod.compose(group.generators[int(i)])
        gens.append(prod)
    return gens


def subgroup_on(group: StabilizerGroup, subset) -> StabilizerGroup:
    """Subgroup of elements supported entirely inside the given qubit set.

    Solved over GF(2): coefficient vectors whose combination vanishes on the
    complement's columns.  Products are composed in ascending generator
    order (order-free when the group is abelian).
    """
    subset = tuple(subset)
    for q in subset:
        if not 1 <= q <= group.n:
            raise ContractError(f"qubit label {q} outside 1..{group.n}")
    if not group.generators:
        return StabilizerGroup(n=group.n, generators=())
    cols = _outside_columns(group.n, subset)
    if not cols:
        return group
    return StabilizerGroup.from_generators(_vanishing_products(group, cols), n=group.n)


def _normalizer_basis(group: StabilizerGroup) -> np.ndarray:
    """GF(2) basis of the commutant of the group (phases ignored)."""
    a = group.gf2_matrix()
    n = group.n
    if a.shape[0] == 0:
        return np.eye(2 * n, dtype=np.uint8)
    swapped = np.hstack([a[:, n:], a[:, :n]])  # symplectic form pairs x with z
    return gf2_nullspace(swapped)


def is_correctable_stab(group: StabilizerGroup, subset) -> bool:
    """Erasure correctability of the qubit set, decided purely over GF(2).

    The set is correctable exactly when every commutant element supported
    inside it is (up to phase) a stabilizer, i.e. the two supported-inside
    subspaces have equal dimension.
    """
    subset = tuple(subset)
    s_dim = subgroup_on(group, subset).num_generators
    nbasis = _normalizer_basis(group)
    cols = _outside_columns(group.n, subset)
    if not cols or nbasis.shape[0] == 0:
        n_dim = nbasis.shape[0]
    else:
        n_dim = gf2_nullspace(nbasis[:, cols].T).shape[0]
    return n_dim == s_dim
