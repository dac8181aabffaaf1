"""Stabilizer groups over GF(2) with exact phase bookkeeping.

Generators are bit-packed (one x mask and one z mask per generator) and all
group arithmetic goes through PauliOperator.compose, so phases are never
approximated.  All GF(2) work is one elimination on those masks, each row
carrying its own index bit: its pivots count the rank, and each dependent
generator comes with the generators that cancel it, composed only where a
phase is read (independent generators, Z-type and in-set subgroups).
A set B of b qubits is correctable iff rank(S|_B) + s(B) = 2b: the symplectic
form on B is nondegenerate, so the Paulis on B commuting with S span
2b - rank(S|_B) dimensions, and B is correctable when the s(B) of them
inside S are all of them.  The same two eliminations give s(B), and so
C = 2^(b - s), and the residual the dense rule codes.kl_check reports,
from the count of Paulis on B that commute with S but are not in it
(verdict_and_s, read by StabilizerGroup.verdict for codes.min_distance
and the correctability gate, and by analysis for its report); one more,
on the rows of the group that fixes each codeword, gives a failing set's
kept ranks (codeword_dim_on).  The codewords
come from the same elimination, on the x bits: each is one orbit of basis
states under the generators with independent X parts, anchored at a state
that the Z-type subgroup fixes with eigenvalue +1, so building all K of
them costs one 2^n pass per Z-type generator plus K 2^r_X writes, and the
K x 2^n basis is size-checked before any of it.  Nonabelian groups
are allowed; the symplectic Gram-Schmidt pass splits them into
anticommuting pairs plus a commuting remainder, and ea_extend turns the
pairs into plain stabilizers on appended qubits.  The codespace and its
dimension, the subgroup inside a set and the correctability verdict need
an abelian group and refuse any other.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import qla
from .codes import PauliOperator, QuantumCode
from .errors import ConsistencyError, ContractError, InvalidStabilizerError


# ------------------------------------------------------------ GF(2) rows

def _rows(ops) -> tuple[int, ...]:
    """Each op's GF(2) row [x_1..x_n | z_1..z_n], qubit 1's x bit on top,
    with its own index bit appended below: row << r | 1 << i for op i of r."""
    r = len(ops)
    return tuple(((g.x_bits << g.n | g.z_bits) << r) | 1 << i for i, g in enumerate(ops))


def _support_mask(n: int, subset) -> int:
    """Row bits (x and z) of the given qubits, each label checked."""
    m = 0
    for q in subset:
        if not 1 <= q <= n:
            raise ContractError(f"qubit label {q} outside 1..{n}")
        m |= 1 << (n - q)
    return (m << n) | m


def _eliminate(rows, mask: int) -> tuple[dict[int, int], dict[int, int]]:
    """Gaussian elimination over GF(2) on the rows (as _rows makes them)
    restricted to `mask`, their index bits always kept.

    Each row is reduced by the kept pivot rows, looked up by its top set
    bit, until its masked part vanishes or shows a new top bit and is kept.
    Returns the echelon {top bit length: row}, whose size is the GF(2)
    rank, and {i: combination} for each row i that depends on the rows
    before it: the index bits of the rows that cancel it on `mask`, i on
    top, the others kept rows, so the combination is unique.
    """
    r = len(rows)
    low = (1 << r) - 1
    mask = mask << r | low
    pivots, dependents = {}, {}
    for row in rows:
        v = row & mask
        while v > low:                      # the masked part is not yet zero
            top = v.bit_length()
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
        else:
            dependents[v.bit_length() - 1] = v
    return pivots, dependents


def _factors(ops, combination: int) -> list[PauliOperator]:
    """The ops whose index bits are set in `combination`, in index order;
    composed, commuting Hermitian ones give an order-free product."""
    return [g for i, g in enumerate(ops) if combination >> i & 1]


# ------------------------------------------------------------------- groups

def _canonicalize(paulis, n):
    """Drop GF(2)-redundant generators, verifying every dependency is +I.

    Keeps the surviving generators in input order.  A dependency (see
    _eliminate) whose generators pairwise commute has an order-free
    product, which must be +I; one with an anticommuting pair has no
    order-free sign and is not checked.  A generator squaring to -I, or a
    dependency composing to -I, is rejected at the first generator that
    shows it.
    """
    bad = next((i for i, g in enumerate(paulis) if g.n != n or not g.is_hermitian()),
               len(paulis))
    ops = paulis[:bad]
    _, dependents = _eliminate(_rows(ops), -1)  # every bit
    for combination in dependents.values():
        factors = _factors(ops, combination)
        if all(a.commutes_with(b) for a, b in itertools.combinations(factors, 2)):
            op = functools.reduce(PauliOperator.compose, factors)
            if op.phase_exp != 0:
                phase, _ = op.to_string()
                raise InvalidStabilizerError(
                    f"generators are dependent with inconsistent phase ({phase}I in group)")
    if bad < len(paulis):
        g = paulis[bad]
        if g.n != n:
            raise ContractError(f"generator {g} acts on {g.n} qubits, group has {n}")
        raise InvalidStabilizerError(f"generator {g} squares to -I")
    return tuple(g for i, g in enumerate(paulis) if i not in dependents)


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

    @functools.cached_property
    def is_abelian(self) -> bool:
        gens = self.generators
        return all(a.commutes_with(b) for a, b in itertools.combinations(gens, 2))

    @functools.cached_property
    def rows(self) -> tuple[int, ...]:
        """The generators' rows for _eliminate (_rows), built once per group."""
        return _rows(self.generators)

    @functools.cached_property
    def codeword_rows(self) -> tuple[int, ...]:
        """Rows (_rows) of the group that fixes each codeword up to signs,
        built once per group: the generators plus the Z-type Paulis Z^z
        that commute with all of them, z in the GF(2) null space of their
        x bits.  Codeword i is P|j_i> (codewords), and Z^z P|j_i> = P Z^z
        |j_i> = +-P|j_i>, so every codeword is a stabilizer state of this
        one group of dimension n, each with its own signs.  The null space
        comes from _eliminate on the columns of the x bits, one row per
        qubit carrying its own bit of a z mask.
        """
        n, gens = self.n, self.generators
        columns = [sum((g.x_bits >> q & 1) << i for i, g in enumerate(gens)) for q in range(n)]
        _, null = _eliminate([col << n | 1 << q for q, col in enumerate(columns)], -1)
        return _rows(gens + tuple(PauliOperator(n, 0, z) for z in null.values()))

    @property
    def k_dim(self) -> int:
        """Dimension 2^(n - r) of the codespace; needs an abelian group."""
        _require_abelian(self, "k_dim")
        return 1 << (self.n - self.num_generators)

    def verdict(self, subset, residual_tol: float | None = None) -> tuple[float, bool]:
        """(residual, correctable) of verdict_and_s; residual_tol is not read."""
        correctable, _, residual = verdict_and_s(self, subset)
        return residual, correctable


def _require_abelian(group: StabilizerGroup, what: str) -> None:
    if not group.is_abelian:
        raise ContractError(f"{what} requires an abelian group; run ea_extend first")


def group_from_json(data: dict) -> StabilizerGroup:
    try:
        n, gens, phases = data["n"], data["generators"], data.get("phases")
    except (KeyError, TypeError) as exc:
        raise ContractError(f"malformed stabilizer JSON: {exc}") from exc
    shapes = (type(n) is int, isinstance(gens, list), isinstance(phases, (list, type(None))))
    if not all(shapes) or not all(isinstance(s, str) for s in gens + (phases or [])):
        raise ContractError("malformed stabilizer JSON: needs int n, a list of generator strings "
                            "and optionally a list of phase strings")
    if n < 1:
        raise ContractError("malformed stabilizer JSON: n must be at least 1")
    for s in gens:
        if len(s) != n:
            raise ContractError(f"generator {s!r} has length {len(s)}, expected {n}")
    return StabilizerGroup.from_strings(gens, phases=phases, n=n)


# -------------------------------------------------- symplectic Gram-Schmidt

class SymplecticForm(NamedTuple):
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


def _hermitian(p: PauliOperator) -> PauliOperator:
    """p, or i p if p is anti-Hermitian."""
    return p if p.is_hermitian() else PauliOperator(p.n, p.x_bits, p.z_bits, p.phase_exp + 1)


def symplectic_gram_schmidt(group: StabilizerGroup) -> SymplecticForm:
    """Split generators into hyperbolic pairs and an isotropic remainder.

    Scans in input order; the first anticommuting partner of the current
    generator completes its pair, and every later generator is multiplied
    into commutation with that pair.  A generator that anticommutes with
    both members of a pair comes out of that step as an anti-Hermitian
    product; it takes a factor i when it leaves the work list, a sign
    choice that the nonabelian input leaves free.  Deterministic for a
    fixed input.
    """
    work = [g for g in group.generators if g.x_bits | g.z_bits]
    pairs, isotropic = [], []
    while work:
        e = _hermitian(work.pop(0))
        partner = next((i for i, h in enumerate(work) if not e.commutes_with(h)), None)
        if partner is None:
            isotropic.append(e)
            continue
        p = _hermitian(work.pop(partner))
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
    every = group.generators + tuple(flat)
    if len(_eliminate(group.rows, -1)[0]) != len(_eliminate(_rows(every), -1)[0]):
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

_UNIT_PHASES = np.array([1, 1j, -1, -1j])  # i^p for p = 0..3


def codewords(group: StabilizerGroup, label: str = "") -> QuantumCode:
    """Orthonormal basis of the joint +1 eigenspace of an abelian group, one
    orbit of basis states per codeword.

    Codeword i is P|j_i>, normalised, for the projector P = prod (I + g)/2,
    which is never formed.  One elimination on the x bits splits the group:
    its Z-type subgroup fixes which basis states j have P|j> != 0, those
    with <j|h|j> = +1 for each of its generators h, and the generators with
    independent X parts generate 2^r_X elements e = i^p X^x Z^z, one per X
    part, so that P|j> is proportional to sum_e i^p (-1)^|z & j| |j ^ x>.
    These orbits partition the +1 states.  Each codeword is anchored at the
    smallest state of its orbit, the one with no bit at any pivot of the X
    span, and the codewords come in ascending order of their anchors.  An
    anchor's amplitude is the identity element's, real positive, so the
    basis is built in the package gauge (first nonzero entry real
    positive).  The cost is one pass over the 2^n states per Z-type
    generator plus K 2^r_X writes, and K 2^n, the size of the basis, is
    checked first, before anything is built.  A group with no +1 state
    (inconsistent phases, which from_generators refuses) is an
    InvalidStabilizerError.
    """
    _require_abelian(group, "codewords")
    n = group.n
    dim = 1 << n
    qla.check_dim((1 << (n - group.num_generators)) * dim)
    gens = group.generators
    pivots, z_type = _eliminate(group.rows, (dim - 1) << n)   # the x bits
    index = np.arange(dim)
    plus = np.ones(dim, dtype=bool)
    for combination in z_type.values():       # <j|h|j> = i^p (-1)^|z & j|, p even
        h = functools.reduce(PauliOperator.compose, _factors(gens, combination))
        plus &= (np.bitwise_count(index & h.z_bits) & 1) == h.phase_exp >> 1
    x, z, p = np.zeros((3, 1), dtype=np.int64)
    movers = [g for i, g in enumerate(gens) if i not in z_type]
    for g in movers:                          # double the orbit elements e into e and g e
        x, z, p = (np.concatenate([x, g.x_bits ^ x]), np.concatenate([z, g.z_bits ^ z]),
                   np.concatenate([p, g.phase_exp + p + 2 * np.bitwise_count(g.z_bits & x)]))
    x_pivots = sum(1 << (top - 1) for top in pivots) >> (len(gens) + n)
    anchors = np.flatnonzero(plus & ((index & x_pivots) == 0))
    if not anchors.size:
        raise InvalidStabilizerError("joint eigenspace is empty (inconsistent phases)")
    exps = p + 2 * np.bitwise_count(anchors[:, None] & z)
    basis = np.zeros((anchors.size, dim), dtype=complex)
    basis[np.arange(anchors.size)[:, None], anchors[:, None] ^ x] = \
        _UNIT_PHASES[exps & 3] * 2.0 ** -len(movers)
    basis /= np.linalg.norm(basis[0])         # every codeword has the same norm
    return QuantumCode(n, basis, label=label)


def subgroup_on(group: StabilizerGroup, subset) -> StabilizerGroup:
    """Subgroup of elements supported entirely inside the given qubit set.

    Eliminates the generators on the row bits outside the set: each
    dependent generator, times the generators that cancel it there, is one
    generator of the subgroup (order-free because the group must be
    abelian; a nonabelian one is a ContractError).
    """
    _require_abelian(group, "subgroup_on")
    _, dependents = _eliminate(group.rows, ~_support_mask(group.n, subset))
    return StabilizerGroup.from_generators(
        (functools.reduce(PauliOperator.compose, _factors(group.generators, c))
         for c in dependents.values()), n=group.n)


def verdict_and_s(group: StabilizerGroup, subset) -> tuple[bool, int, float]:
    """Erasure correctability of the qubit set, decided purely over GF(2),
    s(B), the dimension of the subgroup inside it, and the residual of
    codes.kl_check on the codewords' partial trace across it.

    The set B is correctable exactly when every Pauli on B that commutes
    with the group is (up to phase) in it.  The symplectic form on B is
    nondegenerate, so the Paulis on B commuting with S form a space of
    dimension 2b - rank(S|_B); those lying in S form the space of
    subgroup_on, of dimension s(B) = r - rank(S|_out) with "out" the qubits
    outside B, inside the first because S is abelian.  So B is correctable
    iff u = 2b - rank(S|_B) - s(B) is 0: two ranks of the masked rows.  On
    the codespace a Pauli in S is +-I, one that anticommutes with S is 0,
    and each of the 2^s (2^u - 1) others is a traceless K x K unitary, of
    residual sqrt(K); the residual is their root-sum-square,
    sqrt(K 2^s (2^u - 1)), with K = 2^(n - r).  A nonabelian group is a
    ContractError.
    """
    _require_abelian(group, "verdict_and_s")
    inside, r = _support_mask(group.n, subset), len(group.rows)
    s_dim = r - len(_eliminate(group.rows, ~inside)[0])
    u = inside.bit_count() - len(_eliminate(group.rows, inside)[0]) - s_dim
    return u == 0, s_dim, math.sqrt(((1 << u) - 1) << (group.n - r + s_dim))


def is_correctable_stab(group: StabilizerGroup, subset) -> bool:
    """The verdict of verdict_and_s alone."""
    return verdict_and_s(group, subset)[0]


def codeword_dim_on(group: StabilizerGroup, subset) -> int:
    """s'(B), the dimension of the elements inside the qubit set of the
    group that fixes each codeword (StabilizerGroup.codeword_rows): n minus
    that group's rank outside the set, one elimination.  Each codeword is a
    pure stabilizer state, so its marginal on the set, and so on the kept
    qubits, has rank 2^(b - s'(B)).  A nonabelian group is a ContractError.
    """
    _require_abelian(group, "codeword_dim_on")
    return group.n - len(_eliminate(group.codeword_rows, ~_support_mask(group.n, subset))[0])
