"""Code containers, Pauli operators, fixtures, the partial trace of an
erased set, the Knill-Laflamme rule, and the distance search.

A Pauli is stored as i^phase_exp * X^x Z^z with bit-packed x and z masks.
Bit (n - q) of a mask belongs to qubit q, so masks read like the qubit
string itself when printed in binary (qubit 1 leftmost).  apply_paulis is
the one action of Paulis on states: any number of Paulis on a state or a
stack of states, one gather through a cached index table.  kl_check is
the one dense Knill-Laflamme rule, P E_a^dag E_b P = lambda_ab P within
residual_tol, read as "the codeword factor of the blocks is the
identity": an erased set's partial trace (cut_trace), whose codeword
factor is the identity exactly when every Pauli on the set is detected,
or a recovery's Gram blocks.  min_distance is the one distance search,
for an explicit basis and a stabilizer group alike, each deciding an
erased set by its own verdict.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import qla
from .config import HERMITICITY_TOL, RESIDUAL_TOL
from .errors import ContractError

_PHASE_LABELS = {0: "+", 1: "+i", 2: "-", 3: "-i"}
_PHASE_EXPS = {"+": 0, "+i": 1, "i": 1, "-": 2, "-i": 3}

# letter -> (x, z, phase_exp contribution); Y = i * X Z
_LETTERS = {"I": (0, 0, 0), "X": (1, 0, 0), "Z": (0, 1, 0), "Y": (1, 1, 1)}


@dataclass(frozen=True)
class PauliOperator:
    """n-qubit Pauli with explicit phase, exact group arithmetic on ints."""

    n: int
    x_bits: int
    z_bits: int
    phase_exp: int = 0

    def __post_init__(self):
        mask = (1 << self.n) - 1
        if self.x_bits & ~mask or self.z_bits & ~mask:
            raise ContractError("x/z mask has bits outside the register")
        object.__setattr__(self, "phase_exp", self.phase_exp % 4)

    @classmethod
    def from_string(cls, letters: str, phase: str = "+") -> "PauliOperator":
        if phase not in _PHASE_EXPS:
            raise ContractError(f"unknown phase label {phase!r}")
        x = z = 0
        exp = _PHASE_EXPS[phase]
        for ch in letters:
            if ch not in _LETTERS:
                raise ContractError(f"unknown Pauli letter {ch!r} in {letters!r}")
            lx, lz, lp = _LETTERS[ch]
            x = (x << 1) | lx
            z = (z << 1) | lz
            exp += lp
        return cls(len(letters), x, z, exp)

    def to_string(self) -> tuple[str, str]:
        """Return (phase label, letter string), undoing the Y = iXZ bookkeeping."""
        out = []
        exp = self.phase_exp
        for q in range(1, self.n + 1):
            bit = 1 << (self.n - q)
            x, z = bool(self.x_bits & bit), bool(self.z_bits & bit)
            letter = "I" if not x and not z else "X" if x and not z else "Z" if not x else "Y"
            if letter == "Y":
                exp -= 1
            out.append(letter)
        return _PHASE_LABELS[exp % 4], "".join(out)

    def __str__(self):
        phase, letters = self.to_string()
        return letters if phase == "+" else f"{phase}{letters}"

    def is_hermitian(self) -> bool:
        # i^a X^x Z^z is Hermitian iff a and |x & z| have the same parity
        return (self.phase_exp - (self.x_bits & self.z_bits).bit_count()) % 2 == 0

    def compose(self, other: "PauliOperator") -> "PauliOperator":
        """Operator product self @ other with exact phase tracking."""
        if other.n != self.n:
            raise ContractError("cannot compose Paulis on different registers")
        exp = self.phase_exp + other.phase_exp + 2 * (self.z_bits & other.x_bits).bit_count()
        return PauliOperator(self.n, self.x_bits ^ other.x_bits,
                             self.z_bits ^ other.z_bits, exp)

    def commutes_with(self, other: "PauliOperator") -> bool:
        """Symplectic commutation test; phases are irrelevant here."""
        if other.n != self.n:
            raise ContractError(f"operator lengths differ: {self.n} vs {other.n}")
        s = (self.x_bits & other.z_bits).bit_count() + (self.z_bits & other.x_bits).bit_count()
        return s % 2 == 0

    def apply(self, state: np.ndarray) -> np.ndarray:
        """Apply to a state vector or to each column of a (2^n, k) array."""
        return apply_paulis((self,), state)[:, 0]


@functools.cache
def _register_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The basis-state labels g = 0 .. 2^n - 1 and the sign (-1)^|g| of
    each, both read-only."""
    index = np.arange(1 << n)
    sign = 1.0 - 2.0 * (np.bitwise_count(index) & 1)
    index.flags.writeable = sign.flags.writeable = False
    return index, sign


def apply_paulis(paulis, states: np.ndarray) -> np.ndarray:
    """Every Pauli applied to a state vector or to each column of a (2^n, k) array.

    Returns the results stacked on axis 1, shape (2^n, E, ...) for E Paulis:
    out[g, e] = i^p_e (-1)^|(g ^ x_e) & z_e| states[g ^ x_e] for the e-th
    Pauli i^p_e X^x_e Z^z_e.  This is one gather through the register's
    index table, times a factor read off its sign table; the factor stays
    real unless some phase is i or -i.  Every Pauli must act on the n
    qubits that the leading dimension holds.
    """
    paulis = tuple(paulis)
    states = np.asarray(states, dtype=complex)
    dim = states.shape[0] if states.ndim else 0
    n = max(dim.bit_length() - 1, 0)
    if dim != 1 << n or any(p.n != n for p in paulis):
        raise ContractError(f"state has leading dim {dim}, expected 2^n for the "
                            f"Paulis on {sorted({p.n for p in paulis})} qubits")
    index, sign = _register_tables(n)
    source = index[:, None] ^ np.array([p.x_bits for p in paulis], dtype=np.intp)
    factor = sign[source & np.array([p.z_bits for p in paulis], dtype=np.intp)]
    phase = [p.phase_exp for p in paulis]
    if any(phase):                                  # i^p = (-1)^(p >> 1) i^(p & 1)
        factor *= np.array([1 - (k & 2) for k in phase])
    out = states[source]
    trailing = (1,) * (states.ndim - 1)
    halves = out.view(float).reshape(out.shape + (2,))            # real and imaginary parts
    halves *= factor.reshape(factor.shape + trailing + (1,))       # no complex copy of factor
    if any(k & 1 for k in phase):
        out *= np.array([1j if k & 1 else 1 for k in phase]).reshape(-1, *trailing)
    return out


@dataclass(frozen=True)
class QuantumCode:
    """A K-dimensional subspace of n qubits given by an explicit basis.

    n is at least 1 and basis has shape (K, 2^n), one codeword per row;
    the rows must be orthonormal within HERMITICITY_TOL.  verdict decides
    an erased set.
    """

    n: int
    basis: np.ndarray
    label: str = ""

    def __post_init__(self):
        if self.n < 1:
            raise ContractError(f"need at least one qubit, got n={self.n}")
        b = np.array(self.basis, dtype=complex)
        if b.ndim != 2 or b.shape[1] != 2 ** self.n:
            raise ContractError(f"basis shape {b.shape} does not match n={self.n}")
        if b.shape[0] < 1:
            raise ContractError("need at least one codeword")
        if not np.all(np.isfinite(b)):
            raise ContractError("basis contains non-finite entries")
        gram = b.conj() @ b.T
        if np.linalg.norm(gram - np.eye(b.shape[0])) > HERMITICITY_TOL * max(1.0, b.shape[0]):
            raise ContractError("code basis is not orthonormal within tolerance")
        b.flags.writeable = False
        object.__setattr__(self, "basis", b)

    @property
    def k_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return 2 ** self.n

    def verdict(self, subset, residual_tol: float = RESIDUAL_TOL) -> tuple[float, bool]:
        """(residual, every Pauli on the erased set detected): kl_check on
        its cut_trace, size-checked first."""
        residual, detected = kl_check(cut_trace(self, [subset]), residual_tol)
        return float(residual[0]), bool(detected[0])


def projector(code: QuantumCode) -> np.ndarray:
    """Codespace projector V V^dag."""
    qla.check_dim(code.dim ** 2)
    v = code.basis.T
    return v @ v.conj().T


def dicke(n: int, excitations: int) -> np.ndarray:
    """Symmetric n-qubit state with a fixed number of 1s, uniform amplitudes."""
    if not 0 <= excitations <= n:
        raise ContractError(f"excitation count {excitations} outside 0..{n}")
    qla.check_dim(1 << n)
    v = (np.bitwise_count(np.arange(1 << n)) == excitations).astype(complex)
    return v / math.sqrt(math.comb(n, excitations))


_NONTRIVIAL_LETTERS = ((1, 0), (0, 1), (1, 1))  # (x, z) of X, Z and XZ


def paulis_of_weight(n: int, qubits, weight: int):
    """Phase-free Paulis X^x Z^z of exactly the given weight, support in qubits.

    Supports run in lexicographic order and, on each support, the letters
    X, Z, XZ per qubit with the last qubit cycling fastest.  Recovery sets
    in simulate index their errors in this order.
    """
    for support in itertools.combinations(sorted(qubits), weight):
        for letters in itertools.product(_NONTRIVIAL_LETTERS, repeat=weight):
            x = z = 0
            for q, (lx, lz) in zip(support, letters):
                bit = 1 << (n - q)
                x |= bit * lx
                z |= bit * lz
            yield PauliOperator(n, x, z)


def cut_trace(code: QuantumCode, subsets) -> np.ndarray:
    """The partial traces T_ij = A_i^dag A_j of the codewords cut across erased sets.

    subsets is an (S, b) array of S erased sets of one size; one set is
    the stack of one.  A_i is codeword i as a kept x erased matrix
    (qla.bipartite_matrix), so T has shape (S, K, 2^b, K, 2^b), and holds
    everything the erasure analysis reads about a set: the verdict
    (kl_check: T = I_K (x) tau), the B-marginal tau^T = (sum_i T_ii)^T / K,
    and each codeword's kept-side spectrum, that of T_ii.  The S K^2 4^b
    entries of T and the S K 2^n of the cut are size-checked first.
    """
    erased = np.asarray(subsets)
    count, b = erased.shape
    k, de = code.k_dim, 1 << b
    qla.check_dim(count * k * k * de * de)
    qla.check_dim(count * code.basis.size)
    a = qla.bipartite_matrix(code.basis, erased).reshape(count, 1 << (code.n - b), k * de)
    return (a.conj().swapaxes(-2, -1) @ a).reshape(count, k, de, k, de)


def kl_check(blocks: np.ndarray, residual_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The Knill-Laflamme rule: the codeword factor of the blocks is the identity.

    blocks X has shape (S, ..., K, D, K, D), X[..., i, :, j, :] the D x D
    block of codewords i and j.  With tau = sum_i X_ii / K, the residual is
    sqrt(D) ||X - I_K (x) tau||_F, computed on the deviation itself, and the
    verdict is whether it is within residual_tol; both come back as arrays
    of the leading shape.  For an erased set's cut_trace (D = 2^b) this is,
    by Parseval, the root-sum-square over the 4^b Paulis E_F on the set of
    ||P E_F P - c_F P||_F, so it is zero exactly when every E_F is
    detected, and can only grow with the set.  A recovery's m^2 Gram
    blocks V^dag E_a^dag E_b V come as D = 1, one block per error pair
    (simulate.kl_recovery).
    """
    k, de = blocks.shape[-4:-2]
    tau = np.trace(blocks, axis1=-4, axis2=-2) / k
    dev = blocks - np.eye(k)[:, None, :, None] * tau[..., None, :, None, :]
    residual = math.sqrt(de) * np.linalg.norm(dev.reshape(dev.shape[:-4] + (-1,)), axis=-1)
    return residual, residual <= residual_tol


def min_distance(source, max_weight: int | None = None,
                 residual_tol: float = RESIDUAL_TOL) -> int | None:
    """The distance: the smallest size of an erased set that is not correctable.

    source is a QuantumCode or an abelian stab.StabilizerGroup; each has
    n, k_dim and verdict(subset, residual_tol), its own (residual,
    correctable) on a set (for a group exact over GF(2), with no tolerance).
    A set fails exactly when some Pauli on it goes undetected, so scanning
    sizes b = 1..max_weight (default n), each in itertools.combinations
    order, the first size with a failing set is the distance.  Returns None
    if every scanned set is correctable (the distance is then at least
    max_weight + 1), and without scanning when K = 1, which detects every
    Pauli.  A negative max_weight, or a nonabelian group, is a
    ContractError.
    """
    if max_weight is not None and max_weight < 0:
        raise ContractError(f"max_weight must be nonnegative, got {max_weight}")
    if source.k_dim == 1:
        return None
    n = source.n
    limit = n if max_weight is None else min(max_weight, n)
    for b in range(1, limit + 1):
        for subset in itertools.combinations(range(1, n + 1), b):
            if not source.verdict(subset, residual_tol)[1]:
                return b
    return None


def code_to_json(code: QuantumCode) -> dict:
    rows = []
    for row in code.basis:
        entries = []
        for idx in np.flatnonzero(row):
            amp = row[idx]
            entries.append({"bits": format(int(idx), f"0{code.n}b"),
                            "re": float(amp.real), "im": float(amp.imag)})
        rows.append(entries)
    return {"n": code.n, "k_dim": code.k_dim, "label": code.label, "basis": rows}


def code_from_json(data: dict) -> QuantumCode:
    try:
        n, k_dim, rows = data["n"], data["k_dim"], data["basis"]
    except (KeyError, TypeError) as exc:
        raise ContractError(f"malformed code JSON: {exc}") from exc
    if type(n) is not int or type(k_dim) is not int or not isinstance(rows, list) \
            or not all(isinstance(r, list) for r in rows):
        raise ContractError("malformed code JSON: needs int n and k_dim and a list of basis rows")
    if n < 1:
        raise ContractError("malformed code JSON: n must be at least 1")
    if len(rows) != k_dim:
        raise ContractError(f"k_dim={k_dim} but basis has {len(rows)} rows")
    qla.check_dim(k_dim << n)
    basis = np.zeros((k_dim, 1 << n), dtype=complex)
    for i, entries in enumerate(rows):
        for entry in entries:
            try:
                bits, re, im = entry["bits"], float(entry["re"]), float(entry["im"])
            except (KeyError, TypeError) as exc:
                raise ContractError(
                    f"malformed basis entry {entry!r} in row {i}: needs bits, re, im"
                ) from exc
            if not isinstance(bits, str) or len(bits) != n or set(bits) - {"0", "1"}:
                raise ContractError(f"bad bitstring {bits!r} for n={n}")
            basis[i, int(bits, 2)] = complex(re, im)
    return QuantumCode(n=n, basis=basis, label=str(data.get("label", "")))


def _pair_state(n, bits0, bits1, amp1):
    v = np.zeros(1 << n, dtype=complex)
    v[int(bits0, 2)] = 1.0
    v[int(bits1, 2)] = amp1
    return v / np.linalg.norm(v)


FIXTURE_NAMES = ("five_qubit", "steane", "pi_4_2_2", "pi_7_2_3", "xp_7_8_2")

_FIVE_QUBIT_GENERATORS = ("XZZXI", "ZYYZI", "ZZXIX", "YYZIZ")
_STEANE_GENERATORS = ("IIIXXXX", "XIXIXIX", "IXXIIXX",
                      "IIIZZZZ", "ZIZIZIZ", "IZZIIZZ")


def fixture(name: str) -> QuantumCode:
    """Built-in test codes addressed by name; see FIXTURE_NAMES."""
    if name == "five_qubit":
        from . import stab
        group = stab.StabilizerGroup.from_strings(_FIVE_QUBIT_GENERATORS)
        return stab.codewords(group, label="five_qubit")
    if name == "steane":
        from . import stab
        group = stab.StabilizerGroup.from_strings(_STEANE_GENERATORS)
        return stab.codewords(group, label="steane")
    if name == "pi_4_2_2":
        s3, s6 = math.sqrt(3) / 3, math.sqrt(6) / 3
        basis = [s3 * dicke(4, 0) + s6 * dicke(4, 3),
                 s6 * dicke(4, 1) - s3 * dicke(4, 4)]
        return QuantumCode(4, np.array(basis), label="pi_4_2_2")
    if name == "pi_7_2_3":
        a15, a7, a21 = math.sqrt(15) / 8, math.sqrt(7) / 8, math.sqrt(21) / 8
        basis = [a15 * dicke(7, 0) + a7 * dicke(7, 2) + a21 * dicke(7, 4) - a21 * dicke(7, 6),
                 -a21 * dicke(7, 1) + a21 * dicke(7, 3) + a7 * dicke(7, 5) + a15 * dicke(7, 7)]
        return QuantumCode(7, np.array(basis), label="pi_7_2_3")
    if name == "xp_7_8_2":
        w = np.exp(1j * np.pi / 8)
        rows = [("0000000", "1111111", 12), ("0000111", "1111000", 0),
                ("0001011", "1110100", 14), ("0001101", "1110010", 12),
                ("0011110", "1100001", 0), ("0011001", "1100110", 8),
                ("0010101", "1101010", 10), ("0010011", "1101100", 12)]
        basis = [_pair_state(7, b0, b1, w ** p) for b0, b1, p in rows]
        return QuantumCode(7, np.array(basis), label="xp_7_8_2")
    raise ContractError(f"unknown fixture {name!r}; choose from {FIXTURE_NAMES}")
