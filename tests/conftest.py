import functools
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from eaqec import codes, qla, stab, structure
from eaqec.codes import PauliOperator, QuantumCode
from eaqec.config import RANK_TOL, RESIDUAL_TOL, UNITARITY_TOL
from eaqec.errors import ContractError

settings.register_profile(
    "suite", deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
settings.load_profile("suite")

_CACHE: dict[str, codes.QuantumCode] = {}

SHOR_GENS = ("ZZIIIIIII", "IZZIIIIII", "IIIZZIIII", "IIIIZZIII", "IIIIIIZZI",
             "IIIIIIIZZ", "XXXXXXIII", "IIIXXXXXX")
CYCLIC11_GENS = tuple("XXZZXXIXIXI"[i:] + "XXZZXXIXIXI"[:i] for i in range(11))


def shor_grid_generators(m: int) -> str:
    """Generalized Shor [[m^2,1,m]] on an m x m grid: ZZ on neighbours in
    each row, X on all 2m qubits of each pair of adjacent rows."""
    gens = []
    for row in range(m):
        for col in range(m - 1):
            letters = ["I"] * (m * m)
            letters[m * row + col] = letters[m * row + col + 1] = "Z"
            gens.append("".join(letters))
    for row in range(m - 1):
        gens.append("I" * (m * row) + "X" * (2 * m) + "I" * (m * (m - 2 - row)))
    return ",".join(gens)


def cached_fixture(name: str) -> codes.QuantumCode:
    if name not in _CACHE:
        _CACHE[name] = codes.fixture(name)
    return _CACHE[name]


@pytest.fixture(scope="session")
def five_qubit():
    return cached_fixture("five_qubit")


@pytest.fixture(scope="session")
def steane():
    return cached_fixture("steane")


@pytest.fixture(scope="session")
def pi_4_2_2():
    return cached_fixture("pi_4_2_2")


@pytest.fixture(scope="session")
def pi_7_2_3():
    return cached_fixture("pi_7_2_3")


@pytest.fixture(scope="session")
def xp_7_8_2():
    return cached_fixture("xp_7_8_2")


_I2 = np.eye(2, dtype=complex)
_X2 = np.array([[0, 1], [1, 0]], dtype=complex)
_Z2 = np.array([[1, 0], [0, -1]], dtype=complex)
_Y2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
_LETTER_MATS = {"I": _I2, "X": _X2, "Y": _Y2, "Z": _Z2}
_PHASE_VALUES = {"+": 1.0, "+i": 1j, "-": -1.0, "-i": -1j}


def oracle_matrix(letters: str, phase: str = "+") -> np.ndarray:
    """Dense matrix for a Pauli string, qubit 1 leftmost, via explicit kron.

    Independent of the library's bitmask implementation on purpose; every
    algebraic test oracles against this.
    """
    m = np.array([[1.0 + 0j]])
    for ch in letters:
        m = np.kron(m, _LETTER_MATS[ch])
    return _PHASE_VALUES[phase] * m


def pauli_matrix(p: PauliOperator) -> np.ndarray:
    """The dense 2^n x 2^n matrix of a Pauli, by the kron oracle on its letters."""
    qla.check_dim(4 ** p.n)
    phase, letters = p.to_string()
    return oracle_matrix(letters, phase)


def group_to_json(group: stab.StabilizerGroup) -> dict:
    """The stabilizer JSON that stab.group_from_json reads (--stab-json)."""
    phases, letters = [], []
    for g in group.generators:
        ph, ls = g.to_string()
        phases.append(ph)
        letters.append(ls)
    data = {"n": group.n, "generators": letters}
    if any(ph != "+" for ph in phases):
        data["phases"] = phases
    return data


def array_from_json(record: dict) -> np.ndarray:
    """Inverse of qla.array_to_json: the listed entries at their C-order flat
    positions, every other entry +0.0."""
    flat = np.zeros(math.prod(record["shape"]), dtype=complex)
    flat.real[record["index"]] = record["re"]
    flat.imag[record["index"]] = record["im"]
    return flat.reshape(record["shape"])


def assert_bit_exact(got: np.ndarray, source: np.ndarray) -> None:
    """got equals source bit for bit, real or complex, an exactly zero
    source entry (also -0.0 + 0.0j) counting as +0.0, which is how
    array_from_json reads an omitted entry."""
    source = np.asarray(source)
    want = np.where(source == 0, source.dtype.type(0), source)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(np.ascontiguousarray(got).view(np.uint64),
                          np.ascontiguousarray(want).view(np.uint64))


def perturbed_pi_7_2_3() -> codes.QuantumCode:
    """pi_7_2_3 perturbed by 1e-6 and re-orthonormalised: on {6,7} the
    marginal has three eigenvalues near 1/3 and one near 6e-11, and the
    residual, 1.5e-5, passes only a loosened tolerance."""
    code = cached_fixture("pi_7_2_3")
    rng = np.random.default_rng(0)
    noise = rng.normal(size=code.basis.shape) + 1j * rng.normal(size=code.basis.shape)
    q, _ = np.linalg.qr((code.basis + 1e-6 * noise).T)
    return codes.QuantumCode(7, q.T)


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density(rng: np.random.Generator, dim: int, rank: int | None = None) -> np.ndarray:
    r = rank or dim
    a = rng.normal(size=(dim, r)) + 1j * rng.normal(size=(dim, r))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


def _symplectic_product(x1: int, z1: int, x2: int, z2: int) -> int:
    return ((x1 & z2) ^ (z1 & x2)).bit_count() & 1


@st.composite
def abelian_groups(draw, max_n: int) -> stab.StabilizerGroup:
    """Random abelian stabilizer groups on 1..max_n qubits.

    Starts from Z on the first r qubits (independent and commuting) and
    applies random symplectic transvections v -> v + <v, h> h, which keep
    both properties; each generator then gets its Hermitian phase and a
    random sign.
    """
    n = draw(st.integers(1, max_n))
    r = draw(st.integers(0, n))
    rows = [(0, 1 << (n - 1 - i)) for i in range(r)]
    masks = st.integers(0, (1 << n) - 1)
    for hx, hz in draw(st.lists(st.tuples(masks, masks), max_size=3 * n)):
        rows = [(x ^ hx, z ^ hz) if _symplectic_product(x, z, hx, hz) else (x, z)
                for x, z in rows]
    signs = draw(st.lists(st.booleans(), min_size=r, max_size=r))
    gens = [codes.PauliOperator(n, x, z, (x & z).bit_count() % 2 + 2 * minus)
            for (x, z), minus in zip(rows, signs)]
    return stab.StabilizerGroup.from_generators(gens, n=n)


def _project(group: stab.StabilizerGroup, vecs: np.ndarray) -> np.ndarray:
    """Apply prod (I + g)/2 to a state vector, one generator at a time."""
    for g in group.generators:
        vecs = (vecs + g.apply(vecs)) / 2
    return vecs


def group_elements(group: stab.StabilizerGroup):
    """All 2^m group elements as PauliOperators, via explicit products."""
    elems = [PauliOperator(group.n, 0, 0)]
    for g in group.generators:
        elems += [e.compose(g) for e in elems]
    return elems


def _projector_diagonal(group: stab.StabilizerGroup) -> np.ndarray:
    """<j|P|j> for every basis state j, from the Z-type subgroup alone.

    P is the average of the 2^r group elements, and only elements without
    an X part have diagonal entries.  Those are taken from group_elements,
    and h_1..h_t generating them are picked greedily: an element is kept
    when its Z part is outside the span of the ones kept before.  Then
    <j|P|j> = 2^-r prod_i (1 + <j|h_i|j>), which is 0 or 2^(t-r).  Every
    factor is exactly 0 or 2, so the result is exact.
    """
    n, r = group.n, group.num_generators
    ones = np.ones(1 << n)
    diag = np.full(1 << n, 2.0 ** -r)
    span = {0}                                # Z parts of the kept elements' products
    for h in group_elements(group):
        if not h.x_bits and h.z_bits not in span:
            span |= {z ^ h.z_bits for z in span}
            diag *= 1 + h.apply(ones).real
    return diag


def projection_codewords(group: stab.StabilizerGroup) -> np.ndarray:
    """The (K, 2^n) codeword basis by projection, the route stab.codewords
    replaced: each column P e_j is one pass of the generators over e_j,
    chosen by largest remaining diagonal of P and deflated in order, then
    gauge fixed.  Exact in its choices, so its bits are the reference."""
    dim = 1 << group.n
    diag = _projector_diagonal(group)
    rem, rows = diag, []
    for _ in range(round(float(diag.sum()))):
        j = int(np.argmax(rem))
        col = np.zeros(dim, dtype=complex)
        col[j] = 1.0
        col = _project(group, col)
        for v in rows:
            col = col - v * (v.conj() @ col)
        v = col / np.linalg.norm(col)
        rows.append(v)
        rem = rem - np.abs(v) ** 2
    return qla.gauge_fix_columns(np.array(rows).T).T


def oracle_cut_index(n: int, erased) -> np.ndarray:
    """[s, r, c]: the basis index whose kept qubits (ascending) spell r and
    whose erased qubits, as row s of the (S, b) labels stores them, spell c.

    The reference for qla.bipartite_matrix on a stack of sets, sharing no
    code with its axis transpose: each index sums the place values 2^(n - q)
    of the qubits q whose bit is set in the pattern r c, so
    states[..., table] gathers every cut at once.
    """
    erased = np.asarray(erased, dtype=np.intp)
    count, b = erased.shape
    kept = [[q for q in range(1, n + 1) if q not in row] for row in erased.tolist()]
    order = np.concatenate([np.array(kept, dtype=np.intp).reshape(count, n - b), erased], axis=1)
    bits = (np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1   # bit 0 most significant
    return (bits @ (1 << (n - order)).T).T.reshape(count, 1 << (n - b), 1 << b)


# The erasure analysis one subset at a time, the reference for the stacked
# pass of analysis: the transpose cut, the moment transform of one partial
# trace, the Knill-Laflamme residual and the eigenvalues of eig_hermitian.

def kept_qubits(n: int, subset) -> tuple[int, ...]:
    """The labels of 1..n outside the erased set, ascending."""
    return tuple(q for q in range(1, n + 1) if q not in subset)


def oracle_cut_trace(code: QuantumCode, subset) -> np.ndarray:
    """T_ij = A_i^dag A_j for one subset, each codeword cut by one axis
    transpose (kept qubits ascending, codeword, erased qubits as given)."""
    kept = kept_qubits(code.n, subset)
    k, de = code.k_dim, 1 << len(subset)
    axes = list(kept) + [0] + list(subset)
    a = code.basis.reshape((k,) + (2,) * code.n).transpose(axes).reshape(1 << len(kept), k * de)
    return (a.conj().T @ a).reshape(k, de, k, de)


@functools.cache
def pauli_tables(b: int) -> tuple[np.ndarray, np.ndarray]:
    """Index and sign tables of the phase-free Paulis X^x Z^z on b qubits.

    Over local b-bit patterns, xor[x, f] = f ^ x and sign[z, f] =
    (-1)^|f & z|, so X^x Z^z |f> = sign[z, f] |xor[x, f]>.  Both tables
    are symmetric, shape (2^b, 2^b), built once per b and read-only.
    """
    f = np.arange(1 << b)
    xor = f[:, None] ^ f[None, :]
    sign = 1.0 - 2.0 * (np.bitwise_count(f[:, None] & f[None, :]) & 1)
    xor.flags.writeable = sign.flags.writeable = False
    return xor, sign


def oracle_trace_moments(t: np.ndarray) -> np.ndarray:
    """The (4^b, K, K) Pauli moments <v_i|X^x Z^z|v_j> = sum_f (-1)^|f & z|
    T_ij[f ^ x, f] of one partial trace, F = x + 2^b z: identity first, x
    cycling fastest, the subset's first qubit most significant."""
    k, de = t.shape[:2]
    xor, sign = pauli_tables(de.bit_length() - 1)
    u = t[:, xor, :, np.arange(de)]            # u[x, f, i, j] = T_ij[f ^ x, f]
    m = sign @ u.transpose(1, 0, 2, 3).reshape(de, de * k * k)
    return m.reshape(de * de, k, k)


def oracle_moment_residuals(moments: np.ndarray) -> np.ndarray:
    """||m_F - tr(m_F) I / K||_F for each K x K matrix of one stack."""
    k = moments.shape[1]
    coefficients = np.trace(moments, axis1=1, axis2=2) / k
    dev = moments - coefficients[:, None, None] * np.eye(k)
    return np.linalg.norm(dev, axis=(1, 2))


def oracle_kl_check(moments: np.ndarray, residual_tol: float) -> tuple[float, bool]:
    """The root-sum-square of one stack's oracle_moment_residuals, and
    whether it is within residual_tol."""
    residual = float(np.sqrt(np.sum(oracle_moment_residuals(moments) ** 2)))
    return residual, bool(residual <= residual_tol)


def _oracle_rank(weights: np.ndarray, tol: float) -> int:
    top = weights.max(initial=0.0)
    return 0 if top <= 0 else int(np.count_nonzero(weights > tol * top))


def oracle_analysis(code: QuantumCode, subset, residual_tol: float = RESIDUAL_TOL,
                    rank_tol: float = RANK_TOL) -> dict:
    """Residual, verdict, marginal spectrum, C, kept ranks and class of one
    subset, each read off its own partial trace."""
    t = oracle_cut_trace(code, subset)
    k, de = t.shape[:2]
    residual, correctable = oracle_kl_check(oracle_trace_moments(t), residual_tol)
    blocks = t[np.arange(k), :, np.arange(k), :]
    spectrum = np.maximum(qla.eig_hermitian(blocks.sum(axis=0).T / k)[0], 0.0)
    rank = _oracle_rank(spectrum, rank_tol)
    trichotomy = None
    if correctable and rank != de:
        trichotomy = "degenerate"
    elif correctable:
        pure = np.max(np.abs(spectrum - 1.0 / de)) <= 1e-10
        trichotomy = "pure" if pure else "impure_nondegenerate"
    return {"subset": tuple(subset), "residual": residual, "correctable": correctable,
            "spectrum": spectrum, "C": rank, "trichotomy": trichotomy,
            "kept_ranks": tuple(_oracle_rank(w, rank_tol) for w in np.linalg.eigvalsh(blocks))}


def coefficient_matrix(marginal: np.ndarray,
                       null_vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 4^b x 4^b Knill-Laflamme coefficient matrix and its kernel rows,
    rebuilt from varrho_B and its null vectors by the README's formula.

    With E_F = X^x Z^z and F = x + 2^b z, lambda_FG = (-1)^|z_F & (x_F ^ x_G)|
    c_{F ^ G}, where c_H = Tr(varrho_B E_H).  The kernel rows are the Pauli
    coefficients of sqrt(2^b) |e><u_nu| for each basis state e of the erased
    qubits and each null vector u_nu (a column of null_vectors): row
    e (2^b - C) + nu holds a_G = conj(sign[z_G, e ^ x_G] u_nu[e ^ x_G]) / sqrt(2^b).
    """
    de = marginal.shape[0]
    xor, sign = pauli_tables(de.bit_length() - 1)
    # c[z, x] = Tr(varrho_B X^x Z^z) = sum_f (-1)^|f & z| varrho_B[f, f ^ x]
    c = sign @ marginal[np.arange(de)[:, None], xor]
    signs = sign[:, xor]                                  # signs[z, f, g] = sign[z, f ^ g]
    # lam[zF, xF, zG, xG] = sign[zF, xF ^ xG] * c[zF ^ zG, xF ^ xG]
    lam = signs[:, :, None, :] * c[xor[:, None, :, None], xor[None, :, None, :]]
    lam = lam.reshape(de * de, de * de)
    # kernel[e, nu, z, x] = conj(sign[z, e ^ x] * u_nu[e ^ x]) / sqrt(2^b)
    kernel = (signs[..., None] * null_vectors[xor]).transpose(1, 3, 0, 2)
    return (lam + lam.conj().T) / 2, kernel.conj().reshape(-1, de * de) / np.sqrt(de)


# Reference implementations the tests compare the library against: the
# local Pauli basis enumerated operator by operator, erasure as a dense
# Kraus channel, and the erasure output against its structured form.

def _basis_patterns(b: int):
    """(x, z) bit patterns for the 4^b local Paulis, identity first, x fastest."""
    mask = (1 << b) - 1
    for m in range(1 << (2 * b)):
        yield m & mask, m >> b


def _embed_bits(local: int, b: int, n: int, subset) -> int:
    out = 0
    for j in range(1, b + 1):
        if local & (1 << (b - j)):
            out |= 1 << (n - subset[j - 1])
    return out


def pauli_basis_on(n: int, subset) -> list[PauliOperator]:
    """All 4^b phase-free Paulis supported on the subset, embedded in n qubits.

    Ordering is fixed: identity first, then by local (x, z) pattern with the
    x part cycling fastest, so b = 1 gives [I, X, Z, XZ].  Operators are
    unnormalized, hence pairwise trace-orthogonal with Tr(E^dag E) = 2^n.
    """
    subset = tuple(subset)
    b = len(subset)
    qla.check_dim(8 * 4 ** b)    # a PauliOperator takes about 113 bytes, 7-8 entries
    out = []
    for x_loc, z_loc in _basis_patterns(b):
        out.append(PauliOperator(n, _embed_bits(x_loc, b, n, subset),
                                 _embed_bits(z_loc, b, n, subset)))
    return out


_TRACE_PRESERVATION_TOL = 1e-9


@dataclass(frozen=True)
class KrausChannel:
    """A completely positive trace-preserving map given by Kraus operators."""

    operators: tuple[np.ndarray, ...]
    dim: int

    def __post_init__(self):
        if not self.operators:
            raise ContractError("channel needs at least one Kraus operator")
        total = np.zeros((self.dim, self.dim), dtype=complex)
        for op in self.operators:
            if op.shape != (self.dim, self.dim):
                raise ContractError(f"Kraus operator shape {op.shape} != {(self.dim,) * 2}")
            total += op.conj().T @ op
        defect = float(np.linalg.norm(total - np.eye(self.dim)))
        if defect > _TRACE_PRESERVATION_TOL * max(1.0, np.sqrt(self.dim)):
            raise ContractError(f"channel is not trace preserving (defect {defect:.2e})")

    def apply(self, rho: np.ndarray) -> np.ndarray:
        out = np.zeros_like(rho, dtype=complex)
        for op in self.operators:
            out += op @ rho @ op.conj().T
        return out

    def apply_to_pure(self, state: np.ndarray) -> np.ndarray:
        """Channel output on |state><state|, returned as a density matrix."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for op in self.operators:
            v = op @ state
            out += np.outer(v, v.conj())
        return out


def replacer_channel(n: int, subset) -> KrausChannel:
    """Erasure modelled as replacement: the subset is reset to maximally mixed.

    Kraus operators are the embedded Pauli basis on the subset scaled by
    1/2^b; the output marginal on the subset is I/2^b regardless of input.
    The 4^b dense operators of 4^n entries each are size-checked first.
    """
    subset = tuple(subset)
    qla.check_dim(4 ** len(subset) * 4 ** n)
    scaled_eye = np.eye(1 << n, dtype=complex) / (1 << len(subset))
    ops = tuple(p.apply(scaled_eye) for p in pauli_basis_on(n, subset))
    return KrausChannel(operators=ops, dim=1 << n)


def channel_form_check(dec: structure.StructureDecomposition,
                       code: QuantumCode) -> float:
    """Worst deviation between the erasure output and its structured form.

    For a spanning set of pure code states compares
    Tr_B(rho) otimes I/2^b against (U (rho_R otimes Gamma_A) U^dag) otimes
    I/2^b in the permuted frame.  Both sides share the I/2^b factor, so the
    comparison reduces to the kept-side operators; the returned number is
    the full-space Frobenius deviation.  The dim_kept^2 entries of each
    kept-side operator are size-checked first.
    """
    qla.check_dim(len(dec.isometry) ** 2)
    k = dec.k_dim
    gamma = dec.ancilla_state
    u = dec.isometry
    mats = qla.bipartite_matrix(code.basis, [dec.subset])[0]   # w @ mats cuts w @ basis
    worst = 0.0
    for i in range(k):
        for j in range(i, k):
            if i == j:
                combos = [np.eye(k)[i]]
            else:
                e_i, e_j = np.eye(k)[i], np.eye(k)[j]
                combos = [(e_i + e_j) / np.sqrt(2.0), (e_i + 1j * e_j) / np.sqrt(2.0)]
            for w in combos:
                mat = w @ mats
                lhs_kept = mat @ mat.conj().T
                rho_r = np.outer(w, w.conj())
                rhs_kept = u @ np.kron(rho_r, gamma) @ u.conj().T
                dev = float(np.linalg.norm(lhs_kept - rhs_kept)) / np.sqrt(1 << len(dec.subset))
                worst = max(worst, dev)
    return worst


# Presend steering: for a correctable erased set every message unitary acts
# on the kept qubits alone.

def logical_unitary_on_complement(dec: structure.StructureDecomposition,
                                  message_unitary: np.ndarray,
                                  tol: float = UNITARITY_TOL) -> np.ndarray:
    """Lift a K x K message unitary to the kept qubits only.

    Returns U (V_R otimes I_A) U^dag completed by the identity on the
    orthogonal complement of range(U); acting with the result on the kept
    factor maps encoded states exactly as V_R maps messages.  The result's
    dim_kept^2 entries are size-checked first.
    """
    qla.check_dim(len(dec.isometry) ** 2)
    k, r = dec.k_dim, dec.ancilla_dim
    v_r = np.asarray(message_unitary, dtype=complex)
    if v_r.shape != (k, k):
        raise ContractError(f"message unitary has shape {v_r.shape}, expected ({k}, {k})")
    if np.linalg.norm(v_r.conj().T @ v_r - np.eye(k)) > tol * max(1.0, math.sqrt(k)):
        raise ContractError("message operator is not unitary within tolerance")
    u = dec.isometry
    lifted = u @ np.kron(v_r, np.eye(r)) @ u.conj().T
    complement = np.eye(u.shape[0]) - u @ u.conj().T
    return lifted + complement


def apply_on_kept(state: np.ndarray, subset, kept_operator: np.ndarray) -> np.ndarray:
    """Apply an operator on the kept factor to a full state, original qubit order.

    The state is cut across the erased set (qla.bipartite_matrix), acted on
    row-wise, and put back by undoing the cut's axis order: kept qubits
    ascending, then the erased ones as given.
    """
    n = len(state).bit_length() - 1
    cut = qla.bipartite_matrix(np.asarray(state)[None], [subset])[0, :, 0]
    moved = (kept_operator @ cut).reshape((2,) * n)
    return moved.transpose(np.argsort(kept_qubits(n, subset) + tuple(subset))).reshape(-1)


# The uint8 GF(2) matrix kit that stab used before its one elimination on
# the Pauli bit masks, kept unchanged, and the normaliser-count verdict and
# nullspace subgroup built on it: the reference for stab's GF(2) results.

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


def gf2_matrix(ops, n: int) -> np.ndarray:
    """One pauli_to_gf2 row per operator, shape (len(ops), 2n)."""
    return np.array([pauli_to_gf2(p) for p in ops], dtype=np.uint8).reshape(-1, 2 * n)


def _outside_columns(n: int, subset) -> list[int]:
    outside = [q for q in range(1, n + 1) if q not in set(subset)]
    return [q - 1 for q in outside] + [n + q - 1 for q in outside]


def reference_subgroup_on(group: stab.StabilizerGroup, subset) -> stab.StabilizerGroup:
    """Elements inside the set: one product per nullspace vector of the
    generator matrix on the complement's columns, in ascending generator order."""
    a = gf2_matrix(group.generators, group.n)
    gens = []
    for alpha in gf2_nullspace(a[:, _outside_columns(group.n, subset)].T):
        prod = PauliOperator(group.n, 0, 0)
        for i in np.flatnonzero(alpha):
            prod = prod.compose(group.generators[int(i)])
        gens.append(prod)
    return stab.StabilizerGroup.from_generators(gens, n=group.n)


def reference_correctable(group: stab.StabilizerGroup, subset) -> bool:
    """The set is correctable iff the commutant (the nullspace of the
    x/z-swapped generator matrix) and the group have equally many
    independent elements supported inside it."""
    n = group.n
    a = gf2_matrix(group.generators, n)
    commutant = gf2_nullspace(np.hstack([a[:, n:], a[:, :n]]))
    inside = gf2_nullspace(commutant[:, _outside_columns(n, subset)].T)
    return len(inside) == reference_subgroup_on(group, subset).num_generators
