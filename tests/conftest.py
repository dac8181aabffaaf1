import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from eaqec import codes, stab

settings.register_profile(
    "suite", deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
settings.load_profile("suite")

_CACHE: dict[str, codes.QuantumCode] = {}

SHOR_GENS = ("ZZIIIIIII", "IZZIIIIII", "IIIZZIIII", "IIIIZZIII", "IIIIIIZZI",
             "IIIIIIIZZ", "XXXXXXIII", "IIIXXXXXX")
CYCLIC11_GENS = tuple("XXZZXXIXIXI"[i:] + "XXZZXXIXIXI"[:i] for i in range(11))


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
