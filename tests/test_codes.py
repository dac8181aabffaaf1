"""Pauli algebra, code model, fixtures, distance, JSON round-trips.

The Pauli oracle below builds dense matrices by chaining 2x2 kron factors
and never touches the bitmask implementation, so composition,
commutation, and state application are all checked against an independent
construction.
"""

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eaqec import codes, qla, stab
from eaqec.codes import PauliOperator, QuantumCode
from eaqec.config import MAX_DIM, RESIDUAL_TOL
from eaqec.errors import ContractError, SizeError

from conftest import (CYCLIC11_GENS, SHOR_GENS, abelian_groups, assert_bit_exact,
                      cached_fixture, oracle_matrix, pauli_basis_on, pauli_matrix, random_state)

letters_strategy = st.text(alphabet="IXYZ", min_size=1, max_size=3)


def oracle_detection_residual(v: np.ndarray, e: PauliOperator) -> float:
    """||V^dag E V - c I||_F for one Pauli applied to the codewords V (columns),
    with c = tr(V^dag E V) / K.  The per-Pauli form of the check that
    codes.trace_moments and codes.moment_residuals batch over a support.
    """
    m = v.conj().T @ e.apply(v)
    k = m.shape[0]
    c = np.trace(m) / k
    return float(np.linalg.norm(m - c * np.eye(k)))


def oracle_min_distance(code: QuantumCode, max_weight=None,
                        residual_tol: float = RESIDUAL_TOL):
    """First weight with an undetected Pauli, one Pauli at a time."""
    v = code.basis.T
    limit = code.n if max_weight is None else max_weight
    for w in range(1, limit + 1):
        for e in codes.paulis_of_weight(code.n, range(1, code.n + 1), w):
            if oracle_detection_residual(v, e) > residual_tol:
                return w
    return None


def stabilizer_code(gens) -> QuantumCode:
    return stab.codewords(stab.StabilizerGroup.from_strings(gens))
phase_strategy = st.sampled_from(["+", "+i", "-", "-i"])


class TestPauliParsing:
    @given(letters_strategy, phase_strategy)
    def test_round_trip(self, letters, phase):
        p = PauliOperator.from_string(letters, phase=phase)
        ph, body = p.to_string()
        assert body == letters
        assert ph == phase.replace("+i", "+i")  # canonical labels
        assert PauliOperator.from_string(body, phase=ph) == p

    @given(letters_strategy, phase_strategy)
    def test_matrix_matches_oracle(self, letters, phase):
        p = PauliOperator.from_string(letters, phase=phase)
        assert np.allclose(pauli_matrix(p), oracle_matrix(letters, phase), atol=1e-14)

    def test_weight_and_support(self):
        # qubit 1 is the most significant bit: support {1, 3, 4} of five qubits
        p = PauliOperator.from_string("XIYZI")
        assert p.x_bits | p.z_bits == 0b10110
        assert (p.x_bits | p.z_bits).bit_count() == 3

    def test_identity(self):
        p = PauliOperator.from_string("III")
        assert (p.x_bits, p.z_bits, p.phase_exp) == (0, 0, 0)
        assert PauliOperator.from_string("III", phase="-").phase_exp == 2
        assert PauliOperator.from_string("IXI").x_bits == 0b010


class TestPauliAlgebra:
    @given(letters_strategy, letters_strategy, phase_strategy, phase_strategy)
    def test_composition(self, la, lb, pa, pb):
        n = max(len(la), len(lb))
        la, lb = la.ljust(n, "I"), lb.ljust(n, "I")
        a = PauliOperator.from_string(la, phase=pa)
        b = PauliOperator.from_string(lb, phase=pb)
        got = pauli_matrix(a.compose(b))
        want = oracle_matrix(la, pa) @ oracle_matrix(lb, pb)
        assert np.allclose(got, want, atol=1e-14)

    @given(letters_strategy, phase_strategy)
    def test_hermitian_flag(self, letters, phase):
        p = PauliOperator.from_string(letters, phase=phase)
        m = pauli_matrix(p)
        assert p.is_hermitian() == bool(np.allclose(m, m.conj().T, atol=1e-14))

    @given(letters_strategy, letters_strategy)
    def test_commutes_with(self, la, lb):
        n = max(len(la), len(lb))
        la, lb = la.ljust(n, "I"), lb.ljust(n, "I")
        a = PauliOperator.from_string(la)
        b = PauliOperator.from_string(lb)
        ma, mb = oracle_matrix(la), oracle_matrix(lb)
        assert a.commutes_with(b) == bool(
            np.allclose(ma @ mb, mb @ ma, atol=1e-14))

    @given(letters_strategy, phase_strategy, st.integers(0, 2**32 - 1))
    def test_apply_matches_matrix(self, letters, phase, seed):
        p = PauliOperator.from_string(letters, phase=phase)
        rng = np.random.default_rng(seed)
        v = random_state(rng, 1 << len(letters))
        assert np.allclose(p.apply(v), oracle_matrix(letters, phase) @ v,
                           atol=1e-13)

    def test_apply_matrix_argument(self):
        p = PauliOperator.from_string("XZ")
        block = np.eye(4, dtype=complex)[:, :3]
        assert np.allclose(p.apply(block), oracle_matrix("XZ") @ block, atol=1e-14)


def random_paulis(rng: np.random.Generator, n: int, count: int) -> list[PauliOperator]:
    """The identity, then random Paulis on n qubits with random phases."""
    return [PauliOperator(n, 0, 0)] + [
        PauliOperator(n, int(rng.integers(1 << n)), int(rng.integers(1 << n)),
                      int(rng.integers(4)))
        for _ in range(count - 1)]


class TestApplyPaulis:
    """The batched action against dense matrices and against one apply each."""

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("columns", [None, 1, 3])
    def test_matches_dense(self, n, columns):
        rng = np.random.default_rng(n)
        paulis = random_paulis(rng, n, 9)
        shape = (1 << n,) if columns is None else (1 << n, columns)
        states = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        out = codes.apply_paulis(paulis, states)
        assert out.shape == (1 << n, len(paulis)) + shape[1:]
        for e, p in enumerate(paulis):
            assert np.abs(out[:, e] - pauli_matrix(p) @ states).max() <= 1e-13
            assert np.array_equal(out[:, e], p.apply(states))
        assert np.array_equal(out[:, 0], states)

    @pytest.mark.parametrize("shape", [(6,), (4, 2), (16,), ()])
    def test_wrong_leading_dim(self, shape):
        with pytest.raises(ContractError):
            codes.apply_paulis([PauliOperator.from_string("XZZ")], np.ones(shape))

    def test_mixed_registers(self):
        with pytest.raises(ContractError):
            codes.apply_paulis([PauliOperator.from_string("XZ"),
                                PauliOperator.from_string("XZZ")], np.ones(4))

    def test_register_tables_are_cached_and_read_only(self):
        index, sign = codes._register_tables(4)
        again = codes._register_tables(4)
        assert again[0] is index and again[1] is sign
        assert not index.flags.writeable and not sign.flags.writeable
        assert index.tolist() == list(range(16))
        assert sign.tolist() == [(-1) ** bin(g).count("1") for g in range(16)]


class TestPauliTables:
    @pytest.mark.parametrize("b", [0, 1, 3])
    def test_cached_and_read_only(self, b):
        xor, sign = codes.pauli_tables(b)
        again = codes.pauli_tables(b)
        assert again[0] is xor and again[1] is sign
        assert not xor.flags.writeable and not sign.flags.writeable
        with pytest.raises(ValueError):
            xor[0, 0] = 1


class TestDicke:
    @pytest.mark.parametrize("n,k", [(4, 0), (4, 2), (7, 3), (5, 5)])
    def test_uniform_over_supports(self, n, k):
        v = codes.dicke(n, k)
        nz = np.nonzero(v)[0]
        assert len(nz) == math.comb(n, k)
        assert np.allclose(np.abs(v[nz]), 1.0 / np.sqrt(len(nz)))
        for idx in nz:
            assert bin(idx).count("1") == k
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12

    @pytest.mark.parametrize("n", [4, 7])
    def test_matches_support_enumeration(self, n):
        for k in range(n + 1):
            want = np.zeros(1 << n, dtype=complex)
            for ones in itertools.combinations(range(1, n + 1), k):
                want[sum(1 << (n - q) for q in ones)] = 1.0
            assert np.array_equal(codes.dicke(n, k), want / math.sqrt(math.comb(n, k)))

    def test_refuses_excitations_outside_the_register(self):
        for k in (-1, 5):
            with pytest.raises(ContractError):
                codes.dicke(4, k)


class TestFixtures:
    @pytest.mark.parametrize("name", codes.FIXTURE_NAMES)
    def test_orthonormal(self, name):
        c = cached_fixture(name)
        g = c.basis.conj() @ c.basis.T
        assert np.linalg.norm(g - np.eye(c.k_dim)) < 1e-10

    def test_pi_4_2_2_amplitudes(self):
        c = cached_fixture("pi_4_2_2")
        v0, v1 = c.basis
        # codeword 0: sqrt(1/3)|D0> + sqrt(2/3)|D3>
        assert abs(v0[0] - np.sqrt(3) / 3) < 1e-12
        for idx in (0b0111, 0b1011, 0b1101, 0b1110):
            assert abs(v0[idx] - (np.sqrt(6) / 3) / 2) < 1e-12
        # codeword 1: sqrt(2/3)|D1> - sqrt(1/3)|D4>
        assert abs(v1[0b1111] + np.sqrt(3) / 3) < 1e-12
        for idx in (0b0001, 0b0010, 0b0100, 0b1000):
            assert abs(v1[idx] - (np.sqrt(6) / 3) / 2) < 1e-12

    def test_pi_7_2_3_amplitudes(self):
        c = cached_fixture("pi_7_2_3")
        v0, v1 = c.basis
        assert abs(v0[0] - np.sqrt(15) / 8) < 1e-12
        d2 = math.comb(7, 2)
        idx2 = [i for i in range(128) if bin(i).count("1") == 2]
        for i in idx2:
            assert abs(v0[i] - (np.sqrt(7) / 8) / np.sqrt(d2)) < 1e-12
        idx6 = [i for i in range(128) if bin(i).count("1") == 6]
        for i in idx6:
            assert abs(v0[i] + (np.sqrt(21) / 8) / np.sqrt(7)) < 1e-12
        assert abs(v1[127] - np.sqrt(15) / 8) < 1e-12
        idx1 = [1 << j for j in range(7)]
        for i in idx1:
            assert abs(v1[i] + (np.sqrt(21) / 8) / np.sqrt(7)) < 1e-12

    def test_xp_7_8_2_pair_structure(self):
        c = cached_fixture("xp_7_8_2")
        omega = np.exp(1j * np.pi / 8)
        for row in c.basis:
            nz = np.nonzero(np.abs(row) > 1e-12)[0]
            assert len(nz) == 2
            assert np.allclose(np.abs(row[nz]), 1 / np.sqrt(2))
        # codeword 0 pairs |0000000> with omega^12 |1111111>
        v0 = c.basis[0]
        ratio = v0[0b1111111] / v0[0]
        assert abs(ratio - omega**12) < 1e-12

    @pytest.mark.parametrize("name,gens", [
        ("five_qubit", ("XZZXI", "ZYYZI", "ZZXIX", "YYZIZ")),
        ("steane", ("IIIXXXX", "IXXIIXX", "XIXIXIX",
                    "IIIZZZZ", "IZZIIZZ", "ZIZIZIZ")),
    ])
    def test_stabilizer_fixtures_fixed_points(self, name, gens):
        c = cached_fixture(name)
        for g in gens:
            m = oracle_matrix(g)
            for v in c.basis:
                assert np.linalg.norm(m @ v - v) < 1e-10

    def test_unknown_fixture(self):
        with pytest.raises(ContractError):
            codes.fixture("nope")


class TestDistance:
    @pytest.mark.parametrize("name,want", [
        ("five_qubit", 3), ("steane", 3), ("pi_4_2_2", 2),
        ("pi_7_2_3", 3), ("xp_7_8_2", 2),
    ])
    def test_fixture_distances(self, name, want):
        assert codes.min_distance(cached_fixture(name)) == want

    def test_weight_enumeration_order(self):
        # supports lexicographic, then X, Z, XZ per qubit, last qubit fastest;
        # simulate's recovery sets index their errors in this order
        got = [(p.x_bits, p.z_bits) for p in codes.paulis_of_weight(3, (3, 1), 2)]
        assert got == [(0b101, 0), (0b100, 0b001), (0b101, 0b001),
                       (0b001, 0b100), (0, 0b101), (0b001, 0b101),
                       (0b101, 0b100), (0b100, 0b101), (0b101, 0b101)]

    def test_bounded_search_returns_none(self):
        c = cached_fixture("five_qubit")
        assert codes.min_distance(c, max_weight=2) is None

    def test_permutation_invariance(self):
        c = cached_fixture("pi_4_2_2")
        order = (3, 1, 4, 2)
        # erasing every qubit in `order` cuts each codeword into one row in that order
        basis = qla.bipartite_matrix(c.basis, qla.SubsystemSplit(n=4, erased=order))[0]
        permuted = QuantumCode(n=4, basis=basis, label="permuted")
        assert codes.min_distance(permuted) == 2

    def test_single_qubit_trivial_code(self):
        # the full 1-qubit space distinguishes nothing: distance 1
        c = QuantumCode(n=1, basis=np.eye(2, dtype=complex), label="trivial")
        assert codes.min_distance(c) == 1


class TestPauliMoments:
    """The batched moments and residuals against one apply per Pauli."""

    @staticmethod
    def check(code, subset):
        v = code.basis.T
        moments = codes.trace_moments(codes.cut_trace(code, subset))
        residuals = codes.moment_residuals(moments)
        paulis = pauli_basis_on(code.n, subset)
        assert moments.shape == (len(paulis), code.k_dim, code.k_dim)
        for j, e in enumerate(paulis):
            assert np.abs(moments[j] - v.conj().T @ e.apply(v)).max() <= 1e-13
            assert abs(residuals[j] - oracle_detection_residual(v, e)) <= 1e-13

    @pytest.mark.parametrize("name", codes.FIXTURE_NAMES)
    def test_fixture_subsets(self, name):
        code = cached_fixture(name)
        for b in range(4):
            for subset in itertools.combinations(range(1, code.n + 1), b):
                self.check(code, subset)
        self.check(code, (code.n, 2, 1))   # the subset's own order sets the bits

    def test_shor(self):
        code = stabilizer_code(SHOR_GENS)
        for b in range(1, 4):
            for subset in itertools.combinations(range(1, 10), b):
                self.check(code, subset)

    @settings(max_examples=40)
    @given(abelian_groups(max_n=8), st.data())
    def test_random_stabilizer_codes(self, group, data):
        code = stab.codewords(group)
        b = data.draw(st.integers(0, min(3, code.n)))
        subset = tuple(data.draw(st.permutations(range(1, code.n + 1)))[:b])
        if code.k_dim ** 2 * 4 ** b > MAX_DIM:
            with pytest.raises(SizeError):
                codes.trace_moments(codes.cut_trace(code, subset))
        else:
            self.check(code, subset)


class TestStackedMoments:
    """cut_trace, trace_moments and kl_check on an (S, b) stack of sets:
    slice s is bit for bit what the s-th set gives on its own."""

    @pytest.mark.parametrize("make", [
        *(pytest.param(lambda name=name: cached_fixture(name), id=name)
          for name in codes.FIXTURE_NAMES),
        pytest.param(lambda: stabilizer_code(SHOR_GENS), id="shor"),
    ])
    def test_slices_match_single_sets(self, make):
        code = make()
        for b in range(4):
            sets = list(itertools.combinations(range(1, code.n + 1), b))
            sets += [s[::-1] for s in sets]           # each set's own order sets the bits
            t = codes.cut_trace(code, np.array(sets).reshape(len(sets), b))
            moments = codes.trace_moments(t)
            residuals, verdicts = codes.kl_check(moments, RESIDUAL_TOL)
            assert verdicts.dtype == bool and residuals.shape == (len(sets),)
            for s, subset in enumerate(sets):
                single = codes.cut_trace(code, subset)
                assert_bit_exact(t[s], single)
                assert_bit_exact(moments[s], codes.trace_moments(single))
                residual, ok = codes.kl_check(moments[s], RESIDUAL_TOL)
                assert_bit_exact(residuals[s], np.float64(residual))
                assert verdicts[s] == ok

    def test_stack_is_size_checked_as_a_whole(self):
        # four sets whose moments fit one at a time, but not together
        code = QuantumCode(n=8, basis=np.eye(256, dtype=complex)[:64])
        assert code.k_dim ** 2 * 4 ** 4 <= MAX_DIM < 4 * code.k_dim ** 2 * 4 ** 4
        with pytest.raises(SizeError):
            codes.cut_trace(code, [(1, 2, 3, 4)] * 4)


class TestKLCheck:
    # two detected blocks (multiples of I, residual exactly 0) and one
    # undetected off-diagonal block whose residual is exactly 0.5
    STACK = np.array([np.eye(2), 0.3j * np.eye(2), [[0, 0.5], [0, 0]]], dtype=complex)

    def test_one_undetected_block_decides(self):
        assert codes.kl_check(self.STACK[:2], RESIDUAL_TOL) == (0.0, True)
        assert codes.kl_check(self.STACK, RESIDUAL_TOL) == (0.5, False)
        assert codes.kl_check(self.STACK[::-1], RESIDUAL_TOL) == (0.5, False)

    def test_residual_at_the_tolerance_passes(self):
        residual, ok = codes.kl_check(self.STACK, 0.5)
        assert (residual, ok) == (0.5, True)
        assert type(residual) is float and type(ok) is bool
        assert codes.kl_check(self.STACK, np.nextafter(0.5, 0.0)) == (0.5, False)


def share_pairs(n: int, max_b: int = 2):
    """Every erased set B with |B| <= max_b together with each q outside it."""
    for b in range(max_b + 1):
        for subset in itertools.combinations(range(1, n + 1), b):
            for q in sorted(set(range(1, n + 1)) - set(subset)):
                yield subset, q


class TestShareSubsets:
    """Every subset of a receiver's share is again a share: if B + {q} is
    correctable, so is B, for the basis and for the group, and the dense
    residual of B exceeds that of B + {q} by roundoff at most."""

    @staticmethod
    def check(code, group, pairs):
        def residual(subset):
            return codes.kl_check(codes.trace_moments(codes.cut_trace(code, subset)),
                                  RESIDUAL_TOL)[0]

        for subset, q in pairs:
            wider = tuple(sorted(subset + (q,)))
            assert residual(subset) - residual(wider) <= 1e-15
            assert code.is_correctable(subset) or not code.is_correctable(wider)
            if group is not None:
                assert group.is_correctable(subset) or not group.is_correctable(wider)

    @pytest.mark.parametrize("name,gens", [
        ("five_qubit", codes._FIVE_QUBIT_GENERATORS), ("steane", codes._STEANE_GENERATORS),
        ("pi_4_2_2", None), ("pi_7_2_3", None), ("xp_7_8_2", None), ("shor", SHOR_GENS)])
    def test_named_codes(self, name, gens):
        group = None if gens is None else stab.StabilizerGroup.from_strings(gens)
        code = stab.codewords(group) if name == "shor" else cached_fixture(name)
        self.check(code, group, share_pairs(code.n))

    @settings(max_examples=40)
    @given(abelian_groups(max_n=7), st.data())
    def test_random_stabilizer_codes(self, group, data):
        order = data.draw(st.permutations(range(1, group.n + 1)))
        b = data.draw(st.integers(0, min(2, group.n - 1)))
        self.check(stab.codewords(group), group, [(tuple(sorted(order[:b])), order[b])])


class TestDistanceAgainstPerPauliScan:
    @pytest.mark.parametrize("make", [
        *(pytest.param(lambda name=name: cached_fixture(name), id=name)
          for name in codes.FIXTURE_NAMES),
        pytest.param(lambda: stabilizer_code(SHOR_GENS), id="shor"),
        pytest.param(lambda: stabilizer_code(CYCLIC11_GENS), id="cyclic11"),
    ])
    def test_named_codes(self, make):
        code = make()
        for max_weight in (None, 1, 2, 3):
            assert (codes.min_distance(code, max_weight=max_weight)
                    == oracle_min_distance(code, max_weight=max_weight))

    @settings(max_examples=60)
    @given(abelian_groups(max_n=8), st.none() | st.integers(1, 3))
    def test_random_stabilizer_codes(self, group, max_weight):
        code = stab.codewords(group)
        assert (codes.min_distance(code, max_weight=max_weight)
                == oracle_min_distance(code, max_weight=max_weight))

    def test_one_dimensional_code_is_not_scanned(self, monkeypatch):
        # every 1 x 1 residual is exactly 0, so a K = 1 code detects everything
        code = QuantumCode(n=3, basis=random_state(np.random.default_rng(3), 8)[None, :])
        assert oracle_min_distance(code) is None

        def refuse(*args):
            raise AssertionError("a K = 1 code was scanned")

        monkeypatch.setattr(codes, "cut_trace", refuse)
        assert codes.min_distance(code) is None

    def test_oversized_search_refused_before_allocating(self):
        # K = 2^10: the weight-1 moments alone would hold K^2 4 = 2^22 entries
        code = QuantumCode(n=10, basis=np.eye(1 << 10, dtype=complex))
        tracemalloc.start()
        try:
            with pytest.raises(SizeError):
                codes.min_distance(code)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestJson:
    @pytest.mark.parametrize("name", codes.FIXTURE_NAMES)
    def test_round_trip_projector(self, name):
        c = cached_fixture(name)
        data = json.loads(json.dumps(codes.code_to_json(c)))
        back = codes.code_from_json(data)
        assert back.n == c.n and back.k_dim == c.k_dim
        p1 = codes.projector(c)
        p2 = codes.projector(back)
        assert np.linalg.norm(p1 - p2) < 1e-12

    @pytest.mark.parametrize("source", [
        *(pytest.param(lambda name=name: cached_fixture(name), id=name)
          for name in codes.FIXTURE_NAMES),
        # a 1e-16 amplitude and a -0.0 imaginary part are data like any other
        pytest.param(lambda: QuantumCode(2, np.array([[complex(1.0, -0.0), 1e-16, 0, 0]])),
                     id="tiny_amplitude")])
    def test_round_trip_bit_for_bit(self, source):
        c = source()
        back = codes.code_from_json(json.loads(json.dumps(codes.code_to_json(c))))
        assert_bit_exact(back.basis, c.basis)

    def test_sparse_amplitudes(self):
        c = cached_fixture("xp_7_8_2")
        data = codes.code_to_json(c)
        # two nonzero amplitudes per codeword, nothing else emitted
        assert all(len(row) == 2 for row in data["basis"])
        bits = data["basis"][0][0]["bits"]
        assert len(bits) == 7 and set(bits) <= {"0", "1"}

    def test_rejects_bad_payload(self):
        with pytest.raises((ContractError, KeyError, ValueError)):
            codes.code_from_json({"n": 2, "k_dim": 1, "label": "",
                                  "basis": [[{"bits": "000", "re": 1.0, "im": 0.0}]]})


class TestProjector:
    def test_projector_properties(self):
        c = cached_fixture("five_qubit")
        p = codes.projector(c)
        assert np.linalg.norm(p @ p - p) < 1e-10
        assert np.linalg.norm(p - p.conj().T) < 1e-12
        assert abs(np.trace(p).real - c.k_dim) < 1e-10

    def test_rejects_nonorthonormal(self):
        v = np.ones((2, 2), dtype=complex) / np.sqrt(2)
        with pytest.raises(ContractError):
            codes.projector(QuantumCode(n=1, basis=v, label="bad"))
