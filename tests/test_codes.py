"""Pauli algebra, code model, fixtures, distance, JSON round-trips.

The Pauli oracle below builds dense matrices by chaining 2x2 kron factors
and never touches the bitmask implementation, so composition, adjoints,
commutation, and state application are all checked against an independent
construction.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eaqec import codes, qla
from eaqec.codes import PauliOperator, QuantumCode
from eaqec.errors import ContractError

from conftest import cached_fixture, oracle_matrix, random_state

letters_strategy = st.text(alphabet="IXYZ", min_size=1, max_size=3)
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
        assert np.allclose(p.matrix(), oracle_matrix(letters, phase), atol=1e-14)

    def test_weight_and_support(self):
        p = PauliOperator.from_string("XIYZI")
        assert p.weight == 3
        assert p.support == (1, 3, 4)

    def test_identity(self):
        p = PauliOperator.from_string("III")
        assert p.is_identity()
        assert not PauliOperator.from_string("III", phase="-").is_identity()
        assert not PauliOperator.from_string("IXI").is_identity()


class TestPauliAlgebra:
    @given(letters_strategy, letters_strategy, phase_strategy, phase_strategy)
    def test_composition(self, la, lb, pa, pb):
        n = max(len(la), len(lb))
        la, lb = la.ljust(n, "I"), lb.ljust(n, "I")
        a = PauliOperator.from_string(la, phase=pa)
        b = PauliOperator.from_string(lb, phase=pb)
        got = a.compose(b).matrix()
        want = oracle_matrix(la, pa) @ oracle_matrix(lb, pb)
        assert np.allclose(got, want, atol=1e-14)

    @given(letters_strategy, phase_strategy)
    def test_adjoint(self, letters, phase):
        p = PauliOperator.from_string(letters, phase=phase)
        assert np.allclose(p.adjoint().matrix(),
                           oracle_matrix(letters, phase).conj().T, atol=1e-14)

    @given(letters_strategy, phase_strategy)
    def test_hermitian_flag(self, letters, phase):
        p = PauliOperator.from_string(letters, phase=phase)
        m = p.matrix()
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
        basis = np.array([qla.permute_state(v, 4, order) for v in c.basis])
        permuted = QuantumCode(n=4, basis=basis, label="permuted")
        assert codes.min_distance(permuted) == 2

    def test_single_qubit_trivial_code(self):
        # the full 1-qubit space distinguishes nothing: distance 1
        c = QuantumCode(n=1, basis=np.eye(2, dtype=complex), label="trivial")
        assert codes.min_distance(c) == 1


class TestParameters:
    def test_dimension_and_stabilizer_forms(self):
        p = codes.CodeParameters(n=5, k_dim=2, distance=3)
        assert p.dimension_form() == "((5,2,3))"
        assert p.stabilizer_form() == "[[5,1,3]]"
        ea = codes.CodeParameters(
            n=7, k_dim=2, distance=3,
            ea=codes.EAParameters(n_sent=5, k_dim=2, distance=3, receiver_dim=3))
        assert ea.dimension_form() == "((5,2,3;3))"
        assert ea.stabilizer_form() is None
        ea2 = codes.CodeParameters(
            n=5, k_dim=2, distance=3,
            ea=codes.EAParameters(n_sent=3, k_dim=2, distance=3, receiver_dim=4))
        assert ea2.dimension_form() == "((3,2,3;4))"
        assert ea2.stabilizer_form() == "[[3,1,3;2]]"

    def test_validation(self):
        with pytest.raises(ContractError):
            codes.CodeParameters(n=3, k_dim=2, distance=4)
        with pytest.raises(ContractError):
            codes.CodeParameters(n=3, k_dim=0, distance=1)


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
