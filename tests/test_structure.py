"""Factorization certificates checked against per-amplitude reshape oracles.

The reconstruction tests rebuild each codeword's kept x erased matrix by
explicit bit surgery on amplitude indices (never through the library's
reshape helpers) and verify M_i = U_i Psi from the reported pieces.
"""

import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from eaqec import analysis, codes, stab, structure
from eaqec.errors import ContractError, NotCorrectableError, StructureViolationError

from conftest import (CYCLIC11_GENS, SHOR_GENS, apply_on_kept, array_from_json, assert_bit_exact,
                      cached_fixture, logical_unitary_on_complement, oracle_kl_check,
                      oracle_trace_moments)
from test_analysis import oracle_erased_marginal

# (fixture, subset, ancilla dim, nonzero ancilla spectrum)
CASES = [
    ("five_qubit", (4, 5), 4, (0.25,) * 4),
    ("pi_4_2_2", (4,), 2, (0.5, 0.5)),
    ("xp_7_8_2", (7,), 2, (0.5, 0.5)),
    ("pi_7_2_3", (6, 7), 3, (1 / 3,) * 3),
    ("steane", (5, 6, 7), 8, (0.125,) * 8),
    ("steane", (4, 5, 6, 7), 4, (0.25,) * 4),
]

# (code, erased set, distance) whose decompose payload must round-trip exactly
ROUND_TRIP_CASES = [
    pytest.param(lambda: cached_fixture("five_qubit"), (4, 5), 3, id="five_qubit"),
    pytest.param(lambda: cached_fixture("steane"), (4, 5, 6, 7), 3, id="steane"),
    pytest.param(lambda: cached_fixture("pi_4_2_2"), (4,), 2, id="pi_4_2_2"),
    pytest.param(lambda: cached_fixture("pi_7_2_3"), (6, 7), 3, id="pi_7_2_3"),
    pytest.param(lambda: cached_fixture("xp_7_8_2"), (7,), 2, id="xp_7_8_2"),
    pytest.param(lambda: stab.codewords(stab.StabilizerGroup.from_strings(SHOR_GENS)),
                 (1, 5), 3, id="shor"),
    pytest.param(lambda: stab.codewords(stab.StabilizerGroup.from_strings(CYCLIC11_GENS)),
                 (2, 9), 3, id="cyclic11"),
]


def oracle_kept_erased_matrix(state: np.ndarray, n: int, subset) -> np.ndarray:
    """Amplitude (row, col) table: rows over kept qubits ascending, columns
    over erased qubits in subset order, first listed qubit most significant.
    Qubit q owns bit n - q of the amplitude index."""
    subset = tuple(subset)
    kept = [q for q in range(1, n + 1) if q not in subset]
    out = np.zeros((2 ** len(kept), 2 ** len(subset)), dtype=complex)
    for idx, amp in enumerate(state):
        row = 0
        for q in kept:
            row = (row << 1) | ((idx >> (n - q)) & 1)
        col = 0
        for q in subset:
            col = (col << 1) | ((idx >> (n - q)) & 1)
        out[row, col] = amp
    return out


class TestDecompose:
    @pytest.mark.parametrize("name,subset,dim_a,spectrum", CASES)
    def test_certified_invariants(self, name, subset, dim_a, spectrum):
        code = cached_fixture(name)
        dec = structure.decompose(code, subset)
        k, r = dec.k_dim, dec.ancilla_dim
        assert (k, r) == (code.k_dim, dim_a)
        u = dec.isometry
        assert (dec.n, dec.subset) == (code.n, tuple(subset))
        assert u.shape == (1 << (code.n - len(subset)), k * r)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(k * r), atol=1e-9)

        psi = dec.shared_state.reshape(r, 1 << len(subset))
        assert abs(np.linalg.norm(dec.shared_state) - 1.0) < 1e-10
        for i in range(k):
            want = oracle_kept_erased_matrix(code.basis[i], code.n, subset)
            assert np.linalg.norm(want - u[:, i * r:(i + 1) * r] @ psi) <= 1e-8

        gamma = dec.ancilla_state
        np.testing.assert_allclose(gamma, psi @ psi.conj().T, atol=1e-12)
        assert abs(np.trace(gamma).real - 1.0) < 1e-10
        assert np.linalg.eigvalsh(gamma).min() >= -1e-12
        np.testing.assert_allclose(dec.ancilla_spectrum, spectrum, atol=1e-10)
        assert dec.residual <= 1e-8 and dec.isometry_defect <= 1e-8

    @pytest.mark.parametrize("name,subset,dim_a,_spectrum", CASES)
    def test_ancilla_matches_erased_marginal(self, name, subset, dim_a, _spectrum):
        code = cached_fixture(name)
        dec = structure.decompose(code, subset)
        oracle_spec = np.sort(np.linalg.eigvalsh(
            oracle_erased_marginal(code, subset)))[::-1]
        np.testing.assert_allclose(dec.ancilla_spectrum, oracle_spec[:dim_a],
                                   atol=1e-10)
        np.testing.assert_allclose(oracle_spec[dim_a:], 0.0, atol=1e-10)

    def test_ancilla_state_is_diagonal(self):
        dec = structure.decompose(cached_fixture("pi_7_2_3"), (6, 7))
        off = dec.ancilla_state - np.diag(np.diag(dec.ancilla_state))
        np.testing.assert_allclose(off, 0.0, atol=1e-12)
        spec = dec.ancilla_spectrum
        assert all(spec[i] >= spec[i + 1] - 1e-15 for i in range(len(spec) - 1))

    def test_empty_subset(self):
        code = cached_fixture("five_qubit")
        dec = structure.decompose(code, ())
        assert dec.ancilla_dim == 1
        np.testing.assert_allclose(dec.shared_state, [1.0], atol=1e-12)
        assert dec.isometry.shape == (32, 2)

    @pytest.mark.parametrize("name,subset", [
        ("five_qubit", (1, 2, 3)), ("pi_4_2_2", (1, 2)), ("steane", (1, 2, 3))])
    def test_non_correctable_raises(self, name, subset):
        with pytest.raises(StructureViolationError):
            structure.decompose(cached_fixture(name), subset)

    def test_success_iff_correctable(self):
        # certification is sound both ways: the factorization exists exactly
        # for subsets passing the error-correction conditions
        for name in ["five_qubit", "steane", "pi_4_2_2", "pi_7_2_3", "xp_7_8_2"]:
            code = cached_fixture(name)
            for size in (1, 2):
                for subset in itertools.combinations(range(1, code.n + 1), size):
                    verdict = analysis.kl_matrix(code, subset).correctable
                    try:
                        structure.decompose(code, subset)
                        built = True
                    except StructureViolationError:
                        built = False
                    assert built == verdict, (name, subset)


class TestEAFromStructure:
    def test_five_qubit_pair(self):
        code = cached_fixture("five_qubit")
        dec = structure.decompose(code, (4, 5))
        ea = structure.ea_from_structure(dec)
        assert ea.strategy == structure.STRUCTURE
        assert ea.model_validity == structure.NOISELESS_AND_NOISY
        assert (ea.sender_dim, ea.receiver_dim) == (4, 4)
        assert ea.schmidt_rank == 4 and ea.ebit_cost == 2
        np.testing.assert_allclose(ea.shared_state, dec.shared_state)
        assert structure.ea_parameters(dec, ea, 3) == ("((3,2,3;4))", "[[3,1,3;2]]")

    @pytest.mark.parametrize("name,subset,_dim_a,_s,ebits", [
        (*case, ebits) for case, ebits in zip(CASES, [2, 1, 1, 2, 3, 2])])
    def test_ebit_costs(self, name, subset, _dim_a, _s, ebits):
        code = cached_fixture(name)
        dec = structure.decompose(code, subset)
        ea = structure.ea_from_structure(dec)
        assert ea.ebit_cost == ebits
        assert ea.schmidt_rank == dec.ancilla_dim


BUILDERS = {
    structure.PRESEND: lambda dec, code: structure.presend_from_decomposition(dec, code),
    structure.STRUCTURE: lambda dec, code: structure.ea_from_structure(dec),
    structure.COMPRESSED: lambda dec, code: structure.compress(dec),
}
REFERENCE = json.loads((Path(__file__).resolve().parents[1] / "bench" / "reference.json")
                       .read_text())["decompose"]


class TestEaParameters:
    @pytest.mark.parametrize("strategy", BUILDERS)
    @pytest.mark.parametrize("case", REFERENCE)
    def test_reference_forms(self, case, strategy):
        # the pinned ((n-b,K,d;C)) of every reference case, and [[n-b,log2 K,d;log2 C]]
        # exactly when K and C are powers of two
        name, _, subset_text = case.partition(":")
        subset = tuple(int(q) for q in subset_text.split(","))
        code = cached_fixture(name)
        dec = structure.decompose(code, subset)
        ea = BUILDERS[strategy](dec, code)
        want = REFERENCE[case]
        dimension_form, stabilizer_form = structure.ea_parameters(dec, ea, want["distance"])
        assert dimension_form == want[strategy]
        n_sent, k, c = code.n - len(subset), code.k_dim, ea.receiver_dim
        assert dimension_form == f"(({n_sent},{k},{want['distance']};{c}))"
        powers = [math.log2(m) for m in (k, c)]
        if all(p.is_integer() for p in powers):
            assert stabilizer_form == (f"[[{n_sent},{int(powers[0])},{want['distance']};"
                                       f"{int(powers[1])}]]")
        else:
            assert stabilizer_form is None

    def test_model_validity_follows_strategy(self):
        code = cached_fixture("pi_7_2_3")
        dec = structure.decompose(code, (6, 7))
        validity = {strategy: build(dec, code).model_validity
                    for strategy, build in BUILDERS.items()}
        assert validity == {structure.PRESEND: structure.NOISELESS_AND_NOISY,
                            structure.STRUCTURE: structure.NOISELESS_AND_NOISY,
                            structure.COMPRESSED: structure.NOISELESS_ONLY}


class TestCompress:
    def test_degenerate_pair_code(self):
        code = cached_fixture("pi_7_2_3")
        dec = structure.decompose(code, (6, 7))
        ea = structure.compress(dec)
        assert ea.strategy == structure.COMPRESSED
        assert ea.model_validity == structure.NOISELESS_ONLY
        assert (ea.sender_dim, ea.receiver_dim) == (3, 3)
        assert ea.schmidt_rank == 3 and ea.ebit_cost == 2
        assert structure.ea_parameters(dec, ea, 3) == ("((5,2,3;3))", None)
        v = ea.compress_isometry
        assert v.shape == (4, 3)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(3), atol=1e-10)
        # re-expanding the minimal share recovers the original one
        rebuilt = np.kron(np.eye(3), v) @ ea.shared_state
        np.testing.assert_allclose(rebuilt, dec.shared_state, atol=1e-10)
        # the minimal share is diagonal with the root ancilla weights
        mat = ea.shared_state.reshape(3, 3)
        np.testing.assert_allclose(mat, np.diag(np.sqrt(dec.ancilla_spectrum)),
                                   atol=1e-10)

    def test_degenerate_four_qubit_erasure(self):
        code = cached_fixture("steane")
        dec = structure.decompose(code, (4, 5, 6, 7))
        ea = structure.compress(dec)
        assert (ea.sender_dim, ea.receiver_dim) == (4, 4)
        assert ea.ebit_cost == 2
        assert structure.ea_parameters(dec, ea, 3) == ("((3,2,3;4))", "[[3,1,3;2]]")
        rebuilt = np.kron(np.eye(4), ea.compress_isometry) @ ea.shared_state
        np.testing.assert_allclose(rebuilt, dec.shared_state, atol=1e-10)

    def test_pure_case_compresses_to_full_dimension(self):
        dec = structure.decompose(cached_fixture("five_qubit"), (4, 5))
        ea = structure.compress(dec)
        assert ea.receiver_dim == 4  # nothing gained: share already full rank
        rebuilt = np.kron(np.eye(4), ea.compress_isometry) @ ea.shared_state
        np.testing.assert_allclose(rebuilt, dec.shared_state, atol=1e-10)


class TestPresend:
    def test_five_qubit_pair(self):
        code = cached_fixture("five_qubit")
        dec = structure.decompose(code, (4, 5))
        ea = structure.presend_from_decomposition(dec, code)
        assert ea.strategy == structure.PRESEND
        assert ea.model_validity == structure.NOISELESS_AND_NOISY
        assert (ea.sender_dim, ea.receiver_dim) == (8, 4)
        assert ea.schmidt_rank == 4 and ea.ebit_cost == 2
        want = oracle_kept_erased_matrix(code.basis[0], code.n, (4, 5)).reshape(-1)
        np.testing.assert_allclose(ea.shared_state, want, atol=1e-12)

    def test_not_correctable(self):
        # no presend description without a decomposition, and a set that is
        # not correctable fails the gate and the certificate alike
        code = cached_fixture("five_qubit")
        with pytest.raises(NotCorrectableError):
            analysis.require_correctable(code, (1, 2, 3))
        with pytest.raises(StructureViolationError):
            structure.decompose(code, (1, 2, 3))

    def test_residual_tol_reaches_the_certificate(self):
        # a basis perturbed by 1e-6 and re-orthonormalised has residual ~1.2e-5:
        # a caller's 1e-4 tolerance must admit it at the gate and certificate
        code = cached_fixture("five_qubit")
        rng = np.random.default_rng(0)
        noise = rng.normal(size=code.basis.shape) + 1j * rng.normal(size=code.basis.shape)
        q, _ = np.linalg.qr((code.basis + 1e-6 * noise).T)
        perturbed = codes.QuantumCode(code.n, q.T)
        moments = oracle_trace_moments(codes.cut_trace(perturbed, [(4, 5)])[0])
        assert 1e-6 < oracle_kl_check(moments, 1e-4)[0] < 1e-4
        assert not perturbed.verdict((4, 5))[1]
        assert perturbed.verdict((4, 5), residual_tol=1e-4)[1]
        with pytest.raises(StructureViolationError):
            structure.decompose(perturbed, (4, 5))
        analysis.require_correctable(perturbed, (4, 5), residual_tol=1e-4)
        dec = structure.decompose(perturbed, (4, 5), certify_tol=1e-4)
        ea = structure.presend_from_decomposition(dec, perturbed)
        assert ea.schmidt_rank == 4


class TestEACodeValidation:
    def _make(self, **overrides):
        fields = dict(
            strategy=structure.STRUCTURE, shared_state=np.zeros(16, dtype=complex),
            sender_dim=4, receiver_dim=4, schmidt_rank=4)
        fields.update(overrides)
        return structure.EACode(**fields)

    def test_valid_instance(self):
        ea = self._make()
        assert ea.ebit_cost == 2

    def test_unknown_strategy(self):
        with pytest.raises(ContractError):
            self._make(strategy="teleport")

    def test_shared_length_mismatch(self):
        with pytest.raises(ContractError):
            self._make(shared_state=np.zeros(15, dtype=complex))


class TestLogicalUnitary:
    def test_bit_flip_swaps_codewords(self):
        code = cached_fixture("five_qubit")
        dec = structure.decompose(code, (4, 5))
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        lifted = logical_unitary_on_complement(dec, x)
        d = lifted.shape[0]
        np.testing.assert_allclose(lifted @ lifted.conj().T, np.eye(d), atol=1e-9)
        out = apply_on_kept(code.basis[0], dec.subset, lifted)
        np.testing.assert_allclose(out, code.basis[1], atol=1e-8)
        back = apply_on_kept(code.basis[1], dec.subset, lifted)
        np.testing.assert_allclose(back, code.basis[0], atol=1e-8)

    def test_phase_flip_signs_codeword(self):
        code = cached_fixture("five_qubit")
        dec = structure.decompose(code, (4, 5))
        z = np.diag([1.0, -1.0]).astype(complex)
        lifted = logical_unitary_on_complement(dec, z)
        out = apply_on_kept(code.basis[1], dec.subset, lifted)
        np.testing.assert_allclose(out, -code.basis[1], atol=1e-8)

    def test_identity_lifts_to_identity(self):
        dec = structure.decompose(cached_fixture("five_qubit"), (4, 5))
        lifted = logical_unitary_on_complement(dec, np.eye(2))
        np.testing.assert_allclose(lifted, np.eye(8), atol=1e-9)

    def test_shape_and_unitarity_contracts(self):
        dec = structure.decompose(cached_fixture("five_qubit"), (4, 5))
        with pytest.raises(ContractError):
            logical_unitary_on_complement(dec, np.eye(3))
        with pytest.raises(ContractError):
            logical_unitary_on_complement(
                dec, np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestApplyOnKept:
    def test_matches_matrix_oracle(self):
        rng = np.random.default_rng(7)
        n, subset = 4, (2, 4)
        state = rng.normal(size=16) + 1j * rng.normal(size=16)
        state /= np.linalg.norm(state)
        op = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        out = apply_on_kept(state, subset, op)
        want = op @ oracle_kept_erased_matrix(state, n, subset)
        np.testing.assert_allclose(
            oracle_kept_erased_matrix(out, n, subset), want, atol=1e-12)


class TestJson:
    def test_decomposition_payload(self):
        dec = structure.decompose(cached_fixture("pi_7_2_3"), (6, 7))
        data = structure.decomposition_to_json(dec)
        json.dumps(data)  # serializable end to end
        assert data["n"] == 7 and data["subset"] == [6, 7]
        assert data["dim_A"] == 3
        np.testing.assert_allclose(data["ancilla_spectrum"], [1 / 3] * 3, atol=1e-10)
        rebuilt = array_from_json(data["isometry_columns"]).T
        np.testing.assert_allclose(rebuilt, dec.isometry, atol=1e-15)
        shared = array_from_json(data["shared_state"])
        np.testing.assert_allclose(shared, dec.shared_state, atol=1e-15)

    def test_eacode_payload(self):
        dec = structure.decompose(cached_fixture("pi_7_2_3"), (6, 7))
        ea = structure.compress(dec)
        data = structure.eacode_to_json(dec, ea, 3)
        json.dumps(data)
        assert list(data) == ["parameters", "stabilizer_form", "strategy", "model_validity",
                              "sender_dim", "receiver_dim", "schmidt_rank", "ebit_cost",
                              "shared_state", "compress_isometry_columns"]
        assert data["parameters"] == "((5,2,3;3))"
        assert data["stabilizer_form"] is None
        assert data["strategy"] == "compressed"
        assert data["ebit_cost"] == 2
        v = array_from_json(data["compress_isometry_columns"]).T
        np.testing.assert_allclose(v, ea.compress_isometry, atol=1e-15)

    @pytest.mark.parametrize("source, subset, d", ROUND_TRIP_CASES)
    def test_arrays_round_trip_bit_for_bit(self, source, subset, d):
        code = source()
        dec = structure.decompose(code, subset)
        strategies = {"presend": structure.presend_from_decomposition(dec, code),
                      "structure": structure.ea_from_structure(dec),
                      "compressed": structure.compress(dec)}
        payload = {"decomposition": structure.decomposition_to_json(dec),
                   "ea": {name: structure.eacode_to_json(dec, ea, d)
                          for name, ea in strategies.items()}}
        data = json.loads(json.dumps(payload))
        assert_bit_exact(array_from_json(data["decomposition"]["shared_state"]),
                         dec.shared_state)
        assert_bit_exact(array_from_json(data["decomposition"]["isometry_columns"]),
                         dec.isometry.T)
        for name, ea in strategies.items():
            record = data["ea"][name]
            assert_bit_exact(array_from_json(record["shared_state"]), ea.shared_state)
            if ea.compress_isometry is None:
                assert "compress_isometry_columns" not in record
            else:
                assert_bit_exact(array_from_json(record["compress_isometry_columns"]),
                                 ea.compress_isometry.T)

    def test_uncompressed_payload_has_no_isometry(self):
        dec = structure.decompose(cached_fixture("five_qubit"), (4, 5))
        ea = structure.ea_from_structure(dec)
        assert "compress_isometry_columns" not in structure.eacode_to_json(dec, ea, 3)
