"""Correctability analysis against dense-projector and partial-trace oracles.

Every coefficient matrix checked here is rebuilt from kl_matrix's marginal
and null vectors (conftest.coefficient_matrix) and recomputed through an
independent route: embedded error operators built by explicit kron products
and lambda'_ij = Tr(P E_i^dag E_j P) / K through the dense codespace projector.
Marginals are recomputed with an einsum-based partial trace that never calls
the library's linear-algebra helpers.  Verdicts on sets too wide for the
coefficient matrix are checked against the structure certificate.
"""

import itertools
import math
import string
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

from eaqec import analysis, codes, qla, stab, structure
from eaqec.config import MAX_DIM, RANK_TOL, RESIDUAL_TOL
from eaqec.errors import ContractError, NotCorrectableError, SizeError, StructureViolationError

from conftest import (CYCLIC11_GENS, SHOR_GENS, abelian_groups, assert_bit_exact,
                      cached_fixture, coefficient_matrix, oracle_analysis, oracle_kl_check,
                      oracle_trace_moments, pauli_basis_on, pauli_matrix, perturbed_pi_7_2_3)

_I = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
# index = x + 2 z, matching the fixed basis order (x cycles fastest)
_SINGLE = [_I, _X, _Z, _X @ _Z]


def oracle_embedded_paulis(n: int, subset) -> list[np.ndarray]:
    """Dense error basis in the library's order, built qubit by qubit.

    For each of the 4^b patterns, qubit j of the subset carries X^x Z^z and
    every other qubit carries the identity; qubit 1 is the leftmost kron
    factor.  The pattern index runs x fastest and the first subset element
    sits on the most significant local bit.
    """
    subset = tuple(subset)
    b = len(subset)
    out = []
    for m in range(4 ** b):
        x_loc, z_loc = m & ((1 << b) - 1), m >> b
        op = np.array([[1.0 + 0j]])
        for q in range(1, n + 1):
            if q in subset:
                j = subset.index(q) + 1  # 1-based position in the subset
                x = (x_loc >> (b - j)) & 1
                z = (z_loc >> (b - j)) & 1
                op = np.kron(op, _SINGLE[x + 2 * z])
            else:
                op = np.kron(op, _I)
        out.append(op)
    return out


def oracle_projector(code) -> np.ndarray:
    """Codespace projector as an explicit rank-K sum of outer products."""
    bm = code.basis.T  # (2^n, K)
    return bm @ bm.conj().T


def oracle_coefficients(code, subset) -> np.ndarray:
    """lambda'_ij = Tr(P E_i^dag E_j P) / K via dense operators only."""
    p = oracle_projector(code)
    ops = oracle_embedded_paulis(code.n, subset)
    imgs = [e @ p for e in ops]
    m = len(ops)
    lam = np.empty((m, m), dtype=complex)
    for i in range(m):
        for j in range(m):
            lam[i, j] = np.vdot(imgs[i], imgs[j]) / code.k_dim
    return lam


def oracle_erased_marginal(code, subset) -> np.ndarray:
    """Partial trace of P / K onto the erased qubits via an einsum contraction.

    Row/column axes of the kept qubits share an index (trace); erased axes
    survive in subset order with the first subset element most significant.
    """
    subset = tuple(subset)
    n, b = code.n, len(subset)
    rho = oracle_projector(code) / code.k_dim
    t = rho.reshape((2,) * (2 * n))
    letters = string.ascii_lowercase
    row = [letters[i] for i in range(n)]
    col = [letters[n + i] if (i + 1) in subset else row[i] for i in range(n)]
    out = [row[q - 1] for q in subset] + [col[q - 1] for q in subset]
    marg = np.einsum("".join(row + col) + "->" + "".join(out), t)
    return marg.reshape(2 ** b, 2 ** b)


def oracle_gram_matrix(code, subset) -> np.ndarray:
    """The coefficient matrix as the Gram matrix of vec(E_j varrho_B^{1/2}),
    varrho_B from the einsum marginal and each local Pauli applied as a
    dense matrix product."""
    b = len(subset)
    sqrt_rho = qla.sqrtm_psd(oracle_erased_marginal(code, subset))
    paulis = [codes.PauliOperator(b, m & ((1 << b) - 1), m >> b) for m in range(4 ** b)]
    g = np.array([(pauli_matrix(p) @ sqrt_rho).ravel() for p in paulis])
    lam = g.conj() @ g.T
    return (lam + lam.conj().T) / 2


def rebuilt(report) -> tuple[np.ndarray, np.ndarray]:
    """The coefficient matrix and kernel rows of a kl_matrix report, rebuilt
    from its marginal and null vectors."""
    return coefficient_matrix(report.marginal, report.null_vectors)


def check_marginal_and_null_vectors(report, code, subset) -> None:
    """A kl_matrix report's varrho_B against the einsum partial trace of
    P / K, and its null vectors: 2^b - C of them, orthonormal, annihilated
    by varrho_B."""
    d = 1 << len(report.subset)
    np.testing.assert_allclose(report.marginal, oracle_erased_marginal(code, subset),
                               rtol=0, atol=1e-12)
    null = report.null_vectors
    assert null.shape == (d, d - report.marginal_rank)
    np.testing.assert_allclose(null.conj().T @ null, np.eye(null.shape[1]), rtol=0, atol=1e-12)
    assert np.abs(report.marginal @ null).max(initial=0.0) <= 1e-12


def local_unitaries(code, rng) -> codes.QuantumCode:
    """The code with an independent random 2 x 2 unitary on every qubit."""
    t = code.basis.reshape((code.k_dim,) + (2,) * code.n)
    for q in range(1, code.n + 1):
        u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        t = np.moveaxis(np.tensordot(u, t, axes=([1], [q])), 0, q)
    return codes.QuantumCode(code.n, t.reshape(code.k_dim, -1), label="rotated")


# Named erasure patterns with frozen verdicts: class, marginal rank, and the
# nonzero marginal eigenvalues.  The spectra are checked against the oracle
# marginal in the tests, not just against these literals.
KNOWN_CASES = [
    ("five_qubit", (4, 5), analysis.PURE, 4, (0.25,) * 4),
    ("pi_4_2_2", (4,), analysis.PURE, 2, (0.5, 0.5)),
    ("xp_7_8_2", (7,), analysis.PURE, 2, (0.5, 0.5)),
    ("pi_7_2_3", (6, 7), analysis.DEGENERATE, 3, (1 / 3,) * 3),
    ("steane", (5, 6, 7), analysis.PURE, 8, (0.125,) * 8),
    ("steane", (4, 5, 6, 7), analysis.DEGENERATE, 4, (0.25,) * 4),
]


def oracle_pair_residual(code, subset, lam) -> float:
    """The root-sum-square of ||V^dag E_a^dag E_b V - lam_ab I||_F over all
    16^b pairs of the basis, over 2^b.

    The pairwise form of the correctability condition, kept as the reference
    for the residual the library computes: each of the 4^b Paulis on the
    set is, up to phase, E_a^dag E_b for 4^b of the pairs, so this is the
    root-sum-square of the 4^b single-Pauli residuals.
    """
    v = code.basis.T
    applied = np.stack([e.apply(v) for e in pauli_basis_on(code.n, subset)])
    eye = np.eye(code.k_dim)
    total = 0.0
    for a in range(applied.shape[0]):
        blocks = np.einsum("ik,bil->bkl", applied[a].conj(), applied)
        dev = blocks - lam[a, :, None, None] * eye
        total += float(np.sum(np.abs(dev) ** 2))
    return math.sqrt(total / applied.shape[0])


def impure_example() -> codes.QuantumCode:
    """One codeword with lopsided Schmidt weights across the 1|2 cut."""
    v = np.zeros(4, dtype=complex)
    v[0b00] = np.sqrt(0.8)
    v[0b11] = np.sqrt(0.2)
    return codes.QuantumCode(n=2, basis=v[None, :])


def lopsided_ghz(n: int = 7) -> codes.QuantumCode:
    """0.6|0...0> + 0.8|1...1>: K = 1, so every erased set is correctable."""
    v = np.zeros(2 ** n, dtype=complex)
    v[0], v[-1] = 0.6, 0.8
    return codes.QuantumCode(n=n, basis=v[None, :])


def oracle_structural_report(code, subset) -> tuple[bool, str | None, int]:
    """(correctable, class, C) with the verdict from the structure certificate.

    structure.decompose certifies a factorization exactly when the erased
    set is correctable, independently of the Pauli-moment residual; C and
    the class are read off the einsum marginal.
    """
    try:
        structure.decompose(code, subset, rank_tol=RANK_TOL, certify_tol=RESIDUAL_TOL)
        correctable = True
    except StructureViolationError:
        correctable = False
    spec = np.sort(np.linalg.eigvalsh(oracle_erased_marginal(code, subset)))[::-1]
    rank = int(np.count_nonzero(spec > RANK_TOL * spec[0]))
    dim = 2 ** len(subset)
    if not correctable:
        cls = None
    elif rank < dim:
        cls = analysis.DEGENERATE
    elif np.max(np.abs(spec - 1.0 / dim)) <= 1e-10:
        cls = analysis.PURE
    else:
        cls = analysis.IMPURE_NONDEGENERATE
    return correctable, cls, rank


class TestPauliBasisOn:
    def test_single_qubit_order(self):
        ops = pauli_basis_on(1, (1,))
        assert len(ops) == 4
        assert ops[0] == codes.PauliOperator(1, 0, 0)
        for got, want in zip(ops, _SINGLE):
            np.testing.assert_allclose(pauli_matrix(got), want, atol=1e-14)

    def test_matches_dense_embedding(self):
        for n, subset in [(3, (2,)), (3, (1, 3)), (4, (2, 4)), (5, (4, 5))]:
            ops = pauli_basis_on(n, subset)
            want = oracle_embedded_paulis(n, subset)
            assert len(ops) == 4 ** len(subset)
            for got, ref in zip(ops, want):
                np.testing.assert_allclose(pauli_matrix(got), ref, atol=1e-14)

    def test_pairwise_trace_orthogonal(self):
        ops = pauli_basis_on(3, (1, 3))
        dense = [pauli_matrix(o) for o in ops]
        gram = np.array([[np.vdot(a, b) for b in dense] for a in dense])
        np.testing.assert_allclose(gram, 8 * np.eye(16), atol=1e-12)

    def test_support_restricted_to_subset(self):
        for op in pauli_basis_on(4, (2, 4)):
            assert (op.x_bits | op.z_bits) & ~0b0101 == 0     # qubits 2 and 4 only

    def test_empty_subset(self):
        ops = pauli_basis_on(3, ())
        assert len(ops) == 1
        assert ops[0] == codes.PauliOperator(3, 0, 0)

    def test_size_cap(self):
        # the cap counts 8 entries per operator, so b = 6 builds all 4096 of
        # them; the first refused set is b = 9
        ops = pauli_basis_on(7, (1, 2, 3, 4, 5, 6))
        assert len(ops) == 4 ** 6
        assert len({(o.x_bits, o.z_bits) for o in ops}) == 4 ** 6
        assert all((o.x_bits | o.z_bits) & 1 == 0 for o in ops)   # qubit 7 untouched


class TestCoefficientMatrix:
    @pytest.mark.parametrize("name,subset", [
        ("five_qubit", (5,)), ("five_qubit", (4, 5)), ("pi_4_2_2", (4,)),
        ("xp_7_8_2", (7,)), ("steane", (7,)), ("pi_7_2_3", (6, 7)),
    ])
    def test_matches_projector_route(self, name, subset):
        code = cached_fixture(name)
        lam, _ = rebuilt(analysis.kl_matrix(code, subset))
        want = oracle_coefficients(code, subset)
        np.testing.assert_allclose(lam, want, atol=1e-10)

    @pytest.mark.parametrize("name", [
        "five_qubit", "steane", "pi_4_2_2", "pi_7_2_3", "xp_7_8_2"])
    def test_gather_matches_matrix_products(self, name):
        # lambda_FG = sign * c_{F ^ G} gathered from the sign and index
        # tables, against the Gram matrix of vec(E_j varrho_B^{1/2}) built
        # from dense products on the einsum marginal
        code = cached_fixture(name)
        for b in range(4):
            for subset in itertools.combinations(range(1, code.n + 1), b):
                got, _ = rebuilt(analysis.kl_matrix(code, subset))
                assert np.abs(got - oracle_gram_matrix(code, subset)).max() <= 1e-14

    @pytest.mark.parametrize("make,subsets,residual_tol", [
        *(pytest.param(lambda name=name: cached_fixture(name), None, RESIDUAL_TOL, id=name)
          for name in codes.FIXTURE_NAMES),
        pytest.param(lambda: cached_fixture("steane"), [(1, 2, 3, 4, 5)], RESIDUAL_TOL,
                     id="steane-b5"),
        pytest.param(perturbed_pi_7_2_3, [(6, 7)], 1e-2, id="perturbed-pi_7_2_3"),
    ])
    def test_spectrum_rank_and_kernel(self, make, subsets, residual_tol):
        # spec lambda = 2^b spec varrho_B, each value repeated 2^b times, so
        # the one rank rule on lambda's eigenvalues gives matrix_rank = 2^b C;
        # the kernel rows are orthonormal and lambda sends them to at most
        # the largest eigenvalue the rank rule discards (2.4e-10 on the
        # perturbed code, exact zero elsewhere)
        code = make()
        if subsets is None:
            subsets = [s for b in range(4)
                       for s in itertools.combinations(range(1, code.n + 1), b)]
        for subset in subsets:
            report = analysis.kl_matrix(code, subset, residual_tol=residual_tol)
            lam, kernel = rebuilt(report)
            d = 1 << len(report.subset)
            eigs = np.linalg.eigvalsh(lam)
            marginal = np.linalg.eigvalsh(oracle_erased_marginal(code, subset))
            assert np.abs(eigs - np.repeat(d * marginal, d)).max() <= 1e-12
            assert qla.numerical_rank(eigs) == report.matrix_rank
            assert kernel.shape == (d * d - report.matrix_rank, d * d)
            np.testing.assert_allclose(kernel @ kernel.conj().T, np.eye(len(kernel)),
                                       rtol=0, atol=1e-12)
            if len(kernel):
                discarded = np.sort(eigs)[::-1][report.matrix_rank:].max()
                assert np.linalg.norm(lam @ kernel.T, 2) <= 1e-12 + discarded

    def test_five_qubit_single_erasure_is_identity(self):
        # any one qubit of the five-qubit code carries a maximally mixed
        # marginal, so the coefficient matrix collapses to the identity
        report = analysis.kl_matrix(cached_fixture("five_qubit"), (5,))
        np.testing.assert_allclose(rebuilt(report)[0], np.eye(4), atol=1e-12)
        assert report.matrix_rank == 4
        assert report.correctable

    @pytest.mark.parametrize("name", [
        "five_qubit", "steane", "pi_4_2_2", "pi_7_2_3", "xp_7_8_2"])
    def test_gram_invariants(self, name):
        code = cached_fixture(name)
        subsets = [(q,) for q in range(1, code.n + 1)] + [(1, 2), (code.n - 1, code.n)]
        for subset in subsets:
            lam, _ = rebuilt(analysis.kl_matrix(code, subset))
            np.testing.assert_allclose(lam, lam.conj().T, atol=1e-12)
            np.testing.assert_allclose(np.diag(lam).real, 1.0, atol=1e-12)
            assert np.linalg.eigvalsh(lam).min() >= -1e-10

    def test_spectrum_scaling_links_matrix_and_marginal(self):
        # the coefficient matrix spectrum is the marginal spectrum scaled by
        # 2^b and repeated 2^b times, which is why the two rank checks agree
        for name, subset in [("five_qubit", (4, 5)), ("pi_7_2_3", (6, 7))]:
            code = cached_fixture(name)
            lam = oracle_coefficients(code, subset)
            marg = oracle_erased_marginal(code, subset)
            d = marg.shape[0]
            want = np.sort(np.repeat(np.linalg.eigvalsh(marg) * d, d))
            np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(lam)), want,
                                       atol=1e-9)

    def test_non_correctable_residual_is_large(self):
        report = analysis.kl_matrix(cached_fixture("five_qubit"), (1, 2, 3))
        assert not report.correctable
        assert report.residual_max > 0.1

    def test_size_cap(self):
        # the marginal and its null vectors hold 4^b entries each, so kl_matrix
        # refuses exactly where analyze_subset does, on the K^2 4^b partial
        # trace: K = 128 on 8 qubits at b = 4 (2^22 entries)
        code = stab.codewords(stab.StabilizerGroup.from_strings(["ZIIIIIII"]))
        for call in (analysis.kl_matrix, analysis.analyze_subset):
            with pytest.raises(SizeError, match="4194304 exceeds cap"):
                call(code, (1, 2, 3, 4))
        # and it answers Steane at b = 6 and 7, where the 16^b coefficient
        # matrix itself would exceed MAX_DIM
        steane = cached_fixture("steane")
        for subset in [(1, 2, 3, 4, 5, 6), tuple(range(1, 8))]:
            report = analysis.kl_matrix(steane, subset)
            plain = analysis.analyze_subset(steane, subset)
            assert not report.correctable and not plain.correctable
            assert report.marginal_rank == plain.marginal_rank
            assert np.array_equal(report.marginal_spectrum, plain.marginal_spectrum)
            check_marginal_and_null_vectors(report, steane, subset)


class TestResidual:
    @pytest.mark.parametrize("name", [
        "five_qubit", "steane", "pi_4_2_2", "pi_7_2_3", "xp_7_8_2"])
    def test_matches_pair_oracle(self, name):
        # every subset with b <= 3: same verdict and residual as the 16^b
        # pair loop, with c_F from the matrix row and with c_F = tr/K
        code = cached_fixture(name)
        for b in range(1, 4):
            for subset in itertools.combinations(range(1, code.n + 1), b):
                report = analysis.kl_matrix(code, subset)
                want = oracle_pair_residual(code, subset, rebuilt(report)[0])
                moments = oracle_trace_moments(codes.cut_trace(code, [subset])[0])
                trace_coeff, _ = oracle_kl_check(moments, RESIDUAL_TOL)
                assert abs(report.residual_max - want) <= 1e-13
                assert abs(trace_coeff - want) <= 1e-13
                assert report.correctable == (want <= RESIDUAL_TOL)
                assert code.verdict(subset)[1] == report.correctable
                try:
                    analysis.require_correctable(code, subset)
                    gate_passed = True
                except NotCorrectableError:
                    gate_passed = False
                assert gate_passed == report.correctable

    def test_moment_tensor_refused_before_allocating(self):
        # K = 128 on 8 qubits, b = 4: the moments would hold K^2 4^b = 2^22
        # entries, above MAX_DIM; refused before the partial trace is formed
        code = stab.codewords(stab.StabilizerGroup.from_strings(["ZIIIIIII"]))
        tracemalloc.start()
        try:
            with pytest.raises(SizeError):
                code.verdict((1, 2, 3, 4))[1]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_gate_decides_wide_sets(self):
        # the residual decides sets too wide for the coefficient matrix as well
        with pytest.raises(NotCorrectableError):
            analysis.require_correctable(cached_fixture("steane"), (2, 3, 4, 5, 6, 7))
        analysis.require_correctable(lopsided_ghz(), (1, 2, 3, 4, 5, 6))


class TestMarginal:
    @pytest.mark.parametrize("name,subset,_cls,rank,spectrum", KNOWN_CASES)
    def test_rank_and_spectrum(self, name, subset, _cls, rank, spectrum):
        code = cached_fixture(name)
        report = analysis.kl_matrix(code, subset)
        assert report.marginal_rank == rank
        np.testing.assert_allclose(report.marginal_spectrum[:rank], spectrum,
                                   atol=1e-10)
        np.testing.assert_allclose(report.marginal_spectrum[rank:], 0.0, atol=1e-10)
        oracle_spec = np.sort(np.linalg.eigvalsh(oracle_erased_marginal(code, subset)))[::-1]
        np.testing.assert_allclose(report.marginal_spectrum, oracle_spec, atol=1e-10)

    @pytest.mark.parametrize("name", codes.FIXTURE_NAMES)
    def test_marginal_and_null_vectors_match_einsum_oracle(self, name):
        # every subset with b <= 3
        code = cached_fixture(name)
        for b in range(4):
            for subset in itertools.combinations(range(1, code.n + 1), b):
                check_marginal_and_null_vectors(analysis.kl_matrix(code, subset), code, subset)

    def test_kept_ranks_match_marginal_rank_when_correctable(self):
        # every codeword shares the erased marginal, so each kept-side rank
        # equals the marginal rank
        for name, subset, *_ in KNOWN_CASES:
            report = analysis.kl_matrix(cached_fixture(name), subset)
            assert report.kept_marginal_ranks == (report.marginal_rank,) * \
                cached_fixture(name).k_dim

    def test_kept_ranks_are_c_on_every_correctable_set(self):
        # the rule the GF(2) report relies on, read off the dense route: on
        # every correctable set with b <= 3 of the fixtures, each kept rank is C
        checked = 0
        for name in codes.FIXTURE_NAMES:
            code = cached_fixture(name)
            for b in range(1, 4):
                for report in analysis.scan_subsets(code, b):
                    if report.correctable:
                        assert report.kept_marginal_ranks == \
                            (report.marginal_rank,) * code.k_dim, (name, report.subset)
                        checked += 1
        assert checked == 111


class TestClassify:
    @pytest.mark.parametrize("name,subset,cls,_rank,_spectrum", KNOWN_CASES)
    def test_known_cases(self, name, subset, cls, _rank, _spectrum):
        report = analysis.analyze_subset(cached_fixture(name), subset)
        assert report.correctable
        assert report.trichotomy == cls

    def test_impure_nondegenerate(self):
        report = analysis.analyze_subset(impure_example(), (2,))
        assert report.trichotomy == analysis.IMPURE_NONDEGENERATE
        assert report.marginal_rank == 2
        np.testing.assert_allclose(report.marginal_spectrum, [0.8, 0.2], atol=1e-12)

    def test_not_correctable_raises(self):
        report = analysis.kl_matrix(cached_fixture("five_qubit"), (1, 2, 3))
        with pytest.raises(NotCorrectableError):
            analysis.classify(report)

    def test_rank_fullness_equivalence(self):
        # full coefficient rank exactly when the marginal has full rank
        for name in ["five_qubit", "steane", "pi_4_2_2", "pi_7_2_3", "xp_7_8_2"]:
            code = cached_fixture(name)
            for subset in itertools.combinations(range(1, code.n + 1), 2):
                report = analysis.kl_matrix(code, subset)
                dim = 1 << len(report.subset)
                assert (report.matrix_rank == dim * dim) == \
                    (report.marginal_rank == dim)

    def test_empty_subset_is_pure(self):
        report = analysis.analyze_subset(cached_fixture("five_qubit"), ())
        assert report.correctable
        assert report.trichotomy == analysis.PURE
        assert (report.matrix_rank, report.matrix_dim) == (1, 1)
        assert report.marginal_rank == 1
        assert rebuilt(analysis.kl_matrix(cached_fixture("five_qubit"), ()))[0].shape == (1, 1)


class TestKernel:
    def test_kernel_rows_annihilate_codespace(self):
        for name in codes.FIXTURE_NAMES:
            code = cached_fixture(name)
            p = oracle_projector(code)
            for b in range(3):
                for subset in itertools.combinations(range(1, code.n + 1), b):
                    _, kernel = rebuilt(analysis.kl_matrix(code, subset))
                    ops = oracle_embedded_paulis(code.n, subset)
                    for row in kernel:
                        combo = sum(c * op for c, op in zip(row, ops))
                        assert np.linalg.norm(combo @ p) <= 1e-7, (name, subset)

    def test_kernel_rows_orthonormal(self):
        _, kernel = rebuilt(analysis.kl_matrix(cached_fixture("pi_7_2_3"), (6, 7)))
        gram = kernel @ kernel.conj().T
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-10)

    def test_degenerate_steane_kernel_sample(self):
        code = cached_fixture("steane")
        report = analysis.kl_matrix(code, (4, 5, 6, 7))
        _, kernel = rebuilt(report)
        assert kernel.shape[0] == 256 - report.matrix_rank
        p = oracle_projector(code)
        ops = oracle_embedded_paulis(code.n, (4, 5, 6, 7))
        for row in kernel[:5]:
            combo = sum(c * op for c, op in zip(row, ops))
            assert np.linalg.norm(combo @ p) <= 1e-7

    def test_kernel_empty_for_full_rank(self):
        _, kernel = rebuilt(analysis.kl_matrix(cached_fixture("five_qubit"), (4, 5)))
        assert kernel.shape == (0, 16)


class TestInvariance:
    """Distance, verdict, class and C do not depend on how the qubits are
    labelled or on a change of local basis on each qubit."""

    CASES = [("five_qubit", (4, 5)), ("five_qubit", (1, 2, 3)),
             ("pi_7_2_3", (6, 7)), ("steane", (4, 5, 6, 7)), ("xp_7_8_2", (7,))]

    @staticmethod
    def summary(code, subset):
        report = analysis.analyze_subset(code, subset)
        return (codes.min_distance(code), report.correctable, report.trichotomy,
                report.marginal_rank, report.matrix_rank)

    @pytest.mark.parametrize("name,subset", CASES)
    @pytest.mark.parametrize("seed", range(2))
    def test_qubit_permutation(self, name, subset, seed):
        code = cached_fixture(name)
        order = tuple(int(q) for q in np.random.default_rng(seed).permutation(code.n) + 1)
        # erasing every qubit in `order` cuts each codeword into one row in that order
        moved = codes.QuantumCode(code.n, qla.bipartite_matrix(code.basis, [order])[0, 0],
                                  label="permuted")
        # qubit order[j] now sits at position j + 1
        moved_subset = tuple(order.index(q) + 1 for q in subset)
        assert self.summary(moved, moved_subset) == self.summary(code, subset)

    @pytest.mark.parametrize("name,subset", CASES)
    @pytest.mark.parametrize("seed", range(2))
    def test_local_unitaries(self, name, subset, seed):
        code = cached_fixture(name)
        rotated = local_unitaries(code, np.random.default_rng(seed))
        assert self.summary(rotated, subset) == self.summary(code, subset)

    @pytest.mark.parametrize("name,subset", CASES)
    @pytest.mark.parametrize("seed", range(2))
    def test_logical_rotation(self, name, subset, seed):
        # basis -> U basis with a random K x K unitary U spans the same codespace
        code = cached_fixture(name)
        rng = np.random.default_rng(seed)
        k = code.k_dim
        u, _ = np.linalg.qr(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))
        rotated = codes.QuantumCode(code.n, u @ code.basis, label="rotated")
        assert self.summary(rotated, subset) == self.summary(code, subset)
        np.testing.assert_allclose(
            analysis.analyze_subset(rotated, subset).marginal_spectrum,
            analysis.analyze_subset(code, subset).marginal_spectrum, rtol=0, atol=1e-12)


def correctable_sets(code, size):
    return [report for report in analysis.scan_subsets(code, size) if report.correctable]


class TestFindCorrectableSets:
    """The correctable sets a scan finds, with their classification."""

    def test_five_qubit_pairs(self):
        reports = correctable_sets(cached_fixture("five_qubit"), 2)
        assert len(reports) == 10  # every pair of qubits can be erased
        for report in reports:
            assert report.trichotomy == analysis.PURE
            assert report.marginal_rank == 4

    def test_five_qubit_singles(self):
        reports = correctable_sets(cached_fixture("five_qubit"), 1)
        assert len(reports) == 5
        assert all(r.marginal_rank == 2 for r in reports)

    def test_subset_size_cap(self):
        # the cap on the scan size is the K^2 4^size moment check, nothing
        # else: steane scans at size 6, while K = 128 on 8 qubits at size 4
        # (2^22 moments) is refused before anything is built
        assert correctable_sets(cached_fixture("steane"), 6) == []
        code = stab.codewords(stab.StabilizerGroup.from_strings(["ZIIIIIII"]))
        assert code.k_dim ** 2 * 4 ** 4 > MAX_DIM
        tracemalloc.start()
        try:
            with pytest.raises(SizeError):
                analysis.scan_subsets(code, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_wide_sets_are_certified_structurally(self):
        # the moment residual agrees with the structure certificate on a
        # set too wide for the coefficient matrix, and the report carries
        # every field
        code = cached_fixture("steane")
        subset = (1, 2, 3, 4, 5, 6)
        report = analysis.analyze_subset(code, subset)
        assert not report.correctable and report.trichotomy is None
        assert (report.correctable, report.trichotomy, report.marginal_rank) == \
            oracle_structural_report(code, subset)
        assert report.marginal is None and report.null_vectors is None
        assert report.matrix_rank == 2 ** 6 * report.marginal_rank
        assert report.matrix_dim == 4 ** 6
        assert report.residual_max > 0.1
        oracle_spec = np.sort(np.linalg.eigvalsh(oracle_erased_marginal(code, subset)))[::-1]
        np.testing.assert_allclose(report.marginal_spectrum, oracle_spec, atol=1e-10)
        assert report.marginal_rank == np.count_nonzero(oracle_spec > 1e-9)

    def test_scan_qubit_cap(self):
        # scans have no qubit cap: in a 13-qubit K = 1 product state every
        # single qubit is correctable, degenerate with C = 1
        n = 13
        v = np.zeros(2 ** n, dtype=complex)
        v[0] = 1.0
        big = codes.QuantumCode(n=n, basis=v[None, :])
        reports = correctable_sets(big, 1)
        assert [r.subset for r in reports] == [(q,) for q in range(1, n + 1)]
        assert all(r.trichotomy == analysis.DEGENERATE and r.marginal_rank == 1
                   for r in reports)


class TestSingleRoute:
    """analyze_subset against the two routes it replaces: the coefficient
    matrix for narrow sets and the structure certificate for wide ones."""

    @pytest.mark.parametrize("name", codes.FIXTURE_NAMES)
    def test_matches_coefficient_matrix(self, name):
        # matrix_rank = 2^b rank(varrho_B) equals the rank of the 4^b x 4^b
        # matrix itself on every subset with 1 <= b <= 4
        code = cached_fixture(name)
        for b in range(1, min(4, code.n) + 1):
            for subset in itertools.combinations(range(1, code.n + 1), b):
                got = analysis.analyze_subset(code, subset)
                want = analysis.kl_matrix(code, subset)
                lam, _ = rebuilt(want)
                assert got.matrix_rank == qla.numerical_rank(np.linalg.eigvalsh(lam)), subset
                assert got.correctable == want.correctable, subset
                assert got.marginal_rank == want.marginal_rank
                assert got.kept_marginal_ranks == want.kept_marginal_ranks
                assert np.array_equal(got.marginal_spectrum, want.marginal_spectrum)
                assert abs(got.residual_max - want.residual_max) <= 1e-13

    @pytest.mark.parametrize("make", [
        *(pytest.param(lambda name=name: cached_fixture(name), id=name)
          for name in codes.FIXTURE_NAMES),
        pytest.param(lopsided_ghz, id="lopsided_ghz"),
    ])
    def test_wide_sets_match_structural_oracle(self, make):
        code = make()
        for b in range(6, code.n + 1):
            for subset in itertools.combinations(range(1, code.n + 1), b):
                report = analysis.analyze_subset(code, subset)
                assert (report.correctable, report.trichotomy, report.marginal_rank) == \
                    oracle_structural_report(code, subset), subset


class TestCertificateDifferential:
    """The structure certificate and the moment residual agree on every
    narrow erased set once the fixture's frame is scrambled."""

    @staticmethod
    def frames(code):
        # two random local-unitary frames and one random logical rotation
        yield local_unitaries(code, np.random.default_rng(0))
        yield local_unitaries(code, np.random.default_rng(1))
        rng = np.random.default_rng(2)
        k = code.k_dim
        u, _ = np.linalg.qr(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))
        yield codes.QuantumCode(code.n, u @ code.basis, label="rotated")

    @pytest.mark.parametrize("name", codes.FIXTURE_NAMES)
    def test_certifies_exactly_the_correctable_sets(self, name):
        verdicts = set()
        for code in self.frames(cached_fixture(name)):
            for b in range(1, 4):
                for subset in itertools.combinations(range(1, code.n + 1), b):
                    correctable = analysis.analyze_subset(code, subset).correctable
                    try:
                        structure.decompose(code, subset)
                        certified = True
                    except StructureViolationError:
                        certified = False
                    assert certified == correctable, subset
                    verdicts.add(correctable)
        assert verdicts == {True, False}


def assert_matches_oracle(report, want):
    """A report equals the per-subset oracle's: the spectrum bit for bit,
    verdict, C, class and kept ranks exactly, and the residual, which the
    oracle sums over the 4^b Pauli moments, within 1e-12 relative."""
    assert report.subset == want["subset"]
    assert abs(report.residual_max - want["residual"]) <= 1e-12 * max(want["residual"], 1.0)
    assert_bit_exact(report.marginal_spectrum, want["spectrum"])
    assert report.correctable == want["correctable"]
    assert report.marginal_rank == want["C"]
    assert report.trichotomy == want["trichotomy"]
    assert report.kept_marginal_ranks == want["kept_ranks"]


class TestStackedPass:
    """scan_subsets and analyze_subset decide a stack of subsets in one pass;
    every report equals the per-subset oracle (conftest.oracle_analysis)."""

    @staticmethod
    def check(code, sizes, **tols):
        for b in sizes:
            reports = list(analysis.scan_subsets(code, b, **tols))
            subsets = list(itertools.combinations(range(1, code.n + 1), b))
            assert [r.subset for r in reports] == subsets
            for report in reports:
                want = oracle_analysis(code, report.subset, **tols)
                single = analysis.analyze_subset(code, want["subset"], **tols)
                assert_matches_oracle(report, want)
                assert_matches_oracle(single, want)
                assert_bit_exact(np.float64(report.residual_max), np.float64(single.residual_max))

    @pytest.mark.parametrize("make,max_b", [
        *(pytest.param(lambda name=name: cached_fixture(name), 4, id=name)
          for name in codes.FIXTURE_NAMES),
        pytest.param(lambda: stab.codewords(stab.StabilizerGroup.from_strings(SHOR_GENS)), 4,
                     id="shor"),
        pytest.param(lambda: stab.codewords(stab.StabilizerGroup.from_strings(CYCLIC11_GENS)),
                     3, id="cyclic11"),
    ])
    def test_named_codes(self, make, max_b):
        code = make()
        self.check(code, range(1, min(max_b, code.n) + 1))

    @pytest.mark.parametrize("residual_tol", [RESIDUAL_TOL, 1e-4])
    def test_perturbed_code(self, residual_tol):
        # {6,7} passes only the loosened tolerance, with a rank-3 marginal
        code = perturbed_pi_7_2_3()
        self.check(code, range(1, 5), residual_tol=residual_tol)
        assert analysis.analyze_subset(code, (6, 7), residual_tol).correctable == (
            residual_tol == 1e-4)

    @settings(max_examples=50)
    @given(abelian_groups(max_n=7))
    def test_random_stabilizer_codes(self, group):
        self.check(stab.codewords(group), range(1, min(3, group.n) + 1))

    @pytest.fixture
    def passes(self, monkeypatch):
        """The number of subsets in each stacked pass, in the order they run."""
        sizes = []
        stacked = analysis._analyze

        def spy(code, subsets, *args):
            sizes.append(len(subsets))
            return stacked(code, subsets, *args)

        monkeypatch.setattr(analysis, "_analyze", spy)
        return sizes

    def test_chunks_run_in_order_and_on_demand(self, passes, monkeypatch):
        # a bound of three subsets' cuts: steane's 35 triples (K 2^n = K^2 4^3
        # = 256 entries each) run as 11 passes of three and one of two
        code = cached_fixture("steane")
        monkeypatch.setattr(analysis, "SCAN_CHUNK", 3 * 256)
        scan = analysis.scan_subsets(code, 3)
        assert passes == []                       # nothing runs before it is read
        first = next(scan)
        assert first.subset == (1, 2, 3) and passes == [3]
        reports = [first] + list(scan)
        assert passes == [3] * 11 + [2]
        assert [r.subset for r in reports] == list(itertools.combinations(range(1, 8), 3))
        for report in reports:
            assert_matches_oracle(report, oracle_analysis(code, report.subset))

    def test_chunks_bound_the_cut_and_the_partial_traces(self, passes, monkeypatch):
        shor = stab.codewords(stab.StabilizerGroup.from_strings(SHOR_GENS))
        list(analysis.scan_subsets(shor, 2))      # K 2^n = 1024 entries a subset
        assert passes == [4] * 9
        passes.clear()
        list(analysis.scan_subsets(cached_fixture("five_qubit"), 4))   # K^2 4^4 = 1024
        assert passes == [4, 1]
        passes.clear()
        list(analysis.scan_subsets(cached_fixture("xp_7_8_2"), 1))
        assert passes == [4, 3]                   # K 2^n = 1024 on 7 qubits
        passes.clear()
        monkeypatch.setattr(analysis, "SCAN_CHUNK", 1)
        list(analysis.scan_subsets(cached_fixture("pi_4_2_2"), 2))
        assert passes == [1] * 6                  # never less than one subset


def _source(kind: str):
    """The five-qubit basis, or Shor's group: one source of each kind."""
    if kind == "basis":
        return cached_fixture("five_qubit")
    return stab.StabilizerGroup.from_strings(SHOR_GENS)


def _basis(source) -> codes.QuantumCode:
    return stab.codewords(source) if isinstance(source, stab.StabilizerGroup) else source


ENTRY_POINTS = {
    "verdict": lambda source, subset: source.verdict(subset),
    "analyze_subset": analysis.analyze_subset,
    "kl_matrix": lambda source, subset: analysis.kl_matrix(_basis(source), subset),
    "decompose": lambda source, subset: structure.decompose(_basis(source), subset),
    "verdict_and_s": stab.verdict_and_s,
    "subgroup_on": stab.subgroup_on,
    "codeword_dim_on": stab.codeword_dim_on,
}
GROUP_ONLY = ("verdict_and_s", "subgroup_on", "codeword_dim_on")


class TestErasedLabels:
    """Each route checks an erased set's labels once, where they enter it:
    the cut for a basis, the GF(2) support mask for a group.  A report and
    a decomposition carry the labels as Python ints, in the given order."""

    @pytest.mark.parametrize("labels", ["0", "n+1", "1,1"])
    @pytest.mark.parametrize("kind,entry", [
        (kind, entry) for kind in ("basis", "group") for entry in ENTRY_POINTS
        if kind == "group" or entry not in GROUP_ONLY])
    def test_bad_labels_are_refused(self, kind, entry, labels):
        source = _source(kind)
        subset = {"0": (0,), "n+1": (source.n + 1,), "1,1": (1, 1)}[labels]
        with pytest.raises(ContractError):
            ENTRY_POINTS[entry](source, subset)

    @pytest.mark.parametrize("kind", ["basis", "group"])
    def test_labels_are_carried_as_given(self, kind):
        source = _source(kind)
        labels = np.array([3, 1])
        dec = structure.decompose(_basis(source), labels)
        assert dec.n == source.n and len(dec.isometry) == 1 << (source.n - 2)
        for subset in (analysis.analyze_subset(source, labels).subset,
                       analysis.kl_matrix(_basis(source), labels).subset, dec.subset):
            assert subset == (3, 1) and all(type(q) is int for q in subset)

    def test_gf2_route_reads_integer_arrays(self):
        group = _source("group")
        for entry in ("verdict",) + GROUP_ONLY:
            assert ENTRY_POINTS[entry](group, np.array([3, 1])) == \
                ENTRY_POINTS[entry](group, (3, 1)), entry

    def test_zero_qubit_sources_are_refused(self):
        with pytest.raises(ContractError, match="at least one qubit"):
            codes.QuantumCode(0, np.ones((1, 1)))
        with pytest.raises(ContractError, match="at least one qubit"):
            stab.StabilizerGroup.from_strings([""])
        with pytest.raises(ContractError, match="at least one qubit"):
            stab.StabilizerGroup.from_generators([], n=0)
