"""Acceptance gate: eleven numbered end-to-end criteria with time budgets.

Each test prints exactly one ACCEPTANCE line (PASS/FAIL with its runtime)
through the capture-disabled channel so the line lands in the live log, then
asserts.  Tolerances are stated inline next to each check.
"""

import itertools
import time

import numpy as np

from eaqec import analysis, codes, qla, simulate, stab, structure

from conftest import cached_fixture, channel_form_check, coefficient_matrix, replacer_channel
from test_stab import FIVE_GENS, STEANE_GENS


def _criterion(capsys, num, limit, body):
    t0 = time.perf_counter()
    try:
        detail = body()
        ok, failure = True, None
    except AssertionError as exc:
        detail = str(exc) or "assertion failed"
        ok, failure = False, detail
    elapsed = time.perf_counter() - t0
    in_time = elapsed <= limit
    status = "PASS" if (ok and in_time) else "FAIL"
    with capsys.disabled():
        print(f"\nACCEPTANCE {num:>2} {status} [{elapsed:6.2f}s / {limit:.0f}s] {detail}")
    assert ok, failure
    assert in_time, f"runtime {elapsed:.2f}s exceeded the {limit:.0f}s budget"


def test_01_symplectic_extension_pipeline(capsys):
    def body():
        group = stab.StabilizerGroup.from_strings(("XZZ", "ZYY", "ZZX", "YYZ"))
        form = stab.symplectic_gram_schmidt(group)
        assert form.c == 2 and form.s == 0, f"got c={form.c}, s={form.s}"
        ext = stab.ea_extend(form)
        got = sorted(str(p) for p in ext.generators)
        want = sorted(["XZZXI", "ZYYZI", "ZZXIX", "YYZIZ"])
        assert got == want, f"extended table {got}"
        code = stab.codewords(ext)
        diff = np.linalg.norm(codes.projector(code)
                              - codes.projector(cached_fixture("five_qubit")))
        assert diff <= 1e-10, f"projector difference {diff:.2e}"
        return f"c=2 s=0, table reproduced, projector diff {diff:.1e}"
    _criterion(capsys, 1, 1.0, body)


def test_02_half_half_single_erasure(capsys):
    def body():
        code = cached_fixture("pi_4_2_2")
        dec = structure.decompose(code, (4,))
        np.testing.assert_allclose(dec.ancilla_spectrum, [0.5, 0.5], atol=1e-10)
        assert dec.residual <= 1e-9, f"residual {dec.residual:.2e}"
        form = structure.ea_parameters(dec, structure.ea_from_structure(dec),
                                       codes.min_distance(code))[0]
        assert form == "((3,2,2;2))", form
        return f"spectrum (1/2,1/2), residual {dec.residual:.1e}, ((3,2,2;2))"
    _criterion(capsys, 2, 1.0, body)


def test_03_octal_code_single_erasure(capsys):
    def body():
        code = cached_fixture("xp_7_8_2")
        dec = structure.decompose(code, (7,))
        assert dec.ancilla_dim == 2, f"dim_A {dec.ancilla_dim}"
        np.testing.assert_allclose(dec.ancilla_state, np.eye(2) / 2, atol=1e-10)
        form = structure.ea_parameters(dec, structure.ea_from_structure(dec),
                                       codes.min_distance(code))[0]
        assert form == "((6,8,2;2))", form
        return "dim_A=2, ancilla I/2, ((6,8,2;2))"
    _criterion(capsys, 3, 5.0, body)


def test_04_degenerate_pair_compression(capsys):
    def body():
        code = cached_fixture("pi_7_2_3")
        dec = structure.decompose(code, (6, 7))
        np.testing.assert_allclose(dec.ancilla_spectrum, [1 / 3] * 3, atol=1e-10)
        ea = structure.compress(dec)
        assert ea.receiver_dim == 3, f"C {ea.receiver_dim}"
        assert ea.ebit_cost == 2, f"ebit cost {ea.ebit_cost}"
        form = structure.ea_parameters(dec, ea, codes.min_distance(code))[0]
        assert form == "((5,2,3;3))", form
        return "spectrum (1/3,1/3,1/3), C=3, 2 ebits, ((5,2,3;3))"
    _criterion(capsys, 4, 5.0, body)


def test_05_four_qubit_subgroup_degeneracy(capsys):
    def body():
        group = stab.StabilizerGroup.from_strings(STEANE_GENS)
        sub = stab.subgroup_on(group, (4, 5, 6, 7))
        assert 1 << sub.num_generators == 4, f"subgroup order {1 << sub.num_generators}"
        code = cached_fixture("steane")
        report = analysis.analyze_subset(code, (4, 5, 6, 7))
        assert report.trichotomy == analysis.DEGENERATE, report.trichotomy
        dec = structure.decompose(code, (4, 5, 6, 7))
        ea = structure.compress(dec)
        assert ea.receiver_dim == 4, f"C {ea.receiver_dim}"
        form = structure.ea_parameters(dec, ea, codes.min_distance(code))[1]
        assert form == "[[3,1,3;2]]", form
        return "subgroup order 4, degenerate, C=4 = [[3,1,3;2]]"
    _criterion(capsys, 5, 5.0, body)


def test_06_distance_suite(capsys):
    def body():
        want = {"steane": 3, "five_qubit": 3, "pi_4_2_2": 2,
                "pi_7_2_3": 3, "xp_7_8_2": 2}
        worst = 0.0
        for name, d_want in want.items():
            t0 = time.perf_counter()
            d = codes.min_distance(cached_fixture(name))
            dt = time.perf_counter() - t0
            worst = max(worst, dt)
            assert d == d_want, f"{name}: distance {d} != {d_want}"
            assert dt < 30.0, f"{name}: distance took {dt:.1f}s"
        return f"distances 3/3/2/3/2, slowest code {worst:.2f}s"
    _criterion(capsys, 6, 150.0, body)


def test_07_trichotomy_rank_equivalence(capsys):
    def body():
        checked = 0
        for name in ["five_qubit", "steane", "pi_4_2_2", "pi_7_2_3", "xp_7_8_2"]:
            code = cached_fixture(name)
            for b in (1, 2, 3):
                if b > code.n:
                    continue
                for subset in itertools.combinations(range(1, code.n + 1), b):
                    report = analysis.analyze_subset(code, subset)
                    if not report.correctable:
                        continue
                    checked += 1
                    deficient = report.marginal_rank < 2 ** b
                    assert deficient == (report.trichotomy == analysis.DEGENERATE), \
                        f"{name} {subset}: C deficiency vs class mismatch"
                    assert (report.matrix_rank == 4 ** b) == \
                        (report.marginal_rank == 2 ** b), \
                        f"{name} {subset}: rank fullness mismatch"
        return f"iff held on {checked} correctable subsets"
    _criterion(capsys, 7, 300.0, body)


def test_08_pair_degeneracy_sweep(capsys):
    def body():
        code = cached_fixture("pi_7_2_3")
        ranks = []
        for subset in itertools.combinations(range(1, 8), 2):
            report = analysis.kl_matrix(code, subset)
            assert report.matrix_rank < 16, \
                f"{subset}: rank {report.matrix_rank} not deficient"
            ranks.append(report.matrix_rank)
        return f"all 21 pairs rank-deficient (max rank {max(ranks)})"
    _criterion(capsys, 8, 60.0, body)


def test_09_recovery_suite(capsys):
    def body():
        fids = []
        code = cached_fixture("five_qubit")
        dec = structure.decompose(code, (4, 5))
        ea = structure.ea_from_structure(dec)
        for model in (simulate.NOISELESS, simulate.NOISY):
            report = simulate.verify_ea(ea, dec, code, model, 1)
            assert report.min_fidelity >= 1 - 1e-9, \
                f"five_qubit {model} w1: {report.min_fidelity}"
            fids.append(report.min_fidelity)
        steane = cached_fixture("steane")
        dec_s = structure.decompose(steane, (4, 5, 6, 7))
        ea_c = structure.compress(dec_s)
        report = simulate.verify_ea(ea_c, dec_s, steane, simulate.NOISELESS, 1)
        assert report.min_fidelity >= 1 - 1e-9, \
            f"compressed noiseless w1: {report.min_fidelity}"
        fids.append(report.min_fidelity)
        w0_subsets = {"five_qubit": (4, 5), "steane": (4, 5, 6, 7),
                      "pi_4_2_2": (4,), "pi_7_2_3": (6, 7), "xp_7_8_2": (7,)}
        for name, subset in w0_subsets.items():
            c = cached_fixture(name)
            d = structure.decompose(c, subset)
            e = structure.ea_from_structure(d)
            report = simulate.verify_ea(e, d, c, simulate.NOISY, 0)
            assert report.min_fidelity >= 1 - 1e-9, f"{name} w0"
            fids.append(report.min_fidelity)
        return f"{len(fids)} verification runs, min fidelity {min(fids):.12f}"
    _criterion(capsys, 9, 120.0, body)


def test_10_gf2_dense_crosscheck(capsys):
    def body():
        cases = [("five_qubit", FIVE_GENS), ("steane", STEANE_GENS)]
        compared = 0
        for name, gens in cases:
            group = stab.StabilizerGroup.from_strings(gens)
            code = cached_fixture(name)
            for b in range(1, 5):
                for subset in itertools.combinations(range(1, code.n + 1), b):
                    fast = stab.is_correctable_stab(group, subset)
                    dense = analysis.kl_matrix(code, subset).correctable
                    assert fast == dense, f"{name} {subset}: {fast} vs {dense}"
                    compared += 1
        return f"verdicts agree on all {compared} subsets"
    _criterion(capsys, 10, 120.0, body)


def test_11_module_invariants(capsys):
    def body():
        rng = np.random.default_rng(2026)
        # linear-algebra reconstructions
        for _ in range(10):
            a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            u, s, vh = qla.svd(a)
            assert np.linalg.norm(a - (u * s) @ vh) <= 1e-10 * max(
                1.0, np.linalg.norm(a))
            h = a + a.conj().T
            vals, vecs = qla.eig_hermitian(h)
            assert np.linalg.norm(h - (vecs * vals) @ vecs.conj().T) <= 1e-10 * max(
                1.0, np.linalg.norm(h))
        # coefficient matrices stay Hermitian PSD with unit diagonal
        for name in ["five_qubit", "steane", "pi_4_2_2", "pi_7_2_3", "xp_7_8_2"]:
            code = cached_fixture(name)
            for q in range(1, code.n + 1):
                report = analysis.kl_matrix(code, (q,))
                lam, _ = coefficient_matrix(report.marginal, report.null_vectors)
                assert np.linalg.norm(lam - lam.conj().T) <= 1e-12
                assert np.linalg.eigvalsh(lam).min() >= -1e-10
                np.testing.assert_allclose(np.diag(lam).real, 1.0, atol=1e-12)
        # channels preserve trace
        ch = replacer_channel(3, (1, 3))
        total = sum(op.conj().T @ op for op in ch.operators)
        assert np.linalg.norm(total - np.eye(8)) <= 1e-9
        # erasure output matches the structured form everywhere it is defined
        worst = 0.0
        for name, subset in [("five_qubit", (4, 5)), ("pi_4_2_2", (4,)),
                             ("xp_7_8_2", (7,)), ("pi_7_2_3", (6, 7)),
                             ("steane", (5, 6, 7)), ("steane", (4, 5, 6, 7))]:
            code = cached_fixture(name)
            dec = structure.decompose(code, subset)
            dev = channel_form_check(dec, code)
            worst = max(worst, dev)
            assert dev <= 1e-9, f"{name} {subset}: deviation {dev:.2e}"
        return f"reconstructions, Gram/PSD, trace, form check (worst {worst:.1e})"
    _criterion(capsys, 11, 300.0, body)
