"""Command-line behavior: exit codes, report text, JSON payloads, precedence.

Every invocation goes through cli.main(argv) in process; one test drives the
installed module entry point through a real subprocess.
"""

import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from eaqec import analysis, cli, codes, qla, stab

from conftest import (SHOR_GENS, array_from_json, assert_bit_exact, cached_fixture,
                      coefficient_matrix, group_to_json, perturbed_pi_7_2_3,
                      shor_grid_generators)
from test_stab import STEANE_GENS


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def write_code(tmp_path, n, amplitudes, name="code.json"):
    """A K = 1 code JSON with the given {bitstring: real amplitude} entries."""
    entries = [{"bits": bits, "re": amp, "im": 0.0} for bits, amp in amplitudes.items()]
    path = tmp_path / name
    path.write_text(json.dumps({"n": n, "k_dim": 1, "basis": [entries]}))
    return path


class TestAnalyze:
    def test_pure_pair(self, capsys):
        rc, out, _ = run(capsys, "analyze", "--fixture", "five_qubit",
                         "--subset", "4,5")
        assert rc == 0
        assert "correctable: yes" in out
        assert "class: pure" in out
        assert "C: 4" in out
        assert "coefficient matrix rank: 16 of 16" in out

    def test_degenerate_four(self, capsys):
        rc, out, _ = run(capsys, "analyze", "--fixture", "steane",
                         "--subset", "4,5,6,7")
        assert rc == 0
        assert "class: degenerate" in out
        assert "C: 4" in out

    def test_not_correctable_exits_two(self, capsys):
        rc, out, _ = run(capsys, "analyze", "--fixture", "five_qubit",
                         "--subset", "1,2,3")
        assert rc == 2
        assert "correctable: no" in out

    def test_whole_code_reports_residual(self, capsys):
        # every b takes the same residual: erasing all seven qubits still
        # reports the coefficient rank 2^b C and the residual sqrt(K 2^s
        # (2^u - 1)) = sqrt(2 * 64 * 3) of the 2^s (2^u - 1) logical Paulis
        rc, out, _ = run(capsys, "analyze", "--fixture", "steane",
                         "--subset", "1,2,3,4,5,6,7")
        assert rc == 2
        assert "correctable: no" in out
        assert "coefficient matrix rank: 256 of 16384" in out
        assert "max residual: 1.960e+01" in out

    def test_wide_correctable_is_structural(self, capsys, tmp_path):
        # |0000000> and |1111111> weighted 0.6 / 0.8: erasing six qubits
        # leaves a rank-2 marginal; the structure certificate agrees
        path = write_code(tmp_path, 7, {"0" * 7: 0.6, "1" * 7: 0.8})
        rc, out, _ = run(capsys, "analyze", "--code", str(path),
                         "--subset", "1,2,3,4,5,6")
        assert rc == 0
        assert "class: degenerate" in out
        assert "C: 2" in out
        rc, out, _ = run(capsys, "analyze", "--code", str(path),
                         "--subset", "1,2,3,4,5,6", "--format", "json")
        data = json.loads(out)
        assert rc == 0 and data["method"] == "moments"
        assert data["tol_residual"] == 1e-8 and data["tol_rank"] == 1e-9
        assert data["trichotomy"] == "degenerate" and data["C"] == 2
        assert data["matrix_rank"] == 2 ** 6 * 2 and data["matrix_dim"] == 4 ** 6
        assert data["residual_max"] == 0.0
        rc, out, _ = run(capsys, "decompose", "--code", str(path),
                         "--subset", "1,2,3,4,5,6", "--distance", "1")
        assert rc == 0 and "dim_A: 2" in out

    def test_full_above_cap_exits_one(self, capsys, tmp_path):
        # --full refuses exactly where analyze does: K = 128 basis states of 8
        # qubits at b = 4 hold K^2 4^b = 2^22 partial-trace entries
        path = tmp_path / "wide.json"
        basis = [[{"bits": format(i, "08b"), "re": 1.0, "im": 0.0}] for i in range(128)]
        path.write_text(json.dumps({"n": 8, "k_dim": 128, "basis": basis}))
        for extra in ((), ("--full",)):
            rc, out, err = run(capsys, "analyze", "--code", str(path),
                               "--subset", "1,2,3,4", "--format", "json", *extra)
            assert rc == 1 and out == ""
            assert "4194304 exceeds cap 1048576" in err
        # and answers Steane at b = 6 and 7, where the 16^b coefficient matrix
        # itself would exceed MAX_DIM, with the exit code of its verdict
        for subset, b in [("1,2,3,4,5,6", 6), ("1,2,3,4,5,6,7", 7)]:
            rc, out, err = run(capsys, "analyze", "--fixture", "steane",
                               "--subset", subset, "--format", "json", "--full")
            data = json.loads(out)
            assert rc == 2 and err == "" and data["correctable"] is False
            assert data["marginal"]["shape"] == [2 ** b, 2 ** b]
            assert data["null_vectors"]["shape"] == [2 ** b, 2 ** b - data["C"]]

    def test_json_payload(self, capsys):
        rc, out, _ = run(capsys, "analyze", "--fixture", "five_qubit",
                         "--subset", "4,5", "--format", "json")
        assert rc == 0
        data = json.loads(out)
        assert data["correctable"] is True
        assert data["trichotomy"] == "pure"
        assert data["C"] == 4
        assert data["matrix_rank"] == 16
        assert "marginal" not in data and "null_vectors" not in data

    def test_json_full_payload(self, capsys):
        # the coefficient matrix and kernel rebuilt from the payload's marginal
        # and null vectors: 4^b x 4^b, of rank matrix_rank = 2^b C
        for fixture, subset, want_rc, cls, b, c in [
                ("pi_7_2_3", "6,7", 0, "degenerate", 2, 3),
                ("steane", "1,2,3,4,5", 2, None, 5, 8)]:
            rc, out, _ = run(capsys, "analyze", "--fixture", fixture,
                             "--subset", subset, "--format", "json", "--full")
            data = json.loads(out)
            assert rc == want_rc
            assert data["trichotomy"] == cls
            assert data["C"] == c and data["matrix_rank"] == 2 ** b * c
            assert data["marginal"]["shape"] == [2 ** b, 2 ** b]
            assert data["null_vectors"]["shape"] == [2 ** b, 2 ** b - c]
            lam, kernel = coefficient_matrix(array_from_json(data["marginal"]),
                                             array_from_json(data["null_vectors"]))
            assert lam.shape == (4 ** b, 4 ** b)
            assert kernel.shape == (4 ** b - data["matrix_rank"], 4 ** b)
            assert qla.numerical_rank(np.linalg.eigvalsh(lam)) == data["matrix_rank"]

    def test_json_full_arrays_round_trip_bit_for_bit(self, capsys):
        rc, out, _ = run(capsys, "analyze", "--fixture", "pi_7_2_3", "--subset", "6,7",
                         "--format", "json", "--full")
        assert rc == 0
        data = json.loads(out)
        report = analysis.kl_matrix(cached_fixture("pi_7_2_3"), (6, 7))
        marginal = array_from_json(data["marginal"])
        null = array_from_json(data["null_vectors"])
        assert_bit_exact(marginal, report.marginal)
        assert_bit_exact(null, report.null_vectors)
        # so the coefficient matrix and kernel they determine are equal exactly
        # (up to the sign of zero, which conj and the sign products flip)
        for got, want in zip(coefficient_matrix(marginal, null),
                             coefficient_matrix(report.marginal, report.null_vectors)):
            assert np.array_equal(got, want)

    def test_json_full_widest_set_is_small(self, capsys):
        # Steane {1,...,5}: a 32 x 32 marginal and 24 null vectors, where the
        # coefficient matrix and kernel it determines hold 1.8 million entries
        rc, out, _ = run(capsys, "analyze", "--fixture", "steane", "--subset", "1,2,3,4,5",
                         "--full", "--format", "json")
        assert rc == 2
        assert len(out.encode()) < 100_000

    def test_consecutive_calls_share_no_state(self, capsys):
        # main reuses one parser per process; --full must not reach the next call
        run(capsys, "analyze", "--fixture", "pi_7_2_3", "--subset", "6,7",
            "--format", "json", "--full")
        rc, out, _ = run(capsys, "analyze", "--fixture", "pi_7_2_3",
                         "--subset", "6,7", "--format", "json")
        assert rc == 0
        assert "marginal" not in json.loads(out)

    def test_text_and_json_agree(self, capsys):
        _, text_out, _ = run(capsys, "analyze", "--fixture", "steane",
                             "--subset", "4,5,6,7")
        _, json_out, _ = run(capsys, "analyze", "--fixture", "steane",
                             "--subset", "4,5,6,7", "--format", "json")
        data = json.loads(json_out)
        assert f"C: {data['C']}" in text_out
        assert f"class: {data['trichotomy']}" in text_out


class TestDecompose:
    def test_five_qubit_pair(self, capsys):
        rc, out, _ = run(capsys, "decompose", "--fixture", "five_qubit",
                         "--subset", "4,5")
        assert rc == 0
        assert "dim_A: 4" in out
        assert "distance: 3" in out
        assert "((3,2,3;4))" in out
        assert "[[3,1,3;2]]" in out
        assert "ebit cost 2" in out

    def test_degenerate_compression_line(self, capsys):
        rc, out, _ = run(capsys, "decompose", "--fixture", "pi_7_2_3",
                         "--subset", "6,7")
        assert rc == 0
        assert "((5,2,3;4))" in out      # uncompressed keeps the erased dimension
        assert "((5,2,3;3))" in out      # compressed shrinks to the Schmidt rank
        assert "noiseless only" in out
        assert "noiseless+noisy" in out

    def test_large_alphabet_fixture(self, capsys):
        rc, out, _ = run(capsys, "decompose", "--fixture", "xp_7_8_2",
                         "--subset", "7")
        assert rc == 0
        assert "((6,8,2;2))" in out

    def test_json_payload(self, capsys):
        rc, out, _ = run(capsys, "decompose", "--fixture", "steane",
                         "--subset", "4,5,6,7", "--format", "json")
        assert rc == 0
        data = json.loads(out)
        assert data["decomposition"]["dim_A"] == 4
        assert data["ea"]["compressed"]["parameters"] == "((3,2,3;4))"
        assert data["ea"]["compressed"]["stabilizer_form"] == "[[3,1,3;2]]"
        assert data["ea"]["compressed"]["model_validity"] == "noiseless_only"
        assert data["ea"]["presend"]["sender_dim"] == 8
        assert data["distance"] == 3

    def test_shor_json_payload_is_small(self, capsys):
        # its arrays hold 1,600 entries of which 28 are nonzero, and only
        # those are written
        rc, out, _ = run(capsys, "decompose", "--stabilizers", ",".join(SHOR_GENS),
                         "--subset", "1,5", "--format", "json")
        assert rc == 0
        assert len(out.encode()) < 2000

    def test_stabilizer_distance_from_the_group(self, capsys, monkeypatch):
        # a stabilizer input's distance reads GF(2) verdicts, not dense ones
        def refuse(*args, **kwargs):
            raise AssertionError("dense verdict called")
        monkeypatch.setattr(codes.QuantumCode, "verdict", refuse)
        rc, out, err = run(capsys, "decompose", "--stabilizers",
                           "XZZXI,IXZZX,XIXZZ,ZXIXZ", "--subset", "4,5")
        assert rc == 0, err
        assert "distance: 3" in out
        assert "[[3,1,3;2]]" in out

    def test_distance_override(self, capsys):
        rc, out, _ = run(capsys, "decompose", "--fixture", "five_qubit",
                         "--subset", "4,5", "--distance", "2")
        assert rc == 0
        assert "distance: 2" in out
        assert "((3,2,2;4))" in out

    @pytest.mark.parametrize("distance,message", [
        ("0", "distance must be >= 1"), ("6", "distance 6 outside 1..5")])
    def test_distance_outside_one_to_n_exits_one(self, capsys, distance, message):
        rc, out, err = run(capsys, "decompose", "--fixture", "five_qubit",
                           "--subset", "4,5", "--distance", distance)
        assert (rc, out) == (1, "")
        assert err == f"error: {message}\n"

    def test_not_correctable_exits_two(self, capsys):
        rc, _, err = run(capsys, "decompose", "--fixture", "five_qubit",
                         "--subset", "1,2,3")
        assert rc == 2
        assert "not correctable" in err

    def test_wide_violation_exits_three(self, capsys):
        # a residual threshold loose enough to pass six erased qubits (their
        # residual is sqrt(96) = 9.798); the certification still fails
        # (K x dim_A exceeds the kept dimension)
        rc, _, err = run(capsys, "decompose", "--fixture", "steane",
                         "--subset", "2,3,4,5,6,7", "--tol-residual", "10")
        assert rc == 3
        assert "structure violation" in err

    def test_wide_not_correctable_exits_two(self, capsys):
        rc, _, err = run(capsys, "decompose", "--fixture", "steane",
                         "--subset", "2,3,4,5,6,7")
        assert rc == 2
        assert "not correctable" in err


class TestGate:
    """decompose and verify share one gate, the input's own verdict, and
    name the residual that analyze prints for the same set."""

    @pytest.mark.parametrize("source,residual", [
        (["--fixture", "steane"], "2.449e+00"),
        (["--stabilizers", ",".join(SHOR_GENS)], "2.828e+00")],
        ids=["steane_basis", "shor_group"])
    def test_residual_matches_analyze(self, capsys, source, residual):
        argv = [*source, "--subset", "1,2,3"]
        rc, out, _ = run(capsys, "analyze", *argv)
        assert rc == 2 and f"max residual: {residual}" in out
        for command in ("decompose", "verify"):
            rc, out, err = run(capsys, command, *argv)
            assert (rc, out) == (2, "")
            assert err == ("not correctable: subset {1,2,3} fails the correctability "
                           f"condition (residual {residual})\n")

    def test_wide_group_fails_at_the_verdict(self, capsys):
        # K = 2^21: the gate reads the GF(2) verdict and its residual
        # sqrt(3 K), one for each of the X, Y and Z that commute with S,
        # with no report and no codewords; analyze's report of K kept ranks
        # is refused instead
        argv = ["--stabilizers", "Z" + "I" * 21, "--subset", "2"]
        tracemalloc.start()
        try:
            rc, out, err = run(capsys, "decompose", *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (rc, out) == (2, "")
        assert "(residual 2.508e+03)" in err
        assert peak < 1 << 20
        rc, out, err = run(capsys, "analyze", *argv)
        assert (rc, out) == (1, "")
        assert err.startswith("error:") and "exceeds cap" in err


class TestRankRule:
    def test_perturbed_code_keeps_one_rank(self, capsys, tmp_path):
        # on {6,7} the perturbed marginal has three eigenvalues near 1/3
        # and one near 6e-11.  C, the kept ranks and dim_A all come from the
        # one rule on marginal eigenvalues, so all are 3; a rule on singular
        # values kept the 1e-6 Schmidt coefficient as a fourth kept rank and
        # dim_A, whose pseudo-inverse broke the isometry (defect 9.11e-01,
        # exit 3)
        path = tmp_path / "perturbed.json"
        path.write_text(json.dumps(codes.code_to_json(perturbed_pi_7_2_3())))
        args = ("--code", str(path), "--subset", "6,7", "--tol-residual", "1e-2",
                "--format", "json")
        rc, out, _ = run(capsys, "analyze", *args)
        data = json.loads(out)
        assert rc == 0 and data["trichotomy"] == "degenerate"
        assert data["C"] == 3 and data["kept_marginal_ranks"] == [3, 3]
        rc, out, err = run(capsys, "decompose", *args)
        assert rc == 0, err
        data = json.loads(out)
        assert data["decomposition"]["dim_A"] == 3
        assert data["ea"]["compressed"]["receiver_dim"] == 3

    def test_perturbed_code_verify_names_the_decoder_defect(self, capsys, tmp_path):
        # the set passes at --tol-residual 1e-2, but the decoders' Gram
        # matrix is 6.1e-05 from the identity, against UNITARITY_TOL sqrt(r K)
        path = tmp_path / "perturbed.json"
        path.write_text(json.dumps(codes.code_to_json(perturbed_pi_7_2_3())))
        rc, _, err = run(capsys, "verify", "--code", str(path), "--subset", "6,7",
                         "--tol-residual", "1e-2")
        assert rc == 3
        assert "recovery decoders are not orthonormal (Gram defect 6.08e-05, " \
            "bound 5.66e-10)" in err


class TestVerify:
    def test_noiseless_pass(self, capsys):
        rc, out, _ = run(capsys, "verify", "--fixture", "five_qubit",
                         "--subset", "4,5", "--model", "noiseless",
                         "--weight", "1")
        assert rc == 0
        assert "verdict: pass" in out
        assert "failures: none" in out
        assert "min fidelity: 1.000000000000" in out

    def test_noisy_presend_pass(self, capsys):
        rc, out, _ = run(capsys, "verify", "--fixture", "five_qubit",
                         "--subset", "4,5", "--model", "noisy",
                         "--weight", "1", "--strategy", "presend")
        assert rc == 0
        assert "strategy: presend" in out

    def test_compressed_noiseless_pass(self, capsys):
        rc, out, _ = run(capsys, "verify", "--fixture", "steane",
                         "--subset", "4,5,6,7", "--strategy", "compressed")
        assert rc == 0
        assert "strategy: compressed" in out
        assert "verdict: pass" in out

    def test_compressed_alias_is_gone(self, capsys):
        # the strategy has one spelling, so presend cannot silently turn compressed
        rc, _, _ = run(capsys, "verify", "--fixture", "steane", "--subset", "4,5,6,7",
                       "--strategy", "presend", "--compressed")
        assert rc == 1

    def test_compressed_noisy_exits_four(self, capsys):
        rc, _, err = run(capsys, "verify", "--fixture", "steane",
                         "--subset", "4,5,6,7", "--strategy", "compressed",
                         "--model", "noisy")
        assert rc == 4
        assert "model mismatch" in err
        assert "rerun with --exploratory" in err   # the flag, not the library keyword

    def test_compressed_noisy_exploratory(self, capsys):
        rc, out, _ = run(capsys, "verify", "--fixture", "steane",
                         "--subset", "4,5,6,7", "--strategy", "compressed",
                         "--model", "noisy", "--exploratory")
        assert rc == 0
        assert "exploratory: results reported without guarantee" in out
        assert "failures:" in out
        assert "|" in out  # failure labels split kept and share registers

    @pytest.mark.parametrize("weight", ["2", "5"])
    def test_weight_above_the_error_sites_exits_one(self, capsys, weight):
        # erasing qubit 1 of 2 keeps one qubit, the only site of noiseless
        # errors, so no Pauli of weight 2 or more exists there
        rc, out, err = run(capsys, "verify", "--stabilizers", "XX,ZZ", "--subset", "1",
                           "--weight", weight)
        assert rc == 1 and out == ""
        assert f"error weight {weight} exceeds 1, the number of qubits" in err

    def test_weight_within_the_noisy_sites_runs(self, capsys):
        # under noise both qubits take errors: the 9 Paulis of weight 2, on
        # the one codeword of K = 1
        rc, out, err = run(capsys, "verify", "--stabilizers", "XX,ZZ", "--subset", "1",
                           "--model", "noisy", "--weight", "2")
        assert rc == 0, err
        assert "cases: 9" in out

    def test_uncorrectable_weight_exits_two(self, capsys):
        rc, _, err = run(capsys, "verify", "--fixture", "five_qubit",
                         "--subset", "4,5", "--model", "noisy", "--weight", "2")
        assert rc == 2
        assert "not correctable" in err

    def test_json_payload(self, capsys):
        rc, out, _ = run(capsys, "verify", "--fixture", "five_qubit",
                         "--subset", "4,5", "--format", "json")
        data = json.loads(out)
        assert rc == 0
        assert data["passed"] is True
        assert data["min_fidelity"] >= 1 - 1e-9
        assert data["failures"] == []

    def test_json_margins(self, capsys):
        # the tolerances in force, the pass margin, and the recovery's two
        # checks: its Knill-Laflamme residual and its decoders' Gram defect
        rc, out, _ = run(capsys, "verify", "--fixture", "pi_7_2_3", "--subset", "6,7",
                         "--model", "noisy", "--tol-residual", "1e-7", "--format", "json")
        data = json.loads(out)
        assert rc == 0
        assert (data["tol_residual"], data["tol_rank"], data["fidelity_slack"]) == \
            (1e-7, 1e-9, 1e-9)
        assert 0.0 <= data["recovery_residual"] <= 1e-12
        assert 0.0 <= data["recovery_gram_defect"] <= 1e-12
        rc, text, _ = run(capsys, "verify", "--fixture", "pi_7_2_3", "--subset", "6,7",
                          "--model", "noisy")
        assert rc == 0 and "residual" not in text and "defect" not in text

    def test_needs_no_distance(self, capsys, tmp_path):
        # a K = 1 code has no distance (every Pauli is detected), and verify
        # prints no EA parameters, so it never searches for one
        path = write_code(tmp_path, 3, {"000": 2 ** -0.5, "111": 2 ** -0.5})
        rc, out, err = run(capsys, "verify", "--code", str(path),
                           "--subset", "1", "--model", "noisy")
        assert rc == 0, err
        assert "verdict: pass" in out

    def test_distance_option_is_gone(self, capsys):
        rc, out, err = run(capsys, "verify", "--fixture", "five_qubit",
                           "--subset", "4,5", "--distance", "3")
        assert rc == 1 and out == ""
        assert "unrecognized arguments: --distance 3" in err


class TestDistance:
    def test_exact(self, capsys):
        rc, out, _ = run(capsys, "distance", "--fixture", "five_qubit")
        assert rc == 0
        assert out.strip() == "3"

    def test_bounded(self, capsys):
        rc, out, _ = run(capsys, "distance", "--fixture", "five_qubit",
                         "--max-weight", "1")
        assert rc == 0
        assert out.strip() == ">= 2"

    def test_json(self, capsys):
        rc, out, _ = run(capsys, "distance", "--fixture", "steane",
                         "--format", "json")
        data = json.loads(out)
        assert data == {"distance": 3, "exact": True}

    def test_bounded_json(self, capsys):
        rc, out, _ = run(capsys, "distance", "--fixture", "steane",
                         "--max-weight", "2", "--format", "json")
        data = json.loads(out)
        assert data == {"distance": None, "lower_bound": 3, "exact": False}

    @pytest.mark.parametrize("max_weight,text", [(None, "5"), ("4", ">= 5")])
    def test_generalized_shor_25_without_codewords(self, capsys, monkeypatch,
                                                   max_weight, text):
        # K 2^n = 2^26 is over the dense cap; the GF(2) search needs no codewords
        def refuse(*args, **kwargs):
            raise AssertionError("codewords built")
        monkeypatch.setattr(stab, "codewords", refuse)
        extra = [] if max_weight is None else ["--max-weight", max_weight]
        rc, out, err = run(capsys, "distance", "--stabilizers", shor_grid_generators(5), *extra)
        assert rc == 0, err
        assert out.strip() == text

    def test_stabilizer_distance_runs_the_one_search(self, capsys, monkeypatch):
        # both input kinds go through codes.min_distance; a group needs no codewords
        calls = []
        search = codes.min_distance

        def record(source, *args, **kwargs):
            calls.append(type(source))
            return search(source, *args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("codewords built")
        monkeypatch.setattr(codes, "min_distance", record)
        monkeypatch.setattr(stab, "codewords", refuse)
        rc, out, err = run(capsys, "distance", "--stabilizers", shor_grid_generators(5))
        assert (rc, out, err) == (0, "5\n", "")
        assert calls == [stab.StabilizerGroup]

    def test_negative_max_weight_rejected(self, capsys):
        for argv in (["--fixture", "five_qubit"], ["--stabilizers", "XZZXI,IXZZX,XIXZZ,ZXIXZ"]):
            rc, out, err = run(capsys, "distance", *argv, "--max-weight", "-1")
            assert rc == 1 and out == ""
            assert "max_weight" in err

    def test_nothing_undetected_gives_bound(self, capsys, tmp_path):
        # K = 1: every Pauli is detected, so only a lower bound exists
        path = write_code(tmp_path, 2, {"00": 1.0})
        rc, out, _ = run(capsys, "distance", "--code", str(path))
        assert rc == 0 and out.strip() == ">= 3"
        rc, out, _ = run(capsys, "distance", "--code", str(path),
                         "--max-weight", "1", "--format", "json")
        assert rc == 0
        assert json.loads(out) == {"distance": None, "lower_bound": 2, "exact": False}


class TestScan:
    def test_five_qubit_pairs(self, capsys):
        rc, out, _ = run(capsys, "scan", "--fixture", "five_qubit", "--size", "2")
        assert rc == 0
        assert "10 of 10 subsets correctable" in out
        assert "{1,2}: correctable, pure, C=4" in out

    def test_five_qubit_triples(self, capsys):
        rc, out, _ = run(capsys, "scan", "--fixture", "five_qubit", "--size", "3")
        assert rc == 0
        assert "0 of 10 subsets correctable" in out
        assert "{1,2,3}: not correctable" in out

    def test_json_payload(self, capsys):
        rc, out, _ = run(capsys, "scan", "--fixture", "pi_4_2_2", "--size", "1",
                         "--format", "json")
        data = json.loads(out)
        assert rc == 0
        assert data["correctable_count"] == 4
        assert all(row["trichotomy"] == "pure" for row in data["subsets"])

    def test_size_out_of_range(self, capsys, tmp_path):
        rc, _, err = run(capsys, "scan", "--fixture", "five_qubit", "--size", "0")
        assert rc == 1
        rc, _, err = run(capsys, "scan", "--fixture", "steane", "--size", "8")
        assert rc == 1
        assert "within 1..7" in err
        # K = 128 as an explicit basis: the K^2 4^4 moments of one size-4
        # subset exceed MAX_DIM
        path = tmp_path / "k128.json"
        group = stab.StabilizerGroup.from_strings(["ZIIIIIII"])
        path.write_text(json.dumps(codes.code_to_json(stab.codewords(group))))
        rc, _, err = run(capsys, "scan", "--code", str(path), "--size", "4")
        assert rc == 1
        assert "exceeds cap" in err
        # the same code as a group is scanned over GF(2), with no moments
        rc, out, err = run(capsys, "scan", "--stabilizers", "ZIIIIIII", "--size", "4")
        assert rc == 0 and err == ""
        assert "0 of 70 subsets correctable" in out

    def test_wider_than_coefficient_matrix(self, capsys):
        rc, out, _ = run(capsys, "scan", "--fixture", "steane", "--size", "6")
        assert rc == 0
        assert "0 of 7 subsets correctable" in out

    def test_qubit_cap(self, capsys, tmp_path):
        # scans have no qubit cap, only the K^2 4^size moment check
        path = write_code(tmp_path, 13, {"0" * 13: 1.0})
        rc, out, err = run(capsys, "scan", "--code", str(path), "--size", "1")
        assert rc == 0 and err == ""
        assert "13 of 13 subsets correctable" in out

    def test_sixteen_qubit_shor_pairs(self, capsys):
        rc, out, err = run(capsys, "scan", "--stabilizers", shor_grid_generators(4),
                           "--size", "2")
        assert rc == 0 and err == ""
        assert out.endswith("120 of 120 subsets correctable\n")


class TestFixtures:
    def test_list(self, capsys):
        rc, out, _ = run(capsys, "fixtures", "--list")
        assert rc == 0
        names = out.strip().splitlines()
        assert sorted(names) == sorted(codes.FIXTURE_NAMES)
        assert len(names) == 5

    def test_emit_round_trips(self, capsys, tmp_path):
        path = tmp_path / "code.json"
        rc, out, _ = run(capsys, "fixtures", "--emit", "five_qubit",
                         "--output", str(path))
        assert rc == 0 and out == ""
        reloaded = codes.code_from_json(json.loads(path.read_text()))
        want = cached_fixture("five_qubit")
        p_new = codes.projector(reloaded)
        p_old = codes.projector(want)
        assert np.linalg.norm(p_new - p_old) <= 1e-12

    def test_requires_exactly_one_mode(self, capsys):
        rc, _, err = run(capsys, "fixtures")
        assert rc == 1
        rc, _, err = run(capsys, "fixtures", "--list", "--emit", "steane")
        assert rc == 1


class TestInputSources:
    def test_inline_stabilizers(self, capsys):
        rc, out, _ = run(capsys, "analyze", "--stabilizers",
                         "XZZXI,IXZZX,XIXZZ,ZXIXZ", "--subset", "4,5")
        assert rc == 0
        assert "C: 4" in out

    def test_inline_phases(self, capsys):
        # leading-dash phase lists need the attached = form under argparse
        rc, out, _ = run(capsys, "analyze", "--stabilizers", "XX,ZZ",
                         "--phases=-,+", "--subset", "2")
        assert rc == 0
        assert "C: 2" in out

    @pytest.mark.parametrize("source", ["stabilizers", "stab-json"])
    def test_nonabelian_group_is_extended(self, capsys, tmp_path, source):
        # the README example: two anticommuting pairs add qubits 4 and 5, and
        # the extended group stabilizes the five-qubit code
        gens = ["XZZ", "ZYY", "ZZX", "YYZ"]
        if source == "stabilizers":
            argv = ["--stabilizers", ",".join(gens)]
        else:
            path = tmp_path / "group.json"
            path.write_text(json.dumps(group_to_json(
                stab.StabilizerGroup.from_strings(gens))))
            argv = ["--stab-json", str(path)]
        rc, out, err = run(capsys, "analyze", *argv, "--subset", "4,5")
        assert rc == 0, err
        assert "class: pure" in out
        assert "C: 4" in out

    @pytest.mark.parametrize("gens", ["XI,ZI,YZ", "XII,ZII,YZI,IIZ"])
    def test_pair_fixing_keeps_generators_hermitian(self, capsys, gens):
        # the last generator anticommutes with both members of the XI, ZI
        # pair, so fixing it leaves an anti-Hermitian product
        rc, out, err = run(capsys, "analyze", "--stabilizers", gens, "--subset", "1")
        assert rc == 0, err
        assert "class: pure" in out
        assert "C: 2" in out

    @pytest.mark.parametrize("source", ["fixture", "stab-json"])
    def test_phases_need_inline_stabilizers(self, capsys, tmp_path, source):
        if source == "fixture":
            argv = ["--fixture", "steane"]
        else:
            path = tmp_path / "group.json"
            path.write_text(json.dumps(group_to_json(
                stab.StabilizerGroup.from_strings(["XX", "ZZ"]))))
            argv = ["--stab-json", str(path)]
        rc, out, err = run(capsys, "analyze", *argv, "--phases=-,+,+", "--subset", "1")
        assert rc == 1
        assert err.startswith("error:") and "--phases" in err
        assert out == ""

    def test_codespace_too_large_refused(self, capsys):
        # n = 12 with one generator: K 2^n = 2^23 is over MAX_DIM, so the
        # commands that build codewords refuse after their GF(2) gate
        for command in ("decompose", "verify"):
            rc, out, err = run(capsys, command, "--stabilizers", "Z" + "I" * 11,
                               "--subset", "1")
            assert rc == 1 and out == ""
            assert err.startswith("error:") and "exceeds cap" in err
        # analyze reads the group over GF(2) and builds none
        rc, out, err = run(capsys, "analyze", "--stabilizers", "Z" + "I" * 11,
                           "--subset", "1")
        assert rc == 0 and err == ""
        assert "class: degenerate" in out and "C: 1" in out

    def test_sixteen_qubit_shor_in_small_memory(self, capsys):
        # a dense 2^16 x 2^16 projector of the [[16,1,4]] code would take 64 GiB
        tracemalloc.start()
        try:
            rc, out, _ = run(capsys, "analyze", "--stabilizers", shor_grid_generators(4),
                             "--subset", "1,5,9", "--format", "json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        data = json.loads(out)
        assert rc == 0
        assert data["trichotomy"] == "pure" and data["C"] == 8
        assert peak < 32 * 2 ** 20

    def test_twenty_five_qubit_shor_in_small_memory(self, capsys):
        # [[25,1,5]]: its K x 2^25 codeword basis would exceed MAX_DIM 64 times
        # over, and analyze and scan read the group over GF(2) instead
        gens = shor_grid_generators(5)
        for argv in (("analyze", "--subset", "1,2,3,4"), ("scan", "--size", "2")):
            tracemalloc.start()
            try:
                rc, out, err = run(capsys, argv[0], "--stabilizers", gens, *argv[1:],
                                   "--format", "json")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert rc == 0 and err == ""
            assert peak < 2 * 2 ** 20
        assert json.loads(out)["correctable_count"] == 300
        rc, out, _ = run(capsys, "analyze", "--stabilizers", gens, "--subset", "1,2,3,4",
                         "--format", "json")
        data = json.loads(out)
        assert (data["trichotomy"], data["C"], data["method"]) == ("degenerate", 2, "gf2")
        assert data["tol_residual"] is None and data["tol_rank"] is None

    def test_full_on_stabilizers_matches_fixture(self, capsys):
        # --full builds a group's codewords (cli._as_code): Steane's generators
        # give the steane fixture's report, field for field
        argv = ("--subset", "4,5,6,7", "--full", "--format", "json")
        rc, out, err = run(capsys, "analyze", "--stabilizers", ",".join(STEANE_GENS), *argv)
        assert rc == 0 and err == ""
        rc_fixture, from_fixture, _ = run(capsys, "analyze", "--fixture", "steane", *argv)
        assert rc_fixture == 0
        assert json.loads(out) == json.loads(from_fixture)

    def test_full_on_stabilizers_meets_codeword_cap(self, capsys):
        # [[25,1,5]]: plain analyze reads the group over GF(2), while --full
        # needs its K x 2^25 codewords and exits 1 before building them
        gens = shor_grid_generators(5)
        rc, _, err = run(capsys, "analyze", "--stabilizers", gens, "--subset", "1,2,3,4")
        assert rc == 0 and err == ""
        rc, out, err = run(capsys, "analyze", "--stabilizers", gens, "--subset", "1,2,3,4",
                           "--full", "--format", "json")
        assert rc == 1 and out == ""
        assert "67108864 exceeds cap 1048576" in err

    def test_stab_json_file(self, capsys, tmp_path):
        group = stab.StabilizerGroup.from_strings(
            ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"])
        path = tmp_path / "group.json"
        path.write_text(json.dumps(group_to_json(group)))
        rc, out, _ = run(capsys, "analyze", "--stab-json", str(path),
                         "--subset", "4,5")
        assert rc == 0
        assert "class: pure" in out

    def test_code_json_file(self, capsys, tmp_path):
        code = cached_fixture("pi_4_2_2")
        path = tmp_path / "code.json"
        path.write_text(json.dumps(codes.code_to_json(code)))
        rc, out, _ = run(capsys, "analyze", "--code", str(path), "--subset", "4")
        assert rc == 0
        assert "class: pure" in out

    def test_no_source(self, capsys):
        rc, _, err = run(capsys, "analyze", "--subset", "1")
        assert rc == 1
        assert "exactly one input source" in err

    def test_two_sources(self, capsys):
        rc, _, err = run(capsys, "analyze", "--fixture", "steane",
                         "--stabilizers", "XX,ZZ", "--subset", "1")
        assert rc == 1

    def test_missing_file(self, capsys, tmp_path):
        rc, _, err = run(capsys, "analyze", "--code",
                         str(tmp_path / "nope.json"), "--subset", "1")
        assert rc == 1

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        rc, _, err = run(capsys, "analyze", "--code", str(path), "--subset", "1")
        assert rc == 1

    @pytest.mark.parametrize("entry", [
        {"bits": "0000", "re": 1.0}, {"re": 1.0, "im": 0.0}, "0000",
        {"bits": 0, "re": 1.0, "im": 0.0}, {"bits": "0000", "re": [1.0], "im": 0.0}])
    def test_malformed_basis_entry(self, capsys, tmp_path, entry):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 4, "k_dim": 1, "basis": [[entry]]}))
        rc, _, err = run(capsys, "analyze", "--code", str(path), "--subset", "1")
        assert rc == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("flag,data", [
        ("--stab-json", {"n": 2, "generators": [12, "ZZ"]}),
        ("--stab-json", {"n": 2, "generators": ["XX", "ZZ"], "phases": 5}),
        ("--stab-json", {"n": 2, "generators": "XX"}),
        ("--stab-json", {"n": 2.9, "generators": ["XX", "ZZ"]}),
        ("--stab-json", {"n": True, "generators": ["Z"]}),
        ("--stab-json", {"n": 2, "generators": ["XX", "ZZ"], "phases": [[1], "+"]}),
        ("--code", {"n": 2, "k_dim": 1, "basis": 5}),
        ("--code", {"n": 2, "k_dim": 1, "basis": [5]}),
        ("--code", {"n": 2.9, "k_dim": 1, "basis": [[{"bits": "00", "re": 1, "im": 0}]]}),
        ("--code", {"n": 1, "k_dim": True, "basis": [[{"bits": "0", "re": 1, "im": 0}]]}),
    ])
    def test_malformed_json_shape(self, capsys, tmp_path, flag, data):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        rc, out, err = run(capsys, "analyze", flag, str(path), "--subset", "1")
        assert rc == 1
        assert err.startswith("error: malformed") and out == ""

    @pytest.mark.parametrize("flag,data", [
        ("--stab-json", {"n": 0, "generators": []}),
        ("--stab-json", {"n": -1, "generators": []}),
        ("--code", {"n": 0, "k_dim": 1, "basis": [[{"bits": "", "re": 1, "im": 0}]]}),
        ("--code", {"n": -1, "k_dim": 1, "basis": [[{"bits": "", "re": 1, "im": 0}]]}),
    ])
    def test_fewer_than_one_qubit_refused(self, capsys, tmp_path, flag, data):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        rc, out, err = run(capsys, "distance", flag, str(path))
        assert rc == 1
        assert err.startswith("error: malformed") and out == ""

    @pytest.mark.parametrize("second_row", ["empty", "duplicate"])
    def test_nonorthonormal_basis_refused(self, capsys, tmp_path, second_row):
        data = codes.code_to_json(cached_fixture("pi_4_2_2"))
        data["basis"][1] = [] if second_row == "empty" else data["basis"][0]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        rc, _, err = run(capsys, "analyze", "--code", str(path), "--subset", "4")
        assert rc == 1
        assert err.startswith("error:")

    def test_oversized_code_refused_before_allocating(self, capsys, tmp_path):
        path = write_code(tmp_path, 40, {"0" * 40: 1.0})
        rc, _, err = run(capsys, "analyze", "--code", str(path), "--subset", "1")
        assert rc == 1
        assert "exceeds cap" in err

    @pytest.mark.parametrize("subset", ["0", "6", "4,4", "a,b"])
    def test_bad_subsets(self, capsys, subset):
        rc, _, err = run(capsys, "analyze", "--fixture", "five_qubit",
                         "--subset", subset)
        assert rc == 1

    def test_empty_subset_is_trivially_pure(self, capsys):
        rc, out, _ = run(capsys, "analyze", "--fixture", "five_qubit",
                         "--subset", "")
        assert rc == 0
        assert "class: pure" in out
        assert "C: 1" in out


class TestTolerancePrecedence:
    """The flag is a tolerance's one setter; without it the default holds."""

    def test_flag_tightens_residual(self, capsys):
        # this subset's residual is ~1e-16: a 1e-20 threshold rejects it
        rc, _, _ = run(capsys, "analyze", "--fixture", "pi_4_2_2", "--subset", "4",
                       "--tol-residual", "1e-20")
        assert rc == 2

    def test_default_when_unset(self, capsys):
        rc, _, _ = run(capsys, "analyze", "--fixture", "pi_4_2_2", "--subset", "4")
        assert rc == 0

    def test_nonpositive_rejected(self, capsys):
        rc, _, _ = run(capsys, "analyze", "--fixture", "pi_4_2_2",
                       "--subset", "4", "--tol-rank", "0")
        assert rc == 1

    @pytest.mark.parametrize("flag,value", [
        ("--tol-rank", "nan"), ("--tol-residual", "nan"),
        ("--tol-rank", "inf"), ("--tol-residual", "inf")])
    def test_nonfinite_flag_rejected(self, capsys, flag, value):
        # NaN once read as C: 0, and an infinite residual tolerance called
        # {1,2,3} of the five-qubit code correctable
        rc, out, err = run(capsys, "analyze", "--fixture", "five_qubit",
                           "--subset", "1,2,3", flag, value)
        assert rc == 1 and out == ""
        assert err.startswith("error: tolerances must be")

    @pytest.mark.parametrize("argv", [
        ("analyze", "--fixture", "steane", "--subset", "1"),
        ("scan", "--fixture", "five_qubit", "--size", "1"),
        ("decompose", "--fixture", "steane", "--subset", "1")])
    def test_rank_cutoff_of_one_rejected(self, capsys, argv):
        # the cutoff is relative to the largest eigenvalue, so at 1 or above
        # every rank read 0 (C: 0, or "codeword 0 vanishes"), though C >= 1
        for value in ("1", "1.5"):
            rc, out, err = run(capsys, *argv, "--tol-rank", value)
            assert rc == 1 and out == ""
            assert err.startswith("error: tolerances must keep --tol-rank below 1")
        rc, out, _ = run(capsys, *argv, "--tol-rank", "0.999")
        assert rc == 0
        if argv[0] == "analyze":
            assert "C: 2" in out


class TestOutputFile:
    def test_report_written(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        rc, out, _ = run(capsys, "analyze", "--fixture", "five_qubit",
                         "--subset", "4,5", "--format", "json",
                         "--output", str(path))
        assert rc == 0 and out == ""
        data = json.loads(path.read_text())
        assert data["C"] == 4


JSON_REPORTS = {
    "analyze": ["analyze", "--fixture", "five_qubit", "--subset", "4,5"],
    "analyze-full": ["analyze", "--fixture", "pi_7_2_3", "--subset", "6,7", "--full"],
    "scan": ["scan", "--fixture", "pi_4_2_2", "--size", "1"],
    "distance": ["distance", "--fixture", "steane"],
    "distance-bound": ["distance", "--fixture", "steane", "--max-weight", "2"],
    "decompose": ["decompose", "--fixture", "pi_7_2_3", "--subset", "6,7"],
    "verify": ["verify", "--fixture", "five_qubit", "--subset", "4,5",
               "--model", "noisy"],
    "fixtures-list": ["fixtures", "--list"],
    "fixtures-emit": ["fixtures", "--emit", "five_qubit"],
}


class TestJsonReport:
    @pytest.mark.parametrize("argv", JSON_REPORTS.values(), ids=JSON_REPORTS.keys())
    def test_one_compact_line(self, capsys, monkeypatch, tmp_path, argv):
        built = []
        emit = cli._emit

        def recording_emit(args, text, payload):
            built.append(payload)
            emit(args, text, payload)

        monkeypatch.setattr(cli, "_emit", recording_emit)
        argv = [*argv, "--format", "json"]
        rc, out, err = run(capsys, *argv)
        assert rc == 0 and err == ""
        assert out.endswith("\n") and "\n" not in out[:-1]
        # the parsed report is the payload itself, floats bit for bit
        assert json.loads(out) == built[0]
        path = tmp_path / "report.json"
        rc, file_out, _ = run(capsys, *argv, "--output", str(path))
        assert rc == 0 and file_out == ""
        assert path.read_bytes() == out.encode()

    def test_emitted_fixture_reloads_through_code(self, capsys, tmp_path):
        path = tmp_path / "steane.json"
        rc, out, _ = run(capsys, "fixtures", "--emit", "steane", "--output", str(path))
        assert rc == 0 and out == ""
        argv = ["decompose", "--subset", "4,5,6,7", "--format", "json"]
        _, from_file, _ = run(capsys, *argv, "--code", str(path))
        _, from_fixture, _ = run(capsys, *argv, "--fixture", "steane")
        assert json.loads(from_file) == json.loads(from_fixture)


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "eaqec", "analyze", "--fixture",
             "five_qubit", "--subset", "4,5"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert "correctable: yes" in proc.stdout

    def test_module_invocation_exit_two(self):
        proc = subprocess.run(
            [sys.executable, "-m", "eaqec", "analyze", "--fixture",
             "five_qubit", "--subset", "1,2,3"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
