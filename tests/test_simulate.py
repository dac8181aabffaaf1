"""Recovery and channel simulation against bit-surgery density oracles.

The replacer channel is checked entry by entry against an independent
construction (kept entries copied under an erased-index delta, scaled by
1/2^b), and recovery channels are validated operationally: every error in
the set must be undone exactly on a spanning family of code states.  The
factored code-basis recovery is compared with the dense trace-preserving
channel it replaces, kept here as the oracle, and verify_ea with a per-case
loop over that dense channel.
"""

import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eaqec import codes, qla, simulate, stab, structure
from eaqec.codes import PauliOperator
from eaqec.config import FIDELITY_SLACK, MAX_DIM, RANK_TOL, RESIDUAL_TOL, UNITARITY_TOL
from eaqec.errors import (ConsistencyError, ContractError, EaqecError, ModelMismatchError,
                          NotCorrectableError, SizeError)

from conftest import (KrausChannel, abelian_groups, cached_fixture, channel_form_check,
                      oracle_moment_residuals, pauli_matrix, random_density, random_state,
                      replacer_channel)
from test_analysis import oracle_projector


def oracle_replacer_output(rho: np.ndarray, n: int, subset) -> np.ndarray:
    """Tr_B(rho) tensor I/2^b re-embedded at the original qubit positions.

    out[i, j] is nonzero only when i and j agree on the erased bits; the
    value averages rho over a shared erased assignment and divides by 2^b.
    """
    subset = tuple(subset)
    b = len(subset)
    d = 1 << n
    erased_mask = 0
    for q in subset:
        erased_mask |= 1 << (n - q)
    kept_mask = (d - 1) ^ erased_mask
    # enumerate the erased-bit assignments once
    fills = []
    for m in range(1 << b):
        bits = 0
        for j, q in enumerate(subset):
            if m >> (b - 1 - j) & 1:
                bits |= 1 << (n - q)
        fills.append(bits)
    out = np.zeros((d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            if (i & erased_mask) != (j & erased_mask):
                continue
            acc = 0.0 + 0.0j
            for f in fills:
                acc += rho[(i & kept_mask) | f, (j & kept_mask) | f]
            out[i, j] = acc / (1 << b)
    return out


def _code_coefficients(k):
    """Coefficient vectors w of a spanning family of code states w @ basis."""
    eye = np.eye(k, dtype=complex)
    ws = list(eye)
    if k > 1:
        ws.append((eye[0] + eye[1]) / np.sqrt(2))
        ws.append((eye[0] + 1j * eye[1]) / np.sqrt(2))
    return ws


def _fidelity(decoders, w, state):
    """Overlap of the recovered state with the code state w @ basis."""
    return float(np.sum(np.abs((decoders @ state) @ w.conj()) ** 2))


def _decoders(recovery, k):
    """The (r, K, 2^n) decoders D_k = (weights[:, k] (x) I_K)^dag images^dag of a
    factored recovery, built from its factors."""
    rows = np.conj((recovery.images @ np.kron(recovery.weights, np.eye(k))).T)
    return rows.reshape(-1, k, recovery.images.shape[0])


def oracle_kl_recovery(code, errors, rank_tol=RANK_TOL, complete=True):
    """Dense canonical recovery channel on the full 2^n-dimensional space.

    Kraus operators P F_k^dag / sqrt(d_k) from the eigen-decomposition of
    the correlation matrix, completed to a trace-preserving map by
    sqrt(I - sum K^dag K) unless complete is False.  Assumes the error set
    is correctable.
    """
    mats = [pauli_matrix(e) if isinstance(e, PauliOperator) else np.asarray(e, dtype=complex)
            for e in errors]
    dim = 1 << code.n
    k = code.k_dim
    images = [m @ code.basis.T for m in mats]
    lam = np.zeros((len(mats), len(mats)), dtype=complex)
    for a, b in product(range(len(mats)), repeat=2):
        if b < a:
            continue
        lam[a, b] = np.trace(images[a].conj().T @ images[b]) / k
        lam[b, a] = np.conj(lam[a, b])
    vals, vecs = np.linalg.eigh(lam)
    cutoff = rank_tol * vals.max() if vals.max() > 0 else 0.0
    proj = oracle_projector(code)
    kraus = []
    for idx in np.flatnonzero(vals > cutoff):
        f_op = sum(vecs[j, idx] * mats[j] for j in range(len(mats)))
        kraus.append(proj @ f_op.conj().T / np.sqrt(vals[idx]))
    gap = np.eye(dim) - sum(op.conj().T @ op for op in kraus)
    if complete and np.linalg.norm(gap) > 1e-12 * dim:
        kraus.append(qla.sqrtm_psd(gap))
    return kraus


def oracle_verify_ea(ea, dec, code, model, weight, exploratory=False, rank_tol=RANK_TOL):
    """verify_ea as a loop over (error, test state) pairs, one route per case.

    The recovery is the dense channel of oracle_kl_recovery, without its
    trace-preserving completion, whose range is orthogonal to the code
    states (TestKlRecoveryAgainstDense checks the fidelities with it).  It
    is refused as verify_ea refuses it, but by dense means: the size rule
    on the #errors*K*2^n images and their Gram matrix, then the largest
    oracle_moment_residuals entry of the moments V^dag E_a^dag E_b V, then
    the orthonormality of the decoder rows V^dag K_k.  Errors act through their dense matrices.
    Uncompressed strategies apply each error to the code state itself.  The
    compressed strategy holds each test state as a kept x C matrix: a
    noiseless error is rewritten as an operator on the kept factor; a noisy
    one acts on the kept qubits plus the padded carrier register, and the
    share is truncated back to C.  Either way the receiver re-expands the
    share through compress_isometry and undoes the qubit permutation.  A
    weight above the number of qubits the errors may act on is refused
    first.
    """
    split = dec.split
    n, kept = split.n, split.kept
    allowed = kept if model == simulate.NOISELESS else tuple(range(1, n + 1))
    compressed = ea.strategy == structure.COMPRESSED
    c, m = ea.receiver_dim, len(kept)
    share_noise = compressed and model == simulate.NOISY
    n_err, sites = (m + ea.ebit_cost, range(1, m + ea.ebit_cost + 1)) if share_noise \
        else (n, allowed)
    if weight > len(sites):
        raise ContractError(f"weight {weight} on {len(sites)} sites")
    recovered = [PauliOperator(n, 0, 0)] + [p for w in range(1, weight + 1)
                                            for p in codes.paulis_of_weight(n, allowed, w)]
    k = code.k_dim
    if max(len(recovered) * k << n, (len(recovered) * k) ** 2) > MAX_DIM:
        raise SizeError("recovery images exceed MAX_DIM")
    images = np.stack([pauli_matrix(e) @ code.basis.T for e in recovered])
    moments = np.einsum("aji,bjl->abil", images.conj(), images).reshape(-1, k, k)
    residual = oracle_moment_residuals(moments).max()
    if residual > RESIDUAL_TOL:
        raise NotCorrectableError(f"residual {residual:.2e}")
    kraus = np.array(oracle_kl_recovery(code, recovered, rank_tol, complete=False))
    rows = np.concatenate([code.basis.conj() @ op for op in kraus])
    defect = float(np.linalg.norm(rows @ rows.conj().T - np.eye(len(rows))))
    if defect > UNITARITY_TOL * max(1.0, len(rows) ** 0.5):
        raise ConsistencyError(f"Gram defect {defect:.2e}")
    states = list(np.eye(code.k_dim))
    if code.k_dim > 1:
        states.append(np.full(code.k_dim, 1.0 / np.sqrt(code.k_dim)))
    # position of each amplitude in the kept x erased table: its bits read
    # in the order kept qubits, then erased ones
    order = split.kept + split.erased
    inv = np.array([int("".join(format(idx, f"0{n}b")[q - 1] for q in order), 2)
                    for idx in range(1 << n)])

    def compressed_state(w):
        r = dec.ancilla_dim
        psi_small = ea.shared_state.reshape(r, c)
        return sum(wi * (dec.isometry[:, i * r:(i + 1) * r] @ psi_small)
                   for i, wi in enumerate(w))

    def restrict_to_kept(err):
        x_loc = z_loc = 0
        for j, q in enumerate(kept):
            bit = 1 << (m - 1 - j)
            x_loc |= bit * (err.x_bits >> (n - q) & 1)
            z_loc |= bit * (err.z_bits >> (n - q) & 1)
        return PauliOperator(m, x_loc, z_loc, err.phase_exp)

    def share_noise_corrupt(mat, err):
        padded = np.zeros((mat.shape[0], 1 << ea.ebit_cost), dtype=complex)
        padded[:, :c] = mat
        return (pauli_matrix(err) @ padded.reshape(-1)).reshape(padded.shape)[:, :c]

    apply_errors = list(codes.paulis_of_weight(n_err, sites, weight))
    cases, min_fid, failures = 0, 1.0, {}
    for err in apply_errors:
        letters = err.to_string()[1] or "I"
        if share_noise:
            label = letters[:m] + "|" + letters[m:]
        elif compressed:     # named on the transmitted register, carriers untouched
            label = restrict_to_kept(err).to_string()[1] + "|" + "I" * ea.ebit_cost
        else:
            label = letters
        for w in states:
            if not compressed:
                full = pauli_matrix(err) @ (w @ code.basis)
            else:
                sent = compressed_state(w)
                hit = (share_noise_corrupt(sent, err) if share_noise
                       else pauli_matrix(restrict_to_kept(err)) @ sent)
                full = (hit @ ea.compress_isometry.T).reshape(-1)[inv]
            t = w @ code.basis
            fid = float(np.sum(np.abs((kraus @ full) @ t.conj()) ** 2))
            cases += 1
            min_fid = min(min_fid, fid)
            if fid < 1.0 - FIDELITY_SLACK:
                failures[label] = min(failures.get(label, 1.0), fid)
    return simulate.VerificationReport(
        strategy=ea.strategy, model=model, error_weight=weight, cases_run=cases,
        min_fidelity=min_fid, failures=tuple(sorted(failures.items())),
        recovery_residual=residual, recovery_gram_defect=defect,
        exploratory=exploratory and compressed)


class TestKrausChannel:
    def test_unitary_channel(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        ch = KrausChannel(operators=(x,), dim=2)
        rho = random_density(np.random.default_rng(0), 2)
        np.testing.assert_allclose(ch.apply(rho), x @ rho @ x, atol=1e-14)

    def test_apply_matches_apply_to_pure(self):
        rng = np.random.default_rng(1)
        k0 = np.array([[1, 0], [0, np.sqrt(0.5)]], dtype=complex)
        k1 = np.array([[0, np.sqrt(0.5)], [0, 0]], dtype=complex)
        ch = KrausChannel(operators=(k0, k1), dim=2)
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        np.testing.assert_allclose(ch.apply_to_pure(v),
                                   ch.apply(np.outer(v, v.conj())), atol=1e-12)

    def test_rejects_trace_decreasing(self):
        with pytest.raises(ContractError):
            KrausChannel(operators=(0.5 * np.eye(2, dtype=complex),), dim=2)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ContractError):
            KrausChannel(operators=(np.eye(3, dtype=complex),), dim=2)

    def test_rejects_empty(self):
        with pytest.raises(ContractError):
            KrausChannel(operators=(), dim=2)


class TestReplacerChannel:
    @pytest.mark.parametrize("n,subset", [(3, (2,)), (3, (1, 3)), (4, (2, 4))])
    def test_matches_oracle(self, n, subset):
        rng = np.random.default_rng(5)
        ch = replacer_channel(n, subset)
        rho = random_density(rng, 1 << n)
        np.testing.assert_allclose(ch.apply(rho),
                                   oracle_replacer_output(rho, n, subset),
                                   atol=1e-12)

    def test_idempotent(self):
        ch = replacer_channel(3, (1, 3))
        rho = random_density(np.random.default_rng(9), 8)
        once = ch.apply(rho)
        np.testing.assert_allclose(ch.apply(once), once, atol=1e-12)

    def test_pure_state_entry(self):
        ch = replacer_channel(3, (2,))
        rng = np.random.default_rng(11)
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        v /= np.linalg.norm(v)
        np.testing.assert_allclose(
            ch.apply_to_pure(v),
            oracle_replacer_output(np.outer(v, v.conj()), 3, (2,)), atol=1e-12)

    def test_size_cap(self):
        with pytest.raises(SizeError):
            replacer_channel(7, (1, 2, 3, 4, 5, 6))

    def test_operators_refused_before_allocating(self):
        # n = 10, b = 1: four dense operators of 4^10 entries exceed MAX_DIM
        tracemalloc.start()
        try:
            with pytest.raises(SizeError):
                replacer_channel(10, (1,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestKlRecovery:
    @staticmethod
    def _weight_one_set(n):
        ops = [PauliOperator(n, 0, 0)]
        for q in range(1, n + 1):
            for letter in "XYZ":
                s = ["I"] * n
                s[q - 1] = letter
                ops.append(PauliOperator.from_string("".join(s)))
        return ops

    def test_corrects_every_single_qubit_error(self):
        code = cached_fixture("five_qubit")
        errors = self._weight_one_set(5)
        rec = simulate.kl_recovery(code, errors)
        assert rec.images.shape == (32, 16 * code.k_dim)
        assert rec.gram.shape == (16 * code.k_dim,) * 2
        assert rec.weights.shape == (16, 16)    # one decoder per error channel
        d = _decoders(rec, code.k_dim)
        for err in errors:
            e = pauli_matrix(err)
            for w in _code_coefficients(code.k_dim):
                fid = _fidelity(d, w, e @ (w @ code.basis))
                assert fid >= 1 - 1e-9, str(err)

    def test_kraus_action_proportional_to_projector(self):
        code = cached_fixture("five_qubit")
        errors = [PauliOperator.from_string(s) for s in ["IIIII", "XIIII", "IIZII"]]
        d = _decoders(simulate.kl_recovery(code, errors), code.k_dim)
        p = oracle_projector(code)
        for dk in d:
            op = code.basis.T @ dk   # the Kraus operator P F_k^dag / sqrt(d_k)
            for err in errors:
                prod = op @ pauli_matrix(err) @ p
                coeff = np.trace(prod @ p) / code.k_dim
                assert np.linalg.norm(prod - coeff * p) <= 1e-8

    def test_degenerate_pair_collapses_to_one_channel(self):
        code = cached_fixture("steane")
        stab_err = PauliOperator.from_string("IIIZZZZ")
        errors = [PauliOperator(7, 0, 0), stab_err]
        d = _decoders(simulate.kl_recovery(code, errors), code.k_dim)
        # correlation matrix has rank one, so a single decoder
        assert d.shape[0] == 1
        for err in errors:
            e = pauli_matrix(err)
            for w in _code_coefficients(code.k_dim):
                assert _fidelity(d, w, e @ (w @ code.basis)) >= 1 - 1e-9

    def test_logical_error_set_rejected(self):
        code = cached_fixture("five_qubit")
        errors = [PauliOperator(5, 0, 0), PauliOperator.from_string("XXXXX")]
        with pytest.raises(NotCorrectableError):
            simulate.kl_recovery(code, errors)

    def test_nonorthonormal_decoders_refused(self):
        # a residual tolerance loose enough to admit a logical error leaves
        # decoders V^dag and V^dag X whose rows overlap through logical X
        code = cached_fixture("five_qubit")
        errors = [PauliOperator(5, 0, 0), PauliOperator.from_string("XXXXX")]
        with pytest.raises(ConsistencyError, match=r"Gram defect \S+, bound 2\.00e-10"):
            simulate.kl_recovery(code, errors, residual_tol=10.0)

    def test_empty_error_set_rejected(self):
        with pytest.raises(ContractError):
            simulate.kl_recovery(cached_fixture("five_qubit"), [])

    def test_oversized_error_set_refused_before_allocating(self):
        # 16 qubits, K = 2, noisy weight 2: the images of 1129 errors alone
        # would take 1129 * 2 * 2^16 * 16 B, about 2.4 GB
        n = 16
        basis = np.zeros((2, 1 << n))
        basis[0, 0] = basis[1, -1] = 1.0
        code = codes.QuantumCode(n, basis)
        errors = [PauliOperator(n, 0, 0)] + [
            p for w in (1, 2) for p in codes.paulis_of_weight(n, range(1, n + 1), w)]
        assert len(errors) == 1129
        tracemalloc.start()
        try:
            with pytest.raises(SizeError):
                simulate.kl_recovery(code, errors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestKlRecoveryAgainstDense:
    @pytest.mark.parametrize("name,subset,model", [
        ("five_qubit", (4, 5), simulate.NOISY), ("five_qubit", (4, 5), simulate.NOISELESS),
        ("steane", (5, 6, 7), simulate.NOISY), ("pi_7_2_3", (6, 7), simulate.NOISY),
        ("steane", (4, 5, 6, 7), simulate.NOISELESS)])
    def test_fidelities_match_dense_channel(self, name, subset, model):
        code = cached_fixture(name)
        n = code.n
        sites = (qla.SubsystemSplit(n=n, erased=subset).kept if model == simulate.NOISELESS
                 else range(1, n + 1))
        errors = [PauliOperator(n, 0, 0)] + list(codes.paulis_of_weight(n, sites, 1))
        decoders = _decoders(simulate.kl_recovery(code, errors), code.k_dim)
        kraus = oracle_kl_recovery(code, errors)
        targets = _code_coefficients(code.k_dim)
        # code states, and one random input outside the code space
        inputs = [w @ code.basis for w in targets]
        inputs.append(random_state(np.random.default_rng(7), 1 << n))
        for err in errors:
            for state in inputs:
                hit = err.apply(state)
                for w in targets:
                    t = w @ code.basis
                    want = sum(abs(np.vdot(t, op @ hit)) ** 2 for op in kraus)
                    assert abs(_fidelity(decoders, w, hit) - want) <= 1e-12, str(err)


class TestVerifyEa:
    @staticmethod
    def _setup(name, subset):
        code = cached_fixture(name)
        dec = structure.decompose(code, subset)
        return code, dec

    def test_structure_noiseless_weight_one(self):
        code, dec = self._setup("five_qubit", (4, 5))
        ea = structure.ea_from_structure(dec)
        report = simulate.verify_ea(ea, dec, code, simulate.NOISELESS, 1)
        assert report.passed
        assert report.min_fidelity >= 1 - 1e-9
        assert report.cases_run == 9 * 3  # 3 kept qubits x 3 letters x 3 states
        assert report.failures == ()
        assert (report.strategy, report.model, report.error_weight) == \
            ("structure", "noiseless", 1)

    def test_structure_noisy_weight_one(self):
        code, dec = self._setup("five_qubit", (4, 5))
        ea = structure.ea_from_structure(dec)
        report = simulate.verify_ea(ea, dec, code, simulate.NOISY, 1)
        assert report.passed
        assert report.cases_run == 15 * 3

    def test_presend_noisy_weight_one(self):
        code, dec = self._setup("five_qubit", (4, 5))
        ea = structure.presend_from_decomposition(dec, code)
        report = simulate.verify_ea(ea, dec, code, simulate.NOISY, 1)
        assert report.passed

    def test_compressed_noiseless_weight_one(self):
        code, dec = self._setup("steane", (4, 5, 6, 7))
        ea = structure.compress(dec)
        report = simulate.verify_ea(ea, dec, code, simulate.NOISELESS, 1)
        assert report.passed
        assert report.cases_run == 9 * 3

    def test_compressed_noisy_refused(self):
        code, dec = self._setup("steane", (4, 5, 6, 7))
        ea = structure.compress(dec)
        with pytest.raises(ModelMismatchError):
            simulate.verify_ea(ea, dec, code, simulate.NOISY, 1)

    def test_compressed_noisy_exploratory(self):
        code, dec = self._setup("steane", (4, 5, 6, 7))
        ea = structure.compress(dec)
        report = simulate.verify_ea(ea, dec, code, simulate.NOISY, 1,
                                    exploratory=True)
        assert report.exploratory
        assert report.min_fidelity < 1 - 1e-9  # compression really costs here
        assert report.failures
        for label, fid in report.failures:
            kept_part, share_part = label.split("|")
            # only errors that touch the share's carrier qubits break recovery
            assert set(share_part) != {"I"}, label
            assert fid < 1 - 1e-9

    def test_weight_zero_everywhere(self):
        for name, subset in [("five_qubit", (4, 5)), ("pi_7_2_3", (6, 7))]:
            code, dec = self._setup(name, subset)
            ea = structure.ea_from_structure(dec)
            report = simulate.verify_ea(ea, dec, code, simulate.NOISY, 0)
            assert report.passed
            assert report.cases_run == 3

    def test_eleven_qubit_code_in_small_memory(self):
        # the 11 cyclic shifts of XXZZXXIXIXI: K = 2, distance 3; a dense
        # recovery channel here would take 34 operators of 2^11 x 2^11, and
        # the dense codespace projector alone 64 MiB
        seed = "XXZZXXIXIXI"
        gens = [seed[i:] + seed[:i] for i in range(len(seed))]
        tracemalloc.start()
        try:
            code = stab.codewords(stab.StabilizerGroup.from_strings(gens))
            dec = structure.decompose(code, (1, 2))
            ea = structure.ea_from_structure(dec)
            report = simulate.verify_ea(ea, dec, code, simulate.NOISY, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert report.cases_run == 99   # 33 errors x 3 states
        assert peak < 32 * 2 ** 20

    @pytest.mark.parametrize("strategy", [structure.STRUCTURE, structure.PRESEND])
    @pytest.mark.parametrize("model", [simulate.NOISELESS, simulate.NOISY])
    def test_code_register_applies_the_errors_once(self, strategy, model, monkeypatch):
        # the recovery's images are the only error pass: every case is read
        # off their Gram matrix, and one recovery serves the whole verify
        code, dec = self._setup("pi_7_2_3", (6, 7))
        ea = TestVerifyEaAgainstOracle._build(strategy, dec, code)
        applied, recovered = [], []
        monkeypatch.setattr(simulate, "apply_paulis",
                            lambda *a: applied.append(len(a[0])) or codes.apply_paulis(*a))
        build = simulate.kl_recovery
        monkeypatch.setattr(simulate, "kl_recovery",
                            lambda *a, **kw: recovered.append(1) or build(*a, **kw))
        report = simulate.verify_ea(ea, dec, code, model, 1)
        assert report.passed
        sites = 5 if model == simulate.NOISELESS else 7
        assert applied == [1 + 3 * sites] and recovered == [1]

    def test_margins_reported(self):
        code, dec = self._setup("pi_7_2_3", (6, 7))
        report = simulate.verify_ea(structure.ea_from_structure(dec), dec, code,
                                    simulate.NOISY, 1)
        assert 0.0 <= report.recovery_residual <= 1e-12
        assert 0.0 <= report.recovery_gram_defect <= 1e-12

    def test_bad_model_and_weight(self):
        code, dec = self._setup("five_qubit", (4, 5))
        ea = structure.ea_from_structure(dec)
        with pytest.raises(ContractError):
            simulate.verify_ea(ea, dec, code, "sometimes", 1)
        with pytest.raises(ContractError):
            simulate.verify_ea(ea, dec, code, simulate.NOISELESS, -1)


EA_EXAMPLES = [("five_qubit", (4, 5)), ("steane", (4, 5, 6, 7)), ("steane", (5, 6, 7)),
               ("pi_4_2_2", (4,)), ("pi_7_2_3", (6, 7)), ("xp_7_8_2", (7,))]


class TestVerifyEaAgainstOracle:
    """The transmitted-register path against the per-state oracle loop."""

    @staticmethod
    def _build(strategy, dec, code):
        return {structure.STRUCTURE: lambda: structure.ea_from_structure(dec),
                structure.PRESEND: lambda: structure.presend_from_decomposition(dec, code),
                structure.COMPRESSED: lambda: structure.compress(dec)}[strategy]()

    @staticmethod
    def _outcome(verify, *args, **kwargs):
        try:
            return verify(*args, **kwargs)
        except (ContractError, NotCorrectableError, SizeError, ConsistencyError) as exc:
            return type(exc)

    @pytest.mark.parametrize("name,subset", EA_EXAMPLES)
    @pytest.mark.parametrize("strategy", [structure.STRUCTURE, structure.PRESEND,
                                          structure.COMPRESSED])
    @pytest.mark.parametrize("model", [simulate.NOISELESS, simulate.NOISY])
    def test_matches_oracle(self, name, subset, strategy, model):
        code = cached_fixture(name)
        dec = structure.decompose(code, subset)
        ea = self._build(strategy, dec, code)
        exploratory = strategy == structure.COMPRESSED and model == simulate.NOISY
        for weight in range(3):
            got, want = (self._outcome(verify, ea, dec, code, model, weight,
                                       exploratory=exploratory)
                         for verify in (simulate.verify_ea, oracle_verify_ea))
            if isinstance(want, type):
                assert got is want, weight
                continue
            assert (got.cases_run, got.passed, got.exploratory) == \
                (want.cases_run, want.passed, want.exploratory), weight
            assert [p for p, _ in got.failures] == [p for p, _ in want.failures], weight
            assert abs(got.min_fidelity - want.min_fidelity) <= 1e-12
            for (_, f), (_, g) in zip(got.failures, want.failures):
                assert abs(f - g) <= 1e-12
            assert abs(got.recovery_residual - want.recovery_residual) <= 1e-12
            assert abs(got.recovery_gram_defect - want.recovery_gram_defect) <= 1e-12

    @pytest.mark.parametrize("name,subset,strategy,model", [
        ("steane", (5, 6, 7), structure.COMPRESSED, simulate.NOISY),
        ("pi_7_2_3", (6, 7), structure.STRUCTURE, simulate.NOISY),
        ("five_qubit", (4, 5), structure.PRESEND, simulate.NOISELESS)])
    def test_matches_oracle_over_several_batches(self, name, subset, strategy, model,
                                                 monkeypatch):
        # compressed: E errors times K + 1 test states outnumber the m K
        # columns of the images, so verify_ea splits the errors into more
        # than one batch; the code register reads every case off the Gram
        # matrix, with no batch at all
        code = cached_fixture(name)
        dec = structure.decompose(code, subset)
        ea = self._build(strategy, dec, code)
        exploratory = strategy == structure.COMPRESSED
        want = oracle_verify_ea(ea, dec, code, model, 1, exploratory=exploratory)
        calls = []
        monkeypatch.setattr(simulate, "apply_paulis",
                            lambda *a: calls.append(len(a[0])) or codes.apply_paulis(*a))
        got = simulate.verify_ea(ea, dec, code, model, 1, exploratory=exploratory)
        allowed = dec.split.kept if model == simulate.NOISELESS else range(1, code.n + 1)
        m = 1 + len(list(codes.paulis_of_weight(code.n, allowed, 1)))
        assert calls[0] == m            # the recovery's images
        if exploratory:
            assert got.cases_run > m * code.k_dim
            assert len(calls) > 2 and sum(calls[1:]) * (code.k_dim + 1) == got.cases_run
        else:
            assert len(calls) == 1
        assert got.cases_run == want.cases_run
        assert [p for p, _ in got.failures] == [p for p, _ in want.failures]
        assert (len(got.failures) > 0) == exploratory
        assert abs(got.min_fidelity - want.min_fidelity) <= 1e-12
        for (_, f), (_, g) in zip(got.failures, want.failures):
            assert abs(f - g) <= 1e-12


class TestVerifyEaOnDrawnCodes:
    """verify_ea against the per-case oracle on the codewords of drawn
    stabilizer groups, at every erased set that decompose certifies.

    Every recovered error is corrected, so at the default rank cutoff each
    fidelity is one.  The correlation matrix of a stabilizer code has
    integer eigenvalues (the sizes of its classes of equivalent errors, at
    most 19 here); a cutoff of 0.55 times the largest, which no ratio of
    two of them meets, drops the smaller channels, so the errors that
    live there fail and their labels and fidelities are compared too.
    """

    @given(data=st.data())
    @settings(max_examples=100)
    def test_matches_oracle(self, data):
        group = data.draw(abelian_groups(max_n=6))
        rank_tol = data.draw(st.sampled_from([RANK_TOL, 0.55]))
        code = stab.codewords(group)
        subset = data.draw(st.lists(st.integers(1, group.n), min_size=1,
                                    max_size=min(group.n, 3), unique=True))
        try:
            dec = structure.decompose(code, subset)
        except EaqecError:
            return
        outcome = TestVerifyEaAgainstOracle._outcome
        for strategy in (structure.STRUCTURE, structure.PRESEND):
            ea = TestVerifyEaAgainstOracle._build(strategy, dec, code)
            for model in (simulate.NOISELESS, simulate.NOISY):
                for weight in (0, 1):
                    got, want = (outcome(verify, ea, dec, code, model, weight,
                                         rank_tol=rank_tol)
                                 for verify in (simulate.verify_ea, oracle_verify_ea))
                    case = (strategy, model, weight, rank_tol)
                    if isinstance(want, type) or isinstance(got, type):
                        assert got is want, case
                        continue
                    assert got.cases_run == want.cases_run, case
                    assert [p for p, _ in got.failures] == [p for p, _ in want.failures], case
                    assert abs(got.min_fidelity - want.min_fidelity) <= 1e-12, case
                    for (_, f), (_, g) in zip(got.failures, want.failures):
                        assert abs(f - g) <= 1e-12, case


class TestChannelFormCheck:
    @pytest.mark.parametrize("name,subset", [
        ("five_qubit", (4, 5)), ("pi_4_2_2", (4,)), ("xp_7_8_2", (7,)),
        ("pi_7_2_3", (6, 7)), ("steane", (5, 6, 7)), ("steane", (4, 5, 6, 7))])
    def test_within_tolerance(self, name, subset):
        code = cached_fixture(name)
        dec = structure.decompose(code, subset)
        assert channel_form_check(dec, code) <= 1e-9

    def test_full_space_oracle(self):
        # the erasure output of any code state must equal the structured
        # form U (rho_R tensor Gamma) U^dag tensor I/2^b; check it on the
        # full 32-dimensional space entry by entry
        code = cached_fixture("five_qubit")
        subset = (4, 5)
        dec = structure.decompose(code, subset)
        split = dec.split
        kept = [q for q in range(1, 6) if q not in subset]
        for w in [np.array([1.0, 0]), np.array([0, 1.0]),
                  np.array([1, 1]) / np.sqrt(2), np.array([1, 1j]) / np.sqrt(2)]:
            psi = w @ code.basis
            lhs = oracle_replacer_output(np.outer(psi, psi.conj()), 5, subset)
            rhs_kept = dec.isometry @ np.kron(np.outer(w, w.conj()),
                                              dec.ancilla_state) @ dec.isometry.conj().T
            rhs = np.zeros_like(lhs)
            for i in range(32):
                for j in range(32):
                    # kept bits are qubits 1..3 (high bits), erased 4..5 (low)
                    if (i & 0b11) != (j & 0b11):
                        continue
                    rhs[i, j] = rhs_kept[i >> 2, j >> 2] / 4.0
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_size_cap(self):
        # the cap counts the dim_kept^2 kept-side entries, so a wide erased
        # set is cheap; the first refused split is n = 12 at b = 1
        v = np.zeros(2 ** 7, dtype=complex)
        v[0] = 1.0
        product_code = codes.QuantumCode(n=7, basis=v[None, :])
        dec = structure.decompose(product_code, (2, 3, 4, 5, 6, 7))
        assert channel_form_check(dec, product_code) <= 1e-12
