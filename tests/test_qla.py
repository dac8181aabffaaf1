"""Dense linear-algebra kernel: the cut, spectra, ranks.

Oracles here are written from first principles with einsum/kron index
gymnastics, independent of the library's reshape-based implementations.
"""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eaqec import qla
from eaqec.config import HERMITICITY_TOL, RANK_TOL
from eaqec.errors import ContractError, SizeError

from conftest import (array_from_json, assert_bit_exact, kept_qubits, oracle_cut_index,
                      random_density, random_hermitian, random_state)


def oracle_partial_trace(rho, n, traced_qubits):
    """Reference partial trace by explicit index contraction."""
    keep = [q for q in range(1, n + 1) if q not in traced_qubits]
    t = rho.reshape((2,) * (2 * n))
    # axes: (ket_1..ket_n, bra_1..bra_n); qubit q -> axis q-1 and n+q-1
    for q in sorted(traced_qubits, reverse=True):
        m = t.ndim // 2
        t = np.trace(t, axis1=q - 1, axis2=m + q - 1)
        traced_qubits = [p if p < q else p - 1 for p in traced_qubits]
    d = 1 << len(keep)
    return t.reshape(d, d)


def oracle_permute(state, n, order):
    """Reference qubit permutation by per-amplitude bit shuffling."""
    out = np.zeros_like(state)
    for idx in range(state.size):
        bits = [(idx >> (n - q)) & 1 for q in range(1, n + 1)]
        new_bits = [bits[q - 1] for q in order]
        new_idx = 0
        for b in new_bits:
            new_idx = (new_idx << 1) | b
        out[new_idx] = state[idx]
    return out


def labelled_cut(n, erased):
    """The cut of the state whose amplitude at basis index i is i, so each
    entry [r, c] names the basis index that the cut put there."""
    m = qla.bipartite_matrix(np.arange(float(1 << n))[None], [erased])
    assert m.shape == (1, 1 << (n - len(erased)), 1, 1 << len(erased))
    return m[0, :, 0].real.astype(int)


class TestSubsystemSplit:
    """How the cut splits n qubits: kept qubits ascending on the rows,
    erased qubits in the given order on the columns (hand-derived cases)."""

    def test_basic_fields(self):
        # erasing the last two of five qubits keeps the index order:
        # row = bits of qubits 1,2,3 and column = bits of qubits 4,5
        m = labelled_cut(5, (4, 5))
        assert m.shape == (8, 4)
        assert np.array_equal(m, np.arange(32).reshape(8, 4))

    def test_erased_order_preserved(self):
        # n = 4, erased (3, 1): rows spell qubits (2, 4), columns (3, 1);
        # basis index = 8 q1 + 4 q2 + 2 q3 + q4
        m = labelled_cut(4, (3, 1))
        want = np.zeros((4, 4), dtype=int)
        for q2, q4, q3, q1 in np.ndindex(2, 2, 2, 2):
            want[2 * q2 + q4, 2 * q3 + q1] = 8 * q1 + 4 * q2 + 2 * q3 + q4
        assert np.array_equal(m, want)

    def test_empty_erased(self):
        # nothing erased: every qubit is kept and the one column is the state
        m = labelled_cut(3, ())
        assert m.shape == (8, 1)
        assert np.array_equal(m.ravel(), np.arange(8))


class TestPermutation:
    """The cut is a qubit permutation, kept qubits first, then a reshape."""

    def test_two_qubit_swap_indices(self):
        # hand-derived: erasing qubit 1 of 2 puts qubit 2 first, which
        # exchanges |01> and |10>
        m = qla.bipartite_matrix(np.arange(4.0)[None], [(1,)])
        assert m.shape == (1, 2, 1, 2)
        assert list(m.real.ravel()) == [0, 2, 1, 3]

    @given(st.integers(1, 5), st.randoms(use_true_random=False))
    def test_matches_bit_shuffle_oracle(self, n, rnd):
        order = list(range(1, n + 1))
        rnd.shuffle(order)
        erased = tuple(order[rnd.randint(0, n):])
        order = list(kept_qubits(n, erased) + erased)
        rng = np.random.default_rng(rnd.randint(0, 2**32 - 1))
        v = random_state(rng, 1 << n)
        got = qla.bipartite_matrix(v[None], [erased]).ravel()
        want = oracle_permute(v, n, order)
        assert np.allclose(got, want, atol=1e-14)
        # a stack of states cuts row by row
        stack = np.array([v, 2 * v, 1j * v])
        cut = qla.bipartite_matrix(stack, [erased])[0]
        assert cut.shape == (1 << (n - len(erased)), 3, 1 << len(erased))
        for i, row in enumerate(stack):
            one = qla.bipartite_matrix(row[None], [erased])[0, :, 0]
            assert np.array_equal(cut[:, i], one)
        # an operator relabelled by the same permutation acts consistently:
        # permute(a v) = (P a P^T) permute(v), P built column by column
        dim = 1 << n
        perm = np.array([oracle_permute(col, n, order) for col in np.eye(dim)]).T
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        lhs = perm @ a @ perm.T @ got
        assert np.allclose(lhs, qla.bipartite_matrix((a @ v)[None], [erased]).ravel(),
                           atol=1e-12)


class TestBipartiteMatrix:
    def test_hand_example(self):
        # n=2, erase qubit 1: rows indexed by kept qubit 2, cols by qubit 1
        v = np.array([1.0, 2.0, 3.0, 4.0])
        m = qla.bipartite_matrix(v[None], [(1,)])[0, :, 0]
        assert np.allclose(m, [[1.0, 3.0], [2.0, 4.0]])

    @given(st.integers(2, 6), st.data())
    def test_norm_preserved(self, n, data):
        b = data.draw(st.integers(1, n - 1))
        erased = tuple(data.draw(
            st.lists(st.integers(1, n), min_size=b, max_size=b, unique=True)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        v = random_state(rng, 1 << n)
        m = qla.bipartite_matrix(v[None], [erased])[0, :, 0]
        assert m.shape == (1 << (n - b), 1 << b)
        assert abs(np.linalg.norm(m) - 1.0) < 1e-12

    def test_shape_contract(self):
        for bad in (np.zeros(8), np.zeros((2, 6)), np.zeros((1, 2, 4))):
            with pytest.raises(ContractError):
                qla.bipartite_matrix(bad, [(1,)])


class TestStackedCut:
    """An (S, b) array of erased sets cuts each set by its own axis
    transpose: each slice is bit for bit the cut of its own split and the
    gather through the reference index table (oracle_cut_index)."""

    @given(st.integers(1, 9), st.data())
    def test_each_slice_is_its_splits_cut(self, n, data):
        b = data.draw(st.integers(0, n))
        count = data.draw(st.integers(0, 5))
        sets = [tuple(data.draw(st.permutations(range(1, n + 1)))[:b]) for _ in range(count)]
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        states = np.array([random_state(rng, 1 << n) for _ in range(3)])
        erased = np.array(sets, dtype=int).reshape(count, b)
        cut = qla.bipartite_matrix(states, erased)
        assert cut.shape == (count, 1 << (n - b), 3, 1 << b)
        gathered = states[..., oracle_cut_index(n, erased)]   # (3, S, dim_kept, dim_erased)
        for s, subset in enumerate(sets):
            assert_bit_exact(cut[s], qla.bipartite_matrix(states, [subset])[0])
            assert_bit_exact(cut[s], gathered[:, s].transpose(1, 0, 2))

    @pytest.mark.parametrize("erased", [[[0, 1]], [[1, 4]], [[1, 1]], [[1, 2], [2, 2]]])
    def test_bad_labels_are_refused(self, erased):
        with pytest.raises(ContractError, match=r"erased set \("):
            qla.bipartite_matrix(np.zeros((1, 8)), np.array(erased))


def random_mixture(rng, n, k):
    """k orthonormal n-qubit states (rows) and random weights summing to one."""
    states, _ = np.linalg.qr(rng.normal(size=(1 << n, k)) + 1j * rng.normal(size=(1 << n, k)))
    weights = rng.random(k) + 0.1
    return states.T, weights / weights.sum()


class TestPartialTrace:
    """Both marginals of a mixture of cut states, against index contraction."""

    @given(st.integers(2, 6), st.data())
    def test_matches_contraction_oracle(self, n, data):
        b = data.draw(st.integers(1, n - 1))
        erased = tuple(sorted(data.draw(
            st.lists(st.integers(1, n), min_size=b, max_size=b, unique=True))))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        states, p = random_mixture(rng, n, data.draw(st.integers(1, 3)))
        rho = (states.T * p) @ states.conj()
        a = qla.bipartite_matrix(states, [erased])[0]
        got = np.einsum("i,kif,lif->kl", p, a, a.conj())
        want = oracle_partial_trace(rho, n, list(erased))
        assert np.allclose(got, want, atol=1e-12)
        got_k = np.einsum("i,kif,kig->fg", p, a, a.conj())
        want_k = oracle_partial_trace(rho, n, list(kept_qubits(n, erased)))
        assert np.allclose(got_k, want_k, atol=1e-12)

    @given(st.integers(2, 6), st.data())
    def test_trace_and_hermiticity_preserved(self, n, data):
        b = data.draw(st.integers(1, n - 1))
        erased = tuple(data.draw(
            st.lists(st.integers(1, n), min_size=b, max_size=b, unique=True)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        states, p = random_mixture(rng, n, data.draw(st.integers(1, 3)))
        a = qla.bipartite_matrix(states, [erased])[0]
        red = np.einsum("i,kif,lif->kl", p, a, a.conj())
        assert abs(np.trace(red) - 1.0) < 1e-12
        assert np.linalg.norm(red - red.conj().T) < 1e-12
        evs = np.linalg.eigvalsh(red)
        assert evs.min() > -1e-12

    def test_pure_state_consistency(self):
        # Tr_B |v><v| must match M M^dag with M the bipartite matrix
        rng = np.random.default_rng(7)
        v = random_state(rng, 16)
        m = qla.bipartite_matrix(v[None], [(2, 4)])[0, :, 0]
        red = oracle_partial_trace(np.outer(v, v.conj()), 4, [2, 4])
        assert np.allclose(red, m @ m.conj().T, atol=1e-12)


def _loop_pivot_index(col):
    nz = np.flatnonzero(np.abs(col) > 1e-12 * max(np.abs(col).max(), 1e-300))
    return int(nz[0]) if nz.size else col.shape[0]


def oracle_gauge_fix_columns(vectors):
    """Gauge fixing one column at a time, pivot by flatnonzero."""
    out = vectors.copy()
    for k in range(out.shape[1]):
        col = out[:, k]
        piv = _loop_pivot_index(col)
        if piv < col.shape[0]:
            out[:, k] = col * (abs(col[piv]) / col[piv])
    return out


def oracle_eig_hermitian(m, tol=HERMITICITY_TOL):
    """eigh, gauge fixing and a per-block pivot sort, all as column loops."""
    w, v = np.linalg.eigh(np.asarray(m, dtype=complex))
    w, v = w[::-1], oracle_gauge_fix_columns(v[:, ::-1])
    for blk in qla._degenerate_blocks(w, tol):
        sub = v[:, blk]
        order = np.argsort([_loop_pivot_index(sub[:, j]) for j in range(sub.shape[1])],
                           kind="stable")
        v[:, blk] = sub[:, order]
    return w, v


def oracle_svd(m):
    """The gauge-fixed SVD as column loops; vh rows take the conjugate phases."""
    u, s, vh = np.linalg.svd(np.asarray(m, dtype=complex), full_matrices=False)
    r = min(u.shape[0], vh.shape[0])
    for k in range(r):
        col = u[:, k]
        piv = _loop_pivot_index(col)
        if piv < col.shape[0]:
            factor = abs(col[piv]) / col[piv]
            u[:, k] = col * factor
            vh[k, :] = vh[k, :] * np.conj(factor)
    for blk in qla._degenerate_blocks(s[:r], RANK_TOL):
        order = np.argsort([_loop_pivot_index(u[:, j]) for j in range(blk.start, blk.stop)],
                           kind="stable")
        u[:, blk] = u[:, blk][:, order]
        vh[blk, :] = vh[blk, :][order, :]
    return u, s, vh


def _gauge_cases(seed: int):
    """Random complex matrices with zero rows and columns, and Hermitian
    matrices with integer (so heavily degenerate) spectra."""
    rng = np.random.default_rng(seed)
    for _ in range(40):
        d, e = (int(x) for x in rng.integers(1, 12, size=2))
        a = rng.normal(size=(d, e)) + 1j * rng.normal(size=(d, e))
        a[:, rng.random(e) < 0.3] = 0
        a[rng.random(d) < 0.3] = 0
        q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        yield a, (q * np.round(rng.normal(size=d))) @ q.conj().T


class TestGaugeAgainstLoops:
    """The vectorised pivot search and block sort give the loop results bit
    for bit: downstream spectra, kernels and JSON payloads depend on it."""

    @pytest.mark.parametrize("seed", range(4))
    def test_bit_identical(self, seed):
        for a, h in _gauge_cases(seed):
            assert np.array_equal(qla.gauge_fix_columns(a), oracle_gauge_fix_columns(a))
            for got, want in zip(qla.svd(a), oracle_svd(a)):
                assert got.tobytes() == want.tobytes()
            h = (h + h.conj().T) / 2
            for got, want in zip(qla.eig_hermitian(h), oracle_eig_hermitian(h)):
                assert got.tobytes() == want.tobytes()


class TestEigHermitian:
    @given(st.integers(1, 7), st.integers(0, 2**32 - 1))
    def test_reconstruction_and_order(self, nbits, seed):
        dim = min(1 << nbits, 128)
        rng = np.random.default_rng(seed)
        m = random_hermitian(rng, dim)
        vals, vecs = qla.eig_hermitian(m)
        assert np.all(np.diff(vals) <= 1e-12)
        assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(dim)) < 1e-10
        assert np.linalg.norm(vecs @ np.diag(vals) @ vecs.conj().T - m) < 1e-10 * max(
            1.0, np.linalg.norm(m))

    def test_known_spectra(self):
        vals, _ = qla.eig_hermitian(np.eye(2) / 2)
        assert np.allclose(vals, [0.5, 0.5])
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        vals, _ = qla.eig_hermitian(x)
        assert np.allclose(vals, [1.0, -1.0])

    def test_rejects_nonhermitian(self):
        with pytest.raises(ContractError):
            qla.eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("seed", range(4))
    def test_stacked_eigenvalues_are_eig_hermitians(self, seed):
        # one stacked solve, each matrix's values bit for bit eig_hermitian's,
        # and its vectors, not gauge fixed, eigenvectors of the matrix
        cases = [(h + h.conj().T) / 2 for _, h in _gauge_cases(seed)]
        dim = cases[0].shape[0]
        stack = np.array([h for h in cases if h.shape[0] == dim])
        got, vecs = qla.eigh(stack)
        for vals, v, h in zip(got, vecs, stack):
            assert vals.tobytes() == qla.eig_hermitian(h)[0].tobytes()
            np.testing.assert_allclose(h @ v, v * vals, atol=1e-12)

    def test_stack_with_one_nonhermitian_matrix_is_refused(self):
        stack = np.array([np.eye(2), [[0.0, 1.0], [0.0, 0.0]]], dtype=complex)
        qla.eigh(stack[:1])
        with pytest.raises(ContractError):
            qla.eigh(stack)

    def test_gauge_deterministic(self):
        rng = np.random.default_rng(3)
        m = random_hermitian(rng, 9)
        v1 = qla.eig_hermitian(m)[1]
        v2 = qla.eig_hermitian(m.copy(order="F"))[1]
        assert np.allclose(v1, v2, atol=1e-13)


class TestSvd:
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_reconstruction(self, r, c, seed):
        rows, cols = 1 << (r // 2 + 1), 1 << (c // 2 + 1)
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
        u, s, vh = qla.svd(m)
        r = min(rows, cols)
        assert u.shape == (rows, r) and s.shape == (r,) and vh.shape == (r, cols)
        assert np.all(s >= -1e-15) and np.all(np.diff(s) <= 1e-12)
        assert np.linalg.norm(u @ np.diag(s) @ vh - m) < 1e-10 * max(1.0, np.linalg.norm(m))
        assert np.linalg.norm(u.conj().T @ u - np.eye(r)) < 1e-10
        assert np.linalg.norm(vh @ vh.conj().T - np.eye(r)) < 1e-10

    def test_gauge_pins_left_pivots(self):
        rng = np.random.default_rng(11)
        m = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
        u, s, vh = qla.svd(m)
        for k in range(4):
            col = u[:, k]
            piv = col[np.argmax(np.abs(col) > 1e-8)]
            assert abs(piv.imag) < 1e-10 and piv.real > 0


class TestRankAndPinv:
    def test_numerical_rank(self):
        assert qla.numerical_rank(np.array([1.0, 0.5, 1e-12]), 1e-9) == 2
        assert qla.numerical_rank(np.array([2.0, 2e-9]), 1e-9) == 1
        assert qla.numerical_rank(np.array([]), 1e-9) == 0
        assert qla.numerical_rank(np.zeros(3), 1e-9) == 0

    def test_numerical_rank_of_a_stack(self):
        rows = [[1.0, 0.5, 1e-12], [2.0, 2e-9, 0.0], [0.0, 0.0, 0.0], [-1.0, -2.0, 0.0]]
        got = qla.numerical_rank(np.array(rows), 1e-9)
        assert got.tolist() == [qla.numerical_rank(np.array(row), 1e-9) for row in rows]
        # any leading shape: the last axis is ranked
        assert qla.numerical_rank(np.array(rows).reshape(2, 2, 3), 1e-9).tolist() == [
            got[:2].tolist(), got[2:].tolist()]


class TestSmallHelpers:
    def test_is_isometry(self):
        v = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        assert qla.orthonormal_defect(v.T @ v) == (0.0, 1e-10 * 2 ** 0.5)
        defect, bound = qla.orthonormal_defect(4 * v.T @ v)
        assert defect == pytest.approx(3 * 2 ** 0.5) and defect > bound

    def test_sqrtm_psd(self):
        rng = np.random.default_rng(5)
        rho = random_density(rng, 8, rank=3)
        s = qla.sqrtm_psd(rho)
        assert np.linalg.norm(s @ s - rho) < 1e-10

    def test_check_dim_cap(self):
        with pytest.raises(SizeError):
            qla.check_dim(2**21)

    def test_gauge_fix_columns(self):
        m = np.array([[0.0, -2.0], [1j, 1.0]])
        fixed = qla.gauge_fix_columns(m)
        # first nonzero entry of each column becomes real positive
        assert fixed[1, 0].real > 0 and abs(fixed[1, 0].imag) < 1e-15
        assert fixed[0, 1].real > 0


def _json_round_trip(a):
    return json.loads(json.dumps(qla.array_to_json(a)))


class TestArrayJson:
    def test_record_layout(self):
        a = np.array([[0, 1 + 2j], [0, -3]])
        assert _json_round_trip(a) == {"shape": [2, 2], "index": [1, 3],
                                       "re": [1.0, -3.0], "im": [2.0, 0.0]}

    @pytest.mark.parametrize("shape", [(5,), (2, 3), (0,), (0, 4)])
    def test_all_zero_array_keeps_its_shape(self, shape):
        record = _json_round_trip(np.zeros(shape, dtype=complex))
        assert record == {"shape": list(shape), "index": [], "re": [], "im": []}
        assert_bit_exact(array_from_json(record), np.zeros(shape, dtype=complex))

    def test_signed_zero_part_of_a_nonzero_entry_is_kept(self):
        a = np.array([complex(-0.0, 1.0), complex(2.0, -0.0), complex(-0.0, -0.0), 0j])
        record = _json_round_trip(a)
        assert record["index"] == [0, 1]
        got = array_from_json(record)
        assert np.signbit(got.real[0]) and not np.signbit(got.imag[0])
        assert np.signbit(got.imag[1]) and not np.signbit(got.real[1])
        # an omitted entry reads +0.0, so the -0.0 - 0.0j entry loses its signs
        assert_bit_exact(got, a)
        assert not np.signbit(got.real[2]) and not np.signbit(got.imag[2])

    @pytest.mark.parametrize("shape", [(64,), (8, 16), (16, 8)])
    def test_sparse_arrays_round_trip_bit_for_bit(self, shape):
        rng = np.random.default_rng(sum(shape))
        a = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * (rng.random(shape) < 0.3)
        a[a.real > 1.0] = a[a.real > 1.0].imag  # some entries with an exact zero imaginary part
        for source in (a, a.T):  # a transposed view is read in its own C order
            record = _json_round_trip(source)
            index = np.array(record["index"])
            assert np.all(np.diff(index) > 0)
            assert np.array_equal(index, np.flatnonzero(np.ascontiguousarray(source)))
            assert_bit_exact(array_from_json(record), source)
