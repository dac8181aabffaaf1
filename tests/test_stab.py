"""GF(2) stabilizer toolkit: commutation, Gram-Schmidt pairing, extension,
subgroup extraction, correctability, codeword synthesis.

Correctability and subgroup results are oracled against exhaustive dense
computations (group-element scans, projector-based coefficient checks)
that share no code with the GF(2) implementation.  The codewords, built
from GF(2) orbits of basis states, are oracled twice: bit for bit, signed
zeros included, against the projection build they replaced (one pass of
the generators per column, conftest.projection_codewords), and against
the dense 2^n x 2^n projector; the GF(2) verdicts are oracled against the
numerical analysis on random abelian groups.
"""

import tracemalloc
from functools import reduce
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eaqec import analysis, codes, qla, stab, structure
from eaqec.codes import PauliOperator
from eaqec.errors import (ContractError, InvalidStabilizerError, SizeError,
                          StructureViolationError)

from conftest import (CYCLIC11_GENS, SHOR_GENS, abelian_groups, cached_fixture, gf2_matrix,
                      gf2_rank, group_elements, group_to_json, oracle_matrix, pauli_matrix,
                      projection_codewords, reference_correctable, reference_subgroup_on,
                      shor_grid_generators)

FIVE_GENS = ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")
STEANE_GENS = ("IIIXXXX", "IXXIIXX", "XIXIXIX", "IIIZZZZ", "IZZIIZZ", "ZIZIZIZ")


class TestCommutes:
    def test_spec_pairs(self):
        a = PauliOperator.from_string("XZZ")
        b = PauliOperator.from_string("ZZX")
        c = PauliOperator.from_string("ZYY")
        assert a.commutes_with(b)
        assert not a.commutes_with(c)

    @given(st.text(alphabet="IXYZ", min_size=1, max_size=3),
           st.text(alphabet="IXYZ", min_size=1, max_size=3))
    def test_matches_dense_commutator(self, la, lb):
        n = max(len(la), len(lb))
        la, lb = la.ljust(n, "I"), lb.ljust(n, "I")
        p, q = PauliOperator.from_string(la), PauliOperator.from_string(lb)
        mp, mq = oracle_matrix(la), oracle_matrix(lb)
        dense_commute = bool(np.allclose(mp @ mq - mq @ mp, 0, atol=1e-13))
        assert p.commutes_with(q) == dense_commute

    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            PauliOperator.from_string("X").commutes_with(PauliOperator.from_string("XX"))


class TestEliminationAgainstMatrixKit:
    """The one mask elimination against the uint8 matrix kit it replaced."""

    @given(abelian_groups(max_n=8), st.data())
    def test_verdict_and_subgroup_for_every_b(self, g, data):
        for b in range(g.n + 1):
            subset = tuple(sorted(data.draw(st.permutations(range(1, g.n + 1)))[:b]))
            assert stab.is_correctable_stab(g, subset) == reference_correctable(g, subset)
            assert [str(p) for p in stab.subgroup_on(g, subset).generators] == \
                [str(p) for p in reference_subgroup_on(g, subset).generators]

    @given(st.integers(1, 8), st.data())
    def test_rank_under_mask(self, n, data):
        masks = st.integers(0, (1 << n) - 1)
        pairs = data.draw(st.lists(st.tuples(masks, masks), max_size=2 * n + 2))
        mask = data.draw(st.integers(0, (1 << 2 * n) - 1))
        ops = [PauliOperator(n, x, z) for x, z in pairs]
        # row bit 2n-1-c holds column c of the [x_1..x_n | z_1..z_n] layout
        cols = [c for c in range(2 * n) if mask >> (2 * n - 1 - c) & 1]
        masked = gf2_matrix(ops, n)[:, cols]
        pivots, dependents = stab._eliminate(stab._rows(ops), mask)
        assert len(pivots) == gf2_rank(masked)
        # the dependents are the rows that add no rank to the rows before
        # them; each combination has its own row on top, and the rows it
        # picks cancel on the mask
        assert list(dependents) == \
            [i for i in range(len(ops)) if gf2_rank(masked[:i + 1]) == gf2_rank(masked[:i])]
        for i, combination in dependents.items():
            assert combination >> i == 1
            chosen = [j for j in range(len(ops)) if combination >> j & 1]
            assert not (masked[chosen].sum(axis=0) % 2).any()


class TestCanonicalization:
    def test_keeps_independent_generators(self):
        g = stab.StabilizerGroup.from_strings(FIVE_GENS)
        assert g.num_generators == 4
        assert g.n == 5
        assert g.is_abelian

    def test_drops_dependent_generator(self):
        a = PauliOperator.from_string(FIVE_GENS[0])
        b = PauliOperator.from_string(FIVE_GENS[1])
        prod = a.compose(b)
        assert prod.to_string() == ("+", "XYIYX")
        g = stab.StabilizerGroup.from_strings(FIVE_GENS + ("XYIYX",))
        assert g.num_generators == 4

    def test_minus_identity_rejected(self):
        # -XYIYX makes the dependency close on -I
        with pytest.raises(InvalidStabilizerError):
            stab.StabilizerGroup.from_strings(FIVE_GENS + ("XYIYX",),
                                              phases=["+"] * 4 + ["-"])

    @pytest.mark.parametrize("gens,phases", [
        (("YZ", "YZ", "XX", "IX", "YZ"), "++-+-"), (("XX", "XX", "ZI"), "+-+")],
        ids=["YZ,YZ,XX,IX,YZ", "XX,XX,ZI"])
    def test_commuting_dependency_checked_in_nonabelian_list(self, gens, phases):
        # the last YZ is cancelled by the first alone, and YZ and -YZ compose
        # to -I in either order, although XX and IX anticommute with YZ; the
        # same holds for XX and -XX beside ZI
        with pytest.raises(InvalidStabilizerError, match=r"\(-I in group\)"):
            stab.StabilizerGroup.from_strings(gens, phases=list(phases))

    def test_anticommuting_dependency_not_checked(self):
        # XI ZI YI: the product of XI and ZI is -iYI in that order and +iYI
        # in the other, so the sign of YI is not fixed by the other two
        for phase in "+-":
            g = stab.StabilizerGroup.from_strings(("XI", "ZI", "YI"), phases=["+", "+", phase])
            assert [str(p) for p in g.generators] == ["XI", "ZI"]

    @given(abelian_groups(max_n=6), st.data())
    def test_appended_products_keep_the_group(self, g, data):
        # products of the generators (the identity among them), each under a
        # random sign: all are dropped when every sign is the product's own,
        # and any other sign puts -I in the group
        m = g.num_generators
        appended = data.draw(st.lists(st.tuples(st.integers(0, (1 << m) - 1), st.booleans()),
                                      max_size=4))
        gens, own = list(g.generators), True
        for combination, minus in appended:
            p = reduce(PauliOperator.compose,
                       [h for j, h in enumerate(g.generators) if combination >> j & 1],
                       PauliOperator(g.n, 0, 0))
            signed = PauliOperator(g.n, p.x_bits, p.z_bits,
                                   (p.x_bits & p.z_bits).bit_count() + 2 * minus)
            own &= signed == p
            gens.append(signed)
        if own:
            assert stab.StabilizerGroup.from_generators(gens, n=g.n).generators == g.generators
        else:
            with pytest.raises(InvalidStabilizerError, match="inconsistent phase"):
                stab.StabilizerGroup.from_generators(gens, n=g.n)

    def test_nonhermitian_generator_rejected(self):
        with pytest.raises(InvalidStabilizerError):
            stab.StabilizerGroup.from_strings(("X",), phases=["+i"])

    def test_nonabelian_allowed(self):
        g = stab.StabilizerGroup.from_strings(("XZZ", "ZYY", "ZZX", "YYZ"))
        assert not g.is_abelian
        assert g.num_generators == 4

    def test_group_order(self):
        g = stab.StabilizerGroup.from_strings(STEANE_GENS)
        assert 1 << g.num_generators == 64
        elems = group_elements(g)
        assert len({(e.x_bits, e.z_bits) for e in elems}) == 64


class TestSymplecticGramSchmidt:
    def test_worked_pairing(self):
        g = stab.StabilizerGroup.from_strings(("XZZ", "ZYY", "ZZX", "YYZ"))
        form = stab.symplectic_gram_schmidt(g)
        assert form.c == 2 and form.s == 0
        got = [(str(x), str(z)) for x, z in form.pairs]
        assert got == [("XZZ", "ZYY"), ("ZZX", "YYZ")]

    def test_abelian_group_all_isotropic(self):
        g = stab.StabilizerGroup.from_strings(STEANE_GENS)
        form = stab.symplectic_gram_schmidt(g)
        assert form.c == 0 and form.s == 6

    def test_commutation_relations_enforced(self):
        # mixed case: one anticommuting pair plus a commuting bystander
        g = stab.StabilizerGroup.from_strings(("XII", "ZII", "IZZ"))
        form = stab.symplectic_gram_schmidt(g)
        assert form.c == 1 and form.s == 1
        (x0, z0), = form.pairs
        iso = form.isotropic[0]
        assert not x0.commutes_with(z0)
        assert x0.commutes_with(iso) and z0.commutes_with(iso)

    @pytest.mark.parametrize("gens,isotropic", [
        (("XI", "ZI", "YZ"), ["-IZ"]), (("XII", "ZII", "YZI", "IIZ"), ["-IZI", "IIZ"])])
    def test_generator_anticommuting_with_both_of_a_pair(self, gens, isotropic):
        # YZ anticommutes with XI and ZI: fixing it by both leaves the
        # anti-Hermitian product iIZ, which takes a factor i
        form = stab.symplectic_gram_schmidt(stab.StabilizerGroup.from_strings(gens))
        assert [(str(a), str(b)) for a, b in form.pairs] == [(gens[0], gens[1])]
        assert [str(p) for p in form.isotropic] == isotropic
        ext = stab.ea_extend(form)
        assert ext.is_abelian and ext.n == len(gens[0]) + 1

    @given(st.integers(0, 2**32 - 1))
    def test_random_groups_satisfy_form(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        paulis = []
        for _ in range(int(rng.integers(2, 5))):
            x = int(rng.integers(0, 1 << n))
            z = int(rng.integers(0, 1 << n))
            phase = (x & z).bit_count() % 2  # hermitian phase choice
            paulis.append(PauliOperator(n, x, z, phase_exp=2 * ((x & z).bit_count() % 2) if False else ((x & z).bit_count() % 2) * 1))
        # keep only hermitian ones; skip degenerate draws
        paulis = [p for p in paulis if p.is_hermitian() and (p.x_bits | p.z_bits)]
        if not paulis:
            return
        try:
            g = stab.StabilizerGroup.from_generators(paulis, n=n)
        except InvalidStabilizerError:
            return
        form = stab.symplectic_gram_schmidt(g)
        assert 2 * form.c + form.s == g.num_generators
        for i, (xi, zi) in enumerate(form.pairs):
            assert not xi.commutes_with(zi)
            for j, (xj, zj) in enumerate(form.pairs):
                if i != j:
                    assert xi.commutes_with(xj) and xi.commutes_with(zj)
            for iso in form.isotropic:
                assert xi.commutes_with(iso) and zi.commutes_with(iso)
        for a, b in combinations(form.isotropic, 2):
            assert a.commutes_with(b)


class TestEaExtend:
    def test_worked_table(self):
        g = stab.StabilizerGroup.from_strings(("XZZ", "ZYY", "ZZX", "YYZ"))
        ext = stab.ea_extend(stab.symplectic_gram_schmidt(g))
        assert [str(p) for p in ext.generators] == [
            "XZZXI", "ZYYZI", "ZZXIX", "YYZIZ"]
        assert ext.n == 5
        assert ext.is_abelian

    def test_bell_pair_from_single_qubit(self):
        # <X, Z> on one qubit extends to <XX, ZZ>; its unique codeword is a Bell state
        g = stab.StabilizerGroup.from_strings(("X", "Z"))
        ext = stab.ea_extend(stab.symplectic_gram_schmidt(g))
        assert sorted(str(p) for p in ext.generators) == ["XX", "ZZ"]
        code = stab.codewords(ext)
        assert code.k_dim == 1
        bell = np.zeros(4, dtype=complex)
        bell[0b00] = bell[0b11] = 1 / np.sqrt(2)
        overlap = abs(np.vdot(bell, code.basis[0]))
        assert abs(overlap - 1.0) < 1e-12

    def test_projector_matches_five_qubit_fixture(self):
        g = stab.StabilizerGroup.from_strings(("XZZ", "ZYY", "ZZX", "YYZ"))
        ext = stab.ea_extend(stab.symplectic_gram_schmidt(g))
        code = stab.codewords(ext)
        p1 = codes.projector(code)
        p2 = codes.projector(cached_fixture("five_qubit"))
        assert np.linalg.norm(p1 - p2) < 1e-10

    def test_phases_preserved(self):
        g = stab.StabilizerGroup.from_strings(("X", "Z"), phases=["-", "+"])
        ext = stab.ea_extend(stab.symplectic_gram_schmidt(g))
        assert sorted(str(p) for p in ext.generators) == ["-XX", "ZZ"]


def oracle_codewords(group: stab.StabilizerGroup) -> np.ndarray:
    """The dense projector route: build prod (I + g)/2 as a 2^n x 2^n matrix,
    then select pivoted columns from it."""
    dim = 1 << group.n
    proj = np.eye(dim, dtype=complex)
    for g in group.generators:
        proj = (proj + g.apply(proj)) / 2
    k = round(float(np.trace(proj).real))
    cols = proj.copy()
    rows = []
    for _ in range(k):
        norms = np.linalg.norm(cols, axis=0)
        j = int(np.argmax(norms))
        v = cols[:, j] / norms[j]
        rows.append(v)
        cols = cols - np.outer(v, v.conj() @ cols)
    return qla.gauge_fix_columns(np.array(rows).T).T


def _extended(gens, phases=None) -> stab.StabilizerGroup:
    g = stab.StabilizerGroup.from_strings(gens, phases=phases)
    return stab.ea_extend(stab.symplectic_gram_schmidt(g))


NAMED_GROUPS = [
    pytest.param(lambda: stab.StabilizerGroup.from_strings(FIVE_GENS), id="five_gens"),
    pytest.param(lambda: stab.StabilizerGroup.from_strings(codes._FIVE_QUBIT_GENERATORS),
                 id="five_qubit"),
    pytest.param(lambda: stab.StabilizerGroup.from_strings(STEANE_GENS), id="steane_gens"),
    pytest.param(lambda: stab.StabilizerGroup.from_strings(codes._STEANE_GENERATORS),
                 id="steane"),
    pytest.param(lambda: stab.StabilizerGroup.from_strings(SHOR_GENS), id="shor"),
    pytest.param(lambda: stab.StabilizerGroup.from_strings(CYCLIC11_GENS), id="cyclic11"),
    pytest.param(lambda: _extended(("XZZ", "ZYY", "ZZX", "YYZ")), id="ext_five"),
    pytest.param(lambda: _extended(("X", "Z")), id="ext_bell"),
    pytest.param(lambda: _extended(("X", "Z"), phases=["-", "+"]), id="ext_bell_minus"),
    pytest.param(lambda: _extended(("XII", "ZII", "IZZ")), id="ext_mixed"),
]


class TestCodewordsAgainstDense:
    @pytest.mark.parametrize("group", NAMED_GROUPS)
    def test_bit_identical(self, group):
        g = group()
        assert np.array_equal(stab.codewords(g).basis, oracle_codewords(g))

    @given(abelian_groups(max_n=8))
    def test_random_groups(self, g):
        got = stab.codewords(g).basis
        want = oracle_codewords(g)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12

    def test_size_refused_before_allocating(self):
        # K 2^n = 2^12 * 2^12 is over MAX_DIM; refused from the generator count
        tracemalloc.start()
        try:
            with pytest.raises(SizeError):
                stab.codewords(stab.StabilizerGroup(n=12, generators=()))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


def _bits(a: np.ndarray) -> np.ndarray:
    """The raw bits of a complex array, C-contiguous, so signed zeros count."""
    return np.ascontiguousarray(a).view(np.uint64)


class TestCodewordsAgainstProjection:
    """The GF(2) orbits against the projection build they replaced, bit for bit."""

    @pytest.mark.parametrize("group", NAMED_GROUPS + [pytest.param(
        lambda: stab.StabilizerGroup.from_strings(shor_grid_generators(4).split(",")),
        id="shor_16_1_4")])
    def test_named_groups(self, group):
        g = group()
        assert np.array_equal(_bits(stab.codewords(g).basis), _bits(projection_codewords(g)))

    @settings(max_examples=300)
    @given(abelian_groups(max_n=8))
    def test_random_groups(self, g):
        got, want = stab.codewords(g).basis, projection_codewords(g)
        assert got.shape == want.shape
        assert np.array_equal(_bits(got), _bits(want))


class TestCodewords:
    def test_trace_formula(self):
        # K = 2^(n - c - s) for the extended group: n=5, c+s after extension is 4
        g = stab.StabilizerGroup.from_strings(("XZZ", "ZYY", "ZZX", "YYZ"))
        form = stab.symplectic_gram_schmidt(g)
        ext = stab.ea_extend(form)
        code = stab.codewords(ext)
        assert code.k_dim == 1 << (ext.n - ext.num_generators)
        assert code.k_dim == 1 << (g.n - form.c - form.s)

    def test_dense_projector_agreement(self):
        g = stab.StabilizerGroup.from_strings(STEANE_GENS)
        code = stab.codewords(g)
        # oracle projector: average over all 64 group elements, densely
        proj = np.zeros((128, 128), dtype=complex)
        for e in group_elements(g):
            proj += pauli_matrix(e)
        proj /= 64
        assert np.linalg.norm(codes.projector(code) - proj) < 1e-10

    def test_nonabelian_rejected(self):
        g = stab.StabilizerGroup.from_strings(("XZZ", "ZYY", "ZZX", "YYZ"))
        with pytest.raises(ContractError):
            stab.codewords(g)

    def test_empty_eigenspace(self):
        with pytest.raises(InvalidStabilizerError):
            stab.StabilizerGroup.from_strings(("X", "X"), phases=["+", "-"])

    @pytest.mark.parametrize("letters", ["ZI", "XI", "YZ"])
    def test_empty_eigenspace_of_a_group_built_directly(self, letters):
        # the constructor skips from_generators' phase check, so g and -g
        # both reach codewords, and no state is fixed by both
        g = PauliOperator.from_string(letters)
        minus = PauliOperator.from_string(letters, "-")
        with pytest.raises(InvalidStabilizerError, match="empty"):
            stab.codewords(stab.StabilizerGroup(n=2, generators=(g, minus)))


class TestSubgroupOn:
    def test_steane_erased_four(self):
        g = stab.StabilizerGroup.from_strings(STEANE_GENS)
        sub = stab.subgroup_on(g, (4, 5, 6, 7))
        assert 1 << sub.num_generators == 4
        got = sorted(str(p) for p in sub.generators)
        assert got == ["IIIXXXX", "IIIZZZZ"]

    @pytest.mark.parametrize("subset", [(1,), (2, 3), (1, 7)])
    def test_matches_exhaustive_scan(self, subset):
        g = stab.StabilizerGroup.from_strings(STEANE_GENS)
        sub = stab.subgroup_on(g, subset)
        outside = sum(1 << (7 - q) for q in range(1, 8) if q not in subset)
        supported = [e for e in group_elements(g) if not (e.x_bits | e.z_bits) & outside]
        assert 1 << sub.num_generators == len(supported)

    def test_five_qubit_pairs_trivial(self):
        g = stab.StabilizerGroup.from_strings(FIVE_GENS)
        for subset in combinations(range(1, 6), 2):
            assert stab.subgroup_on(g, subset).num_generators == 0

    @pytest.mark.parametrize("check", [stab.subgroup_on, stab.is_correctable_stab])
    def test_nonabelian_rejected(self, check):
        # the counting identity needs S abelian; this group contains XI and ZI
        g = stab.StabilizerGroup.from_strings(("XI", "ZI", "IZ"))
        with pytest.raises(ContractError, match="requires an abelian group"):
            check(g, (2,))

    def test_nonabelian_verdict_names_verdict_and_s(self):
        # the refusal names the function that refused, whoever called it
        g = stab.StabilizerGroup.from_strings(("XI", "ZI", "IZ"))
        for call in (lambda: stab.verdict_and_s(g, (2,)), lambda: g.verdict((2,))):
            with pytest.raises(ContractError, match="verdict_and_s requires an abelian group"):
                call()

    def test_abelian_check_is_computed_once(self):
        g = stab.StabilizerGroup.from_strings(FIVE_GENS)
        assert "is_abelian" not in vars(g)
        assert stab.is_correctable_stab(g, (4, 5))
        assert vars(g)["is_abelian"] is True

    def test_whole_set_returns_group(self):
        g = stab.StabilizerGroup.from_strings(FIVE_GENS)
        sub = stab.subgroup_on(g, (1, 2, 3, 4, 5))
        assert sub.num_generators == g.num_generators


def oracle_correctable(code: codes.QuantumCode, subset) -> bool:
    """Dense coefficient-proportionality check on the erased support."""
    proj = codes.projector(code)
    k = code.k_dim
    paulis = []
    for letters in product("IXYZ", repeat=len(subset)):
        full = ["I"] * code.n
        for q, ch in zip(subset, letters):
            full[q - 1] = ch
        paulis.append(oracle_matrix("".join(full)))
    for ea in paulis:
        for eb in paulis:
            m = proj @ ea.conj().T @ eb @ proj
            lam = np.trace(m) / k
            if np.linalg.norm(m - lam * proj) > 1e-8:
                return False
    return True


class TestCorrectability:
    @pytest.mark.parametrize("gens,fixture_name,max_b", [
        (FIVE_GENS, "five_qubit", 2),
        (STEANE_GENS, "steane", 2),
    ])
    def test_matches_dense_oracle(self, gens, fixture_name, max_b):
        g = stab.StabilizerGroup.from_strings(gens)
        code = cached_fixture(fixture_name)
        for b in range(1, max_b + 1):
            for subset in combinations(range(1, g.n + 1), b):
                assert stab.is_correctable_stab(g, subset) == \
                    oracle_correctable(code, subset), subset

    def test_steane_known_verdicts(self):
        g = stab.StabilizerGroup.from_strings(STEANE_GENS)
        assert stab.is_correctable_stab(g, (4, 5, 6, 7))
        assert not stab.is_correctable_stab(g, (1, 2, 3, 4, 5, 6, 7))

    def test_five_qubit_all_pairs(self):
        g = stab.StabilizerGroup.from_strings(FIVE_GENS)
        for subset in combinations(range(1, 6), 2):
            assert stab.is_correctable_stab(g, subset)


def assert_same_report(gf2, dense):
    """Every field of a group's GF(2) report against the moment route's
    report on its codewords."""
    assert (gf2.method, dense.method) == (analysis.GF2, analysis.MOMENTS)
    assert gf2.split == dense.split
    assert gf2.correctable == dense.correctable
    assert gf2.trichotomy == dense.trichotomy
    assert gf2.marginal_rank == dense.marginal_rank
    assert gf2.kept_marginal_ranks == dense.kept_marginal_ranks
    np.testing.assert_allclose(gf2.marginal_spectrum, dense.marginal_spectrum, rtol=0, atol=1e-12)
    assert abs(gf2.residual_max - dense.residual_max) <= 1e-9
    assert gf2.marginal is gf2.null_vectors is None


class TestGf2AgainstAnalysis:
    """Three independent verdicts on every drawn code: GF(2), the dense
    residual of analysis, and the certificate of structure.decompose; and
    every field of the GF(2) report and scan, the residual included,
    against the dense route."""

    @given(abelian_groups(max_n=7), st.data())
    def test_verdict_and_receiver_dim(self, g, data):
        b = data.draw(st.integers(1, min(3, g.n)))
        subset = tuple(sorted(data.draw(st.permutations(range(1, g.n + 1)))[:b]))
        code = stab.codewords(g)
        report = analysis.analyze_subset(code, subset)
        correctable = stab.is_correctable_stab(g, subset)
        assert correctable == report.correctable
        assert_same_report(analysis.analyze_subset(g, subset), report)
        for gf2, dense in zip(analysis.scan_subsets(g, b), analysis.scan_subsets(code, b),
                              strict=True):
            assert_same_report(gf2, dense)
        if not correctable:
            with pytest.raises(StructureViolationError):
                structure.decompose(code, subset)
            return
        s = stab.subgroup_on(g, subset).num_generators
        assert report.marginal_rank == 1 << (b - s)
        assert structure.decompose(code, subset).ancilla_dim == 1 << (b - s)
        assert report.trichotomy == (analysis.PURE if s == 0 else analysis.DEGENERATE)

    @pytest.mark.parametrize("gens", [FIVE_GENS, STEANE_GENS, SHOR_GENS, CYCLIC11_GENS],
                             ids=["five_qubit", "steane", "shor", "cyclic11"])
    def test_named_codes_every_field(self, gens):
        g = stab.StabilizerGroup.from_strings(gens)
        code = stab.codewords(g)
        for b in (1, 2, 3):
            for gf2, dense in zip(analysis.scan_subsets(g, b), analysis.scan_subsets(code, b),
                                  strict=True):
                assert_same_report(gf2, dense)
                assert_same_report(analysis.analyze_subset(g, gf2.split.erased[::-1]),
                                   analysis.analyze_subset(code, dense.split.erased[::-1]))


class TestMinDistance:
    """codes.min_distance on a group (GF(2) verdicts) against the dense
    scan of its codewords."""

    @pytest.mark.parametrize("gens", [FIVE_GENS, STEANE_GENS, SHOR_GENS, CYCLIC11_GENS],
                             ids=["five_qubit", "steane", "shor", "cyclic11"])
    @pytest.mark.parametrize("max_weight", [None, 1, 2, 3])
    def test_named_codes(self, gens, max_weight):
        g = stab.StabilizerGroup.from_strings(gens)
        want = codes.min_distance(stab.codewords(g), max_weight=max_weight)
        assert codes.min_distance(g, max_weight=max_weight) == want

    @settings(max_examples=300)
    @given(abelian_groups(max_n=8))
    def test_random_groups(self, g):
        code = stab.codewords(g)
        for max_weight in (None, 1, 2, 3):
            assert codes.min_distance(g, max_weight=max_weight) == \
                codes.min_distance(code, max_weight=max_weight)

    def test_full_rank_group_scans_nothing(self, monkeypatch):
        # r = n leaves K = 1, which detects every Pauli
        def refuse(*args):
            raise AssertionError("a set was checked")
        monkeypatch.setattr(stab, "verdict_and_s", refuse)
        g = stab.StabilizerGroup.from_strings(("XX", "ZZ"))
        assert codes.min_distance(g) is None

    def test_nonabelian_rejected(self):
        g = stab.StabilizerGroup.from_strings(("XI", "ZI", "IZ"))
        with pytest.raises(ContractError, match="requires an abelian group"):
            codes.min_distance(g)

    def test_negative_max_weight_rejected(self):
        with pytest.raises(ContractError, match="max_weight"):
            codes.min_distance(stab.StabilizerGroup.from_strings(FIVE_GENS), -1)


class TestJson:
    def test_round_trip(self):
        g = stab.StabilizerGroup.from_strings(("XZZXI", "ZYYZI"), phases=["-", "+"])
        data = group_to_json(g)
        back = stab.group_from_json(data)
        assert [str(p) for p in back.generators] == [str(p) for p in g.generators]

    def test_phases_omitted_when_all_plus(self):
        g = stab.StabilizerGroup.from_strings(FIVE_GENS)
        data = group_to_json(g)
        assert "phases" not in data

    def test_bad_length(self):
        with pytest.raises((ContractError, InvalidStabilizerError)):
            stab.group_from_json({"n": 3, "generators": ["XZ"]})
