import functools
import random
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitzeta import algroup, corpus, grouptab
from orbitzeta.algroup import (AlgebraGroup, _c_route_inverse, _c_route_law,
                               orbit_partition)
from orbitzeta.budgets import Budgets, budget_scope
from orbitzeta.coadjoint import orbit_census
from orbitzeta.errors import BudgetError, InternalInconsistencyError, ValidationError
from orbitzeta.ffield import make_field
from orbitzeta.grouptab import FiniteGroupTable
from orbitzeta.linalg import base_p_digits
from orbitzeta.nilalg import NilAlgebra, make_zero_algebra


def random_rows(alg, rng, count):
    """count seeded digit rows of J, as int64."""
    codes = [rng.randrange(alg.field.q ** alg.dim) for _ in range(count)]
    return base_p_digits(codes, alg.field.p, alg.dim * alg.field.e).astype(np.int64)


@pytest.mark.parametrize("alg_name,alg", [
    ("u3_F2", corpus.unitriangular(3, 2)),
    ("u3_F3", corpus.unitriangular(3, 3)),
    ("u3_F4", corpus.unitriangular(3, 2, 2)),
    ("u4_F2", corpus.unitriangular(4, 2)),
    ("I_F2_D8", corpus.augmentation_ideal("D8", 2)),
    ("I_F3_C9", corpus.augmentation_ideal("C9", 3)),
])
def test_group_axioms_sampled(alg_name, alg):
    # the C route on 60 seeded triples, and the engine's route through T
    # against it; crc32 of the case name is the same seed in every process
    rng = random.Random(zlib.crc32(alg_name.encode()))
    x, y, z = (random_rows(alg, rng, 60) for _ in range(3))
    law = functools.partial(_c_route_law, alg)
    zero, inv = np.zeros_like(x), _c_route_inverse(alg, x)
    assert np.array_equal(law(law(x, y), z), law(x, law(y, z)))
    assert np.array_equal(law(x, inv), zero)
    assert np.array_equal(law(inv, x), zero)
    assert np.array_equal(law(x, zero), x)
    assert np.array_equal(law(zero, x), x)
    eng = AlgebraGroup(alg)
    assert np.array_equal(eng._gmul_rows(x, y), law(x, y))
    assert np.array_equal(eng._inverse_rows(x), inv)


def test_conjugation_and_commutator_identities():
    alg = corpus.unitriangular(4, 2)
    rng = random.Random(5)
    x, g, h, y = (random_rows(alg, rng, 40) for _ in range(4))
    law = functools.partial(_c_route_law, alg)

    def conj(a, b):  # the J-part of (1+b)^(-1) (1+a) (1+b)
        return law(law(_c_route_inverse(alg, b), a), b)

    assert np.array_equal(conj(conj(x, g), h), conj(x, law(g, h)))
    # [x, y] = x^{-1} x^y
    comm = law(law(_c_route_inverse(alg, x), _c_route_inverse(alg, y)), law(x, y))
    assert np.array_equal(comm, law(_c_route_inverse(alg, x), conj(x, y)))


def test_exp_log_bijection():
    # log(1+x) maps the N points of J onto J: a permutation of code order
    for alg in (corpus.unitriangular(3, 3), corpus.unitriangular(3, 5),
                corpus.zero_algebra(3, 2), corpus.augmentation_ideal("C3", 3)):
        eng = AlgebraGroup(alg)
        codes = eng.pack_digits(eng.log_digit_rows())
        assert np.array_equal(np.sort(codes), np.arange(eng.N)), alg.name


def test_exp_requires_p_nilpotence():
    u3 = corpus.unitriangular(3, 2)  # class 3 > p = 2
    with pytest.raises(ValidationError):
        AlgebraGroup(u3)._log_rows(np.eye(3, dtype=np.int64)[:1])


def test_orbit_partition_identity_fast_path():
    idx = np.arange(10, dtype=np.int64)
    part = orbit_partition([idx.copy(), idx.copy()], 10)
    assert part.count == 10
    assert np.array_equal(part.sizes, np.ones(10))


def test_orbit_partition_cycle():
    cyc = np.array([1, 2, 0, 3], dtype=np.int64)
    part = orbit_partition([cyc], 4)
    assert part.count == 2
    assert sorted(part.sizes) == [1, 3]
    assert part.labels[0] == part.labels[1] == part.labels[2]
    assert part.labels[3] != part.labels[0]


def _orbit_partition_bfs(perms, n_points):
    """Reference: one breadth-first search per unlabelled seed."""
    labels = np.full(n_points, -1, dtype=np.int64)
    reps, sizes = [], []
    for seed in range(n_points):
        if labels[seed] >= 0:
            continue
        cid = len(reps)
        labels[seed] = cid
        frontier = np.array([seed], dtype=np.int64)
        size = 1
        while frontier.size:
            imgs = np.unique(np.concatenate([perm[frontier] for perm in perms]))
            new = imgs[labels[imgs] < 0]
            labels[new] = cid
            size += int(new.size)
            frontier = new
        reps.append(seed)
        sizes.append(size)
    return labels, reps, sizes


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40).flatmap(
    lambda n: st.lists(st.permutations(range(n)), min_size=1, max_size=3)))
def test_orbit_partition_matches_per_seed_bfs(perm_lists):
    perms = [np.array(perm, dtype=np.int64) for perm in perm_lists]
    n_points = len(perms[0])
    part = orbit_partition(perms, n_points)
    labels, reps, sizes = _orbit_partition_bfs(perms, n_points)
    assert np.array_equal(part.labels, labels)
    assert part.reps.tolist() == reps
    assert part.sizes.tolist() == sizes


@pytest.mark.parametrize("perms", [[np.arange(6)], [np.array([1, 2, 0, 3, 5, 4])]],
                         ids=["identity", "cycles"])
def test_orbit_partition_returns_int64_arrays(perms):
    # both the fixed-point path and the fast path of the identity
    part = orbit_partition(perms, 6)
    for arr in (part.labels, part.reps, part.sizes):
        assert isinstance(arr, np.ndarray) and arr.dtype == np.int64



@pytest.mark.parametrize("inverse", [False, True], ids=["perm", "inverse"])
def test_orbit_partition_hooks_an_adversarial_cycle(monkeypatch, inverse):
    # one cycle through L-1, 0, L-2, 1, ...: in this direction gathers and
    # pointer jumping alone move the least label two steps a round, so they
    # need L/2 rounds (the inverse needs 2); with the hooking pass both take
    # at most log2 L
    L = 2 ** 14
    order = np.empty(L, dtype=np.int64)
    order[0::2], order[1::2] = np.arange(L - 1, L // 2 - 1, -1), np.arange(L // 2)
    perm = np.empty(L, dtype=np.int64)
    perm[order] = np.roll(order, -1)
    if inverse:
        perm = np.argsort(perm)
    rounds = []
    fixed = grouptab._labels_fixed
    monkeypatch.setattr(grouptab, "_labels_fixed",
                        lambda labels, perms: rounds.append(1) or fixed(labels, perms))
    part = orbit_partition([perm], L)
    labels, reps, sizes = _orbit_partition_bfs([perm], L)
    assert np.array_equal(part.labels, labels)
    assert part.reps.tolist() == reps == [0]
    assert part.sizes.tolist() == sizes == [L]
    assert 1 <= len(rounds) <= 14

KNOWN_GROUP_K = [
    ("u3_F2", corpus.unitriangular(3, 2), 5),
    ("u3_F3", corpus.unitriangular(3, 3), 11),
    ("u3_F4", corpus.unitriangular(3, 2, 2), 19),
    ("I_F3_C3", corpus.augmentation_ideal("C3", 3), 9),
]


@pytest.mark.parametrize("name,alg,k", KNOWN_GROUP_K)
def test_class_counts(name, alg, k):
    eng = AlgebraGroup(alg)
    assert eng.k() == k


def test_unitriangular_group_is_dihedral_of_order_8():
    # 1+J for u3(F2) is the full unitriangular group U3(F2) = D8; its Cayley
    # table by the C route
    alg = corpus.unitriangular(3, 2)
    eng = AlgebraGroup(alg)
    X = eng.digit_rows().astype(np.int64)
    table = eng.pack_digits(_c_route_law(alg, np.repeat(X, 8, axis=0), np.tile(X, (8, 1))))
    g = FiniteGroupTable.from_cayley_table(table.reshape(8, 8).tolist())
    assert g.k() == 5
    # exponent 4: every fourth power is the identity, not every square
    x = np.arange(g.order)
    assert (g.power(x, 4) == g.identity).all() and (g.power(x, 2) != g.identity).any()
    assert g.center_size() == 2


def test_brute_force_class_count_matches_engine():
    # independent oracle: the Cayley table of 1+J from products of all pairs
    # runs the FiniteGroupTable route to classes and the derived subgroup
    for alg in (corpus.unitriangular(3, 3), corpus.augmentation_ideal("C4", 2),
                corpus.unitriangular(3, 2, 2), corpus.unitriangular(4, 2),
                corpus.augmentation_ideal("D8", 2)):
        eng = AlgebraGroup(alg)
        X = eng.digit_rows().astype(np.int64)
        N = eng.N
        table = eng.pack_digits(eng._gmul_rows(np.repeat(X, N, axis=0), np.tile(X, (N, 1))))
        g = FiniteGroupTable.from_cayley_table(table.reshape(N, N))
        assert g.k() == eng.k(), alg.name
        assert sorted(g.conjugacy_classes().sizes) == sorted(eng.conjugacy_classes().sizes)
        assert np.array_equal(g.commutator_subgroup(), eng.commutator_subgroup())


def test_derived_subgroup_is_budgeted_before_its_masks():
    # J*J = 0 skips the generator closure; N = 2^40 must still hit the budget
    with pytest.raises(BudgetError):
        AlgebraGroup(corpus.zero_algebra(40, 2)).abelianization_order()


def test_right_mul_perm_matches_scalar():
    alg = corpus.unitriangular(3, 3)
    eng = AlgebraGroup(alg)
    rng = random.Random(2)
    points = base_p_digits([0, 1, 5, 11, 26], eng.p, eng.n).astype(np.int64)
    for y in random_rows(alg, rng, 10):
        perm = eng.right_mul_perm(y)
        want = eng.pack_digits(_c_route_law(alg, points, np.tile(y, (len(points), 1))))
        assert np.array_equal(perm[[0, 1, 5, 11, 26]], want)


@pytest.mark.parametrize("p,dim", [(2, 6), (3, 4), (5, 3), (131, 2), (2, 8), (2, 9), (2, 17),
                                   (3, 5), (3, 6), (17, 2), (257, 2), (2, 1)])
@pytest.mark.parametrize("with_shift", [False, True])
def test_affine_perm_matches_digit_matmul(p, dim, with_shift):
    # p = 2 is one block of all n digits, summed by XOR, at dim 1 to 17;
    # blocks of w digits with p^w <= 256 for 3 <= p <= 16: w = 5 at p = 3
    # (dim 4, 5 and 6 end inside, at and one past the first block); w = 1
    # adds the digits directly from p = 17 on.  p = 131, 257: digits on the
    # way reach 2p - 2, beyond a byte
    eng = AlgebraGroup(corpus.zero_algebra(dim, p))
    rng = np.random.default_rng(p * 10 + with_shift)
    mat = rng.integers(0, p, (dim, dim))
    shift = rng.integers(0, p, dim) if with_shift else np.zeros(dim, dtype=np.int64)
    digits = eng.digit_rows().astype(np.int64)
    want = ((digits @ mat + shift) % p) @ eng.powers
    got = eng.affine_perm(mat, shift if with_shift else None)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("dim,p", [(16, 2), (10, 3)])
def test_affine_perm_peak_memory(dim, p):
    # one warm call never forms an N x n digit array.  At p = 2 it holds
    # only its N int64 codes, with O(n^2) besides; for p > 2 the codes and
    # a byte per point per block, at most 4 int64 words per point at peak
    eng = AlgebraGroup(corpus.zero_algebra(dim, p))
    rng = np.random.default_rng(dim)
    mat, shift = rng.integers(0, p, (dim, dim)), rng.integers(0, p, dim)
    eng.affine_perm(mat, shift)
    tracemalloc.start()
    try:
        eng.affine_perm(mat, shift)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (8 * (eng.N + 4 * dim * dim) if p == 2 else 4 * 8 * eng.N)


@pytest.mark.parametrize("p,built", [(2, 0), (3, 1)])
def test_affine_perm_reads_the_digit_sum_table_only_past_p_2(p, built):
    # at p = 2 the digit-wise sum is XOR; at p = 3 the blocks need the table
    algroup._digit_sum_table.cache_clear()
    eng = AlgebraGroup(corpus.zero_algebra(6, p))
    rng = np.random.default_rng(p)
    eng.affine_perm(rng.integers(0, p, (6, 6)), rng.integers(0, p, 6))
    assert algroup._digit_sum_table.cache_info().misses == built


def test_abelianization_orders():
    # (1+J)/(1+J)' for u3(F_q) has order q^2
    for q, alg in ((2, corpus.unitriangular(3, 2)), (3, corpus.unitriangular(3, 3))):
        eng = AlgebraGroup(alg)
        assert eng.abelianization_order() == q * q
    # abelian case: the derived subgroup is trivial
    eng = AlgebraGroup(corpus.augmentation_ideal("C4", 2))
    assert eng.abelianization_order() == eng.N


def test_dual_orbit_count_matches_classes():
    for name, alg, k in KNOWN_GROUP_K:
        eng = AlgebraGroup(alg)
        assert eng.dual_orbits().count == eng.k() == k


def test_enumeration_budget():
    with budget_scope(Budgets(group_enumeration_max=8)):
        with pytest.raises(BudgetError, match="group_enumeration_max"):
            orbit_census(corpus.unitriangular(4, 2))
        with pytest.raises(BudgetError):
            AlgebraGroup(corpus.unitriangular(3, 3)).conjugacy_classes()


def test_vectorized_associativity_bulk():
    # 2000 seeded triples per algebra through the C route, one batch each
    rng = random.Random(101)
    for alg in (corpus.unitriangular(4, 2), corpus.unitriangular(3, 3),
                corpus.augmentation_ideal("Q8", 2)):
        x, y, z = random_rows(alg, rng, 3 * 2000).reshape(2000, 3, -1).transpose(1, 0, 2)
        assert np.array_equal(alg._fq_products(alg._fq_products(x, y), z),
                              alg._fq_products(x, alg._fq_products(y, z))), alg.name


def test_spot_check_catches_a_wrong_conjugation_matrix(monkeypatch):
    right = AlgebraGroup.conjugation_matrices

    def rolled(self, G):
        mats, duals = right(self, G)
        return np.roll(mats, 1, axis=1), duals

    monkeypatch.setattr(AlgebraGroup, "conjugation_matrices", rolled)
    for alg in (corpus.unitriangular(4, 2), corpus.unitriangular(3, 3, 2)):
        with pytest.raises(InternalInconsistencyError,
                           match="^conjugation matrix disagrees with direct conjugation$"):
            AlgebraGroup(alg)


@pytest.mark.parametrize("n,q", [(3, 2), (3, 3), (4, 2), (5, 2)])
def test_spot_check_catches_a_truncated_inverse(monkeypatch, n, q):
    # every basis seed 1 + b_t of u_n(F_q) has b_t^2 = 0, so its inverse
    # series has one term; the all-ones seed g has g^2 != 0 and shows the cut
    monkeypatch.setattr(algroup, "_c_route_inverse",
                        lambda alg, G: -np.asarray(G, dtype=np.int64) % alg.field.p)
    with pytest.raises(InternalInconsistencyError,
                       match="^conjugation matrix disagrees with direct conjugation$"):
        AlgebraGroup(corpus.unitriangular(n, q))


def test_engine_builds_past_int64():
    # N = 2^65 and 2^66: the spot check draws its points as Python ints
    for alg in (make_zero_algebra(65, make_field(2)), corpus.unitriangular(12, 2)):
        assert AlgebraGroup(alg).N == 2 ** alg.dim > 2 ** 63


def test_generator_inverses_are_computed_once(monkeypatch):
    # one batched inverse series for the matrices of every generator, one
    # for the commutators
    eng = AlgebraGroup(corpus.augmentation_ideal("D8", 2))
    calls = []
    inverse = AlgebraGroup._inverse_rows
    monkeypatch.setattr(AlgebraGroup, "_inverse_rows",
                        lambda self, G: calls.append(len(G)) or inverse(self, G))
    eng.group_perms(), eng.dual_perms(), eng.commutator_subgroup(), eng.k()
    assert calls == [len(eng._generators())] * 2 and calls[0] > 0


def test_digit_rows_hold_digits_above_127():
    # p = 131: digits up to 130 must survive storage, or packing and every
    # orbit computation on them go wrong
    eng = AlgebraGroup(corpus.zero_algebra(2, 131))
    assert np.array_equal(eng.pack_digits(eng.digit_rows()), np.arange(eng.N))


def test_zero_algebra_builds_no_permutations():
    # every conjugation of an elementary abelian 1+J is the identity
    eng = AlgebraGroup(corpus.zero_algebra(12, 2))
    assert eng.group_perms() == [] and eng.dual_perms() == []
    assert eng.k() == eng.dual_orbits().count == eng.N == 2 ** 12
    assert eng.abelianization_order() == eng.N


def test_central_generator_is_skipped():
    # J = u_3(F_2) + F_2 with F_2 a zero algebra: its generator is central,
    # and 1+J = D8 x C2 has 2 * 5 classes and abelianization of order 8
    u3 = corpus.unitriangular(3, 2)
    C = np.zeros((4, 4, 4, 1), dtype=np.int64)
    C[:3, :3, :3] = u3.C
    eng = AlgebraGroup(NilAlgebra(u3.field, C))
    gens = eng._generators()
    assert len(eng.group_perms()) == len(eng.dual_perms()) == len(gens) > 0
    assert not gens[:, 3].any()  # the seed 1 + b_3 is dropped
    assert eng.k() == eng.dual_orbits().count == 10
    assert eng.abelianization_order() == 8


@pytest.mark.parametrize("alg", corpus.duality_corpus(), ids=lambda alg: alg.name)
def test_no_generator_is_central(alg):
    eng = AlgebraGroup(alg)
    gens = eng._generators()
    mats, duals = eng.conjugation_matrices(gens)
    eye = np.eye(eng.n, dtype=np.int64)
    assert (mats != eye).any(axis=(1, 2)).all() and (duals != eye).any(axis=(1, 2)).all()
    assert all(np.array_equal(a, b) for a, b in zip((mats, duals), eng._generator_matrices()))


# ------------------------------------------------------- generating sets --

def _greedy_generators(eng):
    """The moving members of the greedy generating set, the reference: the
    seeds 1 + b_t that the earlier ones do not generate, then least coset
    representatives, each found by closure over N-point right
    multiplications."""
    codes = grouptab.generating_set(eng.N, 0, eng._right_mul_code, eng.powers)
    gens = base_p_digits(codes, eng.p, eng.n).astype(np.int64)
    mats, _ = eng.conjugation_matrices(gens)
    return gens[(mats != np.eye(eng.n, dtype=np.int64)).any(axis=(1, 2))]


def _closure_size(eng, gens):
    """The order of the subgroup of 1+J that the rows of gens generate."""
    mask = np.zeros(eng.N, dtype=bool)
    mask[0] = True
    grouptab._adjoin(mask, eng._right_mul_code, eng.pack_digits(gens))
    return int(np.count_nonzero(mask))


GENERATOR_CORPUS = {alg.name: alg
                    for alg in corpus.duality_corpus() + corpus.character_corpus()}


@pytest.mark.parametrize("alg", GENERATOR_CORPUS.values(), ids=GENERATOR_CORPUS)
def test_graded_generators_generate_and_beat_the_greedy_set(alg):
    # the whole graded set generates 1+J (_generators() keeps its moving
    # rows), and it moves with no more generators than the greedy search
    eng = AlgebraGroup(alg)
    assert _closure_size(eng, algroup._graded_generators(alg)) == eng.N
    assert len(eng._generators()) <= len(_greedy_generators(eng))


@pytest.mark.parametrize("name,graded,greedy", [
    ("D8", 3, 4), ("D16", 4, 5), ("M16", 6, 7), ("C4semC4", 6, 7), ("V4semC4", 6, 7),
    ("D8oC4", 7, 8), ("Q8", 3, 3), ("SD16", 4, 4), ("Q16", 4, 4), ("D8xC2", 7, 7),
    ("Q8xC2", 7, 7)])
def test_graded_generator_counts(name, graded, greedy):
    # moving generators of 1 + I_F2[name], graded set against the greedy one
    eng = AlgebraGroup(corpus.augmentation_ideal(name, 2))
    assert len(eng._generators()) == graded
    assert len(_greedy_generators(eng)) == greedy


def test_generators_enumerate_nothing(monkeypatch):
    # u_8(F_2) (N = 2^28) and I_F2[D8oD8] (N = 2^31) lie past the default
    # group_enumeration_max: no budget check, no search, no permutation.
    # u_n(F_q) is generated by its n - 1 root elements; the graded set of
    # I_F2[D8oD8] is not minimal
    calls = []

    def record(owner, name):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args: calls.append(name) or real(*args))

    engines = [(AlgebraGroup(corpus.unitriangular(8, 2)), 7),
               (AlgebraGroup(corpus.augmentation_ideal("D8oD8", 2)), 15)]
    record(grouptab, "generating_set")
    record(algroup, "check_budget")
    record(AlgebraGroup, "right_mul_perm")
    record(AlgebraGroup, "affine_perm")
    for eng, count in engines:
        assert len(eng._generators()) == count
    assert calls == []


@pytest.mark.parametrize("n,p,e", [(3, 2, 1), (4, 2, 1), (5, 3, 1), (3, 2, 2), (4, 7, 1),
                                   (6, 2, 1)])
def test_unitriangular_generators_are_the_root_elements(n, p, e):
    # the prime rows of the n - 1 root elements b_(i, i+1), the first
    # layer; p = 3 < class 5 in u_5(F_3), where p-th powers of layer rows enter
    gens = AlgebraGroup(corpus.unitriangular(n, p, e))._generators()
    assert len(gens) == (n - 1) * e
    assert not gens[:, (n - 1) * e:].any()


def test_log_rows_peak_memory():
    # _mul_rows forms its pair products a block of rows at a time: the log
    # series of all N = 15,625 points of u_4(F_5) (n = 6) peaks at no more
    # than 6 int64 words per digit of its input
    eng = AlgebraGroup(corpus.unitriangular(4, 5))
    X = eng.digit_rows()
    eng._log_rows(X)
    tracemalloc.start()
    try:
        eng._log_rows(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 8 * X.size
